"""Text interchange format for networks.

One JSON document per network.  Layout:

    depth    2 or 3
    d        input dimension
    d1       hidden width (first hidden layer for depth 3)
    d2       second hidden width, depth 3 only
    W, b     first-layer weights (flat, row-major) and biases
    V, c     the top's unit weights and biases, depth 3 only
    u        unit signs: of the units W, b at depth 2, of the top at depth 3
    skip_w, skip_b
             optional affine term: over the input for depth 2, over the first
             hidden activations for depth 3
    seed     optional provenance metadata; a "delta" entry is accepted on
             load and ignored

A depth-2 network and the two-layer top of a depth-3 network are written and
read by the same unit-field code: the units of a depth-2 net are W, b, u over
d inputs, those of a depth-3 top are V, c, u over d1.

Floats are written with 17 significant digits, so parsing reproduces the
exact float64 bit pattern and serialization is deterministic.
"""
from __future__ import annotations

import json

import numpy as np

from .nets import AffineMap, Neuron, ThreeLayerNet, TwoLayerNet

FORMAT_NAME = "netpeel-net"

_KEY_ORDER = [
    "format", "depth", "d", "d1", "d2",
    "W", "b", "V", "c", "u", "skip_w", "skip_b",
    "seed", "delta",
]


def format_float(x: float) -> str:
    s = format(float(x), ".17g")
    # Keep the token a JSON number even for integral values.
    if "e" not in s and "E" not in s and "." not in s and "n" not in s:
        s += ".0"
    return s


def _emit_value(v) -> str:
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_emit_value(e) for e in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def dumps_document(doc: dict) -> str:
    unknown = set(doc) - set(_KEY_ORDER)
    if unknown:
        raise ValueError(f"unknown document keys: {sorted(unknown)}")
    lines = ["{"]
    keys = [k for k in _KEY_ORDER if k in doc]
    for i, k in enumerate(keys):
        comma = "," if i + 1 < len(keys) else ""
        lines.append(f'  "{k}": {_emit_value(doc[k])}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def loads_document(text: str) -> dict:
    return check_document(json.loads(text))


def check_document(doc) -> dict:
    """`doc` itself, once it is a network document of depth 2 or 3."""
    if not isinstance(doc, dict):
        raise ValueError("network document must be a JSON object")
    if doc.get("format", FORMAT_NAME) != FORMAT_NAME:
        raise ValueError(f"unrecognized document format {doc.get('format')!r}")
    if doc.get("depth") not in (2, 3):
        raise ValueError("document depth must be 2 or 3")
    return doc


def _write_units(doc: dict, net: TwoLayerNet, names: tuple[str, str]) -> None:
    """Write the units of `net` as fields `names` (weights, biases) and "u",
    and its affine term, if any, as "skip_w" and "skip_b"."""
    w_name, b_name = names
    doc[w_name] = [float(v) for n in net.neurons for v in n.w]
    doc[b_name] = [float(n.b) for n in net.neurons]
    doc["u"] = [n.sign for n in net.neurons]
    if net.skip is not None:
        doc["skip_w"] = [float(v) for v in net.skip.w]
        doc["skip_b"] = float(net.skip.b)


def net_to_document(net, seed=None) -> dict:
    doc = {"format": FORMAT_NAME}
    if isinstance(net, TwoLayerNet):
        doc.update(depth=2, d=net.d, d1=net.width)
        _write_units(doc, net, ("W", "b"))
    elif isinstance(net, ThreeLayerNet):
        doc.update(depth=3, d=net.d, d1=net.d1, d2=net.top.width)
        doc["W"] = [float(v) for row in net.W for v in row]
        doc["b"] = [float(v) for v in net.b]
        _write_units(doc, net.top, ("V", "c"))
    else:
        raise TypeError(f"not a network container: {type(net).__name__}")
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def _numbers(doc: dict, name: str, size: int) -> np.ndarray:
    """The finite numbers of field `name`, which must have `size` of them."""
    arr = np.asarray(doc[name], dtype=float)
    if arr.size != size:
        raise ValueError(f"{name} has {arr.size} entries, expected {size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has a non-finite entry")
    return arr.reshape(-1)


def _read_units(doc: dict, names: tuple[str, str], dim: int, width: int) -> TwoLayerNet:
    """The units of fields `names` (weights, biases) and "u" over `dim` inputs,
    with the affine term of "skip_w" and "skip_b" when either is present."""
    w_name, b_name = names
    W = _numbers(doc, w_name, width * dim).reshape(width, dim)
    b = _numbers(doc, b_name, width)
    u = [int(s) for s in _numbers(doc, "u", width)]
    skip = None
    if "skip_w" in doc or "skip_b" in doc:
        skip_w = _numbers(doc, "skip_w", dim) if "skip_w" in doc else np.zeros(dim)
        skip_b = _numbers(doc, "skip_b", 1)[0] if "skip_b" in doc else 0.0
        skip = AffineMap(skip_w, skip_b)
    neurons = tuple(Neuron(W[j], b[j], u[j]) for j in range(width))
    return TwoLayerNet(d=dim, neurons=neurons, skip=skip)


def document_to_net(doc: dict):
    """Rebuild the container a document describes: a `TwoLayerNet` for depth
    2, a `ThreeLayerNet` for depth 3."""
    d = int(doc["d"])
    d1 = int(doc["d1"])
    if d < 1:
        raise ValueError(f"input dimension d = {d}, expected at least 1")
    if doc["depth"] == 2:
        return _read_units(doc, ("W", "b"), d, d1)
    W = _numbers(doc, "W", d1 * d).reshape(d1, d)
    b = _numbers(doc, "b", d1)
    top = _read_units(doc, ("V", "c"), d1, int(doc["d2"]))
    return ThreeLayerNet(W=W, b=b, top=top)


def save_net(path, net, seed=None):
    text = dumps_document(net_to_document(net, seed=seed))
    with open(path, "w") as fh:
        fh.write(text)


def load_net(path):
    with open(path) as fh:
        return document_to_net(check_document(json.load(fh)))
