"""Text interchange format for networks.

One JSON document per network.  Layout:

    depth    2 or 3
    d        input dimension
    d1       hidden width (first hidden layer for depth 3)
    d2       second hidden width, depth 3 only
    W, b     first-layer weights (flat, row-major) and biases
    V, c, u  second layer for depth 3; for depth 2 the unit signs live in "u"
             and W/b are the unit weights/biases
    skip_w, skip_b
             optional affine term: over the input for depth 2, over the first
             hidden activations for depth 3
    seed     optional provenance metadata; a "delta" entry is accepted on
             load and ignored

Floats are written with 17 significant digits, so parsing reproduces the
exact float64 bit pattern and serialization is deterministic.
"""
from __future__ import annotations

import json

import numpy as np

from .nets import (
    AffineMap,
    Neuron,
    ThreeLayerFunction,
    ThreeLayerNet,
    TwoLayerNet,
)

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


def _meta(doc: dict, seed) -> dict:
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def two_layer_to_document(net: TwoLayerNet, seed=None) -> dict:
    doc = {
        "format": FORMAT_NAME,
        "depth": 2,
        "d": net.d,
        "d1": net.width,
        "W": [float(v) for n in net.neurons for v in n.w],
        "b": [float(n.b) for n in net.neurons],
        "u": [n.sign for n in net.neurons],
    }
    if net.skip is not None:
        doc["skip_w"] = [float(v) for v in net.skip.w]
        doc["skip_b"] = float(net.skip.b)
    return _meta(doc, seed)


def three_layer_to_document(net, seed=None) -> dict:
    if isinstance(net, ThreeLayerNet):
        W, b = net.W, net.b
        V, c, u = net.V, net.c, [int(s) for s in net.signs]
        skip = None
    elif isinstance(net, ThreeLayerFunction):
        W, b = net.W, net.b
        V = net.top.weight_matrix()
        c = net.top.biases()
        u = [n.sign for n in net.top.neurons]
        skip = net.top.skip
    else:
        raise TypeError(f"not a three-layer container: {type(net).__name__}")
    doc = {
        "format": FORMAT_NAME,
        "depth": 3,
        "d": W.shape[1],
        "d1": W.shape[0],
        "d2": len(u),
        "W": [float(v) for row in W for v in row],
        "b": [float(v) for v in b],
        "V": [float(v) for row in np.atleast_2d(V) for v in row],
        "c": [float(v) for v in c],
        "u": u,
    }
    if skip is not None:
        doc["skip_w"] = [float(v) for v in skip.w]
        doc["skip_b"] = float(skip.b)
    return _meta(doc, seed)


def net_to_document(net, seed=None) -> dict:
    if isinstance(net, TwoLayerNet):
        return two_layer_to_document(net, seed=seed)
    return three_layer_to_document(net, seed=seed)


def _numbers(doc: dict, name: str, size: int) -> np.ndarray:
    """The finite numbers of field `name`, which must have `size` of them."""
    arr = np.asarray(doc[name], dtype=float)
    if arr.size != size:
        raise ValueError(f"{name} has {arr.size} entries, expected {size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has a non-finite entry")
    return arr.reshape(-1)


def _skip(doc: dict, dim: int) -> AffineMap:
    w = _numbers(doc, "skip_w", dim) if "skip_w" in doc else np.zeros(dim)
    b = _numbers(doc, "skip_b", 1)[0] if "skip_b" in doc else 0.0
    return AffineMap(w, b)


def document_to_net(doc: dict):
    """Rebuild the container a document describes.

    Depth 2 gives a `TwoLayerNet`.  Depth 3 gives a `ThreeLayerNet` when there
    is no affine term and the strict class invariants hold, otherwise a
    `ThreeLayerFunction`.
    """
    d = int(doc["d"])
    d1 = int(doc["d1"])
    if d < 1:
        raise ValueError(f"input dimension d = {d}, expected at least 1")
    has_skip = "skip_w" in doc or "skip_b" in doc
    W = _numbers(doc, "W", d1 * d).reshape(d1, d)
    b = _numbers(doc, "b", d1)
    if doc["depth"] == 2:
        u = [int(s) for s in _numbers(doc, "u", d1)]
        skip = _skip(doc, d) if has_skip else None
        neurons = tuple(Neuron(W[j], b[j], u[j]) for j in range(d1))
        return TwoLayerNet(d=d, neurons=neurons, skip=skip)

    d2 = int(doc["d2"])
    V = _numbers(doc, "V", d2 * d1).reshape(d2, d1)
    c = _numbers(doc, "c", d2)
    u = [int(s) for s in _numbers(doc, "u", d2)]
    if not has_skip:
        try:
            return ThreeLayerNet(W=W, b=b, V=V, c=c, signs=u)
        except ValueError:
            pass  # fall through to the loose container
    skip = _skip(doc, d1)
    neurons = tuple(Neuron(V[k], c[k], u[k]) for k in range(d2))
    top = TwoLayerNet(d=d1, neurons=neurons, skip=skip)
    return ThreeLayerFunction(W=W, b=b, top=top)


def save_net(path, net, seed=None):
    text = dumps_document(net_to_document(net, seed=seed))
    with open(path, "w") as fh:
        fh.write(text)


def load_net(path):
    with open(path) as fh:
        return document_to_net(check_document(json.load(fh)))
