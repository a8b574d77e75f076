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

Every value is written by `json.dumps`, which gives a float the shortest
text that parses back to the same float64, so the text is exact and
deterministic.  Reading refuses what no writer produces: a number field
must hold a JSON number (never a boolean or a string), a list field a flat
list of them, all finite.
"""
from __future__ import annotations

import json
import sys

import numpy as np

from .nets import AffineMap, ThreeLayerNet, TwoLayerNet

FORMAT_NAME = "netpeel-net"

_KEY_ORDER = [
    "format", "depth", "d", "d1", "d2",
    "W", "b", "V", "c", "u", "skip_w", "skip_b",
    "seed", "delta",
]


def dumps_document(doc: dict) -> str:
    unknown = set(doc) - set(_KEY_ORDER)
    if unknown:
        raise ValueError(f"unknown document keys: {sorted(unknown)}")
    lines = (f'  "{k}": {json.dumps(doc[k], allow_nan=False)}'
             for k in _KEY_ORDER if k in doc)
    return "{\n" + ",\n".join(lines) + "\n}\n"


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
    doc[w_name] = net.W.ravel().tolist()
    doc[b_name] = net.b.tolist()
    doc["u"] = net.s.astype(int).tolist()
    if net.skip is not None:
        doc["skip_w"] = net.skip.w.tolist()
        doc["skip_b"] = float(net.skip.b)


def net_to_document(net, seed=None) -> dict:
    doc = {"format": FORMAT_NAME}
    if isinstance(net, TwoLayerNet):
        doc.update(depth=2, d=net.d, d1=net.width)
        _write_units(doc, net, ("W", "b"))
    elif isinstance(net, ThreeLayerNet):
        doc.update(depth=3, d=net.d, d1=net.d1, d2=net.top.width)
        doc["W"] = net.W.ravel().tolist()
        doc["b"] = net.b.tolist()
        _write_units(doc, net.top, ("V", "c"))
    else:
        raise TypeError(f"not a network container: {type(net).__name__}")
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


def _finite(value) -> bool:
    """Is `value` a JSON number, not a boolean, that reads as a finite float64?"""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _numbers(doc: dict, name: str, size: int) -> np.ndarray:
    """Field `name`, which must be a flat list of `size` finite numbers.

    One pass over the entries' types (exactly int or float, so no boolean),
    one conversion, one finiteness check.  An int past float64's range
    overflows in the conversion and is refused like an infinity.
    """
    values = doc[name]
    array = None
    if isinstance(values, list) and set(map(type, values)) <= {int, float}:
        try:
            array = np.array(values, dtype=float)
        except OverflowError:
            pass
    if array is None or not np.isfinite(array).all():
        raise ValueError(f"{name} must be a flat list of finite numbers")
    if len(values) != size:
        raise ValueError(f"{name} has {len(values)} entries, expected {size}")
    return array


def _read_units(doc: dict, names: tuple[str, str], dim: int, width: int) -> TwoLayerNet:
    """The units of fields `names` (weights, biases) and "u" over `dim` inputs,
    with the affine term of "skip_w" and "skip_b" when either is present."""
    w_name, b_name = names
    W = _numbers(doc, w_name, width * dim).reshape(width, dim)
    b = _numbers(doc, b_name, width)
    u = _numbers(doc, "u", width)
    skip = None
    if "skip_w" in doc or "skip_b" in doc:
        skip_w = _numbers(doc, "skip_w", dim) if "skip_w" in doc else np.zeros(dim)
        skip_b = doc.get("skip_b", 0.0)
        if not _finite(skip_b):
            raise ValueError(f"skip_b = {skip_b!r} is not a finite number")
        skip = AffineMap(skip_w, skip_b)
    return TwoLayerNet(W, b, u, skip)


def _integer(doc: dict, name: str) -> int:
    """Field `name`, which must hold an integral number (2.0 reads as 2)."""
    value = doc[name]
    if not (_finite(value) and float(value).is_integer()):
        raise ValueError(f"{name} = {value!r} is not an integer")
    return int(value)


def document_to_net(doc) -> TwoLayerNet | ThreeLayerNet:
    """Rebuild the container a network document describes: a `TwoLayerNet`
    for depth 2, a `ThreeLayerNet` for depth 3.  Raises `ValueError` when
    `doc` is not a valid document, `KeyError` when a field is missing."""
    check_document(doc)
    d = _integer(doc, "d")
    d1 = _integer(doc, "d1")
    if d < 1:
        raise ValueError(f"input dimension d = {d}, expected at least 1")
    if doc["depth"] == 2:
        return _read_units(doc, ("W", "b"), d, d1)
    W = _numbers(doc, "W", d1 * d).reshape(d1, d)
    b = _numbers(doc, "b", d1)
    top = _read_units(doc, ("V", "c"), d1, _integer(doc, "d2"))
    return ThreeLayerNet(W=W, b=b, top=top)


def save_net(path, net, seed=None):
    text = dumps_document(net_to_document(net, seed=seed))
    with open(path, "w") as fh:
        fh.write(text)


def load_net(path):
    with open(path) as fh:
        return document_to_net(json.load(fh))
