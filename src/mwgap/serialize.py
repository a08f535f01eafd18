"""Canonical JSON serialization for instances, cuts and certificates.

Rationals are serialized as exact "p/q" strings with gcd(p, q) = 1 and
q > 0, never as floats.  Canonical form (sorted keys, fixed edge order,
compact separators) makes instance digests byte-stable across platforms.
`obj_to_instance` and `obj_to_cut` read untrusted JSON, so a wrong shape,
a non-integer coordinate or a record listed twice raises ValueError there.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .core import Cut, Point, WeightFunction, canonical_edge, check_edges, enumerate_points


def rat_to_str(r: Fraction) -> str:
    r = Fraction(r)
    return f"{r.numerator}/{r.denominator}"


def str_to_rat(s: str) -> Fraction:
    if not isinstance(s, str) or "/" not in s:
        raise ValueError(f"rationals are serialized as 'p/q', got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"rationals are serialized as 'p/q' with q != 0, got {s!r}") from None


def instance_to_obj(w: WeightFunction) -> dict[str, Any]:
    return {
        "k": w.k,
        "n": w.n,
        "weights": [
            {"u": list(u), "v": list(v), "w": rat_to_str(val)}
            for (u, v), val in sorted(w.weights.items())
        ],
    }


def _int(v: Any) -> int:
    """v if it is a JSON integer (not a float or a boolean)."""
    if type(v) is not int:
        raise ValueError(f"expected an integer, got {v!r}")
    return v


def _point(v: Any, k: int, n: int) -> Point:
    """v as a point if it is a list of JSON integers; whether it lies on
    the grid is checked by `check_edges` or `Cut`."""
    if not isinstance(v, list) or any(type(a) is not int for a in v):
        raise ValueError(f"{v!r} is not a point of Delta_{{k={k},n={n}}}")
    return tuple(v)


def _field(rec: dict[str, Any], key: str) -> Any:
    """rec[key], a field the record requires."""
    if key not in rec:
        raise ValueError(f"missing field {key!r}")
    return rec[key]


def _records(obj: Any, key: str) -> list[dict[str, Any]]:
    """obj[key] as a list of JSON objects, obj itself being one."""
    recs = obj.get(key) if isinstance(obj, dict) else None
    if not isinstance(recs, list) or not all(isinstance(rec, dict) for rec in recs):
        raise ValueError(f"expected an object whose {key!r} is a list of objects")
    return recs


def obj_to_instance(obj: dict[str, Any]) -> WeightFunction:
    """Instance from its JSON object; every edge, zero-weight ones too, must
    pass `core.check_edges`, and no edge may be listed twice, in either
    orientation."""
    recs = _records(obj, "weights")
    k, n = _int(_field(obj, "k")), _int(_field(obj, "n"))
    weights = {}
    seen = set()
    for rec in recs:
        u, v = _point(_field(rec, "u"), k, n), _point(_field(rec, "v"), k, n)
        val = str_to_rat(_field(rec, "w"))
        e = canonical_edge(u, v)
        if e in seen:
            raise ValueError(f"edge {list(e[0])}-{list(e[1])} is listed twice")
        seen.add(e)
        if val != 0:
            weights[e] = val
        else:
            check_edges(k, n, [(u, v)])  # a zero weight is dropped, not stored
    return WeightFunction(k, n, weights)


def cut_to_obj(P: Cut) -> dict[str, Any]:
    return {
        "k": P.k,
        "n": P.n,
        "family": P.family,
        "labels": [{"x": list(x), "c": c} for x, c in zip(enumerate_points(P.k, P.n), P.label_array.tolist())],
    }


def obj_to_cut(obj: dict[str, Any]) -> Cut:
    """Cut from its JSON object; no point may be listed twice."""
    recs = _records(obj, "labels")
    k, n = _int(_field(obj, "k")), _int(_field(obj, "n"))
    labels = {}
    for rec in recs:
        x = _point(_field(rec, "x"), k, n)
        if x in labels:
            raise ValueError(f"point {list(x)} is listed twice")
        labels[x] = _int(_field(rec, "c"))
    return Cut(k, n, labels, obj.get("family", "kway"))


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def instance_digest(w: WeightFunction) -> str:
    return digest(instance_to_obj(w))


def load_instance(path: str) -> WeightFunction:
    with open(path) as fh:
        return obj_to_instance(json.load(fh))


def load_cut(path: str) -> Cut:
    with open(path) as fh:
        return obj_to_cut(json.load(fh))
