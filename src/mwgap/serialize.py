"""Canonical JSON serialization for instances, cuts and certificates.

Rationals are serialized as exact "p/q" strings with gcd(p, q) = 1 and
q > 0, never as floats.  Canonical form (sorted keys, fixed edge order,
compact separators) makes instance digests byte-stable across platforms.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .core import Cut, Point, WeightFunction, canonical_edge, check_edges


def rat_to_str(r: Fraction) -> str:
    r = Fraction(r)
    return f"{r.numerator}/{r.denominator}"


def str_to_rat(s: str) -> Fraction:
    if "/" not in s:
        raise ValueError(f"rationals are serialized as 'p/q', got {s!r}")
    return Fraction(s)


def instance_to_obj(w: WeightFunction) -> dict[str, Any]:
    return {
        "k": w.k,
        "n": w.n,
        "weights": [
            {"u": list(u), "v": list(v), "w": rat_to_str(val)}
            for (u, v), val in sorted(w.weights.items())
        ],
    }


def obj_to_instance(obj: dict[str, Any]) -> WeightFunction:
    """Instance from its JSON object; every edge, zero-weight ones too, must
    pass `core.check_edges`."""
    k, n = obj["k"], obj["n"]
    weights = {}
    for rec in obj["weights"]:
        u: Point = tuple(rec["u"])
        v: Point = tuple(rec["v"])
        val = str_to_rat(rec["w"])
        if val != 0:
            weights[canonical_edge(u, v)] = val
        else:
            check_edges(k, n, [(u, v)])  # a zero weight is dropped, not stored
    return WeightFunction(k, n, weights)


def cut_to_obj(P: Cut) -> dict[str, Any]:
    return {
        "k": P.k,
        "n": P.n,
        "family": P.family,
        "labels": [{"x": list(x), "c": c} for x, c in sorted(P.labels.items())],
    }


def obj_to_cut(obj: dict[str, Any]) -> Cut:
    labels = {tuple(rec["x"]): rec["c"] for rec in obj["labels"]}
    return Cut(obj["k"], obj["n"], labels, obj.get("family", "kway"))


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def instance_digest(w: WeightFunction) -> str:
    return digest(instance_to_obj(w))


def load_instance(path: str) -> WeightFunction:
    with open(path) as fh:
        return obj_to_instance(json.load(fh))


def dump_cut(P: Cut, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(cut_to_obj(P)))


def load_cut(path: str) -> Cut:
    with open(path) as fh:
        return obj_to_cut(json.load(fh))
