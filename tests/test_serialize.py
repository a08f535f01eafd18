"""JSON round-trips and stable digests."""

import json
import random
from fractions import Fraction

import pytest

from mwgap.core import NONOPPOSITE, Cut, random_nonopposite_cut
from mwgap.serialize import (
    canonical_json,
    cut_to_obj,
    digest,
    instance_digest,
    instance_to_obj,
    obj_to_cut,
    obj_to_instance,
    rat_to_str,
    str_to_rat,
)
from mwgap.weights import build_fk, build_w3


def test_rational_strings_are_canonical():
    assert rat_to_str(Fraction(2, 4)) == "1/2"
    assert rat_to_str(Fraction(-3, 6)) == "-1/2"
    assert rat_to_str(Fraction(5)) == "5/1"
    assert str_to_rat("10/4") == Fraction(5, 2)
    with pytest.raises(ValueError):
        str_to_rat("0.5")


def test_instance_round_trip():
    for w in (build_w3(6), build_fk()):
        obj = instance_to_obj(w)
        back = obj_to_instance(obj)
        assert back.k == w.k and back.n == w.n
        assert back.weights == w.weights
        assert instance_to_obj(back) == obj


def test_instance_digest_stable_and_sensitive():
    a = instance_digest(build_w3(6))
    b = instance_digest(build_w3(6))
    assert a == b
    assert a != instance_digest(build_w3(9))
    assert len(a) == 64


def test_cut_round_trip():
    P = random_nonopposite_cut(4, random.Random(3))
    obj = cut_to_obj(P)
    back = obj_to_cut(obj)
    assert back.labels == P.labels
    assert back.family == NONOPPOSITE
    assert cut_to_obj(back) == obj


def test_a_valid_cut_serializes_to_json_its_loader_reads():
    labels = dict(random_nonopposite_cut(2, random.Random(0)).labels)
    # float or bool coordinates hash like the grid point, but would be written as 0.0 or true
    for key in ((0.0, 0.0, 2.0), (0, True, True)):
        x = tuple(map(int, key))
        foreign = {**{y: c for y, c in labels.items() if y != x}, key: labels[x]}
        with pytest.raises(ValueError, match="cover exactly the grid points"):
            Cut(3, 2, foreign, NONOPPOSITE)
    # a label True is the label 1, and the view and the JSON give it back as 1
    P = Cut(3, 2, {**labels, (0, 1, 1): True}, NONOPPOSITE)
    assert P.labels[(0, 1, 1)] == 1 and all(type(c) is int for c in P.labels.values())
    obj = json.loads(json.dumps(cut_to_obj(P)))
    assert {"x": [0, 1, 1], "c": 1} in obj["labels"]
    assert obj_to_cut(obj).labels == P.labels


def test_canonical_json_is_sorted_and_compact():
    s = canonical_json({"b": 1, "a": [1, 2]})
    assert s == '{"a":[1,2],"b":1}'
    assert digest({"b": 1, "a": [1, 2]}) == digest({"a": [1, 2], "b": 1})


def test_instance_edges_must_join_adjacent_grid_points():
    obj = instance_to_obj(build_fk())
    assert obj_to_instance(obj) == build_fk()
    bad_points = ([0, 0, 5], [1, 1], [-1, 1, 2], [0.5, 0.5, 1])
    for v in bad_points:
        rec = dict(obj["weights"][0], v=v)
        with pytest.raises(ValueError, match="is not a point of"):
            obj_to_instance(dict(obj, weights=[rec]))
    # a point of the grid, but two unit transfers away
    rec = {"u": [2, 0, 0], "v": [0, 2, 0], "w": "1/1"}
    with pytest.raises(ValueError, match="one unit transfer"):
        obj_to_instance(dict(obj, weights=[rec]))
    # the same edge with n edited
    with pytest.raises(ValueError, match="is not a point of"):
        obj_to_instance(dict(obj, n=3))


def test_zero_weight_records_are_checked_then_dropped():
    obj = instance_to_obj(build_fk())
    rec = {"u": [2, 0, 0], "v": [0, 2, 0], "w": "0/1"}
    with pytest.raises(ValueError, match="one unit transfer"):
        obj_to_instance(dict(obj, weights=obj["weights"] + [rec]))
    with pytest.raises(ValueError, match="is not a point of"):
        obj_to_instance(dict(obj, weights=[dict(rec, v=[0, 0, 5])]))
    assert obj_to_instance(dict(obj, weights=[dict(obj["weights"][0], w="0/1")])).weights == {}


def test_duplicate_records_are_rejected():
    rec = {"u": [0, 0, 2], "v": [0, 1, 1], "w": "1/2"}
    flipped = {"u": [0, 1, 1], "v": [0, 0, 2], "w": "1/3"}
    for second in (dict(rec, w="1/3"), flipped, dict(flipped, w="0/1")):
        for recs in ([rec, second], [second, rec]):
            with pytest.raises(ValueError, match=r"edge \[0, 0, 2\]-\[0, 1, 1\] is listed twice"):
                obj_to_instance({"k": 3, "n": 2, "weights": recs})
    obj = cut_to_obj(random_nonopposite_cut(4, random.Random(3)))
    for c in (obj["labels"][5]["c"], 3):
        with pytest.raises(ValueError, match=r"is listed twice"):
            obj_to_cut(dict(obj, labels=obj["labels"] + [dict(obj["labels"][5], c=c)]))
