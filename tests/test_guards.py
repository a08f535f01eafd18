"""Argument guards: each rejects a bad call with its own message."""

import random
import re
from fractions import Fraction

import pytest

from mwgap.core import (
    NONOPPOSITE,
    Cut,
    WeightFunction,
    cost,
    edge_index,
    face_gather,
    point_array,
    point_sides,
    random_kway_cut,
    random_nonopposite_cut,
    sorted_face_gather,
)
from mwgap.dual import brute_force_min_cut, build_dual, certify, dijkstra, normalize_cut
from mwgap.lpsearch import solve_lp
from mwgap.projection import (
    check_cost_lemmas,
    check_projection_bounds,
    d_profile,
    restrict_injection,
    restrict_triple,
)
from mwgap.rounding import estimate_density
from mwgap.weights import build_fk, build_w3, build_w_hat, build_w_prime, build_w_tilde


MANY_FACES = [(0, 1, 2)] * 10000


def _kway(k, n):
    return random_kway_cut(k, n, random.Random(k * 100 + n))


GUARDS = {
    "Cut family": (lambda: Cut(3, 2, {}, "planar"), ValueError, "unknown cut family 'planar'"),
    "Cut non-opposite k": (
        lambda: Cut(4, 2, {}, NONOPPOSITE),
        ValueError,
        "non-opposite cuts are only defined for k = 3",
    ),
    "WeightFunction n": (lambda: WeightFunction(3, 0, {}), ValueError, "need n >= 1, got 0"),
    "WeightFunction key": (
        lambda: WeightFunction(3, 2, {((0, 0, 2), (0, 1, 1), (0, 2, 0)): 1}),
        ValueError,
        "edge ((0, 0, 2), (0, 1, 1), (0, 2, 0)) is not a pair of point tuples",
    ),
    # a float or a text numerator would fail inside gcd or on '<', not by name
    "from_numerators float": (
        lambda: WeightFunction.from_numerators(3, 3, 1, *edge_index(3, 3), [0.5] * 18),
        ValueError,
        "weight numerator 0.5 is not an integer",
    ),
    "from_numerators text": (
        lambda: WeightFunction.from_numerators(3, 3, 1, *edge_index(3, 3), ["1"] * 18),
        ValueError,
        "weight numerator '1' is not an integer",
    ),
    "point_sides k": (
        lambda: point_sides(64, 1),
        ValueError,
        "a side mask holds at most 63 coordinates, got k = 64",
    ),
    # unchecked, a repeated index would overwrite a coordinate, and -1 would wrap to k - 1
    "face_gather repeat": (lambda: face_gather(5, 3, [(0, 0, 1)]), ValueError, "face [0, 0, 1] repeats an index"),
    "face_gather negative": (
        lambda: face_gather(5, 3, [(0, 1, -1)]),
        ValueError,
        "face [0, 1, -1] has an index outside range(5)",
    ),
    "face_gather range": (
        lambda: face_gather(5, 3, [(0, 1, 2), (1, 2, 5)]),
        ValueError,
        "face [1, 2, 5] has an index outside range(5)",
    ),
    "face_gather sizes": (
        lambda: face_gather(5, 3, [(0, 1, 2), (3, 4)]),
        ValueError,
        "faces must be nonempty and all of one size, got sizes [2, 3]",
    ),
    "face_gather none": (lambda: face_gather(5, 3, []), ValueError, "faces must be nonempty and all of one size"),
    # the counts are checked before any face is listed or any array built
    "face_gather bytes": (
        lambda: face_gather(5000, 3, MANY_FACES),
        ValueError,
        "a gather of 10000 3-faces on Delta_{k=5000,n=3} takes 4000000000 bytes, more than MAX_ARRAY_BYTES = 268435456",
    ),
    "sorted_face_gather bytes": (
        lambda: sorted_face_gather(1000, 2, 3),
        ValueError,
        "a gather of 166167000 3-faces on Delta_{k=1000,n=2} takes 7976016000000 bytes, more than MAX_ARRAY_BYTES",
    ),
    "point_array bytes": (
        lambda: point_array(1000, 2),
        ValueError,
        "the point array of Delta_{k=1000,n=2} takes 4004000000 bytes, more than MAX_ARRAY_BYTES = 268435456",
    ),
    "cost grids": (
        lambda: cost(_kway(3, 2), WeightFunction(3, 3, {})),
        ValueError,
        "cut and weights live on different grids",
    ),
    "build_dual k": (
        lambda: build_dual(2, WeightFunction(4, 2, {})),
        ValueError,
        "dual machinery is specific to k = 3, got k = 4",
    ),
    "build_dual n": (
        lambda: build_dual(3, build_fk()),
        ValueError,
        "weight function is on n = 2, expected 3",
    ),
    "certify family": (
        lambda: certify(2, build_fk(), "kway", Fraction(1)),
        ValueError,
        "unknown family 'kway'",
    ),
    "brute family": (lambda: brute_force_min_cut(2, build_fk(), "kway"), ValueError, "unknown family 'kway'"),
    "brute points": (
        lambda: brute_force_min_cut(6, build_w3(6), NONOPPOSITE),
        ValueError,
        "28 points exceed the exhaustive bound 15",
    ),
    "dijkstra face source": (
        lambda: dijkstra(build_dual(2, build_fk()), ("U", 0, 0, 1)),
        ValueError,
        "dijkstra searches from an outer node, got ('U', 0, 0, 1)",
    ),
    "normalize_cut k-way": (
        lambda: normalize_cut(_kway(3, 3)),
        ValueError,
        "normalize_cut expects a non-opposite cut",
    ),
    "restrict_triple repeat": (
        lambda: restrict_triple(_kway(5, 3), 0, 2, 0),
        ValueError,
        "indices must be distinct and in range, got (0, 2, 0)",
    ),
    "restrict_triple range": (
        lambda: restrict_triple(_kway(5, 3), 0, 2, 5),
        ValueError,
        "indices must be distinct and in range, got (0, 2, 5)",
    ),
    "restrict_injection target": (
        lambda: restrict_injection(_kway(5, 3), [0, 1, 2, 3], 4),
        ValueError,
        "the triangle grid is the only supported target",
    ),
    "restrict_injection length": (
        lambda: restrict_injection(_kway(5, 3), [0, 1], 3),
        ValueError,
        "f must be an injection of 3 indices, got [0, 1]",
    ),
    "d_profile family": (
        lambda: d_profile(random_nonopposite_cut(3, random.Random(0))),
        ValueError,
        "d_profile expects a k-way cut",
    ),
    "projection k": (lambda: check_projection_bounds(_kway(2, 3)), ValueError, "need k >= 3"),
    "cost lemmas n": (lambda: check_cost_lemmas(_kway(5, 3), 6), ValueError, "cut is on n = 3, expected 6"),
    "w_hat k": (lambda: build_w_hat(2, 3), ValueError, "need k >= 3, got 2"),
    "w_prime k": (lambda: build_w_prime(1, 3), ValueError, "need k >= 2, got 1"),
    "w_prime n": (lambda: build_w_prime(4, 1), ValueError, "need n >= 2, got 1"),
    "w_tilde k": (lambda: build_w_tilde(2, 3), ValueError, "need k >= 3, got 2"),
    "density n": (lambda: estimate_density(1, 1000, 0), ValueError, "need n >= 2, got 1"),
    "density samples": (lambda: estimate_density(6, 999, 0), ValueError, "need samples >= 1000, got 999"),
    "density seed": (lambda: estimate_density(6, 1000, -1), ValueError, "need seed >= 0, got -1"),
    # x_0 >= 1 and -x_0 >= 0
    "solve_lp infeasible": (
        lambda: solve_lp([{0: 1.0}, {0: -1.0}], [1.0, 0.0], 1, 1),
        RuntimeError,
        "potential LP failed",
    ),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
