"""The ten headline claims, one test each, at their stated tolerances.

Each test runs its criterion through `run_ledger`, the runner behind
`mwgap ledger`, with the same pinned seeds, so the suite output doubles as
the claims ledger.  The tests also pin each criterion's name and the detail
lines a passing run prints.
"""

import random
from fractions import Fraction

import pytest

from mwgap import acceptance
from mwgap.core import WeightFunction, enumerate_edges
from mwgap.acceptance import CriterionResult, check_ratios, run_ledger

# id -> (name, details of a passing run)
LEDGER = {
    1: ("canonical LP values, exact", []),
    2: ("non-opposite lower bound certified", []),
    3: ("potential checks", []),
    4: ("oracle agreement at tiny scale", []),
    5: ("normalization property", []),
    6: ("projection propositions", []),
    7: (
        "cost lemmas, exact",
        ["ratio at k=8, n=30 = 70/61 = 1.14754; FK 28/25 < ratio < paper 7/6, deficit 7/366"],
    ),
    8: ("injection restriction", []),
    # the rest of these lines depends on numpy's generator and on HiGHS
    9: ("rounding density", ["tau_hat = "]),
    10: ("LP search window", ["LP solves 1, lpc_exact "]),
}


def _ledger(cid):
    (res,) = run_ledger([cid])
    assert res.passed, "; ".join(res.details)
    name, details = LEDGER[cid]
    assert res.name == name
    if cid in (9, 10):
        assert len(res.details) == 1 and res.details[0].startswith(details[0])
    else:
        assert res.details == details


def test_criterion_1_canonical_lp_values_exact():
    _ledger(1)


def test_criterion_2_nonopposite_lower_bound_certified():
    _ledger(2)


def test_criterion_3_potential_checks():
    _ledger(3)


def test_criterion_4_oracle_agreement_tiny_scale():
    _ledger(4)


def oracle_criterion_4_instances():
    """Criterion 4's random instances, built as `Fraction` dicts from the same draws."""
    rng = random.Random(acceptance.ORACLE_SEED)
    for _ in range(acceptance.ORACLE_TRIALS):
        weights = {e: Fraction(rng.randrange(0, 17), 8) for e in enumerate_edges(3, 3) if rng.random() < 0.8}
        yield WeightFunction(3, 3, weights)  # the zero weights drawn are dropped by the weight check


def test_criterion_4_instances_match_the_dict_oracle(monkeypatch):
    seen, certify = [], acceptance.certify
    monkeypatch.setattr(acceptance, "certify", lambda n, w, *args: seen.append(w) or certify(n, w, *args))
    res = CriterionResult(4, "oracle agreement")
    acceptance.criterion_4(res)
    assert res.passed
    oracle = list(oracle_criterion_4_instances())
    assert len(oracle) == 20 and seen[::2] == oracle and seen[1::2] == oracle  # one certificate per family


def test_criterion_5_normalization_property():
    _ledger(5)


def test_criterion_6_projection_propositions():
    _ledger(6)


def test_criterion_7_cost_lemmas_exact():
    _ledger(7)


@pytest.mark.parametrize(
    "lpc_value, bound",
    [(Fraction(1), "FK bound 28/25"), (Fraction(6, 7), "paper bound 7/6")],
)
def test_criterion_7_ratio_check_can_fail(monkeypatch, lpc_value, bound):
    # lpc = 1 puts the ratio at 1, below FK; lpc = 6/7 puts it at 7/6, on the paper's bound
    monkeypatch.setattr(acceptance, "lpc_w_tilde_closed", lambda k, n: lpc_value)
    res = CriterionResult(7, "ratio checks")
    check_ratios(res)
    assert not res.passed
    assert any(f"k=8, n=30: ratio {1 / lpc_value} not" in d and bound in d for d in res.details)


def test_criterion_8_injection_restriction():
    _ledger(8)


def test_criterion_9_rounding_density():
    _ledger(9)


def test_criterion_10_lp_search_window():
    _ledger(10)


def test_run_ledger_of_no_ids_runs_nothing(capsys):
    assert run_ledger([]) == []
    assert capsys.readouterr().out == ""
