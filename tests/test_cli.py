"""End-to-end CLI behavior: JSON schemas, exit codes, SVG output."""

import json
import random

import pytest

from mwgap.cli import main
from mwgap.core import cost, random_kway_cut
from mwgap.serialize import dump_cut, load_instance, rat_to_str
from mwgap.svg import emit_svg
from mwgap.weights import build_fk, build_w3
from mwgap.core import WeightFunction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_and_lpc(tmp_path, capsys):
    inst = tmp_path / "w3.json"
    code, _ = run(capsys, "build", "--weights", "w3", "--n", "9", "--out", str(inst))
    assert code == 0
    w = load_instance(str(inst))
    assert w.n == 9 and w.k == 3
    code, out = run(capsys, "lpc", str(inst))
    assert code == 0
    assert json.loads(out)["lpc"] == "8/9"


def test_build_fk_lpc(tmp_path, capsys):
    inst = tmp_path / "fk.json"
    assert run(capsys, "build", "--weights", "fk", "--out", str(inst))[0] == 0
    code, out = run(capsys, "lpc", str(inst))
    assert json.loads(out)["lpc"] == "7/8"


def test_certify_pass_and_fail_exit_codes(tmp_path, capsys):
    inst = tmp_path / "w3.json"
    run(capsys, "build", "--weights", "w3", "--n", "6", "--out", str(inst))
    code, out = run(capsys, "certify", str(inst), "--family", "nonopposite", "--target", "1/1")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True and obj["overall"] == "1/1"
    # the certificate names its instance by the digest `lpc` prints
    assert obj["digest"] == json.loads(run(capsys, "lpc", str(inst))[1])["digest"]
    # an unreachable target fails with exit 1
    code, out = run(capsys, "certify", str(inst), "--family", "nonopposite", "--target", "2/1")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_brute_subcommand(tmp_path, capsys):
    inst = tmp_path / "fk.json"
    run(capsys, "build", "--weights", "fk", "--out", str(inst))
    code, out = run(capsys, "brute", str(inst), "--family", "nonopposite")
    assert code == 0
    obj = json.loads(out)
    assert obj["min"] == "1/1"
    assert {"k", "n", "labels", "family"} <= set(obj["cut"])


def test_project_subcommand(tmp_path, capsys):
    cutfile = tmp_path / "cut.json"
    dump_cut(random_kway_cut(5, 3, random.Random(1)), str(cutfile))
    code, out = run(capsys, "project", "--cut", str(cutfile))
    obj = json.loads(out)
    assert code == (0 if obj["bounds_hold"] else 1)
    assert len(obj["per_pair"]) == 10  # C(5, 2) terminal pairs


def test_project_rejects_an_instance_on_another_grid(tmp_path, capsys):
    inst, cutfile = tmp_path / "w3.json", tmp_path / "cut.json"
    run(capsys, "build", "--weights", "w3", "--n", "3", "--out", str(inst))
    dump_cut(random_kway_cut(5, 3, random.Random(1)), str(cutfile))
    assert main(["project", str(inst), "--cut", str(cutfile)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "instance is on (k=3, n=3)" in err


def test_project_cost_lemmas_on_the_cut_grid(tmp_path, capsys):
    inst, cutfile = tmp_path / "wtilde.json", tmp_path / "cut.json"
    run(capsys, "build", "--weights", "wtilde", "--k", "5", "--n", "3", "--out", str(inst))
    P = random_kway_cut(5, 3, random.Random(1))
    dump_cut(P, str(cutfile))
    code, out = run(capsys, "project", str(inst), "--cut", str(cutfile))
    lemmas = json.loads(out)["cost_lemmas"]
    assert code == 0 and lemmas["hold"] is True
    assert lemmas["cost_wtilde"] == rat_to_str(cost(P, load_instance(str(inst))))


def test_round_subcommand_deterministic(capsys):
    code, out1 = run(capsys, "round", "--n", "3", "--samples", "5000", "--seed", "77")
    assert code == 0
    _, out2 = run(capsys, "round", "--n", "3", "--samples", "5000", "--seed", "77")
    assert out1 == out2
    obj = json.loads(out1)
    assert {"tau_hat", "worst_pair", "ci3sigma", "corner_fraction"} <= set(obj)


def test_round_requires_seed(capsys):
    code, _ = run(capsys, "round", "--n", "3", "--samples", "5000")
    assert code == 2


def test_lpsearch_subcommand(tmp_path, capsys):
    out_file = tmp_path / "weights.json"
    code, _ = run(capsys, "lpsearch", "--n", "3", "--out", str(out_file))
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["certified"] is True
    assert "/" in obj["lpc_exact"]
    assert obj["iterations"] >= 1


def _edited_fk(tmp_path, capsys, edit):
    inst = tmp_path / "fk.json"
    run(capsys, "build", "--weights", "fk", "--out", str(inst))
    obj = json.loads(inst.read_text())
    edit(obj)
    inst.write_text(json.dumps(obj))
    return str(inst)


def test_instance_off_its_grid_exits_2(tmp_path, capsys):
    # fk lives on n = 2; with n = 3 its points no longer sum to n
    inst = _edited_fk(tmp_path, capsys, lambda obj: obj.update(n=3))
    assert main(["lpc", inst]) == 2
    assert "is not a point of" in capsys.readouterr().err


def test_instance_edge_with_a_foreign_endpoint_exits_2(tmp_path, capsys):
    def edit(obj):
        obj["weights"][0]["v"] = [0, 0, 5]

    inst = _edited_fk(tmp_path, capsys, edit)
    assert main(["lpc", inst]) == 2
    assert "[0, 0, 5] is not a point of" in capsys.readouterr().err
    assert run(capsys, "certify", inst, "--family", "nonopposite", "--target", "1/1")[0] == 2


def test_brute_on_k4_instance_exits_2(tmp_path, capsys):
    inst = tmp_path / "k4.json"
    inst.write_text(json.dumps({"k": 4, "n": 3, "weights": [{"u": [0, 0, 0, 3], "v": [0, 0, 1, 2], "w": "1/1"}]}))
    code = main(["brute", str(inst), "--family", "nonopposite"])
    assert code == 2
    assert "k = 3" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "build", "--weights", "nope")[0] == 2
    assert run(capsys, "lpc", str(tmp_path / "missing.json"))[0] == 2


def test_svg_subcommand(tmp_path, capsys):
    inst = tmp_path / "w3.json"
    run(capsys, "build", "--weights", "w3", "--n", "9", "--out", str(inst))
    code, out = run(capsys, "svg", str(inst), "--potential", "1")
    assert code == 0
    assert out.startswith("<svg")
    assert "stroke-dasharray" in out  # zero-weight edges inside corners
    _, out2 = run(capsys, "svg", str(inst), "--potential", "1")
    assert out == out2


@pytest.mark.parametrize("k, n", [(3, 6), (5, 3)])
def test_svg_rejects_a_cut_on_another_grid(tmp_path, capsys, k, n):
    inst, cutfile = tmp_path / "w3.json", tmp_path / "cut.json"
    run(capsys, "build", "--weights", "w3", "--n", "3", "--out", str(inst))
    dump_cut(random_kway_cut(k, n, random.Random(1)), str(cutfile))
    assert main(["svg", str(inst), "--cut", str(cutfile)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"cut is on (k={k}, n={n}) but the instance on (k=3, n=3)" in err


def test_svg_rejects_non_triangle():
    w = WeightFunction(4, 2, {})
    with pytest.raises(ValueError):
        emit_svg(w)


def test_svg_empty_weights_all_dashed():
    w = WeightFunction(3, 2, {})
    text = emit_svg(w)
    assert text.count("stroke-dasharray") == text.count("<line")


def test_ledger_subset(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    code, out = run(capsys, "ledger", "--only", "1", "--out", str(report_file))
    assert code == 0
    assert "criterion 1" in out
    report = json.loads(report_file.read_text())
    assert report["pass"] is True
    assert report["criteria"][0]["id"] == 1
