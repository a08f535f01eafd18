"""End-to-end CLI behavior: JSON schemas, exit codes, SVG output."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mwgap
from mwgap import cli
from mwgap.cli import main
from mwgap.core import cost, random_kway_cut
from mwgap.serialize import canonical_json, cut_to_obj, load_instance, rat_to_str
from mwgap.svg import emit_svg
from mwgap.weights import build_fk, build_w3
from mwgap.core import WeightFunction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_cut(P, path):
    path.write_text(canonical_json(cut_to_obj(P)))


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--weights", "w3", "--k", "4", "--n", "3"), "w3 is defined only for k = 3, got k = 4"),
        (("--weights", "fk", "--k", "5", "--n", "9"), "fk is defined only for k = 3, got k = 5"),
        (("--weights", "fk", "--n", "9"), "fk is defined only for n = 2, got n = 9"),
    ],
)
def test_build_rejects_a_grid_off_the_family(capsys, argv, message):
    assert main(["build", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_build_uses_the_given_grid(capsys):
    for argv, grid in (((), (3, 2)), (("--k", "3", "--n", "2"), (3, 2))):
        code, out = run(capsys, "build", "--weights", "fk", *argv)
        assert code == 0 and (json.loads(out)["k"], json.loads(out)["n"]) == grid
    for weights, argv, grid in (("w3", (), (3, 3)), ("w3", ("--n", "6"), (3, 6)), ("wtilde", ("--k", "4"), (4, 3))):
        code, out = run(capsys, "build", "--weights", weights, *argv)
        assert code == 0 and (json.loads(out)["k"], json.loads(out)["n"]) == grid


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
    # a zero denominator is a usage error that quotes the target
    assert main(["certify", str(inst), "--family", "nonopposite", "--target", "1/0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "rationals are serialized as 'p/q' with q != 0, got '1/0'" in err


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
    write_cut(random_kway_cut(5, 3, random.Random(1)), cutfile)
    code, out = run(capsys, "project", "--cut", str(cutfile))
    obj = json.loads(out)
    assert code == (0 if obj["bounds_hold"] else 1)
    assert len(obj["per_pair"]) == 10  # C(5, 2) terminal pairs


def test_project_output_is_pinned(tmp_path, capsys):
    # exact bytes, so a change in how D(P) is counted cannot change the report
    inst, cutfile = tmp_path / "wtilde.json", tmp_path / "cut.json"
    run(capsys, "build", "--weights", "wtilde", "--k", "5", "--n", "3", "--out", str(inst))
    write_cut(random_kway_cut(5, 3, random.Random(1)), cutfile)
    head = '{"D":"29/10","bounds_hold":true,"coarse_bound":"0/1",'
    lemmas = '"cost_lemmas":{"cost_what":"79/30","cost_wprime":"14/5","cost_wtilde":"107/40","hold":true},'
    tail = (
        '"fraction_nonopposite":"2/5","per_pair":{"0,1":[0,1],"0,2":[0,2,3],"0,3":[0,2,3],"0,4":[0,4],'
        '"1,2":[0,1,2,4],"1,3":[1,3],"1,4":[1,3,4],"2,3":[0,2,3],"2,4":[0,2,3,4],"3,4":[1,3,4]},'
        '"refined_bound":"1/10"}\n'
    )
    assert run(capsys, "project", "--cut", str(cutfile)) == (0, head + tail)
    assert run(capsys, "project", str(inst), "--cut", str(cutfile)) == (0, head + lemmas + tail)


def test_project_rejects_an_instance_on_another_grid(tmp_path, capsys):
    inst, cutfile = tmp_path / "w3.json", tmp_path / "cut.json"
    run(capsys, "build", "--weights", "w3", "--n", "3", "--out", str(inst))
    write_cut(random_kway_cut(5, 3, random.Random(1)), cutfile)
    assert main(["project", str(inst), "--cut", str(cutfile)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "instance is on (k=3, n=3)" in err


def test_project_cost_lemmas_on_the_cut_grid(tmp_path, capsys):
    inst, cutfile = tmp_path / "wtilde.json", tmp_path / "cut.json"
    run(capsys, "build", "--weights", "wtilde", "--k", "5", "--n", "3", "--out", str(inst))
    P = random_kway_cut(5, 3, random.Random(1))
    write_cut(P, cutfile)
    code, out = run(capsys, "project", str(inst), "--cut", str(cutfile))
    lemmas = json.loads(out)["cost_lemmas"]
    assert code == 0 and lemmas["hold"] is True
    assert lemmas["cost_wtilde"] == rat_to_str(cost(P, load_instance(str(inst))))


def test_project_exits_1_when_the_cost_lemmas_fail(tmp_path, capsys, monkeypatch):
    inst, cutfile = tmp_path / "wtilde.json", tmp_path / "cut.json"
    run(capsys, "build", "--weights", "wtilde", "--k", "5", "--n", "3", "--out", str(inst))
    write_cut(random_kway_cut(5, 3, random.Random(1)), cutfile)
    real = cli.check_cost_lemmas

    def failing(P, n):
        rep = real(P, n)
        rep.violations.append("forced")
        return rep

    monkeypatch.setattr(cli, "check_cost_lemmas", failing)
    code, out = run(capsys, "project", str(inst), "--cut", str(cutfile))
    obj = json.loads(out)
    assert obj["bounds_hold"] is True and obj["cost_lemmas"]["hold"] is False
    assert code == 1


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


def test_round_names_a_negative_seed(capsys):
    assert main(["round", "--n", "6", "--samples", "1000", "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: need seed >= 0, got -1\n"


def test_round_has_no_mixture_option(capsys):
    # the corner share is the paper's 1/5, not an option
    assert main(["round", "--n", "3", "--samples", "5000", "--seed", "1", "--p-corner", "1/5"]) == 2
    assert "--p-corner" in capsys.readouterr().err


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


def test_instance_with_an_edge_listed_twice_exits_2(tmp_path, capsys):
    recs = [{"u": [0, 0, 2], "v": [0, 1, 1], "w": "1/2"}, {"u": [0, 1, 1], "v": [0, 0, 2], "w": "1/3"}]
    inst = tmp_path / "twice.json"
    inst.write_text(json.dumps({"k": 3, "n": 2, "weights": recs}))
    assert main(["lpc", str(inst)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "edge [0, 0, 2]-[0, 1, 1] is listed twice" in err


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"k": 3, "n": 3, "weights": 5}, "'weights' is a list of objects"),
        ({"k": 3, "n": 3, "weights": [[0, 1]]}, "'weights' is a list of objects"),
        ([1, 2], "'weights' is a list of objects"),
        ({"k": "3", "n": 3, "weights": []}, "expected an integer, got '3'"),
        ({"k": 3, "n": 3, "weights": [{"u": [1, 2, 0], "v": [2, 1, 0], "w": 1}]}, "serialized as 'p/q', got 1"),
        ({"k": 3, "n": 3, "weights": [{"u": [1.0, 2, 0], "v": [2, 1, 0], "w": "1/1"}]}, "[1.0, 2, 0] is not a point of Delta_{k=3,n=3}"),
        ({"k": 3, "n": 3, "weights": [{"u": 5, "v": [2, 1, 0], "w": "1/1"}]}, "5 is not a point of Delta_{k=3,n=3}"),
        ({"k": 3, "n": 3}, "'weights' is a list of objects"),
        ({"n": 3, "weights": []}, "missing field 'k'"),
        ({"k": 3, "weights": []}, "missing field 'n'"),
        ({"k": 3, "n": 3, "weights": [{"v": [2, 1, 0], "w": "1/1"}]}, "missing field 'u'"),
        ({"k": 3, "n": 3, "weights": [{"u": [1, 2, 0], "w": "1/1"}]}, "missing field 'v'"),
        ({"k": 3, "n": 3, "weights": [{"u": [1, 2, 0], "v": [2, 1, 0]}]}, "missing field 'w'"),
        ({"k": 3, "n": 3, "weights": [{"u": [1, 2, 0], "v": [2, 1, 0], "w": "1/0"}]}, "with q != 0, got '1/0'"),
        ({"k": -1, "n": 3, "weights": []}, "need k >= 2, got -1"),
        ({"k": 1, "n": 3, "weights": []}, "need k >= 2, got 1"),
        ({"k": 3, "n": -2, "weights": []}, "need n >= 1, got -2"),
        ({"k": 3, "n": 0, "weights": []}, "need n >= 1, got 0"),
    ],
)
def test_malformed_instance_exits_2(tmp_path, capsys, obj, message):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(obj))
    assert main(["lpc", str(inst)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda obj: obj["labels"][0].update(x=[0.0, 0.0, 3.0]), "[0.0, 0.0, 3.0] is not a point of Delta_{k=3,n=3}"),
        (lambda obj: obj["labels"][0].update(c=0.0), "expected an integer, got 0.0"),
        (lambda obj: obj["labels"][0].update(c=True), "expected an integer, got True"),
        (lambda obj: obj.update(n=3.0), "expected an integer, got 3.0"),
        (lambda obj: obj.update(labels={}), "'labels' is a list of objects"),
        (lambda obj: obj["labels"].append(dict(obj["labels"][0], c=0)), "point [0, 0, 3] is listed twice"),
        (lambda obj: obj.pop("k"), "missing field 'k'"),
        (lambda obj: obj.pop("n"), "missing field 'n'"),
        (lambda obj: obj["labels"][0].pop("x"), "missing field 'x'"),
        (lambda obj: obj["labels"][0].pop("c"), "missing field 'c'"),
    ],
)
def test_malformed_cut_exits_2(tmp_path, capsys, edit, message):
    obj = cut_to_obj(random_kway_cut(3, 3, random.Random(1)))
    assert obj["labels"][0]["x"] == [0, 0, 3] and obj["labels"][0]["c"] == 2
    edit(obj)
    cutfile = tmp_path / "cut.json"
    cutfile.write_text(json.dumps(obj))
    assert main(["project", "--cut", str(cutfile)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


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


def test_svg_out_writes_the_stdout_bytes(tmp_path, capsys):
    inst, svg = tmp_path / "w3.json", tmp_path / "w3.svg"
    run(capsys, "build", "--weights", "w3", "--n", "6", "--out", str(inst))
    _, out = run(capsys, "svg", str(inst), "--potential", "2")
    assert run(capsys, "svg", str(inst), "--potential", "2", "--out", str(svg)) == (0, "")
    assert svg.read_bytes() == out.encode()


@pytest.mark.parametrize("k, n", [(3, 6), (5, 3)])
def test_svg_rejects_a_cut_on_another_grid(tmp_path, capsys, k, n):
    inst, cutfile = tmp_path / "w3.json", tmp_path / "cut.json"
    run(capsys, "build", "--weights", "w3", "--n", "3", "--out", str(inst))
    write_cut(random_kway_cut(k, n, random.Random(1)), cutfile)
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
    code, out = run(capsys, "ledger", "--only", "1,1", "--out", str(report_file))
    assert code == 0
    assert out.count("criterion 1") == 1  # a repeated id runs once
    report = json.loads(report_file.read_text())
    assert report["pass"] is True
    assert [c["id"] for c in report["criteria"]] == [1]


def test_ledger_rejects_an_unknown_criterion(capsys):
    assert main(["ledger", "--only", "1,11"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unknown criterion id(s) 11; valid ids are 1-10" in err


def test_ledger_rejects_an_empty_only(capsys):
    # only a missing --only means every criterion; an empty or non-numeric id
    # is named as a bad --only value
    for only in ("", "1,,2", "x"):
        assert main(["ledger", "--only", only]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --only takes comma-separated criterion ids 1-10, got {only!r}\n"


# A child process under a 1 GiB address-space cap calls `main` on each argv
# and prints the (exit code, stderr) pairs: without the grid bound these
# inputs try to enumerate billions of points.
CAPPED_MAIN = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from mwgap.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    out.append((code, err.getvalue()))
print(json.dumps(out))
"""


def test_oversize_grids_exit_2_under_a_memory_cap(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"k": 3, "n": 100000, "weights": []}))
    # the three terminals: a cut that counted its keys before the grid gate would say "cover exactly"
    big_cut = tmp_path / "big_cut.json"
    terminals = [{"x": [100000 * (j == i) for j in range(3)], "c": i} for i in range(3)]
    big_cut.write_text(json.dumps({"k": 3, "n": 100000, "labels": terminals}))
    bound = "has 5000150001 points, more than MAX_POINTS = 524288"
    cases = [
        (["certify", str(big), "--family", "nonopposite", "--target", "1/1"], bound),
        (["brute", str(big), "--family", "nonopposite"], "5000150001 points exceed the exhaustive bound 15"),
        (["svg", str(big)], bound),
        (["project", "--cut", str(big_cut)], bound),
        (["round", "--n", "8000", "--samples", "1000", "--seed", "1"], "MAX_POINTS = 524288"),
        (["build", "--weights", "wtilde", "--k", "20", "--n", "90"], "MAX_POINTS = 524288"),
        # grids inside MAX_POINTS whose point array or face gather passes MAX_ARRAY_BYTES
        (["build", "--weights", "wprime", "--k", "1000", "--n", "2"], "point array of Delta_{k=1000,n=2} takes"),
        (["build", "--weights", "what", "--k", "144", "--n", "3"], "point array of Delta_{k=144,n=3} takes"),
        (["build", "--weights", "what", "--k", "70", "--n", "3"], "a gather of 54740 3-faces on Delta_{k=70,n=3}"),
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(mwgap.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    argv = json.dumps([a for a, _ in cases])
    proc = subprocess.run([sys.executable, "-c", CAPPED_MAIN, argv], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for (code, err), (args, message) in zip(json.loads(proc.stdout), cases):
        assert code == 2 and message in err, args
