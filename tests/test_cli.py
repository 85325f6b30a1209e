"""Command line behaviour: golden outputs, schema errors, exit codes, CSV."""

from __future__ import annotations

import csv
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from latpoly import (DmrParams, FourWeightParams, RogersParams, SchemaError, WeightSpec,
                     as_poly, chebyshev_s, rogers, rogers_weight_spec, stratified_weight, sym)
from latpoly.cli import _parser, main, parse_weights, weights_to_json

DMR_JSON = json.dumps({
    "b": 0, "lambda": 1, "L": 2,
    "down_decorations": {"1": "kappa-1", "2": {"sym": "omega", "shift": -1}},
})


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_dmr_golden(capsys):
    code, out, _ = run_cli(["compute", "--model", "dmr",
                            "--param", "r=2", "--param", "L=2"], capsys)
    assert code == 0
    assert out.strip() == "kappa^2 + kappa*omega"


def test_compute_json_format(capsys):
    code, out, _ = run_cli(["compute", "--model", "dmr", "--param", "r=1",
                            "--param", "L=3", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "kappa" and doc["engine"] == "closed-form"


def test_compute_latex_format(capsys):
    code, out, _ = run_cli(["compute", "--model", "dmr", "--param", "r=2",
                            "--param", "L=2", "--format", "latex"], capsys)
    assert code == 0
    assert out.strip() == "\\kappa^{2} + \\kappa \\omega"


def test_compute_weights_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(DMR_JSON)
    code, out, _ = run_cli(["compute", "--weights", str(path), "--t", "4",
                            "--engines", "brute"], capsys)
    assert code == 0
    assert out.strip() == "kappa^2 + kappa*omega"


def test_crosscheck_model_agrees(capsys):
    code, out, _ = run_cli(["crosscheck", "--model", "rogers", "--param", "n=3",
                            "--param", "L=3"], capsys)
    assert code == 0
    assert "all agree" in out


def test_model_jobs_are_labelled_by_the_models_first_field(capsys):
    # Rogers paths have half-length n, dmr and four have r; a crosscheck
    # and a bench sweep name each job by that field, an L sweep by L
    code, out, _ = run_cli(["crosscheck", "--model", "rogers", "--param", "n=2"], capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[:3]] == [
        "model=rogers;n=0", "model=rogers;n=1", "model=rogers;n=2"]
    for sweep, param, labels in (("r:1:2", "L=2", ["n=1", "n=2"]),
                                 ("L:2:3", "n=2", ["L=2", "L=3"])):
        code, out, _ = run_cli(["bench", "--sweep", sweep, "--model", "rogers",
                                "--param", param, "--engines", "closed-form"], capsys)
        assert code == 0
        rows = csv.DictReader(io.StringIO(out))
        assert [r["query"] for r in rows] == [f"model=rogers;{v}" for v in labels]
    code, out, _ = run_cli(["crosscheck", "--model", "dmr", "--param", "r=1",
                            "--param", "L=2"], capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()[:2]] == [
        "model=dmr;r=0", "model=dmr;r=1"]


def test_crosscheck_symbolic_grid(capsys):
    code, out, _ = run_cli(["crosscheck", "--t", "3", "--L", "2"], capsys)
    assert code == 0
    assert "all agree" in out


def test_crosscheck_weights_json_report(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(DMR_JSON)
    code, out, _ = run_cli(["crosscheck", "--weights", str(path), "--t", "3",
                            "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["agree"] is True
    assert len(doc["queries"]) == 4 * 9  # t <= 3, all 9 height pairs
    first = doc["queries"][0]
    assert set(first["engines"]) == {"brute", "tmatrix", "viennot-ct", "rho-ct"}
    assert all(m >= 0 for m in first["micros"].values())


def test_crosscheck_detects_disagreement(monkeypatch, capsys):
    import latpoly.cli as cli_mod
    monkeypatch.setattr(cli_mod, "transfer_matrix", lambda q, w: as_poly(999))
    code, out, err = run_cli(["crosscheck", "--t", "2", "--L", "1"], capsys)
    assert code == 1
    assert "MISMATCH" in out or "DISAGREEMENT" in out
    assert "999" in err


def test_invalid_model_params_exit_2(capsys):
    code, _, err = run_cli(["compute", "--model", "dmr", "--param", "r=2",
                            "--param", "L=1"], capsys)
    assert code == 2
    assert "at least 2" in err


def test_gf_plain_and_json(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(DMR_JSON)
    code, out, _ = run_cli(["gf", "--weights", str(path), "--order", "4"], capsys)
    assert code == 0
    assert out.strip() == "1 + kappa*x^2 + (kappa^2 + kappa*omega)*x^4 + O(x^5)"
    code, out, _ = run_cli(["gf", "--weights", str(path), "--order", "4",
                            "--format", "json"], capsys)
    doc = json.loads(out)
    assert doc["coefficients"]["4"] == "kappa^2 + kappa*omega"


def test_gf_latex_zero_series(capsys):
    code, out, _ = run_cli(["gf", "--L", "3", "--y-end", "3", "--order", "2",
                            "--format", "latex"], capsys)
    assert (code, out) == (0, "0 + O(x^{3})\n")


def test_bench_csv(capsys):
    code, out, _ = run_cli(["bench", "--sweep", "t:1:4", "--L", "2",
                            "--engines", "rho-ct,tmatrix"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4 * 2
    assert {r["engine"] for r in rows} == {"rho-ct", "tmatrix"}
    assert all(int(r["micros"]) > 0 for r in rows)
    assert all(int(r["terms"]) >= 0 for r in rows)


def test_bench_model_sweep(capsys):
    code, out, _ = run_cli(["bench", "--sweep", "n:1:4", "--model", "rogers",
                            "--engines", "closed-form"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 4


def test_parse_weights_round_trip():
    w = parse_weights(DMR_JSON)
    assert w.strip_height == 2
    assert w.effective_lambda(1) == sym("kappa")
    assert w.effective_lambda(2) == sym("omega")
    doc = weights_to_json(w)
    again = parse_weights(json.dumps(doc))
    assert again == w
    assert weights_to_json(again) == doc


def test_parse_weights_schema_errors():
    with pytest.raises(SchemaError) as exc:
        parse_weights(json.dumps({"b": 0, "L": 2}))
    assert exc.value.pointer == "/lambda"
    with pytest.raises(SchemaError) as exc:
        parse_weights(json.dumps({"b": 0.5, "lambda": 1, "L": 2}))
    assert exc.value.pointer == "/b"
    with pytest.raises(SchemaError) as exc:
        parse_weights(json.dumps(
            {"b": 0, "lambda": 1, "L": 2, "down_decorations": {"1": 1.5}}))
    assert exc.value.pointer == "/down_decorations/1"
    with pytest.raises(SchemaError) as exc:
        parse_weights(json.dumps(
            {"b": 0, "lambda": 1, "L": 2, "down_decorations": {"x": "kappa"}}))
    assert "height" in str(exc.value)
    with pytest.raises(SchemaError):
        parse_weights(json.dumps({"b": 0, "lambda": 1, "L": 2, "zzz": 1}))
    # a height key is a canonical ASCII decimal: "01" would overwrite "1",
    # "\u00b2" (superscript two) and "\u0661" (Arabic-Indic one) pass isdigit
    for key in ("01", "\u00b2", "\u0661"):
        with pytest.raises(SchemaError) as exc:
            parse_weights(json.dumps({"b": 0, "lambda": 1, "L": 2,
                                      "down_decorations": {"1": "a", key: "b"}}))
        assert exc.value.pointer == f"/down_decorations/{key}"
    with pytest.raises(SchemaError):
        parse_weights("not json")
    for text in ("[" * 100_000, "{\"b\": " + "[" * 100_000):
        with pytest.raises(SchemaError, match="nested too deeply"):
            parse_weights(text)
    doc = {"b": 0, "lambda": 1, "L": 1,
           "down_decorations": {"1": "(" * 1200 + "k" + ")" * 1200}}
    with pytest.raises(SchemaError, match="nested too deeply") as exc:
        parse_weights(json.dumps(doc))
    assert exc.value.pointer == "/down_decorations/1"
    # (document change, pointer, message) of a refused part
    long_key, far_key = "1" * 5000, "1" * 40
    for change, pointer, message in [
        ({"down_decorations": {"1": {"sym": "k", "x": 1}}}, "/down_decorations/1", "unknown keys"),
        ({"down_decorations": {"1": {"shift": 1}}}, "/down_decorations/1", "missing 'sym'"),
        ({"down_decorations": {"1": {"sym": "k", "shift": 1.5}}}, "/down_decorations/1/shift",
         "integer required"),
        ({"down_decorations": {"1": {"sym": "2k"}}}, "/down_decorations/1/sym", "bad symbol"),
        ({"down_decorations": {"1": {"sym": 5}}}, "/down_decorations/1/sym", "string"),
        ({"b": "kappa"}, "/b", "exact rational required"),
        ({"down_decorations": []}, "/down_decorations", "object of height"),
        ({"down_decorations": {"1": "rho"}}, "/down_decorations/1", "names 'rho'"),
        ({"across_decorations": {"0": {"sym": "x"}}}, "/across_decorations/0", "names 'x'"),
        ({"down_decorations": {long_key: "k"}}, f"/down_decorations/{long_key}",
         "height must be in [1, 2]"),
        ({"down_decorations": {far_key: "k"}}, f"/down_decorations/{far_key}",
         "height must be in [1, 2]"),
        ({"down_decorations": {"0": "k"}}, "/down_decorations/0", "height must be in [1, 2]"),
        ({"across_decorations": {"3": "k"}}, "/across_decorations/3", "height must be in [0, 2]"),
    ]:
        with pytest.raises(SchemaError) as exc:
            parse_weights(json.dumps({"b": 0, "lambda": 1, "L": 2, **change}))
        assert exc.value.pointer == pointer and message in exc.value.message, change
    with pytest.raises(SchemaError, match="top-level object required") as exc:
        parse_weights("[]")
    assert exc.value.pointer == ""
    # a JSON number past int()'s digit limit is invalid JSON, not a bare ValueError
    with pytest.raises(SchemaError, match="invalid JSON") as exc:
        parse_weights('{"b": 0, "lambda": 1, "L": ' + "9" * 5000 + "}")
    assert exc.value.pointer == ""


def test_parse_weights_rational_background():
    w = parse_weights(json.dumps({"b": "1/2", "lambda": "3/2", "L": 1,
                                  "down_decorations": {"1": "1/2"}}))
    assert w.background_b == as_poly(1) .as_fraction() / 2
    assert w.effective_lambda(1) == as_poly(2).as_fraction()


def test_missing_inputs_exit_2(capsys):
    code, _, err = run_cli(["compute", "--t", "2"], capsys)
    assert code == 2 and "need" in err
    code, _, err = run_cli(["bench", "--sweep", "q:1:2", "--L", "1"], capsys)
    assert code == 2


def _exit_code(args, capsys):
    """main's exit code, counting an argparse refusal (SystemExit) too."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


DMR_2_2 = ["compute", "--model", "dmr", "--param", "r=2", "--param", "L=2"]


@pytest.mark.parametrize("args, message", [
    (DMR_2_2 + ["--param", "kappa=1/0"], "zero denominator"),
    (DMR_2_2 + ["--param", "kappa=inf"], "weight must be"),
    (["compute", "--model", "dmr", "--param", "r"], "KEY=VALUE"),
    (["compute", "--model", "dmr", "--param", "r=3/2", "--param", "L=2"], "r must be an integer"),
    (["compute", "--model", "dmr", "--param", "L=2"], "r must be an integer"),
    (["compute", "--model", "four", "--param", "r=2"], "L must be an integer"),
    (["crosscheck", "--model", "four", "--param", "r=2", "--param", "L=inf"],
     "L must be an integer"),
    (["compute", "--model", "rogers", "--param", "n=kappa"], "n must be an integer"),
    (["bench", "--sweep", "L:1:2", "--model", "rogers"], "n must be an integer"),
    (["crosscheck", "--L", "-1"], "nonnegative"),
    (["crosscheck", "--weights", "w.json", "--L", "5"], "contradicts"),
    (["bench", "--sweep", "t:1:2", "--weights", "w.json", "--L", "5"], "contradicts"),
    (["gf", "--weights", "w.json", "--L", "5"], "contradicts"),
    (["compute", "--weights", "zero.json"], "zero denominator"),
    (["crosscheck", "--t", "-1", "--L", "1"], "--t must be nonnegative"),
    (DMR_2_2 + ["--weights", "w.json", "--L", "7", "--t", "3"],
     "--model takes no --weights, --L, --t"),
    (DMR_2_2 + ["--t", "0"], "--model takes no --t"),
    (DMR_2_2 + ["--y-start", "1", "--y-end", "2"], "--model takes no --y-start, --y-end"),
    (["crosscheck", "--model", "dmr", "--param", "r=1", "--L", "0"], "--model takes no --L"),
    (["bench", "--sweep", "r:0:1", "--model", "dmr", "--param", "L=2", "--y-end", "1"],
     "--model takes no --y-end"),
    (["bench", "--sweep", "t:1:2", "--L", "1", "--t", "9"], "--sweep t takes no --t"),
    (["bench", "--sweep", "t:1:2", "--weights", "w.json", "--t", "3"], "--sweep t takes no --t"),
    (["bench", "--sweep", "L:1:2", "--L", "7"], "--sweep L takes no --L"),
    (["bench", "--sweep", "r:0:1", "--model", "dmr", "--param", "L=2", "--param", "r=9"],
     "--sweep r takes no --param r"),
    (["bench", "--sweep", "L:2:3", "--model", "dmr", "--param", "r=1", "--param", "L=2"],
     "--sweep L takes no --param L"),
    (["bench", "--sweep", "r:1:2", "--model", "rogers", "--param", "n=3"],
     "--sweep r takes no --param n"),
    (["crosscheck", "--L", "1", "--t", "1", "--format", "latex"], "not latex"),
    (["compute", "--model", "dmr", "--param", "r=1", "--param", "L=2",
      "--param", "kappa=" + "(" * 1200 + "x" + ")" * 1200], "nested too deeply"),
    (["compute", "--weights", "deep.json"], "nested too deeply"),
    (["compute", "--model", "rogers", "--param", "n=2", "--param", "kappas="],
     "the expression is empty"),
    (["compute", "--model", "rogers", "--param", "n=3", "--param", "kappas=a,,b"],
     "the expression is empty"),
    (DMR_2_2 + ["--param", "kappa= "], "the expression is empty"),
    (["crosscheck", "--model", "dmr", "--param", "r=2", "--param", "L=3", "--param", "kappa=x"],
     "names 'x'"),
    (["crosscheck", "--model", "dmr", "--param", "r=2", "--param", "L=3",
      "--param", "kappa=rho"], "names 'rho'"),
    (["compute", "--weights", "reserved.json"], "names 'rho'"),
    # a value written as text has one reader, parse_polynomial's grammar
    (["compute", "--model", "dmr", "--param", "r=2.0", "--param", "L=3"],
     "floating literal '2.0' not allowed"),
    (["compute", "--model", "dmr", "--param", "r=2", "--param", "L=1e0"],
     "expected end near token 'e0'"),
    (DMR_2_2 + ["--param", "kappa=1.5"], "floating literal '1.5' not allowed"),
    (["bench", "--sweep", "t:1_0:11", "--L", "1"], "expected end near token '_0'"),
    (["bench", "--sweep", "t:\u0663:4", "--L", "1"], "unexpected character"),
    (["bench", "--sweep", "t:a:4", "--L", "1"], "sweep t bound must be an integer"),
    (["compute", "--weights", "decimal.json"], "/b: floating literal '1.5' not allowed"),
    # every engine reads a weight by one rule: closed-sum builds no spec
    (DMR_2_2 + ["--param", "kappa=rho", "--engines", "closed-sum"], "reserve"),
    (["bench", "--model", "rogers", "--param", "kappas=2", "--param", "L=3",
      "--sweep", "n:1:3", "--engines", "brute"], "need 2 down weights, got 1"),
    (["compute", "--model", "dmr", "--param", "zz=1"], "unknown parameter 'zz'"),
    (["bench", "--model", "dmr", "--param", "L=2", "--sweep", "t:1:2"],
     "model bench sweeps r, n or L, not t"),
    (["bench", "--sweep", "L:1:2", "--weights", "w.json"], "cannot use a fixed weights file"),
    (["bench", "--sweep", "r:1:2", "--L", "2"], "weights bench sweeps t or L, not r"),
    (["compute", "--L", "1", "--engines", "nosuch"], "unknown engine 'nosuch'"),
    (["compute", "--L", "1", "--engines", "closed-form"], "engine closed-form needs --model"),
    (["compute", "--L", "1", "--engines", "brute,tmatrix"], "exactly one engine"),
    (["bench", "--L", "1", "--sweep", "t:3:1"], "sweep range is empty"),
    (["gf"], "gf needs --weights or --L"),
])
def test_invalid_input_one_line_error_exit_2(args, message, tmp_path, monkeypatch, capsys):
    (tmp_path / "w.json").write_text(DMR_JSON)
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "zero.json").write_text(json.dumps(
        {"b": 0, "lambda": 1, "L": 1, "down_decorations": {"1": "1/0"}}))
    (tmp_path / "reserved.json").write_text(json.dumps(
        {"b": 0, "lambda": 1, "L": 1, "across_decorations": {"0": "2*rho"}}))
    (tmp_path / "decimal.json").write_text(json.dumps({"b": "1.5", "lambda": 1, "L": 1}))
    monkeypatch.chdir(tmp_path)
    code, out, err = _exit_code(args, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_runaway_rogers_query_refused_at_once(capsys):
    # 2^39 chains: refused with SizeLimit before the walk starts
    start = time.perf_counter()
    code, out, err = _exit_code(["compute", "--model", "rogers", "--param", "n=40"], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "chains" in err


def test_model_weights_built_once_and_only_when_read(monkeypatch, capsys):
    import latpoly.closedforms as closedforms
    built = []
    spec = closedforms.WeightSpec
    monkeypatch.setattr(closedforms, "WeightSpec",
                        lambda *a, **k: built.append(a) or spec(*a, **k))
    # the sums read no weights
    assert run_cli(DMR_2_2 + ["--engines", "closed-sum"], capsys)[0] == 0
    assert built == []
    # brute force and the constant term of one model share its weights
    assert run_cli(["crosscheck", "--model", "dmr", "--param", "r=2", "--param", "L=3",
                    "--engines", "brute,closed-form,cheb-ct"], capsys)[0] == 0
    assert len(built) == 3  # r = 0, 1, 2


def test_cheb_ct_zero_background_lambda_exit_2(tmp_path, monkeypatch, capsys):
    # like rho-ct, cheb-ct substitutes x -> rho + b + lambda/rho, which needs
    # a nonzero background lambda; a zero one is refused, not answered
    (tmp_path / "wall.json").write_text(json.dumps(
        {"b": 1, "lambda": 0, "L": 2, "down_decorations": {"1": "kappa"}}))
    monkeypatch.chdir(tmp_path)
    code, out, err = _exit_code(["crosscheck", "--weights", "wall.json", "--t", "2",
                                 "--engines", "tmatrix,cheb-ct"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "lambda must be nonzero" in err


@pytest.mark.parametrize("args", [
    ["gf", "--L", "2", "--model", "dmr"],
    ["gf", "--L", "2", "--t", "3"],
    ["gf", "--L", "2", "--engines", "brute"],
    ["gf", "--L", "2", "--cap", "4"],
    ["gf", "--L", "2", "--param", "r=1"],
    ["bench", "--sweep", "t:1:2", "--L", "1", "--format", "json"],
    ["crosscheck", "--L", "1", "--y-start", "1"],
    ["crosscheck", "--L", "1", "--y-end", "1"],
])
def test_flags_a_subcommand_does_not_read_are_refused(args, capsys):
    code, out, err = _exit_code(args, capsys)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_params_classes_refuse_what_the_cli_refuses():
    for make in (lambda: DmrParams(L=2), lambda: DmrParams(2.0, 2),
                 lambda: FourWeightParams(2, True), lambda: RogersParams(),
                 lambda: RogersParams(3, "2"), lambda: DmrParams(2, 2, kappa=None),
                 lambda: DmrParams(2, 2, kappa="1.5")):
        with pytest.raises(ValueError):
            make()
    # a weight that names an engine's variable is refused by every entry point
    for make in (lambda: DmrParams(2, 3, kappa="rho"), lambda: DmrParams(2, 3, omega="rho^-1"),
                 lambda: FourWeightParams(2, 4, kappa1="x"), lambda: rogers(2, None, ["x", 2]),
                 lambda: stratified_weight(2, 1, ["x", "rho"]),
                 lambda: RogersParams(2, kappas=[1, "rho"]), lambda: rogers_weight_spec(2, ["x"]),
                 lambda: chebyshev_s(2, "x")):
        with pytest.raises(ValueError, match="reserve"):
            make()


def test_library_reads_a_weight_text_as_the_cli_does():
    # a weight given as text is parsed by the CLI's grammar, not taken as
    # one symbol name
    assert (DmrParams(2, 3, kappa="2*k").closed_sum()
            == DmrParams(2, 3, kappa=2 * sym("k")).closed_sum())
    assert chebyshev_s(2, "b+1") == chebyshev_s(2, sym("b") + 1)
    assert WeightSpec(2, down={1: "kappa"}) == WeightSpec(2, down={1: sym("kappa")})


def test_crosscheck_grid_heights(capsys):
    code, out, _ = run_cli(["crosscheck", "--L", "0", "--t", "2"], capsys)
    assert code == 0
    assert out.splitlines()[-1] == "crosscheck: 3 queries, all agree"  # L = 0 only
    code, out, _ = run_cli(["crosscheck", "--L", "0"], capsys)
    assert out.splitlines()[-1] == "crosscheck: 7 queries, all agree"  # t <= 6


def _readme_commands():
    """(argv, expected output or None) of each README command line example."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    for i, line in enumerate(lines):
        if line.startswith("latpoly "):
            after = lines[i + 1] if i + 1 < len(lines) else ""
            expected = after[2:] if after.startswith("# ") else None
            yield shlex.split(line.split("  #")[0])[1:], expected


def test_readme_command_lines_parse():
    commands = list(_readme_commands())
    assert len(commands) >= 7
    for argv, _ in commands:
        _parser().parse_args(argv)


def test_readme_dmr_example_output(capsys):
    [(argv, expected)] = [c for c in _readme_commands() if c[1] is not None]
    assert argv == DMR_2_2
    code, out, _ = run_cli(argv, capsys)
    assert (code, out) == (0, expected + "\n")
    assert expected == "kappa^2 + kappa*omega"


def test_python_dash_m_runs_the_cli():
    # a checkout without the installed script reaches the same command line
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "latpoly", *argv],
                              capture_output=True, text=True, env=env)

    ok = run(*DMR_2_2)
    assert (ok.returncode, ok.stdout) == (0, "kappa^2 + kappa*omega\n")
    bad = run(*DMR_2_2, "--engines", "no-such-engine")
    assert bad.returncode == 2 and bad.stderr.startswith("error:")


# top-level usage line, shared by every error the top-level parser reports
_TOP_USAGE = "usage: latpoly [-h] {compute,crosscheck,bench,gf} ...\n"

# (argv, exit code, stdout, stderr) of the command lines that argparse
# answers itself: help, a missing or unknown mode, an unknown flag, a
# leftover argument, a missing required flag.  The wording is argparse's
# own at 80 columns, as Python 3.11 prints it; other versions may word it
# differently
ARGPARSE_CALLS = [
    pytest.param([], 2, "",
                 _TOP_USAGE + 'latpoly: error: the following arguments are required: mode\n',
                 id='no arguments'),
    pytest.param(['-h'], 0, """\
usage: latpoly [-h] {compute,crosscheck,bench,gf} ...

Exact strip lattice path weight polynomials.

positional arguments:
  {compute,crosscheck,bench,gf}
    compute             one query, one engine
    crosscheck          run several engines and compare
    bench               time engines over a sweep, emit CSV
    gf                  truncated generating function

options:
  -h, --help            show this help message and exit
""",
                 "",
                 id='top-level help'),
    pytest.param(['nosuch'], 2, "",
                 _TOP_USAGE + "latpoly: error: argument mode: invalid choice: 'nosuch' "
                 "(choose from 'compute', 'crosscheck', 'bench', 'gf')\n",
                 id='unknown mode'),
    pytest.param(['compute', '-h'], 0, """\
usage: latpoly compute [-h] [--t T] [--L L] [--y-start Y_START]
                       [--y-end Y_END] [--weights WEIGHTS]
                       [--model {dmr,four,rogers}] [--param KEY=VALUE]
                       [--engines ENGINES] [--format {plain,json,latex}]
                       [--cap CAP]

options:
  -h, --help            show this help message and exit
  --t T                 path length (or maximum)
  --L L                 strip height
  --y-start Y_START
  --y-end Y_END
  --weights WEIGHTS     weights JSON file
  --model {dmr,four,rogers}
  --param KEY=VALUE     model parameter (repeatable)
  --engines ENGINES     comma separated engine list
  --format {plain,json,latex}
  --cap CAP             brute force enumeration cap on t
""",
                 "",
                 id='subcommand help'),
    pytest.param(['compute', '--bogus'], 2, "",
                 _TOP_USAGE + 'latpoly: error: unrecognized arguments: --bogus\n',
                 id='unknown flag'),
    pytest.param(['gf', '--L', '1', 'extra'], 2, "",
                 _TOP_USAGE + 'latpoly: error: unrecognized arguments: extra\n',
                 id='leftover argument'),
    pytest.param(['bench'], 2, "", """\
usage: latpoly bench [-h] [--t T] [--L L] [--y-start Y_START] [--y-end Y_END]
                     [--weights WEIGHTS] [--model {dmr,four,rogers}]
                     [--param KEY=VALUE] [--engines ENGINES] [--cap CAP]
                     --sweep VAR:LO:HI
latpoly bench: error: the following arguments are required: --sweep
""",
                 id='missing required flag'),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", ARGPARSE_CALLS)
def test_argparse_answers_are_pinned(argv, code, stdout, stderr, monkeypatch, capsys):
    # a mode's own parser reads the command line; what argparse prints for
    # help and refusals stays what one parse by the top-level parser printed
    monkeypatch.setenv("COLUMNS", "80")
    assert _exit_code(argv, capsys) == (code, stdout, stderr)
