"""Checks on the library source itself."""

from __future__ import annotations

import ast
import importlib.util
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import latpoly

SOURCES = sorted(Path(latpoly.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check may rest on one
    assert SOURCES
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_cli_reads_no_number_with_fraction():
    # a value written as text is read by parse_polynomial alone; a second
    # reader (Fraction("1.5") is 3/2, the grammar refuses it) would split
    # the rule
    path = SOURCES[0].with_name("cli.py")
    found = [node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "Fraction"]
    assert found == []


def test_weights_have_one_reader():
    # orthopoly._weight alone turns a weight into a polynomial: the closed
    # forms import no reader of their own, and the reserved-name refusal is
    # written once
    path = SOURCES[0].with_name("closedforms.py")
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"as_poly", "parse_polynomial"} == set()
    assert sum(path.read_text().count("reserve for themselves") for path in SOURCES) == 1


def test_only_symbolic_writes_a_rho_monomial():
    # every polynomial in rho alone is written by symbolic._rho_poly, on
    # packed keys; a tuple monomial, monomial(..., rho=...) or sym("rho")
    # elsewhere would build one through the checked constructor again
    def writes_rho(node):
        if isinstance(node, ast.Tuple):
            first = node.elts[0] if len(node.elts) == 2 else None
            return isinstance(first, ast.Constant) and first.value == "rho"
        if not isinstance(node, ast.Call):
            return False
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        if name == "monomial":
            return any(k.arg == "rho" for k in node.keywords)
        return (name == "sym" and len(node.args) == 1
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == "rho")

    found = [f"{path.name}:{node.lineno}" for path in SOURCES if path.name != "symbolic.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path))) if writes_rho(node)]
    assert found == []


def test_series_engines_build_through_no_checked_constructor(monkeypatch):
    # rho-ct and cheb-ct write their kernels, images and S_m through
    # _rho_poly, and series_invert and mul_poly their results through
    # TruncatedSeries._trusted, so from cold caches no query of these
    # engines runs either checked constructor
    from fractions import Fraction
    from latpoly import (LaurentPolynomial, StripQuery, TruncatedSeries, WeightSpec,
                         rho_ct, sym, viennot_ct)
    from latpoly.engines import cheb_ct

    w = WeightSpec(3, Fraction(1, 2), -2, across={1: sym("a")}, down={3: sym("u")})
    calls = []
    for cls in (LaurentPolynomial, TruncatedSeries):
        def counting(self, *args, init=cls.__init__, name=cls.__name__):
            calls.append(name)
            init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    seen = {}
    for engine in (rho_ct, cheb_ct, viennot_ct):
        for module in ("symbolic", "orthopoly", "engines", "paving"):
            for obj in vars(importlib.import_module(f"latpoly.{module}")).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
        calls.clear()
        for t in range(6):
            for ends in ((0, 2), (2, 0)):
                engine(StripQuery(t, *ends, 3), w)
        seen[engine.__name__] = sorted(calls)
    assert seen == {"rho_ct": [], "cheb_ct": [], "viennot_ct": []}


def test_library_modules_read_every_name_they_import():
    # a deleted use leaves its import behind; __init__.py imports to export
    dead = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        dead += [f"{path.name}:{line} {name}" for name, line in imported.items()
                 if name not in read]
    assert dead == []


def test_library_reads_no_private_argparse_name():
    # the CLI parses a mode's command line through public argparse calls
    # only, so an argparse release that renames its internals cannot break it
    private = ("_SubParsersAction", "_actions", "_option_string_actions",
               "_UNRECOGNIZED_ARGS_ATTR")
    found = [f"{path.name}: {name}" for path in SOURCES for name in private
             if name in path.read_text()]
    assert found == []


def test_public_api_is_pinned():
    # the public API is latpoly.__all__: adding or removing a name edits
    # this list and is recorded in CHANGES.md; submodules are not in it
    assert latpoly.__all__ == [
        "CutOutOfRange", "Decomposition", "DecompositionTerm", "DmrParams",
        "FourWeightParams", "GuardViolation", "IndexOutOfRange", "InsufficientWeights",
        "LatPolyError", "LatticePath", "LaurentPolynomial", "NearBranchPoint",
        "NonInvertibleSubstitution", "NonUnitLeadingCoefficient", "ONE", "Paving",
        "RogersParams", "SchemaError", "SizeLimit", "StripQuery", "TruncatedSeries",
        "TruncationInsufficient", "WeightSpec", "ZERO", "ZeroLambda", "as_poly",
        "brute_force", "chebyshev_closed_form_check", "chebyshev_s",
        "constant_term_ratio", "decompose", "dmr_ct", "dmr_sum", "edge_cut",
        "enumerate_paths", "enumerate_pavings", "extended_catalan", "four_weight_ct",
        "four_weight_sum", "generating_function", "h_factor", "monomial",
        "ortho_poly", "parse_polynomial", "path_weight", "paving_count",
        "paving_polynomial", "reciprocal", "rho_ct", "rogers", "rogers_weight_spec",
        "series_invert", "stratified_weight", "sym", "to_laurent",
        "transfer_matrix", "vertex_cut", "viennot_ct"]


def test_exported_caches_are_typed():
    # an untyped lru_cache hands 2.0 or True the entry of 2 or 1, so a
    # size check in the cached body never runs for them
    caches = {name: getattr(latpoly, name) for name in latpoly.__all__
              if callable(getattr(getattr(latpoly, name), "cache_parameters", None))}
    assert "ortho_poly" in caches
    assert [name for name, f in caches.items() if not f.cache_parameters()["typed"]] == []


def test_benchmark_tracer_names_exist():
    # perfbench/tracer.py rebinds these names from outside the library, and
    # this suite does not run the benchmark, so a rename would pass here and
    # break only there
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def module(name):
        return importlib.import_module(f"latpoly.{name}")

    missing = [f"{m}.{a}" for m, a in tracer.FUNCTIONS.values()
               if not hasattr(module(m), a)]
    missing += [f"{cls}.{name}" for cls, names in tracer.METHODS.values()
                for name in names if name not in vars(getattr(module("symbolic"), cls))]
    missing += [f"{m}.{a}.cache_info" for m, a in tracer.CACHES.values()
                if not callable(getattr(getattr(module(m), a, None), "cache_info", None))]
    assert missing == []


def _bench_pairs():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  root / "tools" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_latpoly_caches_are_empty_after_import_and_a_workload_build():
    # perfbench/worker.py refuses to start a pass while any latpoly
    # lru_cache holds entries, so neither importing latpoly nor building a
    # workload's inputs may fill one: the render, parse and spec caches
    # included, since a workload parses its text and builds its specs only
    # when a request runs
    root = Path(__file__).resolve().parents[1]
    code = textwrap.dedent("""\
        import json, random, sys
        sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/perfbench"]
        import latpoly
        from tracer import lru_caches
        from workloads import WORKLOADS
        caches = lru_caches()

        def filled():
            return [n for n, c in caches.items() if c.cache_info().currsize]

        seen = {"import": filled()}
        for name, workload in WORKLOADS.items():
            workload().build(random.Random(name))
            seen[name] = filled()
        print(json.dumps({"caches": sorted(caches), "filled": seen}))
    """)
    proc = subprocess.run([sys.executable, "-c", code, str(root)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {"latpoly.symbolic._render", "latpoly.symbolic._parse_cached",
            "latpoly.orthopoly._interned_spec"} <= set(out["caches"])
    assert out["filled"] == {"import": [], "grid": [], "swell": [], "closed": []}


def test_bench_pairs_reads_a_benchmark_run():
    # tools/bench_pairs.py reads perfbench/run.py's stdout (a metadata line,
    # the result last), so a change to that layout must fail here
    root = Path(__file__).resolve().parents[1]
    run = _bench_pairs()._run(root, "closed", 1, 0, "--tiny")
    assert run["failed"] == 0 and run["attempted"] > 0
    assert run["host_slowdown"] > 0
    # the record summarizes every end-to-end metric the benchmark declares
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(run["metrics"]) == {m["name"] for m in declared}


def test_bench_pairs_lets_run_write_bytecode(monkeypatch):
    # both checkouts of a record must read their set-up from bytecode caches
    # that run.py wrote, whatever the calling shell says
    root = Path(__file__).resolve().parents[1]
    bench_pairs = _bench_pairs()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    seen = {}

    def fake_run(cmd, **kwargs):
        seen.update(kwargs["env"])
        out = ('{"meta": {"commit": null, "dirty": null, "host_slowdown": 1.0}}\n'
               '{"attempted": 1, "failed": 0, "metrics": {}}')
        return subprocess.CompletedProcess(cmd, 0, out, "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    bench_pairs._run(root, "closed", 1, 0)
    assert seen and "PYTHONDONTWRITEBYTECODE" not in seen


def test_bench_pairs_runs_the_workloads_the_benchmark_names(tmp_path, monkeypatch):
    # a workload added to BENCHMARK.json is paired without editing the tool,
    # and the commits are read from whichever workload comes first
    bench_pairs = _bench_pairs()
    roots = {side: tmp_path / side for side in ("parent", "change")}
    for root in roots.values():
        root.mkdir()
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0, "workloads": [{"name": "deep"}, {"name": "grid"}],
        "end_to_end": [{"name": "throughput_qps", "better": "higher"},
                       {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}))
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root.name, workload))
        change = root.name == "change"
        return {"seed": seed, "commit": f"{root.name}-{workload}", "dirty": False,
                "host_slowdown": 1.0, "attempted": 3 if change else 2,
                "failed": seed % 2 if change else 0,
                "metrics": {"throughput_qps": float(seed),
                            "latency_p50_ms": 2.5 if change else 2.0,
                            "peak_rss_mb": 30.0 if change else 40.0}}

    monkeypatch.setattr(bench_pairs, "_run", fake_run)
    out = tmp_path / "record.json"
    assert bench_pairs.main(["--parent", str(roots["parent"]), "--change",
                             str(roots["change"]), "--pairs", "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == ["deep", "grid"]
    assert record["commits"] == {"parent": "parent-deep", "change": "change-deep"}
    assert {w for _, w in calls} == {"deep", "grid"} and len(calls) == 8
    # a metric with a bound states the change's move against it, positive
    # when worse; one without has neither
    summary = record["workloads"]["grid"]["summary"]
    assert "bound" not in summary["throughput_qps"]
    assert "change_worse_by" not in summary["throughput_qps"]
    assert (summary["latency_p50_ms"]["change_worse_by"],
            summary["latency_p50_ms"]["bound"]) == (0.25, 0.25)
    assert (summary["peak_rss_mb"]["change_worse_by"],
            summary["peak_rss_mb"]["bound"]) == (-0.25, 0.1)
    # the operations attempted and failed, totalled per side over the pairs
    assert summary["attempted"] == {"parent": 4, "change": 6}
    assert summary["failed"] == {"parent": 0, "change": 1}
