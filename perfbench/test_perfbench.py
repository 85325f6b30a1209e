"""Tests of the benchmark itself, at tiny request lists.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs on two seeds: the request and query counts must match
the fixed shape, nothing may fail, and the traced run must report every
per-layer metric of each layer the workload calls, and none of the layers
it does not call.  The oracle must catch an answer that every engine
would share.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402

# requests and queries of one tiny pass, counted by hand from the shapes
TINY_SHAPE = {
    "grid": (2 ** 2 + 3 ** 2, (2 ** 2 + 3 ** 2) * 4),  # L=1,2, every y0,y1, t<=3
    "swell": (6 * 3, 6 * 3),                          # L=2, y0<=y1, t<=2
    "closed": (3, 3),                                 # one dmr, four, rogers case
}

SYMBOLIC = ["mul", "add", "mul_poly", "series_invert", "substitute", "render",
            "parse_polynomial"]
BRUTE = ["brute_force", "signature_cells", "evaluate_signatures"]
SERIES_ENGINES = ["transfer_matrix", "viennot_ct", "rho_ct"]
CLOSED_FORMS = ["dmr_ct", "dmr_sum", "four_weight_ct", "four_weight_sum", "rogers"]
CALLED = {
    "grid": ([f"symbolic.{n}" for n in SYMBOLIC]
             + ["orthopoly.ortho_poly", "orthopoly.to_laurent"]
             + [f"engines.{n}" for n in BRUTE + SERIES_ENGINES + ["generating_function"]]),
    "swell": ([f"symbolic.{n}" for n in SYMBOLIC]
              + ["orthopoly.ortho_poly", "orthopoly.to_laurent"]
              + [f"engines.{n}" for n in BRUTE + SERIES_ENGINES]),
    "closed": ([f"symbolic.{n}" for n in SYMBOLIC + ["constant_term_ratio"]]
               + [f"engines.{n}" for n in BRUTE]
               + [f"closedforms.{n}" for n in CLOSED_FORMS] + ["cli.main"]),
}
ALL_LAYERS = {layer for layers in CALLED.values() for layer in layers}


def _run(workload: str, seed: int, trace: int, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run(workload, seed):
    proc = _run(workload, seed, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    meta = json.loads(lines[0])["meta"]
    result = json.loads(lines[-1])
    requests, queries = TINY_SHAPE[workload]
    assert meta["passes"] == 1
    assert (meta["requests_per_pass"], meta["queries_per_pass"]) == (requests, queries)
    assert result["attempted"] == requests
    assert result["correct"] and result["failed"] == 0 and meta["failed_frac"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(bench.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench.END_TO_END[name]
        assert metric["value"] > 0
    for key in ("python", "commit", "dirty", "nproc", "loadavg_start", "loadavg_end", "seed"):
        assert key in meta


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_reports_called_layers(workload, seed):
    proc = _run(workload, seed, 1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    layers = json.loads(lines[-2])["layers"]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * TINY_SHAPE[workload][0]   # untraced + traced pass
    assert list(result["metrics"]) == list(bench.PER_LAYER)
    for layer in CALLED[workload]:
        assert layers[f"{layer}.calls"]["value"] > 0, layer
        assert layers[f"{layer}.self_s"]["value"] > 0, layer
    for layer in ALL_LAYERS - set(CALLED[workload]):
        assert f"{layer}.calls" not in layers, layer
    assert 0 <= layers["trace.unattributed_frac"]["value"] < 0.5
    assert "trace.overhead_frac" in layers
    spans = HERE / "out" / f"trace-{workload}-seed{seed}-pass0.json.gz"
    assert spans.is_file()


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("grid", 1, 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracle_catches_an_answer_all_engines_share():
    import latpoly
    from workloads import Grid, Swell
    for workload in (Grid(tiny=True), Swell(tiny=True)):
        request = workload.build(random.Random(5))[-1]
        answer = workload.run(request)
        assert workload.verify(request, answer, random.Random(6)) is None
        # the same wrong polynomial from every engine: agreement alone passes it
        shared_bug = latpoly.sym("kappa") if workload.name == "grid" else latpoly.sym("b0")
        values = answer if workload.name == "swell" else answer[-1]
        wrong = [(text + " + bug", value + shared_bug) for text, value in values]
        broken = wrong if workload.name == "swell" else answer[:-1] + [wrong]
        assert workload.verify(request, broken, random.Random(6)) is not None


def test_closed_oracle_parses_rendered_output():
    from oracle import evaluate_terms, parse_rendered
    import latpoly
    p = latpoly.parse_polynomial("3*kappa^2*omega - 1/2*kappa + omega^3 - 7/3")
    assert parse_rendered(p.render()) == {m: Fraction(c) for m, c in p.terms().items()}
    point = {"kappa": Fraction(2, 3), "omega": Fraction(-5)}
    assert evaluate_terms(parse_rendered(p.render()), point) == evaluate_terms(p.terms(), point)


def test_clean_start_check_refuses_filled_caches():
    import latpoly
    import tracer
    import worker
    for cache in tracer.lru_caches().values():
        cache.cache_clear()
    worker._check_clean(traced=False)
    latpoly.transfer_matrix(latpoly.StripQuery(2, 0, 0, 2), latpoly.WeightSpec(2, 1, 1))
    with pytest.raises(RuntimeError, match="caches not empty"):
        worker._check_clean(traced=False)


def test_tracer_restores_every_binding():
    import latpoly
    import latpoly.engines as engines
    import tracer
    mul, rho, cells = latpoly.LaurentPolynomial.__mul__, engines.rho_ct, engines._signature_cells
    t = tracer.Tracer()
    t.install()
    try:
        assert latpoly.LaurentPolynomial.__mul__ is latpoly.LaurentPolynomial.__rmul__
        assert engines.rho_ct is not rho and latpoly.rho_ct is engines.rho_ct
        assert tracer.installed_wrappers()
    finally:
        t.restore()
    assert tracer.installed_wrappers() == []
    assert latpoly.LaurentPolynomial.__mul__ is mul and engines.rho_ct is rho
    assert engines._signature_cells is cells and callable(cells.cache_info)
