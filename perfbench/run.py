"""latpoly benchmark: one seeded workload, closed loop, verified answers.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

It measures the checkout it sits in.  One client, one process at a time:
every pass is a fresh interpreter (worker.py) that imports latpoly from
``src``, builds the seeded inputs and runs the workload's fixed list of
requests one after another.  Passes repeat the same inputs until
``--seconds`` are spent.

The host's speed for the same Python work swings by up to 2x within
seconds, so each request's wall time is scaled to a nominal host speed
measured by the reference kernel run next to it (reference.py), and a
request's latency is its median over the passes.  The raw wall-clock
figures and the host's slowdown are printed in the metadata line.
Set-up time is the median of several workers that only set up, scaled
the same way.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics of the fastest
traced pass, plus the tracing overhead; spans go to ``perfbench/out/``.
Every answer is checked against the independent oracle and against the
other engines.  The last line of stdout is the JSON result; the lines
before it give run metadata and every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, kernel_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("grid", "swell", "closed")

END_TO_END = {
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# metrics of the layers that every workload calls, so each is measured on
# every workload; the full report (engines, orthopoly, closedforms, cli) is
# printed on the line before the result
PER_LAYER = {
    "symbolic.mul.calls": "count",
    "symbolic.mul.self_s": "s",
    "symbolic.mul.out_terms": "count",
    "symbolic.mul.max_terms": "count",
    "symbolic.add.calls": "count",
    "symbolic.add.self_s": "s",
    "symbolic.mul_poly.calls": "count",
    "symbolic.mul_poly.s": "s",
    "symbolic.mul_poly.out_terms": "count",
    "symbolic.mul_poly.useful_ratio": "ratio",
    "symbolic.series_invert.calls": "count",
    "symbolic.series_invert.s": "s",
    "symbolic.series_invert.out_terms": "count",
    "symbolic.substitute.self_s": "s",
    "symbolic.render.calls": "count",
    "symbolic.render.self_s": "s",
    "symbolic.parse_polynomial.s": "s",
    "engines.brute_force.s": "s",
    "engines.signature_cells.self_s": "s",
    "engines.signature_cells.hit_ratio": "ratio",
    "engines.evaluate_signatures.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}

SETUP_PROBES = 11         # set-up-only workers per run; setup_s is their median
RUN_LIMIT_S = 170         # no worker may still run this long after the start


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    return "count"


def _revision() -> dict:
    """Commit and dirty flag when the checkout is a git work tree."""
    # never report the commit of a repository that merely encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


class Run:
    """Spawns the workers of one run, one at a time."""

    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()

    def worker(self, *extra) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed)]
        if self.args.tiny:
            cmd.append("--tiny")
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        cmd += [*extra, "--spawned-at", repr(time.monotonic())]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=dict(os.environ, PYTHONHASHSEED="0"), timeout=remaining)
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_seconds(self) -> float:
        """Set-up time of one worker, scaled to the nominal host speed."""
        before = kernel_seconds()
        setup = self.worker("--setup-only")["setup_s"]
        return setup * 2 * NOMINAL_S / (before + kernel_seconds())

    def passes(self, traced: bool) -> list:
        """(untraced, traced or None) pass results until the budget is spent.

        A further pass starts only if half of it would fit, so a run lasts
        about ``--seconds`` whatever the pass length."""
        out = []
        start = time.monotonic()
        while True:
            begun = time.monotonic()
            plain = self.worker()
            spans = None
            if traced:
                OUT.mkdir(exist_ok=True)
                path = OUT / f"trace-{self.args.workload}-seed{self.args.seed}-pass{len(out)}.json.gz"
                spans = self.worker("--trace-out", str(path))
            out.append((plain, spans))
            now = time.monotonic()
            if now + (now - begun) / 2 > start + self.args.seconds:
                return out


def _scaled(result: dict) -> list:
    """A pass's request latencies at the nominal host speed."""
    k = result["kernel_s"]
    return [lat * 2 * NOMINAL_S / (k[i] + k[i + 1]) for i, lat in enumerate(result["latencies"])]


def _per_request(passes: list) -> list:
    """Each request's scaled latency, median over passes of the same requests."""
    return [statistics.median(column) for column in zip(*map(_scaled, passes))]


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny request lists, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latpoly" / "__init__.py").is_file():
        print(f"error: no latpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    meta = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "loadavg_start": os.getloadavg(), **_revision(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny}
    run = Run(args)
    try:
        run.worker("--setup-only")  # writes bytecode caches; not measured
        setups = [run.setup_seconds() for _ in range(SETUP_PROBES)]
        pairs = run.passes(bool(args.trace))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs if t is not None]
    done = plain + traced
    latencies = _per_request(plain)
    raw = [x for p in plain for x in p["latencies"]]
    attempted = sum(len(p["latencies"]) for p in done)
    failures = [f for p in done for f in p["failures"]]
    queries = statistics.fmean(p["queries"] for p in plain)   # verified ones
    meta.update(loadavg_end=os.getloadavg(), passes=len(plain), requests_per_pass=len(latencies),
                queries_per_pass=queries, requests=attempted,
                setup_samples=len(setups), failed_frac=len(failures) / attempted,
                raw_latency_p50_ms=1000 * statistics.median(raw),
                raw_throughput_qps=len(plain) * queries / sum(raw),
                host_slowdown=statistics.median(k for p in plain for k in p["kernel_s"]) / NOMINAL_S)
    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)

    end_to_end = {
        "throughput_qps": queries / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_p90_ms": 1000 * _percentile(latencies, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
    }
    print(json.dumps({"meta": meta}))
    units = dict(END_TO_END, failed_frac="ratio")
    for name, value in dict(end_to_end, failed_frac=meta["failed_frac"]).items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    if args.trace:
        layers = dict(min(traced, key=lambda t: sum(t["latencies"]))["layers"])
        layers["trace.overhead_frac"] = sum(_per_request(traced)) / sum(latencies) - 1
        print(json.dumps({"layers": {k: {"value": v, "unit": _unit(k)}
                                     for k, v in sorted(layers.items())}}))
        missing = [name for name in PER_LAYER if name not in layers]
        if missing:
            print(f"error: layer metrics not measured: {missing}", file=sys.stderr)
            return 1
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
