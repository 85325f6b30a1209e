"""Paired benchmark runs of two checkouts, written to one JSON record.

    python3 tools/bench_pairs.py --parent DIR --change DIR --pairs 10 --out BENCH.json

For each pair and each workload that the change's BENCHMARK.json names,
in its order, it runs ``perfbench/run.py --trace 0`` once in each checkout
on the same fresh seed, for the ``run_seconds`` that file sets.  It
alternates which checkout runs first from one pair to the next, so that
a drift of the host's speed falls on both sides alike.  The record
holds both commits, the Python version, every run's metrics and, per side,
workload and metric, the median and quartiles, with the number of pairs in
which the change did better.  For a metric whose BENCHMARK.json entry has a
``bound``, it also holds that bound and ``change_worse_by``, the change's
median relative to the parent's, signed so that a positive value is worse.
Per workload and side, the summary also totals the operations that the
runs attempted and those that failed.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _run(root: Path, workload: str, seed: int, seconds: float, *flags: str) -> dict:
    """One untraced benchmark run, with any further run.py ``flags``; its
    last stdout line is the result, and an earlier one the metadata."""
    # run.py's first worker writes the bytecode caches that its set-up
    # probes then read; were writing switched off, a checkout holding caches
    # from elsewhere would read a faster set-up than one without
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", *flags],
        capture_output=True, text=True, env=env)
    if proc.returncode:
        raise RuntimeError(f"{root} {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = next(json.loads(l)["meta"] for l in lines if l.startswith('{"meta"'))
    return {"seed": seed, "commit": meta.get("commit"), "dirty": meta.get("dirty"),
            "host_slowdown": meta["host_slowdown"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def _summary(runs: dict, metrics: list) -> dict:
    """Median and quartiles per side and metric, and the pairs won; for a
    metric with a bound, the change's relative move against that bound;
    and the attempted and failed totals per side."""
    out = {key: {side: sum(r[key] for r in runs[side]) for side in SIDES}
           for key in ("attempted", "failed")}
    for metric in metrics:
        name, direction = metric["name"], metric["better"]
        sides = {side: [r["metrics"][name] for r in runs[side]] for side in SIDES}
        entry = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        sign = 1 if direction == "higher" else -1
        entry["change_better_pairs"] = sum(
            sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        entry["better"] = direction
        if "bound" in metric:
            parent, change = entry["parent"]["median"], entry["change"]["median"]
            entry["change_worse_by"] = (sign * (parent - change) / parent if parent
                                        else None)
            entry["bound"] = metric["bound"]
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                run = _run(roots[side], workload, args.seed + i, seconds)
                run["first"] = side == order[0]
                runs[workload][side].append(run)
                print(f"pair {i} {workload} {side} "
                      f"{run['metrics']['throughput_qps']:.1f} q/s", file=sys.stderr)

    record = {
        "python": platform.python_version(),
        # as each checkout's runs report it (run.py's git revision)
        "commits": {side: runs[workloads[0]][side][0]["commit"] for side in SIDES},
        "pairs": args.pairs, "seconds": seconds,
        "seeds": [args.seed + i for i in range(args.pairs)],
        "workloads": {w: {"summary": _summary(runs[w], spec["end_to_end"]), "runs": runs[w]}
                      for w in workloads},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
