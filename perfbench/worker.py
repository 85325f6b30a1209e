"""One pass of one workload in a fresh interpreter; prints one JSON line.

Run by run.py, never imported.  The pass imports latpoly from the
checkout's ``src``, builds its inputs, refuses to start unless every
latpoly cache is empty (and, untraced, no tracer wrapper is installed),
then runs every request closed-loop: each request is timed alone and
verified after its timer stops.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_latpoly():
    sys.path.insert(0, str(ROOT / "src"))
    import latpoly
    if Path(latpoly.__file__).resolve().parent != ROOT / "src" / "latpoly":
        raise RuntimeError(f"latpoly imported from {latpoly.__file__}, not {ROOT / 'src'}")


def _check_clean(traced: bool) -> None:
    from tracer import installed_wrappers, lru_caches
    filled = [name for name, cache in lru_caches().items() if cache.cache_info().currsize]
    if filled:
        raise RuntimeError(f"latpoly caches not empty before the first request: {filled}")
    if not traced and installed_wrappers():
        raise RuntimeError(f"untraced pass found wrappers installed: {installed_wrappers()}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", help="trace the pass and write its spans here")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    _import_latpoly()
    from reference import kernel_seconds
    from workloads import WORKLOADS
    from tracer import Tracer, installed_wrappers

    workload = WORKLOADS[args.workload](tiny=args.tiny)
    stream = f"{args.workload}:{args.seed}"
    requests = workload.build(random.Random(stream))
    point_rng = random.Random(stream + ":point")
    traced = args.trace_out is not None
    _check_clean(traced)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    latencies, queries, failures = [], 0, []
    kernel_s = [kernel_seconds()]    # host speed before and after every request
    clock = time.perf_counter
    try:
        for rid, request in enumerate(requests):
            start = clock()
            try:
                if tracer is None:
                    answer = workload.run(request)
                else:
                    answer = tracer.run_request(rid, workload.run, request)
            except Exception:
                latencies.append(clock() - start)
                kernel_s.append(kernel_seconds())
                failures.append(f"request {rid} raised: {traceback.format_exc(limit=3)}")
                continue
            latencies.append(clock() - start)
            kernel_s.append(kernel_seconds())
            problem = workload.verify(request, answer, point_rng)
            if problem:
                failures.append(f"request {rid}: {problem}")
            else:
                queries += workload.queries(answer)
    finally:
        if tracer is not None:
            tracer.restore()
    leftover = installed_wrappers()
    if leftover:
        raise RuntimeError(f"wrappers left installed after the pass: {leftover}")

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "kernel_s": kernel_s,
        "queries": queries,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
