"""Layer-ledger benchmark of the GeNIMA reproduction.

Runs one workload and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (host time, tracing
off); with ``--trace 1`` they are the per-layer ones from a separate
cProfile run plus the benchmark's own spans and the simulated work
counts.  See ``perfbench/README.md`` for what each number means.

    python3 perfbench/run.py --workload paper-cold --seed 12345 \\
        --seconds 40 --trace 0

Run it from a checkout of the repository.  It writes only under
``.bench_build/perfbench/``: a scratch store per run (removed at exit)
and one JSON record per run under ``results/``.
``--record-reference`` recomputes the reference digests for ``--seed``
and stores them in ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper-cold", "paper-warm")


def host_facts(seed: int) -> dict:
    from repro.runtime import code_fingerprint
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "code_fingerprint": code_fingerprint(), "seed": seed}


def build() -> None:
    """Byte-compile the package so no run pays first-import compiles."""
    import compileall
    if not compileall.compile_dir(str(SRC / "repro"), quiet=2):
        raise SystemExit("perfbench: src/repro does not compile")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="paper-cold")
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    build()
    import workloads

    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.record_reference:
            workloads.record_reference(args.seed, run_dir)
            return 0
        bench = workloads.Bench(args.workload, args.seed, args.seconds,
                                bool(args.trace), run_dir)
        metrics = bench.run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # BENCHMARK.json names every metric of each mode and its unit.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics disagree with BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    values = {name: {"value": metrics[name], "unit": unit}
              for name, unit in units.items()}
    calibration = None
    if bench.speed is not None:
        import ledger
        calibration = {"loops": len(bench.speed.loops),
                       "median_s": ledger.median(bench.speed.loops),
                       "reference_s": ledger.REFERENCE_LOOP_S}
    record = {
        "workload": args.workload, "trace": args.trace,
        "calibration": calibration,
        "seconds": args.seconds, "host": host_facts(args.seed),
        "samples": bench.samples, "attempted": bench.attempted,
        "failures": bench.failures, "cells": bench.timeline,
        "layers_self_s": bench.layers, "metrics": values,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"host={json.dumps(record['host'], sort_keys=True)}")
    print(f"# samples {json.dumps(bench.samples, sort_keys=True)}; "
          f"fail_ratio {len(bench.failures)}/{bench.attempted}")
    if calibration is not None:
        print(f"# calibration loop median {calibration['median_s']:.6f} s "
              f"over {calibration['loops']} runs; times are in reference "
              f"seconds (loop = {calibration['reference_s']} s)")
    for failure in bench.failures[:20]:
        print(f"# FAILED {failure}")
    for name, metric in values.items():
        print(f"# {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": not bench.failures,
                      "attempted": bench.attempted,
                      "failed": len(bench.failures), "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
