"""One warm figure request in a fresh interpreter.

The ``paper-warm`` workload runs this script once per request: it
imports the package, builds an ``ExperimentCache`` over the store the
benchmark filled, renders the Figure 2 and Figure 3 rows and prints one
JSON line describing what it served.  With ``--probe`` it stops once the
cache is ready (the benchmark's set-up probe); with ``--profile PATH``
it runs under cProfile from before its imports and dumps the stats.

    python3 perfbench/request.py --store DIR --seed N [--probe] [--profile PATH]
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--profile")
    args = parser.parse_args(argv)

    profile = None
    if args.profile:
        import cProfile
        profile = cProfile.Profile()
        profile.enable()

    imports_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import ledger
    from repro.experiments import ExperimentCache
    from repro.hw import MachineConfig
    from repro.runtime import GridExecutor, ResultStore, code_fingerprint
    fingerprint_start = time.perf_counter()
    code_fingerprint()
    ready = time.perf_counter()

    book = ledger.Ledger()
    executor = ledger.LedgerExecutor(
        GridExecutor(jobs=1, store=ResultStore(args.store)), book)
    cache = ExperimentCache(config=MachineConfig(seed=args.seed),
                            executor=executor)
    out = {"import_ms": (fingerprint_start - imports_start) * 1e3,
           "fingerprint_ms": (ready - fingerprint_start) * 1e3}
    if not args.probe:
        text = ledger.figure_text(cache)
        out.update(rows_sha=ledger.sha256(text), hits=book.hits,
                   cells=book.attempted, failures=book.failures)
    if profile is not None:
        profile.disable()
        profile.dump_stats(args.profile)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
