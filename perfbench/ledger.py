"""Measuring parts of the layer-ledger benchmark.

Everything here wraps the repository's public entry points from the
outside; nothing in ``src/`` knows it is being measured:

* :class:`LedgerExecutor` is an ``ExperimentCache`` executor (anything
  with ``map(specs)``) that evaluates cells one at a time through a
  real :class:`~repro.runtime.GridExecutor`, so every cell gets its own
  host latency, store hit/miss and kernel-event count;
* :class:`EventCounter` wraps ``Simulator.run`` to read
  ``Simulator.events_dispatched`` around every run;
* :class:`Ledger` checks each result (accounting invariant and, for
  seeds with a recorded reference, its canonical bytes) and sums the
  simulated work counts;
* :class:`HostSpeed` converts host seconds to reference seconds with a
  fixed calibration loop run around each timed piece of work;
* :func:`layer_split` turns a cProfile run into self time per
  ``src/repro`` package.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.experiments import (compute_figure2, compute_figure3,
                               render_figure2, render_figure3)
from repro.obs import TIME_TOLERANCE_US
from repro.runtime.parallel import canonical_json, encode_result
from repro.sim.engine import Simulator

#: the paper apps of the cold and warm ladders: a spread of kernel-,
#: SVM- and NIC-bound cells (see README.md).
PAPER_APPS = ["FFT", "Ocean-rowwise", "Water-spatial", "Barnes-spatial",
              "Volrend-stealing"]

#: layers a default run executes, as ``src/repro`` package names, plus
#: ``python`` (interpreter, imports, stdlib).
LAYERS = ["sim", "hw", "vmmc", "svm", "apps", "obs", "runtime",
          "experiments", "python"]

#: RunResult.stats keys reported as per-layer simulated work counts.
STAT_COUNTS = {
    "svm.interrupts": "interrupts",
    "svm.page_fetches": "page_fetches",
    "svm.fetch_retries": "fetch_retries",
    "svm.diffs_sent": "diffs_sent",
    "svm.wn_messages": "wn_messages",
    "svm.lock_acquires": "lock_acquires",
    "vmmc.messages": "messages",
    "vmmc.bytes": "bytes",
}

_SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"
_BENCH_DIR = Path(__file__).resolve().parent


# ------------------------------------------------------------- statistics


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    Nearest-rank picks an observed sample, so a p90 over ten samples is
    the largest but one, never an interpolation between two runs.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q!r} outside (0, 100]")
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile (the guide's "at least ten beyond" test)."""
    return n - math.ceil(q / 100.0 * n)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> str:
    """SHA-256 of a RunResult's canonical ``encode_result`` bytes."""
    return sha256(canonical_json(encode_result(result)))


# ------------------------------------------------------------- host speed

#: iterations of the calibration loop, a fixed pure-Python workload.
CALIBRATION_LOOPS = 300_000
#: the calibration loop's time at reference host speed, in seconds (a
#: quiet 2-vCPU x86-64 host under CPython 3.11 takes about this long).
REFERENCE_LOOP_S = 0.020


def calibration_loop() -> float:
    """Host seconds one run of the calibration loop takes."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Converts host seconds to reference seconds.

    A shared host changes speed by a third or more for seconds to
    minutes at a time.  Each timed piece of work is bracketed by two
    runs of :func:`calibration_loop` (the one ending the previous
    piece, and one just after), and :meth:`adjust` scales its host
    seconds by ``REFERENCE_LOOP_S`` over their mean.  The result is
    the time the work would take on a host where the loop takes
    ``REFERENCE_LOOP_S``: it moves with the program, not with the host.
    """

    def __init__(self):
        self.last = calibration_loop()
        #: host seconds of every calibration loop run.
        self.loops: List[float] = [self.last]

    def restart(self) -> None:
        """Run a fresh 'before' loop (after untimed work)."""
        self.last = calibration_loop()
        self.loops.append(self.last)

    def adjust(self, seconds: float) -> float:
        """``seconds`` of work that just ended, in reference seconds."""
        after = calibration_loop()
        scale = REFERENCE_LOOP_S / ((self.last + after) / 2)
        self.last = after
        self.loops.append(after)
        return seconds * scale


# ------------------------------------------------------------ kernel events


class EventCounter:
    """Counts kernel events dispatched while installed.

    Wraps ``Simulator.run`` for the duration of a ``with`` block and
    adds the growth of ``events_dispatched`` across every call, so the
    count covers each cell the executor evaluates in this process.
    """

    def __init__(self):
        self.events = 0
        self._original = None

    def __enter__(self) -> "EventCounter":
        original = Simulator.run
        counter = self

        def run(sim, until=None):
            before = sim.events_dispatched
            try:
                return original(sim, until)
            finally:
                counter.events += sim.events_dispatched - before

        self._original = original
        Simulator.run = run
        return self

    def __exit__(self, *exc) -> None:
        Simulator.run = self._original


# ----------------------------------------------------------------- checks


def cell_label(spec) -> str:
    """A readable, workload-unique name for one cell."""
    protocol = spec.features.name if spec.features is not None else "-"
    shape = "-"
    if spec.config is not None:
        shape = (f"{spec.config.nodes}x{spec.config.procs_per_node}"
                 f"/{spec.config.topology}")
    return f"{spec.kind}/{spec.app}/{protocol}/{shape}"


def accounting_error(result) -> Optional[str]:
    """None when every rank's bucket sum equals its timed wall time
    (the runner's sum-equals-wall invariant); a message otherwise."""
    if not result.buckets:
        return None
    if len(result.buckets) != len(result.wall_us):
        return (f"{len(result.buckets)} bucket rows for "
                f"{len(result.wall_us)} ranks")
    for rank, (buckets, wall) in enumerate(zip(result.buckets,
                                               result.wall_us)):
        residual = buckets.total - wall
        if abs(residual) > TIME_TOLERANCE_US:
            return (f"rank {rank}: bucket sum {buckets.total!r} us "
                    f"misses wall {wall!r} us")
    return None


class Ledger:
    """Per-run record of cells: latency, store hits, events, checks.

    ``reference`` maps cell labels to the canonical result digests
    recorded for this run's seed; ``None`` means the seed has no
    reference and cells are checked by the accounting invariant only.
    """

    def __init__(self, reference: Optional[Dict[str, str]] = None):
        self.reference = reference
        #: (label, host seconds, kernel events) of every evaluation.
        self.timeline: List[tuple] = []
        self.hits = 0
        self.attempted = 0
        self.failures: List[str] = []
        #: label -> (spec, digest, result) of the latest evaluation.
        self.cells: Dict[str, tuple] = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def record(self, spec, digest: str, result, seconds: float,
               hit: bool, events: int = 0) -> None:
        label = cell_label(spec)
        self.attempted += 1
        self.hits += int(hit)
        self.timeline.append((label, seconds, events))
        self.cells[label] = (spec, digest, result)
        error = self.check(label, result)
        if error is not None:
            self.fail(f"{label}: {error}")

    def best_seconds(self) -> List[float]:
        """Each distinct cell's fastest time, in first-seen order."""
        best: Dict[str, float] = {}
        for label, seconds, _events in self.timeline:
            best[label] = min(seconds, best.get(label, seconds))
        return list(best.values())

    def check(self, label: str, result) -> Optional[str]:
        """Why ``result`` is wrong, or None when it passes."""
        error = accounting_error(result)
        if error is not None:
            return f"time accounting broken: {error}"
        if self.reference is not None:
            expected = self.reference.get(label)
            if expected is None:
                return "no reference digest recorded for this cell"
            if result_digest(result) != expected:
                return "result bytes differ from the recorded reference"
        return None

    def simulated_counts(self, events: int) -> Dict[str, float]:
        """Simulated work behind the ledger's cells (one pass's worth
        when a pass was repeated: counts are per distinct cell)."""
        totals = {name: 0 for name in STAT_COUNTS}
        for _spec, _digest, result in self.cells.values():
            for name, key in STAT_COUNTS.items():
                totals[name] += result.stats.get(key, 0)
        fetches = totals["svm.page_fetches"]
        out = {"sim.events": events, **totals}
        out["svm.fetch_waste"] = (totals["svm.fetch_retries"] / fetches
                                  if fetches else 0.0)
        return out


class LedgerExecutor:
    """An ``ExperimentCache`` executor that times every cell.

    Delegates to a real :class:`~repro.runtime.GridExecutor` one spec
    at a time (its ``submit``/``collect`` halves), which at ``jobs=1``
    is the same serial work the executor does for a whole grid, and
    records each cell in ``ledger``, in reference seconds when given a
    :class:`HostSpeed`.  A cell that raises is counted as failed and the
    exception propagates to the caller.
    """

    def __init__(self, inner, ledger: Ledger,
                 counter: Optional[EventCounter] = None,
                 speed: Optional[HostSpeed] = None):
        self.inner = inner
        self.ledger = ledger
        self.counter = counter
        self.speed = speed

    def map(self, specs) -> Dict[str, object]:
        out: Dict[str, object] = {}
        for spec in specs:
            events = self.counter.events if self.counter else 0
            start = time.perf_counter()
            try:
                plan = self.inner.submit([spec])
                got = self.inner.collect(plan)
            except Exception as exc:
                self.ledger.attempted += 1
                self.ledger.fail(f"{cell_label(spec)}: raised {exc!r}")
                raise
            seconds = time.perf_counter() - start
            if self.speed is not None:
                seconds = self.speed.adjust(seconds)
            if self.counter is not None:
                events = self.counter.events - events
            (digest, result), = got.items()
            self.ledger.record(spec, digest, result, seconds,
                               hit=bool(plan.hits), events=events)
            out[digest] = result
        return out


# -------------------------------------------------------------- workloads


def figure_text(cache) -> str:
    """The Figure 2 and Figure 3 rows of the paper apps (what `repro
    figure` prints), computed through ``cache``."""
    return (render_figure2(compute_figure2(cache, apps=PAPER_APPS))
            + "\n\n"
            + render_figure3(compute_figure3(cache, apps=PAPER_APPS)))


# ------------------------------------------------------ per-layer profile


def layer_of(filename: str) -> str:
    """The ledger layer a profiled code object belongs to.

    ``src/repro/<pkg>/...`` maps to ``<pkg>`` when it is a measured
    layer and to ``other`` when not (unmeasured packages, top-level
    modules); the benchmark's own files map to ``bench``; everything
    else (stdlib, frozen importlib, ``<string>``) is ``python``.
    """
    try:
        rel = Path(filename).resolve().relative_to(_SRC_REPRO)
    except (ValueError, OSError):
        if filename.startswith(str(_BENCH_DIR)):
            return "bench"
        return "python"
    top = rel.parts[0]
    return top if top in LAYERS else "other"


def layer_split(stats: dict) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` dict.

    A builtin (C) function has no file of its own, so its self time is
    split over its callers by the per-caller self time cProfile keeps,
    and each share lands in its caller's layer.  Every second of the
    profile's self time is attributed exactly once, so the values sum
    to the profile total (recursion aside).
    """
    out: Dict[str, float] = {}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in \
            stats.items():
        if filename != "~":
            layer = layer_of(filename)
            out[layer] = out.get(layer, 0.0) + tt
            continue
        assigned = 0.0
        for caller, caller_stats in callers.items():
            share = caller_stats[2]
            layer = layer_of(caller[0]) if caller[0] != "~" else "python"
            out[layer] = out.get(layer, 0.0) + share
            assigned += share
        # Recursion and top-level calls leave self time no caller owns.
        out["python"] = out.get("python", 0.0) + max(tt - assigned, 0.0)
    return out


def peak_rss_mb(children: bool) -> float:
    """Peak resident set of this process, or of the largest child it
    has waited for, in MiB (Linux reports ``ru_maxrss`` in KiB)."""
    import resource
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
