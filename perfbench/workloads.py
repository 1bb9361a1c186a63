"""The benchmark's workloads, ``paper-cold`` and ``paper-warm`` (see
README.md for why each one is there).

Imported by ``run.py`` once ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import ledger
from repro.experiments import ExperimentCache
from repro.hw import MachineConfig
from repro.runtime import GridExecutor, ResultStore, SVMBackend
from repro.runtime.parallel import decode_payload, make_envelope
from repro.svm import GENIMA

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: fresh-interpreter set-up probes per run; setup_s is their median.
SETUP_REPEATS = 7
#: cold passes per untraced run at least; each cell's time is its best
#: over the passes (see README.md, "Host noise").
MIN_PASSES = 3
#: traced and untraced warm requests per traced paper-warm run.
TRACED_REQUESTS = 10
#: repeats of the render and build spans.
SPAN_REPEATS = 5
CHILD_TIMEOUT_S = 120


class ChildError(RuntimeError):
    """A benchmark child process failed."""


def child(args: List[str], store: Path, seed: int):
    """Run ``request.py`` once; return (host seconds, its JSON line)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "request.py"), "--store", str(store),
           "--seed", str(seed), *args]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildError(f"request.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return seconds, json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


class Bench:
    """One benchmark run: a workload at a seed, traced or not.

    After :meth:`run`, ``attempted``/``failures`` count every cell and
    figure request of the run, ``samples`` holds the sample counts and
    ``timeline`` the untraced cells' (label, seconds, events).  Untraced
    runs time everything in reference seconds (:class:`ledger.HostSpeed`);
    traced runs use plain host seconds.
    """

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        refs = load_reference().get("seeds", {}).get(str(seed))
        self.ref_cells = refs["cells"] if refs else None
        self.ref_rows = refs["rows"] if refs else None
        self.attempted = 0
        self.failures: List[str] = []
        self.samples: Dict[str, int] = {}
        self.timeline: List[tuple] = []
        self.spans: Dict[str, float] = {}
        #: traced runs: self seconds per unit of work of every bucket.
        self.layers: Dict[str, float] = {}
        self.counter: Optional[ledger.EventCounter] = None
        self.speed: Optional[ledger.HostSpeed] = None

    # ------------------------------------------------------------ pieces

    def absorb(self, book: ledger.Ledger) -> None:
        self.attempted += book.attempted
        self.failures += book.failures

    def cold_pass(self, book: ledger.Ledger, store_dir: Path, profile=None):
        """Evaluate the workload's grid into an empty store and render
        its rows; returns (rows text, host seconds, cache)."""
        shutil.rmtree(store_dir, ignore_errors=True)
        executor = ledger.LedgerExecutor(
            GridExecutor(jobs=1, store=ResultStore(store_dir)), book,
            counter=self.counter, speed=self.speed)
        cache = ExperimentCache(config=MachineConfig(seed=self.seed),
                                executor=executor)
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            text = ledger.figure_text(cache)
        finally:
            if profile is not None:
                profile.disable()
        return text, time.perf_counter() - start, cache

    def adjust(self, seconds: float) -> float:
        """``seconds`` just measured, in reference seconds when untraced."""
        return self.speed.adjust(seconds) if self.speed else seconds

    def check_rows(self, rows_sha: str, expected=None) -> None:
        """Count one figure request; fail it when its rows' digest
        differs from ``expected``, by default the reference rows
        recorded for this seed (if any)."""
        self.attempted += 1
        if expected is None:
            expected = self.ref_rows
        if expected is not None and rows_sha != expected:
            self.failures.append(f"{self.workload}: rendered rows differ "
                                 f"from {expected[:12]}")

    def setup_probe(self) -> float:
        """Median fresh-interpreter start-to-ready time (import,
        fingerprint, cache construction) over SETUP_REPEATS probes."""
        store = self.run_dir / "probe-store"
        walls, imports, fingerprints = [], [], []
        for _ in range(SETUP_REPEATS):
            seconds, out = child(["--probe"], store, self.seed)
            walls.append(self.adjust(seconds))
            imports.append(out["import_ms"])
            fingerprints.append(out["fingerprint_ms"])
        self.samples["setup_probe"] = len(walls)
        self.spans["python.import_ms"] = ledger.median(imports)
        self.spans["runtime.fingerprint_ms"] = ledger.median(fingerprints)
        return ledger.median(walls)

    def probe_spans(self, book: ledger.Ledger, store_dir: Path,
                    cache) -> None:
        """Per-cell runtime spans and the render/build spans, each taken
        around one public call on this run's own cells."""
        store = ResultStore(store_dir)
        scratch = ResultStore(self.run_dir / "span-store")
        load, decode, write, size = [], [], [], []
        for spec, digest, _result in book.cells.values():
            start = time.perf_counter()
            envelope = store.load(digest)
            loaded = time.perf_counter()
            decode_payload(envelope["payload"])
            decoded = time.perf_counter()
            scratch.store(digest, make_envelope(spec, envelope["payload"]))
            written = time.perf_counter()
            load.append(loaded - start)
            decode.append(decoded - loaded)
            write.append(written - decoded)
            size.append(scratch.path_for(digest).stat().st_size)
        med = ledger.median
        self.spans["runtime.store_load_ms"] = med(load) * 1e3
        self.spans["runtime.decode_ms"] = med(decode) * 1e3
        self.spans["runtime.store_write_ms"] = med(write) * 1e3
        self.spans["runtime.envelope_bytes"] = med(size)

        render = []
        for _ in range(SPAN_REPEATS):
            start = time.perf_counter()
            ledger.figure_text(cache)
            render.append(time.perf_counter() - start)
        self.spans["experiments.render_ms"] = med(render) * 1e3

        configs = {spec.config for spec, _d, _r in book.cells.values()
                   if spec.kind == "svm"}
        build = []
        for _ in range(SPAN_REPEATS):
            start = time.perf_counter()
            for config in configs:
                SVMBackend(config, GENIMA)
            build.append((time.perf_counter() - start) / len(configs))
        self.spans["hw.build_ms"] = med(build) * 1e3

    def note_requests(self, n: int) -> None:
        """Record the latency sample count and how many samples lie
        beyond the reported p90."""
        self.samples.update(requests=n,
                            beyond_p90=ledger.samples_beyond(n, 90))

    def profile_layers(self, stats: dict, units: int) -> None:
        """Per-layer self seconds (per unit of work) and shares."""
        split = ledger.layer_split(stats)
        total = sum(split.values())
        self.layers = {k: v / units for k, v in sorted(split.items())}
        for layer in ledger.LAYERS:
            self.spans[f"{layer}.self_s"] = split.get(layer, 0.0) / units
            self.spans[f"{layer}.share"] = (split.get(layer, 0.0) / total
                                            if total else 0.0)

    def per_layer(self, book: ledger.Ledger, events: int):
        return {**self.spans, **book.simulated_counts(events)}

    # --------------------------------------------------------- workloads

    def run(self):
        """Run the workload; returns ``{metric: value}``."""
        if not self.trace:
            self.speed = ledger.HostSpeed()
        with ledger.EventCounter() as counter:
            self.counter = counter
            if self.workload == "paper-warm":
                return self.run_warm()
            return self.run_cold()

    def run_cold(self):
        setup_s = self.setup_probe()
        book = ledger.Ledger(self.ref_cells)
        store_dir = self.run_dir / "store"
        walls, events = [], []
        passes = 1 if self.trace else MIN_PASSES
        seconds = 0 if self.trace else self.seconds
        began = time.perf_counter()
        while (len(walls) < passes
               or time.perf_counter() - began < seconds):
            before = self.counter.events
            # Peak RSS should be one pass's, not two: drop the previous
            # pass's results before the next one starts.
            cache = None
            book.cells.clear()
            gc.collect()
            if self.speed:
                self.speed.restart()
            text, wall, cache = self.cold_pass(book, store_dir)
            self.check_rows(ledger.sha256(text))
            walls.append(wall)
            events.append(self.counter.events - before)
            if events[-1] != events[0]:
                book.fail(f"pass {len(walls)} dispatched {events[-1]} "
                          f"kernel events, pass 1 {events[0]}")
        self.absorb(book)
        self.timeline = book.timeline
        self.samples.update(passes=len(walls), cells=len(book.cells))
        if not self.trace:
            best = book.best_seconds()
            wall = sum(best)
            ms = [s * 1e3 for s in best]
            self.note_requests(len(ms))
            return {
                "setup_s": setup_s,
                "wall_s": wall,
                "kevents_per_s": events[0] / wall / 1e3,
                "req_p50_ms": ledger.percentile(ms, 50),
                "req_p90_ms": ledger.percentile(ms, 90),
                "peak_rss_mb": ledger.peak_rss_mb(children=False),
            }

        self.probe_spans(book, store_dir, cache)
        profile = cProfile.Profile()
        traced_book = ledger.Ledger(self.ref_cells)
        traced_text, traced_s, _ = self.cold_pass(
            traced_book, self.run_dir / "traced-store", profile=profile)
        self.check_rows(ledger.sha256(traced_text))
        self.absorb(traced_book)
        self.profile_layers(pstats.Stats(profile).stats, units=1)
        self.spans["trace.overhead"] = traced_s / walls[0]
        self.spans["runtime.hit_ratio"] = book.hits / len(book.timeline)
        self.spans["sim.ns_per_event"] = walls[0] / events[0] * 1e9
        return self.per_layer(book, events[0])

    def run_warm(self):
        probe_s = self.setup_probe()
        book = ledger.Ledger(self.ref_cells)
        store_dir = self.run_dir / "store"
        before = self.counter.events
        cold_text, fill_s, cache = self.cold_pass(book, store_dir)
        if self.speed:
            fill_s = sum(seconds for _label, seconds, _e in book.timeline)
        fill_events = self.counter.events - before
        self.absorb(book)
        self.timeline = book.timeline
        expected = ledger.sha256(cold_text)
        self.check_rows(expected)

        def request(args=()):
            try:
                seconds, out = child(list(args), store_dir, self.seed)
            except (ChildError, subprocess.TimeoutExpired,
                    ValueError) as exc:
                self.attempted += 1
                self.failures.append(f"request: {exc}")
                return None, None
            self.check_rows(out["rows_sha"], expected)
            if out["hits"] != out["cells"] or out["failures"]:
                self.failures.append(
                    f"request: {out['cells'] - out['hits']} store misses, "
                    f"failures {out['failures']}")
            return seconds, out

        if not self.trace:
            latencies = []
            self.speed.restart()
            began = time.perf_counter()
            while time.perf_counter() - began < self.seconds:
                seconds, _out = request()
                if seconds is not None:
                    latencies.append(self.adjust(seconds))
                else:
                    self.speed.restart()
            if not latencies:
                raise ChildError("no warm request completed")
            mean = sum(latencies) / len(latencies)
            ms = [s * 1e3 for s in latencies]
            self.note_requests(len(ms))
            return {
                "setup_s": probe_s + fill_s,
                "wall_s": mean,
                "kevents_per_s": fill_events / mean / 1e3,
                "req_p50_ms": ledger.percentile(ms, 50),
                "req_p90_ms": ledger.percentile(ms, 90),
                "peak_rss_mb": ledger.peak_rss_mb(children=True),
            }

        untraced, traced, profiles = [], [], []
        hits = cells = 0
        for i in range(TRACED_REQUESTS):
            seconds, _out = request()
            if seconds is not None:
                untraced.append(seconds)
            path = self.run_dir / f"request-{i}.prof"
            seconds, out = request(["--profile", str(path)])
            if seconds is not None:
                traced.append(seconds)
                profiles.append(str(path))
                hits += out["hits"]
                cells += out["cells"]
        if not profiles or not untraced:
            raise ChildError("no warm request completed")
        self.samples.update(requests=len(untraced),
                            traced_requests=len(traced))
        self.probe_spans(book, store_dir, cache)
        self.profile_layers(pstats.Stats(*profiles).stats,
                            units=len(profiles))
        self.spans["trace.overhead"] = (ledger.median(traced)
                                        / ledger.median(untraced))
        self.spans["runtime.hit_ratio"] = hits / cells
        self.spans["sim.ns_per_event"] = fill_s / fill_events * 1e9
        return self.per_layer(book, fill_events)


def record_reference(seed: int, run_dir: Path) -> None:
    """Recompute the paper grid at ``seed`` and store its digests."""
    book = ledger.Ledger()
    text, _s, _cache = Bench("paper-cold", seed, 0, False,
                             run_dir).cold_pass(book, run_dir / "store")
    if book.failures:
        raise SystemExit(f"refusing to record: {book.failures}")
    data = load_reference()
    data.setdefault("seeds", {})[str(seed)] = {
        "cells": {label: ledger.result_digest(result)
                  for label, (_s, _d, result) in sorted(book.cells.items())},
        "rows": ledger.sha256(text)}
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
