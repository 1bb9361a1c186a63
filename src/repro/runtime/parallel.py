"""Parallel grid execution over a persistent content-addressed run cache.

The paper's evaluation is a grid — applications x the ``Base -> DW ->
DW+RF -> DW+RF+DD -> GeNIMA`` ladder (x node counts x fault configs) —
and every cell is an independent, deterministic simulation.  This
module moves the repeated work off the critical path twice over:

* :class:`GridExecutor` fans cells out across a process pool (spawn
  context, so workers share nothing with the parent but the pickled
  :class:`CellSpec`), and
* :class:`ResultStore` persists every evaluated cell under a
  content-addressed key, so a cell whose inputs have not changed is
  never recomputed — not in this process, not in the next one, and
  not twice by processes racing on one empty store (single flight,
  see :class:`ResultStore`).

**Keying.**  A cell's digest is the SHA-256 of the canonical JSON of
its full description: kind, application name, canonicalized
constructor params (dicts sorted, tuples/lists normalized),
:class:`~repro.svm.features.ProtocolFeatures`,
:class:`~repro.hw.config.MachineConfig` (which embeds the
:class:`~repro.hw.config.FaultConfig`, seeds included), plus a *code
fingerprint* — the package version hashed together with every source
file the simulation's outcome can depend on.  Editing the simulator
invalidates the whole store automatically; editing only docs or the
experiment renderers does not.

**Determinism.**  The simulator guarantees byte-identical results per
cell; the executor adds two rules so the *grid* inherits that
guarantee: results are merged by digest, never by completion order,
and every evaluation path (in-process, worker pool, cache hit) yields
the result through the same JSON encode/decode round trip, so
``--jobs 1``, ``--jobs N`` and warm-cache reruns are bit-identical.

Store layout (see docs/performance.md)::

    <root>/v<schema>/<digest[:2]>/<digest>.json

with ``<root>`` from the constructor, ``$REPRO_CACHE_DIR``, or
``~/.cache/repro``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import threading
import time
from contextlib import closing
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..hw import MachineConfig
from ..svm import ProtocolFeatures
from .results import RunResult

__all__ = [
    "STORE_SCHEMA",
    "canonical",
    "canonical_json",
    "code_fingerprint",
    "CellSpec",
    "evaluate_cell",
    "encode_result",
    "decode_result",
    "decode_payload",
    "make_envelope",
    "ResultStore",
    "GridPlan",
    "GridExecutor",
    "WorkerDied",
]

#: store schema version: bump on any breaking change to the payload
#: encoding (participates in every digest, so old entries become
#: unreachable rather than misread).
STORE_SCHEMA = 1

#: package subdirectories whose sources determine simulation outcomes;
#: all of them feed the code fingerprint.  ``experiments``/``cli`` are
#: deliberately absent as *directories*: renderers and drivers consume
#: results, they do not produce them.
FINGERPRINT_DIRS = ("sim", "hw", "svm", "vmmc", "faults", "apps",
                    "runtime", "hwdsm", "obs", "analysis")

#: individual modules outside FINGERPRINT_DIRS that evaluate_cell can
#: still execute (lazy imports): they shape cached payloads, so they
#: must invalidate the cache too.  The FPR whole-program lint pass
#: verifies this list covers everything reachable from this module.
FINGERPRINT_MODULES = ("__init__.py", "experiments/cache.py",
                       "experiments/critpath.py",
                       "experiments/profile.py",
                       "experiments/reporting.py")


# --------------------------------------------------------------- canonical


def canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a canonical JSON-serializable structure.

    Dataclasses become tagged dicts, dict keys are stringified and
    sorted, tuples/lists become lists, sets become sorted lists —
    so two values that compare equal canonicalize identically,
    regardless of dict insertion order or tuple-vs-list spelling.
    This is the one true keying path: every cache key in the project
    must go through here (plain ``tuple(sorted(params.items()))``
    keying breaks on dict/list-valued params).
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                **{f.name: canonical(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)}}
    if isinstance(obj, dict):
        items = sorted(((str(k), canonical(v)) for k, v in obj.items()),
                       key=lambda kv: kv[0])
        return dict(items)
    if isinstance(obj, (list, tuple)):
        return [canonical(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical(x) for x in obj),
                      key=lambda x: json.dumps(x, sort_keys=True))
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} value {obj!r} "
        f"for cache keying")


def canonical_json(obj: Any) -> str:
    """Canonical JSON text for ``obj`` (stable across processes)."""
    return json.dumps(canonical(obj), sort_keys=True,
                      separators=(",", ":"))


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of the package version plus every outcome-relevant source.

    Cached per process: the sources cannot change under a running
    simulation, and hashing ~80 files on every digest would dominate
    cache lookups.
    """
    import repro
    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    digest.update(repro.__version__.encode())
    paths = [path
             for sub in FINGERPRINT_DIRS
             for path in sorted((root / sub).rglob("*.py"))]
    paths.extend(root / mod for mod in FINGERPRINT_MODULES)
    for path in sorted(paths):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------- cells


@dataclass(frozen=True)
class CellSpec:
    """One grid cell: everything needed to (re)produce one result.

    ``kind`` selects the evaluation recipe:

    * ``"svm"``      — :func:`repro.runtime.run_svm` under ``features``
    * ``"seq"``      — the uniprocessor baseline
    * ``"origin"``   — the hardware-DSM yardstick (``nprocs``)
    * ``"profile"``  — a profiled run (``slice_us``), yields a
      :class:`~repro.obs.Profile`
    * ``"critpath"`` — a spanned run, yields a
      :class:`~repro.experiments.CritpathRun` (without its tracer:
      Perfetto export needs a live run)

    Instances must stay picklable (spawn workers receive them) and
    fully canonicalizable (digests are derived from them).
    """

    kind: str
    app: str
    params: Dict[str, Any] = field(default_factory=dict)
    features: Optional[ProtocolFeatures] = None
    config: Optional[MachineConfig] = None
    nprocs: Optional[int] = None      # origin cells
    slice_us: Optional[float] = None  # profile cells
    check: bool = False               # profile/critpath cells
    #: svm cells: attach a TimeSeriesSampler at this cadence and store
    #: its summary in the result (None == unsampled, the default).
    telemetry_us: Optional[float] = None

    def digest(self, fingerprint: Optional[str] = None) -> str:
        """Content address of this cell under the current sources."""
        payload = {
            "schema": STORE_SCHEMA,
            "fingerprint": fingerprint or code_fingerprint(),
            "cell": canonical(self),
        }
        return hashlib.sha256(
            canonical_json(payload).encode()).hexdigest()


def _make_app(spec: CellSpec):
    from ..apps import APP_REGISTRY
    cls = APP_REGISTRY[spec.app]
    return cls(**spec.params) if spec.params else cls()


def evaluate_cell(spec: CellSpec) -> dict:
    """Evaluate one cell and return its JSON-safe store payload.

    Runs in worker processes (spawn) as well as in-process; everything
    it returns must survive ``json.dumps``/``loads`` losslessly, and it
    must not touch the persistent store (the parent is the only
    writer).
    """
    # Imported lazily: this module is part of repro.runtime, and the
    # app/experiment layers import the runtime at module load.
    from .runner import run_hwdsm, run_sequential, run_svm
    app = _make_app(spec)
    if spec.kind == "svm":
        telemetry = None
        if spec.telemetry_us is not None:
            from ..obs import TimeSeriesSampler
            telemetry = TimeSeriesSampler(cadence_us=spec.telemetry_us)
        result = run_svm(app, spec.features, config=spec.config,
                         telemetry=telemetry)
        return {"kind": "svm", "result": encode_result(result)}
    if spec.kind == "seq":
        result = run_sequential(app, config=spec.config)
        return {"kind": "seq", "result": encode_result(result)}
    if spec.kind == "origin":
        from ..hwdsm import HWDSMConfig
        result = run_hwdsm(app, config=HWDSMConfig(nprocs=spec.nprocs))
        return {"kind": "origin", "result": encode_result(result)}
    if spec.kind == "profile":
        from ..experiments.profile import collect_profile
        profile = collect_profile(app, spec.features, config=spec.config,
                                  slice_us=spec.slice_us, check=spec.check)
        return {"kind": "profile", "profile": profile.to_dict()}
    if spec.kind == "critpath":
        from ..experiments.critpath import collect_critpath
        run = collect_critpath(app, spec.features, config=spec.config,
                               check=spec.check)
        return {"kind": "critpath", "variant": run.variant,
                "path": run.path.to_dict(),
                "result": encode_result(run.result)}
    raise ValueError(f"unknown cell kind {spec.kind!r}")


# ----------------------------------------------------------- (de)coding


def encode_result(result: RunResult) -> dict:
    """JSON-safe encoding of a :class:`RunResult` (lossless: floats
    round-trip exactly through JSON's shortest-repr encoding)."""
    return {
        "app": result.app,
        "system": result.system,
        "nprocs": result.nprocs,
        "time_us": result.time_us,
        "wall_us": list(result.wall_us),
        "buckets": [b.as_dict() for b in result.buckets],
        "barrier_protocol_us": list(result.barrier_protocol_us),
        "mprotect_us": result.mprotect_us,
        "stats": dict(result.stats),
        "monitor_small": result.monitor_small,
        "monitor_large": result.monitor_large,
        "telemetry": result.telemetry,
    }


def decode_result(data: dict) -> RunResult:
    """Inverse of :func:`encode_result`."""
    from ..sim import TimeBuckets
    return RunResult(
        app=data["app"],
        system=data["system"],
        nprocs=data["nprocs"],
        time_us=data["time_us"],
        wall_us=list(data["wall_us"]),
        buckets=[TimeBuckets.from_dict(b) for b in data["buckets"]],
        barrier_protocol_us=list(data["barrier_protocol_us"]),
        mprotect_us=data["mprotect_us"],
        stats=dict(data["stats"]),
        monitor_small=data["monitor_small"],
        monitor_large=data["monitor_large"],
        telemetry=data.get("telemetry"),
    )


def decode_payload(payload: dict):
    """Store payload -> live object (RunResult / Profile / CritpathRun).

    Raises ``KeyError``/``TypeError``/``ValueError`` on malformed
    payloads; :meth:`GridExecutor.map` treats any of those as a cache
    miss and recomputes.
    """
    kind = payload["kind"]
    if kind in ("svm", "seq", "origin"):
        return decode_result(payload["result"])
    if kind == "profile":
        from ..obs import Profile
        return Profile.from_payload(payload["profile"])
    if kind == "critpath":
        from ..analysis.critpath import CriticalPath
        from ..experiments.critpath import CritpathRun
        return CritpathRun(variant=payload["variant"],
                           result=decode_result(payload["result"]),
                           path=CriticalPath.from_dict(payload["path"]),
                           tracer=None)
    raise ValueError(f"unknown payload kind {kind!r}")


def make_envelope(spec: CellSpec, payload: dict,
                  fingerprint: Optional[str] = None) -> dict:
    """The store envelope for one evaluated cell.

    One shape for every writer — the in-process executor and pool
    workers' parents both persist exactly this, so any process can
    read any other's entries.
    """
    return {
        "schema": STORE_SCHEMA,
        "fingerprint": fingerprint or code_fingerprint(),
        "cell": canonical(spec),
        "payload": payload,
    }


# ------------------------------------------------------------------ store


@lru_cache(maxsize=1)
def _host() -> str:
    """This host's name, recorded in every claim this process takes
    (imported lazily: a warm, all-hits grid never claims)."""
    import socket
    return socket.gethostname()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists, but owned by another user
    return True


class ResultStore:
    """Persistent content-addressed store of evaluated cells.

    One JSON file per cell under ``<root>/v<schema>/``; writes are
    atomic (temp file + ``os.replace``), reads tolerate arbitrary
    corruption by reporting a miss.  The root resolves, in order:
    explicit ``root`` argument, ``$REPRO_CACHE_DIR``, then
    ``~/.cache/repro``.

    **Single flight.**  Processes sharing one store coordinate through
    it alone, with no daemon: a per-digest lockfile claim, taken
    without blocking (``O_EXCL`` semantics via a hard link, so the
    file appears already holding ``"<pid> <host>"``).
    :meth:`GridExecutor.collect` holds the claim across evaluate +
    write, so a second process that finds the claim held waits for the
    holder's envelope instead of recomputing.  A claim is *orphaned*,
    and may be broken, when its holder is a dead pid on this host or
    when it is older than ``lock_stale_s``.  A lockfile without a
    readable holder record cannot be waited on: the executor computes
    such a cell itself and leaves the entry to the claim's owner.

    :meth:`store` alone takes the claim just around the write; when
    the claim is held it skips the write (content addressing over a
    deterministic simulator makes the holder's bytes identical to
    ours).
    """

    #: a claim older than this is an orphan and may be broken.
    lock_stale_s: float = 300.0

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or (
                Path.home() / ".cache" / "repro")
        self.root = Path(root)

    @property
    def version_dir(self) -> Path:
        return self.root / f"v{STORE_SCHEMA}"

    def path_for(self, digest: str) -> Path:
        return self.version_dir / digest[:2] / f"{digest}.json"

    def load(self, digest: str) -> Optional[dict]:
        """The stored payload envelope for ``digest``, or None.

        Any way an entry can be bad — unreadable, truncated, not JSON,
        wrong schema, not written by this store — reads as a miss,
        never an exception: a corrupted cache must only ever cost a
        recompute.
        """
        try:
            text = self.path_for(digest).read_text()
        except OSError:
            return None
        try:
            envelope = json.loads(text)
        except ValueError:
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("schema") != STORE_SCHEMA
                or not isinstance(envelope.get("payload"), dict)):
            return None
        return envelope

    def lock_path(self, digest: str) -> Path:
        return self.version_dir / digest[:2] / f"{digest}.lock"

    def holder(self, digest: str) -> Optional[Tuple[int, str]]:
        """``(pid, host)`` of the process holding ``digest``'s claim, or
        None when there is no claim or its record is unreadable."""
        try:
            fields = self.lock_path(digest).read_text().split()
        except OSError:
            return None
        if len(fields) != 2 or not fields[0].isdigit():
            return None
        return int(fields[0]), fields[1]

    def _orphaned(self, digest: str) -> bool:
        """Whether an existing claim may be broken (see class doc); a
        claim released meanwhile counts, so the caller just retries."""
        try:
            mtime = os.stat(self.lock_path(digest)).st_mtime
        except OSError:
            return True
        age = time.time() - mtime  # repro: noqa[wall-clock] — lockfile staleness is wall-clock by nature
        if age >= self.lock_stale_s:
            return True
        holder = self.holder(digest)
        return (holder is not None and holder[1] == _host()
                and holder[0] > 0 and not _pid_alive(holder[0]))

    def claim(self, digest: str) -> bool:
        """Take ``digest``'s claim without blocking; False when another
        live holder owns it.  An orphaned claim is broken once and the
        claim re-tried.  Pair every True with :meth:`release`."""
        lock = self.lock_path(digest)
        lock.parent.mkdir(parents=True, exist_ok=True)
        record = lock.with_name(
            f"{lock.name}.{os.getpid()}.{threading.get_ident()}")
        record.write_text(f"{os.getpid()} {_host()}\n")
        try:
            for attempt in (0, 1):
                try:
                    os.link(record, lock)
                    return True
                except FileExistsError:
                    if attempt or not self._orphaned(digest):
                        return False
                    try:
                        os.unlink(lock)  # break the orphaned claim
                    except OSError:
                        pass
            return False
        finally:
            os.unlink(record)

    def release(self, digest: str) -> None:
        try:
            os.unlink(self.lock_path(digest))
        except OSError:
            pass

    def _write(self, digest: str, envelope: dict) -> None:
        """Atomically persist ``envelope``; the caller holds the claim."""
        path = self.path_for(digest)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(envelope, sort_keys=True) + "\n")
        os.replace(tmp, path)

    def store(self, digest: str, envelope: dict) -> bool:
        """Atomically persist ``envelope`` under ``digest``.

        Returns True when this call wrote the entry, False when a
        concurrent writer held the per-digest claim (in which case the
        entry is theirs to finish — deterministic content addressing
        makes their bytes identical to ours, so skipping is safe and
        cheaper than queueing).
        """
        if not self.claim(digest):
            return False
        try:
            self._write(digest, envelope)
            return True
        finally:
            self.release(digest)

    def entries(self) -> Iterator[Tuple[str, dict]]:
        """Iterate ``(digest, envelope)`` over all readable entries,
        in sorted digest order (for ``wipe``-safe inspection)."""
        if not self.version_dir.is_dir():
            return
        for path in sorted(self.version_dir.glob("*/*.json")):
            envelope = self.load(path.stem)
            if envelope is not None:
                yield path.stem, envelope

    def __len__(self) -> int:
        if not self.version_dir.is_dir():
            return 0
        return sum(1 for _ in self.version_dir.glob("*/*.json"))

    def wipe(self) -> None:
        """Delete every entry of this schema version."""
        shutil.rmtree(self.version_dir, ignore_errors=True)


# --------------------------------------------------------------- executor


#: seconds between store reads while another process holds a claim.
_POLL_S = 0.05


class WorkerDied(RuntimeError):
    """A pool worker process died (killed, out of memory, crashed
    interpreter) while grid cells were in flight.  ``cells`` lists the
    specs whose results were lost; their claims have been released, so
    a later run on the same store recomputes exactly those."""

    def __init__(self, cells: List[CellSpec]):
        self.cells = list(cells)
        names = ", ".join(
            f"{spec.kind}:{spec.app}"
            + (f"/{spec.features.name}" if spec.features else "")
            for spec in self.cells)
        super().__init__(f"a grid worker process died; {len(self.cells)} "
                         f"cell(s) lost: {names}")


@dataclass
class GridPlan:
    """The submit half of a grid evaluation: deduplicated digests with
    warm hits already decoded and the misses still to compute.

    Produced by :meth:`GridExecutor.submit`; consumed (exactly once)
    by :meth:`GridExecutor.collect`.  Splitting the two lets a caller
    time or schedule the lookup and the evaluation separately.
    """

    fingerprint: str
    #: unique digests in first-seen submission order.
    order: List[str]
    #: digest -> the (first) spec that produced it.
    specs: Dict[str, CellSpec]
    #: digest -> decoded live object, for cells the store already had.
    hits: Dict[str, object]
    #: digests still to evaluate, in submission order.
    misses: List[str]


class GridExecutor:
    """Evaluate grid cells concurrently, through the store when given.

    ``map`` is the main API: specs in, ``{digest: live object}`` out.
    It is the composition of two halves — :meth:`submit` (dedup by
    digest + store lookup, no evaluation) and :meth:`collect`
    (evaluate the misses, persist, decode).  All of it is
    order-independent: the result dict is keyed by content digest, and
    every value passes through the same JSON round trip regardless of
    where it was computed.

    ``jobs`` is clamped to the host's CPU count unless ``jobs_force``
    is set: on an oversubscribed box the extra spawn workers only add
    scheduling overhead (BENCH_grid's ``cold_jobs4`` on a 1-CPU host
    regressed to 0.83x), so asking for more workers than cores is
    almost always a mistake.  ``requested_jobs`` keeps the caller's
    original ask so benchmarks can report oversubscription honestly.
    """

    def __init__(self, jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 jobs_force: bool = False):
        self.requested_jobs = max(1, int(jobs))
        cap = os.cpu_count() or 1
        self.jobs = (self.requested_jobs if jobs_force
                     else min(self.requested_jobs, cap))
        self.store = store

    def map(self, specs: Iterable[CellSpec]) -> Dict[str, object]:
        return self.collect(self.submit(specs))

    def submit(self, specs: Iterable[CellSpec]) -> GridPlan:
        """Dedup ``specs`` by digest and resolve warm store hits.

        Evaluates nothing; a corrupted store entry reads as a miss
        (and will be healed by :meth:`collect`).
        """
        fingerprint = code_fingerprint()
        order: List[str] = []
        by_digest: Dict[str, CellSpec] = {}
        for spec in specs:
            digest = spec.digest(fingerprint)
            if digest not in by_digest:
                by_digest[digest] = spec
                order.append(digest)

        hits: Dict[str, object] = {}
        misses: List[str] = []
        for digest in order:
            if not self._reuse(digest, hits):
                misses.append(digest)
        return GridPlan(fingerprint=fingerprint, order=order,
                        specs=by_digest, hits=hits, misses=misses)

    def collect(self, plan: GridPlan) -> Dict[str, object]:
        """Evaluate ``plan``'s misses, persist them, return the full
        ``{digest: live object}`` map (hits included).

        With a store, each miss is claimed before it is evaluated and
        the claim is held until its envelope is written.  A miss whose
        claim another live process holds is deferred; once the
        claimable misses are done, the deferred ones are polled until
        the holder's envelope appears or the claim can be taken over
        (holder released it without writing, or it is orphaned).
        Claims are never held while waiting, so processes cannot
        deadlock on each other.
        """
        out = dict(plan.hits)
        pending = plan.misses
        while pending:
            pending = self._compute(plan, pending, out)
            if pending:
                time.sleep(_POLL_S)
        return out

    def _reuse(self, digest: str, out: Dict[str, object]) -> bool:
        """Decode ``digest``'s stored envelope into ``out``; False on a
        miss or a corrupted entry."""
        envelope = (self.store.load(digest)
                    if self.store is not None else None)
        if envelope is None:
            return False
        try:
            out[digest] = decode_payload(envelope["payload"])
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def _compute(self, plan: GridPlan, digests: List[str],
                 out: Dict[str, object]) -> List[str]:
        """One pass over ``digests``: evaluate every cell this process
        may compute into ``out`` and return the ones another live
        process holds.  Serially each cell is claimed just before it
        is evaluated, so concurrent processes split the grid; a pool
        claims its whole batch up front."""
        store = self.store
        held: List[str] = []
        step = len(digests) if self.jobs > 1 else 1
        for start in range(0, len(digests), step):
            claimed: List[str] = []
            todo: List[str] = []
            try:
                for digest in digests[start:start + step]:
                    if store is None:
                        todo.append(digest)
                    elif store.claim(digest):
                        if self._reuse(digest, out):
                            store.release(digest)  # finished meanwhile
                        else:
                            claimed.append(digest)
                            todo.append(digest)
                    else:
                        # Holder first: one that writes and releases
                        # between these two reads is still seen below.
                        holder = store.holder(digest)
                        if self._reuse(digest, out):
                            pass
                        elif holder is None:
                            todo.append(digest)  # nobody to wait for
                        else:
                            held.append(digest)
                with closing(self._evaluate(
                        [plan.specs[d] for d in todo])) as payloads:
                    for digest, payload in zip(todo, payloads):
                        if store is not None:
                            envelope = make_envelope(
                                plan.specs[digest], payload,
                                plan.fingerprint)
                            if digest in claimed:
                                store._write(digest, envelope)
                            else:
                                store.store(digest, envelope)
                        out[digest] = decode_payload(payload)
            finally:
                for digest in claimed:
                    store.release(digest)
        return held

    def _evaluate(self, specs: List[CellSpec]) -> Iterator[dict]:
        """Payloads for ``specs``, yielded in input order as each is
        ready, so the caller persists finished cells even if a later
        one fails.  Raises :class:`WorkerDied` (naming the cells not
        yet yielded) if a pool worker process dies."""
        if self.jobs <= 1 or len(specs) <= 1:
            for spec in specs:
                yield evaluate_cell(spec)
            return
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(specs)),
            mp_context=multiprocessing.get_context("spawn"))
        try:
            futures = [pool.submit(evaluate_cell, spec) for spec in specs]
            for index, future in enumerate(futures):
                try:
                    payload = future.result()
                except BrokenProcessPool as exc:
                    raise WorkerDied(specs[index:]) from exc
                yield payload
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
