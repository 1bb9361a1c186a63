"""Tests for the parallel grid executor and the persistent run store.

Covers the determinism contract (jobs=1 == jobs=N == cache hit),
content-addressed keying (including the dict/list-valued-params
regression the old ``tuple(sorted(params.items()))`` keying broke on),
fingerprint invalidation, corrupted-entry recovery, single flight
across real processes sharing one store, and pool worker death.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import ExperimentCache
from repro.hw import FaultConfig, MachineConfig
from repro.runtime import parallel
from repro.runtime.parallel import (CellSpec, GridExecutor, ResultStore,
                                    STORE_SCHEMA, WorkerDied, canonical,
                                    canonical_json, decode_payload,
                                    decode_result, encode_result,
                                    evaluate_cell)
from repro.svm import BASE, GENIMA, PROTOCOL_LADDER

APP = "Water-spatial"


def svm_spec(features=GENIMA, **params) -> CellSpec:
    return CellSpec(kind="svm", app=APP, params=params, features=features,
                    config=MachineConfig())


# --------------------------------------------------------------- canonical

def test_canonical_sorts_dict_keys():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2,
                                                               "b": 1})


def test_canonical_normalizes_sequences_and_sets():
    assert canonical((1, 2, 3)) == canonical([1, 2, 3])
    assert canonical({3, 1, 2}) == [1, 2, 3]


def test_canonical_tags_dataclasses():
    out = canonical(FaultConfig(loss=0.01))
    assert out["__dataclass__"] == "FaultConfig"
    assert out["loss"] == 0.01


def test_canonical_rejects_unserializable():
    with pytest.raises(TypeError):
        canonical(object())


# ------------------------------------------------------------------ digests

def test_digest_stable_across_param_dict_order():
    a = svm_spec(tiles={"x": 4, "y": 8}, order=[1, 2])
    b = svm_spec(order=[1, 2], tiles={"y": 8, "x": 4})
    assert a.digest("f" * 16) == b.digest("f" * 16)


def test_digest_dict_valued_params_regression():
    # The old cache keyed on tuple(sorted(params.items())), which
    # raises on dict-valued params; digests must just work.
    spec = svm_spec(weights={"b": 2.0, "a": 1.0})
    assert len(spec.digest("f" * 16)) == 64


def test_digest_distinguishes_inputs():
    fp = "f" * 16
    base = svm_spec()
    assert base.digest(fp) != svm_spec(features=BASE).digest(fp)
    assert base.digest(fp) != svm_spec(extra=1).digest(fp)
    assert base.digest(fp) != base.digest("0" * 16)
    faulty = CellSpec(kind="svm", app=APP, features=GENIMA,
                      config=MachineConfig(faults=FaultConfig(loss=0.01)))
    assert base.digest(fp) != faulty.digest(fp)


# ------------------------------------------------------------------- codecs

@pytest.fixture(scope="module")
def svm_payload():
    return evaluate_cell(svm_spec())


def test_result_roundtrips_through_json(svm_payload):
    wire = json.loads(json.dumps(svm_payload))
    result = decode_result(wire["result"])
    assert encode_result(result) == svm_payload["result"]
    assert result.app == APP
    assert result.time_us > 0
    assert len(result.buckets) == result.nprocs


def test_profile_payload_roundtrips():
    spec = CellSpec(kind="profile", app=APP, features=GENIMA,
                    config=MachineConfig(), slice_us=2000.0)
    payload = json.loads(json.dumps(evaluate_cell(spec)))
    profile = decode_payload(payload)
    assert profile.to_dict() == payload["profile"]
    assert profile.accounting_ok


def test_critpath_payload_roundtrips():
    spec = CellSpec(kind="critpath", app=APP, features=GENIMA,
                    config=MachineConfig())
    payload = json.loads(json.dumps(evaluate_cell(spec)))
    run = decode_payload(payload)
    assert run.tracer is None
    assert run.variant == "GeNIMA"
    assert run.path.to_dict() == payload["path"]


# -------------------------------------------------------------------- store

def test_store_roundtrip_and_len(tmp_path):
    store = ResultStore(tmp_path)
    envelope = {"schema": STORE_SCHEMA, "payload": {"kind": "x"}}
    store.store("ab" * 32, envelope)
    assert store.load("ab" * 32) == envelope
    assert len(store) == 1
    assert [d for d, _ in store.entries()] == ["ab" * 32]
    store.wipe()
    assert store.load("ab" * 32) is None
    assert len(store) == 0


def test_store_env_var_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert ResultStore().root == tmp_path / "env"
    assert ResultStore(tmp_path / "arg").root == tmp_path / "arg"


@pytest.mark.parametrize("text", [
    "", "not json", "[1,2]", '{"schema": 999, "payload": {}}',
    '{"schema": 1, "payload": "nope"}'])
def test_store_treats_corruption_as_miss(tmp_path, text):
    store = ResultStore(tmp_path)
    digest = "cd" * 32
    path = store.path_for(digest)
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert store.load(digest) is None


# ----------------------------------------------------------------- executor

def test_executor_persists_and_reloads(tmp_path, monkeypatch, svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    first = GridExecutor(jobs=1, store=store).map([spec])
    assert len(store) == 1
    # A second executor must serve the hit without evaluating anything.
    def boom(_spec):
        raise AssertionError("cache hit must not recompute")
    monkeypatch.setattr(parallel, "evaluate_cell", boom)
    reloaded = GridExecutor(jobs=1, store=store).map([spec])
    assert encode_result(reloaded[digest]) == encode_result(first[digest])
    assert encode_result(first[digest]) == svm_payload["result"]


def test_executor_fingerprint_invalidates(tmp_path, monkeypatch):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    GridExecutor(jobs=1, store=store).map([spec])
    assert len(store) == 1
    monkeypatch.setattr(parallel, "code_fingerprint", lambda: "0" * 16)
    GridExecutor(jobs=1, store=store).map([spec])
    assert len(store) == 2  # new digest, old entry untouched


def test_executor_recovers_from_corrupted_entry(tmp_path, svm_payload):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    GridExecutor(jobs=1, store=store).map([spec])
    store.path_for(digest).write_text('{"schema": 1, "payload": {}}')
    result = GridExecutor(jobs=1, store=store).map([spec])[digest]
    assert encode_result(result) == svm_payload["result"]
    # and the recomputed entry was re-persisted, healed
    assert store.load(digest)["payload"]["result"] == svm_payload["result"]


def test_executor_dedupes_equal_specs(tmp_path):
    store = ResultStore(tmp_path)
    out = GridExecutor(jobs=1, store=store).map([svm_spec(), svm_spec()])
    assert len(out) == 1
    assert len(store) == 1


def test_pool_matches_serial(svm_payload):
    """jobs=2 through a real spawn pool == jobs=1 in-process, bytewise."""
    specs = [svm_spec(), svm_spec(features=BASE)]
    serial = GridExecutor(jobs=1).map(specs)
    pooled = GridExecutor(jobs=2, jobs_force=True).map(specs)
    assert serial.keys() == pooled.keys()
    for digest in serial:
        assert (encode_result(serial[digest])
                == encode_result(pooled[digest]))
    assert encode_result(serial[specs[0].digest()]) == svm_payload["result"]


# ------------------------------------------------------------ jobs clamping

def test_jobs_clamped_to_cpu_count(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    ex = GridExecutor(jobs=8)
    assert ex.jobs == 2
    assert ex.requested_jobs == 8  # original ask kept for reporting


def test_jobs_force_overrides_clamp(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    ex = GridExecutor(jobs=8, jobs_force=True)
    assert ex.jobs == 8
    assert ex.requested_jobs == 8


def test_jobs_within_cpu_count_untouched(monkeypatch):
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)
    assert GridExecutor(jobs=2).jobs == 2
    assert GridExecutor(jobs=1).jobs == 1


# ----------------------------------------------------------- store locking

def test_store_skips_write_when_claim_held(tmp_path):
    """A fresh lockfile means a live concurrent writer owns the entry:
    store() must back off (content addressing makes their bytes ours)."""
    store = ResultStore(tmp_path)
    digest = "ef" * 32
    lock = store.lock_path(digest)
    lock.parent.mkdir(parents=True)
    lock.touch()  # another writer's live claim
    assert store.store(digest, {"schema": STORE_SCHEMA,
                                "payload": {}}) is False
    assert store.load(digest) is None  # nothing written by the loser
    assert lock.exists()  # and the owner's claim is intact


def test_store_breaks_stale_claim(tmp_path):
    """A claim older than lock_stale_s is an orphan (killed writer):
    the next store() breaks it and writes."""
    import os as _os
    store = ResultStore(tmp_path)
    digest = "ef" * 32
    lock = store.lock_path(digest)
    lock.parent.mkdir(parents=True)
    lock.touch()
    past = 10.0  # epoch-ish: way older than any staleness bound
    _os.utime(lock, (past, past))
    envelope = {"schema": STORE_SCHEMA, "payload": {"kind": "x"}}
    assert store.store(digest, envelope) is True
    assert store.load(digest) == envelope
    assert not lock.exists()  # claim released after the write


def test_store_write_releases_claim(tmp_path):
    store = ResultStore(tmp_path)
    digest = "ab" * 32
    assert store.store(digest, {"schema": STORE_SCHEMA,
                                "payload": {}}) is True
    assert not store.lock_path(digest).exists()
    # and the entry is immediately re-writable (no leaked claim)
    assert store.store(digest, {"schema": STORE_SCHEMA,
                                "payload": {"v": 2}}) is True


def test_executor_survives_blocked_store_write(tmp_path, svm_payload):
    """If another writer holds the claim, the executor still returns
    the computed result — persistence is best-effort, correctness
    comes from the in-memory path."""
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    lock = store.lock_path(digest)
    lock.parent.mkdir(parents=True)
    lock.touch()
    result = GridExecutor(jobs=1, store=store).map([spec])[digest]
    assert encode_result(result) == svm_payload["result"]
    assert store.load(digest) is None  # write was skipped, not corrupted


# ----------------------------------------------------------- submit/collect

def test_submit_collect_halves(tmp_path, svm_payload):
    store = ResultStore(tmp_path)
    warm_spec, cold_spec = svm_spec(), svm_spec(features=BASE)
    GridExecutor(jobs=1, store=store).map([warm_spec])

    ex = GridExecutor(jobs=1, store=store)
    plan = ex.submit([warm_spec, cold_spec, warm_spec])  # dup collapses
    assert len(plan.order) == 2
    assert set(plan.hits) == {warm_spec.digest()}
    assert plan.misses == [cold_spec.digest()]
    out = ex.collect(plan)
    assert set(out) == set(plan.order)
    assert encode_result(out[warm_spec.digest()]) == svm_payload["result"]
    assert len(store) == 2  # miss persisted by collect


def test_submit_treats_corrupt_entry_as_miss(tmp_path):
    store = ResultStore(tmp_path)
    spec = svm_spec()
    digest = spec.digest()
    GridExecutor(jobs=1, store=store).map([spec])
    store.path_for(digest).write_text('{"schema": 1, "payload": {}}')
    plan = GridExecutor(jobs=1, store=store).submit([spec])
    assert plan.misses == [digest]
    assert not plan.hits


# ----------------------------------------------------- ExperimentCache glue

def test_cache_warm_is_idempotent(tmp_path):
    cache = ExperimentCache(store=ResultStore(tmp_path))
    specs = [cache.spec_svm(APP, GENIMA), cache.spec_seq(APP)]
    cache.warm(specs)
    first = cache.cell(specs[0])
    cache.warm(specs)
    assert cache.cell(specs[0]) is first  # in-memory identity preserved


def test_cache_spec_params_allow_dicts():
    cache = ExperimentCache()
    a = cache.spec_svm(APP, GENIMA, grid={"ny": 2, "nx": 1})
    b = cache.spec_svm(APP, GENIMA, grid={"nx": 1, "ny": 2})
    assert a.digest() == b.digest()


def test_caches_share_store_across_instances(tmp_path):
    store = ResultStore(tmp_path)
    first = ExperimentCache(store=store).svm(APP, GENIMA)
    second = ExperimentCache(store=store).svm(APP, GENIMA)
    assert first is not second
    assert encode_result(first) == encode_result(second)


# ------------------------------------------------------ store single flight

def _run_bounded(fn, seconds):
    """Run ``fn`` on a daemon thread; fail (instead of hanging the
    suite) if it has not returned within ``seconds``."""
    box = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as exc:  # re-raised on the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still blocked after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def _fake_payload(base, spec):
    """A cheap, cell-specific stand-in for evaluate_cell's payload."""
    return {"kind": "svm",
            "result": {**base["result"], "stats": {"cell": spec.params}}}


def _encoded(results):
    return {digest: canonical_json(encode_result(value))
            for digest, value in results.items()}


def _exactly_once_client(root, specs, barrier, out_path):
    barrier.wait(30)
    results = GridExecutor(jobs=1, store=ResultStore(root)).map(specs)
    out_path.write_text(json.dumps(_encoded(results), sort_keys=True))


def test_single_flight_exactly_once_across_processes(tmp_path, monkeypatch,
                                                     svm_payload):
    """Four processes racing on one empty store evaluate every unique
    cell exactly once between them, and all decode identical bytes."""
    ctx = multiprocessing.get_context("fork")
    calls = ctx.Value("i", 0)

    def slow_evaluate(spec):
        time.sleep(0.2)
        with calls.get_lock():
            calls.value += 1
        return _fake_payload(svm_payload, spec)

    monkeypatch.setattr(parallel, "evaluate_cell", slow_evaluate)
    specs = [svm_spec(cell=i) for i in range(6)]
    specs += specs[:2]  # duplicates collapse to the same digests
    barrier = ctx.Barrier(4)
    procs = [ctx.Process(target=_exactly_once_client,
                         args=(tmp_path / "store", specs, barrier,
                               tmp_path / f"out{i}.json"))
             for i in range(4)]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(60)
    assert [proc.exitcode for proc in procs] == [0, 0, 0, 0]
    unique = {spec.digest() for spec in specs}
    assert calls.value == len(unique) == 6
    outs = [(tmp_path / f"out{i}.json").read_text() for i in range(4)]
    assert len(set(outs)) == 1
    assert set(json.loads(outs[0])) == unique
    store = ResultStore(tmp_path / "store")
    assert len(store) == 6
    assert not list(store.version_dir.glob("*/*.lock"))


def _raising_holder(root, spec, claimed, go, raised, leave):
    def fail(_spec):
        claimed.set()
        go.wait(30)
        raise RuntimeError("holder failed")

    parallel.evaluate_cell = fail  # this forked child only
    try:
        GridExecutor(jobs=1, store=ResultStore(root)).map([spec])
    except RuntimeError:
        raised.set()
    leave.wait(30)  # stay alive: only the release may free the claim


def test_waiter_computes_after_holder_raises(tmp_path, monkeypatch,
                                             svm_payload):
    """A holder that raises releases its claim; the process that was
    waiting on it takes the claim over and computes the cell itself."""
    ctx = multiprocessing.get_context("fork")
    claimed, go, raised, leave = (ctx.Event() for _ in range(4))
    spec = svm_spec(cell="raises")
    holder = ctx.Process(target=_raising_holder,
                         args=(tmp_path, spec, claimed, go, raised, leave))
    holder.start()
    try:
        assert claimed.wait(30)
        store = ResultStore(tmp_path)
        assert store.holder(spec.digest())[0] == holder.pid
        seen = []

        def evaluate(cell):
            seen.append(raised.is_set())
            return _fake_payload(svm_payload, cell)

        monkeypatch.setattr(parallel, "evaluate_cell", evaluate)
        threading.Timer(0.3, go.set).start()
        out = _run_bounded(
            lambda: GridExecutor(jobs=1, store=store).map([spec]), 20)
        assert seen == [True]  # waited for the holder, then computed once
        assert holder.is_alive()  # freed by release, not by pid death
        assert encode_result(out[spec.digest()])["stats"] == {
            "cell": {"cell": "raises"}}
        assert store.load(spec.digest()) is not None
        assert not store.lock_path(spec.digest()).exists()
    finally:
        go.set()
        leave.set()
        holder.join(30)
    assert holder.exitcode == 0


def _dead_pid():
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def test_dead_holder_claim_broken_promptly(tmp_path, monkeypatch,
                                           svm_payload):
    """A fresh claim left by a dead pid on this host is an orphan: the
    grid breaks it at once instead of waiting out lock_stale_s."""
    store = ResultStore(tmp_path)
    spec = svm_spec(cell="orphan")
    digest = spec.digest()
    lock = store.lock_path(digest)
    lock.parent.mkdir(parents=True)
    lock.write_text(f"{_dead_pid()} {parallel._host()}\n")
    calls = []

    def evaluate(cell):
        calls.append(cell)
        return _fake_payload(svm_payload, cell)

    monkeypatch.setattr(parallel, "evaluate_cell", evaluate)
    bound = store.lock_stale_s / 15  # 20 s: staleness could not break it
    _run_bounded(lambda: GridExecutor(jobs=1, store=store).map([spec]),
                 bound)
    assert len(calls) == 1
    assert store.load(digest) is not None
    assert not lock.exists()


def test_claim_from_another_host_not_broken_by_pid(tmp_path):
    """Pid liveness is only checked for claims taken on this host."""
    store = ResultStore(tmp_path)
    digest = "ef" * 32
    lock = store.lock_path(digest)
    lock.parent.mkdir(parents=True)
    lock.write_text(f"{_dead_pid()} {parallel._host()}-elsewhere\n")
    assert store.store(digest, {"schema": STORE_SCHEMA,
                                "payload": {}}) is False
    assert lock.exists()


# ------------------------------------------------------------ worker death

def test_killed_pool_worker_raises_typed_error(tmp_path):
    """SIGKILLing a spawn worker mid-grid yields WorkerDied naming the
    lost cells within a bound (not a hang), releases their claims, and
    a following map on the same store completes the grid."""
    store = ResultStore(tmp_path)
    specs = [CellSpec(kind="svm", app=app, features=feats,
                      config=MachineConfig())
             for app in ("Barnes-spatial", "Water-spatial")
             for feats in PROTOCOL_LADDER]
    killed = {}

    def kill_one_worker():
        deadline = time.monotonic() + 60  # repro: noqa[wall-clock] — host-time watchdog
        while time.monotonic() < deadline:  # repro: noqa[wall-clock] — host-time watchdog
            workers = multiprocessing.active_children()
            if workers and len(store):
                os.kill(workers[0].pid, signal.SIGKILL)
                killed["at"] = time.monotonic()  # repro: noqa[wall-clock] — host-time watchdog
                return
            time.sleep(0.02)

    killer = threading.Thread(target=kill_one_worker, daemon=True)
    killer.start()
    with pytest.raises(WorkerDied) as info:
        _run_bounded(lambda: GridExecutor(jobs=2, jobs_force=True,
                                          store=store).map(specs), 90)
    assert time.monotonic() - killed["at"] < 30  # repro: noqa[wall-clock] — host-time watchdog
    lost = info.value.cells
    assert lost
    assert {s.digest() for s in lost} <= {s.digest() for s in specs}
    assert f"{lost[0].app}/{lost[0].features.name}" in str(info.value)
    assert not list(store.version_dir.glob("*/*.lock"))
    done = len(store)
    assert 0 < done < len(specs)

    out = _run_bounded(lambda: GridExecutor(jobs=2, jobs_force=True,
                                            store=store).map(specs), 90)
    assert set(out) == {spec.digest() for spec in specs}
    assert len(store) == len(specs)


def test_failing_cell_releases_claims_keeps_finished(tmp_path):
    """A cell that raises fails the map, but the cells finished before
    it stay persisted and no claim is left behind."""
    store = ResultStore(tmp_path)
    good = svm_spec(features=BASE)
    bad = CellSpec(kind="svm", app="NoSuchApp", config=MachineConfig())
    with pytest.raises(KeyError):
        GridExecutor(jobs=1, store=store).map([good, bad])
    assert store.load(good.digest()) is not None
    assert not list(store.version_dir.glob("*/*.lock"))
    plan = GridExecutor(jobs=1, store=store).submit([good])
    assert set(plan.hits) == {good.digest()}
