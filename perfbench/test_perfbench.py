"""Self-tests of the benchmark's own parts.

    python3 -m pytest perfbench -q
"""

import cProfile
import pstats
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
from repro.experiments import ExperimentCache  # noqa: E402
from repro.runtime import GridExecutor, ResultStore, RunResult  # noqa: E402
from repro.sim import TimeBuckets  # noqa: E402
from repro.svm import GENIMA  # noqa: E402

#: how far the per-layer self seconds may fall short of the traced
#: wall time: cProfile leaves its own bookkeeping between calls
#: unattributed, and never attributes more than the wall.
ATTRIBUTION_TOLERANCE = 0.10

SMALL_APP = "Barnes-spatial"


def _result(time_us=100.0, compute=(60.0, 100.0)):
    buckets = []
    for value in compute:
        b = TimeBuckets()
        b.charge("compute", value)
        buckets.append(b)
    walls = [60.0, 100.0]
    return RunResult(app="X", system="Base", nprocs=2, time_us=time_us,
                     wall_us=walls, buckets=buckets,
                     stats={"page_fetches": 4, "fetch_retries": 1})


class _Spec:
    kind, app, features, config = "svm", "X", None, None


# ------------------------------------------------------------ percentiles


def test_percentile_is_nearest_rank():
    values = list(range(1, 11))
    assert ledger.percentile(values, 50) == 5
    assert ledger.percentile(values, 90) == 9
    assert ledger.percentile(values, 100) == 10
    assert ledger.percentile([7.0], 90) == 7.0
    assert ledger.percentile(reversed(values), 10) == 1


def test_percentile_sample_counts():
    assert ledger.samples_beyond(10, 90) == 1
    assert ledger.samples_beyond(100, 90) == 10
    assert ledger.samples_beyond(30, 50) == 15
    with pytest.raises(ValueError):
        ledger.percentile([], 50)
    with pytest.raises(ValueError):
        ledger.percentile([1], 0)


# ------------------------------------------------------------- host speed


def test_host_speed_scales_by_bracketing_loops(monkeypatch):
    loops = iter([0.010, 0.030, 0.040])
    monkeypatch.setattr(ledger, "calibration_loop", lambda: next(loops))
    speed = ledger.HostSpeed()
    ref = ledger.REFERENCE_LOOP_S
    # bracketed by 0.010 and 0.030: the host ran at ref / 0.020
    assert speed.adjust(1.0) == pytest.approx(ref / 0.020)
    # the loop ending one piece of work opens the next one
    assert speed.adjust(2.0) == pytest.approx(2.0 * ref / 0.035)
    assert speed.loops == [0.010, 0.030, 0.040]


# --------------------------------------------------------- failure counter


def test_ledger_counts_perturbed_result_as_failed():
    good = _result()
    label = ledger.cell_label(_Spec)
    book = ledger.Ledger({label: ledger.result_digest(good)})
    book.record(_Spec, "d0", good, 0.1, hit=False)
    assert len(book.failures) == 0
    perturbed = _result(time_us=100.0 + 1e-9)
    book.record(_Spec, "d1", perturbed, 0.1, hit=False)
    assert len(book.failures) == 1
    assert "reference" in book.failures[0]
    assert book.attempted == 2


def test_ledger_counts_broken_accounting_as_failed():
    book = ledger.Ledger()   # no reference: invariants only
    book.record(_Spec, "d0", _result(), 0.1, hit=False)
    assert len(book.failures) == 0
    broken = _result(compute=(60.0, 100.5))
    book.record(_Spec, "d1", broken, 0.1, hit=False)
    assert len(book.failures) == 1
    assert "accounting" in book.failures[0]


def test_ledger_without_reference_entry_fails():
    book = ledger.Ledger({"some/other/cell": "0" * 64})
    book.record(_Spec, "d0", _result(), 0.1, hit=False)
    assert len(book.failures) == 1


def test_executor_counts_raising_cell_as_failed():
    class Boom:
        def submit(self, specs):
            raise RuntimeError("boom")

    book = ledger.Ledger()
    cache = ExperimentCache()
    executor = ledger.LedgerExecutor(Boom(), book)
    with pytest.raises(RuntimeError):
        executor.map([cache.spec_seq(SMALL_APP)])
    assert (book.attempted, len(book.failures)) == (1, 1)


def test_fetch_waste_is_retries_over_attempts():
    book = ledger.Ledger()
    book.record(_Spec, "d0", _result(), 0.1, hit=False)
    counts = book.simulated_counts(events=9)
    assert counts["sim.events"] == 9
    assert counts["svm.fetch_waste"] == pytest.approx(0.25)


# ------------------------------------------------------ layer attribution


def test_layer_of_maps_packages():
    src = HERE.parent / "src" / "repro"
    assert ledger.layer_of(str(src / "sim" / "engine.py")) == "sim"
    assert ledger.layer_of(str(src / "svm" / "pages.py")) == "svm"
    assert ledger.layer_of(str(src / "hwdsm" / "origin.py")) == "other"
    assert ledger.layer_of(str(src / "cli.py")) == "other"
    assert ledger.layer_of(str(HERE / "run.py")) == "bench"
    assert ledger.layer_of(pytest.__file__) == "python"
    assert ledger.layer_of("<frozen importlib._bootstrap>") == "python"


def _cell_pass(tmp_path, counter=None, profile=None):
    book = ledger.Ledger()
    executor = ledger.LedgerExecutor(
        GridExecutor(jobs=1, store=ResultStore(tmp_path)), book,
        counter=counter)
    cache = ExperimentCache(executor=executor)
    spec = cache.spec_svm(SMALL_APP, GENIMA)
    if profile is not None:
        profile.enable()
    cache.cell(spec)
    if profile is not None:
        profile.disable()
    return book


def test_layer_split_sums_to_traced_total(tmp_path):
    profile = cProfile.Profile()
    start = time.perf_counter()
    _cell_pass(tmp_path, profile=profile)
    wall = time.perf_counter() - start
    stats = pstats.Stats(profile)
    split = ledger.layer_split(stats.stats)
    assert sum(split.values()) == pytest.approx(stats.total_tt, rel=1e-6)
    assert (1 - ATTRIBUTION_TOLERANCE) * wall <= sum(split.values()) <= wall
    assert split["sim"] > 0 and split["svm"] > 0


# ------------------------------------------------------ simulated counts


def test_simulated_counts_repeat_exactly(tmp_path):
    runs = []
    for name in ("a", "b"):
        with ledger.EventCounter() as counter:
            book = _cell_pass(tmp_path / name, counter=counter)
        runs.append((counter.events, book.simulated_counts(counter.events),
                     [ledger.result_digest(r)
                      for _s, _d, r in book.cells.values()]))
    assert runs[0][0] > 0
    assert runs[0] == runs[1]
