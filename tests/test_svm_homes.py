"""Tests for first-touch home allocation and home migration."""

from repro.hw import Machine, MachineConfig
from repro.svm import BASE, GENIMA, HLRCProtocol, PageAccess


def make(feats=GENIMA):
    machine = Machine(MachineConfig())
    return machine, HLRCProtocol(machine, feats)


def run_all(machine, gens):
    done = []

    def wrap(g, i):
        yield from g
        done.append(i)

    for i, g in enumerate(gens):
        machine.sim.process(wrap(g, i))
    machine.run()
    assert len(done) == len(gens)


# -------------------------------------------------------------- first touch

def test_first_touch_region_starts_unhomed():
    machine, proto = make()
    region = proto.allocate("ft", 8, home_policy="first_touch")
    assert all(h is None for h in region.homes)


def test_first_writer_becomes_the_home():
    machine, proto = make()
    region = proto.allocate("ft", 8, home_policy="first_touch")

    def writer(rank, page):
        yield from proto.write(rank, region, [page],
                               runs_per_page=1, bytes_per_page=64)

    run_all(machine, [writer(0, 0), writer(5, 1), writer(14, 2)])
    assert region.homes[0] == 0   # rank 0 -> node 0
    assert region.homes[1] == 1   # rank 5 -> node 1
    assert region.homes[2] == 3   # rank 14 -> node 3
    assert proto.home_allocations == 3


def test_first_touch_writes_are_home_local():
    """After first touch, the toucher writes its pages without diffs —
    the whole point of first-touch placement."""
    machine, proto = make()
    region = proto.allocate("ft", 4, home_policy="first_touch")

    def worker(rank):
        yield from proto.write(0, region, [0], runs_per_page=1,
                               bytes_per_page=64)
        yield from proto.barrier(0)

    def others(rank):
        yield from proto.barrier(rank)

    run_all(machine, [worker(0)] + [others(r) for r in range(1, 16)])
    assert proto.diffs_sent == 0
    assert proto.diff_runs_sent == 0


def test_first_touch_reader_fetch_after_assignment():
    machine, proto = make()
    region = proto.allocate("ft", 4, home_policy="first_touch")

    def writer():
        yield from proto.write(0, region, [0], runs_per_page=1,
                               bytes_per_page=64)
        yield from proto.release_flag(0, 1)

    def reader():
        yield from proto.acquire_flag(8, 1)
        yield from proto.read(8, region, [0])

    run_all(machine, [writer(), reader()])
    assert region.homes[0] == 0
    assert proto.tables[2].access(region.gid(0)) is PageAccess.READ


def test_first_touch_pages_exported_on_assignment():
    machine, proto = make()
    region = proto.allocate("ft", 4, home_policy="first_touch")
    gid = region.gid(3)
    assert not proto.vmmc.exports.is_exported(0, gid)

    def writer():
        yield from proto.write(2, region, [3], runs_per_page=1,
                               bytes_per_page=64)

    run_all(machine, [writer()])
    assert proto.vmmc.exports.is_exported(0, gid)


# ---------------------------------------------------------------- migration

def test_migrate_home_moves_ownership():
    machine, proto = make()
    region = proto.allocate("m", 4, home_policy="node:0")

    def migrator():
        yield from proto.migrate_home(8, region, 2)  # rank 8 = node 2

    run_all(machine, [migrator()])
    assert region.homes[2] == 2
    assert proto.home_migrations == 1
    assert proto.vmmc.exports.is_exported(2, region.gid(2))


def test_migrate_to_own_home_is_noop():
    machine, proto = make()
    region = proto.allocate("m", 4, home_policy="node:1")

    def migrator():
        yield from proto.migrate_home(4, region, 0)  # already node 1

    run_all(machine, [migrator()])
    assert proto.home_migrations == 0


def test_migrated_page_writes_become_local():
    machine, proto = make()
    region = proto.allocate("m", 4, home_policy="node:0")

    def worker():
        # before migration: remote writes diff to node 0
        yield from proto.write(12, region, [1], runs_per_page=1,
                               bytes_per_page=64)
        yield from proto.barrier(12)
        runs_before = proto.diff_runs_sent
        yield from proto.migrate_home(12, region, 1)
        yield from proto.write(12, region, [1], runs_per_page=1,
                               bytes_per_page=64)
        yield from proto.barrier(12)
        assert proto.diff_runs_sent == runs_before  # now home-local

    def others(rank):
        yield from proto.barrier(rank)
        yield from proto.barrier(rank)

    run_all(machine, [worker()] + [others(r) for r in range(16)
                                   if r != 12])


def test_migration_after_remote_reads_preserves_versions():
    """The version vector travels with the home: a reader that needed
    writer intervals still sees them satisfied at the new home."""
    machine, proto = make(BASE)
    region = proto.allocate("m", 4, home_policy="node:0")

    def worker():
        yield from proto.write(4, region, [0], runs_per_page=1,
                               bytes_per_page=64)
        yield from proto.barrier(4)
        yield from proto.migrate_home(4, region, 0)  # to node 1
        yield from proto.barrier(4)

    def reader():
        yield from proto.barrier(0)
        yield from proto.barrier(0)
        yield from proto.read(0, region, [0])

    def others(rank):
        yield from proto.barrier(rank)
        yield from proto.barrier(rank)

    run_all(machine, [worker(), reader()]
            + [others(r) for r in range(16) if r not in (0, 4)])
    gid = region.gid(0)
    assert region.homes[0] == 1
    assert proto._homes[gid].applied.get(1, 0) >= 1
    assert proto.tables[0].access(gid) is PageAccess.READ


# --------------------------------------------------- directory agreement

def test_home_of_agrees_with_region_after_first_touch_and_migration():
    machine, proto = make(BASE)
    region = proto.allocate("ft", 4, home_policy="first_touch")

    def toucher():
        yield from proto.write(9, region, [1], runs_per_page=1,
                               bytes_per_page=64)   # node 2
        yield from proto.barrier(9)
        yield from proto.migrate_home(13, region, 1)  # to node 3

    def others(rank):
        yield from proto.barrier(rank)

    run_all(machine, [toucher()] + [others(r) for r in range(16)
                                    if r != 9])
    homes = [proto.directory.home_of(g) for g in region.gids(range(4))]
    assert homes == region.homes == [None, 3, None, None]
    assert proto.home_allocations == 1
    assert proto.home_migrations == 1
