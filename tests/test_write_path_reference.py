"""The write path against the loops and lists it replaced.

Network._pull_round: the reference compares XOR distances as Python ints,
one view member at a time, and stores each adopted chunk as it decides it.
The numpy pull round must leave every store with the same chunks in the
same insertion order, since snapshots, census digests and later uploads all
read the stores.

prepare: the reference plans each file's deletion list with bakedeletion
and merges the lists with combinestorage. prepare's intersected keep maps
must delete the same replicas and refuse a starving union the same way.
"""

import warnings
from dataclasses import replace

import pytest

from swarmsim import harness
from swarmsim.chunker import ChunkParams
from swarmsim.codec import CodingParams
from swarmsim.errors import InfeasiblePlanError
from swarmsim.harness import ExperimentConfig, prepare
from swarmsim.netsim import Network, SimConfig, spawn_network
from swarmsim.seeds import seeded_bytes
from swarmsim.tools import bakedeletion, combinestorage, listchunks, placement_from_network


def reference_pull_round(self, chunks):
    ns = self.config.ns
    items = [
        (addr, payload, int.from_bytes(addr, "big"))
        for addr, payload in chunks.items()
    ]
    ints = [int.from_bytes(pid, "big") for pid in self.peer_ids]
    for i, pid in enumerate(self.peer_ids):
        if pid in self.failed:
            continue
        own = ints[i]
        vints = [ints[j] for j in self._table[i].tolist()]
        store = self.stores[pid]
        for addr, payload, a in items:
            mine = a ^ own
            closer = 0
            for v in vints:
                if a ^ v < mine:
                    closer += 1
                    if closer >= ns:
                        break
            if closer < ns:
                store[addr] = payload


def uploaded(config, sizes, coding, fail, pull_round=None):
    """Stores as (address, payload) lists in insertion order after failing
    the first `fail` peers and uploading one file per size."""
    original = Network._pull_round
    if pull_round is not None:
        Network._pull_round = pull_round
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamped views warn
            net = spawn_network(config)
        net.fail_peers(peers=net.peer_ids[:fail])
        params = ChunkParams(chunk_size=1024, branching=4)
        for index, size in enumerate(sizes):
            net.upload(seeded_bytes(size, "pull", config.seed, index), params, coding)
    finally:
        Network._pull_round = original
    return {pid: list(store.items()) for pid, store in net.stores.items()}


CASES = [
    # peers, ns, view_size, failed before upload, coding
    (2, 1, 1, 0, None),
    (2, 4, 16, 0, CodingParams(2, 3)),
    (3, 1, 16, 1, None),
    (3, 2, 2, 0, CodingParams(3, 5)),
    (17, 1, 4, 0, CodingParams(4, 6)),
    (17, 3, 16, 5, None),
    (17, 4, 40, 2, CodingParams(2, 4)),
    (200, 2, 8, 0, None),
    (200, 4, 16, 30, CodingParams(4, 6)),
    (200, 9, 24, 0, CodingParams(3, 3)),
    (500, 4, 16, 0, CodingParams(4, 6)),
    (500, 6, 12, 100, None),
]


@pytest.mark.parametrize("peers, ns, view_size, fail, coding", CASES)
def test_stores_and_their_order_match_the_scalar_loop(peers, ns, view_size, fail, coding):
    config = SimConfig(num_peers=peers, seed=peers + ns, view_size=view_size, ns=ns)
    sizes = (9_000, 40_000) if peers < 500 else (60_000,)
    expected = uploaded(config, sizes, coding, fail, reference_pull_round)
    assert uploaded(config, sizes, coding, fail) == expected
    if peers < 200:
        return  # small networks may store every chunk everywhere before the pull
    # the pull round ran: more replicas than path and neighbourhood alone
    no_sync = uploaded(replace(config, sync_mode="no_sync"), sizes, coding, fail)
    assert sum(map(len, expected.values())) > sum(map(len, no_sync.values()))


def shared_prefix_bytes(config, index):
    """File contents whose first two 4096-byte leaves are the same in every
    file, so the files share those two chunks."""
    return seeded_bytes(8192, "shared") + seeded_bytes(config.file_sizes[index], "tail", index)[8192:]


def reference_deletions(config):
    """Upload as prepare does, then plan per file and merge the lists."""
    network = spawn_network(config.sim)
    manifests = [
        network.upload(harness.file_bytes(config, i), config.chunk, config.coding)
        for i in range(len(config.file_sizes))
    ]
    files = {m.root.hex(): tuple(listchunks(m)) for m in manifests}
    placement = placement_from_network(network, files)
    plans = [bakedeletion(placement.restrict(fid), config.target_r) for fid in files]
    return combinestorage(plans, placement)


def shared_config(peers, seed, ns, target_r):
    return ExperimentConfig(
        sim=SimConfig(num_peers=peers, seed=seed, ns=ns, view_size=6),
        file_sizes=(60_000, 45_000), chunk=ChunkParams(4096, 4), target_r=target_r,
    )


def test_prepare_deletes_what_the_merged_lists_delete(monkeypatch):
    monkeypatch.setattr(harness, "file_bytes", shared_prefix_bytes)
    config = shared_config(peers=20, seed=0, ns=1, target_r=2)
    expected = reference_deletions(config)
    prepared = prepare(spawn_network(config.sim), config)
    a, b = (set(prepared.files[fid]) for fid in prepared.file_ids)
    assert a & b  # the files share chunks
    assert prepared.deletions == expected
    assert prepared.census_after.total_replicas == 2 * prepared.census_after.distinct_chunks


def test_a_starving_union_is_refused_as_combinestorage_refuses_it(monkeypatch):
    monkeypatch.setattr(harness, "file_bytes", shared_prefix_bytes)
    config = shared_config(peers=20, seed=5, ns=4, target_r=2)
    with pytest.raises(InfeasiblePlanError) as merged:
        reference_deletions(config)
    assert "starve" in str(merged.value)
    with pytest.raises(InfeasiblePlanError, match="^combinestorage: ") as prepared:
        prepare(spawn_network(config.sim), config)
    assert str(prepared.value) == f"combinestorage: {merged.value}"
