"""Batched lookups against the per-address sorted walk: Network._locate_many
over many addresses at once, the retrieval's one lookup pass, and the
distance keys it compares."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmsim import netsim
from swarmsim.chunker import ChunkParams
from swarmsim.codec import CodingParams
from swarmsim.netsim import SYNC_NONE, Network, SimConfig, _view_rows, holders, spawn_network
from swarmsim.overlay import make_peer_ids
from swarmsim.seeds import derive_bytes, seeded_bytes
from swarmsim.tools import listchunks
from test_lookup_oracle import normalised, reference_build_views, reference_locate


def located(net, entry, addrs):
    """_locate_many from peer id entry."""
    return net._locate_many(net.peer_index[entry], addrs)


class TestLocateMany:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 60),
        view_size=st.integers(1, 20),
        ns=st.integers(1, 20),
        fraction=st.floats(0.0, 0.6),
        failed_entry=st.booleans(),
        data=st.data(),
    )
    def test_matches_the_sorted_walk_per_address(
        self, n, view_size, ns, fraction, failed_entry, data
    ):
        cfg = SimConfig(num_peers=n, seed=n, view_size=view_size, ns=ns, sync_mode=SYNC_NONE)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # view_size >= n is clamped
            net = spawn_network(cfg)
        manifest = net.upload(seeded_bytes(6_000, "batched", n), ChunkParams(1024, 4))
        chunks = listchunks(manifest)
        payloads = {a: p for store in net.stores.values() for a, p in store.items()}
        # extra replicas on drawn peers, so lookups also end in the last phase
        for addr in data.draw(st.lists(st.sampled_from(chunks), max_size=6)):
            net.stores[net.peer_ids[data.draw(st.integers(0, n - 1))]][addr] = payloads[addr]
        net.fail_peers(fraction=fraction, seed=data.draw(st.integers(0, 3)))
        pool = sorted(net.failed, key=net.peer_index.__getitem__) if failed_entry else []
        entry = data.draw(st.sampled_from(pool or net.live_peers() or net.peer_ids))
        absent = [derive_bytes("absent", i) for i in range(2)]
        addrs = data.draw(st.lists(st.sampled_from(chunks + absent), min_size=1, max_size=30))
        assert located(net, entry, addrs) == [reference_locate(net, entry, a) for a in addrs]

    def test_every_address_of_a_normalised_network(self):
        """Every chunk and an absent address, twice over, in one pass from
        spread entries at rising failure fractions."""
        net, result = normalised(5)
        addrs = listchunks(result.manifests[0]) + [derive_bytes("absent", 5)]
        addrs += addrs[::-1]
        for fraction in (0.0, 0.3, 0.6):
            net.restore(result.snapshot)
            net.fail_peers(fraction=fraction, seed=4)
            for entry in net.peer_ids[::23]:
                expected = [reference_locate(net, entry, a) for a in addrs]
                assert located(net, entry, addrs) == expected

    def test_no_addresses(self):
        net, _ = normalised(5)
        assert located(net, net.peer_ids[0], []) == []


@pytest.fixture
def passes(monkeypatch):
    """The addresses of each _locate_many call, in call order."""
    calls = []
    original = Network._locate_many

    def spy(self, entry, addrs):
        calls.append(list(addrs))
        return original(self, entry, addrs)

    monkeypatch.setattr(Network, "_locate_many", spy)
    return calls


class TestOneLookupPassPerRetrieval:
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_one_pass_over_the_distinct_listed_addresses(self, fraction, passes):
        net, result = normalised(6)
        manifest = result.manifests[0]
        net.fail_peers(fraction=fraction, seed=2)
        _, stats = net.retrieve(manifest, net.live_peers()[0])
        assert len(passes) == 1
        assert len(passes[0]) == len(set(passes[0])) == len(listchunks(manifest))
        assert set(passes[0]) == set(listchunks(manifest))
        assert stats.success == (fraction == 0.0)

    def test_an_unlisted_address_gets_a_lookup_of_its_own(self, passes):
        """An edited leaf level: the walk from the root fetches a leaf the
        manifest does not list, after the one pass over the listed ones."""
        net, result = normalised(6)
        manifest = result.manifests[0]
        leaves = list(manifest.levels[0])
        unlisted, leaves[0] = leaves[0], derive_bytes("not-a-leaf")
        edited = replace(manifest, levels=[leaves] + manifest.levels[1:])
        _, stats = net.retrieve(edited, net.peer_ids[0])
        assert [len(addrs) for addrs in passes] == [len(listchunks(edited)), 1]
        assert passes[1] == [unlisted] and stats.success

    def test_one_scan_of_the_stores_per_pass(self, monkeypatch):
        """A listed manifest's retrieval scans the stores for holders once;
        the edited leaf level's unlisted leaf costs a second scan."""
        net, result = normalised(6)
        manifest = result.manifests[0]
        scans = []

        def spy(*args, **kwargs):
            scans.append(args)
            return holders(*args, **kwargs)

        monkeypatch.setattr(netsim, "holders", spy)
        _, stats = net.retrieve(manifest, net.peer_ids[0])
        assert stats.success and len(scans) == 1
        leaves = list(manifest.levels[0])
        leaves[0] = derive_bytes("not-a-leaf")
        edited = replace(manifest, levels=[leaves] + manifest.levels[1:])
        _, stats = net.retrieve(edited, net.peer_ids[0])
        assert stats.success and len(scans) == 3

    @pytest.mark.parametrize("coding", [None, CodingParams(k=4, n=6)])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.6])
    def test_retrieve_matches_per_address_lookups(self, coding, fraction, monkeypatch):
        """Hops, bytes, repairs and outcome equal a retrieve whose lookups
        run one address at a time through the sorted walk: only fetched
        addresses cost hops, though every listed one is located."""
        net, result = normalised(7, coding)
        manifest = result.manifests[0]
        net.fail_peers(fraction=fraction, seed=3)
        entries = net.live_peers()[::19]
        got = [net.retrieve(manifest, entry) for entry in entries]
        monkeypatch.setattr(
            Network,
            "_locate_many",
            lambda self, entry, addrs: [
                reference_locate(self, self.peer_ids[entry], a) for a in addrs
            ],
        )
        assert got == [net.retrieve(manifest, entry) for entry in entries]
        if fraction == 0.0:
            assert all(stats.success for _, stats in got)


class TestDistanceKeys:
    def test_keys_and_table_are_read_only_and_match_the_views(self):
        net = spawn_network(SimConfig(num_peers=40, seed=12, view_size=6))
        assert net._keys.tolist() == [int.from_bytes(pid, "big") >> 192 for pid in net.peer_ids]
        views = reference_build_views(make_peer_ids(40, 12), 6, 12)
        assert [{net.peer_ids[j] for j in row} for row in net._table.tolist()] == [
            views[pid].known for pid in net.peer_ids
        ]
        assert net._table.dtype == np.intp and net._keys.dtype == np.uint64
        for shared in (net._keys, net._table):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1

    def test_ids_sharing_their_top_64_bits_are_refused(self, monkeypatch):
        def sharing(num_peers, seed):
            ids = make_peer_ids(num_peers, seed)
            ids[7] = ids[3][:8] + ids[7][8:]  # distinct ids, equal keys
            return ids

        monkeypatch.setattr(netsim, "make_peer_ids", sharing)
        cfg = SimConfig(num_peers=30, seed=2**40 + 15)  # a config no other test spawns
        with pytest.raises(ValueError, match="share their top 64 bits; change the seed"):
            spawn_network(cfg)
        monkeypatch.undo()
        _view_rows.cache_clear()
        assert len(spawn_network(cfg).peer_ids) == 30
