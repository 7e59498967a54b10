"""The counted last lookup phase and the index-sampled views against the
sorted walk and the copy-per-peer views they replace, kept here as
reference implementations; the bisected count against a direct count; and
the per-config view cache against build_views."""

import random
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from swarmsim.chunker import ChunkParams
from swarmsim.codec import CodingParams
from swarmsim.harness import ExperimentConfig, prepare
from swarmsim.netsim import Network, SimConfig, _view_rows, spawn_network
from swarmsim.overlay import (
    RoutingView,
    build_views,
    count_nearer,
    make_peer_ids,
    nearest_peers,
    responsible_peers,
    xor_distance,
)
from swarmsim.seeds import derive_bytes, derive_rng, seeded_bytes
from swarmsim.tools import listchunks

B3 = ChunkParams(chunk_size=4096, branching=3)


# -- reference implementations ------------------------------------------------


def reference_locate(net, entry, addr):
    """Probe the requester, the greedy path, the terminal neighborhood, then
    sort every unseen live peer by distance and walk the sorted list."""
    probes = 0
    seen = set()

    def probe(pid):
        nonlocal probes
        if pid in seen or pid in net.failed:
            return None
        seen.add(pid)
        if pid != entry:
            probes += 1
        return net.stores[pid].get(addr)

    payload = probe(entry)
    if payload is not None:
        return payload, probes
    path = net.route_path(entry, addr)
    for pid in path:
        payload = probe(pid)
        if payload is not None:
            return payload, probes
    hood = responsible_peers(addr, net.views[path[-1]], net.config.ns)
    for pid in hood.members:
        payload = probe(pid)
        if payload is not None:
            return payload, probes
    a = int.from_bytes(addr, "big")
    rest = [pid for pid in net.peer_ids if pid not in seen and pid not in net.failed]
    rest.sort(key=lambda pid: (a ^ int.from_bytes(pid, "big"), pid))
    for pid in rest:
        payload = probe(pid)
        if payload is not None:
            return payload, probes
    return None, probes


def reference_nearest(target, candidates, m):
    pool = list(candidates)
    pool.sort(key=lambda p: (xor_distance(target, p), p))
    return pool[:m]


def reference_build_views(peer_ids, view_size, seed):
    """Sample each peer's candidate pool from a copy of the sorted ids
    without the owner."""
    n = len(peer_ids)
    view_size = min(view_size, n - 1)
    ordered = sorted(peer_ids)
    shuffled = list(ordered)
    derive_rng("well-known", seed).shuffle(shuffled)
    well_known = set(shuffled[: min(8, n)])
    sample_size = min(n - 1, 3 * view_size)
    views = {}
    for pid in peer_ids:
        others = [q for q in ordered if q != pid]
        rng = derive_rng("view", seed, pid)
        pool = set(rng.sample(others, min(sample_size, len(others))))
        pool.update(q for q in well_known if q != pid)
        members = reference_nearest(pid, pool, min(view_size, len(pool)))
        views[pid] = RoutingView(owner=pid, known=frozenset(members))
    return views


# -- lookups ------------------------------------------------------------------


def normalised(seed, coding=CodingParams(k=4, n=6)):
    net = spawn_network(SimConfig(num_peers=120, seed=seed))
    config = ExperimentConfig(
        sim=net.config, file_sizes=(200_000,), chunk=B3, coding=coding, target_r=2
    )
    result = prepare(net, config)
    return net, result


def assert_lookups_match(net, addresses, entries):
    """Every (entry, address) lookup agrees with the sorted walk; returns
    how many were answered by the entry itself and how many missed."""
    index = net._lookup_index()
    by_entry = misses = 0
    for entry in entries:
        for addr in addresses:
            got = net._locate(entry, addr, lambda: index)
            assert got == reference_locate(net, entry, addr)
            by_entry += got == (net.stores[entry].get(addr), 0) and got[0] is not None
            misses += got[0] is None
    return by_entry, misses


class TestCountedLookup:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("fraction", [0.0, 0.3, 0.6])
    def test_matches_the_sorted_walk(self, seed, fraction):
        net, result = normalised(seed)
        net.restore(result.snapshot)
        net.fail_peers(fraction=fraction, seed=seed)
        live = net.live_peers()
        addresses = list(listchunks(result.manifests[0]))
        absent = derive_bytes("absent", seed)
        # an entry that holds a chunk, plus a spread of other live peers
        holder = next(pid for pid in live if net.stores[pid])
        entries = [holder] + live[:: max(1, len(live) // 4)]
        by_entry, misses = assert_lookups_match(net, addresses + [absent], entries)
        assert by_entry > 0
        assert misses >= len(entries)

    def test_unnormalised_network_matches_the_sorted_walk(self):
        net = spawn_network(SimConfig(num_peers=80, seed=4))
        manifest = net.upload(seeded_bytes(30_000, "full"), B3)
        net.fail_peers(fraction=0.3, seed=1)
        live = net.live_peers()
        assert_lookups_match(net, list(listchunks(manifest)), live[::10])

    @pytest.mark.parametrize("coding", [None, CodingParams(k=4, n=6)])
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_retrieve_with_an_edited_leaf_level(self, coding, fraction, monkeypatch):
        """The manifest's leaf level no longer matches the tree under its
        root, so the walk from the root fetches a leaf the manifest does
        not list, and on a normalised network that lookup reaches the
        last phase."""
        net, result = normalised(6, coding)
        manifest = result.manifests[0]
        base = manifest.base if coding else manifest
        leaves = list(base.levels[0])
        leaves[0] = derive_bytes("not-a-leaf")
        base = replace(base, levels=[leaves] + base.levels[1:])
        edited = replace(manifest, base=base) if coding else base
        net.fail_peers(fraction=fraction, seed=2)
        entries = net.live_peers()[::17]
        got = [net.retrieve(edited, entry) for entry in entries]
        monkeypatch.setattr(
            Network,
            "_locate",
            lambda self, entry, addr, index: reference_locate(self, entry, addr),
        )
        assert got == [net.retrieve(edited, entry) for entry in entries]
        if fraction == 0.0:
            assert all(stats.success for _, stats in got)


def direct_count(live, a, d):
    return len([x for x in live if a ^ x < d])


class TestCountNearer:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_direct_count(self, data):
        bits = data.draw(st.sampled_from([8, 16, 256]))
        ids = st.integers(0, 2**bits - 1)
        live = sorted(data.draw(st.sets(ids, max_size=120)))
        a = data.draw(ids)
        d = data.draw(
            st.one_of(
                st.just(0),
                ids,
                st.sampled_from(live).map(lambda x: a ^ x) if live else st.just(1),
            )
        )
        assert count_nearer(live, a, d) == direct_count(live, a, d)

    @pytest.mark.parametrize("bits", [8, 16, 256])
    def test_edge_cases(self, bits):
        rng = random.Random(bits)
        live = sorted({rng.getrandbits(bits) for _ in range(300)})
        a = rng.getrandbits(bits)
        assert count_nearer([], a, 0) == count_nearer([], a, 2**bits - 1) == 0
        assert count_nearer(live, a, 0) == 0
        assert count_nearer(live, a, 2**bits) == len(live)
        for x in live:  # d from every holder, the target itself included
            for target in (a, x):
                d = target ^ x
                assert count_nearer(live, target, d) == direct_count(live, target, d)

    def test_450_live_256_bit_ids(self):
        """450 live 256-bit ids, as in a 500-peer sweep at 10% failed."""
        rng = random.Random(7)
        live = sorted(rng.getrandbits(256) for _ in range(450))
        for _ in range(500):
            a = rng.getrandbits(256)
            d = a ^ rng.choice(live)
            assert count_nearer(live, a, d) == direct_count(live, a, d)


# -- views --------------------------------------------------------------------


class TestViews:
    @pytest.mark.parametrize("n", [2, 3, 17, 200])
    @pytest.mark.parametrize("view_size", [1, 4, 16, 200, 500])
    def test_match_the_copy_per_peer_views(self, n, view_size):
        ids = make_peer_ids(n, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = build_views(ids, view_size, 9)
        assert got == reference_build_views(ids, view_size, 9)

    def test_duplicate_ids_rejected(self):
        ids = make_peer_ids(5, 1)
        with pytest.raises(ValueError, match="distinct"):
            build_views(ids + ids[:1], 2, 0)

    def test_nearest_peers_rejects_unequal_lengths(self):
        target = bytes(32)
        with pytest.raises(ValueError, match="equal length"):
            nearest_peers(target, [bytes([1]) * 32, bytes([2]) * 31], 1)
        with pytest.raises(ValueError, match="equal length"):
            nearest_peers(bytes(31), [bytes([1]) * 32], 1)


class TestViewsOncePerConfig:
    @pytest.mark.parametrize("n", [2, 3, 17, 200])
    @pytest.mark.parametrize("view_size", [1, 4, 16, 200, 500])
    def test_spawned_views_match_build_views(self, n, view_size):
        cfg = SimConfig(num_peers=n, seed=n + 1, view_size=view_size)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = build_views(make_peer_ids(n, n + 1), view_size, n + 1)
            _view_rows.cache_clear()
            nets = [spawn_network(cfg), spawn_network(cfg)]  # a miss, then a hit
        for net in nets:
            assert net.views == expected
            assert {pid: sorted(v) for pid, v in net._view_ints.items()} == {
                pid: sorted(int.from_bytes(q, "big") for q in view.known)
                for pid, view in expected.items()
            }

    def test_clamp_warning_fires_on_every_spawn(self):
        cfg = SimConfig(num_peers=5, seed=11, view_size=16)
        _view_rows.cache_clear()
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                spawn_network(cfg)
            assert [str(w.message) for w in caught] == [
                "view_size 16 >= peer count 5; clamping to 4"
            ]

    def test_networks_of_one_config_share_no_mutable_state(self):
        cfg = SimConfig(num_peers=40, seed=12, view_size=6)
        a, b = spawn_network(cfg), spawn_network(cfg)
        for attr in ("views", "_view_ints", "_ints", "stores", "peer_ids",
                     "peer_index", "backends", "failed"):
            assert getattr(a, attr) is not getattr(b, attr), attr
        for pid in a.peer_ids:
            assert a._view_ints[pid] is not b._view_ints[pid]
            assert a.stores[pid] is not b.stores[pid]
        expected = spawn_network(cfg).views
        a._view_ints[a.peer_ids[0]].clear()
        a.views.clear()
        a.stores[a.peer_ids[0]][b"x" * 32] = b"x"
        c = spawn_network(cfg)
        assert b.views == c.views == expected
        assert all(len(v) == 6 for v in c._view_ints.values())
        assert not any(c.stores.values()) and not any(b.stores.values())
