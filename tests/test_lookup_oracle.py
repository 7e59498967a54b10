"""The counted last lookup phase and the index-sampled views against the
sorted walk and the copy-per-peer views they replace, kept here as
reference implementations; the array count over distance keys against a
direct count; the per-config view cache against build_views; and routing,
neighbourhoods and the pull round over the shared view table against the
same walks over the reference frozenset views; and lookups in peer-index
space in the cases they treat apart: holders on the path, failed peers in
the neighbourhood or as the requester, neighbourhoods wider than a view,
and two or three peers."""

import functools
import os
import random
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmsim.chunker import ChunkParams, build_tree, split_file
from swarmsim.codec import CodingParams, encode_tree
from swarmsim.harness import ExperimentConfig, prepare
from swarmsim.netsim import (
    SYNC_FULL,
    SYNC_NONE,
    Network,
    SimConfig,
    _count_nearer,
    _view_rows,
    spawn_network,
)
from swarmsim.overlay import (
    RoutingView,
    build_views,
    distance_keys,
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
    path = reference_route_path(net.views, net.failed, entry, addr)
    for pid in path:
        payload = probe(pid)
        if payload is not None:
            return payload, probes
    for pid in reference_neighbourhood(net.views, addr, path[-1], net.config.ns):
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


def reference_route_path(views, failed, entry, target):
    """Greedy walk over frozenset views: step to the live view member
    nearest target while it is nearer than the current peer."""
    t = int.from_bytes(target, "big")
    current, path = entry, [entry]
    while True:
        best, best_d = None, t ^ int.from_bytes(current, "big")
        for q in views[current].known:
            if q in failed:
                continue
            d = t ^ int.from_bytes(q, "big")
            if d < best_d:
                best, best_d = q, d
        if best is None:
            return path
        current = best
        path.append(current)


def reference_neighbourhood(views, addr, pid, ns):
    """The ns ids nearest addr among pid's view members and pid itself."""
    candidates = set(views[pid].known) | {pid}
    return tuple(reference_nearest(addr, candidates, min(ns, len(candidates))))


def reference_upload(config, views, stores, failed, data, params, coding):
    """Store a file's chunks on the path and the terminal neighbourhood from
    the seeded entry peer; in full sync, every live peer then keeps each
    chunk that fewer than ns of its view members are nearer to than itself."""
    peer_ids = list(stores)
    manifest, chunks = build_tree(split_file(data, params), params)
    if coding is not None:
        chunks = {**chunks, **encode_tree(manifest, chunks, coding)[1]}
    draw = derive_rng("upload-entry", config.seed, manifest.root)
    entry = peer_ids[draw.randrange(len(peer_ids))]
    for addr, payload in chunks.items():
        path = reference_route_path(views, failed, entry, addr)
        for pid in path:
            stores[pid][addr] = payload
        for pid in reference_neighbourhood(views, addr, path[-1], config.ns):
            if pid not in failed:
                stores[pid][addr] = payload
    if config.sync_mode != SYNC_FULL:
        return
    for pid in peer_ids:
        if pid in failed:
            continue
        for addr, payload in chunks.items():
            mine = xor_distance(addr, pid)
            closer = [q for q in views[pid].known if xor_distance(addr, q) < mine]
            if len(closer) < config.ns:
                stores[pid][addr] = payload


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


def members_of(ids, table):
    """Each peer's view members as a frozenset of ids, from a table of peer
    indices whose row i is peer i's view."""
    return {pid: frozenset(ids[j] for j in row) for pid, row in zip(ids, table.tolist())}


def neighbourhood(net, addr, i):
    """_neighbourhoods for the one address addr and terminal peer index i."""
    return net._neighbourhoods(distance_keys([addr]), np.array([i]))[0].tolist()


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
    index, dead = net._lookup_index(), net._dead()
    by_entry = misses = 0
    for entry in entries:
        for addr in addresses:
            got = net._locate(net.peer_index[entry], addr, dead, lambda: index)
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
        leaves = list(manifest.levels[0])
        leaves[0] = derive_bytes("not-a-leaf")
        edited = replace(manifest, levels=[leaves] + manifest.levels[1:])
        net.fail_peers(fraction=fraction, seed=2)
        entries = net.live_peers()[::17]
        got = [net.retrieve(edited, entry) for entry in entries]
        monkeypatch.setattr(
            Network,
            "_locate",
            lambda self, entry, addr, dead, index: reference_locate(
                self, self.peer_ids[entry], addr
            ),
        )
        assert got == [net.retrieve(edited, entry) for entry in entries]
        if fraction == 0.0:
            assert all(stats.success for _, stats in got)


def direct_count(live, a, d):
    return len([x for x in live if a ^ x < d])


def keys_of(ints, bits):
    """Distance keys of ints of the given width: ints of up to 64 bits are
    their own keys, wider ones keep their top 64 bits."""
    return np.array([x >> max(bits - 64, 0) for x in ints], dtype=np.uint64)


def array_count(live, a, d, bits):
    """_count_nearer for one target, over keys. Exact when live ids differ in
    their top 64 bits and d is a distance to one of them or a multiple of
    2 ** (bits - 64), as every bound the last lookup phase passes is."""
    return int(_count_nearer(keys_of(live, bits), keys_of([a], bits), keys_of([d], bits))[0])


class TestCountNearer:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_direct_count(self, data):
        """Ids of up to 64 bits are their own keys, so every bound is exact;
        several targets go in one call."""
        bits = data.draw(st.sampled_from([8, 16, 64]))
        ids = st.integers(0, 2**bits - 1)
        live = sorted(data.draw(st.sets(ids, max_size=120)))
        targets, bounds = [], []
        for _ in range(data.draw(st.integers(1, 8))):
            a = data.draw(ids)
            d = data.draw(
                st.one_of(
                    st.just(0),
                    ids,
                    st.sampled_from(live).map(lambda x: a ^ x) if live else st.just(1),
                )
            )
            targets.append(a)
            bounds.append(d)
        got = _count_nearer(keys_of(live, bits), keys_of(targets, bits), keys_of(bounds, bits))
        assert got.tolist() == [direct_count(live, a, d) for a, d in zip(targets, bounds)]

    @pytest.mark.parametrize("bits", [8, 16, 256])
    def test_edge_cases(self, bits):
        rng = random.Random(bits)
        live = sorted({rng.getrandbits(bits) for _ in range(300)})
        a = rng.getrandbits(bits)
        top = (2**64 - 1) << max(bits - 64, 0)  # the largest bound a key holds
        assert array_count([], a, 0, bits) == array_count([], a, top, bits) == 0
        assert array_count(live, a, 0, bits) == 0
        assert array_count(live, a, top, bits) == direct_count(live, a, top)
        for x in live:  # d from every holder, the target itself included
            for target in (a, x):
                d = target ^ x
                assert array_count(live, target, d, bits) == direct_count(live, target, d)

    def test_450_live_256_bit_ids(self):
        """450 live 256-bit ids, as in a 500-peer sweep at 10% failed, and 500
        targets in one call, so the count runs in two blocks."""
        rng = random.Random(7)
        live = sorted(rng.getrandbits(256) for _ in range(450))
        targets = [rng.getrandbits(256) for _ in range(500)]
        bounds = [a ^ rng.choice(live) for a in targets]
        got = _count_nearer(keys_of(live, 256), keys_of(targets, 256), keys_of(bounds, 256))
        assert got.tolist() == [direct_count(live, a, d) for a, d in zip(targets, bounds)]


# -- views --------------------------------------------------------------------


class TestViews:
    @pytest.mark.parametrize("n", [2, 3, 17, 200])
    @pytest.mark.parametrize("view_size", [1, 4, 16, 200, 500])
    def test_match_the_copy_per_peer_views(self, n, view_size):
        ids = make_peer_ids(n, n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = build_views(ids, view_size, 9)
        assert members_of(ids, got) == {
            pid: view.known for pid, view in reference_build_views(ids, view_size, 9).items()
        }

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
            table = build_views(make_peer_ids(n, n + 1), view_size, n + 1)
            _view_rows.cache_clear()
            nets = [spawn_network(cfg), spawn_network(cfg)]  # a miss, then a hit
        expected = reference_build_views(make_peer_ids(n, n + 1), view_size, n + 1)
        for net in nets:
            assert net._views is None  # built on first access only
            assert net.views == expected
            assert net.views is net.views
            assert np.array_equal(net._table, table)
            ints = [int.from_bytes(pid, "big") for pid in net.peer_ids]
            assert net._keys.tolist() == [x >> 192 for x in ints]
            assert {
                pid: sorted(ints[j] for j in row)
                for pid, row in zip(net.peer_ids, net._table.tolist())
            } == {
                pid: sorted(int.from_bytes(q, "big") for q in view.known)
                for pid, view in expected.items()
            }

    def test_table_is_equal_under_every_hash_seed(self):
        """Rows are ordered by distance, not by iterating a set of ids, so
        the table's bytes do not follow the string hash."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = ("import hashlib; from swarmsim.netsim import _view_rows; "
                  "print(hashlib.sha256(_view_rows(200, 1, 16)[2].tobytes()).hexdigest())")
        digests = set()
        for hashseed in ("0", "1"):
            env = {**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": src}
            done = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True, timeout=120, check=True)
            digests.add(done.stdout)
        assert len(digests) == 1

    def test_clamp_warning_fires_on_every_spawn(self):
        """Once per spawn; building the views from the rows does not warn."""
        cfg = SimConfig(num_peers=5, seed=11, view_size=16)
        _view_rows.cache_clear()
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                spawn_network(cfg).views
            assert [str(w.message) for w in caught] == [
                "view_size 16 >= peer count 5; clamping to 4"
            ]

    def test_networks_of_one_config_share_no_mutable_state(self):
        cfg = SimConfig(num_peers=40, seed=12, view_size=6)
        a, b = spawn_network(cfg), spawn_network(cfg)
        for attr in ("views", "stores", "peer_ids", "peer_index", "failed"):
            assert getattr(a, attr) is not getattr(b, attr), attr
        for pid in a.peer_ids:
            assert a.stores[pid] is not b.stores[pid]
        # the view table and the keys are shared, and nothing can write them
        assert a._table is b._table and a._keys is b._keys
        for shared in (a._table, a._table[0], a._keys):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1
        with pytest.raises(TypeError):
            a.views[a.peer_ids[0]] = None
        with pytest.raises(AttributeError):
            a.views = {}
        expected = spawn_network(cfg).views
        ids = list(a.peer_ids)
        a.peer_ids.reverse()
        a.peer_index.clear()
        a.stores[ids[0]][b"x" * 32] = b"x"
        c = spawn_network(cfg)
        assert b.views == c.views == expected
        assert c.peer_ids == b.peer_ids == ids
        assert c._table.shape == (40, 6)
        assert not any(c.stores.values()) and not any(b.stores.values())


# -- routing over the index rows ---------------------------------------------


def oracle_network(n, view_size, fraction, sync_mode=SYNC_FULL):
    """A spawned network with a seeded share of peers failed, and the
    reference views for its config."""
    cfg = SimConfig(num_peers=n, seed=n, view_size=view_size, ns=3, sync_mode=sync_mode)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # view_size >= n is clamped
        net = spawn_network(cfg)
    views = reference_build_views(make_peer_ids(n, n), view_size, n)
    net.fail_peers(fraction=fraction, seed=5)
    return net, views


SIZES = pytest.mark.parametrize("n,view_size", [
    (2, 1), (2, 16), (3, 1), (3, 2), (3, 16), (17, 4), (17, 16), (17, 40),
    (200, 4), (200, 16),
])


class TestRoutingOverIndexRows:
    @SIZES
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    def test_every_peer_routes_as_the_frozenset_walk(self, n, view_size, fraction):
        net, views = oracle_network(n, view_size, fraction)
        targets = [derive_bytes("target", i) for i in range(4)] + net.peer_ids[:2]
        for entry in net.peer_ids:  # failed entries included
            for target in targets:
                path = net.route_path(entry, target)
                assert path == reference_route_path(views, net.failed, entry, target)
                hood = neighbourhood(net, target, net.peer_index[path[-1]])
                assert tuple(net.peer_ids[j] for j in hood) == reference_neighbourhood(
                    views, target, path[-1], net.config.ns
                )

    @SIZES
    @pytest.mark.parametrize("fraction", [0.0, 0.3])
    @pytest.mark.parametrize("sync_mode", [SYNC_FULL, SYNC_NONE])
    def test_stores_after_uploads_match(self, n, view_size, fraction, sync_mode):
        """Two uploads, the second onto filled stores: every store holds the
        same chunks in the same insertion order as the frozenset upload."""
        net, views = oracle_network(n, view_size, fraction, sync_mode)
        stores = {pid: {} for pid in net.peer_ids}
        params = ChunkParams(chunk_size=1024, branching=4)
        for index, coding in enumerate([None, CodingParams(k=2, n=3)]):
            data = seeded_bytes(9_000, "oracle", index)
            net.upload(data, params, coding)
            reference_upload(net.config, views, stores, net.failed, data, params, coding)
            assert {pid: list(s.items()) for pid, s in net.stores.items()} == {
                pid: list(s.items()) for pid, s in stores.items()
            }
        assert any(net.stores.values())

    @SIZES
    def test_connectivity_degrees_are_view_sizes(self, n, view_size):
        net, views = oracle_network(n, view_size, 0.0)
        report = net.wait_for_connectivity(1)
        assert report.degrees == [len(views[pid].known) for pid in net.peer_ids]

    def test_unknown_entry_peer_rejected(self):
        net, _ = oracle_network(17, 4, 0.0)
        with pytest.raises(ValueError, match="unknown entry peer"):
            net.route_path(b"\x00" * 32, derive_bytes("target"))


# -- lookups in peer-index space ----------------------------------------------


def lookup_network(n, view_size, ns, seed=3):
    """A spawned network holding one uploaded 12 000-byte file."""
    cfg = SimConfig(num_peers=n, seed=seed, view_size=view_size, ns=ns, sync_mode=SYNC_NONE)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # view_size >= n is clamped
        net = spawn_network(cfg)
    manifest = net.upload(seeded_bytes(12_000, "index-space", n), ChunkParams(1024, 4))
    return net, list(listchunks(manifest))


def locate(net, entry, addr):
    """_locate from peer id entry, with the failed flags and lookup index
    built the way retrieve builds them."""
    index = functools.cache(net._lookup_index)
    return net._locate(net.peer_index[entry], addr, net._dead(), index)


def routed(net, count):
    """count (entry, address, path) triples with a path of three or more
    peers, over seeded addresses and every entry in turn."""
    found = []
    for i in range(10_000):
        entry = net.peer_ids[i % len(net.peer_ids)]
        addr = derive_bytes("routed", i)
        path = net.route_path(entry, addr)
        if len(path) >= 3:
            found.append((entry, addr, path))
            if len(found) == count:
                return found
    raise AssertionError("too few multi-hop routes")


class TestLookupsInIndexSpace:
    def test_a_holder_on_the_greedy_path(self):
        """The only holder sits on the path: the lookup stops there, one hop
        per path peer after the requester."""
        net, _ = lookup_network(80, 6, 3)
        for entry, addr, path in routed(net, 10):
            for at in range(1, len(path)):
                net.stores[path[at]][addr] = b"on-path"
                assert locate(net, entry, addr) == (b"on-path", at)
                assert locate(net, entry, addr) == reference_locate(net, entry, addr)
                del net.stores[path[at]][addr]

    def test_a_failed_peer_inside_the_terminal_neighbourhood(self):
        """A failed neighbourhood peer costs no hop and is passed over, also
        when it holds the chunk; the lookup reaches the next live holder."""
        net, _ = lookup_network(80, 6, 5)
        checked = 0
        for entry, addr, path in routed(net, 10):
            hood = [net.peer_ids[j] for j in neighbourhood(net, addr, net.peer_index[path[-1]])]
            off_path = [pid for pid in hood if pid not in path]
            if len(off_path) < 2:
                continue
            dead, holder = off_path[0], off_path[-1]
            net.fail_peers(peers=[dead])
            assert net.route_path(entry, addr) == path  # it was never chosen
            for stored in ([dead, holder], [dead]):
                for pid in stored:
                    net.stores[pid][addr] = b"hood"
                got = locate(net, entry, addr)
                assert got == reference_locate(net, entry, addr)
                assert got[0] == (b"hood" if holder in stored else None)
                for pid in stored:
                    del net.stores[pid][addr]
            net.failed.clear()
            checked += 1
        assert checked >= 5

    def test_a_failed_requester(self):
        """A failed requester is never probed and costs no hop, in any phase;
        the lookup starts its walk from it all the same."""
        net, addresses = lookup_network(80, 6, 3)
        net.fail_peers(fraction=0.3, seed=2)
        failed = sorted(net.failed, key=net.peer_index.__getitem__)
        for entry in failed[::3]:
            for addr in addresses + [derive_bytes("absent")]:
                assert locate(net, entry, addr) == reference_locate(net, entry, addr)

    def test_ns_larger_than_the_view(self):
        """ns=20 over 16-member views: the neighbourhood is the whole view."""
        net, addresses = lookup_network(90, 16, 20)
        assert all(len(neighbourhood(net, addresses[0], i)) == 17 for i in range(90))
        net.fail_peers(fraction=0.3, seed=4)
        entries = net.live_peers()[::7]
        assert_lookups_match(net, addresses + [derive_bytes("absent")], entries)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("fraction", [0.0, 0.4])
    def test_two_and_three_peers(self, n, fraction):
        net, addresses = lookup_network(n, 16, 3)
        net.fail_peers(fraction=fraction, seed=1)
        entries = net.live_peers()
        assert_lookups_match(net, addresses + [derive_bytes("absent")], entries)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 3),
        view_size=st.integers(1, 20),
        ns=st.integers(1, 20),
        peer=st.integers(0, 59),
        addr=st.binary(min_size=32, max_size=32),
    )
    def test_neighbourhood_is_responsible_peers(self, n, seed, view_size, ns, peer, addr):
        cfg = SimConfig(num_peers=n, seed=seed, view_size=view_size, ns=ns)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            net = spawn_network(cfg)
        pid = net.peer_ids[peer % n]
        hood = neighbourhood(net, addr, peer % n)
        assert tuple(net.peer_ids[j] for j in hood) == responsible_peers(
            addr, pid, net.views[pid].known, ns
        )
