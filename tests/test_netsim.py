import errno
import os
import shutil
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim.chunker import ChunkParams, content_address
from swarmsim.codec import CodingParams
from swarmsim.errors import (
    ConnectivityError,
    SnapshotMismatchError,
    SwarmSimError,
)
from swarmsim.netsim import (
    Network,
    SimConfig,
    SYNC_FULL,
    SYNC_NONE,
    backend_assignment,
    holders,
    load_snapshot,
    network_from_snapshot,
    save_snapshot,
    spawn_network,
)
from swarmsim.overlay import make_peer_ids, xor_distance
from swarmsim.seeds import seeded_bytes
from swarmsim.tools import listchunks

B3 = ChunkParams(chunk_size=4096, branching=3)


def small_net(num_peers=50, seed=7, **kw):
    return spawn_network(SimConfig(num_peers=num_peers, seed=seed, **kw))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(num_peers=1)
        with pytest.raises(ValueError):
            SimConfig(num_peers=10, seed=-1)
        with pytest.raises(ValueError):
            SimConfig(num_peers=10, sync_mode="half")
        with pytest.raises(ValueError):
            SimConfig(num_peers=10, num_backends=0)

    def test_backend_assignment_wraps_at_29(self):
        assignment = backend_assignment(31, 29)
        assert assignment[:3] == [0, 1, 2]
        assert assignment[28] == 28
        assert assignment[29] == 0
        assert assignment[30] == 1


class TestSpawn:
    def test_identical_configs_spawn_identical_networks(self):
        a, b = small_net(), small_net()
        assert a.peer_ids == b.peer_ids
        assert a.views == b.views
        assert a.census_digest() == b.census_digest()

    def test_stores_start_empty(self):
        net = small_net()
        assert all(store == {} for store in net.stores.values())
        assert net.failed == set()


class TestRouting:
    def test_path_distances_strictly_decrease(self):
        net = small_net(200, 3)
        target = content_address(b"somewhere")
        for entry in net.peer_ids[:20]:
            path = net.route_path(entry, target)
            dists = [xor_distance(pid, target) for pid in path]
            assert path[0] == entry
            assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_path_avoids_failed_peers(self):
        net = small_net(100, 3)
        target = content_address(b"x")
        full_path = net.route_path(net.peer_ids[0], target)
        if len(full_path) > 1:
            net.fail_peers(peers=[full_path[1]])
            rerouted = net.route_path(net.peer_ids[0], target)
            assert full_path[1] not in rerouted

    def test_unknown_entry_rejected(self):
        net = small_net()
        with pytest.raises(ValueError, match="unknown entry"):
            net.route_path(b"\x00" * 32, content_address(b"y"))


class TestUpload:
    def test_roundtrip_through_the_network(self):
        net = small_net()
        data = seeded_bytes(100_000, "roundtrip")
        manifest = net.upload(data, ChunkParams())
        out, stats = net.retrieve(manifest, net.peer_ids[0])
        assert stats.success
        assert out == data
        assert stats.bytes_fetched >= len(data)
        assert stats.repaired_groups == 0
        assert stats.error is None

    def test_every_chunk_reaches_at_least_the_neighborhood(self):
        net = small_net()
        manifest = net.upload(seeded_bytes(50_000, "spread"), ChunkParams())
        for addr in listchunks(manifest):
            holders = sum(1 for pid in net.peer_ids if addr in net.stores[pid])
            assert holders >= net.config.ns

    def test_stored_payloads_hash_to_their_addresses(self):
        net = small_net()
        net.upload(seeded_bytes(30_000, "integrity"), ChunkParams())
        for store in net.stores.values():
            for addr, payload in store.items():
                assert content_address(payload) == addr

    def test_upload_skips_failed_stores(self):
        net = small_net()
        victims = net.fail_peers(fraction=0.2, seed=1)
        net.upload(seeded_bytes(20_000, "failed"), ChunkParams())
        assert all(net.stores[pid] == {} for pid in victims)

    def test_no_sync_stores_strictly_less(self):
        full = small_net(sync_mode=SYNC_FULL)
        quiet = small_net(sync_mode=SYNC_NONE)
        data = seeded_bytes(50_000, "modes")
        full.upload(data, ChunkParams())
        quiet.upload(data, ChunkParams())
        count = lambda net: sum(len(s) for s in net.stores.values())
        assert count(quiet) < count(full)

    def test_coded_upload_places_parity(self):
        net = small_net()
        manifest = net.upload(
            seeded_bytes(36_864, "coded"), B3, CodingParams(k=3, n=4)
        )
        for group in manifest.groups:
            for addr in group.parity_addresses:
                assert any(addr in net.stores[pid] for pid in net.peer_ids)

    def test_deterministic_across_runs(self):
        def run():
            net = small_net(seed=11)
            net.upload(seeded_bytes(60_000, "det"), ChunkParams())
            net.upload(seeded_bytes(9_000, "det2"), ChunkParams())
            net.fail_peers(fraction=0.25, seed=5)
            return net.census_digest(), sorted(net.failed)

        assert run() == run()


class TestRetrieve:
    def test_read_only(self):
        net = small_net()
        manifest = net.upload(seeded_bytes(40_000, "ro"), ChunkParams())
        before = net.census_digest()
        net.retrieve(manifest, net.peer_ids[3])
        assert net.census_digest() == before

    def test_failed_entry_peer_fails_fast(self):
        net = small_net()
        manifest = net.upload(seeded_bytes(10_000, "entry"), ChunkParams())
        entry = net.peer_ids[0]
        net.fail_peers(peers=[entry])
        out, stats = net.retrieve(manifest, entry)
        assert out is None
        assert not stats.success
        assert "entry peer" in stats.error

    def test_survives_failures_without_coding_while_replicas_last(self):
        net = small_net(100, 5)
        data = seeded_bytes(80_000, "failures")
        manifest = net.upload(data, ChunkParams())
        net.fail_peers(fraction=0.3, seed=2)
        out, stats = net.retrieve(manifest, net.live_peers()[0])
        assert stats.success
        assert out == data

    def test_repairs_a_chunk_lost_from_every_store(self):
        net = small_net()
        data = seeded_bytes(36_864, "lost")
        manifest = net.upload(data, B3, CodingParams(k=3, n=4))
        victim = manifest.levels[0][2]
        for store in net.stores.values():
            store.pop(victim, None)
        out, stats = net.retrieve(manifest, net.peer_ids[1])
        assert stats.success
        assert out == data
        assert stats.repaired_groups == 1

    def test_unrecoverable_file_reports_failure_not_exception(self):
        net = small_net()
        data = seeded_bytes(36_864, "gone")
        manifest = net.upload(data, B3, CodingParams(k=3, n=4))
        group = manifest.groups[0]
        for addr in group.data_addresses + group.parity_addresses:
            if addr != manifest.root:
                for store in net.stores.values():
                    store.pop(addr, None)
        out, stats = net.retrieve(manifest, net.peer_ids[1])
        assert out is None
        assert not stats.success
        assert "unrecoverable" in stats.error

    def test_a_repeated_chunk_is_located_once_plain_or_coded(self):
        # a zero-filled file repeats one leaf 73 times: plain and coded alike
        # locate the root, that leaf and the short last leaf once each
        for data, expected in (
            (bytes(300_000), (2, 7_456)),
            (seeded_bytes(300_000, "random"), (67, 302_368)),
        ):
            for coding in (None, CodingParams(k=4, n=6)):
                net = small_net(60, 3)
                manifest = net.upload(data, coding=coding)
                net.fail_peers(fraction=0.2, seed=1)
                out, stats = net.retrieve(manifest, net.live_peers()[0])
                assert out == data
                assert (stats.hops, stats.bytes_fetched) == expected

    def test_file_size_disagreeing_with_the_leaves_is_a_failure_record(self):
        net = small_net()
        manifest = net.upload(seeded_bytes(50_000, "size"), ChunkParams())
        out, stats = net.retrieve(replace(manifest, file_size=49_000), net.peer_ids[0])
        assert out is None
        assert not stats.success
        assert stats.error == "reassembled 50000 bytes, expected 49000"

    def test_file_size_disagreeing_with_a_repaired_group_is_a_failure_record(self):
        # repairing a group needs its data lengths, which come from file_size
        net = small_net()
        manifest = net.upload(seeded_bytes(50_000, "size"), ChunkParams(), CodingParams(k=3, n=4))
        for store in net.stores.values():
            store.pop(manifest.levels[0][0], None)
        out, stats = net.retrieve(replace(manifest, file_size=49_000), net.peer_ids[0])
        assert out is None
        assert not stats.success
        assert stats.error == "file size 49000 inconsistent with leaf count 13"

    def test_hops_count_only_other_peers(self):
        net = small_net()
        manifest = net.upload(seeded_bytes(5_000, "hops"), ChunkParams())
        # find a peer holding every chunk of the file, if any: its own
        # retrieval costs zero hops
        addrs = set(listchunks(manifest))
        for pid in net.peer_ids:
            if addrs <= set(net.stores[pid]):
                _, stats = net.retrieve(manifest, pid)
                assert stats.hops == 0
                break


class TestFailures:
    def test_fraction_zero_and_one(self):
        net = small_net()
        assert net.fail_peers(fraction=0.0) == []
        assert net.live_peers() == net.peer_ids
        chosen = net.fail_peers(fraction=1.0, seed=1)
        assert chosen == net.peer_ids
        assert net.live_peers() == []

    def test_explicit_peer_list(self):
        net = small_net()
        victims = [net.peer_ids[4], net.peer_ids[2]]
        returned = net.fail_peers(peers=victims)
        assert returned == [net.peer_ids[2], net.peer_ids[4]]
        assert net.failed == set(victims)

    def test_seed_changes_the_draw(self):
        net_a, net_b = small_net(), small_net()
        a = net_a.fail_peers(fraction=0.3, seed=1)
        b = net_b.fail_peers(fraction=0.3, seed=2)
        assert a != b
        assert len(a) == len(b) == 15

    def test_argument_validation(self):
        net = small_net()
        with pytest.raises(ValueError, match="exactly one"):
            net.fail_peers()
        with pytest.raises(ValueError, match="exactly one"):
            net.fail_peers(fraction=0.5, peers=[net.peer_ids[0]])
        with pytest.raises(ValueError):
            net.fail_peers(fraction=1.5)
        with pytest.raises(ValueError, match="unknown"):
            net.fail_peers(peers=[b"\x01" * 32])


class TestConnectivity:
    def test_healthy_network_passes(self):
        net = small_net()
        report = net.wait_for_connectivity(1)
        assert len(report.degrees) == 50
        assert min(report.degrees) >= 1

    def test_threshold_above_view_size_fails_with_degrees(self):
        net = small_net(10, 1, view_size=3)
        with pytest.raises(ConnectivityError) as exc:
            net.wait_for_connectivity(5)
        assert exc.value.degrees == [3] * 10

    def test_impossible_threshold_rejected(self):
        net = small_net(10, 1, view_size=4)
        with pytest.raises(ValueError, match="cannot be met"):
            net.wait_for_connectivity(10)


class TestSnapshotRestore:
    def test_restore_undoes_failures_and_deletions(self):
        net = small_net()
        net.upload(seeded_bytes(50_000, "snap"), ChunkParams())
        snap = net.snapshot()
        net.fail_peers(fraction=0.4, seed=3)
        net.sync_mode = SYNC_NONE
        for store in net.stores.values():
            store.clear()
        digest = net.restore(snap)
        assert digest == snap.digest
        assert net.census_digest() == snap.digest
        assert net.failed == set()
        assert net.sync_mode == SYNC_NONE

    def test_restore_rejects_wrong_network(self):
        net = small_net()
        other = small_net(num_peers=49)
        with pytest.raises(SnapshotMismatchError, match="49 peers"):
            net.restore(other.snapshot())
        strange = small_net(seed=8)
        with pytest.raises(SnapshotMismatchError, match="peer ids"):
            net.restore(strange.snapshot())

    def test_snapshot_is_a_deep_copy(self):
        net = small_net()
        net.upload(seeded_bytes(10_000, "deep"), ChunkParams())
        snap = net.snapshot()
        for store in net.stores.values():
            store.clear()
        assert sum(len(s) for s in snap.stores.values()) > 0


class TestDiskSnapshots:
    def test_roundtrip(self, tmp_path):
        net = small_net(31, 2)
        net.upload(seeded_bytes(25_000, "disk"), ChunkParams())
        snap = net.snapshot()
        save_snapshot(snap, tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded.config == snap.config
        assert loaded.digest == snap.digest
        assert loaded.stores == snap.stores

    def test_peer_30_lands_on_backend_1(self, tmp_path):
        net = small_net(31, 2)
        net.upload(seeded_bytes(25_000, "disk"), ChunkParams())
        root = save_snapshot(net.snapshot(), tmp_path / "snap")
        assert (root / "backend-1" / net.peer_ids[30].hex()).is_dir()
        assert (root / "backend-0" / net.peer_ids[29].hex()).is_dir()

    def test_corrupt_payload_detected(self, tmp_path):
        net = small_net(10, 2, view_size=4)
        net.upload(seeded_bytes(9_000, "corrupt"), ChunkParams())
        root = save_snapshot(net.snapshot(), tmp_path / "snap")
        victim = next(root.glob("backend-*/*/*"))
        victim.write_bytes(b"tampered")
        with pytest.raises(SwarmSimError, match="corrupt snapshot"):
            load_snapshot(root)

    def test_missing_manifest_detected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(tmp_path / "nothing")

    def test_network_from_snapshot_keeps_sync_mode(self, tmp_path):
        net = small_net(10, 2, view_size=4, sync_mode=SYNC_FULL)
        net.upload(seeded_bytes(9_000, "mode"), ChunkParams())
        save_snapshot(net.snapshot(), tmp_path / "snap")
        loaded = network_from_snapshot(load_snapshot(tmp_path / "snap"))
        assert loaded.sync_mode == SYNC_FULL
        assert loaded.census_digest() == net.census_digest()

    @pytest.mark.parametrize(
        "line, error",
        [
            ("view-size=8", "unknown snapshot manifest key 'view-size'"),
            ("syncmode=no_sync", "unknown snapshot manifest key 'syncmode'"),
            ("garbage line", "malformed snapshot manifest line: 'garbage line'"),
            ("seed=3", "duplicate snapshot manifest key 'seed'"),
        ],
    )
    def test_manifest_rejects_a_bad_line_and_names_it(self, tmp_path, line, error):
        root = save_snapshot(small_net(10, 2, view_size=4).snapshot(), tmp_path / "snap")
        manifest = root / "manifest.txt"
        manifest.write_text(manifest.read_text() + line + "\n")
        with pytest.raises(ValueError, match=error):
            load_snapshot(root)

    def test_manifest_missing_key_is_named(self, tmp_path):
        root = save_snapshot(small_net(10, 2, view_size=4).snapshot(), tmp_path / "snap")
        manifest = root / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("ns=4\n", ""))
        with pytest.raises(ValueError, match="snapshot manifest missing 'ns'"):
            load_snapshot(root)

    @pytest.mark.parametrize(
        "key, value, error",
        [
            ("num_peers", "four", "invalid literal"),
            ("ns", "4.0", "invalid literal"),
            # int() would read these three as 10, 2 and 4
            ("num_peers", "1_0", "invalid literal"),
            ("seed", "+2", "invalid literal"),
            ("ns", "0_4", "invalid literal"),
            ("num_peers", "", "empty value"),
            ("sync_mode", "", "empty value"),
            ("census_digest", " ", "empty value"),
        ],
    )
    def test_manifest_bad_or_empty_value_is_named(self, tmp_path, key, value, error):
        root = save_snapshot(small_net(10, 2, view_size=4).snapshot(), tmp_path / "snap")
        manifest = root / "manifest.txt"
        manifest.write_text("".join(
            f"{key}={value}\n" if line.startswith(f"{key}=") else line + "\n"
            for line in manifest.read_text().splitlines()
        ))
        with pytest.raises(ValueError, match=f"^snapshot manifest key '{key}': {error}"):
            load_snapshot(root)

    @pytest.mark.filterwarnings("ignore:view_size")
    @settings(max_examples=25, deadline=None)
    @given(
        config=st.builds(
            SimConfig,
            num_peers=st.integers(2, 12),
            seed=st.integers(0, 2**64 - 1),
            view_size=st.integers(1, 16),
            ns=st.integers(1, 6),
            sync_mode=st.sampled_from([SYNC_FULL, SYNC_NONE]),
            num_backends=st.integers(1, 40),
        )
    )
    def test_config_roundtrips_through_the_manifest(self, tmp_path_factory, config):
        net = spawn_network(config)
        net.stores[net.peer_ids[-1]][content_address(b"x")] = b"x"
        snap = net.snapshot()
        root = save_snapshot(snap, tmp_path_factory.mktemp("snap"))
        assert (root / "manifest.txt").read_text() == (
            f"num_peers={config.num_peers}\nseed={config.seed}\n"
            f"view_size={config.view_size}\nns={config.ns}\n"
            f"sync_mode={config.sync_mode}\nnum_backends={config.num_backends}\n"
            f"census_digest={snap.digest}\n"
        )
        loaded = load_snapshot(root)
        assert loaded.config == config
        assert loaded.stores == snap.stores

    def test_save_replaces_stale_snapshot(self, tmp_path):
        net = small_net(10, 2, view_size=4)
        net.upload(seeded_bytes(9_000, "stale"), ChunkParams())
        save_snapshot(net.snapshot(), tmp_path / "snap")
        for store in net.stores.values():
            store.clear()
        save_snapshot(net.snapshot(), tmp_path / "snap")
        loaded = load_snapshot(tmp_path / "snap")
        assert sum(len(s) for s in loaded.stores.values()) == 0



def saved_ten_peers(tmp_path):
    """A saved 10-peer state on the default 29 backends with one upload,
    plus the network it came from."""
    net = small_net(10, 2, view_size=4)
    net.upload(seeded_bytes(9_000, "strict"), ChunkParams())
    return net, save_snapshot(net.snapshot(), tmp_path / "snap")


def some_chunk(root: Path) -> Path:
    return next(root.glob("backend-*/*/*"))


class TestStrictLoad:
    """Everything under a snapshot is named by its layout; anything else
    is corruption, reported with its path."""

    def corrupt(self, root: Path, path: Path) -> None:
        with pytest.raises(SwarmSimError, match="corrupt snapshot: ") as err:
            load_snapshot(root)
        assert str(path) in str(err.value)

    def test_unknown_peer_directory(self, tmp_path):
        _, root = saved_ten_peers(tmp_path)
        stray = root / "backend-0" / ("ee" * 32)
        stray.mkdir()
        chunk = some_chunk(root)
        (stray / chunk.name).write_bytes(chunk.read_bytes())
        self.corrupt(root, stray)

    def test_peer_directory_on_the_wrong_backend(self, tmp_path):
        net, root = saved_ten_peers(tmp_path)
        misplaced = root / "backend-3" / net.peer_ids[0].hex()
        misplaced.mkdir(parents=True)
        chunk = some_chunk(root)
        (misplaced / chunk.name).write_bytes(chunk.read_bytes())
        self.corrupt(root, misplaced)

    @pytest.mark.parametrize("name", ["backend-99", "backend-29", "backend-01", "notes"])
    def test_root_entry_outside_the_layout(self, tmp_path, name):
        _, root = saved_ten_peers(tmp_path)
        (root / name).mkdir()
        self.corrupt(root, root / name)

    def test_root_file_named_like_a_backend(self, tmp_path):
        _, root = saved_ten_peers(tmp_path)
        (root / "backend-12").write_bytes(b"")
        self.corrupt(root, root / "backend-12")

    def test_peer_path_that_is_a_file(self, tmp_path):
        net, root = saved_ten_peers(tmp_path)
        peer_dir = root / "backend-4" / net.peer_ids[4].hex()
        shutil.rmtree(peer_dir)
        peer_dir.write_bytes(b"")
        self.corrupt(root, peer_dir)

    @pytest.mark.parametrize("name", ["notes", "AA" * 32, "aa" * 31, "aa" * 33])
    def test_peer_directory_entry_not_named_by_an_address(self, tmp_path, name):
        _, root = saved_ten_peers(tmp_path)
        stray = some_chunk(root).parent / name
        stray.write_bytes(b"notes")
        self.corrupt(root, stray)

    def test_directory_named_by_an_address(self, tmp_path):
        _, root = saved_ten_peers(tmp_path)
        stray = some_chunk(root).parent / ("dd" * 32)
        stray.mkdir()
        self.corrupt(root, stray)

    def test_missing_peer_directories_and_empty_backends_still_load(self, tmp_path):
        net = small_net(10, 2, view_size=4)
        net.upload(seeded_bytes(9_000, "strict"), ChunkParams())
        for i in (3, 7):
            net.stores[net.peer_ids[i]].clear()
        root = save_snapshot(net.snapshot(), tmp_path / "snap")
        for i in (3, 7):
            (root / f"backend-{i}" / net.peer_ids[i].hex()).rmdir()
        (root / "backend-28").mkdir()
        loaded = load_snapshot(root)
        assert loaded.stores == net.snapshot().stores


class TestHolders:
    def test_holders_in_store_order_with_skip(self):
        a, b, c = (bytes([i]) * 32 for i in (1, 2, 3))
        stores = {b"q": {a: b"", b: b""}, b"p": {b: b"", c: b""}, b"r": {}, b"s": {a: b""}}
        assert holders(stores) == {a: [b"q", b"s"], b: [b"q", b"p"], c: [b"p"]}
        assert list(holders(stores)) == [a, b, c]
        assert holders(stores, skip={b"q"}) == {b: [b"p"], c: [b"p"], a: [b"s"]}
        assert list(holders(stores, skip={b"q"})) == [b, c, a]
        assert holders(stores, skip=set(stores)) == {}

    def test_empty_stores(self):
        assert holders({}) == {}
        assert holders({b"p": {}, b"q": {}}) == {}


def reference_save(snap, root: Path) -> None:
    """One write per replica, every peer directory made even when its store
    is empty: the writer that save_snapshot's output must match."""
    cfg = snap.config
    assignment = backend_assignment(cfg.num_peers, cfg.num_backends)
    for index, pid in enumerate(make_peer_ids(cfg.num_peers, cfg.seed)):
        peer_dir = root / f"backend-{assignment[index]}" / pid.hex()
        peer_dir.mkdir(parents=True)
        for addr, payload in snap.stores[pid].items():
            (peer_dir / addr.hex()).write_bytes(payload)
    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(SimConfig)]
    lines.append(f"census_digest={snap.digest}")
    (root / "manifest.txt").write_text("\n".join(lines) + "\n")


def tree(root: Path) -> dict[str, bytes | None]:
    """{relative path: bytes} of every file, None for every directory."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in root.rglob("*")
    }


def old_and_new(num_peers=31):
    """Snapshots of one network before and after a second upload."""
    net = small_net(num_peers, 2)
    net.upload(seeded_bytes(25_000, "old"), B3)
    old = net.snapshot()
    net.upload(seeded_bytes(25_000, "new"), B3, CodingParams(k=2, n=3))
    return old, net.snapshot()


def fail_call(monkeypatch, owner, name, k):
    """Make the k-th call of owner.name raise, as a full disk or a crash
    would; the other calls go through."""
    original = getattr(owner, name)
    calls = 0

    def failing(*args):
        nonlocal calls
        calls += 1
        if calls == k:
            raise OSError(errno.ENOSPC, "injected failure")
        return original(*args)

    monkeypatch.setattr(owner, name, failing)


class TestStagedSave:
    @pytest.mark.parametrize("coding", [None, CodingParams(k=2, n=3)], ids=["plain", "coded"])
    def test_tree_matches_the_per_file_writer(self, tmp_path, coding):
        net = small_net(31, 2)
        net.upload(seeded_bytes(25_000, "tree"), B3, coding)
        snap = net.snapshot()
        reference_save(snap, tmp_path / "ref")
        root = save_snapshot(snap, tmp_path / "snap")
        assert tree(root) == tree(tmp_path / "ref")
        # each distinct payload is one file, linked once per replica
        replicas = Counter(addr for store in snap.stores.values() for addr in store)
        assert max(replicas.values()) > 1
        for path in root.glob("backend-*/*/*"):
            assert path.stat().st_nlink == replicas[bytes.fromhex(path.name)]

    def test_tree_is_the_same_when_links_fail(self, tmp_path, monkeypatch):
        _, snap = old_and_new()
        reference_save(snap, tmp_path / "ref")

        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", refuse)
        root = save_snapshot(snap, tmp_path / "snap")
        assert tree(root) == tree(tmp_path / "ref")
        assert {p.stat().st_nlink for p in root.glob("backend-*/*/*")} == {1}
        assert load_snapshot(root).digest == snap.digest

    def test_unequal_payloads_under_one_address_are_not_linked(self, tmp_path):
        net = small_net(10, 2, view_size=4)
        addr = content_address(b"x")
        net.stores[net.peer_ids[0]][addr] = b"x"
        net.stores[net.peer_ids[1]][addr] = b"y"
        root = save_snapshot(net.snapshot(), tmp_path / "snap")
        files = sorted(root.glob(f"backend-*/*/{addr.hex()}"))
        assert sorted(p.read_bytes() for p in files) == [b"x", b"y"]
        with pytest.raises(SwarmSimError, match="corrupt snapshot"):
            load_snapshot(root)

    def test_a_copy_shares_no_file_with_its_source(self, tmp_path):
        _, snap = old_and_new()
        source = save_snapshot(snap, tmp_path / "state")
        copy = save_snapshot(load_snapshot(source), tmp_path / "saved")
        assert tree(copy) == tree(source)
        inodes = {p.stat().st_ino for p in source.glob("backend-*/*/*")}
        assert inodes.isdisjoint(p.stat().st_ino for p in copy.glob("backend-*/*/*"))

    def test_load_keeps_one_object_per_address(self, tmp_path):
        _, snap = old_and_new()
        loaded = load_snapshot(save_snapshot(snap, tmp_path / "snap"))
        first: dict[bytes, bytes] = {}
        for store in loaded.stores.values():
            for addr, payload in store.items():
                assert first.setdefault(addr, payload) is payload

    @pytest.mark.parametrize("k", [1, 5])
    def test_a_failed_payload_write_keeps_the_old_state(self, tmp_path, monkeypatch, k):
        old, new = old_and_new()
        root = save_snapshot(old, tmp_path / "snap")
        fail_call(monkeypatch, Path, "write_bytes", k)
        with pytest.raises(OSError, match="injected failure"):
            save_snapshot(new, root)
        monkeypatch.undo()
        loaded = load_snapshot(root)
        assert loaded.digest == old.digest
        assert loaded.stores == old.stores

    def test_a_stale_staging_tree_is_removed(self, tmp_path):
        _, snap = old_and_new()
        stale = tmp_path / ".snap.saving" / "backend-0"
        stale.mkdir(parents=True)
        (stale / "junk").write_bytes(b"junk")
        root = save_snapshot(snap, tmp_path / "snap")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]
        assert load_snapshot(root).digest == snap.digest

    def test_a_crash_between_the_renames_is_rolled_back(self, tmp_path, monkeypatch):
        old, new = old_and_new()
        root = save_snapshot(old, tmp_path / "snap")
        fail_call(monkeypatch, Path, "rename", 2)
        with pytest.raises(OSError, match="injected failure"):
            save_snapshot(new, root)
        monkeypatch.undo()
        # the window the docstring names: both trees are whole, the target is gone
        assert not root.exists()
        assert load_snapshot(tmp_path / ".snap.old").digest == old.digest
        assert load_snapshot(tmp_path / ".snap.saving").digest == new.digest
        # the next save first puts the old state back, so even a save that
        # fails at once leaves it loadable
        fail_call(monkeypatch, Path, "write_bytes", 1)
        with pytest.raises(OSError, match="injected failure"):
            save_snapshot(new, root)
        monkeypatch.undo()
        assert load_snapshot(root).digest == old.digest
        save_snapshot(new, root)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]
        assert load_snapshot(root).digest == new.digest

    def test_a_foreign_entry_is_refused_before_anything_is_written(self, tmp_path):
        old, new = old_and_new()
        root = save_snapshot(old, tmp_path / "snap")
        (root / "notes.txt").write_text("mine")
        before = tree(root)
        with pytest.raises(ValueError, match="'notes.txt'"):
            save_snapshot(new, root)
        assert tree(root) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["snap"]

    def test_a_symlinked_target_keeps_its_link(self, tmp_path):
        old, new = old_and_new()
        save_snapshot(old, tmp_path / "real")
        (tmp_path / "link").symlink_to(tmp_path / "real")
        save_snapshot(new, tmp_path / "link")
        assert (tmp_path / "link").is_symlink()
        assert load_snapshot(tmp_path / "real").digest == new.digest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "real"]


class TestManifestKinds:
    def test_upload_returns_encoded_manifest_when_coding(self):
        net = small_net()
        plain = net.upload(seeded_bytes(10_000, "kind"), ChunkParams())
        coded = net.upload(
            seeded_bytes(10_000, "kind2"), ChunkParams(), CodingParams(k=2, n=3)
        )
        assert plain.coding is None
        assert coded.coding is not None
        assert len(plain.root) == 32
        assert len(coded.root) == 32
