import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmsim.chunker import ChunkParams, content_address
from swarmsim.codec import CodingParams, manifest_root
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
    load_snapshot,
    network_from_snapshot,
    save_snapshot,
    spawn_network,
)
from swarmsim.overlay import xor_distance
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
        victim = manifest.base.levels[0][2]
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
            if addr != manifest.base.root:
                for store in net.stores.values():
                    store.pop(addr, None)
        out, stats = net.retrieve(manifest, net.peer_ids[1])
        assert out is None
        assert not stats.success
        assert "unrecoverable" in stats.error

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


class TestManifestKinds:
    def test_upload_returns_encoded_manifest_when_coding(self):
        net = small_net()
        plain = net.upload(seeded_bytes(10_000, "kind"), ChunkParams())
        coded = net.upload(
            seeded_bytes(10_000, "kind2"), ChunkParams(), CodingParams(k=2, n=3)
        )
        assert not hasattr(plain, "groups")
        assert hasattr(coded, "groups")
        assert len(manifest_root(plain)) == 32
        assert len(manifest_root(coded)) == 32
