import dataclasses

import pytest

from swarmsim.chunker import ChunkParams
from swarmsim.codec import CodingParams, group_data_lengths
from swarmsim.errors import InfeasiblePlanError, SnapshotMismatchError
from swarmsim.harness import (
    ExperimentConfig,
    census,
    derive_manifests,
    emit_reports,
    file_bytes,
    iteration_seed,
    parse_experiment_config,
    prepare,
    run_experiment,
    run_iterations,
)
from swarmsim.netsim import SYNC_FULL, SYNC_NONE, SimConfig, spawn_network
from swarmsim.overlay import make_peer_ids
from swarmsim.seeds import derive_rng
from swarmsim.tools import listchunks

CONFIG = ExperimentConfig(
    sim=SimConfig(num_peers=40, seed=9, view_size=12, ns=4),
    file_sizes=(150_000, 120_000),
    coding=CodingParams(k=3, n=4),
    target_r=2,
    fractions=(0.0, 0.3, 0.6),
    iterations=2,
    min_degree=2,
)


@pytest.fixture(scope="module")
def prepared():
    network = spawn_network(CONFIG.sim)
    return prepare(network, CONFIG)


@pytest.fixture(scope="module")
def results(prepared):
    return run_iterations(prepared.snapshot, CONFIG)


def failure_set(config, fraction_index, iteration):
    """The failure draw run_iterations makes for one cell, rebuilt from the
    seed derivation alone."""
    sim = config.sim
    peer_ids = make_peer_ids(sim.num_peers, sim.seed)
    fraction = config.fractions[fraction_index]
    count = int(round(fraction * len(peer_ids)))
    rng = derive_rng("fail", sim.seed, iteration_seed(sim.seed, fraction_index, iteration))
    return set(rng.sample(peer_ids, count))


def survives(snapshot, manifest, failed):
    """Group-survival oracle: the root is live, and every coding group keeps
    at least k' symbols on live peers (for plain manifests: every chunk)."""
    live = [pid for pid in snapshot.stores if pid not in failed]

    def live_holds(addr):
        return any(addr in snapshot.stores[pid] for pid in live)

    if manifest.coding is not None:
        if not live_holds(manifest.root):
            return False
        for group, lengths in zip(manifest.groups, group_data_lengths(manifest)):
            members = group.data_addresses + group.parity_addresses
            if sum(live_holds(a) for a in members) < len(lengths):
                return False
        return True
    return all(live_holds(a) for a in listchunks(manifest))


class TestPrepare:
    def test_uploads_show_superpeer_spread_before_normalization(self, prepared):
        hist = prepared.census_before.replicas_per_chunk
        assert max(hist) > min(hist)

    def test_rules_verified_and_uniform_after(self, prepared):
        assert prepared.rules.ok
        assert prepared.census_after.replicas_per_chunk == {
            2: prepared.census_after.distinct_chunks
        }

    def test_snapshot_records_no_sync(self, prepared):
        assert prepared.snapshot.config.sync_mode == SYNC_NONE

    def test_deterministic_across_fresh_networks(self, prepared):
        again = prepare(spawn_network(CONFIG.sim), CONFIG)
        assert again.snapshot.digest == prepared.snapshot.digest
        assert again.deletions == prepared.deletions
        assert again.file_ids == prepared.file_ids

    def test_manifests_match_offline_derivation(self, prepared):
        offline = derive_manifests(CONFIG)
        assert [m.root for m in offline] == [
            m.root for m in prepared.manifests
        ]

    def test_file_ids_are_root_hexes(self, prepared):
        assert prepared.file_ids == [m.root.hex() for m in prepared.manifests]
        assert set(prepared.files) == set(prepared.file_ids)

    def test_infeasible_target_reports_the_file(self):
        # 3 chunks per file cannot give 40 peers a chunk each at target 1
        tiny = ExperimentConfig(
            sim=CONFIG.sim,
            file_sizes=(5_000,),
            target_r=1,
            fractions=(0.0,),
            iterations=1,
            min_degree=1,
        )
        with pytest.raises(InfeasiblePlanError, match=r"bakedeletion\["):
            prepare(spawn_network(tiny.sim), tiny)


class TestCensus:
    def test_conservation(self, prepared):
        for report in (prepared.census_before, prepared.census_after):
            histogram_mass = sum(r * c for r, c in report.replicas_per_chunk.items())
            per_peer_mass = sum(report.chunks_per_peer.values())
            assert histogram_mass == per_peer_mass == report.total_replicas
            assert sum(report.replicas_per_chunk.values()) == report.distinct_chunks

    def test_empty_network(self):
        report = census(spawn_network(SimConfig(num_peers=5, seed=0, view_size=3)))
        assert report.distinct_chunks == 0
        assert report.total_replicas == 0
        assert report.replicas_per_chunk == {}


class TestRunIterations:
    def test_row_grid_is_complete(self, results):
        cells = {(r.file, r.fraction, r.iteration) for r in results}
        assert len(results) == 2 * 3 * 2
        assert len(cells) == len(results)

    def test_fraction_zero_always_succeeds(self, results):
        assert all(r.success for r in results if r.fraction == 0.0)

    def test_success_matches_group_survival_oracle(self, prepared, results):
        manifests = {m.root.hex(): m for m in prepared.manifests}
        for row in results:
            fi = CONFIG.fractions.index(row.fraction)
            failed = failure_set(CONFIG, fi, row.iteration)
            expected = survives(prepared.snapshot, manifests[row.file], failed)
            assert row.success == expected, (row.file[:8], row.fraction, row.iteration)

    def test_fraction_one_always_fails(self, prepared):
        config = ExperimentConfig(
            sim=CONFIG.sim,
            file_sizes=CONFIG.file_sizes,
            coding=CONFIG.coding,
            target_r=CONFIG.target_r,
            fractions=(1.0,),
            iterations=1,
            min_degree=CONFIG.min_degree,
        )
        rows = run_iterations(prepared.snapshot, config)
        assert rows and all(not r.success for r in rows)

    def test_manifests_from_prepare_give_the_same_rows(self, prepared, results):
        assert run_iterations(prepared.snapshot, CONFIG, prepared.manifests) == results

    def test_iterations_are_independent(self, prepared, results):
        shorter = ExperimentConfig(
            sim=CONFIG.sim,
            file_sizes=CONFIG.file_sizes,
            coding=CONFIG.coding,
            target_r=CONFIG.target_r,
            fractions=CONFIG.fractions,
            iterations=1,
            min_degree=CONFIG.min_degree,
        )
        alone = run_iterations(prepared.snapshot, shorter)
        by_cell = {(r.file, r.fraction, r.iteration): r for r in results}
        for row in alone:
            full_row = by_cell[(row.file, row.fraction, row.iteration)]
            assert row == full_row

    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"seed": 10}, "seed=9, config has 10"),
            ({"num_peers": 41}, "num_peers=40, config has 41"),
            ({"view_size": 8}, "view_size=12, config has 8"),
            ({"ns": 3}, "ns=4, config has 3"),
            ({"num_backends": 7}, "num_backends=29, config has 7"),
            ({"seed": 10, "num_peers": 41}, "num_peers=40, config has 41"),
        ],
        ids=["seed", "num_peers", "view_size", "ns", "num_backends", "first-named"],
    )
    def test_refuses_a_snapshot_of_another_network(self, prepared, changes, named):
        config = dataclasses.replace(CONFIG, sim=dataclasses.replace(CONFIG.sim, **changes))
        with pytest.raises(SnapshotMismatchError, match=f"^snapshot has {named}$"):
            run_iterations(prepared.snapshot, config)

    def test_the_sync_mode_may_differ(self, prepared, results):
        assert prepared.snapshot.config.sync_mode == SYNC_NONE
        assert CONFIG.sim.sync_mode == SYNC_FULL
        no_sync = dataclasses.replace(CONFIG, sim=dataclasses.replace(CONFIG.sim, sync_mode=SYNC_NONE))
        assert run_iterations(prepared.snapshot, no_sync) == results

    def test_availability_is_monotone_in_the_failure_set(self, prepared):
        config = CONFIG
        network = spawn_network(prepared.snapshot.config)
        peer_ids = network.peer_ids
        manifests = derive_manifests(config)
        for size_small, size_big in ((4, 10), (8, 16), (12, 24)):
            outcomes = {}
            for label, count in (("small", size_small), ("big", size_big)):
                network.restore(prepared.snapshot)
                network.fail_peers(peers=peer_ids[:count])
                entry = network.live_peers()[0]
                outcomes[label] = [
                    network.retrieve(m, entry)[1].success for m in manifests
                ]
            for small_ok, big_ok in zip(outcomes["small"], outcomes["big"]):
                if big_ok:
                    assert small_ok

    def test_overhead_equals_stored_over_original(self, prepared, results):
        stored = {}
        for manifest in prepared.manifests:
            total = 0
            for store in prepared.snapshot.stores.values():
                for addr in listchunks(manifest):
                    if addr in store:
                        total += len(store[addr])
            stored[manifest.root.hex()] = total
        for row in results:
            data_size = CONFIG.file_sizes[prepared.file_ids.index(row.file)]
            assert row.overhead == pytest.approx(stored[row.file] / data_size)
            assert row.overhead > CONFIG.target_r  # tree and parity add weight


class TestEmitReports:
    def test_byte_stable_and_complete(self, prepared, results, tmp_path):
        first = emit_reports(results, prepared.census_after, tmp_path / "a")
        second = emit_reports(results, prepared.census_after, tmp_path / "b")
        assert [p.name for p in first] == [
            "availability.csv",
            "replicas_per_chunk.csv",
            "chunks_per_peer.csv",
        ]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()

    def test_availability_rows(self, prepared, results, tmp_path):
        paths = emit_reports(results, prepared.census_after, tmp_path)
        lines = paths[0].read_text().splitlines()
        assert lines[0] == "file,fraction,iteration,success,hops,bytes,overhead"
        assert len(lines) == 1 + len(results)
        first = lines[1].split(",")
        assert first[0] == results[0].file
        assert first[3] in ("0", "1")

    def test_uniform_census_is_a_single_bar(self, prepared, results, tmp_path):
        paths = emit_reports(results, prepared.census_after, tmp_path)
        lines = paths[1].read_text().splitlines()
        assert lines[0] == "replicas,chunk_count"
        assert lines[1:] == [f"2,{prepared.census_after.distinct_chunks}"]

    def test_per_peer_rows_cover_every_peer(self, prepared, results, tmp_path):
        paths = emit_reports(results, prepared.census_after, tmp_path)
        lines = paths[2].read_text().splitlines()
        assert lines[0] == "peer_id,chunk_count"
        assert len(lines) == 1 + CONFIG.sim.num_peers
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == sorted(ids)


class TestRunExperiment:
    def test_end_to_end(self, tmp_path):
        config = ExperimentConfig(
            sim=SimConfig(num_peers=30, seed=2, view_size=10),
            file_sizes=(80_000,),
            target_r=4,
            fractions=(0.0, 0.5),
            iterations=2,
            min_degree=1,
        )
        prepared, rows, paths = run_experiment(config, tmp_path)
        assert prepared.rules.ok
        assert len(rows) == 4
        assert all(p.is_file() for p in paths)
        hist_lines = paths[1].read_text().splitlines()
        assert hist_lines[1:] == [f"4,{prepared.census_after.distinct_chunks}"]


class TestFileBytes:
    def test_sizes_and_determinism(self):
        assert len(file_bytes(CONFIG, 0)) == 150_000
        assert len(file_bytes(CONFIG, 1)) == 120_000
        assert file_bytes(CONFIG, 0) == file_bytes(CONFIG, 0)
        assert file_bytes(CONFIG, 0) != file_bytes(CONFIG, 1)


class TestConfigValidation:
    def test_rejects_bad_fields(self):
        sim = SimConfig(num_peers=10, view_size=4)
        good = dict(sim=sim, file_sizes=(1000,), fractions=(0.5,))
        ExperimentConfig(**good)
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "file_sizes": ()})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "fractions": (1.5,)})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "target_r": 0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "iterations": 0})
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, "min_degree": 0})


class TestParseExperimentConfig:
    TEXT = """
# availability sweep
peers=40
seed=9
view_size=12
file_sizes=150000,120000
min_degree=2
k=3
n=4
target_r=2
fractions=0,0.3,0.6
iterations=2
out=resdir
"""

    def test_golden_parse(self):
        config = parse_experiment_config(self.TEXT)
        assert config.sim == SimConfig(num_peers=40, seed=9, view_size=12)
        assert config.file_sizes == (150_000, 120_000)
        assert config.coding == CodingParams(k=3, n=4)
        assert config.target_r == 2
        assert config.fractions == (0.0, 0.3, 0.6)
        assert config.iterations == 2
        assert config.min_degree == 2
        assert config.outdir == "resdir"
        assert config.chunk == ChunkParams()

    def test_defaults(self):
        config = parse_experiment_config("peers=10\nfile_sizes=5000\nmin_degree=1\n")
        assert config.coding is None
        assert config.target_r == 1
        assert config.fractions == (0.0,)
        assert config.sim.view_size == 16

    def test_required_keys(self):
        with pytest.raises(ValueError, match="peers"):
            parse_experiment_config("file_sizes=5000\nmin_degree=1\n")
        with pytest.raises(ValueError, match="min_degree"):
            parse_experiment_config("peers=10\nfile_sizes=5000\n")

    @pytest.mark.parametrize("key", ["peers", "file_sizes", "min_degree"])
    def test_missing_required_key_is_named(self, key):
        base = {"peers": "10", "file_sizes": "5000", "min_degree": "1"}
        del base[key]
        text = "".join(f"{k}={v}\n" for k, v in base.items())
        with pytest.raises(ValueError, match=f"^experiment config missing '{key}'$"):
            parse_experiment_config(text)

    @pytest.mark.parametrize("line", ["out=", "out = ", "sync_mode=", "seed=", "k=\nn=6"])
    def test_empty_value_names_its_key(self, line):
        key = line.partition("=")[0].strip()
        with pytest.raises(ValueError, match=f"^experiment config key '{key}': empty value$"):
            parse_experiment_config(f"peers=10\nfile_sizes=5000\nmin_degree=1\n{line}\n")

    def test_k_and_n_must_pair(self):
        with pytest.raises(ValueError, match="together"):
            parse_experiment_config(
                "peers=10\nfile_sizes=5000\nmin_degree=1\nk=3\n"
            )

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown experiment config key 'itertions'"):
            parse_experiment_config(
                "peers=10\nfile_sizes=5000\nmin_degree=1\nfractions=0.5\nitertions=3\n"
            )
        with pytest.raises(ValueError, match="unknown experiment config key 'fraction'"):
            parse_experiment_config(
                "peers=10\nfile_sizes=5000\nmin_degree=1\nfraction=0.5\n"
            )

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ValueError, match="duplicate experiment config key 'iterations'"):
            parse_experiment_config(
                "peers=10\nfile_sizes=5000\nmin_degree=1\niterations=3\n iterations = 5\n"
            )

    @pytest.mark.parametrize(
        "key, path, value, parsed",
        [
            ("seed", "sim.seed", "5", 5),
            ("view_size", "sim.view_size", "9", 9),
            ("ns", "sim.ns", "3", 3),
            ("backends", "sim.num_backends", "7", 7),
            ("sync_mode", "sim.sync_mode", "no_sync", "no_sync"),
            ("chunk_size", "chunk.chunk_size", "8192", 8192),
            ("branching", "chunk.branching", "64", 64),
            ("target_r", "target_r", "3", 3),
            ("fractions", "fractions", "0.5,1", (0.5, 1.0)),
            ("iterations", "iterations", "4", 4),
            ("out", "outdir", "elsewhere", "elsewhere"),
        ],
    )
    def test_optional_key_sets_its_field_or_leaves_its_default(
        self, key, path, value, parsed
    ):
        base = "peers=10\nfile_sizes=5000\nmin_degree=1\n"
        *owners, name = path.split(".")

        def holder(config):
            for attr in owners:
                config = getattr(config, attr)
            return config

        left_out = holder(parse_experiment_config(base))
        default = {f.name: f.default for f in dataclasses.fields(left_out)}[name]
        assert getattr(left_out, name) == default
        given = holder(parse_experiment_config(f"{base}{key}={value}\n"))
        assert getattr(given, name) == parsed != default

    def test_malformed_line(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_experiment_config("peers=10\nfile_sizes=5000\nmin_degree=1\nbogus\n")

    @pytest.mark.parametrize("line", [
        "fractions=0.1,,0.5,",
        "fractions=0.1,,0.5",
        "fractions=0.1, ,0.5",
        "fractions=",
        "file_sizes=5000,,6000,",
        "file_sizes=5000,6000,",
        "file_sizes=,5000",
    ])
    def test_empty_list_item_names_its_key(self, line):
        key = line.split("=")[0]
        base = {"peers": "10", "file_sizes": "5000", "min_degree": "1"}
        base.pop(key, None)
        text = "".join(f"{k}={v}\n" for k, v in base.items()) + line + "\n"
        with pytest.raises(ValueError, match=f"experiment config key '{key}'.*empty"):
            parse_experiment_config(text)

    def test_unparsable_value_names_its_key(self):
        with pytest.raises(ValueError, match="experiment config key 'peers'"):
            parse_experiment_config("peers=ten\nfile_sizes=5000\nmin_degree=1\n")

    @pytest.mark.parametrize("peers, file_sizes, key", [
        # int() would read every one of these
        ("1_0", "5000", "peers"),
        ("+10", "5000", "peers"),
        ("0_10", "5000", "peers"),
        ("10", "5_000", "file_sizes"),
        ("10", "5000, +6000", "file_sizes"),
        ("10", "0_1,5000", "file_sizes"),
    ])
    def test_integers_are_decimal_digits_alone(self, peers, file_sizes, key):
        with pytest.raises(ValueError, match=f"^experiment config key '{key}': invalid literal"):
            parse_experiment_config(f"peers={peers}\nfile_sizes={file_sizes}\nmin_degree=1\n")
