"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run with -s to see them live) and
pins a wall-clock budget where the behavior is scale-sensitive.
"""

import itertools
import time
from dataclasses import replace

from swarmsim.chunker import ChunkParams, build_tree, split_file, tree_shape
from swarmsim.codec import (
    CodingParams,
    encode_tree,
    group_data_lengths,
    repair_retrieve,
    rs_decode,
    rs_encode,
)
from swarmsim.errors import (
    InfeasiblePlanError,
    MissingChunkError,
    UnrecoverableGroupError,
)
from swarmsim.harness import (
    ExperimentConfig,
    census,
    emit_reports,
    file_bytes,
    iteration_seed,
    prepare,
    run_experiment,
    run_iterations,
)
from swarmsim.netsim import SYNC_NONE, SimConfig, network_from_snapshot, spawn_network
from swarmsim.overlay import make_peer_ids
from swarmsim.seeds import derive_rng, seeded_bytes
from swarmsim.tools import PlacementMap, bakedeletion, check_rules, listchunks

SIM_200 = SimConfig(num_peers=200, seed=0, view_size=16, ns=4)


def report(number, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert condition, f"criterion {number}: {detail}"


def test_criterion_1_small_tree_shape_and_walk():
    params = ChunkParams(chunk_size=4096, branching=3)
    data = seeded_bytes(36_864, "acceptance-fig")
    shape = tree_shape(len(data), params)
    manifest, _ = build_tree(split_file(data, params), params)
    addresses = listchunks(manifest)
    ok = (
        shape == [9, 3, 1]
        and len(addresses) == 13
        and addresses[0] == manifest.root
        and len(set(addresses)) == 13
    )
    report(1, ok, f"36864 B at branching 3: levels {shape}, {len(addresses)} chunks, root first")


def test_criterion_2_wide_tree_shape():
    shape = tree_shape(104_857_600, ChunkParams(branching=128))
    report(2, shape == [25600, 200, 2, 1], f"100 MiB at branching 128: levels {shape}")


def test_criterion_3_superpeer_replica_spread():
    network = spawn_network(SIM_200)
    config = ExperimentConfig(
        sim=SIM_200, file_sizes=(1_048_576,), fractions=(0.0,), min_degree=2
    )
    network.upload(file_bytes(config, 0))
    counts = census(network).replicas_per_chunk
    low, high = min(counts), max(counts)
    report(
        3,
        high >= 2 * low,
        f"200 peers, 1 MiB, full sync: replicas per chunk span {low}..{high}",
    )


def test_criterion_4_normalization_is_exact():
    start = time.monotonic()
    outcomes = []
    for target_r in (1, 4):
        config = ExperimentConfig(
            sim=SIM_200,
            file_sizes=(1_048_576,),
            coding=CodingParams(k=4, n=6),
            target_r=target_r,
            fractions=(0.0,),
            min_degree=2,
        )
        prepared = prepare(spawn_network(SIM_200), config)
        histogram = prepared.census_after.replicas_per_chunk
        outcomes.append(
            prepared.rules.ok and list(histogram) == [target_r]
        )
    elapsed = time.monotonic() - start
    report(
        4,
        all(outcomes) and elapsed < 60,
        f"target 1 and 4 at 200 peers: rules hold, single-bar histograms, {elapsed:.1f}s",
    )


def _random_placement(trial):
    rng = derive_rng("acceptance-planner", trial)
    n_peers = rng.randint(2, 4)
    n_chunks = rng.randint(1, 6)
    target_r = rng.randint(1, min(2, n_peers))
    peers = [bytes([i + 1]) * 32 for i in range(n_peers)]
    chunks = [bytes([0xA0 + i]) * 32 for i in range(n_chunks)]
    holders = {
        addr: set(rng.sample(peers, rng.randint(target_r, n_peers)))
        for addr in chunks
    }
    if n_chunks >= 2 and rng.random() < 0.5:
        cut = rng.randint(1, n_chunks - 1)
        files = {"f0": tuple(chunks[:cut]), "f1": tuple(chunks[cut:])}
        if rng.random() < 0.5:
            files["f1"] = files["f1"] + (chunks[0],)
    else:
        files = {"f0": tuple(chunks)}
    return PlacementMap(chunk_to_peers=holders, files=files), target_r


def _brute_force_feasible(placement, target_r):
    addrs = sorted(placement.chunk_to_peers)
    options = [
        list(itertools.combinations(sorted(placement.chunk_to_peers[a]), target_r))
        for a in addrs
    ]
    obligations = [
        (pid, fid)
        for fid in placement.files
        for pid in {
            p for a in placement.files[fid] for p in placement.chunk_to_peers[a]
        }
    ]
    for chosen in itertools.product(*options):
        keep = dict(zip(addrs, chosen))
        if all(
            any(pid in keep[a] for a in placement.files[fid])
            for pid, fid in obligations
        ):
            return True
    return False


def test_criterion_5_planner_matches_brute_force():
    start = time.monotonic()
    verdicts = set()
    for trial in range(500):
        placement, target_r = _random_placement(trial)
        feasible = _brute_force_feasible(placement, target_r)
        verdicts.add(feasible)
        try:
            deletions = bakedeletion(placement, target_r)
        except InfeasiblePlanError:
            assert not feasible, f"trial {trial}: planner refused a feasible instance"
            continue
        assert feasible, f"trial {trial}: planner accepted an infeasible instance"
        after = {a: set(ps) for a, ps in placement.chunk_to_peers.items()}
        for pid, addr in deletions:
            after[addr].discard(pid)
        assert check_rules(placement, after, target_r).ok, f"trial {trial}"
    elapsed = time.monotonic() - start
    report(
        5,
        verdicts == {True, False} and elapsed < 60,
        f"500 random instances, both verdicts exercised, {elapsed:.1f}s",
    )


def test_criterion_6_double_erasures_and_internal_loss():
    start = time.monotonic()
    params = CodingParams(k=4, n=6)
    group = [seeded_bytes(4096, "acceptance-rs", i) for i in range(4)]
    codeword = group + rs_encode(group, params)
    doubles_ok = True
    for gone in itertools.combinations(range(6), 2):
        survivors = [(i, codeword[i]) for i in range(6) if i not in gone]
        decoded = rs_decode(survivors, params, [len(p) for p in group])
        doubles_ok = doubles_ok and decoded == group

    chunk_params = ChunkParams(chunk_size=4096, branching=3)
    data = seeded_bytes(36_864, "acceptance-internal")
    manifest, chunks = build_tree(split_file(data, chunk_params), chunk_params)
    encoded, parity = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
    store = dict(chunks)
    store.update(parity)
    del store[manifest.levels[1][0]]

    leaf_only = replace(encoded, groups=[g for g in encoded.groups if g.level == 0])
    leaf_only_fails = False
    try:
        repair_retrieve(manifest.root, store.get, leaf_only)
    except (MissingChunkError, UnrecoverableGroupError):
        leaf_only_fails = True
    full_recovers = repair_retrieve(manifest.root, store.get, encoded) == data

    elapsed = time.monotonic() - start
    report(
        6,
        doubles_ok and leaf_only_fails and full_recovers and elapsed < 30,
        "all 15 double erasures decode; internal-chunk loss breaks leaf-only "
        f"coding but not full-tree coding, {elapsed:.1f}s",
    )


def _survives(snapshot, manifest, failed):
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


def test_criterion_7_availability_matches_survival_oracle():
    start = time.monotonic()
    config = ExperimentConfig(
        sim=SIM_200,
        file_sizes=(1_048_576,),
        coding=CodingParams(k=4, n=6),
        target_r=4,
        fractions=(0.1, 0.5, 0.8),
        iterations=10,
        min_degree=2,
    )
    prepared = prepare(spawn_network(SIM_200), config)
    results = run_iterations(prepared.snapshot, config)
    manifest = prepared.manifests[0]
    peer_ids = make_peer_ids(SIM_200.num_peers, SIM_200.seed)

    flags = set()
    for row in results:
        fraction_index = config.fractions.index(row.fraction)
        count = int(round(row.fraction * len(peer_ids)))
        rng = derive_rng(
            "fail", SIM_200.seed, iteration_seed(SIM_200.seed, fraction_index, row.iteration)
        )
        failed = set(rng.sample(peer_ids, count))
        expected = _survives(prepared.snapshot, manifest, failed)
        assert row.success == expected, (row.fraction, row.iteration)
        flags.add(row.success)
    elapsed = time.monotonic() - start
    report(
        7,
        len(results) == 30 and flags == {True, False} and elapsed < 300,
        f"30 retrievals match the group-survival oracle, both outcomes seen, {elapsed:.1f}s",
    )


def test_criterion_8_experiment_reruns_are_byte_identical(tmp_path):
    start = time.monotonic()
    config = ExperimentConfig(
        sim=SimConfig(num_peers=100, seed=7, view_size=16, ns=4),
        file_sizes=(524_288,),
        coding=CodingParams(k=3, n=4),
        target_r=2,
        fractions=(0.0, 0.25, 0.5),
        iterations=5,
        min_degree=2,
    )
    _, _, first = run_experiment(replace(config, outdir=str(tmp_path / "a")))
    _, _, second = run_experiment(replace(config, outdir=str(tmp_path / "b")))
    identical = all(
        a.read_bytes() == b.read_bytes() for a, b in zip(first, second)
    )
    names_ok = [p.name for p in first] == [
        "availability.csv",
        "replicas_per_chunk.csv",
        "chunks_per_peer.csv",
    ]
    elapsed = time.monotonic() - start
    report(
        8,
        identical and names_ok and elapsed < 300,
        f"two runs, three reports each, byte-identical, {elapsed:.1f}s",
    )


def test_criterion_9_restore_matches_snapshot_digest():
    start = time.monotonic()
    sim = SimConfig(num_peers=60, seed=11, view_size=12, ns=4)
    config = ExperimentConfig(
        sim=sim,
        file_sizes=(200_000,),
        coding=CodingParams(k=3, n=4),
        target_r=2,
        fractions=(0.3,),
        min_degree=2,
    )
    prepared = prepare(spawn_network(sim), config)
    network = network_from_snapshot(prepared.snapshot)

    network.fail_peers(fraction=0.3, seed=1)
    for pid in network.live_peers()[:10]:
        store = network.stores[pid]
        for addr in list(store)[:3]:
            del store[addr]
    damaged = network.census_digest()

    network.restore(prepared.snapshot)
    restored = network.census_digest()
    ok = (
        damaged != prepared.snapshot.digest
        and restored == prepared.snapshot.digest
        and not network.failed
        and network.sync_mode == SYNC_NONE
    )
    elapsed = time.monotonic() - start
    report(
        9,
        ok and elapsed < 60,
        f"failures and deletions rolled back to digest {restored[:12]}..., {elapsed:.1f}s",
    )
