"""Experiment pipeline: prepare a normalized network, measure availability.

prepare() uploads every configured file, plans and applies deletions until
replication is uniform, verifies the replication rules independently, and
snapshots the result. run_iterations() checks connectivity once, then
replays that snapshot for every cell: restore, check syncing is off, fail a
seeded set of peers, and attempt to retrieve every file. Each (fraction,
iteration) pair draws its failure set and entry peer from seeds derived
from the indices alone, so results are independent of which other
iterations ran. All reported costs are hop and byte counts, never
wall-clock times.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable

from .chunker import (
    Address, ChunkParams, FileManifest, build_tree, parse_decimal, parse_keys, split_file,
)
from .codec import CodingParams, address_lengths, encode_tree
from .errors import InfeasiblePlanError, SnapshotMismatchError, SwarmSimError
from .netsim import Network, RetrievalStats, SimConfig, Snapshot, SYNC_NONE, holders, spawn_network
from .overlay import PeerId
from .seeds import derive_int, derive_rng, seeded_bytes
from .tools import DeletionEntry, RulesReport, check_rules, check_union, deletechunks, dropped
from .tools import holders_map, listchunks, placement_from_network, plan_keep
from .tools import bakedeletion, combinestorage  # not called here; perfbench's tracer patches them

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full experiment needs, network to output directory."""

    sim: SimConfig
    file_sizes: tuple[int, ...]
    chunk: ChunkParams = ChunkParams()
    coding: CodingParams | None = None
    target_r: int = 1
    fractions: tuple[float, ...] = (0.0,)
    iterations: int = 1
    min_degree: int = 1
    outdir: str = "results"

    def __post_init__(self) -> None:
        if not self.file_sizes:
            raise ValueError("at least one file size is required")
        if any(size < 1 for size in self.file_sizes):
            raise ValueError("file sizes must be positive")
        if self.target_r < 1:
            raise ValueError("target_r must be at least 1")
        if not self.fractions:
            raise ValueError("at least one failure fraction is required")
        if any(not 0.0 <= f <= 1.0 for f in self.fractions):
            raise ValueError("fractions must lie within [0, 1]")
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if self.min_degree < 1:
            raise ValueError("min_degree must be at least 1")


@dataclass
class CensusReport:
    """Replica counts per chunk and chunk counts per peer, over all stores."""

    replicas_per_chunk: dict[int, int]
    chunks_per_peer: dict[PeerId, int]
    total_replicas: int
    distinct_chunks: int


@dataclass
class AvailabilityResult:
    """Outcome of retrieving one file in one failure iteration."""

    file: str
    fraction: float
    iteration: int
    success: bool
    hops: int
    bytes_fetched: int
    repaired_groups: int
    overhead: float


@dataclass
class PrepareResult:
    snapshot: Snapshot
    manifests: list[FileManifest]
    file_ids: list[str]
    files: dict[str, tuple[Address, ...]]
    census_before: CensusReport
    census_after: CensusReport
    deletions: list[DeletionEntry]
    rules: RulesReport


def census(network: Network) -> CensusReport:
    """Count replicas per chunk and chunks per peer across all stores."""
    counts: Counter[Address] = Counter()
    chunks_per_peer: dict[PeerId, int] = {}
    for pid in network.peer_ids:
        store = network.stores[pid]
        chunks_per_peer[pid] = len(store)
        counts.update(store.keys())
    histogram: dict[int, int] = {}
    for replicas in counts.values():
        histogram[replicas] = histogram.get(replicas, 0) + 1
    return CensusReport(
        replicas_per_chunk=dict(sorted(histogram.items())),
        chunks_per_peer=chunks_per_peer,
        total_replicas=sum(counts.values()),
        distinct_chunks=len(counts),
    )


def file_bytes(config: ExperimentConfig, index: int) -> bytes:
    """Deterministic synthetic contents of file number `index`."""
    return seeded_bytes(config.file_sizes[index], "file", config.sim.seed, index)


def derive_manifests(config: ExperimentConfig) -> list[FileManifest]:
    """Rebuild every file's manifest without touching a network; byte-for-byte
    the manifests upload() produces for the same config."""
    manifests: list[FileManifest] = []
    for index in range(len(config.file_sizes)):
        data = file_bytes(config, index)
        manifest, chunks = build_tree(split_file(data, config.chunk), config.chunk)
        if config.coding is not None:
            manifest, _ = encode_tree(manifest, chunks, config.coding)
        manifests.append(manifest)
    return manifests


def iteration_seed(seed: int, fraction_index: int, iteration: int) -> int:
    """Failure-draw sub-seed for one (fraction, iteration) cell. Depends only
    on the indices, making iterations independent of each other."""
    return derive_int("fail-seed", seed, fraction_index, iteration)


def prepare(network: Network, config: ExperimentConfig) -> PrepareResult:
    """Upload, normalize replication, verify the rules, snapshot.

    Pipeline: upload every file, list its chunks, plan per-file keep maps at
    target_r, intersect them with a joint rule-A check, switch syncing off,
    delete every replica outside the kept sets, then verify rules A-D
    against an independently recomputed census before snapshotting.
    """
    manifests: list[FileManifest] = []
    for index in range(len(config.file_sizes)):
        data = file_bytes(config, index)
        manifests.append(network.upload(data, config.chunk, config.coding))
    file_ids = [m.root.hex() for m in manifests]
    files = {fid: tuple(listchunks(m)) for fid, m in zip(file_ids, manifests)}
    logger.info("uploaded %d files, %d distinct chunks",
                len(file_ids), len({a for f in files.values() for a in f}))

    census_before = census(network)
    placement = placement_from_network(network, files)

    # a replica survives only if the plan of every file naming its chunk keeps it
    kept: dict[Address, set[PeerId]] = {}
    for fid in file_ids:
        try:
            plan = plan_keep(placement.restrict(fid), config.target_r)
        except InfeasiblePlanError as exc:
            raise InfeasiblePlanError(f"bakedeletion[{fid}]: {exc}") from exc
        for addr, keepers in plan.items():
            kept[addr] = kept[addr] & keepers if addr in kept else keepers
    try:
        check_union(placement, kept)
    except InfeasiblePlanError as exc:
        raise InfeasiblePlanError(f"combinestorage: {exc}") from exc

    deletions = dropped(placement, kept)
    network.sync_mode = SYNC_NONE
    report = deletechunks(network, deletions)
    logger.info("applied %d deletions (%d already absent)",
                report.applied, report.missing)

    after = holders_map(network, sorted(placement.chunk_to_peers))
    rules = check_rules(placement, after, config.target_r)
    if not rules.ok:
        detail = "; ".join(rules.violations[:5])
        raise SwarmSimError(f"normalization left rules violated: {detail}")

    census_after = census(network)
    return PrepareResult(
        snapshot=network.snapshot(),
        manifests=manifests,
        file_ids=file_ids,
        files=files,
        census_before=census_before,
        census_after=census_after,
        deletions=deletions,
        rules=rules,
    )


def _file_overheads(
    snapshot: Snapshot, manifests: list[FileManifest]
) -> dict[str, float]:
    """Stored bytes over original bytes per file, measured on the snapshot."""
    held = holders(snapshot.stores)
    overheads: dict[str, float] = {}
    for manifest in manifests:
        stored = sum(len(held.get(a, ())) * n for a, n in address_lengths(manifest).items())
        overheads[manifest.root.hex()] = stored / manifest.file_size
    return overheads


def run_iterations(
    snapshot: Snapshot, config: ExperimentConfig, manifests: list[FileManifest] | None = None,
) -> list[AvailabilityResult]:
    """Replay the snapshot under every configured failure fraction.

    The views are checked for connectivity once, since restoring keeps
    them. Each iteration then restores the snapshot, checks syncing is off,
    fails a seeded peer set, and retrieves every file through a seeded live
    entry peer. Those draws come from config, so a snapshot of another
    network raises SnapshotMismatchError; only the sync mode may differ.
    manifests, if given, must be derive_manifests(config), as prepare returns.
    """
    for f in fields(SimConfig):
        held, wanted = getattr(snapshot.config, f.name), getattr(config.sim, f.name)
        if held != wanted and f.name != "sync_mode":
            raise SnapshotMismatchError(f"snapshot has {f.name}={held}, config has {wanted}")
    manifests = manifests or derive_manifests(config)
    overheads = _file_overheads(snapshot, manifests)
    network = spawn_network(snapshot.config)
    network.wait_for_connectivity(config.min_degree)
    results: list[AvailabilityResult] = []
    for fi, fraction in enumerate(config.fractions):
        for iteration in range(config.iterations):
            network.restore(snapshot)
            if network.sync_mode != SYNC_NONE:
                raise SwarmSimError("restore left syncing enabled")
            network.fail_peers(
                fraction=fraction,
                seed=iteration_seed(config.sim.seed, fi, iteration),
            )
            live = network.live_peers()
            entry = None
            if live:
                rng = derive_rng("entry", config.sim.seed, fi, iteration)
                entry = live[rng.randrange(len(live))]
            for manifest in manifests:
                fid = manifest.root.hex()
                stats = RetrievalStats()
                if entry is not None:
                    _, stats = network.retrieve(manifest, entry)
                results.append(
                    AvailabilityResult(
                        file=fid,
                        fraction=fraction,
                        iteration=iteration,
                        success=stats.success,
                        hops=stats.hops,
                        bytes_fetched=stats.bytes_fetched,
                        repaired_groups=stats.repaired_groups,
                        overhead=overheads[fid],
                    )
                )
            logger.debug("fraction %.3f iteration %d done", fraction, iteration)
    return results


def _write_csv(path: Path, header: str, rows: Iterable[str]) -> Path:
    path.write_text("".join(line + "\n" for line in [header, *rows]))
    return path


def emit_census(census_report: CensusReport, outdir: str | Path) -> list[Path]:
    """Write the two census CSVs, replicas_per_chunk.csv and
    chunks_per_peer.csv, and nothing else."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    replicas, per_peer = census_report.replicas_per_chunk, census_report.chunks_per_peer
    return [
        _write_csv(out / "replicas_per_chunk.csv", "replicas,chunk_count",
                   (f"{count},{replicas[count]}" for count in sorted(replicas))),
        _write_csv(out / "chunks_per_peer.csv", "peer_id,chunk_count",
                   (f"{pid.hex()},{per_peer[pid]}" for pid in sorted(per_peer))),
    ]


def emit_reports(
    results: list[AvailabilityResult],
    census_report: CensusReport,
    outdir: str | Path,
) -> list[Path]:
    """Write availability.csv and the census CSVs. Output bytes depend only
    on the inputs: fixed orderings, fixed float formats, LF newlines."""
    census_paths = emit_census(census_report, outdir)
    availability = _write_csv(
        Path(outdir) / "availability.csv",
        "file,fraction,iteration,success,hops,bytes,overhead",
        (f"{r.file},{r.fraction:g},{r.iteration},{int(r.success)},"
         f"{r.hops},{r.bytes_fetched},{r.overhead:.6f}" for r in results),
    )
    return [availability, *census_paths]


def run_experiment(
    config: ExperimentConfig, outdir: str | Path | None = None
) -> tuple[PrepareResult, list[AvailabilityResult], list[Path]]:
    """spawn -> prepare -> iterate -> emit, returning everything produced."""
    network = spawn_network(config.sim)
    prepared = prepare(network, config)
    results = run_iterations(prepared.snapshot, config, prepared.manifests)
    paths = emit_reports(results, prepared.census_after, outdir or config.outdir)
    return prepared, results, paths


def _numbers(parse):
    def numbers(text: str) -> tuple:
        items = text.split(",")
        if any(not item.strip() for item in items):
            raise ValueError(f"empty item in list {text!r}")
        return tuple(parse(item.strip()) for item in items)
    return numbers


# experiment config key -> (the constructor it goes to, its field there,
# value parser); a key left out takes that constructor's default
CONFIG_KEYS = {
    "peers": (SimConfig, "num_peers", parse_decimal),
    "seed": (SimConfig, "seed", parse_decimal),
    "view_size": (SimConfig, "view_size", parse_decimal),
    "ns": (SimConfig, "ns", parse_decimal),
    "backends": (SimConfig, "num_backends", parse_decimal),
    "sync_mode": (SimConfig, "sync_mode", str),
    "chunk_size": (ChunkParams, "chunk_size", parse_decimal),
    "branching": (ChunkParams, "branching", parse_decimal),
    "k": (CodingParams, "k", parse_decimal),
    "n": (CodingParams, "n", parse_decimal),
    "file_sizes": (ExperimentConfig, "file_sizes", _numbers(parse_decimal)),
    "min_degree": (ExperimentConfig, "min_degree", parse_decimal),
    "target_r": (ExperimentConfig, "target_r", parse_decimal),
    "fractions": (ExperimentConfig, "fractions", _numbers(float)),
    "iterations": (ExperimentConfig, "iterations", parse_decimal),
    "out": (ExperimentConfig, "outdir", str),
}


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse the key=value experiment file format; blank and # lines are
    skipped.

    Required keys: peers, file_sizes, min_degree. The others in CONFIG_KEYS
    are optional; k and n must be given together. Any other key, any key
    given twice, an empty value and a value that does not parse, such as a
    list with an empty item, are rejected, naming the key.
    """
    lines = [line.strip() for line in text.splitlines()]
    keys = parse_keys(
        [line for line in lines if line and not line.startswith("#")],
        {key: parse for key, (_, _, parse) in CONFIG_KEYS.items()},
        "experiment config",
        ("peers", "file_sizes", "min_degree"),
    )
    if ("k" in keys) != ("n" in keys):
        raise ValueError("k and n must be given together")

    given: defaultdict[type, dict[str, object]] = defaultdict(dict)
    for key, value in keys.items():
        owner, name, _ = CONFIG_KEYS[key]
        given[owner][name] = value
    return ExperimentConfig(
        sim=SimConfig(**given[SimConfig]),
        chunk=ChunkParams(**given[ChunkParams]),
        coding=CodingParams(**given[CodingParams]) if "k" in keys else None,
        **given[ExperimentConfig],
    )
