"""The benchmark's three workloads, driven through swarmsim's public API.

Each workload has a fixed shape. Set-up i of a run with seed s builds its
inputs from SimConfig.seed = n * s + i, n being the workload's number of
set-ups (bench.input_seeds); that seed also seeds the file bytes
(harness.file_bytes). A workload splits into a set-up, a
timed operation, and checks on both that run outside the timing:

- sweep: the read path. Set-up is spawn_network + harness.prepare; the timed
  operation is run_iterations + emit_reports on one prepared snapshot, one
  cell per failure fraction, taking the run's snapshots in turn.
- ingest: the write path. Set-up is spawn_network; the timed operation is
  harness.prepare (upload with the pull round, then normalisation).
- cli: the scripting path. Set-up is a fresh interpreter importing
  swarmsim.cli plus writing the input file; the timed operation is the
  eight-stage chain, each stage a swarmsim.cli.run call against --state.
  A run cycles through eight networks, so no one network sets its figure.

The module calls swarmsim through module attributes (netsim.spawn_network,
harness.prepare, cli.run) so that tracing.instrumented can wrap them.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from swarmsim import cli, harness, netsim, tools
from swarmsim.codec import CodingParams
from swarmsim.harness import ExperimentConfig
from swarmsim.netsim import SimConfig

SRC = Path(__file__).resolve().parents[1] / "src"

MIB = 1024 * 1024
K, N, TARGET_R = 4, 6, 2  # coding groups of 4 data + 2 parity chunks


@dataclass(frozen=True)
class Shape:
    peers: int
    file_sizes: tuple[int, ...]
    fractions: tuple[float, ...] = (0.0,)


SHAPES = {
    # Operations short enough to interleave with the reference loop often.
    "sweep": Shape(peers=500, file_sizes=(MIB,), fractions=(0.0, 0.1, 0.2, 0.3)),
    "ingest": Shape(peers=2000, file_sizes=(4 * MIB, 4 * MIB)),
    "cli": Shape(peers=100, file_sizes=(MIB // 4,)),
}


@dataclass
class Outcome:
    """What one timed operation produced.

    calls counts the program operations it attempted (one per stage for
    cli); problems maps a call's index to what was wrong with it; cells are
    the sweep's per-cell latencies; outputs are digests compared across
    repetitions and against the pins."""

    seconds: float
    calls: int = 1
    cells: list[float] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    problems: dict[int, str] = field(default_factory=dict)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def experiment_config(shape: Shape, seed: int, outdir: Path) -> ExperimentConfig:
    return ExperimentConfig(
        sim=SimConfig(num_peers=shape.peers, seed=seed),
        file_sizes=shape.file_sizes,
        coding=CodingParams(k=K, n=N),
        target_r=TARGET_R,
        fractions=shape.fractions,
        iterations=1,
        outdir=str(outdir),
    )


def planner_bound_problems(files: dict[str, set], holders: dict[str, set], target_r: int) -> list[str]:
    """The planner's feasibility bound: a file's distinct holders before
    deletion must fit in target_r replicas of each of its chunks."""
    return [
        f"file {fid[:12]} has {len(holders[fid])} holders, over the "
        f"{target_r * len(addrs)} slots target_r leaves"
        for fid, addrs in sorted(files.items())
        if len(holders[fid]) > target_r * len(addrs)
    ]


def prepare_problems(prep, cfg: ExperimentConfig) -> list[str]:
    """Checks on a harness.prepare result that need no pinned value."""
    problems = []
    after = prep.census_after
    if after.total_replicas != cfg.target_r * after.distinct_chunks:
        problems.append(
            f"{after.total_replicas} replicas after normalisation, wanted "
            f"{cfg.target_r} x {after.distinct_chunks} chunks")
    if not prep.rules.ok:
        problems.append("check_rules: " + "; ".join(prep.rules.violations[:3]))
    files = {fid: set(addrs) for fid, addrs in prep.files.items()}
    files_of = defaultdict(list)
    for fid, addrs in files.items():
        for addr in addrs:
            files_of[addr].append(fid)
    holders: dict[str, set] = {fid: set() for fid in files}
    held = prep.deletions + [(pid, a) for pid, store in prep.snapshot.stores.items()
                             for a in store]
    for pid, addr in held:
        for fid in files_of[addr]:
            holders[fid].add(pid)
    problems += planner_bound_problems(files, holders, cfg.target_r)
    return problems


class Workload:
    name = ""
    reusable = True  # whether the timed operation can repeat on one state
    setups = 3  # networks a run spans, each from its own input seed
    min_ops = 3  # timed operations per run, however long they take
    warmup_s = 0.0  # untimed operations run for this long before the timed ones

    def __init__(self, shape: Shape, workdir: Path):
        self.shape = shape
        self.workdir = workdir

    def call_of(self, output: str) -> int:
        """Index of the call within an operation that produced an output."""
        return 0

    def settle(self) -> None:
        """Untimed step between a set-up and the operation on it."""


class Sweep(Workload):
    """Availability sweep over a prepared snapshot; run_iterations leaves
    the snapshot unchanged, so one set-up serves every repetition."""

    name = "sweep"
    setups = 6
    min_ops = 6

    def setup(self, seed: int):
        cfg = experiment_config(self.shape, seed, self.workdir / "reports")
        network = netsim.spawn_network(cfg.sim)
        return cfg, harness.prepare(network, cfg)

    def setup_outputs(self, state) -> tuple[dict[str, str], list[str]]:
        cfg, prep = state
        return {"census_digest": prep.snapshot.digest}, prepare_problems(prep, cfg)

    def run(self, state, tracer) -> Outcome:
        """Cells are timed from the tracer's Network.restore spans: a cell
        starts when run_iterations enters restore and ends where the next
        one starts, or where run_iterations returns."""
        cfg, prep = state
        first = len(tracer.spans)
        start = perf_counter()
        results = harness.run_iterations(prep.snapshot, cfg)
        cells_end = perf_counter()
        paths = harness.emit_reports(results, prep.census_after, cfg.outdir)
        end = perf_counter()
        starts = [span[1] for span in tracer.spans[first:]
                  if span[0] == "netsim.restore"] + [cells_end]
        outcome = Outcome(seconds=end - start,
                          cells=[b - a for a, b in zip(starts, starts[1:])])
        for path in paths:
            outcome.outputs[path.name] = sha256(path.read_bytes())
        outcome.outputs["retrieval_successes"] = str(sum(r.success for r in results))
        outcome.outputs["hops_total"] = str(sum(r.hops for r in results))
        if any(not r.success for r in results if r.fraction == 0.0):
            outcome.problems[0] = "retrieval failed with no peer failed"
        if len(outcome.cells) != len(cfg.fractions) * cfg.iterations:
            outcome.problems[0] = f"{len(outcome.cells)} cells timed"
        return outcome


class Ingest(Workload):
    """Upload and normalisation on a freshly spawned network."""

    name = "ingest"
    reusable = False  # prepare fills the network it is given
    min_ops = 1  # one prepare takes about 20 s

    def setup(self, seed: int):
        cfg = experiment_config(self.shape, seed, self.workdir)
        return cfg, netsim.spawn_network(cfg.sim)

    def setup_outputs(self, state) -> tuple[dict[str, str], list[str]]:
        _, network = state
        views = hashlib.sha256()
        for pid in network.peer_ids:
            views.update(pid)
            views.update(b"".join(sorted(network.views[pid].known)))
        return {"views_digest": views.hexdigest()}, []

    def run(self, state, tracer) -> Outcome:
        cfg, network = state
        start = perf_counter()
        prep = harness.prepare(network, cfg)
        outcome = Outcome(seconds=perf_counter() - start)
        outcome.outputs["census_digest"] = prep.snapshot.digest
        outcome.outputs["total_replicas"] = str(prep.census_after.total_replicas)
        problems = prepare_problems(prep, cfg)
        if problems:
            outcome.problems[0] = "; ".join(problems)
        return outcome


CLI_STAGES = ("upload", "stats", "bakedeletion", "combinestorage",
              "deletechunks", "snapshot", "restore", "retrieve")


class Cli(Workload):
    """The README's eight-stage CLI chain, in-process, against a temp state.

    A set-up writes its network's input file; every chain starts from an
    empty chain directory, which settle() makes untimed."""

    name = "cli"
    setups = 8
    min_ops = 8
    # Snapshot file creation dominates a chain. Right after a quiet spell
    # it runs up to four times faster, and it slows over tens of seconds
    # of chains, as the file system catches up with the files the chains
    # delete; the warm-up brings each run closer to that steady state.
    warmup_s = 15.0

    @property
    def chain_dir(self) -> Path:
        return self.workdir / "chain"

    def settle(self) -> None:
        """Empty the chain directory, then flush the deletions and the input
        files, so that the file-system work they leave behind does not land
        in the next timed chain."""
        if self.chain_dir.exists():
            shutil.rmtree(self.chain_dir)
        self.chain_dir.mkdir(parents=True)
        os.sync()

    def call_of(self, output: str) -> int:
        return CLI_STAGES.index(output) if output in CLI_STAGES else 0

    def setup(self, seed: int):
        subprocess.run(
            [sys.executable, "-c", "import swarmsim.cli"],
            env={"PYTHONPATH": str(SRC)}, check=True, timeout=60,
        )
        self.workdir.mkdir(parents=True, exist_ok=True)
        cfg = experiment_config(self.shape, seed, self.workdir)
        data = harness.file_bytes(cfg, 0)
        (self.workdir / f"in-{seed}.bin").write_bytes(data)
        return seed, data

    def setup_outputs(self, state) -> tuple[dict[str, str], list[str]]:
        return {"input": sha256(state[1])}, []

    def argv(self, seed: int) -> list[list[str]]:
        w, s = str(self.chain_dir), self.shape
        return [
            ["upload", "--file", f"{self.workdir}/in-{seed}.bin", "--state", f"{w}/state",
             "--peers", str(s.peers), "--seed", str(seed),
             "--k", str(K), "--n", str(N), "--out", f"{w}/manifest.txt"],
            ["stats", "--state", f"{w}/state", "--manifest", f"{w}/manifest.txt",
             "--placement-out", f"{w}/placement.txt"],
            ["bakedeletion", "--placement", f"{w}/placement.txt",
             "--target-r", str(TARGET_R), "--out", f"{w}/plan.txt"],
            ["combinestorage", f"{w}/plan.txt", "--placement", f"{w}/placement.txt",
             "--out", f"{w}/all.txt"],
            ["deletechunks", "--state", f"{w}/state", "--list", f"{w}/all.txt",
             "--no-sync"],
            ["snapshot", "--state", f"{w}/state", "--out", f"{w}/saved"],
            ["restore", "--state", f"{w}/state", "--snapshot", f"{w}/saved"],
            ["retrieve", "--state", f"{w}/state", "--manifest", f"{w}/manifest.txt",
             "--out", f"{w}/back.bin", "--seed", str(seed)],
        ]

    def run(self, state, tracer) -> Outcome:
        seed, data = state
        outcome = Outcome(seconds=0.0, calls=len(CLI_STAGES))
        stdouts = []
        start = perf_counter()
        for index, argv in enumerate(self.argv(seed)):
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, out, err)
            stdouts.append(out.getvalue())
            if code != 0:
                outcome.problems[index] = f"{argv[0]} exited {code}: {err.getvalue().strip()}"
        outcome.seconds = perf_counter() - start
        for stage, text in zip(CLI_STAGES, stdouts):
            outcome.outputs[stage] = sha256(text.encode())
        back = self.chain_dir / "back.bin"
        if not back.is_file() or back.read_bytes() != data:
            outcome.problems[CLI_STAGES.index("retrieve")] = "retrieved bytes differ from the input"
        placement_file = self.chain_dir / "placement.txt"
        if placement_file.is_file():
            placement = tools.placement_from_text(placement_file.read_text())
            files = {fid: set(a) for fid, a in placement.files.items()}
            holders = {fid: {p for a in addrs for p in placement.chunk_to_peers[a]}
                       for fid, addrs in files.items()}
            problems = planner_bound_problems(files, holders, TARGET_R)
            if problems:
                outcome.problems[CLI_STAGES.index("bakedeletion")] = "; ".join(problems)
        if outcome.outputs["snapshot"] != outcome.outputs["restore"]:
            outcome.problems[CLI_STAGES.index("restore")] = "restore digest differs from snapshot"
        return outcome


WORKLOADS = {w.name: w for w in (Sweep, Ingest, Cli)}
