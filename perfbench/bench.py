"""One benchmark run: set up, measure a closed loop of timed operations,
check every output, and turn the timings into metrics.

Everything runs in this process on one thread; each operation starts only
after the previous one returned. The bounded latency, op_ref_p50, is each
timed operation's seconds divided by the seconds of a fixed pure-Python
reference loop timed right before and right after it. The CPU speed of a
small shared host swings by a quarter within seconds and stays off for
minutes, which no run length averages out; the ratio cancels that swing
and still moves in full with any change to the program. Raw seconds are
printed beside it. An untraced run installs a single hook, a
timestamp on entry to Network.restore, which gives the sweep's cell
boundaries. A traced run (trace=True) first does the untraced run, then one
more set-up and operation with every wrapper from tracing.py installed, and
reports per-layer metrics over that traced section.
"""

from __future__ import annotations

import json
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracing
from workloads import SHAPES, WORKLOADS, Shape

PINS = Path(__file__).resolve().parent / "pins.json"
REFERENCE_LOOP = 100_000  # additions per reference round, about 4 ms
REFERENCE_ROUNDS = 3


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def record(self, workload, kind: str, calls: int, problems: dict[int, str],
               outputs: dict[str, str], pins: dict[str, str]) -> None:
        """Count one operation's calls, failing those with a problem, an
        output that differs from the first repetition's, or one that
        differs from its pinned value."""
        problems = dict(problems)
        for key, value in outputs.items():
            name = f"{kind}:{key}"
            first = self.outputs.setdefault(name, value)
            if value != first:
                problems.setdefault(workload.call_of(key), f"{name} differs between repetitions")
            if name in pins and value != pins[name]:
                problems.setdefault(workload.call_of(key), f"{name} does not match its pin")
        self.attempted += calls
        self.failed += len(problems)
        self.problems += [f"{kind}: {text}" for _, text in sorted(problems.items())]


def load_pins(name: str, seed: int) -> dict[str, str]:
    """Pinned outputs of the default-shape workload for this seed, if any."""
    pins = json.loads(PINS.read_text())
    return pins[name] if pins["seed"] == seed else {}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or the maximum while that would not reach the
    median (fewer than 21 samples)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def input_seeds(seed: int, setups: int) -> list[int]:
    """SimConfig seeds of one run: set-up i builds the network of seed
    setups * seed + i, so a run spans several networks and no two runs
    share one."""
    return [setups * seed + i for i in range(setups)]


def projected_seconds(samples: list[float]) -> float:
    """Timed seconds after one more operation of median length."""
    return sum(samples) + statistics.median(samples)


def reference_seconds() -> float:
    """Median of a few rounds of a fixed pure-Python loop: how fast the
    interpreter runs on this machine at this moment."""
    times = []
    for _ in range(REFERENCE_ROUNDS):
        start = perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i
        times.append(perf_counter() - start)
    return statistics.median(times)


def per_network_median(by_seed: dict[int, list[float]]) -> float:
    """Mean over the run's networks of each one's median sample, so that
    how many operations each network got does not move the figure."""
    return statistics.fmean(statistics.median(times) for times in by_seed.values() if times)


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path,
            shape: Shape | None = None, pins: dict[str, str] | None = None,
            setups: int | None = None, warmup_s: float | None = None) -> Report:
    """Run one workload and return its report; raises if a set-up fails,
    since nothing can be measured without one.

    Operation i works on the network of input seed i modulo the run's
    set-ups. A reusable workload sets each network up once and keeps it;
    any other workload sets up afresh before each operation. Operations
    run untimed for the workload's warm-up seconds before the timed ones;
    their outputs are checked all the same."""
    if shape is None:
        shape = SHAPES[name]
        if pins is None:
            pins = load_pins(name, seed)
    pins = pins or {}
    workload = WORKLOADS[name](shape, workdir)
    seeds = input_seeds(seed, setups or workload.setups)
    report = Report()
    setup_times: list[float] = []
    stamps = tracing.Tracer()
    by_seed: dict[int, list[float]] = {s: [] for s in seeds}  # timed seconds
    ratios: dict[int, list[float]] = {s: [] for s in seeds}  # seconds / reference
    references: list[float] = []

    def set_up(input_seed):
        start = perf_counter()
        state = workload.setup(input_seed)
        setup_times.append(perf_counter() - start)
        outputs, problems = workload.setup_outputs(state)
        report.record(workload, f"setup@{input_seed}", 1,
                      {0: "; ".join(problems)} if problems else {}, outputs, pins)
        return state

    def operation(index, timed):
        """Set up if need be and run the workload on the network of input
        seed index modulo the set-ups; None if the operation raised."""
        input_seed = seeds[index % len(seeds)]
        state = states[index % len(seeds)] if workload.reusable else set_up(input_seed)
        workload.settle()
        kind = f"op@{input_seed}"
        try:
            before = reference_seconds() if timed else 0.0
            outcome = workload.run(state, stamps)
            after = reference_seconds() if timed else 0.0
        except Exception as exc:  # a raising operation is a failed one
            report.record(workload, kind, 1, {0: f"raised {exc!r}"}, {}, pins)
            return None
        report.record(workload, kind, outcome.calls, outcome.problems, outcome.outputs, pins)
        if timed:
            by_seed[input_seed].append(outcome.seconds)
            ratios[input_seed].append(2 * outcome.seconds / (before + after))
            references.extend((before, after))
        return outcome

    ops = []
    warmups = 0
    with tracing.instrumented(stamps, only={"netsim.restore"}):
        states = [set_up(s) for s in seeds] if workload.reusable else []
        warm_until = perf_counter() + (workload.warmup_s if warmup_s is None else warmup_s)
        while perf_counter() < warm_until and operation(warmups, timed=False):
            warmups += 1
        while len(ops) < min(workload.min_ops, len(seeds)) or projected_seconds(
                [o.seconds for o in ops]) <= seconds:
            outcome = operation(warmups + len(ops), timed=True)
            if outcome is None:
                break
            ops.append(outcome)
    states.clear()
    if not ops:
        raise RuntimeError("; ".join(report.problems))

    samples = [o.seconds for o in ops]
    report.metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ref_p50": (per_network_median(ratios), "ref"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    networks = sum(1 for times in by_seed.values() if times)
    report.notes += [
        f"setup_s: median of {len(setup_times)} set-ups; {warmups} untimed warm-up operations",
        f"op_ref_p50: mean over {networks} networks of each one's median of "
        f"operation seconds / reference seconds; reference loop median "
        f"{statistics.median(references) * 1e3:.3f} ms over {len(references)} timings",
        f"op_s_p50: {per_network_median(by_seed):.4f} s, the same mean of medians "
        f"in seconds; {len(samples)} operations, min {min(samples):.4f} s, "
        f"median {statistics.median(samples):.4f} s, max {max(samples):.4f} s, "
        f"{len(samples) / sum(samples):.4f} operations/s",
        "operation seconds by input seed: " + "; ".join(
            f"{s}: " + " ".join(f"{t:.3f}" for t in times) for s, times in by_seed.items()),
    ]
    cells = [c for o in ops for c in o.cells]
    if cells:
        cell_tail, cell_pct = tail(cells)
        report.notes.append(
            f"cells: p50 {statistics.median(cells):.4f} s, p{cell_pct:.1f} "
            f"{cell_tail:.4f} s of {len(cells)} cells, "
            f"{len(cells) / sum(samples):.4f} cells/s")
    if trace:
        traced = seeds[0]
        traced_run(workload, traced, statistics.median(by_seed[traced]), report, pins)
    return report


def traced_run(workload, input_seed, untraced: float, report: Report, pins) -> None:
    """One set-up and one operation on input_seed with every wrapper
    installed; its outputs must match the untraced ones, and untraced is
    the median untraced time of that operation."""
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        state = workload.setup(input_seed)
        workload.settle()
        start = perf_counter()
        outcome = workload.run(state, tracer)
        end = perf_counter()
    report.record(workload, f"op@{input_seed}", outcome.calls, outcome.problems,
                  outcome.outputs, pins)
    overhead = outcome.seconds - untraced
    report.spans = tracer.spans
    report.metrics = tracing.layer_metrics(tracer.spans)
    report.metrics.update({
        "bench.trace_overhead_s": (overhead, "s"),
        "bench.trace_overhead_share": (overhead / untraced, "ratio"),
        "bench.top_level_share": (tracing.top_level_share(tracer.spans, start, end), "ratio"),
    })
    report.notes.append(
        f"trace: {len(tracer.spans)} spans; traced operation {outcome.seconds:.3f} s "
        f"against an untraced median of {untraced:.3f} s")
