"""swarmsim benchmark: time the read, write and scripting paths and check
their outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): sweep, ingest, cli, or all (each in a fresh
process, one after the other). The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, measured untraced;
with --trace 1 they are the per-layer ones from a traced set-up and
operation that follows the untraced run, and the spans are written to
.perfbench_out/. Run from the root of a source checkout; the package is
imported from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep", "ingest", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_one(args) -> int:
    import bench  # imports swarmsim, which main() put on the path

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}"
    try:
        report = bench.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir)
    except Exception as exc:  # no set-up succeeded: nothing to report
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in report.notes:
        print(note)
    share = report.failed / report.attempted
    print(f"ops_failed_share = {share:.6g} ({report.failed} failed / "
          f"{report.attempted} attempted)")
    for problem in report.problems:
        print(f"FAILED {problem}")
    print("outputs " + json.dumps(report.outputs, sort_keys=True))
    if report.spans:
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
        bench.tracing.write_spans(report.spans, path)
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "swarmsim" / "__init__.py").is_file():
        print(f"no swarmsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
