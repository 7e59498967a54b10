"""Run the benchmark over many seeds and summarise how steady it is.

    python3 perfbench/baseline.py --workloads sweep,ingest,cli --seeds 1-10 \
        --trace-seed 1 --held-out 77 --out perfbench/baseline.json

Every run is a fresh `run.py` process. For each end-to-end metric and
workload this prints the median, the quartiles (statistics.quantiles, n=4)
and their distance as a share of the median, against a third of the
metric's bound in BENCHMARK.json. With --trace-seed it adds one traced run
per workload; with --held-out one untraced run per workload on that seed;
with --out it writes everything, plus the machine, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(tok) for tok in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="sweep,ingest,cli")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"],
               "seeds": args.seeds, "end_to_end": {}, "per_layer": {}, "held_out": {}}
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            result = run(workload, seed, spec["run_seconds"], 0)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            steady &= result["correct"]
            results.append(result)
        table = summary["end_to_end"][workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            table[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "values": values}
            print(f"  {name}: median {median:.4g} spread {spread:.3f} "
                  f"(a third of the bound: {bound / 3:.3f}){'' if ok else '  TOO WIDE'}",
                  flush=True)
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, spec["run_seconds"], 1)
            summary["per_layer"][workload] = {
                "seed": args.trace_seed,
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
            print(f"  traced: overhead "
                  f"{traced['metrics']['bench.trace_overhead_share']['value']:.3f}, "
                  f"top-level share {traced['metrics']['bench.top_level_share']['value']:.4f}",
                  flush=True)
        if args.held_out is not None:
            held = run(workload, args.held_out, spec["run_seconds"], 0)
            summary["held_out"][workload] = held
            steady &= held["correct"]
            print(f"  held-out seed {args.held_out}: correct={held['correct']} "
                  f"failed={held['failed']}/{held['attempted']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
