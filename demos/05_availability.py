"""
Measuring availability under peer failures
==========================================

The full pipeline: upload, normalize to a uniform replica count,
snapshot, then repeatedly knock out a growing fraction of peers and try
to retrieve every file. Each iteration restores the snapshot first, so
runs are independent and the whole sweep is reproducible byte for byte.
"""

from swarmsim import (
    CodingParams,
    ExperimentConfig,
    SimConfig,
    run_experiment,
)

config = ExperimentConfig(
    sim=SimConfig(num_peers=100, seed=7, view_size=16, ns=4),
    file_sizes=(524_288, 262_144),
    coding=CodingParams(k=3, n=4),
    target_r=2,
    fractions=(0.0, 0.2, 0.4, 0.6, 0.8),
    iterations=5,
    min_degree=2,
    outdir="demo-out",
)

prepared, results, paths = run_experiment(config)

print("files uploaded:", [fid[:12] for fid in prepared.file_ids])
print("replica histogram after normalization:",
      prepared.census_after.replicas_per_chunk)
print("rules hold:", prepared.rules.ok)
print()

print("fraction  successes  mean hops when successful")
for fraction in config.fractions:
    rows = [r for r in results if r.fraction == fraction]
    wins = [r for r in rows if r.success]
    hops = sum(r.hops for r in wins) / len(wins) if wins else float("nan")
    print(f"{fraction:8.1f}  {len(wins):2d}/{len(rows):2d}      {hops:6.1f}")

print()
print("reports written:")
for path in paths:
    print(" ", path)
