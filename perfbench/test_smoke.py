"""Smoke tests of the benchmark itself at a tiny scale (50 peers).

    python3 -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import bench
import tracing
from workloads import Shape

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
KIB = 1024
TINY = {
    "sweep": Shape(peers=50, file_sizes=(128 * KIB,), fractions=(0.0, 0.3)),
    "ingest": Shape(peers=50, file_sizes=(128 * KIB, 128 * KIB)),
    "cli": Shape(peers=50, file_sizes=(128 * KIB,)),
}


def tiny(name, tmp_path, trace=False, pins=None):
    return bench.measure(name, 3, 0.2, trace, tmp_path / name, shape=TINY[name],
                         pins=pins or {}, setups=2, warmup_s=0.3)


def units(metrics):
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_end_to_end_metric_is_emitted_with_its_unit(name, tmp_path):
    report = tiny(name, tmp_path)
    assert report.correct, report.problems
    assert report.attempted >= 1
    assert units(report.metrics) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(value > 0 for value, _ in report.metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_spans_nest_and_cover_the_timed_phase(name, tmp_path):
    report = tiny(name, tmp_path, trace=True)
    assert report.correct, report.problems
    assert units(report.metrics) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    spans = report.spans
    for _, start, end, parent, _ in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert min(tracing.self_times(spans)) >= -1e-9
    assert report.metrics["bench.top_level_share"][0] >= 0.95


@pytest.mark.parametrize("name", sorted(TINY))
def test_corrupted_pin_counts_as_a_failed_operation(name, tmp_path):
    clean = tiny(name, tmp_path / "clean")
    assert clean.failed == 0
    key = sorted(k for k in clean.outputs if k.startswith("op@"))[0]
    pins = dict(clean.outputs, **{key: "0" * 64})
    corrupted = tiny(name, tmp_path / "corrupted", pins=pins)
    assert not corrupted.correct
    assert corrupted.failed >= 1
    assert any("does not match its pin" in p for p in corrupted.problems)


def test_tail_keeps_ten_samples_beyond_it():
    assert bench.tail([float(i) for i in range(1, 31)]) == (20.0, 100.0 * 20 / 30)
    assert bench.tail([float(i) for i in range(1, 21)]) == (20.0, 100.0)
