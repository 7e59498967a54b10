"""Spans around calls into swarmsim's modules, recorded from outside src/.

A traced run replaces public functions with timing wrappers in the module
namespace where each caller looks them up (netsim imports build_views by
name, harness imports the tools functions, and so on) and wraps Network
methods on the class. Each span records its name, start, end, parent and an
optional count taken from the call's arguments or result. Spans stay in
memory; the caller writes them out when the run ends.

Retrieval lookups (Network._locate) are private, so they are timed by
wrapping the fetch callback that Network.retrieve hands to reassemble or
repair_retrieve: every fetch call is one "netsim.locate" span.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from swarmsim import cli, codec, harness, netsim, overlay, seeds


class Tracer:
    """In-memory span recorder. Spans are [name, start, end, parent, count];
    parent is the index of the enclosing span, or -1 at top level."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None, before=None):
        """fn wrapped in a span. count(args, result, pre) gives the span's
        count; before(args) is evaluated first and passed to it as pre."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, result, pre)
            return result

        return traced


def write_spans(spans: list[list], path) -> None:
    """One JSON object per span, in the order the spans started."""
    with open(path, "w") as out:
        for name, start, end, parent, count in spans:
            out.write(json.dumps({"name": name, "start": start, "end": end,
                                  "parent": parent, "count": count}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.
    Calls are single-threaded and strictly nested, so children of one span
    never overlap and their durations add up."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _fetch_wrapping(tracer: Tracer, name: str, fn):
    """Span around fn whose fetch callback (second argument) is itself traced
    as one netsim.locate span per lookup, counting misses."""
    def with_traced_fetch(root, fetch, *rest, **kwargs):
        fetch = tracer.wrap("netsim.locate", fetch, count=lambda a, r, p: int(r is None))
        return fn(root, fetch, *rest, **kwargs)
    return tracer.wrap(name, functools.wraps(fn)(with_traced_fetch))


def _stored(args) -> int:
    return sum(len(store) for store in args[0].stores.values())


def _cli_run(tracer: Tracer, fn):
    @functools.wraps(fn)
    def run(argv, *rest, **kwargs):
        return tracer.wrap(f"cli.{argv[0]}", fn)(argv, *rest, **kwargs)
    return run


def _snapshot_size(snap) -> tuple[int, int]:
    """(payload files, payload bytes) of a snapshot's on-disk form."""
    return (
        sum(len(store) for store in snap.stores.values()),
        sum(len(p) for store in snap.stores.values() for p in store.values()),
    )


Network = netsim.Network

# span name -> (namespaces where callers look the function up, count, before)
_FUNCTIONS = {
    "seeds.seeded_bytes": ([harness], None, None),
    "seeds.derive_rng": ([overlay, netsim, harness, cli, seeds], None, None),
    "overlay.make_peer_ids": ([netsim], None, None),
    "overlay.build_views": ([netsim], None, None),
    "overlay.responsible_peers": ([netsim], None, None),
    "netsim.spawn_network": ([netsim, harness, cli], None, None),
    "netsim.save_snapshot": ([cli], lambda a, r, p: _snapshot_size(a[0]), None),
    "netsim.load_snapshot": ([cli], lambda a, r, p: _snapshot_size(r), None),
    "netsim.network_from_snapshot": ([cli], None, None),
    "chunker.split_file": ([netsim, harness], None, None),
    "chunker.build_tree": ([netsim, harness], None, None),
    "chunker.reassemble": ([codec], None, None),
    "codec.encode_tree": ([netsim, harness], None, None),
    "codec.rs_decode": ([codec], None, None),
    "codec.parse_manifest_text": ([cli], None, None),
    "codec.manifest_text": ([cli], None, None),
    "tools.listchunks": ([harness, cli], None, None),
    "tools.placement_from_network": (
        [harness, cli],
        lambda a, r, p: sum(len(h) for h in r.chunk_to_peers.values()), None),
    "tools.holders_map": ([harness], None, None),
    "tools.bakedeletion": ([harness, cli], lambda a, r, p: len(r), None),
    "tools.combinestorage": ([harness, cli], None, None),
    "tools.deletechunks": ([harness, cli], lambda a, r, p: r.applied, None),
    "tools.check_rules": ([harness], None, None),
    "tools.placement_to_text": ([cli], None, None),
    "tools.placement_from_text": ([cli], None, None),
    "tools.deletion_list_to_text": ([cli], None, None),
    "tools.deletion_list_from_text": ([cli], None, None),
    "harness.prepare": ([harness], None, None),
    "harness.run_iterations": (
        [harness],
        lambda a, r, p: (len({(x.fraction, x.iteration) for x in r}),
                         sum(x.success for x in r), sum(x.hops for x in r)),
        None),
    "harness.census": ([harness, cli], None, None),
    "harness.derive_manifests": ([harness], None, None),
    "harness.emit_reports": ([harness, cli], None, None),
}

_METHODS = {
    "netsim.upload": ("upload", lambda a, r, p: _stored(a) - p, _stored),
    "netsim.route_path": ("route_path", lambda a, r, p: len(r), None),
    "netsim.retrieve": (
        "retrieve",
        lambda a, r, p: (int(r[1].success), r[1].hops, r[1].repaired_groups), None),
    "netsim.restore": ("restore", None, None),
    "netsim.census_digest": ("census_digest", None, None),
    "netsim.fail_peers": ("fail_peers", None, None),
    "netsim.wait_for_connectivity": ("wait_for_connectivity", None, None),
}


@contextmanager
def instrumented(tracer: Tracer, only: set[str] | None = None):
    """Install the wrappers (only the named spans, if given) for the duration
    of the block, then put every original back."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    try:
        for name, (namespaces, count, before) in _FUNCTIONS.items():
            if only is not None and name not in only:
                continue
            attr = name.split(".", 1)[1]
            for module in namespaces:
                patch(module, attr, tracer.wrap(name, getattr(module, attr), count, before))
        for name, (attr, count, before) in _METHODS.items():
            if only is None or name in only:
                patch(Network, attr, tracer.wrap(name, getattr(Network, attr), count, before))
        if only is None:
            patch(netsim, "repair_retrieve", _fetch_wrapping(
                tracer, "codec.repair_retrieve", netsim.repair_retrieve))
            patch(netsim, "reassemble", _fetch_wrapping(
                tracer, "chunker.reassemble", netsim.reassemble))
            patch(cli, "run", _cli_run(tracer, cli.run))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_totals(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and the summed counts."""
    own = self_times(spans)
    totals: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": None})
    for span, self_s in zip(spans, own):
        name, start, end, _, count = span
        entry = totals[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += self_s
        if count is not None:
            if isinstance(count, tuple):
                prev = entry["count"] or (0,) * len(count)
                entry["count"] = tuple(x + y for x, y in zip(prev, count))
            else:
                entry["count"] = (entry["count"] or 0) + count
    return totals


def top_level_share(spans: list[list], start: float, end: float) -> float:
    """Share of [start, end] covered by top-level spans that began in it."""
    covered = sum(
        min(e, end) - s for _, s, e, parent, _ in spans
        if parent < 0 and start <= s < end
    )
    return covered / (end - start)


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from one traced section.
    Names of layers or functions the workload never reached read 0."""
    t = span_totals(spans)

    def s(name):
        return t[name]["s"] if name in t else 0.0

    def own(name):
        return t[name]["self_s"] if name in t else 0.0

    def calls(name):
        return t[name]["calls"] if name in t else 0

    def count(name, index=None, default=0):
        value = t[name]["count"] if name in t else None
        if value is None:
            return default
        return value if index is None else value[index]

    retrieves = calls("netsim.retrieve")
    locates = calls("netsim.locate")
    replicas_before = count("tools.placement_from_network")
    cli_stages = ("upload", "stats", "bakedeletion", "combinestorage",
                  "deletechunks", "snapshot", "restore", "retrieve")
    m: dict[str, tuple[float, str]] = {
        "seeds.seeded_bytes_s": (s("seeds.seeded_bytes"), "s"),
        "seeds.derive_rng_s": (s("seeds.derive_rng"), "s"),
        "seeds.derive_rng_calls": (calls("seeds.derive_rng"), "count"),
        "overlay.build_views_s": (s("overlay.build_views"), "s"),
        "overlay.build_views_calls": (calls("overlay.build_views"), "count"),
        "overlay.make_peer_ids_s": (s("overlay.make_peer_ids"), "s"),
        "overlay.responsible_peers_s": (s("overlay.responsible_peers"), "s"),
        "overlay.responsible_peers_calls": (calls("overlay.responsible_peers"), "count"),
        "netsim.spawn_network_s": (s("netsim.spawn_network"), "s"),
        "netsim.upload_s": (s("netsim.upload"), "s"),
        "netsim.upload_self_s": (own("netsim.upload"), "s"),
        "netsim.upload_replicas_written": (count("netsim.upload"), "count"),
        "netsim.route_path_s": (s("netsim.route_path"), "s"),
        "netsim.route_path_calls": (calls("netsim.route_path"), "count"),
        "netsim.route_path_len_mean": (
            count("netsim.route_path") / max(calls("netsim.route_path"), 1), "count"),
        "netsim.retrieve_s": (s("netsim.retrieve"), "s"),
        "netsim.retrieve_calls": (retrieves, "count"),
        "netsim.locate_s": (s("netsim.locate"), "s"),
        "netsim.locate_self_s": (own("netsim.locate"), "s"),
        "netsim.locate_calls": (locates, "count"),
        "netsim.locate_misses": (count("netsim.locate"), "count"),
        "netsim.hops_per_locate": (
            count("netsim.retrieve", 1) / max(locates, 1), "count"),
        "netsim.restore_s": (s("netsim.restore"), "s"),
        "netsim.restore_self_s": (own("netsim.restore"), "s"),
        "netsim.restore_calls": (calls("netsim.restore"), "count"),
        "netsim.census_digest_s": (s("netsim.census_digest"), "s"),
        "netsim.fail_peers_s": (s("netsim.fail_peers"), "s"),
        "netsim.wait_for_connectivity_s": (s("netsim.wait_for_connectivity"), "s"),
        "netsim.save_snapshot_s": (s("netsim.save_snapshot"), "s"),
        "netsim.load_snapshot_s": (s("netsim.load_snapshot"), "s"),
        "netsim.network_from_snapshot_s": (s("netsim.network_from_snapshot"), "s"),
        "netsim.snapshot_files_written": (count("netsim.save_snapshot", 0), "count"),
        "netsim.snapshot_bytes_written": (count("netsim.save_snapshot", 1), "B"),
        "netsim.snapshot_files_read": (count("netsim.load_snapshot", 0), "count"),
        "chunker.split_file_s": (s("chunker.split_file"), "s"),
        "chunker.build_tree_s": (s("chunker.build_tree"), "s"),
        "chunker.reassemble_s": (s("chunker.reassemble"), "s"),
        "chunker.reassemble_self_s": (own("chunker.reassemble"), "s"),
        "codec.encode_tree_s": (s("codec.encode_tree"), "s"),
        "codec.repair_retrieve_s": (s("codec.repair_retrieve"), "s"),
        "codec.repair_retrieve_self_s": (own("codec.repair_retrieve"), "s"),
        "codec.rs_decode_s": (s("codec.rs_decode"), "s"),
        "codec.rs_decode_calls": (calls("codec.rs_decode"), "count"),
        "codec.repaired_groups": (count("netsim.retrieve", 2), "count"),
        "codec.parse_manifest_text_s": (s("codec.parse_manifest_text"), "s"),
        "codec.manifest_text_s": (s("codec.manifest_text"), "s"),
        "tools.listchunks_s": (s("tools.listchunks"), "s"),
        "tools.placement_from_network_s": (s("tools.placement_from_network"), "s"),
        "tools.holders_map_s": (s("tools.holders_map"), "s"),
        "tools.bakedeletion_s": (s("tools.bakedeletion"), "s"),
        "tools.combinestorage_s": (s("tools.combinestorage"), "s"),
        "tools.deletechunks_s": (s("tools.deletechunks"), "s"),
        "tools.check_rules_s": (s("tools.check_rules"), "s"),
        "tools.placement_pairs": (replicas_before, "count"),
        "tools.deletions_planned": (count("tools.bakedeletion"), "count"),
        "tools.deleted_share": (
            count("tools.deletechunks") / replicas_before if replicas_before else 0.0,
            "ratio"),
        "tools.placement_text_s": (
            s("tools.placement_to_text") + s("tools.placement_from_text"), "s"),
        "tools.deletion_list_text_s": (
            s("tools.deletion_list_to_text") + s("tools.deletion_list_from_text"), "s"),
        "harness.prepare_self_s": (own("harness.prepare"), "s"),
        "harness.run_iterations_self_s": (own("harness.run_iterations"), "s"),
        "harness.census_s": (s("harness.census"), "s"),
        "harness.derive_manifests_s": (s("harness.derive_manifests"), "s"),
        "harness.emit_reports_s": (s("harness.emit_reports"), "s"),
        "harness.cells": (count("harness.run_iterations", 0), "count"),
        "harness.retrieval_successes": (count("harness.run_iterations", 1), "count"),
        "harness.hops_total": (count("harness.run_iterations", 2), "count"),
    }
    for stage in cli_stages:
        m[f"cli.{stage}_s"] = (s(f"cli.{stage}"), "s")
    return m
