"""Command-line interface exposing every pipeline stage for scripting.

Network state persists between invocations as a snapshot directory (the
--state flag). Exit codes: 0 success, 1 usage or bad input, 2 infeasible
deletion plan, 3 availability failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .chunker import ChunkParams
from .codec import CodingParams, manifest_text, parse_manifest_text
from .errors import InfeasiblePlanError, SwarmSimError
from .harness import (
    CONFIG_KEYS,
    census,
    emit_census,
    emit_reports,  # not called here; perfbench's tracer patches cli.emit_reports
    parse_experiment_config,
    prepare,
    run_experiment,
)
from .netsim import (
    Network,
    SimConfig,
    SYNC_FULL,
    SYNC_NONE,
    load_snapshot,
    network_from_snapshot,
    save_snapshot,
    spawn_network,
)
from .seeds import derive_rng
from .tools import (
    combinestorage,
    bakedeletion,
    deletechunks,
    deletion_list_from_text,
    deletion_list_to_text,
    listchunks,
    placement_from_network,
    placement_from_text,
    placement_to_text,
)

EX_OK = 0
EX_USAGE = 1
EX_INFEASIBLE = 2
EX_UNAVAILABLE = 3
EX_IO = 4


class UsageError(Exception):
    pass


class AvailabilityFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep argparse from sys.exit(2)
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="swarmsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("upload", help="chunk a file and place it on the network")
    p.add_argument("--file", required=True, help="input file path")
    p.add_argument("--state", required=True, help="network state directory")
    p.add_argument("--out", help="write the manifest to this path")
    # network flags: they build a fresh network (unset ones take SimConfig's
    # defaults) and must match the network of an existing state
    p.add_argument("--peers", type=int, help="peer count, required for a fresh network")
    p.add_argument("--seed", type=int, help="network seed")
    p.add_argument("--view-size", type=int, help="routing view size")
    p.add_argument("--ns", type=int, help="neighbourhood size")
    p.add_argument("--backends", type=int, help="backend count")
    p.add_argument("--no-sync", action="store_true",
                   help="upload without the pull round; switches an existing state to no_sync")
    p.add_argument("--chunk-size", type=int, help="chunk size in bytes")
    p.add_argument("--branching", type=int, help="tree branching factor")
    p.add_argument("--k", type=int, help="data chunks per coding group")
    p.add_argument("--n", type=int, help="total chunks per coding group")

    p = sub.add_parser("retrieve", help="fetch a file back out of the network")
    p.add_argument("--state", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="write the file here")
    p.add_argument("--entry", type=int, help="entry peer index")
    p.add_argument("--seed", type=int, default=0,
                   help="entry peer draw when --entry is not given")

    p = sub.add_parser("listchunks", help="print every chunk address of a file, root first")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="write addresses here instead of stdout")

    p = sub.add_parser("bakedeletion", help="plan deletions for uniform replication")
    p.add_argument("--placement", required=True, help="placement map file")
    p.add_argument("--target-r", type=int, required=True)
    p.add_argument("--out", required=True, help="write the deletion list here")

    p = sub.add_parser("combinestorage", help="merge deletion lists")
    p.add_argument("lists", nargs="*", help="deletion list files")
    p.add_argument("--out", required=True)
    p.add_argument("--placement",
                   help="re-verify rule A and shared chunks' keepers against this placement")

    p = sub.add_parser("deletechunks", help="apply a deletion list to the network state")
    p.add_argument("--state", required=True)
    p.add_argument("--list", required=True, dest="list_path")
    p.add_argument("--no-sync", action="store_true",
                   help="switch the state to no_sync before deleting")

    p = sub.add_parser("snapshot", help="copy the network state to a snapshot directory")
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("restore", help="replace the network state with a snapshot")
    p.add_argument("--state", required=True)
    p.add_argument("--snapshot", required=True)

    p = sub.add_parser("experiment", help="run the full prepare/iterate/report pipeline")
    p.add_argument("--config", required=True, help="key=value experiment file")
    p.add_argument("--out", help="override the config's output directory")

    p = sub.add_parser("stats", help="census reports and placement maps from the state")
    p.add_argument("--state", required=True)
    p.add_argument("--out", help="write census CSVs to this directory")
    p.add_argument("--manifest", action="append", default=[],
                   help="file manifest (repeatable, for --placement-out)")
    p.add_argument("--placement-out", help="write a placement map here")

    return parser


def _load_network(state: str) -> Network:
    return network_from_snapshot(load_snapshot(state))


def _save_network(network: Network, state: str) -> None:
    save_snapshot(network.snapshot(), state)


# upload's network flags, by the SimConfig field each one sets: the
# experiment config's network keys, less sync_mode, which is --no-sync here
_NETWORK_FLAGS = {
    key: name
    for key, (owner, name, _) in CONFIG_KEYS.items()
    if owner is SimConfig and key != "sync_mode"
}


def _cmd_upload(args, stdout) -> int:
    if (args.k is None) != (args.n is None):
        raise UsageError("--k and --n must be given together")
    data = Path(args.file).read_bytes()
    given = {
        name: getattr(args, flag)
        for flag, name in _NETWORK_FLAGS.items()
        if getattr(args, flag) is not None
    }
    sync_mode = SYNC_NONE if args.no_sync else SYNC_FULL
    if (Path(args.state) / "manifest.txt").is_file():
        network = _load_network(args.state)
        for flag, name in _NETWORK_FLAGS.items():
            held = getattr(network.config, name)
            if name in given and given[name] != held:
                raise UsageError(
                    f"--{flag.replace('_', '-')} {given[name]} disagrees with "
                    f"the state's {held}"
                )
        if args.no_sync:  # leaving the flag out keeps the state's mode
            network.sync_mode = sync_mode
    else:
        if args.peers is None:
            raise UsageError("--peers is required for a fresh network")
        network = spawn_network(SimConfig(sync_mode=sync_mode, **given))
    coding = CodingParams(k=args.k, n=args.n) if args.k is not None else None
    params = ChunkParams(**{
        name: getattr(args, name)
        for name in ("chunk_size", "branching")
        if getattr(args, name) is not None
    })
    manifest = network.upload(data, params, coding)
    _save_network(network, args.state)
    if args.out:
        Path(args.out).write_text(manifest_text(manifest))
    print(manifest.root.hex(), file=stdout)
    return EX_OK


def _cmd_retrieve(args, stdout) -> int:
    network = _load_network(args.state)
    manifest = parse_manifest_text(Path(args.manifest).read_text())
    if args.entry is not None:
        if not 0 <= args.entry < len(network.peer_ids):
            raise UsageError(f"entry peer index {args.entry} out of range")
        entry = network.peer_ids[args.entry]
    else:
        live = network.live_peers()
        if not live:
            raise AvailabilityFailure("no live peers")
        entry = live[derive_rng("cli-entry", args.seed).randrange(len(live))]
    data, stats = network.retrieve(manifest, entry)
    if not stats.success:
        raise AvailabilityFailure(stats.error or "retrieval failed")
    Path(args.out).write_bytes(data)
    print(
        f"retrieved {len(data)} bytes in {stats.hops} hops "
        f"({stats.repaired_groups} groups repaired)",
        file=stdout,
    )
    return EX_OK


def _cmd_listchunks(args, stdout) -> int:
    manifest = parse_manifest_text(Path(args.manifest).read_text())
    addresses = listchunks(manifest)
    text = "".join(a.hex() + "\n" for a in addresses)
    if args.out:
        Path(args.out).write_text(text)
    else:
        stdout.write(text)
    return EX_OK


def _cmd_bakedeletion(args, stdout) -> int:
    placement = placement_from_text(Path(args.placement).read_text())
    entries = bakedeletion(placement, args.target_r)
    Path(args.out).write_text(deletion_list_to_text(entries))
    print(f"planned {len(entries)} deletions", file=stdout)
    return EX_OK


def _cmd_combinestorage(args, stdout) -> int:
    lists = [
        deletion_list_from_text(Path(path).read_text()) for path in args.lists
    ]
    placement = None
    if args.placement:
        placement = placement_from_text(Path(args.placement).read_text())
    merged = combinestorage(lists, placement)
    Path(args.out).write_text(deletion_list_to_text(merged))
    print(f"combined {len(merged)} deletions", file=stdout)
    return EX_OK


def _cmd_deletechunks(args, stdout) -> int:
    network = _load_network(args.state)
    if args.no_sync:
        network.sync_mode = SYNC_NONE
    entries = deletion_list_from_text(Path(args.list_path).read_text())
    report = deletechunks(network, entries)
    _save_network(network, args.state)
    print(f"applied={report.applied} missing={report.missing}", file=stdout)
    return EX_OK


def _copy_state(source: str, target: str, stdout) -> int:
    snap = load_snapshot(source)
    save_snapshot(snap, target)
    print(snap.digest, file=stdout)
    return EX_OK


def _cmd_snapshot(args, stdout) -> int:
    return _copy_state(args.state, args.out, stdout)


def _cmd_restore(args, stdout) -> int:
    return _copy_state(args.snapshot, args.state, stdout)


def _cmd_experiment(args, stdout) -> int:
    config = parse_experiment_config(Path(args.config).read_text())
    _, results, paths = run_experiment(config, args.out)
    successes = sum(1 for r in results if r.success)
    print(f"{successes}/{len(results)} retrievals succeeded", file=stdout)
    for path in paths:
        print(str(path), file=stdout)
    return EX_OK


def _cmd_stats(args, stdout) -> int:
    if args.placement_out and not args.manifest:
        raise UsageError("--placement-out needs at least one --manifest")
    if args.manifest and not args.placement_out:
        raise UsageError("--manifest needs --placement-out")
    network = _load_network(args.state)
    report = census(network)
    if args.manifest:
        files = {}
        for path in args.manifest:
            manifest = parse_manifest_text(Path(path).read_text())
            files[manifest.root.hex()] = listchunks(manifest)
        placement = placement_from_network(network, files)
        Path(args.placement_out).write_text(placement_to_text(placement))
    if args.out:
        for path in emit_census(report, args.out):
            print(str(path), file=stdout)
    else:
        print(
            f"peers={len(network.peer_ids)} chunks={report.distinct_chunks} "
            f"replicas={report.total_replicas}",
            file=stdout,
        )
        for count in sorted(report.replicas_per_chunk):
            print(f"replicas={count} chunks={report.replicas_per_chunk[count]}",
                  file=stdout)
    return EX_OK


_COMMANDS = {
    "upload": _cmd_upload,
    "retrieve": _cmd_retrieve,
    "listchunks": _cmd_listchunks,
    "bakedeletion": _cmd_bakedeletion,
    "combinestorage": _cmd_combinestorage,
    "deletechunks": _cmd_deletechunks,
    "snapshot": _cmd_snapshot,
    "restore": _cmd_restore,
    "experiment": _cmd_experiment,
    "stats": _cmd_stats,
}


def run(argv: list[str], stdout=None, stderr=None) -> int:
    """Parse and execute one command, mapping errors to exit codes."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(parser.format_usage(), end="", file=stderr)
        print(f"error: {exc}", file=stderr)
        return EX_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        print(parser.format_usage(), end="", file=stderr)
        return EX_USAGE
    try:
        return _COMMANDS[args.command](args, stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=stderr)
        return EX_USAGE
    except InfeasiblePlanError as exc:
        print(f"infeasible: {exc}", file=stderr)
        return EX_INFEASIBLE
    except AvailabilityFailure as exc:
        print(f"unavailable: {exc}", file=stderr)
        return EX_UNAVAILABLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=stderr)
        return EX_IO
    except (SwarmSimError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return EX_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
