"""Storage maintenance tools: enumerate, thin out, merge, apply.

bakedeletion plans which replicas to drop so replication becomes uniform
while honoring four rules relative to the pre-deletion placement:

  A. every peer still holds at least one chunk of every file it held
     chunks of before,
  B. the set of unique chunks is unchanged,
  C. peers only lose chunks, never gain any,
  D. every chunk ends up with exactly target_r replicas.

Plans are deterministic and built in two phases: a cover phase assigns each
(peer, file) obligation a kept chunk via augmenting-path search (exact for
single-file placements), then a fill phase pads every chunk to exactly
target_r keepers on the least-loaded holders. Small instances fall back to
exhaustive search before being declared infeasible.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from math import prod
from typing import Iterable, Iterator, Sequence

from .chunker import Address, FileManifest, parse_address
from .errors import InfeasiblePlanError, SyncModeError, UnderReplicatedError
from .netsim import SYNC_NONE, holders
from .overlay import PeerId

DeletionEntry = tuple[PeerId, Address]

_EXHAUSTIVE_LIMIT = 250_000


@dataclass
class PlacementMap:
    """Who holds which chunk, plus per-file chunk lists. A file naming a
    chunk without a chunk_to_peers entry is rejected."""

    chunk_to_peers: dict[Address, set[PeerId]]
    files: dict[str, tuple[Address, ...]]

    def __post_init__(self) -> None:
        for fid, addrs in self.files.items():
            for addr in addrs:
                if addr not in self.chunk_to_peers:
                    raise ValueError(
                        f"file {fid} names chunk {addr.hex()}, which has no holder line"
                    )

    def restrict(self, file_id: str) -> "PlacementMap":
        """The placement as seen by a single file."""
        addrs = self.files[file_id]
        return PlacementMap(
            chunk_to_peers={a: set(self.chunk_to_peers[a]) for a in addrs},
            files={file_id: addrs},
        )


@dataclass
class DeleteReport:
    applied: int = 0
    missing: int = 0


@dataclass
class RulesReport:
    """Outcome of checking rules A-D against a placement pair."""

    a_ok: bool
    b_ok: bool
    c_ok: bool
    d_ok: bool
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.a_ok and self.b_ok and self.c_ok and self.d_ok


def listchunks(manifest: FileManifest) -> list[Address]:
    """Every chunk address of a file, depth-first from the root, each
    address once, derived from the manifest levels; parity addresses
    follow in group order."""
    levels, b = manifest.levels, manifest.params.branching

    def walk(level: int, index: int) -> Iterator[Address]:
        yield levels[level][index]
        if level:
            for child in range(index * b, min(index * b + b, len(levels[level - 1]))):
                yield from walk(level - 1, child)

    parity = (a for group in manifest.groups for a in group.parity_addresses)
    return list(dict.fromkeys(itertools.chain(walk(len(levels) - 1, 0), parity)))


def placement_from_network(network, files: dict[str, Sequence[Address]]) -> PlacementMap:
    """Build the placement of the given files from the network's stores.

    Every file address must have at least one holder (failed peers count;
    failure is unreachability, not loss).
    """
    addresses = sorted({a for addrs in files.values() for a in addrs})
    chunk_to_peers = holders_map(network, addresses)
    for addr, holders in chunk_to_peers.items():
        if not holders:
            raise ValueError(f"chunk {addr.hex()} has no holders")
    return PlacementMap(
        chunk_to_peers=chunk_to_peers,
        files={fid: tuple(files[fid]) for fid in sorted(files)},
    )


def holders_map(network, addresses: Iterable[Address]) -> dict[Address, set[PeerId]]:
    """Each given address mapped to the set of peers whose store holds it,
    failed peers included; an address nobody holds maps to an empty set."""
    held = holders(network.stores)
    return {addr: set(held.get(addr, ())) for addr in addresses}


# -- bakedeletion ------------------------------------------------------------


def bakedeletion(placement: PlacementMap, target_r: int) -> list[DeletionEntry]:
    """Plan deletions bringing every chunk down to exactly target_r replicas:
    the replicas plan_keep does not keep. Raises as plan_keep does."""
    return dropped(placement, plan_keep(placement, target_r))


def dropped(placement: PlacementMap, kept: dict[Address, set[PeerId]]) -> list[DeletionEntry]:
    """Every replica outside kept, as (peer, address) pairs sorted
    lexicographically by hex: each peer's addresses come out ascending, so
    only the peers need sorting, not the pairs."""
    by_peer: dict[PeerId, list[Address]] = defaultdict(list)
    for addr in sorted(placement.chunk_to_peers):
        for pid in placement.chunk_to_peers[addr] - kept[addr]:
            by_peer[pid].append(addr)
    return [(pid, addr) for pid in sorted(by_peer) for addr in by_peer[pid]]


def plan_keep(placement: PlacementMap, target_r: int) -> dict[Address, set[PeerId]]:
    """The target_r holders each chunk keeps, satisfying rules A-D.

    Raises UnderReplicatedError if some chunk starts below target_r and
    InfeasiblePlanError when no keep-assignment can satisfy rule A.
    """
    if target_r < 1:
        raise ValueError("target_r must be at least 1")
    chunk_to_peers = placement.chunk_to_peers
    for addr in sorted(chunk_to_peers):
        if len(chunk_to_peers[addr]) < target_r:
            raise UnderReplicatedError(
                f"chunk {addr.hex()} has {len(chunk_to_peers[addr])} replicas, "
                f"below target {target_r}"
            )

    # one pass: the files of each chunk, in sorted order, and the held chunks
    # that can cover each (peer, file) rule-A obligation
    files_of: dict[Address, list[str]] = defaultdict(list)
    held_in_file: dict[tuple[PeerId, str], set[Address]] = {}
    for fid in sorted(placement.files):
        addrs = dict.fromkeys(placement.files[fid])
        held: dict[PeerId, set[Address]] = defaultdict(set)
        for addr in addrs:
            files_of[addr].append(fid)
            for pid in chunk_to_peers[addr]:
                held[pid].add(addr)
        # a file whose chunks all end with target_r replicas retains at most
        # target_r * chunk_count distinct holders, so rule A caps the holder set
        slots = target_r * len(addrs)
        if len(held) > slots:
            raise InfeasiblePlanError(
                f"rule A requires all {len(held)} holders of file {fid} "
                f"to keep a chunk, but target {target_r} leaves only "
                f"{slots} replica slots"
            )
        held_in_file |= {(pid, fid): chunks for pid, chunks in held.items()}

    keep, starved = _cover_keep(chunk_to_peers, files_of, held_in_file, target_r)
    if starved and len(placement.files) == 1:
        # for one file the cover search is an exact matching
        raise InfeasiblePlanError(_no_plan(target_r, starved))
    if starved:
        keep = _exhaustive_keep(placement, target_r, starved)
    _fill_keep(keep, chunk_to_peers, target_r)
    return keep


def _cover_keep(
    chunk_to_peers: dict[Address, set[PeerId]],
    files_of: dict[Address, list[str]],
    held_in_file: dict[tuple[PeerId, str], set[Address]],
    target_r: int,
) -> tuple[dict[Address, set[PeerId]], list[tuple[PeerId, str]]]:
    """Assign each (peer, file) obligation a kept chunk, at most target_r
    keepers per chunk.

    Augmenting search: a peer takes a free keeper slot on one of its chunks
    if any remain, else it evicts a keeper that can itself be re-covered
    elsewhere. Exact for single-file placements (bipartite matching with
    chunk capacity target_r); when chunks are shared across files an
    eviction can orphan several obligations at once and the search may miss
    a plan, hence the exhaustive fallback in the caller.
    """
    keep: dict[Address, set[PeerId]] = {a: set() for a in chunk_to_peers}
    # every change to keep during one cover call, so that a failed eviction
    # attempt can be rolled back to the state it started from; only real
    # changes are logged, so undoing them restores that state exactly
    undo: list[tuple[set[PeerId], PeerId, bool]] = []

    def put(addr: Address, pid: PeerId) -> None:
        if pid not in keep[addr]:
            keep[addr].add(pid)
            undo.append((keep[addr], pid, True))

    def evict(addr: Address, pid: PeerId) -> None:
        keep[addr].remove(pid)
        undo.append((keep[addr], pid, False))

    def rollback(mark: int) -> None:
        while len(undo) > mark:
            kept, pid, added = undo.pop()
            if added:
                kept.remove(pid)
            else:
                kept.add(pid)

    def covered(pid: PeerId, fid: str) -> bool:
        return any(pid in keep[a] for a in held_in_file[(pid, fid)])

    def augment(pid: PeerId, fid: str, visited: set):
        """Cover (pid, fid). A generator, so that eviction chains as long as
        the placement need no recursion: it yields each obligation an
        eviction orphans, is sent whether re-covering that one succeeded,
        and returns its own success."""
        # no chunk ever has more than target_r keepers, so when the least
        # kept option is full they all are, and address order alone remains
        held = held_in_file[(pid, fid)]
        addr = min(held, key=lambda a: (len(keep[a]), a))
        if len(keep[addr]) < target_r:
            put(addr, pid)
            return True
        for addr in sorted(held):
            for out in sorted(keep[addr]):
                if (addr, out) in visited:
                    continue
                visited.add((addr, out))
                mark = len(undo)
                evict(addr, out)
                put(addr, pid)
                # out held addr, so (out, f) is an obligation for every file f of addr
                orphans = [(out, f) for f in files_of[addr] if not covered(out, f)]
                for orphan in orphans:
                    if not (yield orphan):
                        break
                else:
                    return True
                rollback(mark)
        return False

    def cover(pid: PeerId, fid: str) -> bool:
        """Drive augment depth-first from an explicit stack of suspended
        searches, each waiting on the orphan it yielded last."""
        visited: set = set()
        undo.clear()
        stack = [augment(pid, fid, visited)]
        result = None
        while stack:
            try:
                orphan = stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                stack.append(augment(*orphan, visited))
                result = None
        return result

    starved: list[tuple[PeerId, str]] = []
    order = sorted(held_in_file, key=lambda pf: (len(held_in_file[pf]), pf[1], pf[0]))
    for pid, fid in order:
        if not covered(pid, fid) and not cover(pid, fid):
            starved.append((pid, fid))
    return keep, starved


def _fill_keep(
    keep: dict[Address, set[PeerId]],
    chunk_to_peers: dict[Address, set[PeerId]],
    target_r: int,
) -> None:
    """Pad every chunk to exactly target_r keepers, least-loaded holders
    first. Adding keepers can never break rule A."""
    kept_count: dict[PeerId, int] = defaultdict(int)
    for holders in keep.values():
        for pid in holders:
            kept_count[pid] += 1
    for addr in sorted(chunk_to_peers):
        needed = target_r - len(keep[addr])
        if needed <= 0:
            continue
        rest = (pid for pid in chunk_to_peers[addr] if pid not in keep[addr])
        for pid in heapq.nsmallest(needed, rest, key=lambda pid: (kept_count[pid], pid)):
            keep[addr].add(pid)
            kept_count[pid] += 1


def _starved_pairs(
    placement: PlacementMap, keep: dict[Address, set[PeerId]]
) -> list[tuple[PeerId, str]]:
    """Rule A: every (peer, file) pair, in (file, peer) order, where the
    peer holds a chunk of the file in the placement but keeps none."""
    starved = []
    for fid in sorted(placement.files):
        addrs = placement.files[fid]
        held = {p for a in addrs for p in placement.chunk_to_peers[a]}
        kept = {p for a in addrs for p in keep.get(a, ())}
        starved += [(pid, fid) for pid in sorted(held - kept)]
    return starved


def _exhaustive_keep(
    placement: PlacementMap, target_r: int, starved: list[tuple[PeerId, str]]
) -> dict[Address, set[PeerId]]:
    chunk_to_peers = placement.chunk_to_peers
    addrs = sorted(chunk_to_peers)
    options = [
        list(itertools.combinations(sorted(chunk_to_peers[a]), target_r))
        for a in addrs
    ]
    size = prod(len(o) for o in options)
    witness_pid, witness_fid = starved[0]
    if size > _EXHAUSTIVE_LIMIT:
        raise InfeasiblePlanError(
            f"cover search failed (rule A unmet for peer "
            f"{witness_pid.hex()} in file {witness_fid}) and the instance is "
            f"too large for exhaustive search ({size} assignments)"
        )
    for combo in itertools.product(*options):
        keep = {a: set(c) for a, c in zip(addrs, combo)}
        if not _starved_pairs(placement, keep):
            return keep
    raise InfeasiblePlanError(_no_plan(target_r, starved))


def _no_plan(target_r: int, starved: list[tuple[PeerId, str]]) -> str:
    pid, fid = starved[0]
    return (
        f"no plan exists (rule A) at target {target_r}; e.g. peer "
        f"{pid.hex()} cannot retain any chunk of file {fid}"
    )


# -- rules verification --------------------------------------------------------


def check_rules(
    before: PlacementMap,
    after: dict[Address, set[PeerId]],
    target_r: int,
) -> RulesReport:
    """Independently verify rules A-D for an after-placement recomputed from
    stores. `after` must cover the same addresses (empty sets allowed)."""
    starved = _starved_pairs(before, after)
    a_ok = not starved
    violations = [
        f"A: peer {pid.hex()} lost all chunks of {fid}" for pid, fid in starved
    ]

    before_set = set(before.chunk_to_peers)
    after_set = {a for a, holders in after.items() if holders}
    b_ok = after_set == before_set
    if not b_ok:
        lost = before_set - after_set
        gained = after_set - before_set
        for a in sorted(lost):
            violations.append(f"B: chunk {a.hex()} vanished entirely")
        for a in sorted(gained):
            violations.append(f"B: chunk {a.hex()} appeared from nowhere")

    c_ok = True
    for addr in sorted(after):
        extra = after[addr] - before.chunk_to_peers.get(addr, set())
        if extra:
            c_ok = False
            for pid in sorted(extra):
                violations.append(f"C: peer {pid.hex()} gained chunk {addr.hex()}")

    d_ok = True
    for addr in sorted(before.chunk_to_peers):
        count = len(after.get(addr, set()))
        if count != target_r:
            d_ok = False
            violations.append(
                f"D: chunk {addr.hex()} has {count} replicas, wanted {target_r}"
            )

    return RulesReport(a_ok=a_ok, b_ok=b_ok, c_ok=c_ok, d_ok=d_ok, violations=violations)


# -- combinestorage / deletechunks ---------------------------------------------


def combinestorage(
    lists: Sequence[Sequence[DeletionEntry]],
    placement: PlacementMap | None = None,
) -> list[DeletionEntry]:
    """Merge deletion lists into one sorted, duplicate-free list.

    With a placement given, an entry naming a replica the placement does not
    hold is refused with ValueError. The replicas each list leaves are then
    merged by merge_keeps: per-file lists can be individually safe yet jointly
    starve a peer of a shared chunk's file, or delete every replica of the chunk.
    """
    merged = sorted({entry for lst in lists for entry in lst})
    if placement is not None:
        for pid, addr in merged:
            if pid not in placement.chunk_to_peers.get(addr, ()):
                raise ValueError(f"deletion entry {pid.hex()} {addr.hex()} is not in the placement")
        merge_keeps(placement, [
            {a: {p for p in holders if (p, a) not in removed}
             for a, holders in placement.chunk_to_peers.items()}
            for removed in map(set, lists)
        ])
    return merged


def merge_keeps(
    placement: PlacementMap, keeps: Sequence[dict[Address, set[PeerId]]]
) -> dict[Address, set[PeerId]]:
    """The replicas every keep map keeps; a replica no map names is kept, so
    merging no maps keeps every replica. Raise InfeasiblePlanError if they
    leave a peer without a chunk of a file it held (rule A across files), or
    keep a chunk on fewer peers than the fewest any map gave it: maps of
    files sharing a chunk can keep it on disjoint peers."""
    kept = {addr: set(peers) for addr, peers in placement.chunk_to_peers.items()}
    for keep in keeps:
        for addr, keepers in keep.items():
            kept[addr] = kept[addr] & keepers if addr in kept else keepers
    starved = _starved_pairs(placement, kept)
    if starved:
        pid, fid = starved[0]
        raise InfeasiblePlanError(
            f"combined deletions starve peer {pid.hex()} of file {fid} (rule A)"
        )
    for addr in sorted({addr for keep in keeps for addr in keep}):
        target_r = min(len(keep[addr]) for keep in keeps if addr in keep)
        if len(kept[addr]) < target_r:
            raise InfeasiblePlanError(
                f"chunk {addr.hex()} kept by {len(kept[addr])} of target_r {target_r}"
            )
    return kept


def deletechunks(network, entries: Sequence[DeletionEntry]) -> DeleteReport:
    """Remove the listed (peer, chunk) replicas from the network's stores.

    Refuses to run unless syncing is off, since peers would otherwise pull
    the deleted chunks straight back. Entries naming a chunk the peer does
    not hold are counted, not fatal. An entry naming an unknown peer is
    refused before any replica is deleted.
    """
    if network.sync_mode != SYNC_NONE:
        raise SyncModeError(
            "refusing to delete chunks while syncing is enabled; "
            "switch the network to no_sync first"
        )
    for pid, _ in entries:
        if pid not in network.stores:
            raise ValueError(f"unknown peer {pid.hex()}")
    report = DeleteReport()
    for pid, addr in entries:
        store = network.stores[pid]
        if addr in store:
            del store[addr]
            report.applied += 1
        else:
            report.missing += 1
    return report


# -- text formats ----------------------------------------------------------------


def deletion_list_to_text(entries: Sequence[DeletionEntry]) -> str:
    """One `<peer-hex> <chunk-hex>` line per entry, sorted, LF-terminated."""
    lines = [f"{pid.hex()} {addr.hex()}" for pid, addr in sorted(set(entries))]
    return "".join(line + "\n" for line in lines)


def deletion_list_from_text(text: str) -> list[DeletionEntry]:
    entries: list[DeletionEntry] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed deletion entry: {line!r}")
        entries.append((parse_address(parts[0]), parse_address(parts[1])))
    return sorted(set(entries))


def placement_to_text(placement: PlacementMap) -> str:
    lines = []
    for addr in sorted(placement.chunk_to_peers):
        holders = " ".join(p.hex() for p in sorted(placement.chunk_to_peers[addr]))
        lines.append(f"{addr.hex()} {holders}")
    for fid in sorted(placement.files):
        addrs = " ".join(a.hex() for a in placement.files[fid])
        lines.append(f"file {fid} {addrs}")
    return "".join(line + "\n" for line in lines)


def _distinct(tokens: list[str], what: str) -> tuple[Address, ...]:
    """The tokens as addresses, in order, rejecting one named twice."""
    addrs: dict[Address, None] = {}
    for tok in tokens:
        addr = parse_address(tok)
        if addr in addrs:
            raise ValueError(f"{what} {addr.hex()} twice")
        addrs[addr] = None
    return tuple(addrs)


def placement_from_text(text: str) -> PlacementMap:
    """Parse placement_to_text's format. A repeated chunk or file line, a
    holder repeated on a chunk line, a chunk repeated on a file line, and a
    file naming a chunk without a holder line, are rejected."""
    chunk_to_peers: dict[Address, set[PeerId]] = {}
    files: dict[str, tuple[Address, ...]] = {}
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "file":
            if len(parts) < 3:
                raise ValueError(f"malformed file line: {line!r}")
            if parts[1] in files:
                raise ValueError(f"duplicate file line for {parts[1]}")
            files[parts[1]] = _distinct(parts[2:], f"file line {number} names chunk")
        else:
            if len(parts) < 2:
                raise ValueError(f"malformed placement line: {line!r}")
            addr = parse_address(parts[0])
            if addr in chunk_to_peers:
                raise ValueError(f"duplicate placement line for chunk {addr.hex()}")
            holders = _distinct(parts[1:], f"placement line {number} names holder")
            chunk_to_peers[addr] = set(holders)
    return PlacementMap(chunk_to_peers=chunk_to_peers, files=files)
