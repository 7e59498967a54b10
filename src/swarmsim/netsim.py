"""Deterministic in-process simulation of a chunk-storing peer network.

Peers hold per-peer chunk stores and partial routing views. Chunks are
routed greedily by XOR distance; every peer on the forwarding path stores
the chunk (delivery caching, active in both sync modes), the terminal peer's
neighborhood replicates it, and in full sync mode an extra pull round lets
every peer adopt the chunks it believes itself responsible for. Failures
mark stores unreachable without deleting them. Retrieval never writes to
any store, so with syncing off the global census only changes through
explicit uploads or deletions.

All randomness is derived from the config seed; identical configs and
operation sequences produce bit-identical stores.
"""

from __future__ import annotations

import functools
import hashlib
import os
import shutil
from collections import defaultdict
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Container, Mapping, get_type_hints

from .chunker import (
    Address,
    ChunkParams,
    FileManifest,
    build_tree,
    parse_address,
    parse_keys,
    reassemble,  # not called here; perfbench's tracer patches netsim.reassemble
    split_file,
)
from .codec import CodingParams, encode_tree, repair_retrieve
from .errors import (
    ConnectivityError,
    DecodingError,
    MalformedChunkError,
    MissingChunkError,
    SnapshotMismatchError,
    SwarmSimError,
)
from .overlay import (
    PeerId,
    RoutingView,
    build_views,
    clamp_view_size,
    count_nearer,
    make_peer_ids,
    responsible_peers,
)
from .seeds import derive_rng

SYNC_FULL = "full"
SYNC_NONE = "no_sync"


@dataclass(frozen=True)
class SimConfig:
    """Network construction parameters. seed drives every random choice."""

    num_peers: int
    seed: int = 0
    view_size: int = 16
    ns: int = 4
    sync_mode: str = SYNC_FULL
    num_backends: int = 29

    def __post_init__(self) -> None:
        if self.num_peers < 2:
            raise ValueError("num_peers must be at least 2")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        if self.view_size < 1:
            raise ValueError("view_size must be at least 1")
        if self.ns < 1:
            raise ValueError("ns must be at least 1")
        if self.sync_mode not in (SYNC_FULL, SYNC_NONE):
            raise ValueError(f"sync_mode must be {SYNC_FULL!r} or {SYNC_NONE!r}")
        if self.num_backends < 1:
            raise ValueError("num_backends must be at least 1")


@dataclass
class RetrievalStats:
    """Cost proxies for one file retrieval: peers contacted and bytes moved.

    hops counts every peer probed beyond the requesting one, including
    probes spent on chunks that turned out to be unreachable. No wall-clock
    quantities are recorded anywhere.
    """

    success: bool = False
    hops: int = 0
    bytes_fetched: int = 0
    repaired_groups: int = 0
    error: str | None = None


@dataclass
class ConnectivityReport:
    min_degree: int
    degrees: list[int] = field(default_factory=list)


@dataclass
class Snapshot:
    """Bit-exact capture of every peer's store plus the driving config."""

    config: SimConfig
    stores: dict[PeerId, dict[Address, bytes]]
    digest: str


# live peer ints ascending, and address -> live holders
LookupIndex = tuple[list[int], dict[Address, list[PeerId]]]
# peer ids, the same ids as ints, and each peer's view members as peer indices
ViewRows = tuple[tuple[PeerId, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]


@functools.lru_cache(maxsize=16)
def _view_rows(num_peers: int, seed: int, view_size: int) -> ViewRows:
    """Views depend on these three values alone, so one build serves every
    network of a config in the process; they all share it, so every part is
    a tuple. view_size must already be clamped."""
    peer_ids = make_peer_ids(num_peers, seed)
    index = {pid: i for i, pid in enumerate(peer_ids)}
    views = build_views(peer_ids, view_size, seed)
    rows = tuple(tuple(index[q] for q in views[pid].known) for pid in peer_ids)
    ints = tuple(int.from_bytes(pid, "big") for pid in peer_ids)
    return tuple(peer_ids), ints, rows


def backend_assignment(num_peers: int, num_backends: int) -> list[int]:
    """Backend index per peer: peer i runs on backend i mod num_backends."""
    return [i % num_backends for i in range(num_peers)]


def holders(stores: Mapping[PeerId, Mapping], skip: Container = ()) -> dict[Address, list[PeerId]]:
    """Each address the stores hold, mapped to its holders in store order,
    passing over the stores of peers in skip."""
    held: defaultdict[Address, list[PeerId]] = defaultdict(list)
    for pid, store in stores.items():
        if pid not in skip:
            for addr in store:
                held[addr].append(pid)
    return dict(held)


class Network:
    """Simulated peer network. Construct via spawn_network()."""

    def __init__(self, config: SimConfig):
        self.config = config
        width = clamp_view_size(config.view_size, config.num_peers)
        ids, self._ints, self._rows = _view_rows(config.num_peers, config.seed, width)
        self.peer_ids = list(ids)
        self.peer_index = {pid: i for i, pid in enumerate(ids)}
        self.stores: dict[PeerId, dict[Address, bytes]] = {pid: {} for pid in ids}
        self.failed: set[PeerId] = set()
        self.sync_mode = config.sync_mode
        self._views: Mapping[PeerId, RoutingView] | None = None

    # -- routing ---------------------------------------------------------

    def _neighbourhood(self, addr: Address, pid: PeerId) -> tuple[PeerId, ...]:
        members = [self.peer_ids[j] for j in self._rows[self.peer_index[pid]]]
        return responsible_peers(addr, pid, members, self.config.ns)

    @property
    def views(self) -> Mapping[PeerId, RoutingView]:
        """build_views' result for this config, read-only, built on first use."""
        if self._views is None:
            self._views = MappingProxyType({
                pid: RoutingView(owner=pid, known=frozenset([self.peer_ids[j] for j in row]))
                for pid, row in zip(self.peer_ids, self._rows)
            })
        return self._views

    def route_path(self, entry: PeerId, target: Address) -> list[PeerId]:
        """Greedy route from entry toward target over live peers. Every hop
        strictly decreases XOR distance; the walk stops at a local minimum."""
        i = self.peer_index.get(entry)
        if i is None:
            raise ValueError("unknown entry peer")
        ids, ints, failed = self.peer_ids, self._ints, self.failed
        t = int.from_bytes(target, "big")
        path = [entry]
        best_d = t ^ ints[i]
        while True:
            best = -1
            for j in self._rows[i]:
                d = t ^ ints[j]
                if d < best_d and ids[j] not in failed:
                    best, best_d = j, d
            if best < 0:
                return path
            i = best
            path.append(ids[i])

    def _lookup_index(self) -> LookupIndex:
        """Every live peer's id as an int, ascending, and each address the
        live peers hold mapped to its live holders. Retrieval never writes a
        store or changes failures, so one index serves a whole retrieve call."""
        failed = self.failed
        live = sorted(n for pid, n in zip(self.peer_ids, self._ints) if pid not in failed)
        return live, holders(self.stores, skip=failed)

    def _locate(
        self,
        entry: PeerId,
        addr: Address,
        index: Callable[[], LookupIndex],
    ) -> tuple[bytes | None, int]:
        """Find a live holder of addr, returning (payload, peers probed).

        Probes the requester, the greedy path, the terminal neighborhood,
        then any remaining live peers by ascending distance; the fetch only
        misses when no live peer holds the chunk at all. index returns
        _lookup_index's result; it is called only by the last phase.

        The last phase is counted rather than walked. Every peer probed so
        far missed, so the walk would end at the live holder nearest addr
        after probing each unseen live peer nearer than it (distances to one
        address are distinct), or probe every unseen live peer and miss when
        no live peer holds addr. count_nearer bisects the sorted live ints
        for the first count.
        """
        probes = 0
        seen: set[PeerId] = set()

        def probe(pid: PeerId) -> bytes | None:
            nonlocal probes
            if pid in seen or pid in self.failed:
                return None
            seen.add(pid)
            if pid != entry:
                probes += 1
            return self.stores[pid].get(addr)

        payload = probe(entry)
        if payload is not None:
            return payload, probes
        path = self.route_path(entry, addr)
        for pid in path:
            payload = probe(pid)
            if payload is not None:
                return payload, probes
        for pid in self._neighbourhood(addr, path[-1]):
            payload = probe(pid)
            if payload is not None:
                return payload, probes
        live, held = index()
        found = held.get(addr)
        if not found:
            return None, probes + len(live) - len(seen)
        a = int.from_bytes(addr, "big")
        ints, at = self._ints, self.peer_index
        nearest = min(found, key=lambda pid: a ^ ints[at[pid]])
        d = a ^ ints[at[nearest]]
        nearer = count_nearer(live, a, d) - len([p for p in seen if a ^ ints[at[p]] < d])
        return self.stores[nearest][addr], probes + nearer + 1

    # -- upload / retrieve -------------------------------------------------

    def upload(
        self,
        data: bytes,
        params: ChunkParams | None = None,
        coding: CodingParams | None = None,
    ) -> FileManifest:
        """Chunk, optionally erasure-code, and place a file on the network.

        Every chunk (parity included) is routed from a seeded entry peer;
        path peers and the terminal neighborhood store it. In full sync
        mode a pull round follows: each live peer adopts every chunk whose
        neighborhood, judged from its own view, includes itself.
        """
        params = params or ChunkParams()
        leaves = split_file(data, params)
        manifest, chunks = build_tree(leaves, params)
        if coding is not None:
            manifest, parity = encode_tree(manifest, chunks, coding)
            chunks = dict(chunks)
            chunks.update(parity)

        # stateless draw: reloading the network must not shift later uploads
        draw = derive_rng("upload-entry", self.config.seed, manifest.root)
        entry = self.peer_ids[draw.randrange(len(self.peer_ids))]
        for addr, payload in chunks.items():
            path = self.route_path(entry, addr)
            for pid in path:
                self.stores[pid][addr] = payload
            for pid in self._neighbourhood(addr, path[-1]):
                if pid not in self.failed:
                    self.stores[pid][addr] = payload
        if self.sync_mode == SYNC_FULL:
            self._pull_round(chunks)
        return manifest

    def _pull_round(self, chunks: dict[Address, bytes]) -> None:
        ns = self.config.ns
        items = [
            (addr, payload, int.from_bytes(addr, "big"))
            for addr, payload in chunks.items()
        ]
        for i, pid in enumerate(self.peer_ids):
            if pid in self.failed:
                continue
            own = self._ints[i]
            vints = [self._ints[j] for j in self._rows[i]]
            store = self.stores[pid]
            for addr, payload, a in items:
                mine = a ^ own
                closer = 0
                for v in vints:
                    if a ^ v < mine:
                        closer += 1
                        if closer >= ns:
                            break
                if closer < ns:
                    store[addr] = payload

    def retrieve(
        self,
        manifest: FileManifest,
        from_peer: PeerId,
    ) -> tuple[bytes | None, RetrievalStats]:
        """Fetch and rebuild a file from the network, locating each distinct
        address once, plain or coded, and repairing coded groups when chunks
        are unreachable. Unrecoverable loss yields a failed stats record,
        not an exception. Read-only: stores never change."""
        stats = RetrievalStats()
        if from_peer not in self.peer_index:
            raise ValueError("unknown entry peer")
        if from_peer in self.failed:
            stats.error = "entry peer is failed"
            return None, stats
        # built by the first lookup that reaches the last phase, if any; on a
        # network that was never normalised most retrievals need none
        index = functools.cache(self._lookup_index)

        def fetch(addr: Address) -> bytes | None:
            payload, probes = self._locate(from_peer, addr, index)
            stats.hops += probes
            if payload is not None:
                stats.bytes_fetched += len(payload)
            return payload

        def repaired(_group) -> None:
            stats.repaired_groups += 1

        try:
            data = repair_retrieve(manifest.root, fetch, manifest, on_group_repaired=repaired)
        except (MissingChunkError, DecodingError, MalformedChunkError) as exc:
            stats.error = str(exc)
            return None, stats
        stats.success = True
        return data, stats

    # -- failures ----------------------------------------------------------

    def fail_peers(
        self,
        fraction: float | None = None,
        peers: list[PeerId] | None = None,
        seed: int = 0,
    ) -> list[PeerId]:
        """Mark peers unreachable, either an explicit list or a seeded draw
        of round(fraction * num_peers) peers. Stores are kept, not wiped.
        Returns the newly drawn selection in peer-index order."""
        if (fraction is None) == (peers is None):
            raise ValueError("pass exactly one of fraction or peers")
        if peers is None:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError("fraction must be within [0, 1]")
            count = int(round(fraction * len(self.peer_ids)))
            rng = derive_rng("fail", self.config.seed, seed)
            chosen = rng.sample(self.peer_ids, count)
        else:
            for pid in peers:
                if pid not in self.peer_index:
                    raise ValueError("cannot fail unknown peer")
            chosen = list(peers)
        self.failed.update(chosen)
        return sorted(chosen, key=self.peer_index.__getitem__)

    def live_peers(self) -> list[PeerId]:
        return [pid for pid in self.peer_ids if pid not in self.failed]

    # -- snapshot / restore --------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Capture all stores bit-exactly plus the current config."""
        config = replace(self.config, sync_mode=self.sync_mode)
        stores = {pid: dict(store) for pid, store in self.stores.items()}
        return Snapshot(config=config, stores=stores, digest=self.census_digest())

    def restore(self, snap: Snapshot) -> str:
        """Reset stores to the snapshot, clear failure marks, and force
        syncing off. Routing views are kept, since they depend only on this
        network's config. Returns the census digest."""
        if snap.config.num_peers != len(self.peer_ids):
            raise SnapshotMismatchError(
                f"snapshot has {snap.config.num_peers} peers, "
                f"network has {len(self.peer_ids)}"
            )
        if set(snap.stores) != set(self.peer_ids):
            raise SnapshotMismatchError("snapshot peer ids do not match network")
        self.stores = {pid: dict(snap.stores[pid]) for pid in self.peer_ids}
        self.failed.clear()
        self.sync_mode = SYNC_NONE
        return self.census_digest()

    def wait_for_connectivity(self, min_degree: int) -> ConnectivityReport:
        """Assert every peer's view has at least min_degree members."""
        if min_degree >= len(self.peer_ids):
            raise ValueError(
                f"min_degree {min_degree} cannot be met by "
                f"{len(self.peer_ids)} peers"
            )
        degrees = [len(row) for row in self._rows]
        if min(degrees) < min_degree:
            raise ConnectivityError(
                f"connectivity below min_degree {min_degree}: "
                f"weakest peer has {min(degrees)} view members",
                degrees=degrees,
            )
        return ConnectivityReport(min_degree=min_degree, degrees=degrees)

    def census_digest(self) -> str:
        return _stores_digest(self.peer_ids, self.stores)


def spawn_network(config: SimConfig) -> Network:
    """Create a network with seeded peer ids, views, and empty stores."""
    return Network(config)


def _stores_digest(
    peer_ids: list[PeerId], stores: dict[PeerId, dict[Address, bytes]]
) -> str:
    h = hashlib.sha256()
    for pid in peer_ids:
        for addr in sorted(stores[pid]):
            h.update(pid)
            h.update(addr)
    return h.hexdigest()


# -- snapshot disk format ----------------------------------------------------
#
# <dir>/manifest.txt            one key=value line per SimConfig field, in
#                               field order, then census_digest
# <dir>/backend-<i>/<peer-hex>/<chunk-hex>   raw chunk payloads


def save_snapshot(snap: Snapshot, directory: str | Path) -> Path:
    """Write a snapshot to disk, replacing any snapshot already there.

    Each distinct payload is written once; every other replica of it is a
    hard link to that file (a copy where linking fails). Links never reach
    outside the tree being written, so no file is shared with the replaced
    state, whose bytes were never verified, or with another snapshot
    directory, which an in-place edit would then change too.

    The tree is built in .<name>.saving, next to the resolved target, and
    swapped in by two renames: target to .<name>.old, staging to target.
    A failure before the first rename leaves the old state whole; the next
    save removes the stale staging tree. The one window left is between
    the two renames: the target is missing, the old state is whole in
    .<name>.old and the new one in .<name>.saving. The next save renames
    .<name>.old back before it starts.

    A target holding anything but manifest.txt and backend-* entries is
    refused with ValueError before anything is written, since the swap
    would delete it.
    """
    root = Path(directory)
    target = root.resolve()
    staging = target.with_name(f".{target.name}.saving")
    old = target.with_name(f".{target.name}.old")
    if old.exists() and not target.exists():
        old.rename(target)
    if target.exists():
        for entry in sorted(target.iterdir()):
            if entry.name != "manifest.txt" and not entry.name.startswith("backend-"):
                raise ValueError(
                    f"{root} holds {entry.name!r}, which is not part of a "
                    "snapshot; refusing to replace it"
                )
    for stale in (old, staging):
        if stale.exists():
            shutil.rmtree(stale)

    cfg = snap.config
    peer_ids = make_peer_ids(cfg.num_peers, cfg.seed)
    assignment = backend_assignment(cfg.num_peers, cfg.num_backends)
    written: dict[Address, tuple[bytes, Path]] = {}
    for index, pid in enumerate(peer_ids):
        peer_dir = staging / f"backend-{assignment[index]}" / pid.hex()
        peer_dir.mkdir(parents=True)
        store = snap.stores[pid]
        for addr in sorted(store):
            payload, path = store[addr], peer_dir / addr.hex()
            first = written.get(addr)
            if first is None:
                written[addr] = (payload, path)
            elif first[0] == payload:
                try:
                    os.link(first[1], path)
                    continue
                except OSError:
                    pass
            path.write_bytes(payload)

    lines = [f"{f.name}={getattr(cfg, f.name)}" for f in fields(SimConfig)]
    lines.append(f"census_digest={snap.digest}")
    (staging / "manifest.txt").write_text("\n".join(lines) + "\n")
    if target.exists():
        target.rename(old)
    staging.rename(target)
    # the save is complete here; a leftover .<name>.old goes with the next one
    shutil.rmtree(old, ignore_errors=True)
    return root


def load_snapshot(directory: str | Path) -> Snapshot:
    """Read a snapshot from disk, verifying payload hashes and the census
    digest recorded in its manifest. The root may hold only manifest.txt
    and backend-<i> directories with i < num_backends, each of those only
    the directories of its own peers, and those only files named by 64
    lowercase hex digits; anything else is corrupt. A missing peer
    directory is an empty store."""
    root = Path(directory)
    manifest = root / "manifest.txt"
    if not manifest.is_file():
        raise FileNotFoundError(f"no snapshot manifest at {manifest}")
    # each SimConfig field's type (int or str) is its converter
    schema = {**get_type_hints(SimConfig), "census_digest": str}
    lines = [line for line in manifest.read_text().splitlines() if line.strip()]
    keys = parse_keys(lines, schema, "snapshot manifest", schema)
    recorded_digest = keys.pop("census_digest")
    config = SimConfig(**keys)

    peer_ids = make_peer_ids(config.num_peers, config.seed)
    assignment = backend_assignment(config.num_peers, config.num_backends)
    owners = {(f"backend-{b}", pid.hex()): pid for b, pid in zip(assignment, peer_ids)}
    backends = {f"backend-{b}" for b in range(config.num_backends)}
    stores: dict[PeerId, dict[Address, bytes]] = {pid: {} for pid in peer_ids}
    # replicas are equal, so each address keeps one payload object; a file
    # with other bytes is hash-checked like the first
    verified: dict[Address, bytes] = {}
    for backend in sorted(root.iterdir()):
        if backend.name == "manifest.txt":
            continue
        if backend.name not in backends or not backend.is_dir():
            raise SwarmSimError(f"corrupt snapshot: {backend} does not belong in it")
        for peer_dir in sorted(backend.iterdir()):
            pid = owners.get((backend.name, peer_dir.name))
            if pid is None or not peer_dir.is_dir():
                raise SwarmSimError(f"corrupt snapshot: {peer_dir} does not belong in it")
            store = stores[pid]
            for entry in sorted(os.scandir(peer_dir), key=lambda e: e.name):
                try:
                    addr = parse_address(entry.name)
                except ValueError:
                    addr = None
                if addr is None or not entry.is_file():
                    raise SwarmSimError(f"corrupt snapshot: {entry.path} is not a chunk file")
                with open(entry, "rb") as chunk:
                    payload = chunk.read()
                if payload != verified.get(addr):
                    if hashlib.sha256(payload).digest() != addr:
                        raise SwarmSimError(
                            f"corrupt snapshot: {entry.path} does not hash to its name"
                        )
                    verified[addr] = payload
                store[addr] = verified[addr]
    digest = _stores_digest(peer_ids, stores)
    if digest != recorded_digest:
        raise SwarmSimError(
            "corrupt snapshot: census digest does not match manifest"
        )
    return Snapshot(config=config, stores=stores, digest=digest)


def network_from_snapshot(snap: Snapshot) -> Network:
    """Spawn a network matching the snapshot's config and restore into it.

    Unlike a bare restore(), the snapshot's recorded sync mode is kept, so
    a saved full-sync state loads as full-sync.
    """
    net = spawn_network(snap.config)
    net.restore(snap)
    net.sync_mode = snap.config.sync_mode
    return net
