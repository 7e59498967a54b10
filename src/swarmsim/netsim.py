"""Deterministic in-process simulation of a chunk-storing peer network.

Peers hold per-peer chunk stores and partial routing views. Chunks are
routed greedily by XOR distance; every peer on the forwarding path stores
the chunk (delivery caching, active in both sync modes), the terminal peer's
neighborhood replicates it, and in full sync mode an extra pull round lets
every peer adopt the chunks it believes itself responsible for: those fewer
than ns of its view members are closer to. Chunk a is closer to member v
than to owner o exactly when a agrees with v at the top bit where v and o
differ, so the round tests every chunk against a view at once. Failures
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

import numpy as np

from .chunker import Address, ChunkParams, FileManifest, build_tree, parse_address
from .chunker import parse_decimal, parse_keys, split_file
from .chunker import reassemble  # not called here; perfbench's tracer patches netsim.reassemble
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
    distance_keys,
    make_peer_ids,
)
from .overlay import responsible_peers  # not called here; perfbench's tracer patches it
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


# live peers' distance keys, and address -> live holders
LookupIndex = tuple[np.ndarray, dict[Address, list[PeerId]]]
# peer ids, each id's distance key, and build_views' P x w view table
ViewRows = tuple[tuple[PeerId, ...], np.ndarray, np.ndarray]


@functools.lru_cache(maxsize=16)
def _view_rows(num_peers: int, seed: int, view_size: int) -> ViewRows:
    """Views depend on these three values alone, so one build serves every
    network of a config in the process; they all share it, so every part is
    a tuple or a read-only array. view_size must already be clamped, so
    every view has exactly view_size members."""
    peer_ids = make_peer_ids(num_peers, seed)
    keys, table = distance_keys(peer_ids), build_views(peer_ids, view_size, seed)
    keys.flags.writeable = table.flags.writeable = False
    return tuple(peer_ids), keys, table


def _count_nearer(keys: np.ndarray, targets: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """For each target key, how many of keys lie at XOR distance below its
    bound, 256 targets at a time so the distance block stays small."""
    counts = np.zeros(len(targets), dtype=np.intp)
    for lo in range(0, len(targets), 256):
        block = (keys ^ targets[lo : lo + 256, None]) < bounds[lo : lo + 256, None]
        counts[lo : lo + 256] = block.sum(axis=1)
    return counts


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
        ids, self._keys, self._table = _view_rows(config.num_peers, config.seed, width)
        self.peer_ids = list(ids)
        self.peer_index = {pid: i for i, pid in enumerate(ids)}
        self.stores: dict[PeerId, dict[Address, bytes]] = {pid: {} for pid in ids}
        self.failed: set[PeerId] = set()
        self.sync_mode = config.sync_mode
        self._views: Mapping[PeerId, RoutingView] | None = None

    # -- routing ---------------------------------------------------------
    #
    # Lookups run in peer-index space: peer i has id peer_ids[i], distance
    # key _keys[i] and its view members, nearest first, in row i of _table,
    # and dead[i] flags it failed. Routes toward many addresses are walked
    # at once, one matrix column per step.

    def _dead(self) -> np.ndarray:
        """Each peer's failed flag, by peer index."""
        failed = self.failed
        return np.array([pid in failed for pid in self.peer_ids], dtype=bool)

    def _walk(self, entry: int, targets: np.ndarray, dead: np.ndarray) -> np.ndarray:
        """Greedy routes from peer entry toward each target key over peers not
        flagged in dead, as peer indices, one row per target. Every hop
        strictly decreases XOR distance; a walk stops at a local minimum, and
        its row repeats that peer up to the last column."""
        keys, at = self._keys, np.full(len(targets), entry, dtype=np.intp)
        rows, steps = np.arange(len(targets)), [at]
        while True:
            members = self._table[at]
            d = keys[members] ^ targets[:, None]
            d[dead[members]] = np.iinfo(np.uint64).max
            best = d.argmin(axis=1)
            moved = d[rows, best] < keys[at] ^ targets
            if not moved.any():
                return np.column_stack(steps)
            at = np.where(moved, members[rows, best], at)
            steps.append(at)

    def _neighbourhoods(self, targets: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """responsible_peers over indices, one row per target key: the ns
        peers nearest it among its terminal peer and the terminal's view
        members, nearest first."""
        candidates = np.column_stack([ends, self._table[ends]])
        order = np.argsort(self._keys[candidates] ^ targets[:, None], axis=1)
        return np.take_along_axis(candidates, order[:, : self.config.ns], axis=1)

    @property
    def views(self) -> Mapping[PeerId, RoutingView]:
        """Each peer's RoutingView from the view table, read-only, built on first use."""
        if self._views is None:
            self._views = MappingProxyType({
                pid: RoutingView(owner=pid, known=frozenset([self.peer_ids[j] for j in row]))
                for pid, row in zip(self.peer_ids, self._table.tolist())
            })
        return self._views

    def route_path(self, entry: PeerId, target: Address) -> list[PeerId]:
        """Greedy route from entry toward target over live peers. Every hop
        strictly decreases XOR distance; the walk stops at a local minimum."""
        i = self.peer_index.get(entry)
        if i is None:
            raise ValueError("unknown entry peer")
        path = self._walk(i, distance_keys([target]), self._dead())[0]
        return [self.peer_ids[j] for j in dict.fromkeys(path.tolist())]

    def _lookup_index(self) -> LookupIndex:
        """Every live peer's distance key, and each address the live peers
        hold mapped to its live holders. Retrieval never writes a store or
        changes failures, so one index serves a whole retrieve call."""
        return self._keys[~self._dead()], holders(self.stores, skip=self.failed)

    def _locate(
        self,
        entry: int,
        addr: Address,
        dead: np.ndarray,
        index: Callable[[], LookupIndex],
    ) -> tuple[bytes | None, int]:
        """_locate_many of the one address addr."""
        return self._locate_many(entry, [addr], dead, index)[0]

    def _locate_many(
        self,
        entry: int,
        addrs: list[Address],
        dead: np.ndarray,
        index: Callable[[], LookupIndex],
    ) -> list[tuple[bytes | None, int]]:
        """Find a live holder of each address from peer index entry, returning
        (payload, peers probed) per address. dead flags the failed peers by
        index; index returns _lookup_index's result.

        Each lookup probes the requester, the greedy path, the terminal
        neighborhood, then any remaining live peers by ascending distance; it
        only misses when no live peer holds the chunk at all. The requester
        costs no hop. Path peers after the requester are live and distinct,
        so only the neighbourhood needs the seen test, against the path. The
        probes up to the neighbourhood are one matrix, checked against the
        live holders.

        The last phase is counted rather than walked. Every peer probed so
        far missed, so the walk would end at the live holder nearest the
        address after probing each unseen live peer nearer than it (distances
        to one address are distinct), or probe every live peer but the
        requester and miss when no live peer holds the address.
        """
        live, held = index()
        keys, n, at = self._keys, len(self.peer_ids), self.peer_index
        targets, rows = distance_keys(addrs), np.arange(len(addrs))
        # each live holder as an (address row, peer) pair
        hc, hp = np.array(
            [(c, at[pid]) for c, addr in enumerate(addrs) for pid in held.get(addr, ())],
            dtype=np.intp,
        ).reshape(-1, 2).T
        path = self._walk(entry, targets, dead)
        hood = self._neighbourhoods(targets, path[:, -1])
        # each row's probes in order: a live requester, each step of the path
        # and each live neighbour off the path
        order = np.hstack([path, hood])
        probed = np.hstack([
            np.full((len(addrs), 1), not dead[entry]),
            path[:, 1:] != path[:, :-1],
            ~dead[hood] & (hood[:, :, None] != path[:, None, :]).all(axis=2),
        ])
        spent = np.cumsum(probed, axis=1) - probed[:, :1]  # the requester costs no hop
        hit = probed & np.isin(rows[:, None] * n + order, hc * n + hp)
        first = hit.argmax(axis=1)
        answer = np.where(hit[rows, first], order[rows, first], -1)
        probes = spent[rows, first]

        # the last phase: each address's nearest live holder, if any
        hd = targets[hc] ^ keys[hp]
        by = np.lexsort((hd, hc))
        near = by[np.flatnonzero(np.diff(hc[by], prepend=-1))]  # each row's first
        nearest, bound = np.full(len(addrs), -1), np.zeros(len(addrs), dtype=np.uint64)
        nearest[hc[near]], bound[hc[near]] = hp[near], hd[near]
        lost = (answer < 0) & (nearest < 0)
        probes[lost] = len(live) - probed[lost, 0]
        reach = (answer < 0) & (nearest >= 0)
        t, d = targets[reach], bound[reach]
        seen = (probed[reach] & ((keys[order[reach]] ^ t[:, None]) < d[:, None])).sum(axis=1)
        probes[reach] = spent[reach, -1] + _count_nearer(live, t, d) - seen + 1
        answer[reach] = nearest[reach]

        stores, ids = self.stores, self.peer_ids
        return [
            (stores[ids[p]][addr] if p >= 0 else None, k)
            for p, addr, k in zip(answer.tolist(), addrs, probes.tolist())
        ]

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
        entry = draw.randrange(len(self.peer_ids))
        ids, stores, dead = self.peer_ids, self.stores, self._dead()
        targets = distance_keys(chunks)
        path = self._walk(entry, targets, dead)
        hood = self._neighbourhoods(targets, path[:, -1])
        # the path, then the live neighbourhood: a failed neighbour gives way
        # to the entry, which the path wrote already
        writes = np.hstack([path, np.where(dead[hood], path[:, :1], hood)])
        for (addr, payload), peers in zip(chunks.items(), writes.tolist()):
            for i in peers:
                stores[ids[i]][addr] = payload
        if self.sync_mode == SYNC_FULL:
            self._pull_round(chunks)
        return manifest

    def _pull_round(self, chunks: dict[Address, bytes]) -> None:
        """Every live peer, in peer order, adopts in chunks order each chunk
        that fewer than ns of its view members are closer to. By the top-bit
        rule each member is one (byte, bit mask, wanted bit) test on the
        addresses; peers differ in their top 64 bits, so the tests read only
        the distance keys, the addresses' first 8 bytes, least significant
        first. Peers go one at a time, so no array outgrows chunks x view."""
        items = list(chunks.items())
        addrs = distance_keys(chunks).astype("<u8").view(np.uint8).reshape(-1, 8)
        keys = self._keys.tolist()
        for i, (pid, row) in enumerate(zip(self.peer_ids, self._table.tolist())):
            if pid in self.failed:
                continue
            tests = []
            for j in row:
                top = (keys[j] ^ keys[i]).bit_length() - 1
                tests.append((top // 8, 1 << top % 8, (keys[j] >> top & 1) << top % 8))
            byte, mask, want = np.array(tests, dtype=np.uint8).T
            closer = ((addrs[:, byte] & mask) == want).sum(axis=1)
            adopted = np.flatnonzero(closer < self.config.ns).tolist()
            self.stores[pid].update([items[c] for c in adopted])

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
        index = functools.cache(self._lookup_index)
        entry, dead = self.peer_index[from_peer], self._dead()

        @functools.cache
        def located() -> dict[Address, tuple[bytes | None, int]]:
            listed = [manifest.root, *(a for level in manifest.levels for a in level)]
            listed += [a for group in manifest.groups for a in group.parity_addresses]
            addrs = list(dict.fromkeys(listed))
            return dict(zip(addrs, self._locate_many(entry, addrs, dead, index)))

        def fetch(addr: Address) -> bytes | None:
            # every listed address is located in one pass, on the first fetch;
            # an address the manifest does not list gets a lookup of its own
            payload, probes = located().get(addr) or self._locate(entry, addr, dead, index)
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

    def restore(self, snap: Snapshot) -> None:
        """Reset stores to the snapshot, clear failure marks, and force
        syncing off. Routing views are kept, since they depend only on this
        network's config. Hashes nothing; census_digest() does that on
        request."""
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

    def wait_for_connectivity(self, min_degree: int) -> ConnectivityReport:
        """Assert every peer's view has at least min_degree members."""
        if min_degree >= len(self.peer_ids):
            raise ValueError(
                f"min_degree {min_degree} cannot be met by "
                f"{len(self.peer_ids)} peers"
            )
        degrees = [self._table.shape[1]] * len(self.peer_ids)
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
    # each SimConfig field is an int, read as decimal digits, or a str
    schema = {k: parse_decimal if t is int else t for k, t in get_type_hints(SimConfig).items()}
    schema["census_digest"] = str
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
