"""Kademlia-style overlay: XOR distance, routing views, neighborhoods.

Peer ids live in the same 256-bit space as chunk addresses, so "the peers
nearest a chunk" is well defined. Each peer builds its routing view from a
seeded subsample of the peer set rather than from global knowledge: a small
set of well-known peers (think long-lived bootstrap nodes) shows up in every
peer's candidate pool, the rest is an independent uniform draw per peer.
Views are therefore deterministic for a fixed seed but deliberately
non-symmetric, and well-connected peers end up in far more views than
average, which is what spreads replica counts apart.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable

from .seeds import derive_bytes, derive_rng

PeerId = bytes

# candidate pool sizing for view construction
_WELL_KNOWN_COUNT = 8
_SAMPLE_FACTOR = 3


def xor_distance(a: bytes, b: bytes) -> int:
    """XOR metric between two equal-length ids, interpreted big-endian."""
    if len(a) != len(b):
        raise ValueError("ids must have equal length")
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


def nearest_peers(target: bytes, candidates, m: int) -> list[PeerId]:
    """The m candidates nearest to target, ascending XOR distance.

    The target is converted to an int once and candidates are sorted on
    their XOR with it. Distances to a fixed target are distinct for
    distinct ids, so the order needs no tie-break.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    pool = list(candidates)
    if not pool:
        raise ValueError("no candidates")
    if set(map(len, pool)) != {len(target)}:
        raise ValueError("ids must have equal length")
    t = int.from_bytes(target, "big")
    pool.sort(key=lambda p: t ^ int.from_bytes(p, "big"))
    return pool[:m]


@dataclass(frozen=True)
class RoutingView:
    """One peer's partial knowledge of the network."""

    owner: PeerId
    known: frozenset[PeerId] = field(default_factory=frozenset)


def make_peer_ids(num_peers: int, seed: int) -> list[PeerId]:
    """Derive num_peers 32-byte ids deterministically from the seed."""
    if num_peers < 1:
        raise ValueError("need at least one peer")
    ids = [derive_bytes("peer", seed, i) for i in range(num_peers)]
    if len(set(ids)) != num_peers:
        raise ValueError("peer id collision; change the seed")
    return ids


def clamp_view_size(view_size: int, n: int) -> int:
    """view_size capped at n - 1, the most peers a view can hold besides
    its owner, with a warning when the cap applies."""
    if view_size < 1:
        raise ValueError("view_size must be at least 1")
    if view_size >= n:
        warnings.warn(
            f"view_size {view_size} >= peer count {n}; clamping to {n - 1}",
            stacklevel=3,
        )
        return n - 1
    return view_size


def build_views(
    peer_ids: list[PeerId], view_size: int, seed: int
) -> dict[PeerId, RoutingView]:
    """Build every peer's routing view from a seeded subsample.

    A peer's view holds its view_size nearest peers among a candidate pool
    of well-known peers plus a per-peer uniform sample. The view never
    contains the owner. view_size is clamped to the peer count minus one,
    with a warning. The per-peer sample draws indices into the sorted ids
    with the owner's position skipped, so no per-peer copy of the ids is
    made.
    """
    n = len(peer_ids)
    if n < 2:
        raise ValueError("need at least two peers to build views")
    view_size = clamp_view_size(view_size, n)

    ordered = sorted(peer_ids)
    position = {pid: i for i, pid in enumerate(ordered)}
    if len(position) != n:
        raise ValueError("peer ids must be distinct")
    shuffled = list(ordered)
    derive_rng("well-known", seed).shuffle(shuffled)
    well_known = set(shuffled[: min(_WELL_KNOWN_COUNT, n)])

    sample_size = min(n - 1, _SAMPLE_FACTOR * view_size)
    views: dict[PeerId, RoutingView] = {}
    for pid in peer_ids:
        owner = position[pid]
        rng = derive_rng("view", seed, pid)
        picks = rng.sample(range(n - 1), sample_size)
        pool = {ordered[j + (j >= owner)] for j in picks}
        pool.update(q for q in well_known if q != pid)
        members = nearest_peers(pid, pool, min(view_size, len(pool)))
        views[pid] = RoutingView(owner=pid, known=frozenset(members))
    return views


def responsible_peers(chunk: bytes, owner: PeerId, members: Iterable[PeerId],
                      ns: int) -> tuple[PeerId, ...]:
    """The chunk's neighborhood as computed from one peer's view: the ns
    nearest ids among the owner and its view members, nearest first."""
    if ns < 1:
        raise ValueError("ns must be at least 1")
    candidates = {owner, *members}
    return tuple(nearest_peers(chunk, candidates, min(ns, len(candidates))))
