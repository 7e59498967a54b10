"""bakedeletion against a reference planner built on list tables.

The reference builds files_of and held_in_file as lists, deduplicated by
membership tests, checks the rule-A holder bound in its own loop and runs
the cover search with options sorted by (keepers, address). It is the
search written recursively, with a copied keep table for rollback, so it
only suits small instances. Plans and refusal messages must match it.
"""

from collections import Counter, defaultdict

import pytest

from swarmsim.errors import InfeasiblePlanError, UnderReplicatedError
from swarmsim.seeds import derive_bytes, derive_rng
from swarmsim.tools import (
    PlacementMap,
    _exhaustive_keep,
    _fill_keep,
    _no_plan,
    bakedeletion,
)


def reference_cover_keep(chunk_to_peers, files_of, held_in_file, target_r, seen):
    keep = {a: set() for a in chunk_to_peers}

    def covered(pid, fid):
        return any(pid in keep[a] for a in held_in_file[(pid, fid)])

    def augment(pid, fid, visited):
        options = sorted(held_in_file[(pid, fid)], key=lambda a: (len(keep[a]), a))
        for addr in options:
            if len(keep[addr]) < target_r:
                keep[addr].add(pid)
                return True
        for addr in options:
            for out in sorted(keep[addr]):
                if (addr, out) in visited:
                    continue
                visited.add((addr, out))
                seen["evictions"] += 1
                saved = {a: set(h) for a, h in keep.items()}
                keep[addr].remove(out)
                keep[addr].add(pid)
                orphans = [
                    (out, f)
                    for f in files_of[addr]
                    if (out, f) in held_in_file and not covered(out, f)
                ]
                if all(augment(o, f, visited) for o, f in orphans):
                    return True
                keep.clear()
                keep.update(saved)
        return False

    starved = []
    order = sorted(held_in_file, key=lambda pf: (len(held_in_file[pf]), pf[1], pf[0]))
    for pid, fid in order:
        if not covered(pid, fid) and not augment(pid, fid, set()):
            starved.append((pid, fid))
    return keep, starved


def reference_bakedeletion(placement, target_r, seen):
    if target_r < 1:
        raise ValueError("target_r must be at least 1")
    chunk_to_peers = placement.chunk_to_peers
    for addr in sorted(chunk_to_peers):
        if len(chunk_to_peers[addr]) < target_r:
            raise UnderReplicatedError(
                f"chunk {addr.hex()} has {len(chunk_to_peers[addr])} replicas, "
                f"below target {target_r}"
            )

    files_of = defaultdict(list)
    for fid in sorted(placement.files):
        for addr in placement.files[fid]:
            if fid not in files_of[addr]:
                files_of[addr].append(fid)

    for fid in sorted(placement.files):
        addrs = set(placement.files[fid])
        holders = {p for a in addrs for p in chunk_to_peers[a]}
        slots = target_r * len(addrs)
        if len(holders) > slots:
            raise InfeasiblePlanError(
                f"rule A requires all {len(holders)} holders of file {fid} "
                f"to keep a chunk, but target {target_r} leaves only "
                f"{slots} replica slots"
            )

    held_in_file = defaultdict(list)
    for fid in sorted(placement.files):
        for addr in placement.files[fid]:
            for pid in chunk_to_peers[addr]:
                if addr not in held_in_file[(pid, fid)]:
                    held_in_file[(pid, fid)].append(addr)

    keep, starved = reference_cover_keep(
        chunk_to_peers, files_of, held_in_file, target_r, seen
    )
    if starved and len(placement.files) == 1:
        raise InfeasiblePlanError(_no_plan(target_r, starved))
    if starved:
        seen["exhaustive"] += 1
        keep = _exhaustive_keep(placement, target_r, starved)
    _fill_keep(keep, chunk_to_peers, target_r)
    return sorted(
        (pid, addr)
        for addr in chunk_to_peers
        for pid in chunk_to_peers[addr] - keep[addr]
    )


def random_placement(trial):
    """1-3 files over a pool of up to 8 chunks, so files share chunks and a
    file may name one chunk twice; 2-7 peers, target 1-3. Odd trials seat
    every peer on a replica slot of every file first, so holder counts sit
    near the rule-A bound and the cover search must evict; even trials
    draw holders freely, one chunk in ten without regard to the target."""
    rng = derive_rng("planner-reference", trial)
    target_r = rng.randint(1, 3)
    peers = [derive_bytes("peer", trial, i) for i in range(rng.randint(2, 7))]
    pool = [derive_bytes("chunk", trial, j) for j in range(rng.randint(1, 8))]
    files = {
        f"f{i}": tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        for i in range(rng.randint(1, 3))
    }
    chunk_to_peers = {a: set() for a in sorted({a for f in files.values() for a in f})}
    if trial % 2:
        for addrs in files.values():
            slots = [a for a in dict.fromkeys(addrs) for _ in range(target_r)]
            rng.shuffle(slots)
            for pid, slot in zip(peers, slots):
                chunk_to_peers[slot].add(pid)
        for held in chunk_to_peers.values():
            held.update(p for p in peers if rng.random() < 0.15)
            while len(held) < min(target_r, len(peers)):
                held.add(rng.choice(peers))
    else:
        for held in chunk_to_peers.values():
            low = 1 if rng.random() < 0.1 else min(target_r, len(peers))
            held.update(rng.sample(peers, rng.randint(low, len(peers))))
    return PlacementMap(chunk_to_peers, files), target_r


def outcome(plan, placement, target_r, seen=None):
    try:
        if seen is None:
            return plan(placement, target_r)
        return plan(placement, target_r, seen)
    except InfeasiblePlanError as exc:
        return type(exc).__name__, str(exc)


def test_matches_the_list_based_reference_on_random_placements():
    seen = Counter()
    for trial in range(2500):
        placement, target_r = random_placement(trial)
        expected = outcome(reference_bakedeletion, placement, target_r, seen)
        assert outcome(bakedeletion, placement, target_r) == expected, trial
        if isinstance(expected, list):
            seen["plans"] += 1
        else:
            seen[expected[1].split(" ", 1)[0]] += 1
        if any(len(set(a)) < len(a) for a in placement.files.values()):
            seen["repeated chunk"] += 1
        if len(placement.files) > 1:
            seen["shared"] += 1
    # every path and refusal was exercised: plans, the eviction search, the
    # exhaustive fallback, under-replication, the holder bound, no plan
    for key in ("plans", "evictions", "exhaustive", "repeated chunk", "shared",
                "chunk", "rule", "no"):
        assert seen[key] > 0, (key, seen)


@pytest.mark.parametrize("length", [3, 30])
def test_matches_the_reference_on_an_eviction_chain(length):
    # z holds only c0 and is seated first; x1.. take c1.. in id order; x0,
    # last by id, can only be seated by evicting down the whole chain
    chunks = [i.to_bytes(32, "big") for i in range(length + 1)]
    z = bytes.fromhex("fe" * 32)
    xs = [bytes.fromhex("ff" * 32)] + [i.to_bytes(32, "big") for i in range(1, length)]
    chunk_to_peers = {c: set() for c in chunks}
    chunk_to_peers[chunks[0]].add(z)
    for i, x in enumerate(xs):
        chunk_to_peers[chunks[i]].add(x)
        chunk_to_peers[chunks[i + 1]].add(x)
    placement = PlacementMap(chunk_to_peers, files={"f": tuple(chunks)})
    seen = Counter()
    expected = outcome(reference_bakedeletion, placement, 1, seen)
    assert outcome(bakedeletion, placement, 1) == expected
    assert seen["evictions"] >= length
