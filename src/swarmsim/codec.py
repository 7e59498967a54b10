"""Systematic Reed-Solomon erasure coding over GF(2^8), applied per tree level.

The code is built from a Vandermonde matrix brought to systematic form, so
the first k symbols of a codeword are the data payloads themselves and any k
of the n symbols reconstruct the group. Coding is applied to every non-root
level of a chunk tree: coding only the leaves would leave internal chunks as
single points of failure, since losing one internal chunk severs the
addresses of all chunks below it. The root is left uncoded; the network
layer replicates it like any other chunk.

A short final group with k' < k data chunks is coded as a (k', k' + (n - k))
code, keeping the parity count uniform across groups.

Encoding and decoding share one GF(256) kernel, a coefficient matrix times
stacked payload columns. It reads payloads as little-endian two-byte words
and looks each word up in a 65 536-entry product table for its coefficient,
so one table pass covers two bytes. encode_tree codes all groups of one k'
and one padded length in a single kernel call, and rs_decode computes only
the rows of lost data symbols.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

import numpy as np

from .chunker import (
    Address,
    ChunkParams,
    FileManifest,
    content_address,
    parse_decimal,
    level_payload_lengths,
    parse_address,
    parse_keys,
    reassemble,
    tree_shape,
)
from .errors import DecodingError, UnrecoverableGroupError

# GF(2^8) with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d)
# and generator 2. Exp table doubled so products of two logs need no modulo.
_PRIMITIVE_POLY = 0x11D

_GF_EXP = np.zeros(512, dtype=np.uint8)
_GF_LOG = np.zeros(256, dtype=np.int64)
_x = 1
for _i in range(255):
    _GF_EXP[_i] = _x
    _GF_LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIMITIVE_POLY
for _i in range(255, 512):
    _GF_EXP[_i] = _GF_EXP[_i - 255]

# full 256x256 product table; row c maps a byte array to c * array
_MUL = np.zeros((256, 256), dtype=np.uint8)
for _a in range(1, 256):
    _MUL[_a, 1:] = _GF_EXP[_GF_LOG[_a] + _GF_LOG[1:256]]


def gf_mul(a: int, b: int) -> int:
    return int(_MUL[a, b])


def gf_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(256)")
    return int(_GF_EXP[255 - int(_GF_LOG[a])])


def gf_pow(a: int, e: int) -> int:
    if e == 0:
        return 1
    if a == 0:
        return 0
    return int(_GF_EXP[(int(_GF_LOG[a]) * e) % 255])


def _mat_inv(m: list[list[int]]) -> list[list[int]]:
    """Gauss-Jordan inversion over GF(256). Exact; raises on singular input."""
    size = len(m)
    aug = [row + [1 if i == j else 0 for j in range(size)] for i, row in enumerate(m)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = gf_inv(aug[col][col])
        aug[col] = [gf_mul(v, inv_p) for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v ^ gf_mul(factor, p) for v, p in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


@dataclass(frozen=True)
class CodingParams:
    """k data symbols out of n total per group; n - k parity symbols."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n <= 256:
            raise ValueError("coding requires 1 <= k <= n <= 256")


@functools.cache
def _generator(k: int, n: int) -> list[list[int]]:
    """n x k systematic generator: Vandermonde rows times the inverse of the
    top k x k block, each entry an XOR of _MUL products. Any k rows are
    invertible, and the top k rows are the identity. Cached; callers must
    not modify the result."""
    vander = [[gf_pow(x, j) for j in range(k)] for x in range(n)]
    products = _MUL[np.array(vander)[:, :, None], np.array(_mat_inv(vander[:k]))]
    return np.bitwise_xor.reduce(products, axis=1).tolist()


@functools.lru_cache(maxsize=256)
def _decoder(k: int, n: int, chosen: tuple[int, ...]) -> list[list[int]]:
    """Inverse of the generator rows of the chosen k symbols, mapping them
    back to the k data symbols. Repaired groups repeat a few loss patterns,
    so each is inverted once; callers must not modify the result."""
    gen = _generator(k, n)
    return _mat_inv([gen[i] for i in chosen])


@functools.lru_cache(maxsize=64)
def _word_table(coeff: int) -> np.ndarray:
    """Product table of one coefficient over two bytes at once: the
    little-endian uint16 word (hi << 8 | lo) maps to (c*hi << 8 | c*lo).
    128 KiB each; the bound keeps the cache at most 8 MiB."""
    row = _MUL[coeff].astype(np.uint16)
    return ((row[:, None] << 8) | row).ravel()


def _stack(columns: list[list[bytes]], length: int) -> np.ndarray:
    """Payloads as a (columns x payloads x words) array of little-endian
    uint16 words, each zero-padded to length rounded up to even."""
    if any(len(p) > length for column in columns for p in column):
        raise ValueError("payload longer than coding length")
    padded = length + (length & 1)
    joined = b"".join(p.ljust(padded, b"\0") for column in columns for p in column)
    return np.frombuffer(joined, dtype="<u2").reshape(len(columns), len(columns[0]), padded // 2)


def _gf_matmul(rows: list[list[int]], columns: np.ndarray) -> np.ndarray:
    """The GF(256) kernel: out[i] = sum over j of rows[i][j] * columns[j],
    one table pass per nonzero coefficient over each tile of 32 K words of
    a column, so a pass and its result stay in cache on large files."""
    out = np.zeros((len(rows),) + columns.shape[1:], dtype="<u2")
    words = columns.reshape(len(columns), -1)
    flat, step = out.reshape(len(rows), words.shape[1]), 1 << 15
    for lo in range(0, flat.shape[1], step):
        tiles = words[:, lo : lo + step]
        for acc, row in zip(flat[:, lo : lo + step], rows):
            for coeff, tile in zip(row, tiles):
                if coeff:
                    acc ^= np.take(_word_table(coeff), tile)
    return out


def _payload(words: np.ndarray, length: int) -> bytes:
    return words.view(np.uint8)[:length].tobytes()


def _combine(rows: list[list[int]], payloads: list[bytes], length: int) -> list[bytes]:
    """Each row of GF(256) coefficients applied to the payloads, zero-padded
    to length: one output payload per row, sum of coefficient * payload."""
    out = _gf_matmul(rows, _stack([[p] for p in payloads], length))
    return [_payload(words, length) for words in out[:, 0]]


def _parity(groups: list[list[bytes]], parity_count: int) -> list[list[bytes]]:
    """The parity payloads of every group, in group order. Groups with one
    k' and one padded length share a generator, so each such bucket is one
    kernel call over all its groups at once."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for gi, data in enumerate(groups):
        buckets.setdefault((len(data), max(map(len, data))), []).append(gi)
    parity: list[list[bytes]] = [[] for _ in groups]
    for (kk, length), members in buckets.items():
        gen = _generator(kk, kk + parity_count)
        columns = [[groups[gi][j] for gi in members] for j in range(kk)]
        out = _gf_matmul(gen[kk:], _stack(columns, length))
        for slot, gi in enumerate(members):
            parity[gi] = [_payload(words[slot], length) for words in out]
    return parity


def rs_encode(data: list[bytes], params: CodingParams) -> list[bytes]:
    """Compute the n - k parity payloads for up to k data payloads.

    Shorter payloads are zero-padded to the longest one internally; parity
    payloads come out at that padded length. A group with fewer than k data
    payloads is coded as (k', k' + (n - k)).
    """
    if not data:
        raise ValueError("no data payloads to encode")
    if len(data) > params.k:
        raise ValueError(f"group has {len(data)} payloads, limit is {params.k}")
    return _parity([data], params.n - params.k)[0]


def rs_decode(
    present: list[tuple[int, bytes]], params: CodingParams, lengths: list[int]
) -> list[bytes]:
    """Reconstruct the k' data payloads of a group from any k' symbols.

    present holds (symbol index, payload) pairs; indices 0..k'-1 are data in
    group order, k' and up are parity. lengths gives the original data
    payload lengths (so k' = len(lengths)). Present data symbols are
    returned as-is; only the rows of lost ones are computed, and with none
    lost there is no field arithmetic.
    """
    kk = len(lengths)
    if not 1 <= kk <= params.k:
        raise ValueError("lengths must cover 1..k data payloads")
    if any(n < 0 for n in lengths):
        raise ValueError("payload lengths must be non-negative")
    nn = kk + (params.n - params.k)
    symbols: dict[int, bytes] = {}
    for idx, payload in present:
        if not 0 <= idx < nn:
            raise ValueError(f"symbol index {idx} out of range for group of {nn}")
        if idx in symbols:
            raise ValueError(f"duplicate symbol index {idx}")
        symbols[idx] = payload
    if len(symbols) < kk:
        raise DecodingError(f"cannot decode group: need {kk}, have {len(symbols)}")

    lost = [i for i in range(kk) if i not in symbols]
    if lost:
        # data indices sort first, so every present data symbol is chosen
        chosen = tuple(sorted(symbols)[:kk])
        inverse = _decoder(kk, nn, chosen)
        rebuilt = _combine([inverse[i] for i in lost], [symbols[i] for i in chosen], max(lengths))
        symbols.update(zip(lost, rebuilt))
    return [symbols[i][:n] for i, n in enumerate(lengths)]


@dataclass
class CodingGroup:
    """One erasure-coding group: consecutive data chunks of a tree level plus
    their parity chunk addresses."""

    level: int
    data_addresses: list[Address]
    parity_addresses: list[Address]


def encode_tree(
    manifest: FileManifest, chunks: dict[Address, bytes], params: CodingParams
) -> tuple[FileManifest, dict[Address, bytes]]:
    """Partition every non-root level left-to-right into groups of at most k
    chunks and compute parity for each group.

    Returns the manifest with its coding and groups set, and the parity
    chunks by content address. A single-chunk file has no non-root level
    and gets no groups.
    """
    runs = list(_group_runs(manifest, params.k))
    parity = _parity([[chunks[a] for a in data] for _, data in runs], params.n - params.k)
    groups: list[CodingGroup] = []
    parity_chunks: dict[Address, bytes] = {}
    for (level_index, data_addrs), payloads in zip(runs, parity):
        parity_addrs = []
        for payload in payloads:
            addr = content_address(payload)
            parity_chunks[addr] = payload
            parity_addrs.append(addr)
        groups.append(CodingGroup(level_index, data_addrs, parity_addrs))
    return replace(manifest, coding=params, groups=groups), parity_chunks


def _group_runs(
    manifest: FileManifest, k: int
) -> Iterator[tuple[int, list[Address]]]:
    """(level, data addresses) of every coding group: each non-root level
    cut left to right into runs of at most k chunks."""
    for level_index, level in enumerate(manifest.levels[:-1]):
        for start in range(0, len(level), k):
            yield level_index, level[start : start + k]


def group_data_lengths(manifest: FileManifest) -> list[list[int]]:
    """Original payload lengths of each group's data chunks, in group order,
    derived from the tree geometry."""
    per_level = level_payload_lengths(manifest)
    out = []
    cursor = {li: 0 for li in range(len(manifest.levels))}
    for group in manifest.groups:
        start = cursor[group.level]
        stop = start + len(group.data_addresses)
        out.append(per_level[group.level][start:stop])
        cursor[group.level] = stop
    return out


def repair_retrieve(
    root: Address,
    fetch: Callable[[Address], Optional[bytes]],
    manifest: FileManifest,
    on_group_repaired: Callable[[CodingGroup], None] | None = None,
) -> bytes:
    """Rebuild a file, plain or coded, decoding coding groups for any chunks
    fetch cannot resolve.

    Each distinct address is fetched at most once, however often the tree
    repeats it. Reconstructed payloads are checked against their recorded
    addresses. Group lengths come from the geometry only once a group needs
    repair, so with nothing missing this behaves like plain reassembly.
    Raises UnrecoverableGroupError when a group has fewer than k' reachable
    symbols, MissingChunkError for an unresolvable ungrouped chunk (the
    root, or any chunk of a plain file), and DecodingError for a symbol
    longer than its group's coding length or a repaired chunk that does
    not hash to its address.
    """
    lengths = functools.cache(lambda: group_data_lengths(manifest))
    member_of: dict[Address, int] = {}
    for gi, group in enumerate(manifest.groups):
        for addr in group.data_addresses + group.parity_addresses:
            member_of.setdefault(addr, gi)

    fetched = functools.cache(fetch)
    rebuilt: dict[Address, bytes] = {}

    def lookup(addr: Address) -> Optional[bytes]:
        return rebuilt[addr] if addr in rebuilt else fetched(addr)

    def repair(gi: int) -> None:
        group, data_lengths = manifest.groups[gi], lengths()[gi]
        kk = len(data_lengths)
        members = group.data_addresses + group.parity_addresses
        present: list[tuple[int, bytes]] = []
        for pos, addr in enumerate(members):
            payload = lookup(addr)
            if payload is not None:
                if len(payload) > max(data_lengths):
                    raise DecodingError(
                        f"chunk {addr.hex()} is longer than its group's coding length"
                    )
                present.append((pos, payload))
                if len(present) == kk:
                    break
        if len(present) < kk:
            raise UnrecoverableGroupError(group.level, gi, kk, len(present))
        repaired = rs_decode(present, manifest.coding, data_lengths)
        for addr, payload in zip(group.data_addresses, repaired):
            if content_address(payload) != addr:
                raise DecodingError(
                    f"repaired chunk does not hash to recorded address {addr.hex()}"
                )
            rebuilt[addr] = payload
        if on_group_repaired is not None:
            on_group_repaired(group)

    def resolve(addr: Address) -> Optional[bytes]:
        payload = lookup(addr)
        if payload is not None:
            return payload
        gi = member_of.get(addr)
        if gi is None:
            return None
        repair(gi)
        return rebuilt.get(addr)

    return reassemble(root, resolve, manifest.params, manifest.file_size)


def manifest_text(manifest: FileManifest) -> str:
    """Serialize a manifest: filesize and branching lines, a chunksize line
    unless the chunk size is the default 4096, k and n lines if coded, one
    line of space-separated addresses per level (leaves first), then one
    group line per coding group."""
    params, coding = manifest.params, manifest.coding
    lines = [f"filesize={manifest.file_size}", f"branching={params.branching}"]
    if params.chunk_size != ChunkParams.chunk_size:
        lines.append(f"chunksize={params.chunk_size}")
    if coding is not None:
        lines += [f"k={coding.k}", f"n={coding.n}"]
    lines += [" ".join(a.hex() for a in level) for level in manifest.levels]
    for group in manifest.groups:
        data = " ".join(a.hex() for a in group.data_addresses)
        parity = " ".join(a.hex() for a in group.parity_addresses)
        lines.append(f"group level={group.level} data={data} parity={parity}")
    return "\n".join(lines) + "\n"


_MANIFEST_KEYS = dict.fromkeys(("filesize", "branching", "chunksize", "k", "n"), parse_decimal)


def parse_manifest_text(text: str) -> FileManifest:
    """Parse a plain or coded manifest; k=, n= or group lines mark a coded
    one. Without a chunksize line the chunk size is 4096. Every key is read
    by parse_keys, so a key the writer never emits, a key given twice, a
    value that is empty or not decimal digits and a missing filesize, branching or
    (coded) k or n are rejected, naming the key."""
    key_lines: list[str] = []
    levels: list[list[Address]] = []
    group_lines: list[str] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("group "):
            group_lines.append(line)
        elif "=" in line:
            if " " in line:
                raise ValueError(f"malformed manifest line: {line!r}")
            key_lines.append(line)
        else:
            levels.append([parse_address(tok) for tok in line.split()])
    encoded = bool(group_lines) or any(line.partition("=")[0] in ("k", "n") for line in key_lines)
    required = ("filesize", "branching") + (("k", "n") if encoded else ())
    keys = parse_keys(key_lines, _MANIFEST_KEYS, "manifest", required)
    if not levels:
        raise ValueError("manifest has no address levels")
    params = ChunkParams(keys.get("chunksize", ChunkParams.chunk_size), keys["branching"])
    file_size = keys["filesize"]
    got, expected = [len(level) for level in levels], tree_shape(file_size, params)
    if got != expected:
        raise ValueError(f"level sizes {got} do not match geometry {expected}")
    coding = CodingParams(keys["k"], keys["n"]) if encoded else None
    groups = [_parse_group_line(line) for line in group_lines]
    manifest = FileManifest(levels[-1][0], levels, file_size, params, coding, groups)
    if coding is not None:
        _check_groups(manifest, groups, coding)
    return manifest


def _parse_group_line(line: str) -> CodingGroup:
    """Parse `group level=<digits> data=<hex>... parity=<hex>...`, the one
    layout manifest_text writes; parity is empty when n == k."""
    head, _, rest = line.partition(" data=")
    data, sep, parity = rest.partition(" parity=")
    prefix, _, level = head.partition("group level=")
    if prefix or not sep or not (level.isascii() and level.isdigit()) or "=" in data + parity:
        raise ValueError(f"malformed group line: {line!r}")
    if not data.split():
        raise ValueError(f"group line has no data addresses: {line!r}")
    data_addrs, parity_addrs = ([parse_address(t) for t in p.split()] for p in (data, parity))
    return CodingGroup(int(level), data_addrs, parity_addrs)


def _check_groups(
    manifest: FileManifest, groups: list[CodingGroup], params: CodingParams
) -> None:
    """Groups must partition every non-root level left to right in k-sized
    runs, with n - k parity addresses each."""
    expected = list(_group_runs(manifest, params.k))
    if len(groups) != len(expected):
        raise ValueError(
            f"expected {len(expected)} coding groups, found {len(groups)}"
        )
    parity_count = params.n - params.k
    for group, (level_index, data) in zip(groups, expected):
        if group.level != level_index or group.data_addresses != data:
            raise ValueError("coding groups do not partition the tree levels")
        if len(group.parity_addresses) != parity_count:
            raise ValueError("coding group has wrong parity count")
