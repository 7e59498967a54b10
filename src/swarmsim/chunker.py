"""File chunking and content-addressed Merkle trees.

A file is cut into fixed-size chunks (4096 bytes by default, no padding of
the final chunk). Every chunk is identified by the SHA-256 digest of its
payload. Chunks are linked into a tree: an internal chunk's payload is the
concatenation of its children's 32-byte addresses, so an internal chunk can
reference at most chunk_size / 32 children. Knowing the root address plus
the file size is enough to fetch and rebuild the whole file.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

from .errors import MalformedChunkError, MissingChunkError

if TYPE_CHECKING:
    from .codec import CodingGroup, CodingParams

ADDRESS_SIZE = 32

Address = bytes
FetchFn = Callable[[Address], Optional[bytes]]


def content_address(payload: bytes) -> Address:
    """Return the 32-byte content address (SHA-256 digest) of a payload."""
    return hashlib.sha256(payload).digest()


@dataclass(frozen=True)
class ChunkParams:
    """Chunking geometry: chunk size in bytes and tree branching factor."""

    chunk_size: int = 4096
    branching: int = 128

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.branching < 2:
            raise ValueError("branching must be at least 2")
        if self.branching * ADDRESS_SIZE > self.chunk_size:
            raise ValueError(
                "branching * 32 exceeds chunk_size; an internal chunk could "
                "not hold that many child addresses"
            )


@dataclass
class FileManifest:
    """Merkle tree layout of one file, plus its coding groups if coded.

    levels holds the per-level address lists, leaves first; the last level
    contains exactly the root. The file size is recorded here because chunk
    payloads carry no padding or length metadata. A coded file has coding
    set and one group per run of its non-root levels; a single-chunk coded
    file has coding set and no groups.
    """

    root: Address
    levels: list[list[Address]]
    file_size: int
    params: ChunkParams
    coding: CodingParams | None = None
    groups: list[CodingGroup] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.groups and self.coding is None:
            raise ValueError("coding groups need coding parameters")


def split_file(data: bytes, params: ChunkParams = ChunkParams()) -> list[bytes]:
    """Split raw bytes into leaf payloads of at most chunk_size bytes."""
    if len(data) == 0:
        raise ValueError("empty file")
    cs = params.chunk_size
    return [bytes(data[i : i + cs]) for i in range(0, len(data), cs)]


def tree_shape(file_size: int, params: ChunkParams = ChunkParams()) -> list[int]:
    """Per-level chunk counts, leaves first, via repeated ceiling division."""
    if file_size < 1:
        raise ValueError("file size must be at least 1 byte")
    shape = [-(-file_size // params.chunk_size)]
    while shape[-1] > 1:
        shape.append(-(-shape[-1] // params.branching))
    return shape


def build_tree(
    leaves: list[bytes], params: ChunkParams = ChunkParams()
) -> tuple[FileManifest, dict[Address, bytes]]:
    """Build the Merkle tree over leaf payloads.

    Returns the manifest and a mapping of every chunk (leaves and internals)
    by content address. Chunks with identical payloads share one address and
    one map entry.
    """
    if not leaves:
        raise ValueError("at least one leaf is required")
    for payload in leaves:
        if len(payload) == 0:
            raise ValueError("leaf payloads must be non-empty")
        if len(payload) > params.chunk_size:
            raise ValueError("leaf payload exceeds chunk_size")

    chunks: dict[Address, bytes] = {}
    current: list[Address] = []
    for payload in leaves:
        addr = content_address(payload)
        chunks[addr] = payload
        current.append(addr)

    levels = [current]
    b = params.branching
    while len(current) > 1:
        parents: list[Address] = []
        for i in range(0, len(current), b):
            payload = b"".join(current[i : i + b])
            addr = content_address(payload)
            chunks[addr] = payload
            parents.append(addr)
        levels.append(parents)
        current = parents

    manifest = FileManifest(
        root=current[0],
        levels=levels,
        file_size=sum(len(p) for p in leaves),
        params=params,
    )
    return manifest, chunks


def reassemble(
    root: Address, fetch: FetchFn, params: ChunkParams, file_size: int
) -> bytes:
    """Rebuild a file by walking the tree depth-first, children left to right.

    fetch maps an address to a payload or None. The file size determines the
    tree depth (payloads carry no level marker). Raises MissingChunkError
    naming the first unresolvable address, MalformedChunkError on an internal
    payload whose length is not a positive multiple of 32.
    """
    depth = len(tree_shape(file_size, params))
    parts: list[bytes] = []

    def walk(addr: Address, level: int) -> None:
        payload = fetch(addr)
        if payload is None:
            raise MissingChunkError(addr)
        if level == 0:
            parts.append(payload)
            return
        if len(payload) == 0 or len(payload) % ADDRESS_SIZE != 0:
            raise MalformedChunkError(
                f"internal chunk {addr.hex()} has payload length "
                f"{len(payload)}, not a positive multiple of {ADDRESS_SIZE}"
            )
        for i in range(0, len(payload), ADDRESS_SIZE):
            walk(payload[i : i + ADDRESS_SIZE], level - 1)

    walk(root, depth - 1)
    data = b"".join(parts)
    if len(data) != file_size:
        raise MalformedChunkError(
            f"reassembled {len(data)} bytes, expected {file_size}"
        )
    return data


def level_payload_lengths(manifest: FileManifest) -> list[list[int]]:
    """Payload length of every chunk, per level, derived from the geometry.

    Leaves are chunk_size long except the last one; an internal chunk is 32
    bytes per child. Needed to decode coding groups, which store no lengths.
    A file size the leaves cannot hold raises MalformedChunkError.
    """
    cs = manifest.params.chunk_size
    b = manifest.params.branching
    shape = [len(level) for level in manifest.levels]
    leaf_count = shape[0]
    last_leaf = manifest.file_size - (leaf_count - 1) * cs
    if not 0 < last_leaf <= cs:
        raise MalformedChunkError(
            f"file size {manifest.file_size} inconsistent with leaf count {leaf_count}")
    lengths = [[cs] * (leaf_count - 1) + [last_leaf]]
    for li in range(1, len(shape)):
        below, count = shape[li - 1], shape[li]
        row = []
        for j in range(count):
            children = b if j < count - 1 else below - (count - 1) * b
            row.append(children * ADDRESS_SIZE)
        lengths.append(row)
    return lengths


def parse_address(token: str) -> Address:
    """The address a token spells. Its one text form, in every format and
    snapshot file name, is exactly 64 lowercase hex digits: the only tokens
    that come back unchanged from bytes.fromhex and hex()."""
    try:
        addr = bytes.fromhex(token)
    except ValueError:
        addr = b""
    if len(addr) != ADDRESS_SIZE or addr.hex() != token:
        raise ValueError(f"bad address {token!r}: expected 64 hex characters, lowercase")
    return addr


def parse_decimal(text: str) -> int:
    """An integer spelled in ASCII digits alone; int() would also take a sign,
    underscores and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal for a decimal integer: {text!r}")
    return int(text)


def parse_float(text: str) -> float:
    """A float in ASCII digits with an optional point and exponent, as :g prints
    one; float() would also take a sign, underscores, other digits, inf and nan."""
    if not re.fullmatch(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", text):
        raise ValueError(f"invalid literal for a decimal number: {text!r}")
    return float(text)


def parse_keys(
    lines: Iterable[str], schema: Mapping[str, Callable[[str], object]], what: str,
    required: Iterable[str] = (),
) -> dict[str, object]:
    """Read key=value lines, each stripped value typed by its key's converter
    in schema. A line without '=', a key outside schema, a key given twice,
    an empty value, a value its converter rejects and a required key left
    out are each rejected, naming the format (what) and the line or key."""
    keys: dict[str, object] = {}
    for line in lines:
        if "=" not in line:
            raise ValueError(f"malformed {what} line: {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in schema:
            raise ValueError(f"unknown {what} key {key!r}")
        if key in keys:
            raise ValueError(f"duplicate {what} key {key!r}")
        try:
            if not value:
                raise ValueError("empty value")
            keys[key] = schema[key](value)
        except ValueError as exc:
            raise ValueError(f"{what} key {key!r}: {exc}") from None
    for key in required:
        if key not in keys:
            raise ValueError(f"{what} missing {key!r}")
    return keys
