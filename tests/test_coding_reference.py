"""The GF(256) kernel against the one-byte, one-coefficient-at-a-time loop
it replaced, and the generator matrices against the scalar matrix product
they were once built with.

The reference below multiplies each payload by each coefficient through a
row of the 256 x 256 product table and XORs the results, one group at a
time. Field arithmetic is exact, so encode_tree and rs_decode must give the
same bytes, addresses, groups and parity order as encoding and decoding
built on that loop, for every geometry tried here.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmsim.chunker import ChunkParams, build_tree, content_address, split_file
from swarmsim.codec import (
    _MUL,
    CodingGroup,
    CodingParams,
    _decoder,
    _generator,
    _group_runs,
    _mat_inv,
    encode_tree,
    gf_mul,
    gf_pow,
    group_data_lengths,
    rs_decode,
    rs_encode,
)
from swarmsim.seeds import seeded_bytes

GEOMETRIES = [(1, 1), (1, 2), (2, 3), (3, 5), (4, 6), (8, 12)]

ODD = ChunkParams(chunk_size=1001, branching=4)
TREES = {
    # one chunk: no non-root level, so no groups
    "single-chunk": (700, ChunkParams()),
    # 13 odd-length leaves, the last one short (517 bytes), under 4 parents
    "odd-short-leaf": (1001 * 12 + 517, ODD),
    # 38 leaves -> 10 -> 3 -> 1: three coded levels, short runs on each
    "odd-multi-level": (1001 * 37 + 3, ODD),
    # 74 leaves of the default geometry under one root, last leaf short
    "default": (300_000, ChunkParams()),
}


def reference_mat_mul(a, b):
    """GF(256) matrix product, one gf_mul per term."""
    out = [[0] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            for t, coeff in enumerate(row):
                out[i][j] ^= gf_mul(coeff, b[t][j])
    return out


def reference_generator(k, n):
    vander = [[gf_pow(x, j) for j in range(k)] for x in range(n)]
    return reference_mat_mul(vander, _mat_inv(vander[:k]))


# k -> the n tried with it
GENERATOR_SHAPES = {k: range(k, k + 17) for k in range(1, 17)} | {32: [48]}


@pytest.mark.parametrize("k", sorted(GENERATOR_SHAPES))
def test_generator_matches_the_scalar_product(k):
    for n in GENERATOR_SHAPES[k]:
        gen = _generator(k, n)
        assert gen == reference_generator(k, n)
        assert gen[:k] == [[int(i == j) for j in range(k)] for i in range(k)]
        assert all(type(c) is int for row in gen for c in row)


def reference_combine(rows, payloads, length):
    arrays = []
    for p in payloads:
        if len(p) > length:
            raise ValueError("payload longer than coding length")
        arrays.append(np.frombuffer(p + b"\0" * (length - len(p)), dtype=np.uint8))
    out = []
    for row in rows:
        acc = np.zeros(length, dtype=np.uint8)
        for coeff, array in zip(row, arrays):
            if coeff:
                acc ^= _MUL[coeff][array]
        out.append(acc.tobytes())
    return out


def reference_rs_encode(data, params):
    kk, parity_count = len(data), params.n - params.k
    if parity_count == 0:
        return []
    gen = _generator(kk, kk + parity_count)
    return reference_combine(gen[kk:], data, max(len(p) for p in data))


def reference_encode_tree(manifest, chunks, params):
    groups, parity_chunks = [], {}
    for level_index, data_addrs in _group_runs(manifest, params.k):
        parity_addrs = []
        for payload in reference_rs_encode([chunks[a] for a in data_addrs], params):
            addr = content_address(payload)
            parity_chunks[addr] = payload
            parity_addrs.append(addr)
        groups.append(CodingGroup(level_index, data_addrs, parity_addrs))
    return replace(manifest, coding=params, groups=groups), parity_chunks


def reference_rs_decode(present, params, lengths):
    """Every data row from the full inverse, present symbols included."""
    kk = len(lengths)
    symbols = dict(present)
    if all(i in symbols for i in range(kk)):
        return [symbols[i][: lengths[i]] for i in range(kk)]
    chosen = tuple(sorted(symbols)[:kk])
    decoded = reference_combine(
        _decoder(kk, kk + params.n - params.k, chosen), [symbols[i] for i in chosen], max(lengths)
    )
    return [payload[:n] for payload, n in zip(decoded, lengths)]


def tree(name):
    size, params = TREES[name]
    return build_tree(split_file(seeded_bytes(size, "reference", name), params), params)


@pytest.mark.parametrize("name", sorted(TREES))
@pytest.mark.parametrize("k,n", GEOMETRIES)
def test_encode_tree_matches_the_reference(name, k, n):
    manifest, chunks = tree(name)
    params = CodingParams(k, n)
    got_manifest, got_parity = encode_tree(manifest, chunks, params)
    want_manifest, want_parity = reference_encode_tree(manifest, chunks, params)
    assert got_manifest == want_manifest
    assert list(got_parity.items()) == list(want_parity.items())  # payloads and order


@pytest.mark.parametrize("name", ["odd-short-leaf", "odd-multi-level", "default"])
@pytest.mark.parametrize("k,n", GEOMETRIES)
def test_every_group_decodes_as_the_reference_under_every_loss(name, k, n):
    """Every k'-subset of the symbols of one group per distinct list of data
    lengths: full groups, short final groups, short and odd-length leaves."""
    manifest, chunks = tree(name)
    params = CodingParams(k, n)
    coded, parity = encode_tree(manifest, chunks, params)
    payloads = {**chunks, **parity}
    shapes = set()
    for group, lengths in zip(coded.groups, group_data_lengths(coded)):
        if tuple(lengths) in shapes:
            continue
        shapes.add(tuple(lengths))
        symbols = [payloads[a] for a in group.data_addresses + group.parity_addresses]
        data = symbols[: len(lengths)]
        for kept in itertools.combinations(range(len(symbols)), len(lengths)):
            present = [(i, symbols[i]) for i in kept]
            got = rs_decode(present, params, lengths)
            assert got == reference_rs_decode(present, params, lengths) == data


def test_every_loss_pattern_of_a_full_four_of_six_group():
    params = CodingParams(4, 6)
    lengths = [4096, 4096, 4095, 1]
    data = [seeded_bytes(n, "c64", i) for i, n in enumerate(lengths)]
    parity = rs_encode(data, params)
    assert parity == reference_rs_encode(data, params)
    symbols = data + parity
    patterns = list(itertools.combinations(range(6), 4))
    assert len(patterns) == 15
    for kept in patterns:
        present = [(i, symbols[i]) for i in kept]
        assert rs_decode(present, params, lengths) == reference_rs_decode(present, params, lengths)


@pytest.mark.parametrize("k,n", GEOMETRIES)
def test_zero_length_payloads(k, n):
    params = CodingParams(k, n)
    parity = rs_encode([b""], params)
    assert parity == reference_rs_encode([b""], params) == [b""] * (n - k)
    for index in range(1 + n - k):
        assert rs_decode([(index, b"")], params, [0]) == [b""]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_groups_match_the_reference(data):
    k = data.draw(st.integers(1, 8), label="k")
    n = data.draw(st.integers(k, k + 4), label="n")
    params = CodingParams(k, n)
    lengths = data.draw(st.lists(st.integers(0, 257), min_size=1, max_size=k), label="lengths")
    payloads = [data.draw(st.binary(min_size=m, max_size=m)) for m in lengths]
    parity = rs_encode(payloads, params)
    assert parity == reference_rs_encode(payloads, params)
    symbols = payloads + parity
    kept = data.draw(
        st.lists(st.sampled_from(range(len(symbols))), min_size=len(lengths),
                 max_size=len(lengths), unique=True),
        label="kept",
    )
    present = [(i, symbols[i]) for i in kept]
    got = rs_decode(present, params, lengths)
    assert got == reference_rs_decode(present, params, lengths) == payloads
