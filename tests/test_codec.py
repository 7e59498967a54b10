import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from swarmsim import codec
from swarmsim.chunker import ChunkParams, build_tree, content_address, split_file
from swarmsim.codec import (
    CodingParams,
    _combine,
    _decoder,
    _generator,
    _mat_inv,
    encode_tree,
    gf_inv,
    gf_mul,
    gf_pow,
    group_data_lengths,
    manifest_text,
    parse_manifest_text,
    repair_retrieve,
    rs_decode,
    rs_encode,
)
from swarmsim.errors import (
    DecodingError,
    MissingChunkError,
    UnrecoverableGroupError,
)
from swarmsim.seeds import derive_rng, seeded_bytes

B3 = ChunkParams(chunk_size=4096, branching=3)


def fig_tree(label="fig"):
    data = seeded_bytes(36_864, label)
    manifest, chunks = build_tree(split_file(data, B3), B3)
    return data, manifest, chunks


class TestField:
    def test_multiplication_basics(self):
        assert gf_mul(0, 77) == 0
        assert gf_mul(1, 77) == 77
        assert gf_mul(2, 0x80) == 0x1D  # x * x^7 wraps through the polynomial
        assert gf_pow(2, 8) == 0x1D

    def test_inverse_over_all_nonzero_elements(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_commutative_and_distributive_samples(self):
        rng = derive_rng("field")
        for _ in range(200):
            a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
            assert gf_mul(a, b) == gf_mul(b, a)
            assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


class TestCodewords:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            CodingParams(k=0, n=4)
        with pytest.raises(ValueError):
            CodingParams(k=5, n=4)
        with pytest.raises(ValueError):
            CodingParams(k=2, n=257)

    def test_single_data_symbol_parity_is_a_copy(self):
        payload = seeded_bytes(100, "one")
        assert rs_encode([payload], CodingParams(k=1, n=2)) == [payload]

    def test_no_parity_when_k_equals_n(self):
        assert rs_encode([b"ab", b"cd"], CodingParams(k=2, n=2)) == []

    def test_every_single_erasure_decodes_k2_n3(self):
        params = CodingParams(k=2, n=3)
        data = [seeded_bytes(50, "a"), seeded_bytes(50, "b")]
        symbols = data + rs_encode(data, params)
        lengths = [len(p) for p in data]
        for lost in range(3):
            present = [(i, symbols[i]) for i in range(3) if i != lost]
            assert rs_decode(present, params, lengths) == data

    def test_every_double_erasure_decodes_k4_n6(self):
        params = CodingParams(k=4, n=6)
        data = [seeded_bytes(4096, "chunk", i) for i in range(4)]
        symbols = data + rs_encode(data, params)
        lengths = [4096] * 4
        for lost in itertools.combinations(range(6), 2):
            present = [(i, symbols[i]) for i in range(6) if i not in lost]
            assert rs_decode(present, params, lengths) == data

    def test_any_k_of_n_subset_decodes(self):
        params = CodingParams(k=3, n=5)
        data = [seeded_bytes(100, "sub", i) for i in range(3)]
        symbols = data + rs_encode(data, params)
        lengths = [100] * 3
        for kept in itertools.combinations(range(5), 3):
            present = [(i, symbols[i]) for i in kept]
            assert rs_decode(present, params, lengths) == data

    def test_too_few_symbols_reports_need_and_have(self):
        params = CodingParams(k=4, n=6)
        data = [seeded_bytes(10, "few", i) for i in range(4)]
        symbols = data + rs_encode(data, params)
        present = [(i, symbols[i]) for i in range(3)]
        with pytest.raises(DecodingError, match="need 4, have 3"):
            rs_decode(present, params, [10] * 4)

    def test_short_group_keeps_parity_count(self):
        # 2 data chunks under k=4, n=6 are coded as a (2, 4) group
        params = CodingParams(k=4, n=6)
        data = [seeded_bytes(30, "short", i) for i in range(2)]
        parity = rs_encode(data, params)
        assert len(parity) == 2
        symbols = data + parity
        for kept in itertools.combinations(range(4), 2):
            present = [(i, symbols[i]) for i in kept]
            assert rs_decode(present, params, [30, 30]) == data

    def test_unequal_payload_lengths_roundtrip(self):
        params = CodingParams(k=2, n=4)
        data = [seeded_bytes(4096, "long"), seeded_bytes(904, "tail")]
        parity = rs_encode(data, params)
        assert all(len(p) == 4096 for p in parity)
        symbols = data + parity
        for kept in itertools.combinations(range(4), 2):
            present = [(i, symbols[i]) for i in kept]
            assert rs_decode(present, params, [4096, 904]) == data

    @pytest.mark.parametrize("kept", [(0, 1, 2, 4), (1, 2, 3, 5), (0, 2, 4, 5), (0, 1, 2, 3)])
    def test_only_lost_data_rows_are_computed(self, kept, monkeypatch):
        params = CodingParams(k=4, n=6)
        data = [seeded_bytes(64, "rows", i) for i in range(4)]
        symbols = data + rs_encode(data, params)
        computed = []

        def spy(rows, columns):
            computed.append(len(rows))
            return kernel(rows, columns)

        kernel = codec._gf_matmul
        monkeypatch.setattr(codec, "_gf_matmul", spy)
        assert rs_decode([(i, symbols[i]) for i in kept], params, [64] * 4) == data
        lost = sum(1 for i in range(4) if i not in kept)
        assert computed == ([lost] if lost else [])

    @pytest.mark.parametrize("long_index", [0, 4])
    def test_payload_longer_than_the_group_is_refused_once_a_row_is_decoded(self, long_index):
        params = CodingParams(k=4, n=6)
        data = [seeded_bytes(64, "long", i) for i in range(4)]
        symbols = data + rs_encode(data, params)
        symbols[long_index] += b"\0"
        with pytest.raises(ValueError, match="payload longer than coding length"):
            rs_decode([(i, symbols[i]) for i in (0, 1, 2, 4)], params, [64] * 4)
        # with every data symbol present there is no row to decode
        assert rs_decode([(i, symbols[i]) for i in range(4)], params, [64] * 4) == data

    def test_index_validation(self):
        params = CodingParams(k=2, n=3)
        data = [b"xy", b"zw"]
        symbols = data + rs_encode(data, params)
        with pytest.raises(ValueError, match="out of range"):
            rs_decode([(0, symbols[0]), (3, b"??")], params, [2, 2])
        with pytest.raises(ValueError, match="duplicate"):
            rs_decode([(0, symbols[0]), (0, symbols[0])], params, [2, 2])

    def test_encode_group_size_validation(self):
        with pytest.raises(ValueError, match="limit"):
            rs_encode([b"a", b"b", b"c"], CodingParams(k=2, n=3))
        with pytest.raises(ValueError, match="no data"):
            rs_encode([], CodingParams(k=2, n=3))


def uncached_decode(present, params, lengths):
    """rs_decode's field arithmetic with the inverse computed afresh."""
    kk = len(lengths)
    nn = kk + params.n - params.k
    symbols = dict(present)
    chosen = sorted(symbols)[:kk]
    gen = _generator(kk, nn)
    inverse = _mat_inv([gen[i][:] for i in chosen])
    decoded = _combine(inverse, [symbols[i] for i in chosen], max(lengths))
    return [payload[:n] for payload, n in zip(decoded, lengths)]


class TestDecoderCache:
    @pytest.mark.parametrize("kk,lengths", [
        (4, [4096] * 4), (3, [4096, 4096, 17]), (2, [4096, 904]), (1, [300]),
    ])
    def test_every_subset_matches_the_uncached_inverse(self, kk, lengths):
        """Every k'-of-n' subset of a k=4, n=6 group, full and short, decodes
        to the same bytes as a fresh inversion, on a cold and a warm cache."""
        params = CodingParams(k=4, n=6)
        data = [seeded_bytes(n, "cache", kk, i) for i, n in enumerate(lengths)]
        symbols = data + rs_encode(data, params)
        nn = len(symbols)
        assert nn == kk + 2
        _decoder.cache_clear()
        for _ in range(2):
            for kept in itertools.combinations(range(nn), kk):
                present = [(i, symbols[i]) for i in kept]
                got = rs_decode(present, params, lengths)
                assert got == data
                if kept != tuple(range(kk)):
                    assert got == uncached_decode(present, params, lengths)
        patterns = len(list(itertools.combinations(range(nn), kk)))
        assert _decoder.cache_info().currsize == patterns - 1  # all data needs no inverse

    def test_inverse_is_computed_once_per_loss_pattern(self):
        params = CodingParams(k=4, n=6)
        _decoder.cache_clear()
        for label in range(3):
            data = [seeded_bytes(64, "pattern", label, i) for i in range(4)]
            symbols = data + rs_encode(data, params)
            present = [(i, symbols[i]) for i in (0, 2, 4, 5)]
            assert rs_decode(present, params, [64] * 4) == data
        info = _decoder.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestEncodeTree:
    def test_fig_tree_group_layout(self):
        _, manifest, chunks = fig_tree()
        encoded, parity = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        assert [g.level for g in encoded.groups] == [0, 0, 0, 1]
        assert [len(g.data_addresses) for g in encoded.groups] == [3, 3, 3, 3]
        assert all(len(g.parity_addresses) == 1 for g in encoded.groups)
        assert len(parity) == 4
        # the root is replicated by the network, never coded
        grouped = {a for g in encoded.groups for a in g.data_addresses}
        assert manifest.root not in grouped

    def test_single_chunk_file_has_no_groups(self):
        manifest, chunks = build_tree([b"only"], B3)
        encoded, parity = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        assert encoded.groups == []
        assert parity == {}

    def test_short_final_group(self):
        data = seeded_bytes(4096 * 4, "short-group")
        manifest, chunks = build_tree(split_file(data, B3), B3)
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        # 4 leaves split into groups of 3 and 1; 2 internals into one group
        assert [len(g.data_addresses) for g in encoded.groups] == [3, 1, 2]
        assert all(len(g.parity_addresses) == 1 for g in encoded.groups)

    def test_group_data_lengths_follow_geometry(self):
        data = seeded_bytes(10_000, "lengths")
        manifest, chunks = build_tree(split_file(data, B3), B3)
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=2, n=3))
        for group, lengths in zip(encoded.groups, group_data_lengths(encoded)):
            assert [len(chunks[a]) for a in group.data_addresses] == lengths

    def test_parity_chunks_hash_to_their_addresses(self):
        _, manifest, chunks = fig_tree()
        _, parity = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        for addr, payload in parity.items():
            assert content_address(payload) == addr


class TestRepairRetrieve:
    def build(self, label="repair", k=3, n=4):
        data, manifest, chunks = fig_tree(label)
        encoded, parity = encode_tree(manifest, chunks, CodingParams(k=k, n=n))
        store = dict(chunks)
        store.update(parity)
        return data, encoded, store

    def test_intact_store_needs_no_repair(self):
        data, encoded, store = self.build()
        repaired = []
        out = repair_retrieve(
            encoded.root, store.get, encoded, on_group_repaired=repaired.append
        )
        assert out == data
        assert repaired == []

    def test_any_single_loss_is_repaired(self):
        data, encoded, store = self.build()
        for victim in [a for a in store if a != encoded.root]:
            depleted = dict(store)
            del depleted[victim]
            repaired = []
            out = repair_retrieve(
                encoded.root,
                depleted.get,
                encoded,
                on_group_repaired=repaired.append,
            )
            assert out == data
            assert len(repaired) <= 1

    def test_internal_chunk_loss_is_repaired(self):
        data, encoded, store = self.build()
        internal = encoded.levels[1][1]
        del store[internal]
        repaired = []
        out = repair_retrieve(
            encoded.root, store.get, encoded, on_group_repaired=repaired.append
        )
        assert out == data
        assert [g.level for g in repaired] == [1]

    def test_losing_a_whole_group_beyond_parity_fails(self):
        _, encoded, store = self.build()
        group = encoded.groups[0]
        for addr in (group.data_addresses + group.parity_addresses)[:2]:
            del store[addr]
        with pytest.raises(UnrecoverableGroupError) as exc:
            repair_retrieve(encoded.root, store.get, encoded)
        assert exc.value.level == 0
        assert exc.value.need == 3
        assert exc.value.have == 2

    def test_missing_root_is_not_repairable(self):
        _, encoded, store = self.build()
        del store[encoded.root]
        with pytest.raises(MissingChunkError):
            repair_retrieve(encoded.root, store.get, encoded)

    def test_corrupt_survivor_is_detected(self):
        _, encoded, store = self.build()
        group = encoded.groups[0]
        del store[group.data_addresses[0]]
        store[group.parity_addresses[0]] = b"\xff" * 4096
        with pytest.raises(DecodingError, match="does not hash"):
            repair_retrieve(encoded.root, store.get, encoded)

    def test_leaf_only_coding_dies_with_an_internal_chunk(self):
        # coding only the leaf level leaves internal chunks unprotected:
        # one lost internal chunk makes the file unrecoverable, while the
        # per-level encoding repairs the same loss
        data, full, store = self.build("leaf-only")
        leaf_only = replace(full, groups=[g for g in full.groups if g.level == 0])
        internal = full.levels[1][1]
        depleted = dict(store)
        del depleted[internal]
        with pytest.raises(MissingChunkError):
            repair_retrieve(leaf_only.root, depleted.get, leaf_only)
        assert repair_retrieve(full.root, depleted.get, full) == data

    def test_multiple_groups_repaired_in_one_retrieval(self):
        data, encoded, store = self.build()
        del store[encoded.levels[0][0]]
        del store[encoded.levels[0][5]]
        del store[encoded.levels[1][2]]
        repaired = []
        out = repair_retrieve(
            encoded.root, store.get, encoded, on_group_repaired=repaired.append
        )
        assert out == data
        assert len(repaired) == 3


class TestCodedManifestText:
    def test_roundtrip(self):
        _, manifest, chunks = fig_tree("text")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        parsed = parse_manifest_text(manifest_text(encoded))
        assert parsed.root == encoded.root
        assert parsed.levels == encoded.levels
        assert parsed.coding == encoded.coding
        assert [(g.level, g.data_addresses, g.parity_addresses) for g in parsed.groups] == [
            (g.level, g.data_addresses, g.parity_addresses) for g in encoded.groups
        ]

    def test_layout(self):
        _, manifest, chunks = fig_tree("layout")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        lines = manifest_text(encoded).splitlines()
        assert lines[0] == "filesize=36864"
        assert lines[2] == "k=3"
        assert lines[3] == "n=4"
        assert sum(1 for ln in lines if ln.startswith("group ")) == 4

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_both_flavours_roundtrip_for_every_geometry(self, data):
        chunk_size = data.draw(st.one_of(st.just(4096), st.integers(64, 8192)))
        params = ChunkParams(chunk_size, data.draw(st.integers(2, chunk_size // 32)))
        size = data.draw(st.integers(1, 50_000))
        k = data.draw(st.integers(1, 6))
        coding = CodingParams(k, data.draw(st.integers(k, k + 3)))
        payload = seeded_bytes(size, "manifest-prop", chunk_size, params.branching)
        manifest, chunks = build_tree(split_file(payload, params), params)
        encoded, _ = encode_tree(manifest, chunks, coding)
        assert parse_manifest_text(manifest_text(manifest)) == manifest
        assert parse_manifest_text(manifest_text(encoded)) == encoded

    def test_parse_dispatches_on_coding_keys(self):
        from swarmsim.chunker import FileManifest

        _, manifest, chunks = fig_tree("dispatch")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        assert isinstance(parse_manifest_text(manifest_text(manifest)), FileManifest)
        assert parse_manifest_text(manifest_text(encoded)).coding is not None

    @pytest.mark.parametrize("key", ["k", "n"])
    def test_missing_coding_key_is_named(self, key):
        _, manifest, chunks = fig_tree("missing")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        text = manifest_text(encoded).replace(f"\n{key}={getattr(encoded.coding, key)}\n", "\n")
        with pytest.raises(ValueError, match=f"^manifest missing '{key}'$"):
            parse_manifest_text(text)

    def test_rejects_groups_that_do_not_partition(self):
        _, manifest, chunks = fig_tree("badgroups")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        text = manifest_text(encoded)
        kept = [ln for ln in text.splitlines() if not ln.startswith("group ")]
        with pytest.raises(ValueError, match="coding groups"):
            parse_manifest_text("\n".join(kept) + "\n")

    @pytest.mark.parametrize(
        "layout",
        [
            "group level=0 data=D0 parity=P data=D1 D2",
            "group level=0 parity=P data=D0 D1 D2",
            "group level=x data=D0 D1 D2 parity=P",
            "group level=-0 data=D0 D1 D2 parity=P",
            "group level= data=D0 D1 D2 parity=P",
            "group level=0 data=D0 D1 D2",
            "group level=0 data=D0 D1 D2 parity=P parity=P",
            "group  level=0 data=D0 D1 D2 parity=P",
            "group level=0 data=D0 D1 D2 parity=P kind=x",
        ],
    )
    def test_group_line_outside_the_written_layout_is_malformed(self, layout):
        _, manifest, chunks = fig_tree("layout-strict")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        first = encoded.groups[0]
        line = layout.replace("P", first.parity_addresses[0].hex())
        for i, addr in enumerate(first.data_addresses):
            line = line.replace(f"D{i}", addr.hex())
        text = manifest_text(encoded)
        written = text.splitlines()[-len(encoded.groups)]
        assert written.startswith("group level=0 data=")
        with pytest.raises(ValueError, match="^malformed group line: "):
            parse_manifest_text(text.replace(written, line))

    def test_group_line_without_data_addresses(self):
        _, manifest, chunks = fig_tree("layout-empty")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        text = manifest_text(encoded)
        written = text.splitlines()[-1]
        bare = "group level=1 data= parity=" + encoded.groups[-1].parity_addresses[0].hex()
        with pytest.raises(ValueError, match="^group line has no data addresses: "):
            parse_manifest_text(text.replace(written, bare))

    def test_group_line_with_empty_parity_when_n_equals_k(self):
        _, manifest, chunks = fig_tree("layout-n-eq-k")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=3))
        text = manifest_text(encoded)
        assert text.splitlines()[-1].endswith(" parity=")
        assert parse_manifest_text(text) == encoded

    def test_single_chunk_file_keeps_its_coding_without_groups(self):
        manifest, chunks = build_tree([b"tiny"], ChunkParams())
        encoded, parity = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        assert encoded.coding == CodingParams(k=3, n=4)
        assert encoded.groups == [] and parity == {}
        text = manifest_text(encoded)
        assert text.splitlines()[1:4] == ["branching=128", "k=3", "n=4"]
        assert parse_manifest_text(text) == encoded
        assert manifest_text(manifest) != text

    def test_rejects_an_uppercase_group_address(self):
        _, manifest, chunks = fig_tree("upper-group")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        parity = encoded.groups[0].parity_addresses[0].hex()
        assert parity != parity.upper()
        text = manifest_text(encoded).replace(parity, parity.upper())
        with pytest.raises(ValueError, match="64 hex"):
            parse_manifest_text(text)

    def test_rejects_malformed_group_line(self):
        _, manifest, chunks = fig_tree("badline")
        encoded, _ = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        text = manifest_text(encoded).replace("group level=0 data=", "group ", 1)
        with pytest.raises(ValueError):
            parse_manifest_text(text)
