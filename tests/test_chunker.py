import pytest
from hypothesis import given, settings, strategies as st

from swarmsim.chunker import (
    ChunkParams,
    FileManifest,
    build_tree,
    content_address,
    level_payload_lengths,
    parse_address,
    parse_keys,
    reassemble,
    split_file,
    tree_shape,
)
from swarmsim.codec import CodingGroup, manifest_text, parse_manifest_text
from swarmsim.errors import MalformedChunkError, MissingChunkError
from swarmsim.seeds import seeded_bytes

B3 = ChunkParams(chunk_size=4096, branching=3)


def fetch_from(chunks):
    return lambda addr: chunks.get(addr)


class TestSplitFile:
    def test_5000_bytes_splits_4096_904(self):
        leaves = split_file(seeded_bytes(5000, "split"), ChunkParams())
        assert [len(p) for p in leaves] == [4096, 904]

    def test_exact_multiple_has_no_short_leaf(self):
        leaves = split_file(bytes(8192), ChunkParams())
        assert [len(p) for p in leaves] == [4096, 4096]

    def test_small_file_is_one_leaf(self):
        assert split_file(b"x" * 100, ChunkParams()) == [b"x" * 100]

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split_file(b"", ChunkParams())

    def test_concatenation_restores_input(self):
        data = seeded_bytes(10_000, "concat")
        assert b"".join(split_file(data, ChunkParams())) == data


class TestTreeShape:
    def test_nine_leaf_file_at_branching_3(self):
        assert tree_shape(36_864, B3) == [9, 3, 1]

    def test_100mb_default_geometry(self):
        assert tree_shape(104_857_600, ChunkParams()) == [25_600, 200, 2, 1]

    def test_single_chunk_file(self):
        assert tree_shape(1, ChunkParams()) == [1]
        assert tree_shape(4096, ChunkParams()) == [1]

    def test_one_byte_over_a_chunk(self):
        assert tree_shape(4097, ChunkParams()) == [2, 1]

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            tree_shape(0, ChunkParams())

    @given(size=st.integers(min_value=1, max_value=10**9))
    def test_shape_ends_at_single_root(self, size):
        shape = tree_shape(size, ChunkParams())
        assert shape[-1] == 1
        assert all(a > b for a, b in zip(shape, shape[1:]) if shape[0] > 1)


class TestBuildTree:
    def test_nine_leaves_three_internals_one_root(self):
        data = seeded_bytes(36_864, "tree")
        manifest, chunks = build_tree(split_file(data, B3), B3)
        assert [len(lv) for lv in manifest.levels] == [9, 3, 1]
        assert len(chunks) == 13
        assert manifest.root == manifest.levels[-1][0]
        assert manifest.file_size == 36_864

    def test_internal_payloads_concatenate_child_addresses(self):
        data = seeded_bytes(36_864, "tree")
        manifest, chunks = build_tree(split_file(data, B3), B3)
        first_internal = manifest.levels[1][0]
        assert chunks[first_internal] == b"".join(manifest.levels[0][:3])
        assert chunks[manifest.root] == b"".join(manifest.levels[1])

    def test_every_address_is_the_payload_hash(self):
        data = seeded_bytes(20_000, "hash")
        _, chunks = build_tree(split_file(data, B3), B3)
        for addr, payload in chunks.items():
            assert content_address(payload) == addr

    def test_identical_leaves_share_one_chunk(self):
        # 9 identical leaves collapse to one leaf chunk and one internal
        data = bytes(range(256)) * 144
        manifest, chunks = build_tree(split_file(data, B3), B3)
        assert [len(lv) for lv in manifest.levels] == [9, 3, 1]
        assert len(chunks) == 3

    def test_wide_tree_shape_and_dedup_count(self):
        leaves = [i.to_bytes(4, "big") for i in range(25_600)]
        manifest, chunks = build_tree(leaves, ChunkParams())
        assert [len(lv) for lv in manifest.levels] == [25_600, 200, 2, 1]
        assert len(chunks) == 25_600 + 200 + 2 + 1

    def test_oversized_leaf_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_tree([b"x" * 4097], ChunkParams())

    def test_empty_leaf_rejected(self):
        with pytest.raises(ValueError):
            build_tree([b"x", b""], ChunkParams())

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ChunkParams(chunk_size=0)
        with pytest.raises(ValueError):
            ChunkParams(branching=1)
        with pytest.raises(ValueError, match="child addresses"):
            ChunkParams(chunk_size=128, branching=5)


class TestReassemble:
    @pytest.mark.parametrize("branching", [2, 3, 16, 128])
    def test_one_megabyte_roundtrip(self, branching):
        params = ChunkParams(chunk_size=4096, branching=branching)
        data = seeded_bytes(1_048_576, "roundtrip", branching)
        manifest, chunks = build_tree(split_file(data, params), params)
        out = reassemble(manifest.root, fetch_from(chunks), params, len(data))
        assert out == data

    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=6000),
        branching=st.sampled_from([2, 3, 7]),
    )
    def test_roundtrip_property(self, size, branching):
        params = ChunkParams(chunk_size=256, branching=branching)
        data = seeded_bytes(size, "prop", size, branching)
        manifest, chunks = build_tree(split_file(data, params), params)
        assert [len(lv) for lv in manifest.levels] == tree_shape(size, params)
        out = reassemble(manifest.root, fetch_from(chunks), params, size)
        assert out == data

    def test_missing_leaf_names_its_address(self):
        data = seeded_bytes(36_864, "missing")
        manifest, chunks = build_tree(split_file(data, B3), B3)
        victim = manifest.levels[0][4]
        del chunks[victim]
        with pytest.raises(MissingChunkError) as exc:
            reassemble(manifest.root, fetch_from(chunks), B3, len(data))
        assert exc.value.address == victim
        assert victim.hex() in str(exc.value)

    def test_missing_root(self):
        with pytest.raises(MissingChunkError):
            reassemble(content_address(b"nowhere"), fetch_from({}), B3, 5)

    def test_truncated_internal_payload(self):
        data = seeded_bytes(36_864, "trunc")
        manifest, chunks = build_tree(split_file(data, B3), B3)
        internal = manifest.levels[1][0]
        chunks[internal] = chunks[internal][:-1]
        with pytest.raises(MalformedChunkError, match="multiple of 32"):
            reassemble(manifest.root, fetch_from(chunks), B3, len(data))

    def test_wrong_file_size_detected(self):
        data = seeded_bytes(5000, "size")
        manifest, chunks = build_tree(split_file(data, ChunkParams()), ChunkParams())
        with pytest.raises(MalformedChunkError, match="expected"):
            reassemble(manifest.root, fetch_from(chunks), ChunkParams(), 4096)


class TestPayloadLengths:
    def test_lengths_match_actual_chunks(self):
        for size in (1, 904, 4096, 5000, 36_864, 100_000):
            manifest, chunks = build_tree(
                split_file(seeded_bytes(size, "len", size), B3), B3
            )
            lengths = level_payload_lengths(manifest)
            for level, row in zip(manifest.levels, lengths):
                assert [len(chunks[a]) for a in level] == row

    def test_fig_tree_lengths(self):
        manifest, _ = build_tree(split_file(bytes(36_864), B3), B3)
        assert level_payload_lengths(manifest) == [[4096] * 9, [96, 96, 96], [96]]


class TestManifestText:
    def test_roundtrip(self):
        data = seeded_bytes(36_864, "text")
        manifest, _ = build_tree(split_file(data, B3), B3)
        parsed = parse_manifest_text(manifest_text(manifest))
        assert parsed.root == manifest.root
        assert parsed.levels == manifest.levels
        assert parsed.file_size == manifest.file_size
        assert parsed.params == manifest.params

    def test_layout(self):
        data = seeded_bytes(5000, "layout")
        manifest, _ = build_tree(split_file(data, ChunkParams()), ChunkParams())
        lines = manifest_text(manifest).splitlines()
        assert lines[0] == "filesize=5000"
        assert lines[1] == "branching=128"
        assert len(lines) == 4
        assert lines[3] == manifest.root.hex()
        assert manifest_text(manifest).endswith("\n")

    def test_rejects_wrong_level_sizes(self):
        data = seeded_bytes(5000, "bad")
        manifest, _ = build_tree(split_file(data, ChunkParams()), ChunkParams())
        text = manifest_text(manifest).replace("filesize=5000", "filesize=1")
        with pytest.raises(ValueError, match="geometry"):
            parse_manifest_text(text)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="filesize"):
            parse_manifest_text("0" * 64 + "\n")

    @pytest.mark.parametrize("line", ["chunk_size=1024", "filsize=9", "k_=3"])
    def test_rejects_unknown_keys(self, line):
        data = seeded_bytes(5000, "unknown")
        manifest, _ = build_tree(split_file(data, ChunkParams()), ChunkParams())
        text = manifest_text(manifest).replace("\n", f"\n{line}\n", 1)
        key = line.partition("=")[0]
        with pytest.raises(ValueError, match=f"unknown manifest key '{key}'"):
            parse_manifest_text(text)

    @pytest.mark.parametrize("key", ["filesize", "branching"])
    def test_rejects_duplicate_keys(self, key):
        data = seeded_bytes(5000, "duplicate")
        manifest, _ = build_tree(split_file(data, ChunkParams()), ChunkParams())
        text = manifest_text(manifest).replace("\n", f"\n{key}=7\n", 1)
        with pytest.raises(ValueError, match=f"duplicate manifest key '{key}'"):
            parse_manifest_text(text)

    @pytest.mark.parametrize(
        "old, new, key, error",
        [
            ("filesize=5000", "filesize=abc", "filesize", "invalid literal"),
            ("branching=128", "branching=128\nk=x\nn=6", "k", "invalid literal"),
            # int() would read these three as 5000, 5000 and 128
            ("filesize=5000", "filesize=5_000", "filesize", "invalid literal"),
            ("filesize=5000", "filesize=+5000", "filesize", "invalid literal"),
            ("branching=128", "branching=0_128", "branching", "invalid literal"),
            ("filesize=5000", "filesize=", "filesize", "empty value"),
            ("branching=128", "branching= ", "branching", "empty value"),
        ],
    )
    def test_bad_or_empty_value_names_format_and_key(self, old, new, key, error):
        data = seeded_bytes(5000, "values")
        manifest, _ = build_tree(split_file(data, ChunkParams()), ChunkParams())
        text = manifest_text(manifest).replace(old, new)
        with pytest.raises(ValueError, match=f"^manifest key '{key}': {error}"):
            parse_manifest_text(text)

    @pytest.mark.parametrize("key", ["filesize", "branching"])
    def test_missing_key_is_named(self, key):
        data = seeded_bytes(5000, "missing")
        manifest, _ = build_tree(split_file(data, ChunkParams()), ChunkParams())
        text = "".join(
            line + "\n" for line in manifest_text(manifest).splitlines()
            if not line.startswith(f"{key}=")
        )
        with pytest.raises(ValueError, match=f"^manifest missing '{key}'$"):
            parse_manifest_text(text)

    def test_parse_address_validates_length(self):
        with pytest.raises(ValueError, match="64 hex"):
            parse_address("abcd")
        assert parse_address("00" * 32) == bytes(32)

    @pytest.mark.parametrize(
        "token",
        ["AA" * 32, "aA" * 32, "aa" * 31 + "  ", "  " + "aa" * 31, "aa" * 15 + "  " + "aa" * 16,
         "aa" * 31 + "\t\n", "gg" * 32],
        ids=["upper", "mixed", "trailing", "leading", "inner", "tab-newline", "non-hex"],
    )
    def test_parse_address_takes_only_64_lowercase_hex_digits(self, token):
        assert len(token) == 64
        with pytest.raises(ValueError, match="64 hex"):
            parse_address(token)

    def test_rejects_an_uppercase_address(self):
        data = seeded_bytes(5000, "upper")
        manifest, _ = build_tree(split_file(data, ChunkParams()), ChunkParams())
        leaf = manifest.levels[0][0].hex()
        assert leaf != leaf.upper()
        text = manifest_text(manifest).replace(leaf, leaf.upper())
        with pytest.raises(ValueError, match="64 hex"):
            parse_manifest_text(text)

    def test_groups_need_coding(self):
        manifest, _ = build_tree(split_file(seeded_bytes(9000, "nocoding"), B3), B3)
        group = CodingGroup(0, manifest.levels[0], [])
        with pytest.raises(ValueError, match="coding groups need coding parameters"):
            FileManifest(manifest.root, manifest.levels, manifest.file_size, B3, groups=[group])


class TestParseKeys:
    SCHEMA = {"size": int, "name": str}

    def test_values_come_back_typed_and_stripped(self):
        keys = parse_keys([" size = 12 ", "name=x y"], self.SCHEMA, "demo", ["size"])
        assert keys == {"size": 12, "name": "x y"}

    @pytest.mark.parametrize(
        "lines, error",
        [
            (["size=twelve"], "^demo key 'size': invalid literal"),
            (["size=12", "name="], "^demo key 'name': empty value$"),
            (["size=12", "name=  "], "^demo key 'name': empty value$"),
            (["name=x"], "^demo missing 'size'$"),
            (["size=1", "size=2"], "^duplicate demo key 'size'$"),
            (["size=1", "colour=red"], "^unknown demo key 'colour'$"),
            (["size"], "^malformed demo line: 'size'$"),
        ],
    )
    def test_every_rejection_names_the_format_and_the_key_or_line(self, lines, error):
        with pytest.raises(ValueError, match=error):
            parse_keys(lines, self.SCHEMA, "demo", ["size"])
