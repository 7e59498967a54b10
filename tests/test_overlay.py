import warnings
from statistics import median

import numpy as np
import pytest

from swarmsim.overlay import (
    build_views,
    distance_keys,
    make_peer_ids,
    responsible_peers,
    xor_distance,
)
from test_lookup_oracle import members_of


def byte_id(value):
    return bytes([value])


class TestDistance:
    def test_toy_values(self):
        assert xor_distance(byte_id(4), byte_id(5)) == 1
        assert xor_distance(byte_id(1), byte_id(5)) == 4
        assert xor_distance(byte_id(9), byte_id(5)) == 12
        assert xor_distance(byte_id(3), byte_id(5)) == 6

    def test_metric_properties(self):
        a, b = bytes.fromhex("a3" * 32), bytes.fromhex("5c" * 32)
        assert xor_distance(a, a) == 0
        assert xor_distance(a, b) == xor_distance(b, a)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            xor_distance(b"ab", b"abc")

    def test_most_significant_byte_dominates(self):
        target = bytes(32)
        near = bytes(31) + b"\xff"
        far = b"\x01" + bytes(31)
        assert xor_distance(target, near) > 0
        assert xor_distance(target, far) > xor_distance(target, near)


class TestPeerIds:
    def test_deterministic_and_distinct(self):
        first = make_peer_ids(50, 3)
        second = make_peer_ids(50, 3)
        assert first == second
        assert len(set(first)) == 50
        assert all(len(pid) == 32 for pid in first)

    def test_seed_changes_ids(self):
        assert make_peer_ids(10, 0) != make_peer_ids(10, 1)

    def test_golden_first_id(self):
        assert make_peer_ids(1, 0)[0].hex() == (
            "db8a5c3d74c080cc4f82e70b3f140c4d9e4b908e92eb73c8a036dc61415a9dbe"
        )

    def test_zero_peers_rejected(self):
        with pytest.raises(ValueError):
            make_peer_ids(0, 0)


class TestBuildViews:
    def test_deterministic(self):
        ids = make_peer_ids(60, 5)
        assert np.array_equal(build_views(ids, 8, 5), build_views(ids, 8, 5))

    def test_view_size_and_no_self(self):
        ids = make_peer_ids(60, 5)
        table = build_views(ids, 8, 5)
        assert table.shape == (60, 8) and table.dtype == np.intp
        for i, row in enumerate(table.tolist()):
            assert len(set(row)) == 8
            assert i not in row

    def test_rows_ascend_in_distance_to_their_owner(self):
        for n, view_size, seed in [(2, 1, 0), (17, 16, 3), (200, 16, 1), (200, 500, 2)]:
            ids = make_peer_ids(n, seed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # view_size >= n is clamped
                table = build_views(ids, view_size, seed)
            keys = distance_keys(ids)
            d = keys[table] ^ keys[:, None]
            assert (d[:, 1:] > d[:, :-1]).all()
            # the keys order them as the full ids do
            full = [[int.from_bytes(ids[j], "big") ^ int.from_bytes(pid, "big") for j in row]
                    for pid, row in zip(ids, table.tolist())]
            assert full == [sorted(row) for row in full]

    def test_clamps_oversized_view_with_warning(self):
        ids = make_peer_ids(5, 1)
        with pytest.warns(UserWarning, match="clamping"):
            views = members_of(ids, build_views(ids, 16, 1))
        for pid, members in views.items():
            assert members == frozenset(q for q in ids if q != pid)

    def test_views_diverge_between_peers(self):
        ids = make_peer_ids(200, 0)
        views = members_of(ids, build_views(ids, 16, 0))
        distinct = set(views.values())
        assert len(distinct) > 100

    def test_views_are_not_symmetric(self):
        ids = make_peer_ids(200, 0)
        views = members_of(ids, build_views(ids, 16, 0))
        asymmetric = sum(
            1
            for pid, members in views.items()
            for q in members
            if pid not in views[q]
        )
        assert asymmetric > 0

    def test_well_connected_peers_dominate_in_degree(self):
        # a handful of peers appear in most views; they are what over-inflates
        # replica counts near their ids
        for seed in (0, 1, 7):
            ids = make_peer_ids(200, seed)
            counts = np.bincount(build_views(ids, 16, seed).ravel(), minlength=200)
            assert max(counts) >= 2 * median(counts.tolist())

    def test_too_few_peers_rejected(self):
        with pytest.raises(ValueError):
            build_views(make_peer_ids(1, 0), 4, 0)

    def test_ids_of_unequal_or_short_length_rejected(self):
        ids = make_peer_ids(10, 0)
        for bad in ([*ids[:9], ids[9][:31]], [pid[:7] for pid in ids]):
            with pytest.raises(ValueError, match="one length of at least 8 bytes"):
                build_views(bad, 4, 0)


class TestResponsiblePeers:
    def test_members_are_the_nearest_view_peers(self):
        ids = make_peer_ids(30, 2)
        views = members_of(ids, build_views(ids, 10, 2))
        owner, members = ids[0], views[ids[0]]
        chunk = bytes.fromhex("ab" * 32)
        hood = responsible_peers(chunk, owner, members, 4)
        candidates = set(members) | {owner}
        expected = sorted(candidates, key=lambda p: xor_distance(chunk, p))[:4]
        assert hood == tuple(expected)

    def test_owner_can_be_responsible(self):
        hood = responsible_peers(byte_id(5), byte_id(4), [byte_id(9)], 1)
        assert hood == (byte_id(4),)

    def test_ns_clamped_to_candidates(self):
        hood = responsible_peers(byte_id(5), byte_id(4), [byte_id(9)], 10)
        assert set(hood) == {byte_id(4), byte_id(9)}

    def test_different_views_disagree_on_responsibility(self):
        ids = make_peer_ids(200, 0)
        views = members_of(ids, build_views(ids, 16, 0))
        chunk = bytes.fromhex("cd" * 32)
        hoods = {responsible_peers(chunk, pid, views[pid], 4) for pid in ids}
        assert len(hoods) > 1
