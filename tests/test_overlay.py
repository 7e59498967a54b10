from collections import Counter
from statistics import median

import pytest

from swarmsim.overlay import (
    build_views,
    make_peer_ids,
    nearest_peers,
    responsible_peers,
    xor_distance,
)


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


class TestNearestPeers:
    def test_orders_by_distance_to_target(self):
        pool = [byte_id(4), byte_id(1), byte_id(9)]
        assert nearest_peers(byte_id(5), pool, 3) == [byte_id(4), byte_id(1), byte_id(9)]
        assert nearest_peers(byte_id(5), pool, 1) == [byte_id(4)]

    def test_m_larger_than_pool_returns_all(self):
        pool = [byte_id(4), byte_id(1)]
        assert nearest_peers(byte_id(5), pool, 10) == [byte_id(4), byte_id(1)]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="no candidates"):
            nearest_peers(byte_id(0), [], 1)

    def test_nearness_is_not_symmetric(self):
        # 1 is nearest to 0, but 0 (not 1) is nearest to 4: closeness
        # relations in XOR space do not mirror
        ids = [byte_id(0), byte_id(1), byte_id(4)]
        assert nearest_peers(byte_id(0), [i for i in ids if i != byte_id(0)], 1) == [byte_id(1)]
        assert nearest_peers(byte_id(4), [i for i in ids if i != byte_id(4)], 1) == [byte_id(0)]


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
        assert build_views(ids, 8, 5) == build_views(ids, 8, 5)

    def test_view_size_and_no_self(self):
        ids = make_peer_ids(60, 5)
        views = build_views(ids, 8, 5)
        for pid, view in views.items():
            assert view.owner == pid
            assert len(view.known) == 8
            assert pid not in view.known

    def test_clamps_oversized_view_with_warning(self):
        ids = make_peer_ids(5, 1)
        with pytest.warns(UserWarning, match="clamping"):
            views = build_views(ids, 16, 1)
        for pid, view in views.items():
            assert view.known == frozenset(q for q in ids if q != pid)

    def test_views_diverge_between_peers(self):
        ids = make_peer_ids(200, 0)
        views = build_views(ids, 16, 0)
        distinct = {view.known for view in views.values()}
        assert len(distinct) > 100

    def test_views_are_not_symmetric(self):
        ids = make_peer_ids(200, 0)
        views = build_views(ids, 16, 0)
        asymmetric = sum(
            1
            for pid, view in views.items()
            for q in view.known
            if pid not in views[q].known
        )
        assert asymmetric > 0

    def test_well_connected_peers_dominate_in_degree(self):
        # a handful of peers appear in most views; they are what over-inflates
        # replica counts near their ids
        for seed in (0, 1, 7):
            ids = make_peer_ids(200, seed)
            views = build_views(ids, 16, seed)
            indegree = Counter(q for view in views.values() for q in view.known)
            counts = [indegree.get(pid, 0) for pid in ids]
            assert max(counts) >= 2 * median(counts)

    def test_too_few_peers_rejected(self):
        with pytest.raises(ValueError):
            build_views(make_peer_ids(1, 0), 4, 0)


class TestResponsiblePeers:
    def test_members_are_the_nearest_view_peers(self):
        ids = make_peer_ids(30, 2)
        views = build_views(ids, 10, 2)
        view = views[ids[0]]
        chunk = bytes.fromhex("ab" * 32)
        hood = responsible_peers(chunk, view.owner, view.known, 4)
        candidates = set(view.known) | {view.owner}
        expected = nearest_peers(chunk, candidates, 4)
        assert hood == tuple(expected)

    def test_owner_can_be_responsible(self):
        hood = responsible_peers(byte_id(5), byte_id(4), [byte_id(9)], 1)
        assert hood == (byte_id(4),)

    def test_ns_clamped_to_candidates(self):
        hood = responsible_peers(byte_id(5), byte_id(4), [byte_id(9)], 10)
        assert set(hood) == {byte_id(4), byte_id(9)}

    def test_different_views_disagree_on_responsibility(self):
        ids = make_peer_ids(200, 0)
        views = build_views(ids, 16, 0)
        chunk = bytes.fromhex("cd" * 32)
        hoods = {responsible_peers(chunk, pid, views[pid].known, 4) for pid in ids}
        assert len(hoods) > 1
