import itertools

import pytest
from hypothesis import given, settings, strategies as st

from swarmsim.chunker import ChunkParams, build_tree, split_file
from swarmsim.codec import CodingParams, encode_tree
from swarmsim.errors import (
    InfeasiblePlanError,
    SyncModeError,
    UnderReplicatedError,
)
from swarmsim.netsim import SYNC_NONE, SimConfig, spawn_network
from swarmsim.seeds import derive_bytes, derive_rng, seeded_bytes
from swarmsim.tools import (
    PlacementMap,
    bakedeletion,
    check_rules,
    combinestorage,
    deletechunks,
    deletion_list_from_text,
    deletion_list_to_text,
    listchunks,
    merge_keeps,
    placement_from_network,
    placement_from_text,
    placement_to_text,
)

B3 = ChunkParams(chunk_size=4096, branching=3)

P1 = bytes.fromhex("11" * 32)
P2 = bytes.fromhex("22" * 32)
P3 = bytes.fromhex("33" * 32)
C1 = bytes.fromhex("aa" * 32)
C2 = bytes.fromhex("bb" * 32)
C3 = bytes.fromhex("cc" * 32)


def apply_plan(placement, deletions):
    removed = set(deletions)
    return {
        addr: {p for p in holders if (p, addr) not in removed}
        for addr, holders in placement.chunk_to_peers.items()
    }


def brute_force_keep(placement, target_r):
    """Exhaustive search for any keep-assignment satisfying rule A."""
    addrs = sorted(placement.chunk_to_peers)
    options = [
        list(itertools.combinations(sorted(placement.chunk_to_peers[a]), target_r))
        for a in addrs
    ]
    for combo in itertools.product(*options):
        keep = dict(zip(addrs, combo))
        ok = True
        for fid, file_addrs in placement.files.items():
            holders = {p for a in file_addrs for p in placement.chunk_to_peers[a]}
            for pid in holders:
                if not any(pid in keep[a] for a in file_addrs):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return keep
    return None


def random_instance(trial):
    """Small random placement; feasibility not guaranteed."""
    rng = derive_rng("instance", trial)
    peers = [derive_bytes("peer", trial, i) for i in range(rng.randint(2, 4))]
    addrs = sorted(derive_bytes("chunk", trial, j) for j in range(rng.randint(1, 6)))
    target_r = rng.randint(1, 2)
    chunk_to_peers = {}
    for addr in addrs:
        count = rng.randint(target_r, len(peers))
        chunk_to_peers[addr] = set(rng.sample(peers, count))
    if rng.random() < 0.5 or len(addrs) == 1:
        files = {"f0": tuple(addrs)}
    else:
        cut = rng.randint(1, len(addrs) - 1)
        first = list(addrs[:cut])
        second = list(addrs[cut:])
        if rng.random() < 0.5:
            second.append(first[0])  # shared chunk across files
        files = {"f0": tuple(first), "f1": tuple(sorted(second))}
    return PlacementMap(chunk_to_peers=chunk_to_peers, files=files), target_r


def feasible_instance(trial, n_files=1):
    """Randomized placement guaranteed feasible: every peer is anchored to a
    chunk slot of every file first, extra replicas are sprinkled on top."""
    rng = derive_rng("feasible", trial, n_files)
    n_chunks = rng.randint(10, 120)
    target_r = rng.randint(1, 3)
    per_file = n_chunks // n_files
    n_peers = rng.randint(5, min(50, target_r * per_file))
    peers = [derive_bytes("peer", trial, n_files, i) for i in range(n_peers)]
    addrs = sorted(derive_bytes("chunk", trial, n_files, j) for j in range(n_chunks))
    files = {
        f"f{i}": tuple(addrs[i * per_file : (i + 1) * per_file if i < n_files - 1 else n_chunks])
        for i in range(n_files)
    }

    chunk_to_peers = {a: set() for a in addrs}
    for file_addrs in files.values():
        slots = [a for a in file_addrs for _ in range(target_r)]
        rng.shuffle(slots)
        for pid, slot in zip(peers, slots):
            chunk_to_peers[slot].add(pid)
    for addr in addrs:
        while len(chunk_to_peers[addr]) < target_r:
            chunk_to_peers[addr].add(peers[rng.randrange(n_peers)])
        for pid in peers:
            if rng.random() < 0.08:
                chunk_to_peers[addr].add(pid)
    return PlacementMap(chunk_to_peers=chunk_to_peers, files=files), target_r


class TestListChunks:
    def test_fig_tree_has_13_addresses_root_first(self):
        manifest, _ = build_tree(split_file(seeded_bytes(36_864, "lc"), B3), B3)
        addrs = listchunks(manifest)
        assert len(addrs) == 13
        assert addrs[0] == manifest.root
        assert set(addrs) == {a for lv in manifest.levels for a in lv}

    def test_wide_tree_has_203_addresses(self):
        leaves = [seeded_bytes(32, "wide", i) for i in range(200)]
        manifest, _ = build_tree(leaves, ChunkParams())
        assert [len(lv) for lv in manifest.levels] == [200, 2, 1]
        assert len(listchunks(manifest)) == 203

    def test_single_chunk_file(self):
        manifest, _ = build_tree([b"tiny"], B3)
        assert listchunks(manifest) == [manifest.root]

    def test_parity_addresses_follow_the_tree(self):
        manifest, chunks = build_tree(split_file(seeded_bytes(36_864, "lcp"), B3), B3)
        encoded, parity = encode_tree(manifest, chunks, CodingParams(k=3, n=4))
        addrs = listchunks(encoded)
        assert len(addrs) == 17
        assert addrs[0] == manifest.root
        assert addrs[-4:] == [g.parity_addresses[0] for g in encoded.groups]

    def test_duplicate_payloads_listed_once(self):
        manifest, _ = build_tree(split_file(bytes(range(256)) * 144, B3), B3)
        assert len(listchunks(manifest)) == 3


class TestPlacementMap:
    def test_rejects_a_file_chunk_without_holders(self):
        with pytest.raises(ValueError, match=f"file f names chunk {C2.hex()}, which has no holder line"):
            PlacementMap({C1: {P1}}, {"f": (C1, C2)})


class TestBakedeletion:
    def test_three_cycle_leaves_each_peer_one_chunk(self):
        placement = PlacementMap(
            chunk_to_peers={C1: {P1, P2}, C2: {P2, P3}, C3: {P3, P1}},
            files={"f": (C1, C2, C3)},
        )
        deletions = bakedeletion(placement, 1)
        assert len(deletions) == 3
        after = apply_plan(placement, deletions)
        assert check_rules(placement, after, 1).ok
        kept_per_peer = {p: sum(p in h for h in after.values()) for p in (P1, P2, P3)}
        assert kept_per_peer == {P1: 1, P2: 1, P3: 1}

    def test_already_uniform_plans_nothing(self):
        placement = PlacementMap(
            chunk_to_peers={C1: {P1}, C2: {P2}}, files={"f": (C1, C2)}
        )
        assert bakedeletion(placement, 1) == []

    def test_infeasible_instance_names_rule_a(self):
        placement = PlacementMap(
            chunk_to_peers={C1: {P1, P2, P3}, C2: {P1}}, files={"f": (C1, C2)}
        )
        with pytest.raises(InfeasiblePlanError, match="rule A"):
            bakedeletion(placement, 1)

    def test_single_file_infeasible_instance_has_no_plan(self):
        # P1 and P2 hold only C1, which keeps one replica; the 20 chunks
        # three other peers share make exhaustive search far too large, but
        # for one file the cover search alone is exact
        shared = [bytes([0x40 + i]) * 32 for i in range(20)]
        others = {bytes([0x70 + i]) * 32 for i in range(3)}
        chunk_to_peers = {C1: {P1, P2}} | {c: set(others) for c in shared}
        placement = PlacementMap(chunk_to_peers, files={"f": (C1, *shared)})
        with pytest.raises(InfeasiblePlanError, match=r"no plan exists \(rule A\)"):
            bakedeletion(placement, 1)

    def test_under_replicated_chunk_rejected(self):
        placement = PlacementMap(
            chunk_to_peers={C1: {P1}, C2: {P1, P2}}, files={"f": (C1, C2)}
        )
        with pytest.raises(UnderReplicatedError, match="below target 2"):
            bakedeletion(placement, 2)

    def test_target_r_validation(self):
        placement = PlacementMap(chunk_to_peers={C1: {P1}}, files={"f": (C1,)})
        with pytest.raises(ValueError):
            bakedeletion(placement, 0)

    def test_eviction_chain_longer_than_the_recursion_limit(self):
        # z holds only c0 and is covered first; x1..x500 take c1..c500 in id
        # order; x0, last by id, must evict its way down the whole chain
        chunks = [i.to_bytes(32, "big") for i in range(501)]
        z = bytes.fromhex("fe" * 32)
        xs = [bytes.fromhex("ff" * 32)] + [i.to_bytes(32, "big") for i in range(1, 500)]
        chunk_to_peers = {c: set() for c in chunks}
        chunk_to_peers[chunks[0]].add(z)
        for i, x in enumerate(xs):
            chunk_to_peers[chunks[i]].add(x)
            chunk_to_peers[chunks[i + 1]].add(x)
        placement = PlacementMap(chunk_to_peers, files={"f": tuple(chunks)})
        deletions = bakedeletion(placement, 1)
        after = apply_plan(placement, deletions)
        assert check_rules(placement, after, 1).ok
        assert after[chunks[0]] == {z}
        assert all(after[chunks[i + 1]] == {x} for i, x in enumerate(xs))

    def test_deterministic(self):
        placement, target_r = feasible_instance(99)
        assert bakedeletion(placement, target_r) == bakedeletion(placement, target_r)

    def test_sorted_and_unique_output(self):
        placement, target_r = feasible_instance(7)
        deletions = bakedeletion(placement, target_r)
        assert deletions == sorted(set(deletions))

    @pytest.mark.parametrize("n_files", [1, 2])
    def test_rules_hold_on_randomized_feasible_placements(self, n_files):
        for trial in range(25):
            placement, target_r = feasible_instance(trial, n_files)
            deletions = bakedeletion(placement, target_r)
            after = apply_plan(placement, deletions)
            report = check_rules(placement, after, target_r)
            assert report.ok, (trial, report.violations[:3])

    def test_matches_brute_force_on_small_instances(self):
        feasible = infeasible = 0
        for trial in range(200):
            placement, target_r = random_instance(trial)
            oracle = brute_force_keep(placement, target_r)
            try:
                deletions = bakedeletion(placement, target_r)
            except InfeasiblePlanError:
                assert oracle is None, trial
                infeasible += 1
                continue
            assert oracle is not None, trial
            feasible += 1
            after = apply_plan(placement, deletions)
            assert check_rules(placement, after, target_r).ok, trial
        assert feasible and infeasible  # both verdicts exercised


class TestCheckRules:
    def base(self):
        return PlacementMap(
            chunk_to_peers={C1: {P1, P2}, C2: {P1, P2}}, files={"f": (C1, C2)}
        )

    def test_clean_pass(self):
        report = check_rules(self.base(), {C1: {P1}, C2: {P2}}, 1)
        assert report.ok
        assert report.violations == []

    def test_rule_a_starved_peer(self):
        report = check_rules(self.base(), {C1: {P2}, C2: {P1}}, 1)
        assert report.ok
        report = check_rules(self.base(), {C1: {P1}, C2: {P1}}, 1)
        assert not report.a_ok
        assert report.d_ok
        assert any(v.startswith("A:") and P2.hex() in v for v in report.violations)

    def test_rule_b_vanished_chunk(self):
        report = check_rules(self.base(), {C1: {P1}, C2: set()}, 1)
        assert not report.b_ok
        assert any(v.startswith("B:") for v in report.violations)

    def test_rule_c_gained_chunk(self):
        report = check_rules(self.base(), {C1: {P1, P3}, C2: {P2}}, 1)
        assert not report.c_ok
        assert any(v.startswith("C:") and P3.hex() in v for v in report.violations)

    def test_rule_d_wrong_replica_count(self):
        report = check_rules(self.base(), {C1: {P1, P2}, C2: {P2}}, 1)
        assert not report.d_ok
        assert report.a_ok and report.b_ok and report.c_ok
        assert any(v.startswith("D:") and "has 2" in v for v in report.violations)


class TestCombineStorage:
    def test_empty_input(self):
        assert combinestorage([]) == []

    def test_no_lists_against_a_placement_delete_nothing(self):
        placement = PlacementMap(
            chunk_to_peers={C1: {P1, P2}, C2: {P1}, C3: {P2}},
            files={"f1": (C1, C2), "f2": (C1, C3)},
        )
        assert combinestorage([], placement) == []
        assert merge_keeps(placement, []) == placement.chunk_to_peers

    @pytest.mark.parametrize("entry", [(P3, C1), (P1, C3)],
                             ids=["peer-not-a-holder", "chunk-without-holders"])
    def test_an_entry_the_placement_does_not_hold_is_refused(self, entry):
        placement = PlacementMap(chunk_to_peers={C1: {P1, P2}, C2: {P1}}, files={"f1": (C1, C2)})
        pid, addr = entry
        refused = f"^deletion entry {pid.hex()} {addr.hex()} is not in the placement$"
        with pytest.raises(ValueError, match=refused):
            combinestorage([[entry]], placement)
        assert combinestorage([[entry]]) == [entry]

    def test_union_is_sorted_and_deduplicated(self):
        a = [(P2, C1), (P1, C2)]
        b = [(P1, C2), (P1, C1)]
        assert combinestorage([a, b]) == [(P1, C1), (P1, C2), (P2, C1)]

    def test_joint_rule_a_violation_detected(self):
        # two per-file plans, each fine alone, jointly strip a peer of the
        # only chunk it shares with one of the files
        placement = PlacementMap(
            chunk_to_peers={C1: {P1, P2}, C2: {P1}, C3: {P2}},
            files={"f1": (C1, C2), "f2": (C1, C3)},
        )
        plan_f1 = bakedeletion(placement.restrict("f1"), 1)
        plan_f2 = bakedeletion(placement.restrict("f2"), 1)
        for plan in (plan_f1, plan_f2):
            sub_after = apply_plan(placement, plan)
            assert all(sub_after[a] for a in sub_after)
        with pytest.raises(InfeasiblePlanError, match="rule A"):
            combinestorage([plan_f1, plan_f2], placement)

    def test_compatible_plans_pass_the_joint_check(self):
        placement, target_r = feasible_instance(3, n_files=2)
        plans = [
            bakedeletion(placement.restrict(fid), target_r)
            for fid in placement.files
        ]
        merged = combinestorage(plans, placement)
        assert merged == sorted(set(plans[0]) | set(plans[1]))

    def test_shared_chunk_kept_on_overlapping_peers_is_refused(self):
        # each list keeps the shared chunk C1 twice, on {P1, P2} and on
        # {P2, P3}; rule A holds for the union, but C1 keeps only P2
        every = {P1, P2, P3}
        placement = PlacementMap(
            chunk_to_peers={C1: set(every), C2: set(every), C3: set(every)},
            files={"f1": (C1, C2), "f2": (C1, C3)},
        )
        list_f1 = [(P3, C1), (P2, C2)]
        list_f2 = [(P1, C1), (P2, C3)]
        for plan in (list_f1, list_f2):
            assert check_rules(placement, apply_plan(placement, plan), 2).a_ok
        with pytest.raises(InfeasiblePlanError, match=f"^chunk {C1.hex()} kept by 1 of target_r 2$"):
            combinestorage([list_f1, list_f2], placement)


class TestDeleteChunks:
    def network_with_file(self):
        net = spawn_network(SimConfig(num_peers=20, seed=4, view_size=8))
        manifest = net.upload(seeded_bytes(20_000, "del"), ChunkParams())
        return net, manifest

    def test_refuses_while_syncing(self):
        net, manifest = self.network_with_file()
        addr = listchunks(manifest)[0]
        holder = next(p for p in net.peer_ids if addr in net.stores[p])
        with pytest.raises(SyncModeError, match="no_sync"):
            deletechunks(net, [(holder, addr)])
        assert addr in net.stores[holder]

    def test_applies_and_counts_missing(self):
        net, manifest = self.network_with_file()
        net.sync_mode = SYNC_NONE
        addr = listchunks(manifest)[0]
        holder = next(p for p in net.peer_ids if addr in net.stores[p])
        absent = next(p for p in net.peer_ids if addr not in net.stores[p])
        report = deletechunks(net, [(holder, addr), (absent, addr)])
        assert report.applied == 1
        assert report.missing == 1
        assert addr not in net.stores[holder]

    def test_empty_list_is_a_no_op(self):
        net, _ = self.network_with_file()
        net.sync_mode = SYNC_NONE
        before = net.census_digest()
        report = deletechunks(net, [])
        assert (report.applied, report.missing) == (0, 0)
        assert net.census_digest() == before

    def test_unknown_peer_rejected(self):
        net, _ = self.network_with_file()
        net.sync_mode = SYNC_NONE
        with pytest.raises(ValueError, match="unknown peer"):
            deletechunks(net, [(b"\x05" * 32, C1)])

    def test_unknown_peer_deletes_nothing(self):
        """An unknown peer anywhere in the list is refused before the valid
        entries ahead of it are applied."""
        net, manifest = self.network_with_file()
        net.sync_mode = SYNC_NONE
        addr = listchunks(manifest)[0]
        holder = next(p for p in net.peer_ids if addr in net.stores[p])
        before = net.census_digest()
        with pytest.raises(ValueError, match="unknown peer"):
            deletechunks(net, [(holder, addr), (b"\x05" * 32, addr)])
        assert net.census_digest() == before
        assert addr in net.stores[holder]

    def test_full_pipeline_normalizes(self):
        # 60 kB gives 16 chunks: enough keep slots at target 2 for all 20
        # peers to retain something
        net = spawn_network(SimConfig(num_peers=20, seed=4, view_size=8))
        manifest = net.upload(seeded_bytes(60_000, "norm"), ChunkParams())
        fid = manifest.root.hex()
        placement = placement_from_network(net, {fid: tuple(listchunks(manifest))})
        deletions = bakedeletion(placement, 2)
        net.sync_mode = SYNC_NONE
        deletechunks(net, deletions)
        refreshed = placement_from_network(net, placement.files)
        assert check_rules(placement, refreshed.chunk_to_peers, 2).ok


class TestTextFormats:
    def test_deletion_list_golden_bytes(self):
        entries = [(P2, C1), (P1, C1)]
        expected = f"{P1.hex()} {C1.hex()}\n{P2.hex()} {C1.hex()}\n"
        assert deletion_list_to_text(entries) == expected

    def test_deletion_list_roundtrip(self):
        entries = [(P1, C2), (P2, C1), (P1, C1)]
        text = deletion_list_to_text(entries)
        assert deletion_list_from_text(text) == sorted(set(entries))
        assert deletion_list_to_text(deletion_list_from_text(text)) == text

    def test_deletion_list_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            deletion_list_from_text("justonefield\n")
        with pytest.raises(ValueError, match="64 hex"):
            deletion_list_from_text("abcd abcd\n")

    def test_deletion_list_rejects_uppercase_addresses(self):
        with pytest.raises(ValueError, match="64 hex"):
            deletion_list_from_text(f"{P1.hex()} {C1.hex().upper()}\n")

    @pytest.mark.parametrize(
        "text",
        [
            f"{C1.hex().upper()} {P1.hex()}\nfile fx {C1.hex()}\n",
            f"{C1.hex()} {P1.hex()}\nfile fx {C1.hex().upper()}\n",
        ],
        ids=["chunk-line", "file-line"],
    )
    def test_placement_rejects_uppercase_addresses(self, text):
        with pytest.raises(ValueError, match="64 hex"):
            placement_from_text(text)

    def test_placement_roundtrip(self):
        placement, _ = feasible_instance(12)
        parsed = placement_from_text(placement_to_text(placement))
        assert parsed.chunk_to_peers == placement.chunk_to_peers
        assert parsed.files == placement.files

    def test_placement_layout(self):
        placement = PlacementMap(
            chunk_to_peers={C1: {P2, P1}}, files={"fx": (C1,)}
        )
        text = placement_to_text(placement)
        assert text == (
            f"{C1.hex()} {P1.hex()} {P2.hex()}\n"
            f"file fx {C1.hex()}\n"
        )

    def test_placement_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            placement_from_text(f"{C1.hex()}\n")
        with pytest.raises(ValueError, match="malformed"):
            placement_from_text("file onlyid\n")

    def test_placement_rejects_a_file_chunk_without_holders(self):
        text = f"{C1.hex()} {P1.hex()}\nfile fx {C1.hex()} {C2.hex()}\n"
        with pytest.raises(ValueError, match=f"file fx .*{C2.hex()}.* no holder line"):
            placement_from_text(text)

    def test_placement_rejects_a_repeated_chunk_line(self):
        text = f"{C1.hex()} {P1.hex()}\n{C1.hex()} {P2.hex()}\nfile fx {C1.hex()}\n"
        with pytest.raises(ValueError, match=f"duplicate placement line for chunk {C1.hex()}"):
            placement_from_text(text)

    def test_placement_rejects_a_repeated_file_line(self):
        text = f"{C1.hex()} {P1.hex()}\nfile fx {C1.hex()}\nfile fx {C1.hex()}\n"
        with pytest.raises(ValueError, match="duplicate file line for fx"):
            placement_from_text(text)

    def test_placement_rejects_a_holder_repeated_on_one_line(self):
        text = f"{C1.hex()} {P1.hex()} {P2.hex()} {P1.hex()}\nfile fx {C1.hex()}\n"
        with pytest.raises(ValueError, match=f"placement line 1 names holder {P1.hex()} twice"):
            placement_from_text(text)

    def test_placement_rejects_a_chunk_repeated_on_one_file_line(self):
        text = f"{C1.hex()} {P1.hex()}\n\nfile fx {C1.hex()} {C1.hex()}\n"
        with pytest.raises(ValueError, match=f"file line 3 names chunk {C1.hex()} twice"):
            placement_from_text(text)


ids = st.binary(min_size=32, max_size=32)


@st.composite
def placements(draw):
    """1-3 files drawing from a pool of at most 8 chunks, so files often
    share chunks, each chunk held by a non-empty subset of up to 20 peers."""
    peers = draw(st.lists(ids, min_size=1, max_size=20, unique=True))
    chunks = st.sampled_from(draw(st.lists(ids, min_size=1, max_size=8, unique=True)))
    file_id = st.text("0123456789abcdef", min_size=1, max_size=64)
    files = {
        fid: tuple(draw(st.lists(chunks, min_size=1, max_size=6, unique=True)))
        for fid in draw(st.lists(file_id, min_size=1, max_size=3, unique=True))
    }
    chunk_to_peers = {
        addr: set(draw(st.lists(st.sampled_from(peers), min_size=1, unique=True)))
        for addrs in files.values()
        for addr in addrs
    }
    return PlacementMap(chunk_to_peers=chunk_to_peers, files=files)


class TestTextRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(placements())
    def test_placement(self, placement):
        text = placement_to_text(placement)
        parsed = placement_from_text(text)
        assert parsed == placement
        assert placement_to_text(parsed) == text

    @settings(max_examples=150, deadline=None)
    @given(st.lists(ids, min_size=1, max_size=20, unique=True).flatmap(
        lambda peers: st.lists(st.tuples(st.sampled_from(peers), ids), max_size=40)
    ))
    def test_deletion_list(self, entries):
        text = deletion_list_to_text(entries)
        parsed = deletion_list_from_text(text)
        assert parsed == sorted(set(entries))
        assert deletion_list_to_text(parsed) == text


class TestPlacementFromNetwork:
    def test_counts_failed_peers_as_holders(self):
        net = spawn_network(SimConfig(num_peers=20, seed=4, view_size=8))
        manifest = net.upload(seeded_bytes(20_000, "pfn"), ChunkParams())
        fid = manifest.root.hex()
        files = {fid: tuple(listchunks(manifest))}
        before = placement_from_network(net, files)
        net.fail_peers(fraction=0.5, seed=1)
        assert placement_from_network(net, files).chunk_to_peers == before.chunk_to_peers

    def test_unheld_chunk_rejected(self):
        net = spawn_network(SimConfig(num_peers=20, seed=4, view_size=8))
        with pytest.raises(ValueError, match="no holders"):
            placement_from_network(net, {"f": (C1,)})
