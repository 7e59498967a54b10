import io
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from swarmsim.chunker import ChunkParams, build_tree, split_file
from swarmsim.cli import EX_INFEASIBLE, EX_IO, EX_OK, EX_UNAVAILABLE, EX_USAGE, run
from swarmsim.codec import CodingParams, manifest_text, parse_manifest_text
from swarmsim.harness import ExperimentConfig, emit_reports, file_bytes, prepare
from swarmsim.netsim import SimConfig, load_snapshot, spawn_network
from swarmsim.seeds import seeded_bytes
from swarmsim.tools import PlacementMap, deletion_list_to_text, placement_to_text


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run([str(a) for a in argv], stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def dir_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def fig_manifest(tmp_path_factory):
    params = ChunkParams(chunk_size=4096, branching=3)
    data = seeded_bytes(36_864, "cli-fig")
    manifest, _ = build_tree(split_file(data, params), params)
    path = tmp_path_factory.mktemp("fig") / "manifest.txt"
    path.write_text(manifest_text(manifest))
    return path, manifest


@pytest.fixture(scope="module")
def state(tmp_path_factory):
    """A 12-peer network state with one 20 KB file uploaded in full sync."""
    root = tmp_path_factory.mktemp("state")
    source = root / "input.bin"
    source.write_bytes(seeded_bytes(20_000, "cli-state"))
    state_dir = root / "net"
    manifest = root / "manifest.txt"
    code, out, err = cli(
        "upload", "--file", source, "--state", state_dir, "--out", manifest,
        "--peers", 12, "--seed", 3, "--view-size", 6,
    )
    assert code == EX_OK, err
    return {"dir": state_dir, "manifest": manifest, "source": source, "root": out.strip()}


class TestExitCodes:
    def test_no_command_is_usage(self):
        code, out, err = cli()
        assert code == EX_USAGE
        assert "usage:" in err

    def test_unknown_command(self):
        code, _, err = cli("frobnicate")
        assert code == EX_USAGE
        assert "error:" in err

    def test_unknown_flag(self, fig_manifest):
        code, _, err = cli("listchunks", "--manifest", fig_manifest[0], "--frob")
        assert code == EX_USAGE

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == EX_OK
        assert "swarmsim" in capsys.readouterr().out

    def test_fresh_upload_requires_peers(self, tmp_path, state):
        code, _, err = cli(
            "upload", "--file", state["source"], "--state", tmp_path / "new"
        )
        assert code == EX_USAGE
        assert "--peers" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--peers", 13), ("--seed", 4), ("--view-size", 7), ("--ns", 5), ("--backends", 3)],
    )
    def test_upload_to_existing_state_rejects_another_network(
        self, tmp_path, state, flag, value
    ):
        state_dir = tmp_path / "net"
        shutil.copytree(state["dir"], state_dir)
        before = dir_bytes(state_dir)
        code, out, err = cli(
            "upload", "--file", state["source"], "--state", state_dir, flag, value
        )
        assert code == EX_USAGE
        assert flag in err and out == ""
        assert dir_bytes(state_dir) == before

    def test_upload_to_existing_state_accepts_its_own_network(self, tmp_path, state):
        state_dir = tmp_path / "net"
        shutil.copytree(state["dir"], state_dir)
        code, _, err = cli(
            "upload", "--file", state["source"], "--state", state_dir,
            "--peers", 12, "--seed", 3, "--view-size", 6, "--ns", 4, "--backends", 29,
        )
        assert code == EX_OK, err

    def test_upload_to_existing_state_keeps_its_sync_mode(self, tmp_path):
        """An upload without --no-sync onto a no_sync state stores as no_sync
        does, with no pull round, and leaves the state in no_sync; --no-sync
        onto a full-sync state switches it to no_sync, as deletechunks does."""
        files = [tmp_path / f"{i}.bin" for i in range(2)]
        for i, path in enumerate(files):
            path.write_bytes(seeded_bytes(20_000, "cli-sync", i))
        full = SimConfig(num_peers=12, seed=3, view_size=6)
        for first, second in (("--no-sync", None), (None, "--no-sync")):
            state_dir = tmp_path / f"net-{first}"
            for path, flag in zip(files, (first, second)):
                code, _, err = cli(
                    "upload", "--file", path, "--state", state_dir,
                    "--peers", 12, "--seed", 3, "--view-size", 6, *([flag] if flag else []),
                )
                assert code == EX_OK, err
            saved = load_snapshot(state_dir)
            assert saved.config.sync_mode == "no_sync"
            expected = spawn_network(replace(full, sync_mode="no_sync") if first else full)
            expected.upload(files[0].read_bytes())
            expected.sync_mode = "no_sync"
            expected.upload(files[1].read_bytes())
            assert saved.stores == expected.stores

    def test_k_without_n(self, tmp_path, state):
        code, _, err = cli(
            "upload", "--file", state["source"], "--state", tmp_path / "new",
            "--peers", 10, "--k", 3,
        )
        assert code == EX_USAGE
        assert "together" in err

    def test_infeasible_plan_exits_two(self, tmp_path):
        chunk = bytes.fromhex("aa" * 32)
        peers = {bytes([i + 1]) * 32 for i in range(3)}
        placement = PlacementMap(
            chunk_to_peers={chunk: peers}, files={"f": (chunk,)}
        )
        placement_path = tmp_path / "placement.txt"
        placement_path.write_text(placement_to_text(placement))
        code, _, err = cli(
            "bakedeletion", "--placement", placement_path,
            "--target-r", 1, "--out", tmp_path / "plan.txt",
        )
        assert code == EX_INFEASIBLE
        assert "rule A" in err

    def test_retrieve_foreign_manifest_exits_three(self, tmp_path, state, fig_manifest):
        out_path = tmp_path / "out.bin"
        code, _, err = cli(
            "retrieve", "--state", state["dir"],
            "--manifest", fig_manifest[0], "--out", out_path,
        )
        assert code == EX_UNAVAILABLE
        assert "unavailable" in err
        assert not out_path.exists()

    def test_missing_input_exits_four(self, tmp_path):
        code, _, err = cli("listchunks", "--manifest", tmp_path / "absent.txt")
        assert code == EX_IO
        assert "i/o error" in err

    def test_deletechunks_refused_in_full_sync(self, tmp_path, state):
        deletions = tmp_path / "plan.txt"
        deletions.write_text(f"{'aa' * 32} {'bb' * 32}\n")
        code, _, err = cli(
            "deletechunks", "--state", state["dir"], "--list", deletions
        )
        assert code == EX_USAGE
        assert "no_sync" in err

    def test_entry_index_out_of_range(self, tmp_path, state):
        code, _, err = cli(
            "retrieve", "--state", state["dir"], "--manifest", state["manifest"],
            "--out", tmp_path / "out.bin", "--entry", 12,
        )
        assert code == EX_USAGE
        assert "out of range" in err

    def test_retrieve_rejects_unknown_state_key(self, tmp_path, state):
        copy = tmp_path / "net"
        shutil.copytree(state["dir"], copy)
        with open(copy / "manifest.txt", "a") as manifest:
            manifest.write("view-size=8\n")
        code, _, err = cli(
            "retrieve", "--state", copy, "--manifest", state["manifest"],
            "--out", tmp_path / "out.bin", "--entry", 0,
        )
        assert code == EX_USAGE
        assert "'view-size'" in err
        assert not (tmp_path / "out.bin").exists()

    @pytest.mark.parametrize("lines", [
        ["{c1} {p1}", "file fx {c1} {c2}"],  # c2 has no holder line
        ["{c1} {p1}", "{c1} {p1}", "file fx {c1}"],
        ["{c1} {p1}", "file fx {c1}", "file fx {c1}"],
        ["{c1} {p1} {p1}", "file fx {c1}"],
        ["{c1} {p1}", "file fx {c1} {c1}"],
    ])
    def test_bakedeletion_rejects_a_bad_placement(self, tmp_path, lines):
        ids = {"c1": "aa" * 32, "c2": "bb" * 32, "p1": "11" * 32}
        placement = tmp_path / "placement.txt"
        placement.write_text("".join(line.format(**ids) + "\n" for line in lines))
        code, _, err = cli(
            "bakedeletion", "--placement", placement, "--target-r", 1,
            "--out", tmp_path / "plan.txt",
        )
        assert code == EX_USAGE
        assert err.startswith("error: ")
        assert not (tmp_path / "plan.txt").exists()

    def test_placement_out_needs_manifest(self, tmp_path, state):
        code, _, err = cli(
            "stats", "--state", state["dir"], "--placement-out", tmp_path / "p.txt"
        )
        assert code == EX_USAGE
        assert "--manifest" in err

    def test_manifest_needs_placement_out(self, tmp_path, state):
        """A manifest is only read to write a placement map, so without
        --placement-out it is refused, not ignored."""
        code, out, err = cli("stats", "--state", state["dir"], "--manifest", state["manifest"])
        assert code == EX_USAGE
        assert err.startswith("error: ") and "--placement-out" in err
        assert out == ""


class TestListChunks:
    def test_small_tree_prints_all_addresses_root_first(self, fig_manifest):
        path, manifest = fig_manifest
        code, out, _ = cli("listchunks", "--manifest", path)
        assert code == EX_OK
        lines = out.splitlines()
        assert len(lines) == 13
        assert lines[0] == manifest.root.hex()
        assert all(len(line) == 64 for line in lines)
        assert len(set(lines)) == 13

    def test_out_file_instead_of_stdout(self, fig_manifest, tmp_path):
        path, _ = fig_manifest
        out_path = tmp_path / "addresses.txt"
        code, out, _ = cli("listchunks", "--manifest", path, "--out", out_path)
        assert code == EX_OK
        assert out == ""
        assert len(out_path.read_text().splitlines()) == 13


class TestUploadRetrieve:
    def test_roundtrip(self, tmp_path, state):
        out_path = tmp_path / "back.bin"
        code, out, err = cli(
            "retrieve", "--state", state["dir"], "--manifest", state["manifest"],
            "--out", out_path, "--entry", 0,
        )
        assert code == EX_OK, err
        assert "retrieved 20000 bytes" in out
        assert out_path.read_bytes() == state["source"].read_bytes()

    def test_non_default_chunk_size_survives_the_manifest(self, tmp_path):
        source = tmp_path / "input.bin"
        source.write_bytes(seeded_bytes(50_000, "cli-chunksize"))
        manifest, listed = tmp_path / "m.txt", tmp_path / "chunks.txt"
        code, _, err = cli(
            "upload", "--file", source, "--state", tmp_path / "net",
            "--out", manifest, "--peers", 10, "--view-size", 5,
            "--chunk-size", 1024, "--branching", 8,
        )
        assert code == EX_OK, err
        code, _, err = cli(
            "retrieve", "--state", tmp_path / "net", "--manifest", manifest,
            "--out", tmp_path / "back.bin", "--entry", 0,
        )
        assert code == EX_OK, err
        assert (tmp_path / "back.bin").read_bytes() == source.read_bytes()
        code, _, err = cli("listchunks", "--manifest", manifest, "--out", listed)
        assert code == EX_OK, err
        assert len(listed.read_text().splitlines()) == 49 + 7 + 1

    def test_upload_matches_the_library_at_non_default_geometry(self, tmp_path):
        data = seeded_bytes(60_000, "cli-geometry")
        source = tmp_path / "input.bin"
        source.write_bytes(data)
        manifest, state_dir = tmp_path / "m.txt", tmp_path / "net"
        code, out, err = cli(
            "upload", "--file", source, "--state", state_dir, "--out", manifest,
            "--peers", 30, "--seed", 7, "--view-size", 6, "--ns", 3, "--backends", 5,
            "--chunk-size", 1024, "--branching", 8, "--k", 4, "--n", 6,
        )
        assert code == EX_OK, err
        net = spawn_network(
            SimConfig(num_peers=30, seed=7, view_size=6, ns=3, num_backends=5)
        )
        expected = net.upload(
            data, ChunkParams(chunk_size=1024, branching=8), CodingParams(k=4, n=6)
        )
        saved = load_snapshot(state_dir)
        assert saved.digest == net.census_digest()
        assert saved.stores == net.stores
        assert manifest.read_text() == manifest_text(expected)
        assert out.strip() == expected.root.hex()
        for entry in ([], ["--entry", 29]):
            back = tmp_path / "back.bin"
            code, out, err = cli(
                "retrieve", "--state", state_dir, "--manifest", manifest,
                "--out", back, *entry,
            )
            assert code == EX_OK, err
            assert back.read_bytes() == data

    def test_upload_prints_the_root(self, state):
        manifest = parse_manifest_text(state["manifest"].read_text())
        assert state["root"] == manifest.root.hex()

    def test_module_entrypoint(self, tmp_path):
        source = tmp_path / "input.bin"
        source.write_bytes(seeded_bytes(8_000, "cli-proc"))
        manifest = tmp_path / "m.txt"
        argv = [
            sys.executable, "-m", "swarmsim", "upload",
            "--file", str(source), "--state", str(tmp_path / "net"),
            "--out", str(manifest), "--peers", "10", "--view-size", "5",
        ]
        done = subprocess.run(argv, capture_output=True, text=True)
        assert done.returncode == EX_OK, done.stderr
        back = subprocess.run(
            [
                sys.executable, "-m", "swarmsim", "retrieve",
                "--state", str(tmp_path / "net"), "--manifest", str(manifest),
                "--out", str(tmp_path / "back.bin"), "--entry", "0",
            ],
            capture_output=True, text=True,
        )
        assert back.returncode == EX_OK, back.stderr
        assert (tmp_path / "back.bin").read_bytes() == source.read_bytes()

    def test_same_command_line_is_byte_identical(self, tmp_path, state):
        outputs = []
        for name in ("one", "two"):
            code, out, _ = cli(
                "upload", "--file", state["source"],
                "--state", tmp_path / name, "--peers", 12,
                "--seed", 3, "--view-size", 6,
            )
            assert code == EX_OK
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert dir_bytes(tmp_path / "one") == dir_bytes(tmp_path / "two")


class TestSnapshotRestore:
    def test_restore_rolls_back_a_second_upload(self, tmp_path):
        source_a = tmp_path / "a.bin"
        source_a.write_bytes(seeded_bytes(10_000, "cli-a"))
        source_b = tmp_path / "b.bin"
        source_b.write_bytes(seeded_bytes(10_000, "cli-b"))
        state_dir = tmp_path / "net"
        code, _, _ = cli(
            "upload", "--file", source_a, "--state", state_dir,
            "--peers", 10, "--view-size", 5,
        )
        assert code == EX_OK

        snap_dir = tmp_path / "snap"
        code, digest_out, _ = cli("snapshot", "--state", state_dir, "--out", snap_dir)
        assert code == EX_OK
        digest = digest_out.strip()
        assert len(digest) == 64

        _, stats_before, _ = cli("stats", "--state", state_dir)
        code, _, _ = cli("upload", "--file", source_b, "--state", state_dir)
        assert code == EX_OK
        _, stats_between, _ = cli("stats", "--state", state_dir)
        assert stats_between != stats_before

        code, restored_out, _ = cli(
            "restore", "--state", state_dir, "--snapshot", snap_dir
        )
        assert code == EX_OK
        assert restored_out.strip() == digest
        _, stats_after, _ = cli("stats", "--state", state_dir)
        assert stats_after == stats_before


    def test_snapshot_refuses_a_directory_with_foreign_files(self, tmp_path, state):
        out = tmp_path / "saved"
        out.mkdir()
        (out / "notes.txt").write_text("mine")
        code, stdout, err = cli("snapshot", "--state", state["dir"], "--out", out)
        assert code == EX_USAGE
        assert stdout == ""
        assert "'notes.txt'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["saved"]
        assert [p.name for p in out.iterdir()] == ["notes.txt"]

    @pytest.mark.parametrize(
        "stray", ["backend-0/" + "ee" * 32, "backend-99", "notes"],
        ids=["unknown-peer", "backend-99", "notes"],
    )
    def test_snapshot_of_a_state_with_a_stray_entry_exits_1(self, tmp_path, state, stray):
        source = tmp_path / "net"
        shutil.copytree(state["dir"], source)
        (source / stray).mkdir()
        code, stdout, err = cli("snapshot", "--state", source, "--out", tmp_path / "saved")
        assert code == EX_USAGE
        assert stdout == ""
        assert err == f"error: corrupt snapshot: {source / stray} does not belong in it\n"
        assert not (tmp_path / "saved").exists()

    def test_snapshot_of_a_state_with_a_stray_file_in_a_peer_exits_1(self, tmp_path, state):
        source = tmp_path / "net"
        shutil.copytree(state["dir"], source)
        notes = next(source.glob("backend-*/*")) / "notes"
        notes.write_text("mine")
        code, stdout, err = cli("snapshot", "--state", source, "--out", tmp_path / "saved")
        assert code == EX_USAGE
        assert stdout == ""
        assert err == f"error: corrupt snapshot: {notes} is not a chunk file\n"

    def test_copies_match_their_source_byte_for_byte(self, tmp_path, state):
        saved, restored = tmp_path / "saved", tmp_path / "restored"
        code, digest, _ = cli("snapshot", "--state", state["dir"], "--out", saved)
        assert code == EX_OK
        code, again, _ = cli("restore", "--state", restored, "--snapshot", saved)
        assert code == EX_OK
        assert again == digest == load_snapshot(state["dir"]).digest + "\n"
        assert dir_bytes(saved) == dir_bytes(restored) == dir_bytes(state["dir"])


class TestStats:
    def test_text_summary(self, state):
        code, out, _ = cli("stats", "--state", state["dir"])
        assert code == EX_OK
        assert out.startswith("peers=12 chunks=")
        assert "replicas=" in out

    def test_census_csvs(self, state, tmp_path):
        code, out, _ = cli("stats", "--state", state["dir"], "--out", tmp_path)
        assert code == EX_OK
        assert (tmp_path / "replicas_per_chunk.csv").is_file()
        assert (tmp_path / "chunks_per_peer.csv").is_file()
        assert not (tmp_path / "availability.csv").exists()
        assert str(tmp_path / "replicas_per_chunk.csv") in out


    def test_census_csvs_leave_an_experiments_availability_report(self, tmp_path, state):
        config = tmp_path / "sweep.txt"
        config.write_text(
            "peers=20\nseed=5\nview_size=8\nfile_sizes=40000\nmin_degree=1\ntarget_r=2\n"
        )
        results = tmp_path / "results"
        code, _, err = cli("experiment", "--config", config, "--out", results)
        assert code == EX_OK, err
        availability = (results / "availability.csv").read_bytes()
        code, out, err = cli("stats", "--state", state["dir"], "--out", results)
        assert code == EX_OK, err
        assert out.splitlines() == [
            str(results / "replicas_per_chunk.csv"), str(results / "chunks_per_peer.csv")
        ]
        assert (results / "availability.csv").read_bytes() == availability


class TestExperiment:
    def test_config_file_to_reports(self, tmp_path):
        config = tmp_path / "sweep.txt"
        config.write_text(
            "peers=20\nseed=5\nview_size=8\nfile_sizes=40000\n"
            "min_degree=1\ntarget_r=2\nfractions=0,0.5\niterations=2\n"
        )
        out_dir = tmp_path / "results"
        code, out, err = cli("experiment", "--config", config, "--out", out_dir)
        assert code == EX_OK, err
        assert "retrievals succeeded" in out
        for name in ("availability.csv", "replicas_per_chunk.csv", "chunks_per_peer.csv"):
            assert (out_dir / name).is_file()
        rows = (out_dir / "availability.csv").read_text().splitlines()
        assert len(rows) == 1 + 4

    def test_unknown_config_key_is_rejected(self, tmp_path):
        config = tmp_path / "sweep.txt"
        config.write_text(
            "peers=20\nseed=5\nview_size=8\nfile_sizes=40000\n"
            "min_degree=1\nfraction=0.5\nitertions=3\n"
        )
        out_dir = tmp_path / "results"
        code, out, err = cli("experiment", "--config", config, "--out", out_dir)
        assert code == EX_USAGE
        assert "'fraction'" in err
        assert not out_dir.exists()


class TestPipeCompose:
    """Chaining the CLI stages reproduces the in-process pipeline."""

    SIM = SimConfig(num_peers=40, seed=9, view_size=12, ns=4)
    CFG = ExperimentConfig(
        sim=SIM,
        file_sizes=(150_000, 120_000),
        coding=CodingParams(k=3, n=4),
        target_r=2,
        fractions=(0.0,),
        iterations=1,
        min_degree=2,
    )

    def test_cli_chain_matches_prepare(self, tmp_path):
        state_dir = tmp_path / "net"
        manifests = []
        for index in range(2):
            source = tmp_path / f"file{index}.bin"
            source.write_bytes(file_bytes(self.CFG, index))
            manifest = tmp_path / f"m{index}.txt"
            argv = [
                "upload", "--file", source, "--state", state_dir,
                "--out", manifest, "--k", 3, "--n", 4,
            ]
            if index == 0:
                argv += ["--peers", 40, "--seed", 9, "--view-size", 12, "--ns", 4]
            code, _, err = cli(*argv)
            assert code == EX_OK, err
            manifests.append(manifest)

        plans = []
        for index, manifest in enumerate(manifests):
            placement = tmp_path / f"p{index}.txt"
            code, _, err = cli(
                "stats", "--state", state_dir,
                "--manifest", manifest, "--placement-out", placement,
            )
            assert code == EX_OK, err
            plan = tmp_path / f"d{index}.txt"
            code, _, err = cli(
                "bakedeletion", "--placement", placement,
                "--target-r", 2, "--out", plan,
            )
            assert code == EX_OK, err
            plans.append(plan)

        joint = tmp_path / "joint.txt"
        code, _, err = cli(
            "stats", "--state", state_dir, "--manifest", manifests[0],
            "--manifest", manifests[1], "--placement-out", joint,
        )
        assert code == EX_OK, err
        combined = tmp_path / "combined.txt"
        code, _, err = cli(
            "combinestorage", plans[0], plans[1],
            "--placement", joint, "--out", combined,
        )
        assert code == EX_OK, err

        code, out, err = cli(
            "deletechunks", "--state", state_dir, "--list", combined, "--no-sync"
        )
        assert code == EX_OK, err
        assert "missing=0" in out

        cli_dir = tmp_path / "cli-census"
        code, _, err = cli("stats", "--state", state_dir, "--out", cli_dir)
        assert code == EX_OK, err

        prepared = prepare(spawn_network(self.SIM), self.CFG)
        assert combined.read_text() == deletion_list_to_text(prepared.deletions)
        ref_dir = tmp_path / "ref-census"
        emit_reports([], prepared.census_after, ref_dir)
        for name in ("replicas_per_chunk.csv", "chunks_per_peer.csv"):
            assert (cli_dir / name).read_bytes() == (ref_dir / name).read_bytes()

    def test_merge_deleting_every_replica_of_a_shared_chunk_is_refused(self, tmp_path):
        """Two files share their first 40 000 bytes. Each per-file plan keeps
        every shared chunk once, on a keeper of its own, so their union
        deletes every replica of one; the joint check refuses it."""
        shared = seeded_bytes(40_000, "shared")
        state_dir = tmp_path / "net"
        manifests = []
        for index, (name, size) in enumerate((("a", 160_000), ("b", 110_000))):
            source = tmp_path / f"{name}.bin"
            source.write_bytes(shared + seeded_bytes(size, "tail", index))
            manifest = tmp_path / f"m{name}.txt"
            code, _, err = cli(
                "upload", "--file", source, "--state", state_dir, "--out", manifest,
                "--peers", 10, "--seed", 5, "--view-size", 9, "--no-sync", "--branching", 4,
            )
            assert code == EX_OK, err
            manifests.append(manifest)
        joint = tmp_path / "joint.txt"
        code, _, err = cli(
            "stats", "--state", state_dir, "--manifest", manifests[0],
            "--manifest", manifests[1], "--placement-out", joint,
        )
        assert code == EX_OK, err
        plans = []
        for index, manifest in enumerate(manifests):
            placement, plan = tmp_path / f"p{index}.txt", tmp_path / f"d{index}.txt"
            code, _, err = cli("stats", "--state", state_dir, "--manifest", manifest,
                               "--placement-out", placement)
            assert code == EX_OK, err
            code, _, err = cli("bakedeletion", "--placement", placement,
                               "--target-r", 1, "--out", plan)
            assert code == EX_OK, err
            plans.append(plan)

        before = dir_bytes(state_dir)
        combined = tmp_path / "combined.txt"
        code, _, err = cli("combinestorage", plans[0], plans[1],
                           "--placement", joint, "--out", combined)
        assert code == EX_INFEASIBLE
        assert re.fullmatch(r"infeasible: chunk [0-9a-f]{64} kept by 0 of target_r 1\n", err)
        assert not combined.exists()
        assert dir_bytes(state_dir) == before
        back = tmp_path / "back.bin"
        code, _, err = cli("retrieve", "--state", state_dir, "--manifest", manifests[0],
                           "--out", back)
        assert code == EX_OK, err
        assert back.read_bytes() == (tmp_path / "a.bin").read_bytes()
