"""Tests for crash-consistent checkpoints and kill-and-resume identity."""

import json

import pytest

from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.runner import ServiceConfig, build_service, kill_and_resume_check


class TestCheckpointFiles:
    def test_round_trip(self, tmp_path):
        state = {"counters": {"events": 7}, "mode": "incremental"}
        path = write_checkpoint(tmp_path, 7, "fp123", state)
        assert path.name == "checkpoint-00000007.json"
        payload = load_checkpoint(path, fingerprint="fp123")
        assert payload["seq"] == 7
        assert payload["version"] == CHECKPOINT_VERSION
        assert payload["state"] == state

    def test_latest_skips_torn_files(self, tmp_path):
        good = write_checkpoint(tmp_path, 10, "fp", {"a": 1})
        torn = write_checkpoint(tmp_path, 20, "fp", {"a": 2})
        torn.write_text(torn.read_text()[: len(torn.read_text()) // 2])
        assert latest_checkpoint(tmp_path) == good

    def test_latest_skips_hash_mismatch(self, tmp_path):
        good = write_checkpoint(tmp_path, 1, "fp", {"a": 1})
        bad = write_checkpoint(tmp_path, 2, "fp", {"a": 2})
        payload = json.loads(bad.read_text())
        payload["state"]["a"] = 999  # tamper without updating the hash
        bad.write_text(json.dumps(payload))
        assert latest_checkpoint(tmp_path) == good

    def test_latest_ignores_tmp_turds_and_strangers(self, tmp_path):
        (tmp_path / "checkpoint-00000009.json.tmp").write_text("{trunc")
        (tmp_path / "notes.txt").write_text("hello")
        assert latest_checkpoint(tmp_path) is None
        good = write_checkpoint(tmp_path, 3, "fp", {})
        assert latest_checkpoint(tmp_path) == good

    def test_snapshot_schema_is_pinned(self):
        # the checkpointed state's keys are the file format: a change to
        # them must bump CHECKPOINT_VERSION so older files are refused
        svc = build_service(ServiceConfig(n=12, events=0))
        assert sorted(svc.snapshot()) == [
            "adjacency",
            "cooldown",
            "counters",
            "guard_cursor",
            "mode",
            "next_id",
            "partners",
            "peers",
            "truncated_since_sync",
            "weights",
        ]
        assert CHECKPOINT_VERSION == 2

    def test_load_rejects_version_mismatch(self, tmp_path):
        # 1 is the format whose state still carried backend/weight_dirty
        for version in (1, 99):
            path = write_checkpoint(tmp_path, 0, "fp", {"x": 1})
            payload = json.loads(path.read_text())
            payload["version"] = version
            path.write_text(json.dumps(payload))
            with pytest.raises(CheckpointError, match="version"):
                load_checkpoint(path)

    def test_load_rejects_fingerprint_mismatch(self, tmp_path):
        path = write_checkpoint(tmp_path, 0, "trace-a", {"x": 1})
        load_checkpoint(path, fingerprint="trace-a")  # matching: fine
        with pytest.raises(CheckpointError, match="pins trace"):
            load_checkpoint(path, fingerprint="trace-b")

    def test_load_rejects_unreadable(self, tmp_path):
        path = tmp_path / "checkpoint-00000000.json"
        path.write_text("not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_keep_prunes_oldest(self, tmp_path):
        for seq in range(5):
            write_checkpoint(tmp_path, seq, "fp", {"seq": seq}, keep=3)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "checkpoint-00000002.json",
            "checkpoint-00000003.json",
            "checkpoint-00000004.json",
        ]

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ValueError, match="seq"):
            write_checkpoint(tmp_path, -1, "fp", {})
        with pytest.raises(ValueError, match="keep"):
            write_checkpoint(tmp_path, 0, "fp", {}, keep=0)


class TestKillAndResume:
    def test_bit_identity_small_storm(self, tmp_path):
        config = ServiceConfig(
            n=12, quota=2, seed=5, events=24, workload="storm",
            checkpoint_every=5, differential_every=12,
        )
        result = kill_and_resume_check(config, workdir=tmp_path)
        assert result["identical"] is True
        assert result["mismatches"] == []
        assert result["guard_violations"] == 0
        assert result["differential_ok"] is True

    def test_resume_requires_checkpoint_dir(self):
        from repro.service.runner import run_service

        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_service(ServiceConfig(n=8, events=2), resume=True)

    def test_resume_rejects_foreign_trace(self, tmp_path):
        from repro.service.runner import run_service

        a = ServiceConfig(n=10, events=10, seed=1, checkpoint_every=5)
        run_service(a, checkpoint_dir=tmp_path)
        b = ServiceConfig(n=10, events=10, seed=2, checkpoint_every=5)
        with pytest.raises(CheckpointError, match="pins trace"):
            run_service(b, checkpoint_dir=tmp_path, resume=True)

    def test_kill_frac_validation(self):
        with pytest.raises(ValueError, match="kill_frac"):
            kill_and_resume_check(ServiceConfig(n=8, events=4), kill_frac=1.5)
