"""Tests for crash-consistent checkpoints and kill-and-resume identity."""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.service import checkpoint
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    FrozenList,
    FrozenRecord,
    latest_checkpoint,
    load_checkpoint,
    write_checkpoint,
)
from repro.service.runner import (
    ServiceConfig,
    build_service,
    kill_and_resume_check,
    run_service,
)
from repro.service.service import MatchingService
from repro.telemetry.sink import canonical_fields


def _canonical(state) -> bytes:
    return json.dumps(state, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _stored_state(path) -> bytes:
    """The raw text of a checkpoint file's ``"state"`` value."""
    after = path.read_bytes().split(b'"state": ', 1)[1]
    return after.rsplit(b', "state_hash": ', 1)[0]


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
            "peers",
        ]
        assert CHECKPOINT_VERSION == 5

    def test_load_rejects_version_mismatch(self, tmp_path):
        # 1 is the format whose state still carried backend/weight_dirty,
        # 2 the one whose state still carried the eq.-9 weight cache,
        # 3 the one whose state still carried truncated_since_sync,
        # 4 the one whose state still carried the partners
        for version in (1, 2, 3, 4, 99):
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

    def test_latest_skips_non_utf8_files(self, tmp_path):
        good = write_checkpoint(tmp_path, 1, "fp", {"a": 1})
        (tmp_path / "checkpoint-00000002.json").write_bytes(b'{"state": "\xff\xfe"}')
        assert latest_checkpoint(tmp_path) == good

    def test_load_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "checkpoint-00000000.json"
        path.write_bytes(b'{"version": 2, "state": "\xff"}')
        with pytest.raises(CheckpointError, match="unreadable"):
            load_checkpoint(path)

    def test_load_rejects_non_object_json(self, tmp_path):
        path = tmp_path / "checkpoint-00000000.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)
        assert latest_checkpoint(tmp_path) is None

    def test_keep_prunes_oldest(self, tmp_path):
        for seq in range(5):
            write_checkpoint(tmp_path, seq, "fp", {"seq": seq}, keep=3)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "checkpoint-00000002.json",
            "checkpoint-00000003.json",
            "checkpoint-00000004.json",
        ]

    def test_prune_keeps_the_checkpoint_just_written(self, tmp_path):
        # an earlier, longer run left higher seqs behind: they are not
        # older than seq 0, so none of them may evict it
        for seq in (150, 175, 200):
            write_checkpoint(tmp_path, seq, "fp", {"seq": seq})
        path = write_checkpoint(tmp_path, 0, "fp", {"seq": 0})
        assert path.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-00000000.json",
            "checkpoint-00000150.json",
            "checkpoint-00000175.json",
            "checkpoint-00000200.json",
        ]
        for seq in (5, 10, 15):
            write_checkpoint(tmp_path, seq, "fp", {"seq": seq})
        assert sorted(p.name for p in tmp_path.iterdir())[:3] == [
            "checkpoint-00000005.json",
            "checkpoint-00000010.json",
            "checkpoint-00000015.json",
        ]

    def test_seqs_past_eight_digits_are_found_and_pruned(self, tmp_path):
        # seq 10**8 takes a ninth digit: files order by the integer seq,
        # so the newest is found and only older ones are pruned
        for seq in range(99_999_998, 100_000_004):
            write_checkpoint(tmp_path, seq, "fp", {"seq": seq}, keep=3)
        newest = latest_checkpoint(tmp_path)
        assert newest.name == "checkpoint-100000003.json"
        assert load_checkpoint(newest)["seq"] == 100_000_003
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-100000001.json",
            "checkpoint-100000002.json",
            "checkpoint-100000003.json",
        ]
        # a name the writer never produces is a stranger, however it sorts
        stranger = tmp_path / "checkpoint-0100000009.json"
        stranger.write_text(newest.read_text())
        write_checkpoint(tmp_path, 100_000_004, "fp", {"seq": 100_000_004}, keep=1)
        assert latest_checkpoint(tmp_path).name == "checkpoint-100000004.json"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "checkpoint-0100000009.json",
            "checkpoint-100000004.json",
        ]

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ValueError, match="seq"):
            write_checkpoint(tmp_path, -1, "fp", {})
        with pytest.raises(ValueError, match="keep"):
            write_checkpoint(tmp_path, 0, "fp", {}, keep=0)


class TestEncodeOnce:
    """The file stores the hashed bytes; the loader accepts any layout."""

    STATE = {"b": [0.1, -0.0, 1e-300, 2.5e17], "a": {"z": "ünïcode", "y": None}, "c": 3}

    def test_state_is_stored_as_its_canonical_bytes(self, tmp_path):
        path = write_checkpoint(tmp_path, 4, "fp", self.STATE)
        assert _stored_state(path) == _canonical(self.STATE)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert list(payload) == ["fingerprint", "seq", "state", "state_hash", "version"]
        assert payload["state"] == self.STATE

    def test_state_hash_is_sha256_of_the_stored_bytes(self, tmp_path):
        path = write_checkpoint(tmp_path, 4, "fp", self.STATE)
        payload = load_checkpoint(path, fingerprint="fp")
        assert payload["state_hash"] == hashlib.sha256(_stored_state(path)).hexdigest()

    @staticmethod
    def _record_encodings(monkeypatch) -> list:
        """Every object the checkpoint module hands to a JSON encoder."""
        encoded = []
        encoder, dumps = checkpoint._ENCODER, json.dumps

        class Recording:
            def encode(self, obj):
                encoded.append(obj)
                return encoder.encode(obj)

        def recording_dumps(obj, *args, **kwargs):
            encoded.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(checkpoint, "_ENCODER", Recording())
        monkeypatch.setattr(checkpoint.json, "dumps", recording_dumps)
        return encoded

    def test_state_is_serialised_once_per_write(self, tmp_path, monkeypatch):
        # the writer builds the state's text from one encoding of each
        # top-level value and each peer's record and adjacency list: it
        # never encodes the state whole, and no container twice
        state = build_service(ServiceConfig(n=12, events=0)).snapshot()
        expected = _canonical(state)
        encoded = self._record_encodings(monkeypatch)
        path = write_checkpoint(tmp_path, 0, "fp", state)
        assert _stored_state(path) == expected
        assert all(obj is not state for obj in encoded)
        containers = [id(obj) for obj in encoded if isinstance(obj, (dict, list))]
        assert len(set(containers)) == len(containers)
        assert sum(isinstance(obj, FrozenRecord) for obj in encoded) == 12
        assert sum(isinstance(obj, FrozenList) for obj in encoded) == 12

    def test_a_second_write_encodes_no_frozen_value_again(self, tmp_path, monkeypatch):
        svc = build_service(ServiceConfig(n=12, events=0))
        write_checkpoint(tmp_path, 0, "fp", svc.snapshot())
        state = svc.snapshot()
        expected = _canonical(state)
        encoded = self._record_encodings(monkeypatch)
        path = write_checkpoint(tmp_path, 1, "fp", state)
        assert _stored_state(path) == expected
        assert encoded and not any(isinstance(o, (FrozenRecord, FrozenList)) for o in encoded)

    @pytest.mark.parametrize(
        "config, v2_hash, v3_hash, v4_hash, v5_hash",
        [
            (
                ServiceConfig(
                    n=500, seed=0, events=16, workload="poisson",
                    checkpoint_every=8, differential_every=0,
                ),
                "900c38996618d5c3e6869852a5b8cd7a744fa117c17f265f8ae820b15d17eaa1",
                "bf6bbecb3b114ce76dac775fad80051f5eb003e2fdf3e6cc106339e4ec12af77",
                "24c21667a8403e71a53634403523cf2a733ec319a1ea9229562464a4f97808fd",
                "23e9eec1446ef3b54b0c15a17dee44ac4c25b92bd42c4bee60e6ab6b95e0de4a",
            ),
            (
                ServiceConfig(
                    n=250, seed=0, events=32, workload="storm",
                    checkpoint_every=1, differential_every=0,
                ),
                "1c88cd9348df37eaa8b08cb5f864b4a373a8ad6d874c8c33e5edd0e356d2876e",
                "1e4886a0bc7e4fffa14be7d19800dff5b2517a194c07dc9f0ff7582e6f4553c0",
                "5dd31aa9e282cdf5f5088ee5b913e2c0a9c6488d662e614edd0c88ab4116c719",
                "585e56ffd7b15412b25bb979a256ab98b0226cc713a4fe5666116752fc224b96",
            ),
        ],
        ids=["steady-poisson-500", "storm-250"],
    )
    def test_benchmark_service_states_hash_as_before(
        self, tmp_path, config, v2_hash, v3_hash, v4_hash, v5_hash
    ):
        # the two end-to-end service configurations after their full
        # pass.  The v2, v3 and v4 literals must never move: the
        # version-4 state is the v5 state plus the partners, which the
        # restore's LIC solve must reproduce exactly; the version-3
        # state is the v4 state plus the deferred-repair debt and its
        # truncated_repairs counter, both always 0 in the one repair
        # policy left, and the version-2 state (recorded before the
        # writer encoded the state once) is the v3 state plus the weight
        # cache a restore rebuilds and the stale_dropped counter, which
        # was always 0
        trace = config.trace()
        service = build_service(config)
        for event in trace.events:
            service.apply(event)
        path = write_checkpoint(tmp_path, config.events, trace.fingerprint(), service.snapshot())
        payload = load_checkpoint(path)
        assert payload["state_hash"] == v5_hash
        state = payload["state"]
        restored = MatchingService.restore(state, config.metric())
        v4 = dict(
            state,
            partners={
                str(pid): sorted(v) for pid, v in sorted(restored._partners.items())
            },
        )
        assert hashlib.sha256(_canonical(v4)).hexdigest() == v4_hash
        v3 = dict(
            v4,
            truncated_since_sync=0,
            counters=dict(state["counters"], truncated_repairs=0),
        )
        assert hashlib.sha256(_canonical(v3)).hexdigest() == v3_hash
        v2 = dict(
            v3,
            counters=dict(v3["counters"], stale_dropped=0),
            weights=[[a, b, w] for (a, b), w in sorted(restored._wcache._w.items())],
        )
        assert hashlib.sha256(_canonical(v2)).hexdigest() == v2_hash

    def test_older_spaced_layout_loads_and_resumes(self, tmp_path):
        config = ServiceConfig(n=16, quota=2, seed=2, events=20, checkpoint_every=5)
        run_service(config, checkpoint_dir=tmp_path, kill_after=12)
        newest = latest_checkpoint(tmp_path)
        payload = json.loads(newest.read_text(encoding="utf-8"))
        # the layout earlier writers produced: one spaced dump of it all
        newest.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        assert _stored_state(newest) != _canonical(payload["state"])
        assert latest_checkpoint(tmp_path) == newest
        assert load_checkpoint(newest)["state"] == payload["state"]
        resumed = run_service(config, checkpoint_dir=tmp_path, resume=True).report
        base = run_service(config).report
        drop = ("differential_checks", "differential_ok", "oracle_violations")
        assert canonical_fields(resumed, drop=drop) == canonical_fields(base, drop=drop)


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

    def test_resume_from_an_emptied_overlay(self, tmp_path):
        # every peer has left by the checkpoint the resume restores, so
        # the restore rebuilds lists and weights for no peers at all
        config = ServiceConfig(
            n=2, seed=0, events=10, workload="poisson",
            checkpoint_every=1, differential_every=0,
        )
        run_service(config, checkpoint_dir=tmp_path / "killed", kill_after=2)
        assert load_checkpoint(latest_checkpoint(tmp_path / "killed"))["state"]["peers"] == []
        result = kill_and_resume_check(config, workdir=tmp_path / "check", kill_frac=0.2)
        assert result["kill_after"] == 2
        assert result["identical"] is True
        assert result["mismatches"] == []

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

    def test_resume_never_restores_another_configs_state(self, tmp_path):
        # both configs replay the same trace (workload, events, seed);
        # the first run's newer checkpoints must not stand in for the
        # killed second run's own
        run_service(ServiceConfig(n=20, events=20, seed=1, checkpoint_every=5), tmp_path)
        config = ServiceConfig(n=30, events=20, seed=1, checkpoint_every=5)
        run_service(config, checkpoint_dir=tmp_path, kill_after=12)
        resumed = run_service(config, checkpoint_dir=tmp_path, resume=True).report
        base = run_service(config).report
        assert (resumed["final_n"], resumed["matching_sha"]) == (28, "344dd4748268")
        assert (base["final_n"], base["matching_sha"]) == (28, "344dd4748268")
        assert resumed["trace_fingerprint"] == base["trace_fingerprint"]

    @pytest.mark.parametrize(
        "change",
        [dict(n=11), dict(quota=2), dict(family="ws")],
        ids=lambda change: "-".join(change),
    )
    def test_resume_rejects_a_config_sharing_the_trace(self, tmp_path, change):
        config = ServiceConfig(n=10, events=10, seed=1, checkpoint_every=5)
        run_service(config, checkpoint_dir=tmp_path, kill_after=7)
        with pytest.raises(CheckpointError, match="pins trace"):
            run_service(replace(config, **change), checkpoint_dir=tmp_path, resume=True)

    def test_resume_ignores_the_cadences(self, tmp_path):
        config = ServiceConfig(n=10, events=10, seed=1, checkpoint_every=5)
        run_service(config, checkpoint_dir=tmp_path, kill_after=7)
        other = replace(config, checkpoint_every=2, differential_every=3)
        resumed = run_service(other, checkpoint_dir=tmp_path, resume=True).report
        base = run_service(config).report
        assert resumed["matching_sha"] == base["matching_sha"]

    def test_negative_kill_after_is_rejected(self):
        with pytest.raises(ValueError, match="kill_after"):
            run_service(ServiceConfig(n=8, events=4), kill_after=-1)

    def test_kill_frac_validation(self):
        with pytest.raises(ValueError, match="kill_frac"):
            kill_and_resume_check(ServiceConfig(n=8, events=4), kill_frac=1.5)
