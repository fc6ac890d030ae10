"""Crash-consistent checkpoints for the matching service.

Format: one JSON file per snapshot, ``checkpoint-<seq:08d>.json``, where
``seq`` is the trace cursor (number of events applied).  Each file is
self-describing::

    {
      "version": 2,
      "seq": 120,
      "fingerprint": "ab12…",      # WorkloadTrace.fingerprint()
      "state": { … },              # MatchingService.snapshot()
      "state_hash": "…64 hex…"     # sha256 of canonical state JSON
    }

Crash consistency comes from the classic write-to-temp + ``os.replace``
dance (the same idiom as :func:`repro.telemetry.sink.write_jsonl` and
the grid store): a checkpoint either exists completely or not at all as
far as any reader is concerned.  A process killed mid-write leaves at
worst a ``.tmp`` turd that :func:`latest_checkpoint` ignores; a file
truncated by the filesystem (torn write on a crashed host) fails JSON
parsing or the hash check and is likewise skipped, falling back to the
previous intact checkpoint.

Restores are paranoid: the version must match, the trace fingerprint
must match (a service can never resume one trace and silently replay a
different one), and the state hash must match the re-serialised state.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path
from typing import Optional

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "latest_checkpoint",
    "load_checkpoint",
    "write_checkpoint",
]

CHECKPOINT_VERSION = 2

_NAME_RE = re.compile(r"^checkpoint-(\d{8})\.json$")


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be used (version/trace mismatch)."""


def _state_hash(state: dict) -> str:
    canon = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def write_checkpoint(
    directory: "str | Path",
    seq: int,
    fingerprint: str,
    state: dict,
    keep: int = 3,
) -> Path:
    """Atomically persist one snapshot; returns the final path.

    Retains the newest ``keep`` checkpoints and prunes older ones (a
    resume only ever needs the latest intact file; the margin covers a
    torn write of the newest).
    """
    if seq < 0:
        raise ValueError(f"seq must be >= 0, got {seq}")
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "version": CHECKPOINT_VERSION,
        "seq": seq,
        "fingerprint": fingerprint,
        "state": state,
        "state_hash": _state_hash(state),
    }
    final = directory / f"checkpoint-{seq:08d}.json"
    tmp = final.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    os.replace(tmp, final)
    for stale in _checkpoint_files(directory)[:-keep]:
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - concurrent pruning race
            pass
    return final


def _checkpoint_files(directory: Path) -> list[Path]:
    out = []
    if directory.is_dir():
        for p in directory.iterdir():
            if _NAME_RE.match(p.name):
                out.append(p)
    return sorted(out)


def latest_checkpoint(directory: "str | Path") -> Optional[Path]:
    """Newest checkpoint that parses and passes its hash; else ``None``.

    Torn or corrupt files are skipped, not fatal — that is the whole
    point of keeping more than one.
    """
    for path in reversed(_checkpoint_files(Path(directory))):
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) or "state" not in payload:
            continue
        if payload.get("state_hash") != _state_hash(payload["state"]):
            continue
        return path
    return None


def load_checkpoint(path: "str | Path", fingerprint: Optional[str] = None) -> dict:
    """Load and verify one checkpoint file.

    Returns the full payload dict.  Raises :class:`CheckpointError` on
    version mismatch, hash mismatch, or (when ``fingerprint`` is given)
    a trace-fingerprint mismatch.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version!r},"
            f" expected {CHECKPOINT_VERSION}"
        )
    if payload.get("state_hash") != _state_hash(payload.get("state", {})):
        raise CheckpointError(f"checkpoint {path} failed its state hash")
    if fingerprint is not None and payload.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"checkpoint {path} pins trace {payload.get('fingerprint')!r}"
            f" but the service is replaying {fingerprint!r}"
        )
    return payload
