"""Crash-consistent checkpoints for the matching service.

Format: one JSON file per snapshot, ``checkpoint-<seq:08d>.json``, where
``seq`` is the trace cursor (number of events applied).  Each file is
self-describing::

    {
      "fingerprint": "ab12…",      # pins the run that wrote it
      "seq": 120,
      "state": { … },              # MatchingService.snapshot()
      "state_hash": "…64 hex…",    # sha256 of the state's bytes
      "version": 5
    }

The state is stored in canonical compact form,
``json.dumps(state, sort_keys=True, separators=(",", ":"))``, and
``state_hash`` covers exactly those bytes: the writer encodes the state
once, hashes the encoding and writes it verbatim.  The loader
re-serialises the parsed state canonically before it checks the hash,
so a state stored in any other JSON layout (older writers used a
spaced ``json.dumps(payload, sort_keys=True)``) verifies all the same.

The writer does not format the whole state again on every write.
:class:`FrozenRecord` and :class:`FrozenList` are read-only ``dict`` /
``list`` values that cache their canonical text; the service keeps one
of each per live peer until an event touches that peer.  The encoder
splices those texts into the state's top-level ``peers`` list and
``adjacency`` dict, so a write formats only what changed since the
previous one.  The bytes are the same as a whole-state ``json.dumps``.

File names carry ``seq`` as ``%08d``, so seqs past 99,999,999 take more
digits; files are ordered, and pruned, by the integer ``seq``.

Crash consistency comes from the classic write-to-temp + ``os.replace``
dance (the same idiom as :func:`repro.telemetry.sink.write_jsonl` and
the grid store): a checkpoint either exists completely or not at all as
far as any reader is concerned.  A process killed mid-write leaves at
worst a ``.tmp`` turd that :func:`latest_checkpoint` ignores; a file
torn or garbled by the filesystem (a crashed host) fails UTF-8
decoding, JSON parsing or the hash check and is likewise skipped,
falling back to the previous intact checkpoint.

Restores are paranoid: the version must match, the fingerprint must
match (a service can never resume one run and silently replay a
different one), and the state hash must match the re-serialised state.
Version 3 dropped the derived eq.-9 weight cache from the state (a
restore rebuilds it); version 4 dropped the deferred-repair debt and
its counter, since every repair now runs to the LIC fixpoint; version
5 dropped the partners, which a restore re-solves.  Files of earlier
versions are refused, so a version-3 file whose partners a deferred
repair left short of LIC is never resumed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

__all__ = [
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "FrozenList",
    "FrozenRecord",
    "latest_checkpoint",
    "load_checkpoint",
    "write_checkpoint",
]

CHECKPOINT_VERSION = 5

#: the names the writer produces: ``%08d`` of the seq, which has no
#: leading zero once the seq needs more than 8 digits
_NAME_RE = re.compile(r"^checkpoint-(\d{8}|[1-9]\d{8,})\.json$")

#: ``json.dumps(..., sort_keys=True, separators=(",", ":"))`` builds a
#: new encoder per call; this one is shared
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be used (corrupt, or a mismatch)."""


def _read_only(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is read-only")


class _Frozen:
    """A read-only JSON container that caches its canonical text.

    Built like the ``dict`` or ``list`` it derives from; the text is
    encoded the first time it is asked for, so a value nested in another
    frozen value, whose text the outer one covers, never pays for its own.
    """

    __slots__ = ()

    @property
    def text(self) -> str:
        """The canonical JSON text."""
        try:
            return self._text
        except AttributeError:
            text = _ENCODER.encode(self)
            object.__setattr__(self, "_text", text)
            return text

    __setattr__ = __delattr__ = __setitem__ = __delitem__ = _read_only


class FrozenRecord(_Frozen, dict):
    """A read-only JSON object; equal to the ``dict`` it was built from."""

    __slots__ = ("_text",)

    def __reduce__(self):
        return type(self), (dict(self),)

    clear = pop = popitem = setdefault = update = __ior__ = _read_only


class FrozenList(_Frozen, list):
    """A read-only JSON array; equal to the ``list`` it was built from."""

    __slots__ = ("_text",)

    def __reduce__(self):
        return type(self), (list(self),)

    append = extend = insert = pop = remove = clear = sort = reverse = _read_only
    __iadd__ = __imul__ = _read_only


def _value_text(value) -> str:
    """Canonical text of one value, joining the texts of frozen items."""
    if isinstance(value, _Frozen):
        return value.text
    if isinstance(value, list) and all(isinstance(v, _Frozen) for v in value):
        return "[" + ",".join([v.text for v in value]) + "]"
    if isinstance(value, dict) and all(
        isinstance(k, str) and isinstance(v, _Frozen) for k, v in value.items()
    ):
        return "{" + ",".join(
            [encode_basestring_ascii(k) + ":" + value[k].text for k in sorted(value)]
        ) + "}"
    return _ENCODER.encode(value)


def _canonical(state: dict) -> str:
    """``json.dumps(state, sort_keys=True, separators=(",", ":"))``.

    The top-level object is built here so that its frozen values, and
    lists or ``str``-keyed dicts of them, contribute their cached text.
    A state that is not a dict, or has a non-``str`` key, is encoded
    whole: JSON sorts such keys before turning them into strings.
    """
    if not isinstance(state, dict) or not all(isinstance(k, str) for k in state):
        return _ENCODER.encode(state)
    return "{" + ",".join(
        [encode_basestring_ascii(k) + ":" + _value_text(state[k]) for k in sorted(state)]
    ) + "}"


def _state_hash(state: dict) -> str:
    return hashlib.sha256(_canonical(state).encode("utf-8")).hexdigest()


def write_checkpoint(
    directory: "str | Path",
    seq: int,
    fingerprint: str,
    state: dict,
    keep: int = 3,
) -> Path:
    """Atomically persist one snapshot; returns the final path.

    Keeps this checkpoint and the newest ``keep - 1`` older ones and
    prunes the other older ones (a resume only ever needs the latest
    intact file; the margin covers a torn write of the newest).  Newer
    checkpoints, left behind by an earlier and longer run, stay.
    """
    if seq < 0:
        raise ValueError(f"seq must be >= 0, got {seq}")
    if keep < 1:
        raise ValueError(f"keep must be >= 1, got {keep}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    canon = _canonical(state)
    digest = hashlib.sha256(canon.encode("utf-8")).hexdigest()
    final = directory / f"checkpoint-{seq:08d}.json"
    tmp = final.with_suffix(".json.tmp")
    # the envelope json.dumps(payload, sort_keys=True) would write, with
    # the hashed text in place of a second encoding of the state
    tmp.write_text(
        f'{{"fingerprint": {json.dumps(fingerprint)}, "seq": {json.dumps(seq)},'
        f' "state": {canon}, "state_hash": "{digest}", "version": {CHECKPOINT_VERSION}}}',
        encoding="utf-8",
    )
    os.replace(tmp, final)
    older = [p for s, p in _checkpoint_files(directory) if s < seq]
    for stale in older[::-1][keep - 1 :]:
        try:
            stale.unlink()
        except OSError:  # pragma: no cover - concurrent pruning race
            pass
    return final


def _checkpoint_files(directory: Path) -> list[tuple[int, Path]]:
    """``(seq, path)`` of every checkpoint file, oldest first."""
    out = []
    if directory.is_dir():
        for p in directory.iterdir():
            m = _NAME_RE.match(p.name)
            if m:
                out.append((int(m.group(1)), p))
    return sorted(out)


def _read(path: Path) -> dict:
    """The parsed envelope of one file; :class:`CheckpointError` if none."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointError(f"unreadable checkpoint {path}: not a JSON object")
    return payload


def latest_checkpoint(
    directory: "str | Path", fingerprint: Optional[str] = None
) -> Optional[Path]:
    """Newest checkpoint that parses and passes its hash; else ``None``.

    Torn or corrupt files are skipped, not fatal — that is the whole
    point of keeping more than one.  With ``fingerprint`` given, files
    that pin another run are skipped too.
    """
    for _, path in reversed(_checkpoint_files(Path(directory))):
        try:
            payload = _read(path)
        except CheckpointError:
            continue
        if "state" not in payload:
            continue
        if fingerprint is not None and payload.get("fingerprint") != fingerprint:
            continue
        if payload.get("state_hash") != _state_hash(payload["state"]):
            continue
        return path
    return None


def load_checkpoint(path: "str | Path", fingerprint: Optional[str] = None) -> dict:
    """Load and verify one checkpoint file.

    Returns the full payload dict.  Raises :class:`CheckpointError` on
    an unreadable file, version mismatch, hash mismatch, or (when
    ``fingerprint`` is given) a fingerprint mismatch.
    """
    path = Path(path)
    payload = _read(path)
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
