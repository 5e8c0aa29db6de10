"""Hardened snapshot files and the one store both checkpoint kinds use.

A checkpoint file that *exists* is not the same as a checkpoint file
that is *trustworthy*: a torn rename, a half-flushed page cache at
power loss, or an injected corruption must read as "recoverable", not
as a crash or -- worse -- a silently wrong resume.  The file functions
here give every snapshot the same three defenses:

* **Content checksums** -- every snapshot is framed as a magic header
  plus the SHA-256 digest of the pickled body; any bit flip or
  truncation fails the digest check and raises
  :class:`SnapshotCorrupt` instead of unpickling garbage.
* **Generation rotation** -- :func:`write_snapshot` rotates the
  current primary to a ``.1`` fallback before installing the new one,
  so a snapshot corrupted *at rest* (or torn between the two renames)
  recovers to the previous generation instead of restarting from zero.
* **Stale-temp reaping** -- writes go through ``<name>.tmp.<pid>``
  staging files that are fsynced before the atomic replace; a process
  killed between write and rename leaves its temp behind, and
  :func:`reap_stale_temps` sweeps those on store open.

:class:`SnapshotStore` is the mechanics on top: one fingerprint-keyed
file per store, fault-plane corruption on save, the ``.1`` fallback and
schema/fingerprint checks on load, and one counter per event.  The
stream engine's :class:`~repro.stream.checkpoint.CheckpointStore` and
the service's :class:`~repro.service.checkpoint.CampaignCheckpointStore`
subclass it and add only their payload and status-board update.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.faults.plane import get_plane
from repro.obs import metrics as obs_metrics
from repro.obs.log import get_logger

__all__ = [
    "FALLBACK_SUFFIX",
    "SNAPSHOT_MAGIC",
    "SnapshotCorrupt",
    "SnapshotStore",
    "corrupt_file",
    "read_snapshot",
    "reap_stale_temps",
    "temp_path",
    "write_snapshot",
]

SNAPSHOT_MAGIC = b"RPROCKPT1\n"
_DIGEST_BYTES = hashlib.sha256().digest_size

FALLBACK_SUFFIX = ".1"
"""Appended to a primary's file name for its previous-generation copy."""


class SnapshotCorrupt(Exception):
    """A snapshot file exists but fails magic, digest, or unpickle."""


def temp_path(path: Path) -> Path:
    """The staging file for an in-progress write of ``path``."""
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


def fallback_path(path: Path) -> Path:
    """The previous-generation copy kept beside ``path``."""
    return path.with_name(path.name + FALLBACK_SUFFIX)


def write_snapshot(path: Path, payload: object) -> None:
    """Atomically install a checksummed snapshot, keeping one fallback.

    Order matters: fsync the staged bytes, rotate the old primary to
    ``.1``, then rename the staged file into place.  A crash at any
    point leaves either the old primary or the ``.1`` fallback intact
    and digest-valid.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    staging = temp_path(path)
    with open(staging, "wb") as handle:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(hashlib.sha256(body).digest())
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    if path.exists():
        os.replace(path, fallback_path(path))
    os.replace(staging, path)


def read_snapshot(path: Path) -> object:
    """Verify and unpickle one snapshot file.

    Raises :class:`FileNotFoundError` when absent and
    :class:`SnapshotCorrupt` on any framing, digest, or unpickle
    failure -- the store decides whether a fallback generation can
    answer instead.
    """
    with open(path, "rb") as handle:
        blob = handle.read()
    header = len(SNAPSHOT_MAGIC) + _DIGEST_BYTES
    if len(blob) < header or not blob.startswith(SNAPSHOT_MAGIC):
        raise SnapshotCorrupt(f"bad snapshot header: {path}")
    digest = blob[len(SNAPSHOT_MAGIC):header]
    body = blob[header:]
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotCorrupt(f"snapshot digest mismatch: {path}")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise SnapshotCorrupt(f"snapshot unpickle failed: {path}: {exc}")


def reap_stale_temps(directory: Path, stem: str) -> List[Path]:
    """Remove staging files a dead process left behind.

    ``stem`` is the store's primary file name without extension (e.g.
    ``stream-<fingerprint>``); both the current ``<name>.ckpt.tmp.<pid>``
    staging names and the legacy ``<stem>.tmp.<pid>`` names (from the
    pre-hardening ``with_suffix`` bug this PR fixes) are swept.  Only
    temps whose owning pid is gone -- or unparseable -- are removed, so
    a concurrent live writer is never raced.
    """
    reaped: List[Path] = []
    if not directory.is_dir():
        return reaped
    for candidate in sorted(directory.glob(f"{stem}*.tmp.*")):
        pid = _temp_pid(candidate.name)
        if pid is not None and pid != os.getpid() and _pid_alive(pid):
            continue
        if pid == os.getpid():
            continue
        try:
            candidate.unlink()
            reaped.append(candidate)
        except FileNotFoundError:
            pass
    return reaped


def _temp_pid(name: str) -> Optional[int]:
    suffix = name.rsplit(".tmp.", 1)[-1]
    try:
        return int(suffix)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def corrupt_file(path: Path, flavor: str = "truncate") -> None:
    """Deterministically damage a snapshot file (fault injection).

    ``truncate`` chops the file to half its length (simulating a torn
    write); ``garble`` flips bits mid-body (simulating at-rest rot).
    Both defeat the digest check, which is the point.
    """
    blob = path.read_bytes()
    if flavor == "truncate":
        path.write_bytes(blob[: max(1, len(blob) // 2)])
    elif flavor == "garble":
        middle = len(blob) // 2
        damaged = bytes([blob[middle] ^ 0xFF]) if blob else b"\xff"
        path.write_bytes(blob[:middle] + damaged + blob[middle + 1:])
    else:
        raise ValueError(f"unknown corruption flavor: {flavor!r}")


class SnapshotStore:
    """Checksummed, generation-rotated snapshots of one keyed run.

    The file is ``<directory>/<stem>.ckpt``; writes go through an
    fsynced temp file and two atomic renames (see
    :func:`write_snapshot`), so a crash mid-save -- or a snapshot
    corrupted at rest -- recovers to the prior generation instead of
    aborting the resume.  Stale temp files from dead writers are reaped
    on open.

    Every event is counted as ``<metric>.<event><labels>`` --
    ``saves``, ``loads``, ``corrupt``, ``recovered``,
    ``schema_mismatch``, ``fingerprint_mismatch``, ``temps_reaped`` --
    where ``labels`` renders the store's identity (``{campaign=mesh}``
    for a campaign store, nothing for the single stream store), so a
    corrupt snapshot can always be traced to the store that wrote it.
    ``fault_tag`` names the store to the fault plane's corruption
    schedule.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        stem: str,
        fingerprint: str,
        schema: int,
        metric: str,
        fault_tag: str,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        self.directory = Path(directory)
        self.stem = stem
        self.fingerprint = fingerprint
        self.schema = schema
        self.metric = metric
        self.fault_tag = fault_tag
        self._fields = dict(labels or {})
        self._labels = "".join(
            f"{{{key}={value}}}" for key, value in self._fields.items()
        )
        self._log = get_logger(f"repro.{metric}")
        self._saves = 0
        reaped = reap_stale_temps(self.directory, stem)
        if reaped:
            self._count("temps_reaped", len(reaped))
            self._log.info(
                f"{metric}.temps_reaped",
                **self._fields,
                count=len(reaped),
                paths=",".join(p.name for p in reaped),
            )

    @property
    def path(self) -> Path:
        """Where this store's snapshot lives."""
        return self.directory / f"{self.stem}.ckpt"

    def _count(self, event: str, amount: float = 1.0) -> None:
        obs_metrics.counter(f"{self.metric}.{event}{self._labels}").inc(amount)

    def write(self, payload: Dict[str, object]) -> None:
        """Install ``payload`` as the new generation (timed and counted).

        The fault plane may corrupt the fresh primary right after the
        write; the next :meth:`load` then recovers the ``.1`` copy.
        """
        started = time.perf_counter()
        write_snapshot(self.path, payload)
        plane = get_plane()
        if plane is not None and plane.corrupt(self.fault_tag, self._saves):
            obs_metrics.counter("faults.injected").inc()
            obs_metrics.counter("faults.injected{kind=corrupt}").inc()
            self._log.warning(
                "faults.injected", kind="corrupt", store=self.fault_tag,
                save=self._saves,
            )
            corrupt_file(self.path)
        self._saves += 1
        elapsed = time.perf_counter() - started
        self._count("saves")
        obs_metrics.histogram(f"{self.metric}_seconds").observe(elapsed)
        self._log.debug(
            f"{self.metric}.saved",
            **self._fields,
            units_done=payload.get("units_done"),
            seconds=round(elapsed, 6),
        )

    def load(self) -> Optional[Dict[str, object]]:
        """The snapshot, or ``None`` when absent, corrupt, or mismatched.

        A corrupt or torn primary falls back to the previous generation
        (``.1``): recovery to a slightly older resume point beats
        restarting from zero, and replaying the extra units is
        bit-identical anyway.
        """
        payload = None
        primary_corrupt = False
        try:
            payload = read_snapshot(self.path)
        except FileNotFoundError:
            pass
        except SnapshotCorrupt:
            primary_corrupt = True
            self._count("corrupt")
            self._log.warning(
                f"{self.metric}.corrupt", **self._fields, path=str(self.path)
            )
        if payload is None:
            fallback = fallback_path(self.path)
            try:
                payload = read_snapshot(fallback)
            except FileNotFoundError:
                return None
            except SnapshotCorrupt:
                if primary_corrupt:
                    self._log.warning(
                        f"{self.metric}.fallback_corrupt",
                        **self._fields, path=str(fallback),
                    )
                return None
            self._count("recovered")
            self._log.warning(
                f"{self.metric}.recovered", **self._fields, path=str(fallback)
            )
        if not isinstance(payload, dict):
            self._count("corrupt")
            return None
        if payload.get("schema") != self.schema:
            self._count("schema_mismatch")
            self._log.warning(
                f"{self.metric}.schema_mismatch",
                **self._fields,
                found=payload.get("schema"),
                expected=self.schema,
            )
            return None
        if payload.get("fingerprint") != self.fingerprint:
            self._count("fingerprint_mismatch")
            return None
        self._count("loads")
        return payload

    def clear(self) -> None:
        """Remove the snapshot, its fallback generation, and any temps."""
        for stale in (self.path, fallback_path(self.path)):
            try:
                stale.unlink()
            except FileNotFoundError:
                pass
        reap_stale_temps(self.directory, self.stem)
