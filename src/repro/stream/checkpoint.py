"""Versioned, fingerprint-keyed snapshots of streaming operator state.

A checkpoint captures everything the engine needs to resume a killed run
mid-campaign: which phase was active, how many stream units it had fully
consumed, the live operator's state, and the finalized payloads of the
phases already completed.  Because stream units are deterministic and
independent (every unit draws from its own named RNG stream), replaying
the remaining units on top of a restored operator reproduces the
uninterrupted run **bit-identically**.

Keying reuses the :func:`repro.harness.engine.config_fingerprint` scheme
that the :class:`~repro.harness.engine.ArtifactCache` uses: the
fingerprint covers the platform/campaign/stream configs, the experiment
list, and :data:`CHECKPOINT_SCHEMA_VERSION`, so a checkpoint can never be
resumed against a run it does not exactly describe -- a mismatched or
corrupt snapshot reads as "no checkpoint" and the run starts over.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Sequence, Union

from repro.harness.engine import config_fingerprint
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.stream.snapshot import SnapshotStore

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "checkpoint_fingerprint",
    "CheckpointStore",
]

CHECKPOINT_SCHEMA_VERSION = 3
"""Bump when the pickled layout of operator state changes shape.

Version 3: snapshots moved to the checksummed, generation-rotated
framing of :mod:`repro.stream.snapshot` (magic + SHA-256 digest +
pickle body, with a ``.1`` previous-generation fallback); raw-pickle
version-2 files fail the magic check and read as misses.

Version 2: :class:`~repro.stream.operators.PathStatsOperator` dropped
its per-path p90 estimators (write-only state no summary ever read), so
version-1 pair-state tuples no longer unpickle into the live class.

Part of the checkpoint fingerprint surface (and, like the cache schema
version, watched by the CCH001 lint rule's fingerprint contract): old
checkpoints become unreadable misses instead of wrong resumes.
"""


def checkpoint_fingerprint(*parts: object) -> str:
    """Fingerprint of everything a resumable stream run depends on.

    Callers pass the platform config, campaign configs, stream config and
    the experiment selection; the schema version is mixed in here.
    """
    return config_fingerprint("stream-checkpoint", CHECKPOINT_SCHEMA_VERSION, *parts)


class CheckpointStore(SnapshotStore):
    """The stream run's snapshot, keyed by run fingerprint.

    File ``stream-<fingerprint>.ckpt``; save/load/recover/clear, the
    ``.1`` fallback and the ``stream.checkpoint.*`` counters are
    :class:`~repro.stream.snapshot.SnapshotStore`'s.
    """

    def __init__(self, directory: Union[str, Path], fingerprint: str) -> None:
        super().__init__(
            directory, f"stream-{fingerprint}", fingerprint,
            CHECKPOINT_SCHEMA_VERSION, "stream.checkpoint", fault_tag="stream",
        )

    def save(
        self,
        phase: str,
        units_done: int,
        operator_state: object,
        completed: Dict[str, object],
    ) -> None:
        """Snapshot the live phase's progress and all finished phases."""
        payload = {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "phase": phase,
            "units_done": int(units_done),
            "operator": operator_state,
            "completed": completed,
        }
        self.write(payload)
        obs_metrics.gauge("stream.checkpoint_units_done").set(units_done)
        obs_live.get_status().set_checkpoint(
            fingerprint=self.fingerprint,
            schema=CHECKPOINT_SCHEMA_VERSION,
            phase=phase,
            units_done=int(units_done),
        )


def required_phases(experiments: Sequence[str]) -> Dict[str, bool]:
    """Which stream phases the requested experiments need.

    Shared between the engine (phase scheduling) and the CLI (manifest
    reporting).  Localization implies the ping phase too: its probed
    pairs are the ones the ping analysis flags.
    """
    wanted = set(experiments)
    longterm = bool(wanted & {"fig3", "fig6"})
    ping = bool(wanted & {"congestion-norm", "localization"})
    segment = "localization" in wanted
    return {"longterm": longterm, "ping": ping, "segment": segment}
