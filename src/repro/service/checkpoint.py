"""Durable campaign snapshots: one fingerprint-keyed file per campaign.

The service's durability contract in one sentence: **a killed service,
restarted against the same config, resumes every campaign from its last
checkpoint and finishes with byte-identical results.**  This module is
the payload: the campaign's cycle position plus its incremental
operator wholesale.  The mechanism -- checksummed framing, the ``.1``
previous-generation fallback, stale-temp reaping and the
``service.checkpoint.*{campaign=<name>}`` counters -- is
:class:`~repro.stream.snapshot.SnapshotStore`, shared with the stream
engine's checkpoints.

The fingerprint covers the :class:`~repro.service.config.CampaignConfig`
(and, for platform campaigns, the platform config) together with
:data:`CAMPAIGN_CHECKPOINT_SCHEMA`; any config or layout change turns
old snapshots into clean misses, never wrong resumes.  SCH010 pins the
payload's field set against ``schema_snapshot.json``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Union

from repro.harness.engine import config_fingerprint
from repro.obs import live as obs_live
from repro.stream.snapshot import SnapshotStore

__all__ = [
    "CAMPAIGN_CHECKPOINT_SCHEMA",
    "campaign_fingerprint",
    "CampaignCheckpointStore",
]

CAMPAIGN_CHECKPOINT_SCHEMA = 2
"""Bump when the pickled campaign snapshot changes shape.

Version 2: snapshots moved to the checksummed, generation-rotated
framing of :mod:`repro.stream.snapshot`, and the payload carries the
campaign's :class:`~repro.faults.completeness.DataCompleteness` state
so a resumed degraded campaign still reports its exact deficit.

Part of the checkpoint fingerprint surface (CCH001's contract): bumping
it orphans every existing snapshot as a schema mismatch instead of
letting a new service version resume state it no longer understands.
"""


def campaign_fingerprint(*parts: object) -> str:
    """Fingerprint of everything one campaign's resume depends on.

    Callers pass the campaign config and whatever the driver measures
    against (the platform config for trace/ping, nothing extra for the
    self-describing mesh); the schema version is mixed in here.
    """
    return config_fingerprint(
        "campaign-checkpoint", CAMPAIGN_CHECKPOINT_SCHEMA, *parts
    )


class CampaignCheckpointStore(SnapshotStore):
    """One campaign's snapshot: ``campaign-<name>-<fingerprint>.ckpt``.

    A :class:`~repro.stream.snapshot.SnapshotStore` whose counters carry
    the ``{campaign=<name>}`` label and whose fault-plane tag is
    ``campaign-<name>``, so several campaigns' stores stay apart.
    """

    def __init__(
        self, directory: Union[str, Path], name: str, fingerprint: str
    ) -> None:
        self.name = name
        super().__init__(
            directory, f"campaign-{name}-{fingerprint}", fingerprint,
            CAMPAIGN_CHECKPOINT_SCHEMA, "service.checkpoint",
            fault_tag=f"campaign-{name}", labels={"campaign": name},
        )

    def save(
        self,
        cycle: int,
        units_done: int,
        operator_state: object,
        results: Optional[Dict[str, object]] = None,
        completeness: Optional[Dict[str, object]] = None,
    ) -> None:
        """Snapshot the campaign mid-cycle (or finished, with results).

        ``cycle`` is the cycle currently being ingested, ``units_done``
        how many of its units the operator has fully consumed;
        ``results`` is only present on the final snapshot of a finished
        campaign (the restart then re-serves them without re-ingesting).
        ``completeness`` carries the campaign's delivered/missing
        accounting so a degraded campaign's deficit survives restarts.
        """
        payload = {
            "schema": CAMPAIGN_CHECKPOINT_SCHEMA,
            "fingerprint": self.fingerprint,
            "campaign": self.name,
            "cycle": int(cycle),
            "units_done": int(units_done),
            "operator": operator_state,
            "results": results,
            "completeness": completeness,
        }
        self.write(payload)
        obs_live.get_status().set_campaign(
            self.name,
            fingerprint=self.fingerprint,
            cycle=int(cycle),
            units_done=int(units_done),
        )
