"""Campaign checkpoints: atomic, schema-versioned restart recipes.

A checkpoint is a small JSON document recording what one campaign was
asked to do (``command`` — enough to reconstruct the scenario list).
The CLI writes it once, after the scenario list is built and before
the first task runs, so a campaign killed at any instant can be
resumed: ``repro sweep --resume <checkpoint>`` (or ``repro figures
--resume``) replays the same campaign, and every cell that finished
before the kill comes straight out of the content-addressed cache —
zero recomputation, byte-identical artifacts.  The cache, not the
checkpoint, records which cells are done.

Writes are atomic (per-writer tmp name + rename) like cache entries,
so a kill mid-write leaves no torn checkpoint.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, Mapping

CHECKPOINT_SCHEMA = "repro-checkpoint/1"


class CheckpointError(ValueError):
    """An unreadable or foreign checkpoint file."""


class CampaignCheckpoint:
    """The restart recipe of one campaign."""

    def __init__(self, path: os.PathLike, command: Mapping[str, object]):
        self.path = Path(path)
        #: How to re-run this campaign: ``{"kind": "sweep"|"figures"|
        #: "faults-fuzz", ...}`` with the spec document / figure names /
        #: fuzz count and seed inline.
        self.command: Dict[str, object] = dict(command)

    def save(self) -> None:
        """Atomic write: tmp (pid+tid suffix) + rename."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(
            f"{self.path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            with open(tmp, "w") as handle:
                json.dump({"schema": CHECKPOINT_SCHEMA,
                           "command": self.command},
                          handle, sort_keys=True, indent=1)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @classmethod
    def load(cls, path: os.PathLike) -> "CampaignCheckpoint":
        """Read a checkpoint back.  Fields other than ``schema`` and
        ``command`` (older checkpoints also carry ``total``,
        ``completed`` and ``failed``) are ignored."""
        path = Path(path)
        try:
            with open(path) as handle:
                document = json.load(handle)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}")
        except ValueError as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: "
                                  f"{exc}")
        if (not isinstance(document, dict)
                or document.get("schema") != CHECKPOINT_SCHEMA):
            raise CheckpointError(
                f"checkpoint {path} has schema "
                f"{document.get('schema') if isinstance(document, dict) else None!r}; "
                f"this build reads {CHECKPOINT_SCHEMA!r}")
        command = document.get("command")
        if not isinstance(command, dict) or "kind" not in command:
            raise CheckpointError(f"checkpoint {path} carries no "
                                  "command record")
        return cls(path, command)
