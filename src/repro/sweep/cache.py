"""The content-addressed result cache.

A run is a pure function of (scenario, cost model) — the simulator is
deterministic per seed, and the seed is a scenario field.  So results
are cached under a content key::

    key = sha256(canonical_json({"scenario": ...,  # Scenario.to_dict()
                                 "costs": ...,     # CostModel as dict
                                 "schema": ...}))  # result schema tag

and a warm rerun of any campaign executes zero simulations.  The schema
tag (:data:`repro.core.experiment.RESULT_SCHEMA`) is folded into the
key rather than checked on read: when the result layout changes, stale
entries become unreachable instead of half-parseable.

Layout on disk: ``<root>/<key[:2]>/<key>.json``, one self-describing
file per entry (the scenario and costs ride along with the result, so
a cache directory doubles as a browsable record of every configuration
ever simulated).  Writes are crash-safe: the entry is written to a
per-writer tmp name (pid + thread id, so concurrent sweeps sharing
``$REPRO_CACHE_DIR`` never interleave), fsynced, then atomically
renamed into place.  Reads verify a sha256 checksum and byte length of
the result payload; an entry that fails verification — truncated by a
power loss, bit-flipped by a bad disk — is *quarantined* under
``<root>/corrupt/`` (counted in :attr:`ResultCache.corruption`) and
reported as a miss, so the engine transparently re-simulates instead
of crashing or, worse, trusting a poisoned result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.core.costs import CostModel
from repro.core.experiment import RESULT_SCHEMA

#: Version tag for the cache *entry* layout (the envelope around the
#: result).  Unknown envelopes are treated as misses, never errors.
#: /2 added the sha256/length verification footer; /1 entries predate
#: it, cannot be verified, and read as plain misses (not corruption).
ENTRY_SCHEMA = "repro-cache-entry/2"

#: How long (seconds since last mtime) an orphaned tmp file whose
#: writer pid cannot be determined must sit before the stale sweep
#: removes it.
_STALE_TMP_AGE = 3600.0

def default_cache_dir() -> str:
    """The cache root, resolving ``$REPRO_CACHE_DIR`` at *call* time.

    Construction-time resolution matters: sweep pool workers and
    monkeypatched tests set the variable after ``repro`` is imported,
    and an import-time snapshot would silently ignore them.
    """
    return os.environ.get("REPRO_CACHE_DIR", ".repro-cache")


def canonical_json(obj: object) -> str:
    """The one JSON encoding used for hashing and artifacts.

    Sorted keys, no whitespace, NaN/Infinity rejected: two processes
    serializing the same value must produce the same bytes.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def costs_to_dict(costs: Optional[CostModel]) -> Dict[str, object]:
    """The cost model as the plain dict the cache key hashes."""
    return dataclasses.asdict(costs if costs is not None else CostModel())


def job_key(scenario_dict: Mapping[str, object],
            costs_dict: Mapping[str, object]) -> str:
    """The content address of one (scenario, cost model) job."""
    payload = {"scenario": dict(scenario_dict), "costs": dict(costs_dict),
               "schema": RESULT_SCHEMA}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def _writer_pid(name: str) -> Optional[int]:
    """The pid embedded in a ``<key>.tmp.<pid>[.<tid>]`` name, if any."""
    _, _, rest = name.partition(".tmp.")
    pid_text = rest.split(".", 1)[0]
    try:
        return int(pid_text)
    except ValueError:
        return None


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True  # exists but owned elsewhere (or unprobeable): keep
    return True


class ResultCache:
    """On-disk store of run results, addressed by :func:`job_key`."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root if root is not None else default_cache_dir())
        self.root.mkdir(parents=True, exist_ok=True)
        #: Entries that failed checksum/length verification and were
        #: moved to ``corrupt/`` — the ``cache.corruption`` counter.
        self.corruption = 0
        #: Quarantine destinations, in discovery order.
        self.quarantined: List[Path] = []
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove ``<key>.tmp.<pid>.<tid>`` debris left by *dead*
        writers.

        A write that died between creating its tmp file and the atomic
        rename leaves the tmp behind forever (no process retries the
        same name).  But "found at construction" does not imply
        orphaned: a concurrent sweep sharing this cache directory may
        be mid-``put`` right now, and unlinking its tmp would make its
        rename fail.  So the sweep only removes a tmp whose embedded
        writer pid is provably dead, falling back to an age gate when
        the name carries no readable pid.
        """
        for stale in self.root.glob("*/*.tmp.*"):
            pid = _writer_pid(stale.name)
            if pid is not None:
                if _pid_alive(pid):
                    continue  # live writer (possibly this process)
            else:
                try:
                    import time
                    age = time.time() - stale.stat().st_mtime
                except OSError:
                    continue  # already gone
                if age < _STALE_TMP_AGE:
                    continue
            try:
                stale.unlink()
            except OSError:
                pass  # concurrent sweep, or permissions: harmless

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def quarantine_dir(self) -> Path:
        return self.root / "corrupt"

    def _quarantine(self, path: Path) -> None:
        """Move a failed entry under ``corrupt/`` and count it.

        The move is atomic (same filesystem), so a concurrent reader
        sees either the corrupt entry (and quarantines it itself — the
        second mover just finds the file gone) or no entry at all.
        """
        self.corruption += 1
        destination = self.quarantine_dir() / path.name
        try:
            self.quarantine_dir().mkdir(parents=True, exist_ok=True)
            if destination.exists():
                destination = self.quarantine_dir() / (
                    f"{path.name}.{os.getpid()}")
            os.replace(path, destination)
            self.quarantined.append(destination)
        except OSError:
            pass  # racing quarantiner won, or permissions: still a miss

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached result dict, or None on any kind of miss.

        A foreign or older-schema file is a plain miss (the engine
        re-simulates and overwrites it).  An entry of *this* schema
        that fails JSON parsing, key match, or checksum/length
        verification is treated as corruption: quarantined under
        ``corrupt/``, counted, and reported as a miss — never raised.
        """
        path = self.path_for(key)
        try:
            with open(path) as handle:
                raw = handle.read()
        except OSError:
            return None
        try:
            entry = json.loads(raw)
        except ValueError:
            # Truncated mid-write or bit-flipped: unreadable bytes in
            # an entry slot are corruption, whatever schema they were.
            self._quarantine(path)
            return None
        if not isinstance(entry, dict) or entry.get("schema") != ENTRY_SCHEMA:
            return None  # foreign/legacy envelope: plain miss
        result = entry.get("result")
        if (entry.get("key") != key or not isinstance(result, dict)
                or not self._verify(entry, result)):
            self._quarantine(path)
            return None
        return result

    @staticmethod
    def _payload_footer(result_dict: Mapping[str, object]) -> Dict[str, object]:
        """The verification footer: sha256 + length of the canonical
        result payload."""
        payload = canonical_json(dict(result_dict)).encode()
        return {"sha256": hashlib.sha256(payload).hexdigest(),
                "length": len(payload)}

    @classmethod
    def _verify(cls, entry: Mapping[str, object],
                result: Mapping[str, object]) -> bool:
        try:
            footer = cls._payload_footer(result)
        except (TypeError, ValueError):
            return False  # non-canonicalizable payload
        return (entry.get("sha256") == footer["sha256"]
                and entry.get("length") == footer["length"])

    def put(self, key: str, scenario_dict: Mapping[str, object],
            costs_dict: Mapping[str, object],
            result_dict: Mapping[str, object]) -> Path:
        """Store one result crash-safely; returns the entry path.

        fsync before the atomic rename: after ``put`` returns, a power
        loss can lose the entry but never leave a renamed-but-empty
        file (the rename only lands after the bytes are durable).
        """
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key,
            "scenario": dict(scenario_dict),
            "costs": dict(costs_dict),
            "result": dict(result_dict),
            **self._payload_footer(result_dict),
        }
        # pid + thread id: unique per concurrent writer, including two
        # threads of one process sharing a cache root.
        tmp = path.with_suffix(
            f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            with open(tmp, "w") as handle:
                json.dump(entry, handle, sort_keys=True, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        corrupt = self.quarantine_dir()
        return sum(1 for path in self.root.glob("*/*.json")
                   if path.parent != corrupt)
