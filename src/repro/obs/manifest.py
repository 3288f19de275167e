"""Run manifests: the machine-readable record of one run.

A :class:`RunManifest` records *what* ran (config hash, seed, package
version, name) and *what happened* (the deterministic counter table),
with the wall-clock timings carried alongside but **outside** the
deterministic hash.  The split is the layer's central invariant:

* :meth:`RunManifest.deterministic_payload` — everything two same-seed
  runs must agree on, byte for byte;
* :meth:`RunManifest.deterministic_hash` — SHA-256 of that payload's
  canonical JSON, the value regression gates compare;
* ``timings_s`` — wall-clock measurements (per-phase seconds) that vary
  run to run and machine to machine.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Union

from .._validation import check_int
from .._version import __version__
from .contract import is_execution_counter

__all__ = [
    "RunManifest",
    "config_hash",
    "deterministic_hash",
]

Number = Union[int, float]


def _canonical_json(value: object) -> str:
    """Sorted-key, compact JSON — the hashed byte form."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def deterministic_hash(payload: Mapping[str, object]) -> str:
    """SHA-256 hex digest of *payload*'s canonical JSON."""
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()


def config_hash(config_dict: Mapping[str, object]) -> str:
    """Stable fingerprint of a configuration mapping.

    Takes the JSON-ready form (:meth:`repro.sim.config.SimulationConfig.
    to_dict`) so enum members are already reduced to names.
    """
    return deterministic_hash(dict(config_dict))


@dataclass
class RunManifest:
    """Structured record of one run.

    Parameters
    ----------
    name:
        Human-readable run label (``"smoke"``, ``"fig11"``, …).
    seed:
        Master RNG seed of the run.
    config_hash:
        Fingerprint of the driving configuration (:func:`config_hash`).
    counters:
        Deterministic counter table (:meth:`~repro.obs.counters.
        Counters.as_dict`).
    timings_s:
        Wall-clock phase table (:meth:`~repro.obs.timers.WallTimers.
        as_dict`) — excluded from the deterministic hash.
    version:
        Package version that produced the run.
    """

    name: str
    seed: int
    config_hash: str
    counters: Dict[str, Number] = field(default_factory=dict)
    timings_s: Dict[str, Dict[str, float]] = field(default_factory=dict)
    version: str = __version__

    def __post_init__(self) -> None:
        check_int("seed", self.seed, minimum=0)

    def deterministic_payload(self) -> Dict[str, object]:
        """The reproducible part: identity plus counters, no wall clock.

        Execution counters (``repro.obs.contract.
        EXECUTION_COUNTER_NAMES``) are filtered out alongside the wall
        timings: like wall clock, they describe how the run was
        computed — the scalar and batched engines legitimately disagree
        on them while agreeing byte-for-byte on everything kept here.
        """
        return {
            "name": self.name,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "version": self.version,
            "counters": {
                name: value
                for name, value in self.counters.items()
                if not is_execution_counter(name)
            },
        }

    def deterministic_hash(self) -> str:
        """Hash two same-seed runs must agree on (timings excluded)."""
        return deterministic_hash(self.deterministic_payload())

    def to_dict(self) -> Dict[str, object]:
        """Full JSON-ready document (deterministic part + timings).

        Unlike :meth:`deterministic_payload`, the document keeps the
        complete counter table — execution counters are telemetry worth
        exporting even though the hash ignores them.
        """
        out = self.deterministic_payload()
        out["counters"] = dict(self.counters)
        out["timings_s"] = dict(self.timings_s)
        out["deterministic_hash"] = self.deterministic_hash()
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialise to JSON text."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunManifest":
        """Inverse of :meth:`to_dict`; verifies the embedded hash."""
        manifest = cls(
            name=str(data["name"]),
            seed=int(data["seed"]),  # type: ignore[arg-type]
            config_hash=str(data["config_hash"]),
            counters=dict(data.get("counters", {})),  # type: ignore[arg-type]
            timings_s=dict(data.get("timings_s", {})),  # type: ignore[arg-type]
            version=str(data.get("version", __version__)),
        )
        stored = data.get("deterministic_hash")
        if stored is not None and stored != manifest.deterministic_hash():
            raise ValueError(
                "manifest deterministic_hash mismatch: stored "
                f"{stored!r} != recomputed {manifest.deterministic_hash()!r}"
            )
        return manifest

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Parse a :meth:`to_json` document."""
        return cls.from_dict(json.loads(text))
