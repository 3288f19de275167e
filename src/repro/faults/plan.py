"""Deterministic fault plans.

A :class:`FaultPlan` is the *schedule* half of the chaos layer: a typed,
seeded list of :class:`FaultEvent` saying what breaks, when, for how
long.  Plans are pure data — building one touches no simulator state —
so the same plan can be armed against any simulation, compared across
schemes, serialised into chaos payloads, and hashed for byte-identity
tests (:meth:`FaultPlan.signature`).  Chain the builder methods
(:meth:`~FaultPlan.server_crash`, :meth:`~FaultPlan.meter_noise`, …) to
script a scenario.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List

from .._validation import (
    check_fraction,
    check_int,
    check_non_negative,
    check_positive,
)

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
]


class FaultKind(enum.Enum):
    """The typed faults the injector knows how to apply."""

    SERVER_CRASH = "server_crash"
    PDU_TRIP = "pdu_trip"
    METER_DROPOUT = "meter_dropout"
    METER_STALE = "meter_stale"
    METER_NOISE = "meter_noise"
    BATTERY_FADE = "battery_fade"
    BATTERY_STUCK = "battery_stuck"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` is a server index for server-scoped kinds and ``-1`` for
    rack/infrastructure-wide ones; ``params`` carries the kind-specific
    knobs (durations, noise levels, fade fractions).  ``node`` scopes a
    PDU trip to one power-tree node (``"rack0"``, ``"row1"``); the empty
    string keeps the legacy whole-fleet trip.
    """

    time_s: float
    kind: FaultKind
    target: int = -1
    params: Dict[str, float] = field(default_factory=dict)
    node: str = ""

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (kind reduced to its string value).

        ``node`` serialises only when set, so plans written before the
        topology layer keep their exact signatures.
        """
        out: Dict[str, object] = {
            "time_s": self.time_s,
            "kind": self.kind.value,
            "target": self.target,
            "params": dict(sorted(self.params.items())),
        }
        if self.node:
            out["node"] = self.node
        return out


@dataclass
class FaultPlan:
    """A seeded, ordered fault schedule.

    Parameters
    ----------
    seed:
        Master seed of the plan.  It keys the injector's
        measurement-noise stream, so one integer pins every random
        aspect of a chaos run.
    events:
        The schedule; builder methods append and return ``self`` for
        chaining.
    """

    seed: int = 0
    events: List[FaultEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        check_int("seed", self.seed, minimum=0)

    # ------------------------------------------------------------------
    # Builders (chainable)
    # ------------------------------------------------------------------
    def server_crash(
        self, time_s: float, server_id: int, duration_s: float
    ) -> "FaultPlan":
        """Crash one server at *time_s*; it recovers after *duration_s*."""
        check_non_negative("time_s", time_s)
        check_int("server_id", server_id, minimum=0)
        check_positive("duration_s", duration_s)
        self.events.append(
            FaultEvent(
                time_s=time_s,
                kind=FaultKind.SERVER_CRASH,
                target=server_id,
                params={"duration_s": duration_s},
            )
        )
        return self

    def pdu_trip(
        self, time_s: float, duration_s: float, node: str = ""
    ) -> "FaultPlan":
        """Trip a branch circuit: its whole subtree fails at once.

        With the default empty *node* every server fails (the flat
        model's single PDU).  Against a power tree, *node* names the
        tripped PDU — ``"rack2"``, ``"row0"`` or ``"feed"`` — and the
        cascade takes down exactly that subtree: a row trip fails all of
        its racks' servers while the other rows keep serving.
        """
        check_non_negative("time_s", time_s)
        check_positive("duration_s", duration_s)
        self.events.append(
            FaultEvent(
                time_s=time_s,
                kind=FaultKind.PDU_TRIP,
                params={"duration_s": duration_s},
                node=node,
            )
        )
        return self

    def meter_dropout(self, time_s: float, duration_s: float) -> "FaultPlan":
        """Power meter returns nothing for *duration_s* seconds."""
        check_non_negative("time_s", time_s)
        check_positive("duration_s", duration_s)
        self.events.append(
            FaultEvent(
                time_s=time_s,
                kind=FaultKind.METER_DROPOUT,
                params={"duration_s": duration_s},
            )
        )
        return self

    def meter_stale(self, time_s: float, duration_s: float) -> "FaultPlan":
        """Power meter repeats its *time_s* reading for *duration_s*."""
        check_non_negative("time_s", time_s)
        check_positive("duration_s", duration_s)
        self.events.append(
            FaultEvent(
                time_s=time_s,
                kind=FaultKind.METER_STALE,
                params={"duration_s": duration_s},
            )
        )
        return self

    def meter_noise(
        self, time_s: float, sigma_w: float, bias_w: float = 0.0
    ) -> "FaultPlan":
        """From *time_s* on, add Gaussian noise/bias to meter reads."""
        check_non_negative("time_s", time_s)
        check_non_negative("sigma_w", sigma_w)
        self.events.append(
            FaultEvent(
                time_s=time_s,
                kind=FaultKind.METER_NOISE,
                params={"sigma_w": sigma_w, "bias_w": bias_w},
            )
        )
        return self

    def battery_fade(self, time_s: float, fraction: float) -> "FaultPlan":
        """Scale battery capacity by *fraction* at *time_s*."""
        check_non_negative("time_s", time_s)
        check_positive("fraction", fraction)
        check_fraction("fraction", fraction)
        self.events.append(
            FaultEvent(
                time_s=time_s,
                kind=FaultKind.BATTERY_FADE,
                params={"fraction": fraction},
            )
        )
        return self

    def battery_stuck(self, time_s: float, duration_s: float) -> "FaultPlan":
        """Freeze the battery at its SoC for *duration_s* seconds."""
        check_non_negative("time_s", time_s)
        check_positive("duration_s", duration_s)
        self.events.append(
            FaultEvent(
                time_s=time_s,
                kind=FaultKind.BATTERY_STUCK,
                params={"duration_s": duration_s},
            )
        )
        return self

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form of the whole plan."""
        return {
            "seed": self.seed,
            "events": [event.to_dict() for event in self.events],
        }

    def signature(self) -> str:
        """Canonical JSON of the plan — the byte-identity test anchor."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = [event.kind.value for event in self.events]
        return f"FaultPlan(seed={self.seed}, events={kinds})"
