"""Rate-limit firewall modelled on DDoS-deflate.

DDoS-deflate — the tool the paper uses as its representative perimeter
defence — periodically polls ``netstat``, counts connections per source
IP, and bans any source whose count exceeds a configured threshold
(default 150) for a fixed ban period.  Two properties of that design
are load-bearing for the paper:

* **the polling lag**: traffic flows freely until the first poll fires,
  which is why Fig. 10 shows power spikes *before* the dotted
  (firewalled) CDFs flatten; and
* **per-source accounting**: an attacker who spreads the same aggregate
  rate across many agents never trips the threshold — the evasion that
  defines the DOPE region (Fig. 11).

:class:`RateLimitFirewall` reproduces both with a window counter per
source and an explicit poll event driven by the simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Set

from .._validation import check_positive
from ..sim.engine import EventEngine
from ..sim.events import PRIORITY_MONITOR

__all__ = [
    "FirewallStats",
    "RateLimitFirewall",
    "NullFirewall",
]


@dataclass
class FirewallStats:
    """Counters exposed for analysis and the Fig. 10/11 benches."""

    polls: int = 0
    admitted: int = 0
    rejected: int = 0
    bans: int = 0
    first_detection_time_s: Optional[float] = None


class RateLimitFirewall:
    """Per-source threshold firewall with periodic polling.

    Parameters
    ----------
    threshold_rps:
        Ban a source whose observed rate over the last poll window
        exceeds this many requests/second (deflate default: 150).
    poll_interval_s:
        Seconds between netstat polls.  Requests arriving before the
        first poll are never examined — the "initiating delay".
    ban_duration_s:
        How long a banned source stays blocked (deflate default 600 s).
    """

    def __init__(
        self,
        threshold_rps: float = 150.0,
        poll_interval_s: float = 10.0,
        ban_duration_s: float = 600.0,
    ) -> None:
        check_positive("threshold_rps", threshold_rps)
        check_positive("poll_interval_s", poll_interval_s)
        check_positive("ban_duration_s", ban_duration_s)
        self.threshold_rps = float(threshold_rps)
        self.poll_interval_s = float(poll_interval_s)
        self.ban_duration_s = float(ban_duration_s)
        self._window_counts: Dict[int, int] = {}
        self._banned_until: Dict[int, float] = {}
        self.stats = FirewallStats()
        self._stop_poll: Optional[Callable[[], None]] = None
        self._now: Callable[[], float] = lambda: 0.0

    # ------------------------------------------------------------------
    # Engine wiring
    # ------------------------------------------------------------------
    def attach(self, engine: EventEngine) -> None:
        """Start the periodic poll on *engine* (idempotent per firewall)."""
        if self._stop_poll is not None:
            raise RuntimeError("firewall already attached to an engine")
        self._now = lambda: engine.now
        self._stop_poll = engine.every(
            self.poll_interval_s, self.poll, priority=PRIORITY_MONITOR
        )

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def admit(self, source_id: int, now: Optional[float] = None) -> bool:
        """Admission check for one request from *source_id*.

        Counts the request toward the source's current window and
        returns ``False`` when the source is currently banned.
        """
        t = self._now() if now is None else now
        until = self._banned_until.get(source_id)
        if until is not None:
            if t < until:
                self.stats.rejected += 1
                return False
            del self._banned_until[source_id]
        self._window_counts[source_id] = self._window_counts.get(source_id, 0) + 1
        self.stats.admitted += 1
        return True

    def poll(self) -> None:
        """One netstat sweep: ban every source above threshold, reset window."""
        t = self._now()
        self.stats.polls += 1
        limit = self.threshold_rps * self.poll_interval_s
        for source_id, count in self._window_counts.items():
            if count > limit:
                self._banned_until[source_id] = t + self.ban_duration_s
                self.stats.bans += 1
                if self.stats.first_detection_time_s is None:
                    self.stats.first_detection_time_s = t
        self._window_counts.clear()

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def ban_horizon(
        self, source_ids: Iterable[int], now: Optional[float] = None
    ) -> Optional[float]:
        """Earliest ban expiry among *source_ids*, if all are banned.

        Returns the time until which **every** given source is
        guaranteed to be rejected at admission, or ``None`` when any of
        them is currently admissible (or *source_ids* is empty).  The
        fluid-mode drain uses this as its proof of steadiness: up to
        the horizon, arrivals from the pool deterministically take the
        firewall-drop path.
        """
        banned_until = self._banned_until
        if not banned_until:
            return None
        t = self._now() if now is None else now
        horizon: Optional[float] = None
        for source_id in source_ids:
            until = banned_until.get(source_id)
            if until is None or until <= t:
                return None
            if horizon is None or until < horizon:
                horizon = until
        return horizon

    def record_bulk_rejections(self, count: int) -> None:
        """Account *count* pre-aggregated rejections (fluid-drain path).

        Banned-source rejections do not touch window counts, so a bulk
        rejection is pure stats bookkeeping — identical in effect to
        *count* individual :meth:`admit` calls against banned sources.
        """
        self.stats.rejected += count

    def banned_sources(self, now: Optional[float] = None) -> Set[int]:
        """Set of sources blocked at *now*."""
        t = self._now() if now is None else now
        return {s for s, until in self._banned_until.items() if t < until}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RateLimitFirewall(threshold={self.threshold_rps:.0f}rps, "
            f"poll={self.poll_interval_s:.0f}s, bans={self.stats.bans})"
        )


class NullFirewall(RateLimitFirewall):
    """A firewall that admits everything — the 'without firewall' arm."""

    def __init__(self) -> None:
        super().__init__(threshold_rps=1e12, poll_interval_s=1e9)

    def attach(self, engine: EventEngine) -> None:
        """Bind the clock without starting any polling."""
        self._now = lambda: engine.now

    def admit(self, source_id: int, now: Optional[float] = None) -> bool:
        """Admit unconditionally."""
        self.stats.admitted += 1
        return True
