"""Capping: DVFS-only peak power management (Table 2, row 1).

The traditional design the paper baselines against: every control slot,
if rack power exceeds the budget, *all* servers are throttled to the
highest uniform V/F level that fits — blind to which requests caused
the peak.  That blindness is exactly what DOPE exploits: attack
requests drag every legitimate request down with them (Figs 7, 16, 17).
"""

from __future__ import annotations

from .manager import PowerManagementScheme, highest_guarded_level

__all__ = [
    "CappingScheme",
    "LocalCappingScheme",
]


class CappingScheme(PowerManagementScheme):
    """Performance-scaling-only power capping.

    Parameters
    ----------
    hysteresis:
        Raise-guard band as a fraction of the budget (prevents level
        chatter around the cap).
    """

    name = "capping"

    def step(self) -> None:
        """Throttle (or recover) every server to fit the budget."""
        self._require_bound()
        self.apply_uniform_cap(self.budget.supply_w)


class LocalCappingScheme(PowerManagementScheme):
    """Decentralised capping: each server enforces its fair share.

    Instead of one rack-level controller choosing a uniform V/F point,
    every server independently caps itself at ``budget / num_servers``.
    This is how static per-node power caps (BIOS/BMC limits) behave and
    it exhibits the classic *power fragmentation* problem the paper's
    related work discusses (Hsu et al., ASPLOS'18): headroom stranded
    on lightly loaded servers cannot help heavily loaded ones, so the
    rack under-uses its budget while hot nodes over-throttle.

    Included as a comparison arm for the fragmentation ablation; not
    one of the paper's Table-2 schemes.

    Parameters
    ----------
    hysteresis:
        Raise-guard band as a fraction of each server's share.
    """

    name = "local-capping"

    def step(self) -> None:
        """Each server independently fits under its static share.

        Levels above the server's current one must fit the guarded
        share; the current level and below need only fit the share.
        """
        self._require_bound()
        share = self.budget.supply_w / self.rack.num_servers
        guard = share * (1.0 - self.hysteresis)
        top = self.rack.ladder.max_level
        for server in self.rack.servers:
            target = highest_guarded_level(
                server.power_at_level, share, guard, top, server.level
            )
            server.set_level(0 if target is None else target)
