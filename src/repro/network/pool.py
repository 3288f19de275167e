"""Server pools: a server set's healthy members, kept as state.

Health changes only on rare events, so the NLB rotation, the fabric's
racks and the suspect-pool carve read a list instead of scanning it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..cluster.server import Server

__all__ = ["ServerPool"]


class ServerPool:
    """Members in order, plus :attr:`alive`: the healthy members in order.

    Each member lists the pool in ``Server.pools``; ``Server.fail``,
    ``recover`` and ``set_powered`` call :meth:`refresh` when the
    member's health flips.  A refresh replaces :attr:`alive`, so
    readers re-read it per request and never mutate it.
    """

    __slots__ = ("members", "alive")

    def __init__(self, servers: Sequence["Server"]) -> None:
        self.members: Tuple["Server", ...] = ()
        self.alive: List["Server"] = []
        self.assign(servers)

    def assign(self, servers: Sequence["Server"]) -> None:
        """Replace the members with *servers* (an NLB rotation change)."""
        for server in self.members:
            server.pools.remove(self)
        self.members = tuple(servers)
        for server in self.members:
            server.pools.append(self)
        self.refresh()

    def refresh(self) -> None:
        """Re-derive :attr:`alive` after a member's health flipped."""
        self.alive = [s for s in self.members if s.healthy]
