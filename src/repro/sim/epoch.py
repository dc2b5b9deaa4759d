"""The routing epoch: a network's counter of forwarding-state changes.

The cohort walker's transit memo — per-(node, destination) route
resolutions and the chain segments built from them — lives on the
:class:`repro.sim.network.Network` and is shared by every walk for as
long as the state it was derived from is unchanged.  Each network owns
one :class:`RoutingEpoch`, hands it to its routers and links, and
every mutation point of that state advances it:

- :meth:`repro.sim.router.Router._invalidate_lookup_state` (route
  table and override-set changes);
- :meth:`repro.sim.network.Network.add_node` and
  :meth:`repro.sim.network.Network.index_interface` (which node owns
  an address);
- any assignment to a :class:`repro.sim.link.Link`'s ``up``,
  ``loss_rate`` or ``delay``.

The network drops its memo whenever the epoch it was built under is
no longer current.
"""

from __future__ import annotations


class RoutingEpoch:
    """A counter advanced by every change to a network's forwarding state."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def advance(self) -> None:
        """Record a forwarding-state change: the transit memo goes stale."""
        self.value += 1
