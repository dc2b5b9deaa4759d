"""Point-to-point links between interfaces.

Links carry delay (which accumulates into round-trip times) and an
optional loss rate (probes or responses vanishing in transit, which
traceroute renders as stars).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.epoch import RoutingEpoch
    from repro.sim.node import Interface


#: Link attributes transit memos are derived from.
_ROUTING_FIELDS = frozenset(("up", "loss_rate", "delay"))


@dataclass(init=False)
class Link:
    """An undirected link joining exactly two interfaces.

    ``delay`` is the one-way propagation delay in seconds; ``loss_rate``
    the independent per-packet drop probability.  A link can be taken
    administratively ``down`` by dynamics events.  Assigning any of the
    three advances ``routing_epoch`` (the owning network's, set by
    :meth:`repro.sim.network.Network.link`), so no transit memo
    outlives the state it was derived from.
    """

    a: "Interface"
    b: "Interface"
    delay: float = 0.001
    loss_rate: float = 0.0
    loss_seed: int = 0
    up: bool = True
    routing_epoch: Optional["RoutingEpoch"] = field(
        default=None, repr=False, compare=False)
    _loss_rng: random.Random = field(repr=False, compare=False,
                                     default=None)

    def __init__(self, a: "Interface", b: "Interface", delay: float = 0.001,
                 loss_rate: float = 0.0, loss_seed: int = 0, up: bool = True,
                 routing_epoch: Optional["RoutingEpoch"] = None) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0,1]: {loss_rate}")
        if delay < 0:
            raise ValueError(f"delay must be non-negative: {delay}")
        # Filled directly, not through __setattr__: a new link changes
        # no state anyone has memoised yet, and topology set-up builds
        # links by the hundred.
        self.__dict__.update(
            a=a, b=b, delay=delay, loss_rate=loss_rate, loss_seed=loss_seed,
            up=up, routing_epoch=routing_epoch,
            _loss_rng=random.Random(loss_seed))

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _ROUTING_FIELDS and self.routing_epoch is not None:
            self.routing_epoch.advance()

    def peer_of(self, interface: "Interface") -> "Interface":
        """The interface at the other end of the link."""
        if interface is self.a:
            return self.b
        if interface is self.b:
            return self.a
        raise ValueError(f"{interface!r} is not attached to this link")

    def drops_packet(self) -> bool:
        """Draw one loss decision for a traversal."""
        if not self.up:
            return True
        if self.loss_rate <= 0.0:
            return False
        return self._loss_rng.random() < self.loss_rate

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"Link({self.a.label} <-> {self.b.label}, {state})"
