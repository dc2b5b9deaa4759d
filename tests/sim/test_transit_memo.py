"""The transit memo outlives the walk, but never the state behind it.

The batched walker's (node, destination) resolutions and chain segments
live on the :class:`Network` and are shared by every walk while the
routing epoch holds.  Each test here warms the memo with one
``submit_cohort`` walk, mutates the network, walks the same probes
again, and requires the second walk to equal the same walk on a fresh
network carrying the same mutation.  IP Identification (and with it
the IP header checksum) is masked: the warm network's routers already
spent IP-ID values on the first walk's responses.
"""

from repro.net.inet import Prefix
from repro.sim.router import RouteEntry, TimedOverride

from tests.sim.helpers import chain_network, udp_probe
from tests.sim.test_fastwalk import masked_snapshot

#: Outside every chain address but inside D's /16: routed to D, owned
#: by nobody until the new-interface mutation claims it.
UNOWNED = "10.9.5.5"


def probes(s, dst="10.9.0.1"):
    """One classic UDP probe per TTL, deep enough to reach D."""
    return [udp_probe(s.address, dst, ttl, dport=33435 + ttl)
            for ttl in range(1, 6)]


def walk_after(mutate, dst="10.9.0.1", advance=0.0, install=None):
    """(first walk, second walk on the warm network, fresh reference).

    ``install(net, s, r1, r2, d)`` runs before the first walk on the
    warm network and before the only walk on the fresh one;
    ``mutate(...)`` runs between the two warm walks and likewise before
    the fresh walk; the clock then moves by ``advance`` seconds on both.
    """
    warm, s, r1, r2, d = chain_network()
    if install is not None:
        install(warm, s, r1, r2, d)
    first = warm.submit_cohort(probes(s, dst), s)
    mutate(warm, s, r1, r2, d)
    warm.clock.advance(advance)
    second = warm.submit_cohort(probes(s, dst), s)

    fresh, fs, fr1, fr2, fd = chain_network()
    if install is not None:
        install(fresh, fs, fr1, fr2, fd)
    mutate(fresh, fs, fr1, fr2, fd)
    fresh.clock.advance(advance)
    reference = fresh.submit_cohort(probes(fs, dst), fs)
    return first, second, reference


def bounce_back_later(net, s, r1, r2, d):
    """From 5 s on, R2 sends D's /24 back toward R1 (a forwarding loop)."""
    prefix = Prefix("10.9.0.0/24")
    r2.add_override(TimedOverride(
        prefix=prefix,
        entry=RouteEntry(prefix=prefix, egresses=[r2.interfaces[0]]),
        start=net.clock.now + 5.0))


def no_change(*nodes):
    """A mutation hook that changes nothing."""


def delivered_to(result, node_name):
    return sorted(d.elapsed for d in result.deliveries
                  if d.node.name == node_name)


class TestMemoOutlivesWalk:
    def test_memo_shared_while_epoch_holds(self):
        net, s, *_ = chain_network()
        memo = net.transit_memo()
        net.submit_cohort(probes(s), s)
        assert net.transit_memo() is memo
        assert memo, "the first walk did not warm the shared memo"

    def test_epoch_change_drops_memo(self):
        net, s, *_ = chain_network()
        net.submit_cohort(probes(s), s)
        warm = net.transit_memo()
        net.routing_epoch.advance()
        assert net.transit_memo() is not warm
        assert net.transit_memo() == {}

    def test_repeat_walk_identical(self):
        first, second, __ = walk_after(no_change)
        assert masked_snapshot(second) == masked_snapshot(first)


class TestStaleMemoRegression:
    def test_link_down(self):
        def mutate(net, *nodes):
            net.links[1].up = False

        first, second, reference = walk_after(mutate)
        assert delivered_to(first, "S")
        assert masked_snapshot(second) == masked_snapshot(reference)
        assert masked_snapshot(second) != masked_snapshot(first)
        assert any("lost on link" in drop.reason for drop in second.drops)

    def test_loss_rate_one(self):
        def mutate(net, *nodes):
            net.links[1].loss_rate = 1.0

        first, second, reference = walk_after(mutate)
        assert masked_snapshot(second) == masked_snapshot(reference)
        assert masked_snapshot(second) != masked_snapshot(first)

    def test_delay_change_moves_rtt(self):
        def mutate(net, *nodes):
            net.links[1].delay = 0.050

        first, second, reference = walk_after(mutate)
        assert masked_snapshot(second) == masked_snapshot(reference)
        assert max(delivered_to(second, "S")) > max(delivered_to(first, "S"))

    def test_add_route(self):
        def mutate(net, s, r1, r2, d):
            # A more specific route bouncing D's traffic back to R1: a
            # forwarding loop until the TTL dies.
            r2.add_route("10.9.0.0/24", r2.interfaces[0])

        first, second, reference = walk_after(mutate)
        assert masked_snapshot(second) == masked_snapshot(reference)
        assert masked_snapshot(second) != masked_snapshot(first)

    def test_override_activating_later(self):
        # Installed between the walks, active only once the clock passes
        # its start.
        first, second, reference = walk_after(bounce_back_later,
                                              advance=10.0)
        assert masked_snapshot(second) == masked_snapshot(reference)
        assert masked_snapshot(second) != masked_snapshot(first)

    def test_override_installed_before_warm_walk(self):
        # No epoch change marks the instant the override activates, so
        # while one is installed the memo must not be shared at all.
        first, second, reference = walk_after(
            no_change, advance=10.0, install=bounce_back_later)
        assert masked_snapshot(second) == masked_snapshot(reference)
        assert masked_snapshot(second) != masked_snapshot(first)

    def test_new_interface(self):
        def mutate(net, s, r1, r2, d):
            net.index_interface(r2.add_interface(UNOWNED))

        first, second, reference = walk_after(mutate, dst=UNOWNED)
        assert masked_snapshot(second) == masked_snapshot(reference)
        assert masked_snapshot(second) != masked_snapshot(first)
