"""One serialization per probe, none per response until its bytes are read.

Probes are serialized exactly once — the Paris builder adopts the UDP
segment its checksum crafter already built, and TTL-only copies made in
transit adopt the transport memo — and responses are never serialized
on the probe engines' hot path: ``ProbeResponse.raw`` builds the wire
form on first read.  Whoever reads ``raw`` still gets real bytes: the
packet's own serialization, parseable with checksum verification on.
"""

import pytest

from repro.engine.asyncsocket import AsyncProbeSocket
from repro.measurement import Campaign, CampaignConfig
from repro.measurement.destinations import select_pingable_destinations
from repro.net.ipv4 import IPv4Header
from repro.net.packet import Packet
from repro.net.udp import UDPHeader
from repro.sim.socketapi import ProbeSocket
from repro.topology import InternetConfig, generate_internet
from repro.tracer.paris import ParisTraceroute
from repro.vantage import ReplyDemux, VantageSocket

from tests.sim.helpers import chain_network, udp_probe
from tests.vantage.test_demux import two_vantage_network


class BuildCounter:
    """Counts real IPv4 and UDP header serializations while installed."""

    def __init__(self, monkeypatch):
        self.ipv4 = 0
        self.udp = 0
        ipv4_build = IPv4Header.build
        udp_build = UDPHeader.build

        def count_ipv4(header, *args, **kwargs):
            self.ipv4 += 1
            return ipv4_build(header, *args, **kwargs)

        def count_udp(header, *args, **kwargs):
            self.udp += 1
            return udp_build(header, *args, **kwargs)

        monkeypatch.setattr(IPv4Header, "build", count_ipv4)
        monkeypatch.setattr(UDPHeader, "build", count_udp)


def assert_real_bytes(response):
    """``raw`` is the packet's wire form and parses with verification."""
    raw = response.raw
    assert raw == response.packet.build()
    reparsed = Packet.parse(raw)  # verifies the IP and ICMP checksums
    assert reparsed.build() == raw


@pytest.fixture(scope="module")
def census_world():
    """A small census-shaped internet: NAT and zero-TTL destinations,
    per-flow diamonds, no order-sensitive randomness."""
    topology = generate_internet(InternetConfig(
        seed=5, n_tier1=2, n_transit=3, n_stub=6, dests_per_stub=2,
        n_loop_stub_diamonds=2, n_cycle_stub_diamonds=1, n_nat_dests=1,
        n_zero_ttl_dests=1, response_loss_rate=0.0, p_per_packet=0.0))
    destinations = select_pingable_destinations(
        topology.network, topology.source, topology.destination_addresses,
        seed=5)
    return topology, destinations


class TestPipelinedCampaign:
    def test_one_serialization_per_probe_none_per_response(
            self, census_world, monkeypatch):
        topology, destinations = census_world
        responses = []
        poll = AsyncProbeSocket.poll

        def capture(socket, *args, **kwargs):
            polled = poll(socket, *args, **kwargs)
            responses.extend(polled)
            return polled

        monkeypatch.setattr(AsyncProbeSocket, "poll", capture)
        builds = BuildCounter(monkeypatch)
        result = Campaign(
            topology.network, topology.source, destinations,
            CampaignConfig(rounds=1, workers=8, seed=5,
                           engine="pipelined")).run()

        probes = result.probes_sent
        assert probes > 0 and responses
        # Classic and Paris UDP probes: one IP header and one UDP
        # segment each; no response was serialized.
        assert builds.ipv4 == probes
        assert builds.udp == probes
        assert not any("_wire" in response.packet.__dict__
                       for response in responses)

        # Reading raw serializes on demand, and only then.
        for response in responses:
            assert_real_bytes(response)
        assert builds.ipv4 > probes
        assert builds.udp == probes


class TestEverySocket:
    def test_blocking_socket_raw_is_what_arrived(self):
        net, s, *_ = chain_network()
        socket = ProbeSocket(net, s)
        response = socket.send_probe(
            udp_probe("10.0.0.1", "10.9.0.1", ttl=2).build())
        assert_real_bytes(response)
        # The parsed packet adopted the arrived bytes as its wire memo.
        assert response.raw is response.packet.__dict__["_wire"]

    def test_async_socket_raw_on_demand(self, monkeypatch):
        net, s, *_ = chain_network()
        socket = AsyncProbeSocket(net, s)
        for ttl in (1, 2, 3):
            socket.send_nowait(udp_probe("10.0.0.1", "10.9.0.1",
                                         ttl=ttl).build())
        socket.flush()
        net.clock.advance(1.0)
        builds = BuildCounter(monkeypatch)
        responses = socket.poll()
        assert len(responses) == 3
        assert builds.ipv4 == 0
        for response in responses:
            assert_real_bytes(response)
        assert builds.ipv4 > 0

    def test_vantage_socket_raw_on_demand(self, monkeypatch):
        network, sa, sb, dest = two_vantage_network()
        demux = ReplyDemux(network)
        sock_a = VantageSocket(network, sa, demux)
        sock_b = VantageSocket(network, sb, demux)
        for sock in (sock_a, sock_b):
            builder = ParisTraceroute(sock, seed=1).make_builder(
                dest.address)
            for ttl in (1, 2):
                sock.send_nowait(builder.build(ttl).build())
            sock.flush()
        builds = BuildCounter(monkeypatch)
        responses = sock_a.poll(until=10.0) + sock_b.poll(until=10.0)
        assert len(responses) == 4
        assert builds.ipv4 == 0
        for response in responses:
            assert_real_bytes(response)
