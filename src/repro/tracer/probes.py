"""Per-tool probe construction: who varies which header field.

Each builder produces the probe stream of one tool for one trace, and
knows how to recognize its own probes inside responses (delegating to
:mod:`repro.tracer.matching`).  The builders implement, literally, the
paper's Fig. 2:

- :class:`ClassicUdpBuilder` — Destination Port starts at 33,435 and
  increments per probe; Source Port is PID + 32,768 (NetBSD 1.4a5
  defaults the paper's campaign uses).  The varying port changes the
  flow identifier — the root cause of the anomalies.
- :class:`ClassicIcmpBuilder` — Sequence Number increments per probe;
  the Checksum follows it, and the checksum sits in the hashed first
  four octets, so the flow identifier changes again.
- :class:`TcpTracerouteBuilder` — Toren's tcptraceroute: constant TCP
  ports (destination 80 to emulate web traffic), probes tagged via the
  IP Identification field.  Flow identifier constant (but see the
  paper: nobody had examined that property before).
- :class:`ParisUdpBuilder` — constant five-tuple; probes tagged via the
  UDP **Checksum**, achieved honestly by payload crafting.
- :class:`ParisIcmpBuilder` — Sequence and Identifier vary *jointly*
  so the Checksum (hence the flow identifier) stays constant.
- :class:`ParisTcpBuilder` — constant ports; probes tagged via the
  TCP Sequence Number (outside the first four octets).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.errors import ProbeBuildError
from repro.net.flow import first_transport_word_flow
from repro.net.icmp import ICMPEchoRequest
from repro.net.inet import MAX_U16, IPv4Address
from repro.net.packet import Packet
from repro.net.tcp import TCPHeader
from repro.net.udp import UDPHeader
from repro.tracer import matching
from repro.tracer.checksum_payload import (
    craft_segment_for_checksum,
    ones_complement_subtract,
)

#: Classic traceroute's initial Destination Port (NetBSD 1.4a5).
CLASSIC_FIRST_DST_PORT = 33435

#: Classic traceroute sets Source Port to PID + 32768.
CLASSIC_SRC_PORT_BASE = 32768

#: tcptraceroute emulates web traffic.
TCPTRACEROUTE_DST_PORT = 80


class ProbeBuilder(ABC):
    """Builds the probe stream of one tool for one trace."""

    #: Probe method label ("udp", "icmp", "tcp").
    method: str = "abstract"

    def __init__(self, source: IPv4Address, destination: IPv4Address) -> None:
        self.source = source
        self.destination = destination
        self.sent = 0

    @abstractmethod
    def build(self, ttl: int) -> Packet:
        """The next probe packet at ``ttl`` (advances the tag counter)."""

    @abstractmethod
    def matches(self, probe: Packet, response: Packet) -> bool:
        """True if ``response`` answers ``probe``."""

    def flow_key(self, probe: Packet) -> bytes:
        """The flow identifier a per-flow balancer derives from ``probe``."""
        return first_transport_word_flow(probe).key


class ClassicUdpBuilder(ProbeBuilder):
    """Classic traceroute, UDP mode: varies the Destination Port."""

    method = "udp"

    def __init__(self, source: IPv4Address, destination: IPv4Address,
                 pid: int = 4242, payload_length: int = 12) -> None:
        super().__init__(source, destination)
        self.src_port = CLASSIC_SRC_PORT_BASE + (pid % 32768)
        self.next_dst_port = CLASSIC_FIRST_DST_PORT
        self.payload = bytes(payload_length)

    def build(self, ttl: int) -> Packet:
        probe = Packet.make(
            self.source, self.destination,
            UDPHeader(src_port=self.src_port, dst_port=self.next_dst_port),
            payload=self.payload, ttl=ttl,
        )
        self.next_dst_port = (self.next_dst_port + 1) & MAX_U16
        self.sent += 1
        return probe

    def matches(self, probe: Packet, response: Packet) -> bool:
        return matching.match_udp(probe, response, key="dst_port")


class ClassicIcmpBuilder(ProbeBuilder):
    """Classic traceroute, ICMP Echo mode: varies the Sequence Number."""

    method = "icmp"

    def __init__(self, source: IPv4Address, destination: IPv4Address,
                 pid: int = 4242) -> None:
        super().__init__(source, destination)
        self.identifier = pid & MAX_U16
        self.next_sequence = 1

    def build(self, ttl: int) -> Packet:
        probe = Packet.make(
            self.source, self.destination,
            ICMPEchoRequest(identifier=self.identifier,
                            sequence=self.next_sequence),
            ttl=ttl,
        )
        self.next_sequence = (self.next_sequence + 1) & MAX_U16
        self.sent += 1
        return probe

    def matches(self, probe: Packet, response: Packet) -> bool:
        return matching.match_icmp_echo(probe, response)


class TcpTracerouteBuilder(ProbeBuilder):
    """tcptraceroute: constant ports, tags probes via IP Identification."""

    method = "tcp"

    def __init__(self, source: IPv4Address, destination: IPv4Address,
                 src_port: int = 54321,
                 dst_port: int = TCPTRACEROUTE_DST_PORT,
                 seq: int = 0x1F2F3F40) -> None:
        super().__init__(source, destination)
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.next_ip_id = 1

    def build(self, ttl: int) -> Packet:
        probe = Packet.make(
            self.source, self.destination,
            TCPHeader(src_port=self.src_port, dst_port=self.dst_port,
                      seq=self.seq),
            ttl=ttl, identification=self.next_ip_id,
        )
        self.next_ip_id = (self.next_ip_id + 1) & MAX_U16
        self.sent += 1
        return probe

    def matches(self, probe: Packet, response: Packet) -> bool:
        return matching.match_tcp(probe, response, key="ip_id")


class ParisUdpBuilder(ProbeBuilder):
    """Paris traceroute, UDP mode: constant five-tuple, Checksum tag.

    The five-tuple is fixed for the whole trace (the paper chooses the
    ports at random in [10,000, 60,000] per destination); each probe's
    tag is its UDP checksum, reached by crafting the payload.
    """

    method = "udp"

    def __init__(self, source: IPv4Address, destination: IPv4Address,
                 src_port: int = 10007, dst_port: int = 10023,
                 first_tag: int = 1) -> None:
        super().__init__(source, destination)
        if first_tag == 0:
            raise ProbeBuildError("checksum tag 0 is unreachable (RFC 768)")
        self.src_port = src_port
        self.dst_port = dst_port
        self.next_tag = first_tag

    def build(self, ttl: int) -> Packet:
        tag = self.next_tag
        payload, segment = craft_segment_for_checksum(
            tag, self.source, self.destination,
            self.src_port, self.dst_port,
        )
        probe = Packet.make(
            self.source, self.destination,
            UDPHeader(src_port=self.src_port, dst_port=self.dst_port),
            payload=payload, ttl=ttl,
        )
        # The crafter already built and verified the segment: adopt it
        # as the transport memo instead of serializing it again.
        object.__setattr__(probe, "_transport_wire", segment)
        self.next_tag = self.next_tag + 1 if self.next_tag < MAX_U16 else 1
        self.sent += 1
        return probe

    def matches(self, probe: Packet, response: Packet) -> bool:
        return matching.match_udp(probe, response, key="checksum")


class ParisIcmpBuilder(ProbeBuilder):
    """Paris traceroute, ICMP mode: Sequence and Identifier co-vary.

    The Echo checksum is ``~(0x0800 ⊕ identifier ⊕ sequence ⊕ payload)``;
    holding ``identifier ⊕ sequence`` constant holds the checksum — and
    with it the flow identifier — constant, while the (identifier,
    sequence) pair still tags each probe uniquely.
    """

    method = "icmp"

    def __init__(self, source: IPv4Address, destination: IPv4Address,
                 checksum_anchor: int = 0x8899) -> None:
        super().__init__(source, destination)
        #: identifier ⊕ sequence is pinned to this one's-complement sum.
        self.anchor = checksum_anchor & MAX_U16
        self.next_sequence = 1

    def build(self, ttl: int) -> Packet:
        sequence = self.next_sequence
        identifier = ones_complement_subtract(self.anchor, sequence)
        probe = Packet.make(
            self.source, self.destination,
            ICMPEchoRequest(identifier=identifier, sequence=sequence),
            ttl=ttl,
        )
        self.next_sequence = (self.next_sequence + 1) & MAX_U16 or 1
        self.sent += 1
        return probe

    def matches(self, probe: Packet, response: Packet) -> bool:
        return matching.match_icmp_echo(probe, response)


class ParisTcpBuilder(ProbeBuilder):
    """Paris traceroute, TCP mode: constant ports, Sequence Number tag."""

    method = "tcp"

    def __init__(self, source: IPv4Address, destination: IPv4Address,
                 src_port: int = 10007,
                 dst_port: int = TCPTRACEROUTE_DST_PORT,
                 first_seq: int = 1) -> None:
        super().__init__(source, destination)
        self.src_port = src_port
        self.dst_port = dst_port
        self.next_seq = first_seq

    def build(self, ttl: int) -> Packet:
        probe = Packet.make(
            self.source, self.destination,
            TCPHeader(src_port=self.src_port, dst_port=self.dst_port,
                      seq=self.next_seq),
            ttl=ttl,
        )
        self.next_seq = (self.next_seq + 1) & 0xFFFFFFFF
        self.sent += 1
        return probe

    def matches(self, probe: Packet, response: Packet) -> bool:
        return matching.match_tcp(probe, response, key="seq")
