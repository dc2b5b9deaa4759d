"""ICMP messages (RFC 792): Echo, Time Exceeded, Destination Unreachable.

Three facts from the paper are mechanised here:

1. An ICMP Echo Request's **Checksum lives in the first four octets** of
   the ICMP header, so classic traceroute's per-probe Sequence Number
   variation perturbs the flow identifier via the checksum.  Paris
   traceroute varies the Identifier *together with* the Sequence Number
   so the checksum — and hence the flow id — stays constant.

2. A router sending **Time Exceeded** (or Destination Unreachable)
   quotes the IP header of the discarded packet **plus its first eight
   octets of payload** — i.e. the entire UDP header, or the first eight
   octets of the TCP/ICMP header.  That quote is how traceroute matches
   responses to probes, and it carries the "probe TTL" Paris traceroute
   inspects (normally 1; 0 reveals zero-TTL forwarding).

3. The responding router stamps its own **IP ID** counter and initial
   TTL on the response, which Paris traceroute uses for forensics.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, replace

from repro.errors import ChecksumError, FieldValueError, TruncatedPacketError
from repro.net.inet import checksum, require_u16
from repro.net.ipv4 import IPv4Header

#: Octets of the offending datagram quoted after the unused field
#: (IP header assumed option-less: 20 octets) — RFC 792 requires the IP
#: header plus 64 bits (8 octets) of payload.
QUOTED_PAYLOAD_LENGTH = 8

_ECHO_STRUCT = struct.Struct("!BBHHH")
_ERROR_STRUCT = struct.Struct("!BBHI")
_WORD_STRUCT = struct.Struct("!BBH")


class ICMPType(enum.IntEnum):
    """ICMP message types used in this reproduction."""

    ECHO_REPLY = 0
    DESTINATION_UNREACHABLE = 3
    ECHO_REQUEST = 8
    TIME_EXCEEDED = 11


class UnreachableCode(enum.IntEnum):
    """Destination Unreachable codes, with traceroute's display flags."""

    NET_UNREACHABLE = 0   # rendered '!N'
    HOST_UNREACHABLE = 1  # rendered '!H'
    PROTOCOL_UNREACHABLE = 2  # '!P'
    PORT_UNREACHABLE = 3  # terminates a UDP traceroute normally
    FRAGMENTATION_NEEDED = 4  # '!F'
    SOURCE_ROUTE_FAILED = 5  # '!S'
    ADMIN_PROHIBITED = 13  # '!X'

    @property
    def traceroute_flag(self) -> str:
        """The annotation classic traceroute prints for this code."""
        flags = {
            UnreachableCode.NET_UNREACHABLE: "!N",
            UnreachableCode.HOST_UNREACHABLE: "!H",
            UnreachableCode.PROTOCOL_UNREACHABLE: "!P",
            UnreachableCode.PORT_UNREACHABLE: "",
            UnreachableCode.FRAGMENTATION_NEEDED: "!F",
            UnreachableCode.SOURCE_ROUTE_FAILED: "!S",
            UnreachableCode.ADMIN_PROHIBITED: "!X",
        }
        return flags[self]


class TimeExceededCode(enum.IntEnum):
    """Time Exceeded codes."""

    TTL_EXCEEDED_IN_TRANSIT = 0
    FRAGMENT_REASSEMBLY = 1


@dataclass(frozen=True)
class ICMPEchoRequest:
    """An ICMP Echo Request (ping / ICMP-mode traceroute probe).

    The checksum covers the whole ICMP message.  Because Identifier and
    Sequence Number both feed the checksum, choosing them jointly lets
    Paris traceroute pin the checksum to a constant — see
    :meth:`repro.tracer.probes.paris_icmp_pair`.
    """

    identifier: int
    sequence: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        require_u16("identifier", self.identifier)
        require_u16("sequence", self.sequence)

    @property
    def icmp_type(self) -> ICMPType:
        return ICMPType.ECHO_REQUEST

    def build(self) -> bytes:
        """Serialize with a correct checksum."""
        base = _ECHO_STRUCT.pack(
            int(ICMPType.ECHO_REQUEST), 0, 0, self.identifier, self.sequence
        )
        ck = checksum(base + self.payload)
        return _ECHO_STRUCT.pack(
            int(ICMPType.ECHO_REQUEST), 0, ck, self.identifier, self.sequence
        ) + self.payload

    def computed_checksum(self) -> int:
        """The checksum value this message serializes with.

        Exposed because the checksum *is* part of the flow identifier for
        ICMP probes: load balancers and the Fig. 2 analysis both read it.
        """
        base = _ECHO_STRUCT.pack(
            int(ICMPType.ECHO_REQUEST), 0, 0, self.identifier, self.sequence
        )
        return checksum(base + self.payload)

    def first_four_octets(self) -> bytes:
        """Type, Code, Checksum — the load-balancer-visible word pair."""
        return struct.pack("!BBH", int(ICMPType.ECHO_REQUEST), 0,
                           self.computed_checksum())

    def with_sequence(self, sequence: int) -> "ICMPEchoRequest":
        """A copy with a new Sequence Number (classic traceroute tagging)."""
        return replace(self, sequence=sequence)


@dataclass(frozen=True)
class ICMPEchoReply:
    """An ICMP Echo Reply, sent by destinations answering Echo probes."""

    identifier: int
    sequence: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        require_u16("identifier", self.identifier)
        require_u16("sequence", self.sequence)

    @property
    def icmp_type(self) -> ICMPType:
        return ICMPType.ECHO_REPLY

    def build(self) -> bytes:
        base = _ECHO_STRUCT.pack(
            int(ICMPType.ECHO_REPLY), 0, 0, self.identifier, self.sequence
        )
        ck = checksum(base + self.payload)
        return _ECHO_STRUCT.pack(
            int(ICMPType.ECHO_REPLY), 0, ck, self.identifier, self.sequence
        ) + self.payload


@dataclass(frozen=True)
class _ICMPError:
    """Shared implementation of the two quoting error messages."""

    quoted_header: IPv4Header
    quoted_payload: bytes
    code: int = 0

    def _build(self, icmp_type: ICMPType) -> bytes:
        # The quote reproduces the discarded packet's IP header verbatim
        # (its total_length still describes the original datagram) plus the
        # first eight octets of its payload.
        quote = self.quoted_header.build(payload_length=len(self.quoted_payload))
        quoted = quote + self.quoted_payload[:QUOTED_PAYLOAD_LENGTH]
        base = _ERROR_STRUCT.pack(int(icmp_type), self.code, 0, 0)
        ck = checksum(base + quoted)
        return _ERROR_STRUCT.pack(int(icmp_type), self.code, ck, 0) + quoted

    def first_four_octets(self) -> bytes:
        """Type, Code, Checksum — the word a per-flow balancer hashes.

        Computed without serializing the quote: :meth:`_build` always
        emits the quoted IP header with a freshly computed checksum, and
        a correctly checksummed header sums to zero in one's-complement
        arithmetic, so the message checksum depends only on the type,
        the code and the quoted payload octets.
        """
        icmp_type = int(self.icmp_type)
        ck = checksum(_ERROR_STRUCT.pack(icmp_type, self.code, 0, 0)
                      + self.quoted_payload[:QUOTED_PAYLOAD_LENGTH])
        return _WORD_STRUCT.pack(icmp_type, self.code, ck)

    @property
    def probe_ttl(self) -> int:
        """TTL of the quoted (discarded) probe — the paper's "probe TTL".

        The router quotes the probe's IP header as it arrived, before
        any decrement, so normal traceroute operation yields 1: the
        probe reached the router with TTL 1 and was discarded there.
        Zero reveals an upstream router that forwarded the probe with
        TTL 0 (the paper's zero-TTL forwarding, Fig. 4).
        """
        return self.quoted_header.ttl


@dataclass(frozen=True)
class ICMPTimeExceeded(_ICMPError):
    """Time Exceeded in transit: the workhorse of traceroute."""

    code: int = int(TimeExceededCode.TTL_EXCEEDED_IN_TRANSIT)

    @property
    def icmp_type(self) -> ICMPType:
        return ICMPType.TIME_EXCEEDED

    def build(self) -> bytes:
        return self._build(ICMPType.TIME_EXCEEDED)


@dataclass(frozen=True)
class ICMPDestinationUnreachable(_ICMPError):
    """Destination Unreachable; code 3 (port) ends a UDP trace normally."""

    code: int = int(UnreachableCode.PORT_UNREACHABLE)

    @property
    def icmp_type(self) -> ICMPType:
        return ICMPType.DESTINATION_UNREACHABLE

    @property
    def unreachable_code(self) -> UnreachableCode:
        return UnreachableCode(self.code)

    def build(self) -> bytes:
        return self._build(ICMPType.DESTINATION_UNREACHABLE)


ICMPMessage = (
    ICMPEchoRequest | ICMPEchoReply | ICMPTimeExceeded | ICMPDestinationUnreachable
)


def parse(data: bytes, verify: bool = True) -> ICMPMessage:
    """Parse an ICMP message from raw bytes.

    Echo messages return :class:`ICMPEchoRequest`/:class:`ICMPEchoReply`;
    error messages parse their quoted IP header (without verifying the
    quote's checksum — routers sometimes mangle quotes) and return
    :class:`ICMPTimeExceeded`/:class:`ICMPDestinationUnreachable`.
    """
    if len(data) < 8:
        raise TruncatedPacketError("ICMP header", 8, len(data))
    icmp_type, code = data[0], data[1]
    stored_ck = struct.unpack("!H", data[2:4])[0]
    if verify:
        computed = checksum(data[:2] + b"\x00\x00" + data[4:])
        if computed != stored_ck:
            raise ChecksumError("ICMP", computed, stored_ck)
    if icmp_type in (int(ICMPType.ECHO_REQUEST), int(ICMPType.ECHO_REPLY)):
        identifier, sequence = struct.unpack("!HH", data[4:8])
        cls = (ICMPEchoRequest if icmp_type == int(ICMPType.ECHO_REQUEST)
               else ICMPEchoReply)
        return cls(identifier=identifier, sequence=sequence, payload=data[8:])
    if icmp_type in (int(ICMPType.TIME_EXCEEDED),
                     int(ICMPType.DESTINATION_UNREACHABLE)):
        quoted = data[8:]
        header, rest = IPv4Header.parse(quoted, verify_checksum=False)
        cls = (ICMPTimeExceeded if icmp_type == int(ICMPType.TIME_EXCEEDED)
               else ICMPDestinationUnreachable)
        return cls(quoted_header=header,
                   quoted_payload=rest[:QUOTED_PAYLOAD_LENGTH], code=code)
    raise FieldValueError("icmp_type", icmp_type, "unsupported message type")
