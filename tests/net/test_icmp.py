"""Tests for ICMP messages: echo, errors, quoting, and checksum coupling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ChecksumError, FieldValueError, TruncatedPacketError
from repro.net import icmp
from repro.net.icmp import (
    ICMPDestinationUnreachable,
    ICMPEchoReply,
    ICMPEchoRequest,
    ICMPTimeExceeded,
    ICMPType,
    UnreachableCode,
)
from repro.net.inet import IPv4Address, checksum
from repro.net.ipv4 import IPProtocol, IPv4Header


def quoted_header(ttl=1):
    return IPv4Header(
        src=IPv4Address("10.0.0.1"), dst=IPv4Address("10.9.9.9"),
        protocol=int(IPProtocol.UDP), ttl=ttl, identification=77,
        total_length=28,
    )


class TestEcho:
    def test_build_has_valid_checksum(self):
        raw = ICMPEchoRequest(identifier=7, sequence=1, payload=b"ping").build()
        assert checksum(raw) == 0

    def test_roundtrip(self):
        msg = ICMPEchoRequest(identifier=0xAB, sequence=0xCD, payload=b"hello")
        parsed = icmp.parse(msg.build())
        assert isinstance(parsed, ICMPEchoRequest)
        assert (parsed.identifier, parsed.sequence, parsed.payload) == (
            0xAB, 0xCD, b"hello")

    def test_reply_roundtrip(self):
        msg = ICMPEchoReply(identifier=3, sequence=9, payload=b"pong")
        parsed = icmp.parse(msg.build())
        assert isinstance(parsed, ICMPEchoReply)
        assert parsed.sequence == 9

    def test_type_codes(self):
        assert ICMPEchoRequest(identifier=0, sequence=0).build()[0] == 8
        assert ICMPEchoReply(identifier=0, sequence=0).build()[0] == 0

    def test_field_validation(self):
        with pytest.raises(FieldValueError):
            ICMPEchoRequest(identifier=1 << 16, sequence=0)
        with pytest.raises(FieldValueError):
            ICMPEchoRequest(identifier=0, sequence=-1)

    @given(ident=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
           payload=st.binary(max_size=32))
    def test_roundtrip_property(self, ident, seq, payload):
        msg = ICMPEchoRequest(identifier=ident, sequence=seq, payload=payload)
        parsed = icmp.parse(msg.build())
        assert (parsed.identifier, parsed.sequence, parsed.payload) == (
            ident, seq, payload)

    def test_sequence_variation_changes_checksum(self):
        # The classic-traceroute problem: new sequence => new checksum,
        # and the checksum is in the first four octets.
        a = ICMPEchoRequest(identifier=1, sequence=1)
        b = ICMPEchoRequest(identifier=1, sequence=2)
        assert a.computed_checksum() != b.computed_checksum()
        assert a.first_four_octets() != b.first_four_octets()

    def test_joint_variation_can_hold_checksum_constant(self):
        # The Paris trick: increment sequence, decrement identifier.
        a = ICMPEchoRequest(identifier=100, sequence=1)
        b = ICMPEchoRequest(identifier=99, sequence=2)
        assert a.computed_checksum() == b.computed_checksum()
        assert a.first_four_octets() == b.first_four_octets()

    def test_with_sequence(self):
        msg = ICMPEchoRequest(identifier=5, sequence=1)
        assert msg.with_sequence(9).sequence == 9
        assert msg.with_sequence(9).identifier == 5


class TestErrors:
    def test_time_exceeded_quotes_header_and_eight_octets(self):
        payload8 = bytes(range(8))
        msg = ICMPTimeExceeded(quoted_header=quoted_header(),
                               quoted_payload=payload8)
        raw = msg.build()
        assert raw[0] == int(ICMPType.TIME_EXCEEDED)
        # 8 (icmp) + 20 (quoted ip) + 8 (quoted payload)
        assert len(raw) == 36
        assert raw[-8:] == payload8

    def test_quoted_payload_clipped_to_eight(self):
        msg = ICMPTimeExceeded(quoted_header=quoted_header(),
                               quoted_payload=bytes(range(20)))
        assert msg.build()[-8:] == bytes(range(8))

    def test_roundtrip_preserves_quote(self):
        msg = ICMPTimeExceeded(quoted_header=quoted_header(ttl=1),
                               quoted_payload=b"ABCDEFGH")
        parsed = icmp.parse(msg.build())
        assert isinstance(parsed, ICMPTimeExceeded)
        assert parsed.quoted_header.src == IPv4Address("10.0.0.1")
        assert parsed.quoted_header.ttl == 1
        assert parsed.quoted_payload == b"ABCDEFGH"

    def test_probe_ttl_surfaces_quoted_ttl(self):
        # The paper's "probe TTL": normally 1; 0 reveals zero-TTL forwarding.
        normal = ICMPTimeExceeded(quoted_header=quoted_header(ttl=1),
                                  quoted_payload=b"")
        faulty = ICMPTimeExceeded(quoted_header=quoted_header(ttl=0),
                                  quoted_payload=b"")
        assert normal.probe_ttl == 1
        assert faulty.probe_ttl == 0

    def test_unreachable_codes_and_flags(self):
        msg = ICMPDestinationUnreachable(
            quoted_header=quoted_header(), quoted_payload=b"",
            code=int(UnreachableCode.HOST_UNREACHABLE))
        parsed = icmp.parse(msg.build())
        assert isinstance(parsed, ICMPDestinationUnreachable)
        assert parsed.unreachable_code is UnreachableCode.HOST_UNREACHABLE
        assert parsed.unreachable_code.traceroute_flag == "!H"

    def test_port_unreachable_has_empty_flag(self):
        assert UnreachableCode.PORT_UNREACHABLE.traceroute_flag == ""
        assert UnreachableCode.NET_UNREACHABLE.traceroute_flag == "!N"

    def test_error_checksum_valid(self):
        raw = ICMPTimeExceeded(quoted_header=quoted_header(),
                               quoted_payload=b"12345678").build()
        assert checksum(raw) == 0

    @given(src=st.integers(0, 0xFFFFFFFF), dst=st.integers(0, 0xFFFFFFFF),
           ttl=st.integers(0, 255), ident=st.integers(0, 0xFFFF),
           total_length=st.integers(0, 0xFFFF), code=st.integers(0, 15),
           payload=st.binary(max_size=12), unreachable=st.booleans())
    def test_first_four_octets_match_serialization(
            self, src, dst, ttl, ident, total_length, code, payload,
            unreachable):
        # The balancer-visible word is derived without building the
        # quote; it must equal the serialized message's first word.
        header = IPv4Header(src=IPv4Address(src), dst=IPv4Address(dst),
                            protocol=int(IPProtocol.UDP), ttl=ttl,
                            identification=ident, total_length=total_length)
        cls = ICMPDestinationUnreachable if unreachable else ICMPTimeExceeded
        msg = cls(quoted_header=header, quoted_payload=payload, code=code)
        assert msg.first_four_octets() == msg.build()[:4]


class TestParse:
    def test_truncated(self):
        with pytest.raises(TruncatedPacketError):
            icmp.parse(b"\x0b\x00\x00")

    def test_corrupted_checksum(self):
        raw = bytearray(ICMPEchoRequest(identifier=1, sequence=1).build())
        raw[2] ^= 0xFF
        with pytest.raises(ChecksumError):
            icmp.parse(bytes(raw))

    def test_verification_can_be_disabled(self):
        raw = bytearray(ICMPEchoRequest(identifier=1, sequence=1).build())
        raw[2] ^= 0xFF
        parsed = icmp.parse(bytes(raw), verify=False)
        assert parsed.identifier == 1

    def test_unknown_type_rejected(self):
        # Type 13 (timestamp) is unsupported: routers in the paper only
        # answered ICMP Echo among probe types.
        import struct
        base = struct.pack("!BBHHH", 13, 0, 0, 0, 0)
        ck = checksum(base)
        raw = struct.pack("!BBHHH", 13, 0, ck, 0, 0)
        with pytest.raises(FieldValueError):
            icmp.parse(raw)

    def test_quote_with_bad_inner_checksum_still_parses(self):
        # Some routers mangle the quoted header; the parser must not
        # reject the response for that.
        good = ICMPTimeExceeded(quoted_header=quoted_header(),
                                quoted_payload=b"ABCDEFGH").build()
        raw = bytearray(good)
        raw[8 + 10] ^= 0xFF  # corrupt quoted IP checksum field
        # Fix outer ICMP checksum after the mutation.
        raw[2:4] = b"\x00\x00"
        ck = checksum(bytes(raw))
        raw[2:4] = ck.to_bytes(2, "big")
        parsed = icmp.parse(bytes(raw))
        assert parsed.quoted_header.src == IPv4Address("10.0.0.1")
