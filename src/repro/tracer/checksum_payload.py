"""Crafting a UDP payload that forces a chosen checksum value.

Paris traceroute tags UDP probes by their *Checksum* field — the only
16-bit field in the UDP header outside the load-balanced first four
octets.  But the checksum cannot simply be stamped: "packets with an
incorrect checksum are liable to be discarded" (paper Sec. 2.2), so the
tool must instead choose the **payload** such that the honestly-computed
checksum equals the wanted tag.

The arithmetic: the UDP checksum is the one's complement of the one's-
complement sum of pseudo-header, header (checksum field zero), and
payload.  With a two-octet adjustable word ``w`` appended to a fixed
payload whose partial sum is ``S``::

    target = ~(S ⊕ w)      ⇒      w = ~target ⊖ S

where ⊕/⊖ are one's-complement addition/subtraction.  One subtlety: a
computed checksum of 0 is transmitted as 0xFFFF (RFC 768), so a target
of 0 is unreachable by an honest sender; Paris traceroute never uses
tag 0.
"""

from __future__ import annotations

import struct

from repro.errors import PayloadSearchError
from repro.net.inet import MAX_U16, IPv4Address, ones_complement_add
from repro.net.ipv4 import IPProtocol
from repro.net.udp import UDP_HEADER_LENGTH, UDPHeader, pseudo_header


def _ones_complement_sum(data: bytes) -> int:
    """One's-complement sum (not complemented) of 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total > MAX_U16:
        total = (total & MAX_U16) + (total >> 16)
    return total


def _udp_checksum_with(partial: int, word: int) -> int:
    """The checksum :meth:`UDPHeader.build` emits for a segment whose
    words before the last sum to ``partial`` and whose last is ``word``.

    The one's-complement sum is congruent to the plain sum modulo
    0xFFFF; a residue of 0 is transmitted as 0xFFFF (RFC 768).
    """
    residue = (partial + word) % MAX_U16
    return MAX_U16 - residue if residue else MAX_U16


def craft_payload_for_checksum(
    target: int,
    src: IPv4Address,
    dst: IPv4Address,
    src_port: int,
    dst_port: int,
    base_payload: bytes = b"paris-trace!",
) -> bytes:
    """Return a payload whose UDP checksum equals ``target``.

    The payload is ``base_payload`` plus a two-octet adjustment word.
    An odd-length base is padded with one zero octet first, so the
    adjustment word stays 16-bit aligned in the checksum.  Raises
    :class:`PayloadSearchError` for the unreachable target 0.
    """
    return craft_segment_for_checksum(target, src, dst, src_port,
                                      dst_port, base_payload)[0]


def craft_segment_for_checksum(
    target: int,
    src: IPv4Address,
    dst: IPv4Address,
    src_port: int,
    dst_port: int,
    base_payload: bytes = b"paris-trace!",
) -> tuple[bytes, bytes]:
    """Return ``(payload, segment)`` for a UDP checksum of ``target``.

    ``payload`` is what :func:`craft_payload_for_checksum` returns;
    ``segment`` is the UDP header plus payload the crafter built to
    verify the checksum — exactly the octets
    :meth:`repro.net.packet.Packet.transport_bytes` would produce, so a
    probe can adopt it instead of serializing the segment again.
    """
    if not 0 <= target <= MAX_U16:
        raise PayloadSearchError(f"target checksum out of range: {target}")
    if target == 0:
        raise PayloadSearchError(
            "checksum 0 cannot be produced honestly: RFC 768 transmits a "
            "computed 0 as 0xFFFF"
        )
    if len(base_payload) % 2:
        base_payload += b"\x00"
    length = UDP_HEADER_LENGTH + len(base_payload) + 2
    pseudo = pseudo_header(src, dst, int(IPProtocol.UDP), length)
    header = struct.pack("!HHHH", src_port, dst_port, length, 0)
    partial = _ones_complement_sum(pseudo + header + base_payload)
    # We need  ~(partial ⊕ w) == target, i.e. partial ⊕ w == ~target.
    wanted_sum = (~target) & MAX_U16
    word = ones_complement_subtract(wanted_sum, partial)
    if _udp_checksum_with(partial, word) != target:
        # The only systematic miss: the sum landed on the 0/0xFFFF
        # ambiguity of one's-complement arithmetic.  Nudge via the
        # alternate representation.
        word ^= MAX_U16
    payload = base_payload + struct.pack("!H", word)
    built = UDPHeader(src_port=src_port, dst_port=dst_port).build(
        payload, src, dst)
    achieved = struct.unpack("!H", built[6:8])[0]
    if achieved != target:  # pragma: no cover - arithmetic guarantee
        raise PayloadSearchError(
            f"could not reach checksum 0x{target:04x} "
            f"(got 0x{achieved:04x})"
        )
    return payload, built


def ones_complement_subtract(a: int, b: int) -> int:
    """One's-complement ``a ⊖ b``: add ``a`` to the complement of ``b``."""
    return ones_complement_add(a, (~b) & MAX_U16)
