"""Flow identifiers: what per-flow load balancers hash.

The paper's empirical finding (Sec. 2.1) is that routers hash the
five-tuple *as seen through the first four octets of the transport
header* — plus, for some, the IP TOS — and that for ICMP this means the
Type, Code, and **Checksum** fields.  Varying anything in that region
(classic traceroute's UDP Destination Port, or the checksum perturbation
caused by varying the ICMP Sequence Number) changes the flow.

Two extractors are provided:

- :func:`classic_five_tuple` — the textbook 5-tuple (addresses, protocol,
  ports).  Under this definition an ICMP probe has no ports, so classic
  ICMP traceroute would *not* be sprayed.  Kept for the hash-domain
  ablation (DESIGN.md §5.1).
- :func:`first_transport_word_flow` — the paper's observed behaviour:
  addresses, protocol, TOS, and the first four transport octets,
  whatever they contain.  This is the simulator default.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable

from repro.net.icmp import (
    ICMPDestinationUnreachable,
    ICMPEchoReply,
    ICMPEchoRequest,
    ICMPTimeExceeded,
)
from repro.net.packet import Packet
from repro.net.tcp import TCPHeader
from repro.net.udp import UDPHeader


@dataclass(frozen=True)
class FlowId:
    """An opaque, hashable flow identifier.

    ``key`` is a bytes fingerprint; equal keys mean a per-flow balancer
    forwards the packets identically.  ``describe`` keeps a readable
    account of which fields went into the key, for diagnostics and for
    the Fig. 2 header-role analysis.
    """

    key: bytes
    describe: str = ""

    def bucket(self, n: int, salt: bytes = b"") -> int:
        """Deterministically map this flow onto one of ``n`` buckets.

        Each balancer instance passes its own ``salt`` so that the same
        flow may hash to different next hops at different routers, as in
        a real network where hash functions and seeds differ per box.
        """
        digest = hashlib.sha256(salt + self.key).digest()
        return int.from_bytes(digest[:8], "big") % n

    def __repr__(self) -> str:
        return f"FlowId({self.key.hex()}, {self.describe!r})"


def classic_five_tuple(packet: Packet) -> FlowId:
    """The textbook 5-tuple flow id (no TOS, no ICMP fields).

    ICMP packets collapse to (src, dst, proto) under this definition —
    all probes of an ICMP traceroute share one flow.
    """
    t = packet.transport
    if isinstance(t, (UDPHeader, TCPHeader)):
        ports = struct.pack("!HH", t.src_port, t.dst_port)
        detail = f"5-tuple ports {t.src_port}->{t.dst_port}"
    else:
        ports = b"\x00\x00\x00\x00"
        detail = "5-tuple (ICMP: no ports)"
    key = (
        packet.ip.src.packed
        + packet.ip.dst.packed
        + bytes([int(packet.ip.protocol)])
        + ports
    )
    return FlowId(key=key, describe=detail)


def first_transport_word_flow(packet: Packet) -> FlowId:
    """The paper's observed flow id: first four transport octets + TOS.

    For UDP that word is (Source Port, Destination Port); for TCP the
    same; for ICMP it is (Type, Code, Checksum).  The IP TOS is included
    because the authors found some balancers hash it.

    Memoised per packet: the id is a pure function of the immutable
    packet, and the default extractor runs for every balancer crossing
    *and* every per-hop flow-key record on the probing side.
    """
    cached = packet.__dict__.get("_flow_word")
    if cached is not None:
        return cached
    t = packet.transport
    if isinstance(t, (UDPHeader, TCPHeader)):
        word = t.first_four_octets()
        detail = f"transport word {word.hex()}"
    elif isinstance(t, ICMPEchoRequest):
        word = t.first_four_octets()
        detail = f"icmp type/code/cksum {word.hex()}"
    elif isinstance(t, (ICMPTimeExceeded, ICMPDestinationUnreachable)):
        # Responses: type, code, and their own checksum — derived
        # without serializing the quote.
        word = t.first_four_octets()
        detail = f"icmp response word {word.hex()}"
    elif isinstance(t, ICMPEchoReply):
        word = packet.transport_bytes()[:4]
        detail = f"icmp response word {word.hex()}"
    else:  # pragma: no cover - transports are exhaustive
        word = b"\x00\x00\x00\x00"
        detail = "unknown transport"
    key = (
        packet.ip.src.packed
        + packet.ip.dst.packed
        + bytes([int(packet.ip.protocol), packet.ip.tos])
        + word
    )
    flow = FlowId(key=key, describe=detail)
    object.__setattr__(packet, "_flow_word", flow)
    return flow


#: Signature of a flow extractor: Packet -> FlowId.
FlowExtractor = Callable[[Packet], FlowId]


def flow_fields_varied(packets: list[Packet],
                       extractor: FlowExtractor = first_transport_word_flow) -> bool:
    """True if the probe stream spans more than one flow.

    Used by tests and the Fig. 2 analysis to check the defining property
    of each tool: classic traceroute's stream *does* vary its flow id,
    Paris traceroute's does not.
    """
    flows = {extractor(p).key for p in packets}
    return len(flows) > 1
