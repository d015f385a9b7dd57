"""Network-layer primitives: prefixes and ASNs."""

from repro.net.asn import ASInfo, WELL_KNOWN_ASES, validate_asn
from repro.net.prefix import AFI_IPV4, AFI_IPV6, Prefix

__all__ = [
    "AFI_IPV4",
    "AFI_IPV6",
    "Prefix",
    "ASInfo",
    "WELL_KNOWN_ASES",
    "validate_asn",
]
