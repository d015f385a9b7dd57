"""Autonomous System Number helpers.

ASNs are plain ``int`` throughout the library; this module centralises
validation and the registry of real-world ASes named by the paper so
experiment code can refer to them symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["validate_asn", "ASInfo", "WELL_KNOWN_ASES"]

AS_TRANS = 23456
MAX_ASN = 2 ** 32 - 1


def validate_asn(asn: int) -> int:
    """Return ``asn`` unchanged if it is a valid 4-byte ASN; raise otherwise."""
    if not isinstance(asn, int) or isinstance(asn, bool):
        raise TypeError(f"ASN must be an int, got {type(asn).__name__}")
    if not 0 <= asn <= MAX_ASN:
        raise ValueError(f"ASN {asn} out of range [0, {MAX_ASN}]")
    return asn


@dataclass(frozen=True)
class ASInfo:
    """Descriptive metadata for an AS referenced in the paper."""

    asn: int
    name: str
    country: str
    role: str


#: ASes the paper names explicitly; the synthetic topology reuses these
#: numbers so reproduced case studies print the same AS paths as the paper.
WELL_KNOWN_ASES: dict[int, ASInfo] = {
    210312: ASInfo(210312, "Beacon origin (personal AS)", "GR", "origin"),
    8298: ASInfo(8298, "IPng Networks", "CH", "upstream"),
    25091: ASInfo(25091, "IP-Max SA", "CH", "upstream"),
    4637: ASInfo(4637, "Telstra Global", "HK", "tier2-resurrector"),
    1299: ASInfo(1299, "Arelion (Telia)", "SE", "tier1"),
    3356: ASInfo(3356, "Lumen (Level3)", "US", "tier1"),
    6939: ASInfo(6939, "Hurricane Electric", "US", "tier1-ish"),
    33891: ASInfo(33891, "Core-Backbone GmbH", "DE", "tier2-zombie-cause"),
    9304: ASInfo(9304, "HGC Global Communications", "HK", "zombie-cause"),
    17639: ASInfo(17639, "Converge ICT", "PH", "zombie-peer"),
    142271: ASInfo(142271, "Zombie peer AS", "HK", "zombie-peer"),
    43100: ASInfo(43100, "Transit AS", "UA", "transit"),
    34549: ASInfo(34549, "meerfarbig GmbH", "DE", "transit"),
    12956: ASInfo(12956, "Telefonica", "ES", "tier1"),
    10429: ASInfo(10429, "Telefonica Data BR", "BR", "transit"),
    28598: ASInfo(28598, "Brazil transit AS", "BR", "transit"),
    61573: ASInfo(61573, "IP Carrier (resurrection peer)", "BR", "peer"),
    207301: ASInfo(207301, "35-37 day zombie peer", "DE", "peer"),
    211380: ASInfo(211380, "SIMULHOST-AS Simulhost Limited", "GB", "noisy-peer"),
    211509: ASInfo(211509, "Rudakov Ihor", "UA", "noisy-peer"),
    16347: ASInfo(16347, "Inherent Adista SAS", "FR", "noisy-peer-2018"),
}
