"""Unit tests for repro.net.asn."""

import pytest

from repro.net import WELL_KNOWN_ASES, validate_asn


class TestValidate:
    def test_valid_16bit(self):
        assert validate_asn(64512) == 64512

    def test_valid_32bit(self):
        assert validate_asn(210312) == 210312

    def test_zero_allowed(self):
        assert validate_asn(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            validate_asn(-1)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            validate_asn(2**32)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            validate_asn(True)

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            validate_asn("65000")


class TestWellKnown:
    def test_paper_origin_as_present(self):
        assert WELL_KNOWN_ASES[210312].role == "origin"

    def test_noisy_peers_present(self):
        assert 211509 in WELL_KNOWN_ASES
        assert 211380 in WELL_KNOWN_ASES
        assert 16347 in WELL_KNOWN_ASES

    def test_resurrection_cause_present(self):
        assert WELL_KNOWN_ASES[4637].name.startswith("Telstra")
