"""The output fingerprint (tests/fingerprint.py) runs and is reproducible."""

import pytest

import fingerprint


@pytest.mark.parametrize("section", sorted(fingerprint.SECTIONS))
def test_fingerprint_section_is_reproducible(section):
    first = fingerprint.fingerprint(section)
    assert len(first) == 64 and first == fingerprint.fingerprint(section)
