"""Behaviour lock: analyze reports must stay byte-identical to the goldens.

The files under tests/golden/ hold `encode_report(analyze(fixture_canvas(name))[0])`
for four built-in fixtures.  A change that alters any of them changes the
observable behaviour of the analyser.  Re-record a golden only together with
an entry in CHANGES.md that states why its content had to change.

miniL is left out because one analysis takes 13-18 s; the letter-L family is
covered by the glyph25 reference digests of the benchmark.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from tanglescope import analyze, encode_report
from tanglescope.fixtures import fixture_canvas

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_NAMES = ("mono2x2", "quad4x4", "checker4x4", "noisedisc4x4")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_report_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    assert encode_report(analyze(fixture_canvas(name))[0]) == expected
