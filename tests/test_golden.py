"""Behaviour lock: analyze reports must stay byte-identical to the goldens.

The files under tests/golden/ hold `encode_report(analyze(fixture_canvas(name),
pixel_cap=cap)[0])` for five built-in fixtures; the 25-px miniL needs
pixel_cap=25, the others use the default cap.  `random4x3.json` holds the
report of `corpus.random4x3`, which `tests/test_search.py` reads.  A change
that alters any of them changes the observable behaviour of the analyser.  Re-record a golden
only together with an entry in CHANGES.md that states why its content had
to change.
"""
from __future__ import annotations

from pathlib import Path

import pytest

from tanglescope import analyze, encode_report
from tanglescope.canvas import DEFAULT_PIXEL_CAP
from tanglescope.fixtures import fixture_canvas

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_CAPS = {"mono2x2": DEFAULT_PIXEL_CAP, "quad4x4": DEFAULT_PIXEL_CAP,
               "checker4x4": DEFAULT_PIXEL_CAP, "noisedisc4x4": DEFAULT_PIXEL_CAP,
               "miniL": 25}


@pytest.mark.parametrize("name", GOLDEN_CAPS)
def test_report_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.json").read_text()
    report = analyze(fixture_canvas(name), pixel_cap=GOLDEN_CAPS[name])[0]
    assert encode_report(report) == expected
