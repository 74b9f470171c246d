from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tanglescope import WeightedCanvas, build_universe, fixture  # noqa: E402


@pytest.fixture(scope="session")
def wc_mono():
    return WeightedCanvas.from_picture(fixture("mono2x2"))


@pytest.fixture(scope="session")
def pool_mono(wc_mono):
    return build_universe(wc_mono)


@pytest.fixture(scope="session")
def wc_quad():
    return WeightedCanvas.from_picture(fixture("quad4x4"))


@pytest.fixture(scope="session")
def pool_quad(wc_quad):
    return build_universe(wc_quad)


@pytest.fixture(scope="session")
def wc_minil():
    return WeightedCanvas.from_picture(fixture("miniL"))


@pytest.fixture(scope="session")
def pool_minil(wc_minil):
    return build_universe(wc_minil, pixel_cap=25)
