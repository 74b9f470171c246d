from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (SMALL_PICTURES, lshape3x3, one_pixel, picture, rand4x5,
                    random_weighted, weighted, white2x2)
from tanglescope import (CanvasSizeError, PictureError, WeightedCanvas, analyze,
                         attach_picture, boundary, build_grid_canvas,
                         edge_weight, fixture, suggest_N)
from tanglescope import canvas as canvas_module
from tanglescope.duality import induced_subcanvas


def test_grid_shapes():
    c = build_grid_canvas(2, 2)
    assert c.npixels == 4 and len(c.edges) == 4
    c = build_grid_canvas(1, 1)
    assert c.npixels == 1 and len(c.edges) == 0
    c = build_grid_canvas(3, 2)
    assert c.npixels == 6 and len(c.edges) == 7


def test_grid_edge_count_formula():
    for w in range(1, 5):
        for h in range(1, 5):
            if w * h > 20:
                continue
            c = build_grid_canvas(w, h)
            assert len(c.edges) == 2 * w * h - w - h
            assert len(set(c.edges)) == len(c.edges)
            assert all(p != q for p, q in c.edges)


def test_grid_caps():
    with pytest.raises(CanvasSizeError):
        build_grid_canvas(5, 5)
    build_grid_canvas(5, 5, pixel_cap=25)
    with pytest.raises(CanvasSizeError):
        build_grid_canvas(6, 6, pixel_cap=64)  # hard cap is 32
    with pytest.raises(PictureError):
        build_grid_canvas(0, 3)


def test_attach_picture_errors():
    c = build_grid_canvas(2, 2)
    with pytest.raises(PictureError):
        attach_picture(c, [1, 0, 0], 1)
    with pytest.raises(PictureError):
        attach_picture(c, [2, 0, 0, 0], 1)  # does not fit in 1 bit
    p = attach_picture(build_grid_canvas(1, 1), [0], 1)
    assert p.values == (0,)


def test_edge_weight_mono():
    p = fixture("mono2x2")
    # edges of the 2x2 grid in construction order
    edges = {e: i for i, e in enumerate(p.canvas.edges)}
    assert edge_weight(p, edges[(0, 1)]) == 1
    assert edge_weight(p, edges[(2, 3)]) == 0
    with pytest.raises(PictureError):
        edge_weight(p, 99)


def test_edge_weight_symmetric_in_endpoints():
    p = rand4x5()
    for i, (a, b) in enumerate(p.canvas.edges):
        assert edge_weight(p, i) == (p.values[a] ^ p.values[b]).bit_count()


def test_suggest_n():
    assert suggest_N(fixture("mono2x2")) == 1
    assert suggest_N(white2x2()) == 0
    assert suggest_N(fixture("miniL")) == 1
    assert suggest_N(one_pixel()) == 0


def test_boundary_mono():
    c = fixture("mono2x2").canvas
    edges = {e: i for i, e in enumerate(c.edges)}
    assert boundary(c, 0) == frozenset()
    assert boundary(c, 0b0001) == {edges[(0, 1)], edges[(0, 2)]}
    assert boundary(c, 0b0011) == {edges[(0, 2)], edges[(1, 3)]}


def test_boundary_complement_invariance():
    c = lshape3x3().canvas
    for a in range(1 << c.npixels):
        assert boundary(c, a) == boundary(c, a ^ c.full_mask)


def test_order_mono_examples(wc_mono):
    assert wc_mono.N == 1
    assert wc_mono.order(0b0001) == 0
    assert wc_mono.order(0b0011) == 1
    assert wc_mono.order(0b1000) == 2
    assert wc_mono.order(0) == 0
    assert wc_mono.order(wc_mono.full_mask) == 0


def test_order_symmetry_exhaustive(wc_mono):
    full = wc_mono.full_mask
    for a in range(full + 1):
        assert wc_mono.order(a) == wc_mono.order(a ^ full)


def test_n_below_max_delta_rejected():
    with pytest.raises(PictureError):
        WeightedCanvas.from_picture(fixture("mono2x2"), 0)


def _assert_table_matches_order(wc):
    table = wc.all_orders()
    assert table.shape == (wc.full_mask + 1,)
    for a in range(wc.full_mask + 1):
        assert int(table[a]) == wc.order(a)


def test_all_orders_matches_scalar_order():
    for builder in (lshape3x3, white2x2, one_pixel):
        _assert_table_matches_order(weighted(builder))


@settings(deadline=None, max_examples=40)
@given(random_weighted(max_extra_N=10**6))
def test_all_orders_matches_scalar_order_random(wc):
    _assert_table_matches_order(wc)


@st.composite
def _subcanvases(draw):
    """A random picture and a random nonempty pixel subset of it: either any
    subset (often disconnected) or one grown along grid edges (connected)."""
    wc = draw(random_weighted(max_extra_N=1000))
    if draw(st.booleans()):
        return wc, draw(st.integers(1, wc.full_mask))
    subset = 1 << draw(st.integers(0, wc.npixels - 1))
    for pick in draw(st.lists(st.integers(0, 4 * wc.npixels), max_size=wc.npixels)):
        frontier = sorted({q for a, b in wc.canvas.edges for p, q in ((a, b), (b, a))
                           if subset >> p & 1 and not subset >> q & 1})
        if frontier:
            subset |= 1 << frontier[pick % len(frontier)]
    return wc, subset


@settings(deadline=None, max_examples=40)
@given(_subcanvases())
def test_all_orders_matches_scalar_order_on_subcanvases(case):
    wc, subset = case
    sub = induced_subcanvas(wc, subset)
    assert sub.npixels == subset.bit_count()
    _assert_table_matches_order(sub)


def test_all_orders_large_offset():
    # orders above 2^16 must not wrap
    wc = WeightedCanvas.from_picture(fixture("mono2x2"), 40000)
    assert wc.order(0b0001) == 79998
    _assert_table_matches_order(wc)
    assert int(wc.all_orders().max()) == max(wc.order(a) for a in range(16))
    # the largest total edge weight that fits in uint32 is still exact
    two = WeightedCanvas.from_picture(picture(2, 1, [0, 0]), (1 << 32) - 1)
    assert two.all_orders().tolist() == [0, (1 << 32) - 1, (1 << 32) - 1, 0]
    with pytest.raises(PictureError):
        WeightedCanvas.from_picture(fixture("mono2x2"), 1 << 32)
    with pytest.raises(PictureError):
        WeightedCanvas.from_picture(picture(2, 1, [0, 0]), 1 << 32)


def test_order_table_over_physical_memory_is_refused(monkeypatch):
    # the memory probe is patched, so nothing near the limit is allocated
    wc = weighted(white2x2)   # 4 pixels: a 4 * 2^4 = 64-byte table
    monkeypatch.setattr(canvas_module, "_physical_memory", lambda: 63)
    with pytest.raises(CanvasSizeError, match="needs 64 bytes"):
        wc.all_orders()
    monkeypatch.setattr(canvas_module, "_physical_memory", lambda: 64)
    assert wc.all_orders().tolist() == [wc.order(a) for a in range(16)]
    # 32 pixels at the hard cap would ask for a 16 GiB table
    big = WeightedCanvas.from_picture(picture(8, 4, [0] * 32, pixel_cap=32))
    monkeypatch.setattr(canvas_module, "_physical_memory", lambda: (16 << 30) - 1)
    with pytest.raises(CanvasSizeError, match=f"needs {16 << 30} bytes"):
        analyze(big, pixel_cap=32)
    assert not big._order_cache


def test_physical_memory_probe():
    memory = canvas_module._physical_memory()
    assert memory is None or memory > 0


def test_cgroup_memory_limit_is_read(monkeypatch, tmp_path):
    limit = tmp_path / "memory.max"
    monkeypatch.setattr(canvas_module, "_CGROUP_MEMORY_MAX", str(limit))
    host = canvas_module._physical_memory()   # no limit file: the host's figure
    limit.write_text("max\n")
    assert canvas_module._physical_memory() == host
    if host is not None:
        limit.write_text(f"{2 * host}\n")
        assert canvas_module._physical_memory() == host
    wc = weighted(white2x2)   # a 64-byte order table
    limit.write_text("63\n")
    with pytest.raises(CanvasSizeError, match="needs 64 bytes"):
        wc.all_orders()
    limit.write_text("64\n")
    assert wc.all_orders().tolist() == [wc.order(a) for a in range(16)]
    # a path that cannot be read as a file leaves the host's figure
    monkeypatch.setattr(canvas_module, "_CGROUP_MEMORY_MAX", str(tmp_path))
    assert canvas_module._physical_memory() == host


@pytest.mark.parametrize("name", sorted(SMALL_PICTURES))
def test_submodularity_exhaustive_small(name):
    wc = weighted(SMALL_PICTURES[name])
    table = wc.all_orders().astype(np.int64)
    size = wc.full_mask + 1
    masks = np.arange(size, dtype=np.uint64)
    for a in range(size):
        inter = table[np.bitwise_and(np.uint64(a), masks)]
        union = table[np.bitwise_or(np.uint64(a), masks)]
        assert np.all(inter + union <= table[a] + table), f"violated at A={a:#x}"


@settings(deadline=None, max_examples=200)
@given(st.integers(0, (1 << 20) - 1), st.integers(0, (1 << 20) - 1))
def test_submodularity_random_large(a, b):
    wc = _RAND_WC
    assert (wc.order(a & b) + wc.order(a | b)
            <= wc.order(a) + wc.order(b))


_RAND_WC = weighted(rand4x5)
