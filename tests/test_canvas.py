from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (SMALL_PICTURES, lshape3x3, one_pixel, picture, rand4x5,
                    random_weighted, weighted, white2x2)
from oracles import full_orders
from tanglescope import (CanvasSizeError, PictureError, WeightedCanvas, analyze,
                         attach_picture, boundary, build_grid_canvas, build_universe,
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
    # the factored half table, and through full_orders every subset it
    # folds onto it
    t = wc.all_orders()
    assert len(t.block_min) * t.rows.shape[1] == 1 << (wc.npixels - 1)
    table = full_orders(wc)
    for a in range(wc.full_mask + 1):
        assert int(table[a]) == wc.order(a)


def test_all_orders_matches_scalar_order():
    for builder in (lshape3x3, white2x2, one_pixel):
        _assert_table_matches_order(weighted(builder))


@settings(deadline=None, max_examples=40)
@given(random_weighted(max_extra_N=10**6))
def test_all_orders_matches_scalar_order_random(wc):
    _assert_table_matches_order(wc)


@pytest.mark.parametrize("builder", [one_pixel, white2x2, lshape3x3, rand4x5])
@pytest.mark.parametrize("N_extra", [0, 300, 70000])
def test_order_table_holds_one_order_per_bipartition(builder, N_extra):
    pic = builder()
    wc = WeightedCanvas.from_picture(pic, suggest_N(pic) + N_extra)
    table = wc.all_orders()
    n = wc.npixels
    assert len(table.block_min) * table.rows.shape[1] == 1 << (n - 1)
    assert len(full_orders(wc)) == 1 << n
    # the rows take no more bytes than one order per bipartition
    assert table.rows.nbytes <= table.rows.itemsize << (n - 1)


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


# shapes of 14 to 16 pixels, whose order tables span 2 to 8 blocks
_MULTI_BLOCK_SHAPES = [(2, 7), (7, 2), (3, 5), (5, 3), (2, 8), (8, 2), (4, 4)]


@st.composite
def _factored_cases(draw):
    """A random 1- or 2-bit picture of one order-table block (at most 9
    pixels) or of several (14 to 16 pixels), with an offset N that puts the
    table in uint8, uint16 or uint32; half of them replaced by the canvas
    induced on a random pixel subset, whose edges are a subset of the
    grid's."""
    width, height = draw(st.one_of(
        st.integers(1, 9).flatmap(lambda w: st.tuples(st.just(w), st.integers(1, 9 // w))),
        st.sampled_from(_MULTI_BLOCK_SHAPES)))
    n = draw(st.integers(1, 2))
    values = draw(st.lists(st.integers(0, (1 << n) - 1),
                           min_size=width * height, max_size=width * height))
    pic = picture(width, height, values, n=n)
    extra = draw(st.one_of(st.integers(0, 3), st.integers(300, 20000),
                           st.integers(70000, 10**8)))
    wc = WeightedCanvas.from_picture(pic, suggest_N(pic) + extra)
    if draw(st.booleans()):
        wc = induced_subcanvas(wc, draw(st.integers(1, wc.full_mask)))
    return wc


def _summed_orders(wc):
    # wc.order of every subset at once: N - delta summed over the edges
    # whose endpoints the subset separates
    sides = np.arange(wc.full_mask + 1, dtype=np.int64)
    orders = np.zeros(len(sides), np.int64)
    for (p, q), d in zip(wc.canvas.edges, wc.delta):
        orders += (wc.N - d) * ((sides >> p ^ sides >> q) & 1)
    return orders


@settings(deadline=None, max_examples=60)
@given(_factored_cases(), st.lists(st.integers(0, (1 << 16) - 1), min_size=40, max_size=40))
def test_factored_orders_match_scalar_order(wc, samples):
    # block_min[h] + rows[pattern(h)][l] is the order of side h * 2^b + l
    table = wc.all_orders()
    orders = full_orders(wc)
    total = sum(wc.N - d for d in wc.delta)
    assert orders.dtype == table.block_min.dtype == np.min_scalar_type(total)
    assert np.array_equal(orders.astype(np.int64), _summed_orders(wc))
    pool = build_universe(wc)
    for side in samples:
        side &= wc.full_mask
        assert int(orders[side]) == wc.order(side) == pool.order_of(side)
    sides = np.arange(wc.full_mask + 1, dtype=np.uint32)
    assert np.array_equal(pool.orders_of(sides), orders)
    # block_min is each block's minimum, and max_order the largest order
    half = orders[:len(orders) // 2]
    assert np.array_equal(table.block_min, half.reshape(len(table.block_min), -1).min(axis=1))
    assert table.rows.min(axis=1).tolist() == [0] * len(table.rows)
    assert pool.max_order == int(orders.max())


def test_all_orders_large_offset():
    # orders above 2^16 must not wrap
    wc = WeightedCanvas.from_picture(fixture("mono2x2"), 40000)
    assert wc.order(0b0001) == 79998
    _assert_table_matches_order(wc)
    assert int(full_orders(wc).max()) == max(wc.order(a) for a in range(16))
    # the largest total edge weight that fits in uint32 is still exact
    two = WeightedCanvas.from_picture(picture(2, 1, [0, 0]), (1 << 32) - 1)
    assert full_orders(two).tolist() == [0, (1 << 32) - 1, (1 << 32) - 1, 0]
    with pytest.raises(PictureError):
        WeightedCanvas.from_picture(fixture("mono2x2"), 1 << 32)
    with pytest.raises(PictureError):
        WeightedCanvas.from_picture(picture(2, 1, [0, 0]), 1 << 32)


# (picture, N, total edge weight, narrowest dtype): the 2x1 picture of two
# equal pixels has one edge of weight N; mono2x2's four edges have delta
# (1, 1, 0, 0), so its total 4N - 2 is even and straddles each boundary
_WIDTH_CASES = [
    *(("2x1", total, total, dtype)
      for total, dtype in ((255, np.uint8), (256, np.uint16), (65535, np.uint16),
                           (65536, np.uint32), ((1 << 32) - 1, np.uint32))),
    *(("mono2x2", N, 4 * N - 2, dtype)
      for N, dtype in ((64, np.uint8), (65, np.uint16), (16384, np.uint16),
                       (16385, np.uint32), (1 << 30, np.uint32))),
]


@pytest.mark.parametrize("name, N, total, dtype", _WIDTH_CASES)
def test_order_table_width_boundaries(name, N, total, dtype):
    pic = picture(2, 1, [0, 0]) if name == "2x1" else fixture(name)
    wc = WeightedCanvas.from_picture(pic, N)
    assert sum(N - d for d in wc.delta) == total
    assert full_orders(wc).dtype == dtype
    assert full_orders(wc).tolist() == [wc.order(a) for a in range(wc.full_mask + 1)]


def test_order_table_over_physical_memory_is_refused(monkeypatch):
    # the memory probe is patched, so nothing near the limit is allocated
    wc = weighted(white2x2)   # 4 pixels, total weight 0: one uint8 block of
    # 2^3 orders, its block minimum and a one-byte pattern index: 10 bytes
    monkeypatch.setattr(canvas_module, "_physical_memory", lambda: 9)
    with pytest.raises(CanvasSizeError, match="needs 10 bytes"):
        wc.all_orders()
    monkeypatch.setattr(canvas_module, "_physical_memory", lambda: 10)
    assert full_orders(wc).tolist() == [wc.order(a) for a in range(16)]
    # a total weight of 4 * 70000 needs uint32: 4 * 9 + 1 = 37 bytes
    wide = WeightedCanvas.from_picture(white2x2(), 70000)
    monkeypatch.setattr(canvas_module, "_physical_memory", lambda: 36)
    with pytest.raises(CanvasSizeError, match="needs 37 bytes"):
        wide.all_orders()
    monkeypatch.setattr(canvas_module, "_physical_memory", lambda: 37)
    assert full_orders(wide).tolist() == [wide.order(a) for a in range(16)]
    # 32 flat pixels at the hard cap: a factored table of 2^19 block minima
    # and one row, but stratum 1 would hold 2^31 sides, 8 GiB of uint32.
    # It is refused after counting, before anything near that is allocated
    big = WeightedCanvas.from_picture(picture(8, 4, [0] * 32, pixel_cap=32))
    monkeypatch.setattr(canvas_module, "_physical_memory", lambda: (8 << 30) - 1)
    tracemalloc.start()
    try:
        with pytest.raises(CanvasSizeError, match=f"stratum 1 .* needs {8 << 30} bytes"):
            analyze(big, pixel_cap=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(big._order_cache["orders"].block_min) == 1 << 19


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
    wc = weighted(white2x2)   # a 10-byte uint8 order table
    limit.write_text("9\n")
    with pytest.raises(CanvasSizeError, match="needs 10 bytes"):
        wc.all_orders()
    limit.write_text("10\n")
    assert full_orders(wc).tolist() == [wc.order(a) for a in range(16)]
    # a path that cannot be read as a file leaves the host's figure
    monkeypatch.setattr(canvas_module, "_CGROUP_MEMORY_MAX", str(tmp_path))
    assert canvas_module._physical_memory() == host


@pytest.mark.parametrize("name", sorted(SMALL_PICTURES))
def test_submodularity_exhaustive_small(name):
    wc = weighted(SMALL_PICTURES[name])
    table = full_orders(wc).astype(np.int64)
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
