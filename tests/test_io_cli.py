from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanglescope import (CanvasSizeError, PictureError, analyze, decode_report,
                         encode_report, fixture, format_grid, format_pgm,
                         parse_grid, parse_pgm, render_mask, render_svg)
from tanglescope import cli
from tanglescope.cli import main
from tanglescope.fixtures import fixture_canvas
from tanglescope.search import SearchDefect


# -- grid format --------------------------------------------------------------


def test_parse_grid_mono():
    p = parse_grid("2 2 1\n1 0\n0 0\n")
    assert p.values == fixture("mono2x2").values
    assert p.n == 1


def test_parse_grid_comments_and_hex():
    p = parse_grid("# comment\n2 2 4\na 0 # trailing\n0 f\n")
    assert p.values == (0xA, 0, 0, 0xF)


def test_parse_grid_errors():
    with pytest.raises(PictureError):
        parse_grid("2 2\n")
    with pytest.raises(PictureError):
        parse_grid("2 2 1\n1 0 0\n")
    with pytest.raises(PictureError):
        parse_grid("2 2 1\n1 0 0 z\n")
    # an absurd bit depth is checked without building 1 << n: a value that
    # cannot fit is a PictureError, and values that fit are accepted
    with pytest.raises(PictureError):
        parse_grid(f"1 2 {2 ** 62}\n0 -1\n")
    assert parse_grid(f"1 2 {2 ** 62}\n0 1\n").values == (0, 1)


def test_grid_round_trip():
    for name in ("mono2x2", "quad4x4", "noisedisc4x4"):
        p = fixture(name)
        assert parse_grid(format_grid(p, comment="note")).values == p.values


# -- pgm format ---------------------------------------------------------------


def test_parse_pgm_p2_threshold():
    p = parse_pgm(b"P2\n2 2\n255\n255 0\n0 0\n", n=1)
    assert p.values == (1, 0, 0, 0)


def test_parse_pgm_p5():
    p = parse_pgm(b"P5\n# c\n2 2\n255\n" + bytes([255, 0, 0, 0]), n=1)
    assert p.values == (1, 0, 0, 0)


def test_parse_pgm_wide_samples():
    data = b"P5\n2 1\n65535\n" + bytes([0xFF, 0xFF, 0x00, 0x00])
    p = parse_pgm(data, n=1)
    assert p.values == (1, 0)


def test_parse_pgm_gray_coding():
    # four uniform levels of a maxval-255 ramp, Gray-coded: 0,1,3,2
    data = b"P2\n4 1\n255\n0 64 128 192\n"
    p = parse_pgm(data, n=2)
    assert p.values == (0, 1, 3, 2)
    # adjacent levels differ in exactly one bit
    for a, b in zip(p.values, p.values[1:]):
        assert (a ^ b).bit_count() == 1


def test_parse_pgm_errors():
    with pytest.raises(PictureError):
        parse_pgm(b"P3\n1 1\n255\n0\n")
    with pytest.raises(PictureError):
        parse_pgm(b"P2\n2 2\n255\n0 0 0\n")
    with pytest.raises(PictureError):
        parse_pgm(b"P2\n1 1\n255\n300\n")
    with pytest.raises(PictureError):
        parse_pgm(b"P5\n2 2\n255\n\x00\x00")
    for n in (-1, 17, 2**62):
        with pytest.raises(PictureError):
            parse_pgm(b"P2\n1 1\n255\n0\n", n=n)


# -- parser fuzzing: any input either parses or raises a typed error ----------

_SIDE = st.integers(-2, 7)
_TOKEN = st.one_of(st.integers(-3, 70).map(str),
                   st.integers(0, 1 << 40).map(lambda v: f"{v:x}"),
                   st.sampled_from(["", "-", "x", "0x1", "1_0", "ff#", "#",
                                    "\u0663", "9" * 5000]))


@st.composite
def _grid_texts(draw):
    width, height = draw(_SIDE), draw(_SIDE)
    count = draw(st.one_of(st.just(max(width * height, 0)), st.integers(0, 30)))
    if draw(st.booleans()):
        header = [str(width), str(height), str(draw(st.integers(-1, 70)))]
    else:
        header = draw(st.lists(_TOKEN, min_size=3, max_size=3))
    body = draw(st.lists(_TOKEN, min_size=count, max_size=count))
    return "# fuzz\n" + " ".join(header) + "\n" + " ".join(body)


@st.composite
def _pgm_files(draw):
    magic = draw(st.sampled_from([b"P2", b"P5", b"P6", b"P"]))
    width, height = draw(_SIDE), draw(_SIDE)
    maxval = draw(st.sampled_from([-1, 0, 1, 3, 255, 256, 65535, 65536]))
    header = b"%s\n# fuzz\n%d %d\n%d\n" % (magic, width, height, maxval)
    if magic == b"P2":
        samples = draw(st.lists(st.integers(-2, 70000), max_size=30))
        return header + " ".join(map(str, samples)).encode()
    return header + draw(st.binary(max_size=100))


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.text(), _grid_texts()))
def test_parse_grid_raises_only_typed_errors(text):
    try:
        pic = parse_grid(text)
    except (PictureError, CanvasSizeError):
        return
    assert len(pic.values) == pic.canvas.npixels


@settings(deadline=None, max_examples=200)
@given(st.one_of(st.binary(), _pgm_files()), st.integers(-1, 18))
def test_parse_pgm_raises_only_typed_errors(data, n):
    try:
        pic = parse_pgm(data, n=n)
    except (PictureError, CanvasSizeError):
        return
    assert len(pic.values) == pic.canvas.npixels
    assert all(v < 1 << n for v in pic.values)


def test_format_pgm_round_trip():
    data = format_pgm([0, 1, 2, 3], 2, 2, maxval=3)
    p = parse_pgm(data, n=2)
    assert len(p.values) == 4


# -- report -------------------------------------------------------------------


@pytest.fixture(scope="module")
def mono_report(wc_mono):
    report, ok = analyze(wc_mono)
    assert ok
    return report


def test_report_round_trip(mono_report):
    assert decode_report(encode_report(mono_report)) == mono_report


def test_report_schema_rejected(mono_report):
    bad = dict(mono_report, schema=99)
    with pytest.raises(ValueError):
        decode_report(json.dumps(bad))


def test_report_contents_mono(mono_report):
    assert mono_report["duality"]["max_supported_resolution"] == 2
    assert len(mono_report["regions"]) == 1
    # a single region leaves nothing to distinguish
    assert mono_report["tree_set"] == []


def test_report_contents_quad(wc_quad):
    report, ok = analyze(wc_quad)
    assert ok
    assert len(report["tree_set"]) == 3
    assert report["duality"]["max_supported_resolution"] == 5


# -- renders ------------------------------------------------------------------


def _single_line_report():
    return {"picture": {"width": 2, "height": 2}, "max_order": 2,
            "tree_set": [{"side": "0xe", "order": 0}]}


def test_render_svg_single_line():
    svg = render_svg(_single_line_report())
    assert svg.count("<polyline") == 1
    # the line around p00 stitches into one 2-segment path
    assert 'points="0,1 1,1 1,0"' in svg


def test_render_svg_empty_tree():
    report = {"picture": {"width": 2, "height": 2}, "max_order": 4,
              "tree_set": []}
    svg = render_svg(report)
    assert "<polyline" not in svg and svg.startswith("<svg")


def test_render_mask_single_line():
    pgm = render_mask(_single_line_report())
    p = parse_pgm(pgm, n=1)
    assert p.canvas.npixels == 4
    # the line touches pixels p00, p01, p10 but not p11
    body = [int(t) for t in pgm.split()[4:]]
    assert body == [1, 1, 1, 0]


def test_render_quad_polylines(wc_quad):
    report, _ = analyze(wc_quad)
    svg = render_svg(report)
    assert svg.count("<polyline") == 3


def test_render_deterministic(wc_quad):
    report, _ = analyze(wc_quad)
    assert render_svg(report) == render_svg(report)
    assert render_mask(report) == render_mask(report)


# -- fixtures -----------------------------------------------------------------


def test_fixture_properties():
    l = fixture("miniL")
    assert (l.canvas.width, l.canvas.height) == (5, 5)
    assert sum(l.values) == 7
    checker = fixture("checker4x4")
    assert all(v == (r + c) % 2
               for r in range(4) for c in range(4)
               for v in [checker.values[r * 4 + c]])
    assert fixture("noisedisc4x4").values == fixture("noisedisc4x4").values
    with pytest.raises(ValueError):
        fixture("nosuch")


# -- cli ----------------------------------------------------------------------


def test_cli_end_to_end(tmp_path, capsys):
    assert main(["fixtures", "mono2x2", "-o", str(tmp_path)]) == 0
    grid = tmp_path / "mono2x2.grid"
    assert grid.exists()
    capsys.readouterr()

    report_path = tmp_path / "report.json"
    assert main(["analyze", str(grid), "--json", str(report_path)]) == 0
    out = capsys.readouterr().out
    report = decode_report(out)
    assert report == decode_report(report_path.read_text())
    assert report["duality"]["max_supported_resolution"] == 2

    svg = tmp_path / "lines.svg"
    mask = tmp_path / "lines.pgm"
    assert main(["render", str(report_path), "--style", "svg", "-o", str(svg)]) == 0
    assert main(["render", str(report_path), "--style", "mask", "-o", str(mask)]) == 0
    assert svg.read_text().startswith("<svg")
    assert mask.read_bytes().startswith(b"P2")

    assert main(["resolution", str(grid)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_resolution_subset(tmp_path, capsys):
    main(["fixtures", "noisedisc4x4", "-o", str(tmp_path)])
    capsys.readouterr()
    grid = str(tmp_path / "noisedisc4x4.grid")
    assert main(["resolution", grid, "--subset", "777"]) == 0
    block_res = int(capsys.readouterr().out)
    assert main(["resolution", grid, "--subset", "f888"]) == 0
    rest_res = int(capsys.readouterr().out)
    assert block_res > rest_res


def test_cli_fixture_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["fixtures", "noisedisc4x4", "-o", str(a)])
    main(["fixtures", "noisedisc4x4", "-o", str(b)])
    fa = (a / "noisedisc4x4.grid").read_bytes()
    assert fa == (b / "noisedisc4x4.grid").read_bytes()
    assert b"lcg" in fa


def _report(width=2, height=2, max_order=2, order=1):
    """A schema-1 report with the fields the renderers read, one line."""
    return {"schema": 1, "picture": {"width": width, "height": height},
            "max_order": max_order, "tree_set": [{"side": "0x1", "order": order}]}


# bad reports by file name: the renderers would divide by zero, overflow or
# allocate a huge canvas on the range cases, so decode_report refuses them
_BAD_REPORTS = {
    "report": {"schema": "tanglescope.report/0"},
    "fieldless": {"schema": 1},
    "listed": [],
    "bool_width": _report(width=True),
    "bool_order": _report(order=True),
    "zero_height": _report(height=0),
    "oversize": _report(6, 6),
    "negative_max_order": _report(max_order=-1),
    "huge_max_order": _report(max_order=10**400),
    "huge_order": _report(order=1 << 32),
}


@pytest.mark.parametrize("argv", [
    ["resolution", "{grid}", "--subset", "zz"],
    ["resolution", "{grid}", "--subset", "0"],
    ["resolution", "{grid}", "--subset", "10000"],
    ["analyze", "{grid}", "--N", "-3"],
    ["analyze", "{grid}", "--pixel-cap", "0"],
    ["analyze", "{missing}"],
    ["render", "{report}", "--style", "svg", "-o", "{svg}"],
    ["render", "{fieldless}", "--style", "svg", "-o", "{svg}"],
    ["render", "{listed}", "--style", "mask", "-o", "{svg}"],
    ["analyze", "{grid}", "--N", "x"],
    ["analyze"],
    ["render", "{report}", "--style", "png", "-o", "{svg}"],
    ["render", "{bool_width}", "--style", "svg", "-o", "{svg}"],
    ["render", "{bool_order}", "--style", "svg", "-o", "{svg}"],
    ["render", "{zero_height}", "--style", "mask", "-o", "{svg}"],
    ["render", "{oversize}", "--style", "mask", "-o", "{svg}"],
    ["render", "{negative_max_order}", "--style", "svg", "-o", "{svg}"],
    ["render", "{huge_max_order}", "--style", "svg", "-o", "{svg}"],
    ["render", "{huge_order}", "--style", "svg", "-o", "{svg}"],
], ids=["subset-not-hex", "subset-empty", "subset-outside", "negative-N",
        "pixel-cap-0", "missing-input", "report-schema", "report-fields",
        "report-not-object", "N-not-int", "no-input", "unknown-style",
        "report-bool-width", "report-bool-order", "report-zero-height",
        "report-oversize", "report-negative-max-order", "report-huge-max-order",
        "report-huge-order"])
def test_cli_input_errors_exit_1_on_one_line(tmp_path, capsys, argv):
    main(["fixtures", "mono2x2", "-o", str(tmp_path)])
    paths = {"grid": tmp_path / "mono2x2.grid", "missing": tmp_path / "missing.grid",
             "svg": tmp_path / "lines.svg"}
    for name, report in _BAD_REPORTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(report))
    capsys.readouterr()
    assert main([a.format_map(paths) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tanglescope: error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_render_accepts_the_report_bounds(tmp_path):
    # the largest picture and order decode_report allows still render
    path, svg = tmp_path / "edge.json", tmp_path / "edge.svg"
    path.write_text(json.dumps(_report(4, 8, max_order=(1 << 32) - 1, order=0)))
    assert main(["render", str(path), "--style", "svg", "-o", str(svg)]) == 0
    assert main(["render", str(path), "--style", "mask", "-o", str(svg)]) == 0


@pytest.mark.parametrize("command", ["analyze", "resolution"])
def test_cli_internal_check_failure_exits_2_on_one_line(monkeypatch, tmp_path, capsys,
                                                        command):
    # a SearchDefect is a failed verification, not bad input
    def defect(*args, **kwargs):
        raise SearchDefect("planted internal check failure")
    monkeypatch.setattr(cli, "analyze", defect)
    monkeypatch.setattr(cli, "max_supported_resolution", defect)
    main(["fixtures", "mono2x2", "-o", str(tmp_path)])
    capsys.readouterr()
    assert main([command, str(tmp_path / "mono2x2.grid")]) == 2
    err = capsys.readouterr().err
    assert err == "tanglescope: error: planted internal check failure\n"


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "usage: tanglescope analyze" in capsys.readouterr().out
