"""End-to-end analysis pipeline and the versioned JSON report."""
from __future__ import annotations

import json
from dataclasses import asdict

from .canvas import _ORDER_LIMIT, DEFAULT_PIXEL_CAP, HARD_PIXEL_CAP, WeightedCanvas
from .duality import verify_duality
from .profiles import Profile, refines, regions, restrict
from .sepsys import build_universe
from .treeset import (TreeSet, TreeSetReport, build_distinguishing_tree_set,
                      outline, splitting_stars, verify_tree_set)

SCHEMA_VERSION = 1


def _hex(side: int) -> str:
    return f"{side:#x}"


def select_representatives(region_list) -> list[Profile]:
    """One maximal profile per region, dropping any that another induces."""
    reps = [r.members[-1] for r in region_list]
    reps.sort(key=Profile.key)
    kept: list[Profile] = []
    for p in reps:
        if any(q.k >= p.k and restrict(q, p.k) == p for q in reps if q != p):
            continue
        kept.append(p)
    return kept


def analyze(wc: WeightedCanvas,
            pixel_cap: int = DEFAULT_PIXEL_CAP) -> tuple[dict, bool]:
    """Full analysis; returns (report, all verifications passed).

    The verdict sweep runs before `regions`.  Its last level K* has no
    F-tangle, and where `verify_duality` settles K* by a verified chop
    tree it lists the level as empty, so `regions` reads that list
    instead of enumerating the level.  The sweep's other levels are
    answered in closed form or by a find-one search, and `regions`
    enumerates them as before."""
    pool = build_universe(wc, pixel_cap)
    # one sweep gives the verdicts and the resolution: F-tangle existence
    # is downward-closed in k, so stop after the first k without one
    verdicts = []
    resolution = 0
    for k in range(1, pool.max_order + 2):
        d = verify_duality(pool, k)
        verdicts.append({
            "k": k,
            "f_tangle": d.f_tangle is not None,
            "chop_tree": None if d.chop_tree_skipped else d.chop_tree is not None,
            "chop_tree_valid": (d.chop_tree_report.ok
                                if d.chop_tree_report is not None else None),
            "ok": d.ok,
        })
        if d.f_tangle is None:
            break
        resolution = k
    oks = [v["ok"] for v in verdicts]
    duality_ok = False if False in oks else "skipped" if "skipped" in oks else True

    region_list = regions(pool)

    reps = select_representatives(region_list)
    if len(reps) >= 2:
        tree = build_distinguishing_tree_set(reps, pool)
        tree_report = verify_tree_set(tree, reps)
    else:
        tree = TreeSet(pool, ())
        tree_report = TreeSetReport(True, True, True, True)

    region_entries = []
    for i, rho in enumerate(region_list):
        refined = [j for j, tau in enumerate(region_list)
                   if j != i and refines(rho, tau)]
        region_entries.append({
            "id": i,
            "complexity": rho.complexity,
            "cohesion": rho.cohesion,
            "visibility": rho.visibility,
            "refines": refined,
        })

    report = {
        "schema": SCHEMA_VERSION,
        "picture": {
            "width": wc.canvas.width,
            "height": wc.canvas.height,
            "n": wc.picture.n,
            "N": wc.N,
            "mode": "exact",
        },
        "max_order": pool.max_order,
        "regions": region_entries,
        "tree_set": [{"side": _hex(c), "order": pool.order_of(c)}
                     for c in tree.lines],
        "splitting_stars": [sorted(_hex(s) for s in star)
                            for star in splitting_stars(tree)],
        "outlines": [{"region": i, "star": sorted(_hex(s) for s in outline(rho, tree))}
                     for i, rho in enumerate(region_list)],
        "duality": {
            "verdicts": verdicts,
            "max_supported_resolution": resolution,
        },
        "verified": {
            "tree_set": asdict(tree_report),
            "duality": duality_ok,
        },
    }
    return report, tree_report.ok and duality_ok is not False


def encode_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def decode_report(text: str) -> dict:
    """Parse a report, refusing one that lacks what the renderers read: the
    picture's width and height, max_order, and each tree-set line's side
    and order.  The picture must have 1 to HARD_PIXEL_CAP pixels and each
    order must lie in 0..2^32-1, the bounds `WeightedCanvas.from_picture`
    sets, so that a renderer never divides by zero or allocates a huge
    canvas; a bool is no number here."""
    report = json.loads(text)
    schema = report.get("schema") if isinstance(report, dict) else None
    if schema != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {schema!r}")
    picture, lines = report.get("picture"), report.get("tree_set")
    if not (isinstance(picture, dict) and isinstance(lines, list)
            and all(isinstance(line, dict) and isinstance(line.get("side"), str)
                    for line in lines)
            and all(type(v) is int for v in [picture.get("width"), picture.get("height"),
                                             report.get("max_order"),
                                             *(line.get("order") for line in lines)])):
        raise ValueError("malformed report: it needs picture.width, picture.height, "
                         "max_order and a tree_set of lines with side and order")
    width, height = picture["width"], picture["height"]
    if not (width >= 1 and height >= 1 and width * height <= HARD_PIXEL_CAP):
        raise ValueError(f"malformed report: a {width}x{height} picture is not "
                         f"1 to {HARD_PIXEL_CAP} pixels")
    if not all(0 <= order <= _ORDER_LIMIT
               for order in [report["max_order"], *(line["order"] for line in lines)]):
        raise ValueError(f"malformed report: an order outside 0..{_ORDER_LIMIT}")
    return report
