"""Exact tangle-style structure analysis for tiny raster pictures."""

from .canvas import (Canvas, CanvasSizeError, Picture, PictureError,
                     WeightedCanvas, attach_picture, boundary,
                     build_grid_canvas, edge_weight, suggest_N)
from .duality import (ChopTree, StarSetF, build_chop_tree, find_f_tangle,
                      induced_subcanvas, max_supported_resolution,
                      verify_chop_tree, verify_duality)
from .fixtures import FIXTURE_NAMES, fixture, fixture_canvas
from .io import format_grid, format_pgm, load_picture, parse_grid, parse_pgm
from .profiles import (Orientation, Profile, Region, distinguishable,
                       distinguishes, enumerate_profiles, equivalent, induces,
                       is_focused, is_principal, is_profile, refines, regions,
                       restrict)
from .render import render_mask, render_svg
from .report import analyze, decode_report, encode_report
from .sepsys import SeparationPool, Stratum, build_universe
from .treeset import (TreeSet, build_distinguishing_tree_set,
                      consistent_orientations, min_distinguishers, outline,
                      splitting_stars, verify_tree_set)

__version__ = "1.0.0"
