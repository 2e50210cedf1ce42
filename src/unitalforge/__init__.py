"""Unitals in shift planes of odd order: construction and certification.

The pipeline runs bottom-up: exact arithmetic in F_{p^m} (`gf`), a catalog
of planar functions with computational planarity certificates (`planar`),
the projective plane of order q^2 each one generates together with its
translation, scaling, and shear collineations (`plane`), unital point sets
of size q^3 + 1 with embedded- and design-level certification (`unital`),
and the discriminating invariants: circle designs, Wilbrink vertices, O'Nan
configurations, stabilizer subgroups (`analysis`).  `suite` bundles the
acceptance matrix and `cli` exposes everything as subcommands.
"""

__version__ = "0.1.0"

from . import analysis, errors, gf, planar, plane, suite, unital
from .gf import ExtensionSplit, FieldCtx, field_new, split_new
from .plane import Gamma, Shift, ShiftPlane, Sigma
from .planar import PlanarFunctionSpec, certify, parse_spec
from .unital import (
    InvolutionSpec,
    Unital,
    build_classical_baseline,
    build_parabolic_unital,
    build_polarity_unital,
)

__all__ = [
    "analysis", "errors", "gf", "planar", "plane", "suite", "unital",
    "ExtensionSplit", "FieldCtx", "field_new", "split_new",
    "Gamma", "Shift", "ShiftPlane", "Sigma",
    "PlanarFunctionSpec", "certify", "parse_spec",
    "InvolutionSpec", "Unital", "build_classical_baseline",
    "build_parabolic_unital", "build_polarity_unital",
]
