"""Exact Turan expressions for polynomial sequences and weak Hurwitz
stability certificates, all in rational arithmetic."""

from .polycore import Poly, gcd
from .sequences import SequenceSpec, generate, spec, verify_relation
from .stability import (
    StabilityCertificate,
    interlace_check,
    is_weakly_hurwitz,
    isolate_extreme_roots,
    nonvanishing_halfplane,
    rotate,
    all_roots_real,
)
from .expressions import (
    extended_laguerre,
    extended_turan,
    fisk_expression,
    turan,
    wronskian,
)

__version__ = "0.1.0"

__all__ = [
    "Poly",
    "gcd",
    "SequenceSpec",
    "spec",
    "generate",
    "verify_relation",
    "StabilityCertificate",
    "rotate",
    "is_weakly_hurwitz",
    "interlace_check",
    "isolate_extreme_roots",
    "nonvanishing_halfplane",
    "all_roots_real",
    "turan",
    "extended_turan",
    "extended_laguerre",
    "wronskian",
    "fisk_expression",
]
