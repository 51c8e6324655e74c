"""Exact Turan expressions for polynomial sequences and weak Hurwitz
stability certificates, all in rational arithmetic."""

from .polycore import Poly, gcd, squarefree_part
from .sequences import SequenceSpec, generate, spec, verify_relation
from .stability import (
    StabilityCertificate,
    cross_check_oracle,
    interlace_check,
    is_weakly_hurwitz,
    isolate_extreme_roots,
    nonvanishing_halfplane,
    rotate,
    all_roots_real,
)
from .expressions import (
    build_expression,
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
    "squarefree_part",
    "SequenceSpec",
    "spec",
    "generate",
    "verify_relation",
    "StabilityCertificate",
    "rotate",
    "is_weakly_hurwitz",
    "cross_check_oracle",
    "interlace_check",
    "isolate_extreme_roots",
    "nonvanishing_halfplane",
    "all_roots_real",
    "build_expression",
    "turan",
    "extended_turan",
    "extended_laguerre",
    "wronskian",
    "fisk_expression",
]
