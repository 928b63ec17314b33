"""Bijections between Dyck paths with parity-constrained peak heights and
restricted Motzkin paths, with exhaustive enumeration and cross-checks.
"""
from .paths import (
    DyckPath,
    MotzkinPath,
    PeakParityClass,
    PeakParityError,
    classify,
    stats,
)
from .trees import (
    OrderedTree,
    color_edges,
    glove_to_dyck,
    glove_to_tree,
    relocate_reds,
    walk_to_motzkin,
)
from .bijections import (
    MapKind,
    explicit_a,
    explicit_b,
    phi_a,
    phi_b,
    psi_a,
    psi_b,
    tirrell_a,
    tirrell_a_inv,
    tirrell_b,
    tirrell_b_inv,
)
from .enumeration import PathClass, count_table, generate
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "DyckPath",
    "MapKind",
    "MotzkinPath",
    "OrderedTree",
    "PathClass",
    "PeakParityClass",
    "PeakParityError",
    "classify",
    "color_edges",
    "count_table",
    "explicit_a",
    "explicit_b",
    "generate",
    "glove_to_dyck",
    "glove_to_tree",
    "phi_a",
    "phi_b",
    "psi_a",
    "psi_b",
    "relocate_reds",
    "run_verification",
    "stats",
    "tirrell_a",
    "tirrell_a_inv",
    "tirrell_b",
    "tirrell_b_inv",
    "walk_to_motzkin",
]
