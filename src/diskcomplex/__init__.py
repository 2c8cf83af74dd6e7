"""Interval curves in the disk complex of a chain surface.

The chain surface of genus g is the orientable surface with one boundary
component fattened from a chain of 2g circles; it splits a genus-2g
double into two handlebodies, and a curve class is a disk vertex when it
bounds a disk in at least one of them.  This package models the surface
as a ribbon graph, computes intersection numbers of free homotopy
classes, builds the finite complex spanned by the regular-neighborhood
frontier curves of circle intervals, and certifies its homology type
exactly over the integers, by coreduction and a Smith normal form of the
cells it leaves.
"""

from .complexes import (
    HomologyProfile,
    PseudomanifoldReport,
    SimplicialComplex,
    flag_from_graph,
    pseudomanifold_check,
    reduced_homology,
    smith_normal_form,
)
from .errors import (
    BudgetError,
    CurveError,
    DomainError,
    HypothesisError,
    InternalInvariantError,
    IntervalError,
    SchemaError,
    TrivialWordError,
    UnsupportedCut,
)
from .handles import Side, bounds_disk_sides, dies_on, is_disk_vertex, kill_word
from .intervals import (
    Interval,
    IntervalComplexBuild,
    IntervalVertex,
    OddChoice,
    all_intervals,
    bbm_vertices,
    build_complex,
    interval_walks,
    x_curve,
)
from .ribbon import ChainSurface, RibbonGraph, chain_surface, normalize_walk
from .sampler import (
    ConnectivityProbe,
    GammaSample,
    connectivity_probe,
    max_simplex_probe,
    sample_gamma,
)
from .split import (
    CoreCurve,
    DimensionTarget,
    NeighborhoodBoundary,
    SplitReport,
    bookkeeping_check,
    complement_of_neighborhood,
    cut_along,
    cut_cycle,
    dims,
    parse_curve_token,
)
from .words import (
    CurveClass,
    CyclicOrder,
    algebraic_intersection,
    canonical_unoriented,
    cyclic_reduce,
    free_reduce,
    geometric_intersection,
    inverse,
    is_essential,
    letter_key,
    parse_word,
    render_word,
    self_intersection,
    shortlex_key,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "ChainSurface",
    "ConnectivityProbe",
    "CoreCurve",
    "CurveClass",
    "CurveError",
    "CyclicOrder",
    "DimensionTarget",
    "DomainError",
    "GammaSample",
    "HomologyProfile",
    "HypothesisError",
    "InternalInvariantError",
    "Interval",
    "IntervalComplexBuild",
    "IntervalError",
    "IntervalVertex",
    "NeighborhoodBoundary",
    "OddChoice",
    "PseudomanifoldReport",
    "RibbonGraph",
    "SchemaError",
    "Side",
    "SimplicialComplex",
    "SplitReport",
    "TrivialWordError",
    "UnsupportedCut",
    "algebraic_intersection",
    "all_intervals",
    "bbm_vertices",
    "bookkeeping_check",
    "bounds_disk_sides",
    "build_complex",
    "canonical_unoriented",
    "chain_surface",
    "complement_of_neighborhood",
    "connectivity_probe",
    "cut_along",
    "cut_cycle",
    "cyclic_reduce",
    "dies_on",
    "dims",
    "flag_from_graph",
    "free_reduce",
    "geometric_intersection",
    "interval_walks",
    "inverse",
    "is_disk_vertex",
    "is_essential",
    "kill_word",
    "letter_key",
    "max_simplex_probe",
    "normalize_walk",
    "parse_curve_token",
    "parse_word",
    "pseudomanifold_check",
    "reduced_homology",
    "render_word",
    "sample_gamma",
    "self_intersection",
    "shortlex_key",
    "smith_normal_form",
    "x_curve",
]
