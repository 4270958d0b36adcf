"""Exact-arithmetic toolkit for homology triplets (B, H, C) over [0, n]:
Hilbert-polynomial coefficient vectors, hypercohomology tables, Betti
diagrams of the associated pure free squarefree complexes, and classical
pure resolutions from supernatural root sequences."""

from .classical import (
    PureComplexReport,
    RootSequence,
    buchsbaum_rim,
    eagon_northcott,
    pure_zip,
    schur_roots,
    supernatural_table,
    tensor_roots,
)
from .core import HomologyTriplet, enumerate_triplets, validate_triplet
from .degsets import balanced, reflect
from .errors import ConsistencyError, DegenerateSystem, TripletError
from .linalg import nullspace
from .solver import (
    AlphaVector,
    BettiDiagram,
    ChiFamily,
    betti,
    build_equations,
    chi_family,
    solve_alpha,
)
from .squarefree import rotated_betti_via_strands, triplet_betti
from .tables import HyperTable, full_table, render

__version__ = "0.1.0"
