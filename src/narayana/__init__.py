"""Rectangular Narayana polynomials, exactly.

Enumeration of lattice words, ballot paths, and standard Young tableaux;
descent generating functions; labeled-poset Eulerian polynomials and order
polynomials; and real-rootedness certified by exact root counts (hence
log-concavity and unimodality) over arbitrary-precision integers.
"""

__version__ = "0.1.0"

from .combinatorics import (
    DEFAULT_MAX_CELLS,
    BallotPath,
    BudgetExceededError,
    LatticeWord,
    Partition,
    StandardTableau,
    enumerate_ballot_paths,
    enumerate_lattice_words,
    enumerate_lines,
    enumerate_partitions,
    enumerate_syt,
    is_lattice_word,
    syt_count_hook,
)
from .polynomials import (
    IdentityReport,
    IntPolynomial,
    RealRootCertificate,
    is_log_concave,
    is_real_rooted,
    is_unimodal,
    newton_inequalities_hold,
    poly_gcd,
    square_free_part,
    sturm_real_root_count,
)
from .bijections import (
    path_to_word,
    perm_to_tableau,
    tableau_to_word,
    word_to_path,
    word_to_tableau,
)
from .posets import (
    LabeledPoset,
    antichain_poset,
    chain_poset,
    column_strict_ferrers_poset,
    column_strict_labeling,
    eulerian_polynomial,
    ferrers_poset,
    is_column_strict,
    jordan_holder_set,
    linear_extensions,
    order_polynomial_value,
    verify_ferrers_eulerian_identity,
    verify_order_gf,
)
from .generating import (
    narayana_polynomial,
    rectangular_catalan,
    syt_descent_polynomial,
    verify_sulanke_equidistribution,
    verify_tableau_identity,
)

__all__ = [
    "BallotPath",
    "BudgetExceededError",
    "DEFAULT_MAX_CELLS",
    "IdentityReport",
    "IntPolynomial",
    "LabeledPoset",
    "LatticeWord",
    "Partition",
    "RealRootCertificate",
    "StandardTableau",
    "antichain_poset",
    "chain_poset",
    "column_strict_ferrers_poset",
    "column_strict_labeling",
    "enumerate_ballot_paths",
    "enumerate_lattice_words",
    "enumerate_lines",
    "enumerate_partitions",
    "enumerate_syt",
    "eulerian_polynomial",
    "ferrers_poset",
    "is_column_strict",
    "is_lattice_word",
    "is_log_concave",
    "is_real_rooted",
    "is_unimodal",
    "jordan_holder_set",
    "linear_extensions",
    "narayana_polynomial",
    "newton_inequalities_hold",
    "order_polynomial_value",
    "path_to_word",
    "perm_to_tableau",
    "poly_gcd",
    "rectangular_catalan",
    "square_free_part",
    "sturm_real_root_count",
    "syt_count_hook",
    "syt_descent_polynomial",
    "tableau_to_word",
    "verify_ferrers_eulerian_identity",
    "verify_order_gf",
    "verify_sulanke_equidistribution",
    "verify_tableau_identity",
    "word_to_path",
    "word_to_tableau",
]
