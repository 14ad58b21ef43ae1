"""Exact computer algebra for free Hopf algebras on matrix coalgebras.

The package realizes three families over an n x n matrix coalgebra:

  variant "free"    level domain N,    antipode injective, never surjective
  variant "bij"     level domain Z,    antipode bijective
  variant "ord:<d>" level domain Z/2d, antipode of order dividing 2d

Elements are exact linear combinations of irreducible words for a
confluent rewriting system; products, coproducts, counits, and antipode
powers are computed on that basis over the rationals or a prime field.
"""

from .fields import Field
from .hopf import Element, FreeHopfAlgebra, Tensor, parse_variant
from .linalg import Echelon, kernel
from .parsing import ParseError, parse_element
from .rewrite import RuleSet, check_confluence, rules_for
from .words import UNIT, LevelDomain, word_str
from .analysis import (
    ScanReport,
    Subspace,
    Verdict,
    alternating_span,
    antipode_power_report,
    find_grouplikes,
    find_primitives,
    gaussian_binomial,
    irreducible_level_span,
    is_subcoalgebra,
    largest_subcoalgebra,
    level_span,
    scan_matrix_subcoalgebras,
    tensor_membership,
    verify_coalgebra_map,
)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"

__all__ = [
    "Echelon",
    "Element",
    "Field",
    "FreeHopfAlgebra",
    "LevelDomain",
    "ParseError",
    "RuleSet",
    "ScanReport",
    "SUITE_NAMES",
    "Subspace",
    "Tensor",
    "UNIT",
    "Verdict",
    "alternating_span",
    "antipode_power_report",
    "check_confluence",
    "find_grouplikes",
    "find_primitives",
    "gaussian_binomial",
    "irreducible_level_span",
    "is_subcoalgebra",
    "kernel",
    "largest_subcoalgebra",
    "level_span",
    "parse_element",
    "parse_variant",
    "rules_for",
    "run_suite",
    "scan_matrix_subcoalgebras",
    "tensor_membership",
    "verify_coalgebra_map",
    "word_str",
    "__version__",
]
