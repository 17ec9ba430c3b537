"""Semiring provenance: ``N[X]`` polynomials through query rewriting.

This package adds a second contribution semantics next to the paper's
witness lists: provenance polynomials over abstract commutative
semirings.  ``SELECT PROVENANCE (polynomial) ...`` rewrites a query into
an ordinary query whose result carries one ``prov_polynomial`` column;
evaluating that polynomial in a registered semiring specializes it to bag
multiplicities (counting), lineage (boolean), minimal derivation cost
(tropical) or any custom domain.

Intentionally lightweight: importing this package pulls only the value
types and the semiring registry.  The polynomial annotation scheme
(``repro.semiring.rewriter``), which the one traversal of
``repro.core.rewriter`` runs under, loads on demand through the registry
in ``repro.core.registry``.
"""

from repro.semiring.minting import TupleVariableMinter, mint_variable
from repro.semiring.polynomial import Polynomial
from repro.semiring.semirings import (
    BOOLEAN,
    COUNTING,
    POLYNOMIAL,
    TROPICAL,
    Semiring,
    get_semiring,
    register_semiring,
    semiring_names,
)

__all__ = [
    "Polynomial",
    "Semiring",
    "COUNTING",
    "BOOLEAN",
    "TROPICAL",
    "POLYNOMIAL",
    "get_semiring",
    "register_semiring",
    "semiring_names",
    "TupleVariableMinter",
    "mint_variable",
]
