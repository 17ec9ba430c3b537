"""``N[X]`` provenance polynomials (how-provenance).

A provenance polynomial annotates a result tuple with *how* it was derived
from base tuples: each base tuple contributes an abstract variable, joins
multiply annotations and alternative derivations add them (Green et al.,
"Provenance Semirings").  ``N[X]`` -- polynomials with natural-number
coefficients over tuple variables -- is the most general such annotation
domain: evaluating a polynomial under a valuation into any commutative
semiring specializes it to that semiring's notion of provenance (bag
multiplicity, lineage, minimal cost, ...).

Polynomials are kept in a canonical normal form (a sorted sum of monomials
with collected coefficients), so structurally different derivations of the
same polynomial compare and hash equal.  Instances are immutable and
usable as SQL values: they flow through plan nodes, group keys and set
operations like any other cell value.

Only outside input (``Polynomial(mapping)``, :meth:`from_wire`) is
normalized; the operations build canonical results via :func:`_canonical`.
"""

from __future__ import annotations

import json
from functools import reduce
from operator import mul
from typing import Any, Callable, Iterable, Mapping, Optional, TYPE_CHECKING

from repro.semiring.minting import mint_variable

if TYPE_CHECKING:  # pragma: no cover
    from repro.semiring.semirings import Semiring

# A monomial maps variables to positive exponents; canonically a tuple of
# (variable, exponent) pairs sorted by variable name.
Monomial = tuple[tuple[str, int], ...]
Terms = tuple[tuple[Monomial, int], ...]

_CONSTANT_MONOMIAL: Monomial = ()


class Polynomial:
    """An immutable, normalized ``N[X]`` polynomial."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None) -> None:
        normalized: dict[Monomial, int] = {}
        if terms:
            for monomial, coefficient in terms.items():
                if coefficient < 0:
                    raise ValueError(
                        f"N[X] coefficients are natural numbers, got {coefficient}"
                    )
                if coefficient:
                    key = _normalize_monomial(monomial)
                    normalized[key] = normalized.get(key, 0) + coefficient
        self._terms: Terms = tuple(sorted(normalized.items()))
        self._hash = hash(self._terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        """The additive identity (annotation of an absent tuple)."""
        return _ZERO

    @classmethod
    def one(cls) -> "Polynomial":
        """The multiplicative identity (annotation of an unconditional fact)."""
        return _ONE

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        """The polynomial consisting of one tuple variable."""
        return _canonical(((((name, 1),), 1),))

    @classmethod
    def constant(cls, value: int) -> "Polynomial":
        return cls({_CONSTANT_MONOMIAL: value}) if value else _ZERO

    # -- semiring operations ------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.sum_all((self, other))

    @classmethod
    def sum_all(cls, polynomials: Iterable["Polynomial"]) -> "Polynomial":
        """The semiring sum of many polynomials in one pass.

        Equivalent to folding ``+`` (addition is associative and
        commutative, and the result is canonical either way) but O(total
        terms) instead of re-sorting the growing partial sum at every
        step — the accumulation pattern of the vectorized
        ``perm_poly_sum`` aggregate over a whole column.
        """
        terms: dict[Monomial, int] = {}
        get = terms.get
        for polynomial in polynomials:
            for monomial, coefficient in polynomial._terms:
                terms[monomial] = get(monomial, 0) + coefficient
        return _canonical(tuple(sorted(terms.items())))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        terms: dict[Monomial, int] = {}
        get = terms.get
        for left_monomial, left_coeff in self._terms:
            for right_monomial, right_coeff in other._terms:
                merged = _multiply_monomials(left_monomial, right_monomial)
                terms[merged] = get(merged, 0) + left_coeff * right_coeff
        return _canonical(tuple(sorted(terms.items())))

    def monus(self, other: "Polynomial") -> "Polynomial":
        """The m-semiring difference ``self ⊖ other`` on ``N[X]``.

        ``N[X]`` is naturally ordered coefficient-wise, and the monus
        induced by that order subtracts per monomial, truncating at zero:
        ``(a ⊖ b)[m] = max(0, a[m] - b[m])`` (Geerts & Poggi, "On database
        query languages for K-relations").  This makes ``⊖`` the smallest
        ``c`` with ``self ≤ other + c``, which is exactly what EXCEPT and
        deletion-delta maintenance need.

        Caveat: unlike ``+``/``*``, the structural monus does not commute
        with semiring evaluation in general (Amsterdamer et al.) — e.g.
        under the tropical semiring there is no compatible monus at all.
        Use :meth:`covers` to know when the subtraction was exact.
        """
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot monus {type(other).__name__} from Polynomial")
        if not other._terms:
            return self
        terms = dict(self._terms)
        for monomial, coefficient in other._terms:
            remaining = terms.get(monomial, 0) - coefficient
            if remaining > 0:
                terms[monomial] = remaining
            else:
                terms.pop(monomial, None)
        # Only existing monomials were lowered or dropped: still sorted.
        return _canonical(tuple(terms.items()))

    def covers(self, other: "Polynomial") -> bool:
        """True iff ``other ≤ self`` in the natural order (coefficient-wise).

        When this holds, ``self.monus(other) + other == self`` — the monus
        is an exact inverse of addition and incremental deletion
        maintenance loses no information.  When it does not, the monus
        truncated at zero somewhere and callers should fall back to a full
        recomputation.
        """
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot compare Polynomial with {type(other).__name__}")
        mine = dict(self._terms)
        return all(
            coefficient <= mine.get(monomial, 0)
            for monomial, coefficient in other._terms
        )

    # -- inspection ---------------------------------------------------------

    def terms(self) -> tuple[tuple[Monomial, int], ...]:
        """The canonical (monomial, coefficient) pairs."""
        return self._terms

    def variables(self) -> set[str]:
        """All tuple variables occurring in the polynomial."""
        return {
            variable
            for monomial, _ in self._terms
            for variable, _ in monomial
        }

    def degree(self) -> int:
        """The maximal total degree over all monomials (0 for constants)."""
        if not self._terms:
            return 0
        return max(
            sum(exponent for _, exponent in monomial) for monomial, _ in self._terms
        )

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == ((_CONSTANT_MONOMIAL, 1),)

    # -- wire format --------------------------------------------------------

    def to_wire(self) -> str:
        """Serialize to a canonical JSON string.

        Used to ship polynomials through systems that only move scalar
        values (the SQLite execution backend): the encoding is a pure
        function of the normal form, so equal polynomials have equal wire
        strings and GROUP BY / DISTINCT over wire values behaves exactly
        like GROUP BY / DISTINCT over the polynomials themselves.
        """
        payload = [
            [[[variable, exponent] for variable, exponent in monomial], coefficient]
            for monomial, coefficient in self._terms
        ]
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def from_wire(cls, text: str) -> "Polynomial":
        """Parse a string produced by :meth:`to_wire`."""
        try:
            payload = json.loads(text)
            terms = {
                tuple((str(v), int(e)) for v, e in monomial): int(coefficient)
                for monomial, coefficient in payload
            }
        except (ValueError, TypeError) as exc:
            raise ValueError(f"invalid polynomial wire value {text!r}: {exc}") from None
        return cls(terms)

    # -- evaluation ---------------------------------------------------------

    def evaluate(
        self,
        valuation: Optional[Mapping[str, Any] | Callable[[str], Any]] = None,
        semiring: Optional["Semiring"] = None,
    ) -> Any:
        """Evaluate under ``valuation`` in ``semiring``.

        ``valuation`` maps tuple variables to semiring elements; it may be
        a mapping (missing variables default to ``semiring.one``) or a
        callable.  With no valuation, every variable evaluates to
        ``semiring.one`` -- in the counting semiring this yields the bag
        multiplicity contributed by the polynomial's derivations.
        ``semiring`` defaults to the counting semiring.
        """
        from repro.semiring.semirings import get_semiring

        if semiring is None:
            semiring = get_semiring("counting")
        if valuation is None:
            lookup: Callable[[str], Any] = lambda name: semiring.one
        elif callable(valuation):
            lookup = valuation
        else:
            mapping = valuation
            lookup = lambda name: mapping.get(name, semiring.one)

        total = semiring.zero
        for monomial, coefficient in self._terms:
            value = semiring.one
            for variable, exponent in monomial:
                base = lookup(variable)
                for _ in range(exponent):
                    value = semiring.times(value, base)
            total = semiring.plus(total, _scale(coefficient, value, semiring))
        return total

    # -- dunder plumbing ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Polynomial") -> bool:
        # A deterministic total order so polynomials survive ORDER BY.
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms < other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = [
            _render_term(monomial, coefficient)
            for monomial, coefficient in self._terms
        ]
        return " + ".join(rendered)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _normalize_monomial(monomial: Iterable[tuple[str, int]]) -> Monomial:
    exponents: dict[str, int] = {}
    for variable, exponent in monomial:
        if exponent < 0:
            raise ValueError(f"negative exponent for {variable!r}")
        if exponent:
            exponents[variable] = exponents.get(variable, 0) + exponent
    return tuple(sorted(exponents.items()))


def _canonical(terms: Terms) -> Polynomial:
    """Trusted constructor: ``terms`` are sorted by monomial with positive
    coefficients, each monomial sorted by variable with positive exponents."""
    polynomial = object.__new__(Polynomial)
    polynomial._terms = terms
    polynomial._hash = hash(terms)
    return polynomial


def _multiply_monomials(left: Monomial, right: Monomial) -> Monomial:
    exponents = dict(left)
    for variable, exponent in right:
        exponents[variable] = exponents.get(variable, 0) + exponent
    return tuple(sorted(exponents.items()))


def _scale(count: int, value: Any, semiring: "Semiring") -> Any:
    """``count``-fold semiring sum of ``value`` (coefficient application)."""
    total = semiring.zero
    for _ in range(count):
        total = semiring.plus(total, value)
    return total


def _render_term(monomial: Monomial, coefficient: int) -> str:
    if not monomial:
        return str(coefficient)
    factors = [
        variable if exponent == 1 else f"{variable}^{exponent}"
        for variable, exponent in monomial
    ]
    body = "*".join(factors)
    return body if coefficient == 1 else f"{coefficient}*{body}"


_ZERO = _canonical(())
_ONE = _canonical(((_CONSTANT_MONOMIAL, 1),))


# -- SQL primitives ------------------------------------------------------------
#
# The ``perm_poly_*`` functions the polynomial rewrite emits: token minting
# at scans, products at joins and the EXCEPT monus (``perm_poly_one`` is
# :meth:`Polynomial.one`; sums live in the ``perm_poly_sum`` aggregate).
# Both execution backends call these; SQLite through wire-string adapters.


def poly_token(relation: str, *identity: Any) -> Polynomial:
    """The variable of one base tuple, built in normal form."""
    return _canonical(((((mint_variable(relation, identity), 1),), 1),))


def poly_mul(*factors: Optional[Polynomial]) -> Optional[Polynomial]:
    """The product of the factors, folded from the first; NULL if any is."""
    return None if None in factors else reduce(mul, factors)


def poly_monus(left: Optional[Polynomial], right: Optional[Polynomial]):
    # A NULL subtrahend means "no matching derivations to remove" (the
    # LEFT JOIN the EXCEPT rewrite emits produced no right-side row), so
    # it subtracts nothing rather than poisoning the annotation.
    return left if left is None or right is None else left.monus(right)
