"""N[X] operations build their results directly in canonical form.

Only the public ``Polynomial(mapping)`` constructor (and ``from_wire``)
normalizes.  The semiring operations and the ``perm_poly_*`` primitives
go through a trusted constructor, so each must produce exactly what the
normalizing constructor would have produced from un-normalized input --
same ``terms()``, same ``==``, same ``hash``.
"""

from __future__ import annotations

from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.semiring import Polynomial
from repro.semiring import polynomial as polynomial_module
from repro.semiring.minting import mint_variable
from repro.semiring.polynomial import poly_monus, poly_mul, poly_token
from repro.tpch.dbgen import tpch_database
from repro.tpch.qgen import generate_query

# Un-normalized input: repeated variables, zero exponents, unsorted
# monomials, zero coefficients, exponents and coefficients above one.
_VARIABLES = st.sampled_from(["x", "y", "z", "t(1)", "t(2)"])
_RAW_MONOMIALS = st.lists(
    st.tuples(_VARIABLES, st.integers(min_value=0, max_value=3)), max_size=4
).map(tuple)
_RAW = st.dictionaries(
    _RAW_MONOMIALS, st.integers(min_value=0, max_value=3), max_size=4
)
_RAW_OR_SPECIAL = st.one_of(_RAW, st.just({}), st.just({(): 1}))


def _is_canonical(terms) -> bool:
    monomials = [monomial for monomial, _ in terms]
    return (
        monomials == sorted(set(monomials))
        and all(coefficient > 0 for _, coefficient in terms)
        and all(
            [v for v, _ in monomial] == sorted(set(v for v, _ in monomial))
            and all(exponent > 0 for _, exponent in monomial)
            for monomial in monomials
        )
    )


def _assert_same(built: Polynomial, reference: Polynomial) -> None:
    assert _is_canonical(built.terms())
    assert built.terms() == reference.terms()
    assert built == reference
    assert hash(built) == hash(reference)


def _raw_sum(*raws: dict) -> Polynomial:
    total: dict = {}
    for monomial, coefficient in chain.from_iterable(r.items() for r in raws):
        total[monomial] = total.get(monomial, 0) + coefficient
    return Polynomial(total)


def _raw_product(left: dict, right: dict) -> Polynomial:
    total: dict = {}
    for lm, lc in left.items():
        for rm, rc in right.items():
            total[lm + rm] = total.get(lm + rm, 0) + lc * rc
    return Polynomial(total)


@given(a=_RAW_OR_SPECIAL, b=_RAW_OR_SPECIAL, c=_RAW_OR_SPECIAL)
def test_operations_build_what_the_normalizing_constructor_builds(a, b, c):
    pa, pb, pc = Polynomial(a), Polynomial(b), Polynomial(c)
    _assert_same(pa + pb, _raw_sum(a, b))
    _assert_same(Polynomial.sum_all([pa, pb, pc]), _raw_sum(a, b, c))
    _assert_same(pa * pb, _raw_product(a, b))
    _assert_same(poly_mul(pa, pb), _raw_product(a, b))
    ab = dict(_raw_product(a, b).terms())
    _assert_same(poly_mul(pa, pb, pc), _raw_product(ab, c))
    left, right = dict(pa.terms()), dict(pb.terms())
    difference = {
        tuple(reversed(monomial)): coefficient - right.get(monomial, 0)
        for monomial, coefficient in left.items()
        if coefficient > right.get(monomial, 0)
    }
    _assert_same(pa.monus(pb), Polynomial(difference))
    _assert_same(poly_monus(pa, pb), Polynomial(difference))


@given(name=_VARIABLES)
def test_variable_token_and_one_are_canonical(name):
    noisy = {((name, 1), ("w", 0)): 1, (): 0}
    _assert_same(Polynomial.variable(name), Polynomial(noisy))
    _assert_same(
        poly_token("t", 1, "a,b"),
        Polynomial({((mint_variable("t", (1, "a,b")), 1),): 1}),
    )
    _assert_same(Polynomial.one(), Polynomial({(("x", 0),): 1}))


def test_null_factors_and_operands():
    x = Polynomial.variable("x")
    assert poly_mul(None) is None
    assert poly_mul(x, None) is None
    assert poly_mul(None, x) is None
    assert poly_mul(x) is x
    assert poly_monus(None, x) is None
    assert poly_monus(x, None) is x


# -- counted: executing polynomial provenance never re-normalizes ----------


@pytest.fixture(scope="module")
def tpch_db():
    return tpch_database(scale_factor=0.001, seed=42)


@pytest.mark.parametrize("number", (1, 13))
def test_polynomial_tpch_query_never_normalizes(tpch_db, monkeypatch, number):
    calls = []
    normalize = polynomial_module._normalize_monomial

    def counting(monomial):
        calls.append(monomial)
        return normalize(monomial)

    monkeypatch.setattr(polynomial_module, "_normalize_monomial", counting)
    Polynomial({(("x", 1),): 1})  # the counter is wired in
    assert len(calls) == 1
    calls.clear()
    sql = generate_query(number, seed=2, provenance=True).replace(
        "SELECT PROVENANCE", "SELECT PROVENANCE (polynomial)", 1
    )
    result = tpch_db.execute(sql)
    assert result.rows and all(result.annotations())
    assert calls == []
