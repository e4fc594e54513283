"""Property tests with hypothesis: the print/parse round trip over Q and
F_p, and the Leibniz rule of the higher derivation on random elements.
Skipped when hypothesis is not installed."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from danielewski import (GF, QQ, Poly, canonical_expmap, derivation_coeff, normal_form,  # noqa: E402
                         parse_poly, phi_degree, poly_str)
from danielewski.poly import NEG_INF  # noqa: E402

from conftest import STANDARD_SURFACES, surf  # noqa: E402

SETTINGS = settings(max_examples=50, derandomize=True, database=None, deadline=None)
VARS = ("X", "Y", "Z")
EXPS = st.tuples(*(st.integers(0, 4) for _ in VARS))
Q_COEFFS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))


def polys(field, coeffs):
    return st.dictionaries(EXPS, coeffs, max_size=12).map(lambda t: Poly(field, VARS, t))


@SETTINGS
@given(polys(QQ, Q_COEFFS))
def test_round_trip_over_q(p):
    assert parse_poly(poly_str(p), QQ, VARS) == p


@SETTINGS
@given(st.sampled_from((2, 3, 5, 97)).flatmap(
    lambda q: st.tuples(st.just(q), polys(GF(q), st.integers(0, q - 1)))))
def test_round_trip_over_fp(case):
    q, p = case
    assert parse_poly(poly_str(p), GF(q), VARS) == p


SPECS = tuple(surf(*case) for case in STANDARD_SURFACES) + (
    surf(GF(5), "X^2+X+1", "Z^3+2*Z+X"),)
MAPS = {i: canonical_expmap(spec) for i, spec in enumerate(SPECS)}


def elements(spec):
    field = spec.field
    coeffs = st.integers(-3, 3) if field == QQ else st.integers(0, field.modulus - 1)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, spec.d - 1))
    return st.dictionaries(exps, coeffs, max_size=4).map(
        lambda t: normal_form(Poly(field, VARS, t), spec))


def _derivation(m, e, top):
    return [derivation_coeff(m, e, i) for i in range(top + 1)]


@SETTINGS
@given(st.sampled_from(range(len(SPECS))).flatmap(
    lambda i: st.tuples(st.just(i), elements(SPECS[i]), elements(SPECS[i]))))
def test_leibniz_rule(case):
    i, a, b = case
    spec, m = SPECS[i], MAPS[i]
    prod = a * b
    top = phi_degree(m, prod)
    top = 0 if top is NEG_INF else int(top)
    da, db, dp = (_derivation(m, e, top + 1) for e in (a, b, prod))
    for n in range(top + 2):
        rhs = spec.zero()
        for k in range(n + 1):
            rhs = rhs + da[k] * db[n - k]
        assert dp[n] == rhs
