"""The packed-key kernel of ``poly.py`` against the tuple-keyed reference
kernel in ``oracles.py``, on seeded random polynomials over Q, F2, F5 and
F97 in one to six variables; the order of terms against ``grlex_key``; the
2**31 exponent boundary; and the tuple-keyed ``terms`` view."""

import random
from fractions import Fraction

import pytest

from danielewski import GF, QQ, Poly, exact_div, poly_str, substitute
from danielewski import poly as poly_module
from danielewski.errors import UnknownVariableError
from danielewski.poly import MAX_EXPONENT, divmod_in, unpack

from conftest import random_coeff, random_poly
from oracles import (grlex_key, tuple_divmod_in, tuple_exact_div, tuple_mul, tuple_sort_key,
                     tuple_substitute, tuple_with_vars)

FIELDS = (QQ, GF(2), GF(5), GF(97))
NAMES = ("X", "Y", "Z", "U", "V", "W", "T")


def terms(p):
    return dict(p.terms.items())


def cases(field, seed_tag, count=25, max_exp=3, max_terms=5):
    """(rng, vars, a, b) with 1 to 6 variables."""
    rng = random.Random(f"packed-{seed_tag}-{field.tag()}")
    for _ in range(count):
        vars_ = tuple(rng.sample(NAMES[:6], rng.randint(1, 6)))
        yield (rng, vars_,
               _poly(rng, field, vars_, max_exp, max_terms),
               _poly(rng, field, vars_, max_exp, max_terms))


def _poly(rng, field, vars_, max_exp, max_terms):
    if field is QQ and rng.random() < 0.5:
        terms_ = {tuple(rng.randint(0, max_exp) for _ in vars_):
                  Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(rng.randint(0, max_terms))}
        return Poly(field, vars_, terms_)
    return random_poly(rng, field, vars_, max_exp=max_exp, max_terms=max_terms)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.tag())
def test_products_and_powers_match_tuple_kernel(field):
    for rng, vars_, a, b in cases(field, "mul", count=40):
        assert terms(a * b) == tuple_mul(field, terms(a), terms(b))
        k = rng.randint(0, 3)
        power = {(0,) * len(vars_): 1}
        for _ in range(k):
            power = tuple_mul(field, power, terms(a))
        assert terms(a ** k) == power
        shift_var, shift = rng.choice(vars_), rng.randint(0, 4)
        unit = tuple(shift if v == shift_var else 0 for v in vars_)
        assert terms(a.mul_var_power(shift_var, shift)) == tuple_mul(field, terms(a), {unit: 1})


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.tag())
def test_with_vars_matches_tuple_kernel(field):
    for rng, vars_, a, _ in cases(field, "with_vars", count=60):
        used = a.used_vars()
        extra = [v for v in NAMES if v not in vars_]
        kind = rng.choice(("reorder", "add", "drop", "mixed"))
        if kind == "reorder":
            new = list(vars_)
        elif kind == "add":
            new = list(vars_) + rng.sample(extra, rng.randint(1, len(extra)))
        elif kind == "drop":
            new = list(used) + rng.sample([v for v in vars_ if v not in used],
                                          rng.randint(0, len(vars_) - len(used)))
        else:
            new = list(used) + rng.sample(extra, rng.randint(0, len(extra)))
        rng.shuffle(new)
        new = tuple(new)
        got = a.with_vars(new)
        assert got.vars == new
        assert terms(got) == tuple_with_vars(vars_, terms(a), new)
        assert got.with_vars(vars_) == a
        if used:
            lost = tuple(v for v in new if v != used[0])
            with pytest.raises(UnknownVariableError):
                a.with_vars(lost)
            with pytest.raises(UnknownVariableError):
                tuple_with_vars(vars_, terms(a), lost)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.tag())
def test_substitute_matches_tuple_kernel(field):
    for rng, vars_, p, _ in cases(field, "substitute", count=40, max_exp=2, max_terms=4):
        extra = [v for v in NAMES if v not in vars_]
        vars_out = tuple(rng.sample(vars_, len(vars_))) + tuple(
            rng.sample(extra, rng.randint(0, len(extra))))
        bound = rng.sample(vars_, rng.randint(1, len(vars_)))
        bindings = {}
        for v in bound:
            over = tuple(rng.sample(vars_out, rng.randint(1, min(3, len(vars_out)))))
            bindings[v] = random_poly(rng, field, over, max_exp=2, max_terms=3)
        got = substitute(p, bindings, vars_out=vars_out)
        assert got.vars == vars_out
        assert terms(got) == tuple_substitute(p, bindings, vars_out)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.tag())
def test_exact_div_matches_tuple_kernel(field):
    refused = 0
    for rng, vars_, a, b in cases(field, "exact_div", count=40):
        if b.is_zero:
            continue
        prod = a * b
        assert exact_div(prod, b) == a
        assert terms(a) == tuple_exact_div(field, terms(prod), terms(b))
        # a product plus one more term: a non-multiple unless b is a constant
        bump = tuple(rng.randint(0, 4) for _ in vars_)
        other = prod + Poly(field, vars_, {bump: random_coeff(rng, field) or 1})
        want = tuple_exact_div(field, terms(other), terms(b)) if not other.is_zero else {}
        got = exact_div(other, b)
        assert (None if got is None else terms(got)) == want
        refused += got is None
    assert refused >= 10


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.tag())
def test_divmod_in_matches_tuple_kernel(field):
    for rng, vars_, p, lower in cases(field, "divmod", count=40, max_exp=4, max_terms=6):
        var = rng.choice(vars_)
        i = vars_.index(var)
        dd = rng.randint(0, 3)
        low = {e: c for e, c in terms(lower).items() if e[i] < dd}
        low[tuple(dd if j == i else 0 for j in range(len(vars_)))] = (
            random_coeff(rng, field) or 1)
        divisor = Poly(field, vars_, low)
        quo, rem = divmod_in(p, divisor, var)
        want_q, want_r = tuple_divmod_in(field, vars_, terms(p), terms(divisor), var)
        assert (terms(quo), terms(rem)) == (want_q, want_r)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.tag())
def test_term_order_is_grlex(field):
    for _, vars_, a, _ in cases(field, "order", count=40, max_exp=5, max_terms=12):
        by_grlex = sorted(terms(a).items(), key=lambda kv: grlex_key(kv[0]), reverse=True)
        assert a.sorted_terms() == by_grlex
        assert a.sort_key() == tuple_sort_key(a)
        assert poly_str(a) == _poly_str_by_grlex(a)
        if not a.is_zero:
            lead = max(a.packed)        # integer order is grlex order
            assert (unpack(lead, len(vars_)), a.packed[lead]) == by_grlex[0]
            assert a.total_degree() == max(sum(e) for e in terms(a))
            for v in vars_:
                assert a.degree_in(v) == max(e[vars_.index(v)] for e in terms(a))


def _poly_str_by_grlex(p):
    """The canonical text, with the terms ordered by ``grlex_key``."""
    if p.is_zero:
        return "0"
    pieces = []
    for exps, c in sorted(terms(p).items(), key=lambda kv: grlex_key(kv[0]), reverse=True):
        negative = p.field == QQ and c < 0
        mag = -c if negative else c
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(p.vars, exps) if e)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if pieces:
            pieces.append(f"- {body}" if negative else f"+ {body}")
        else:
            pieces.append(f"-{body}" if negative else body)
    return " ".join(pieces)


def test_exponent_boundary():
    top = MAX_EXPONENT - 1
    vars2 = ("X", "Y")
    x = Poly.variable(QQ, vars2, "X")
    high = Poly(QQ, vars2, {(top, 0): 1, (0, top): 2, (top, top): 3})
    assert terms(high) == {(top, 0): 1, (0, top): 2, (top, top): 3}
    assert high.degree_in("X") == top and high.total_degree() == 2 * top
    edge = Poly(QQ, vars2, {(top - 1, 0): 1})
    assert terms(edge * x) == {(top, 0): 1}
    assert terms(x ** top) == {(top, 0): 1}
    assert terms(edge.mul_var_power("X", 1)) == {(top, 0): 1}
    reach = substitute(Poly(QQ, vars2, {(1, 1): 1}), {"X": Poly(QQ, vars2, {(top - 1, 0): 1})})
    assert terms(reach) == {(top - 1, 1): 1}
    with pytest.raises(OverflowError):
        Poly(QQ, vars2, {(MAX_EXPONENT, 0): 1})
    with pytest.raises(OverflowError):
        Poly(QQ, vars2, {(top, 0): 1}) * x
    with pytest.raises(OverflowError):
        x ** MAX_EXPONENT
    with pytest.raises(OverflowError):
        (x + Poly.one(QQ, vars2)) ** MAX_EXPONENT
    with pytest.raises(OverflowError):
        Poly(QQ, vars2, {(top, 0): 1}).mul_var_power("X", 1)
    with pytest.raises(OverflowError):
        substitute(Poly(QQ, vars2, {(1, 1): 1}), {"X": Poly(QQ, vars2, {(top, 0): 1})})


@pytest.mark.parametrize("field", (GF(2), GF(3), GF(7)), ids=lambda f: f.tag())
def test_substitute_frobenius_powers_match_repeated_multiplication(field):
    # over F_p, substitute builds a^e for e >= p as (a^(e // p))^p a^(e % p),
    # the p-th power being a term map
    p = field.modulus
    rng = random.Random(f"frobenius-{p}")
    exponents = (p, p + 1, 2 * p - 1, p ** 2, p ** 2 + 1)
    for _ in range(3):
        a = random_poly(rng, field, ("Y", "Z"), max_exp=2, max_terms=4)
        power, want = Poly.one(field, ("Y", "Z")), {}
        for e in range(1, max(exponents) + 1):
            power = power * a
            if e in exponents:
                want[e] = power
        for e in exponents:
            x_e = Poly(field, ("X",), {(e,): 1})
            assert substitute(x_e, {"X": a}, vars_out=("Y", "Z")) == want[e]
        # one substitution asking for every power at once shares one cache
        mixed = Poly(field, ("X", "W"), {(e, i): 1 for i, e in enumerate(exponents)})
        got = substitute(mixed, {"X": a}, vars_out=("Y", "Z", "W"))
        w = Poly.variable(field, ("Y", "Z", "W"), "W")
        assert got == sum((want[e].with_vars(("Y", "Z", "W")) * w ** i
                           for i, e in enumerate(exponents)), Poly.zero(field, got.vars))


@pytest.mark.parametrize("p", [2, 3])
def test_substitute_frobenius_power_stops_below_the_exponent_bound(p):
    field = GF(p)
    x_p = Poly(field, ("X",), {(p,): 1})
    edge = (MAX_EXPONENT - 1) // p              # p * edge < 2**31 <= p * (edge + 1)
    for top, fits in ((edge, True), (edge + 1, False)):
        image = Poly(field, ("Y",), {(top,): 1, (0,): 1})
        if fits:
            assert terms(substitute(x_p, {"X": image}, ("Y",))) == {(p * top,): 1, (0,): 1}
        else:
            with pytest.raises(OverflowError):
                substitute(x_p, {"X": image}, ("Y",))


def test_terms_view_reads_without_unpacking(monkeypatch):
    p = Poly(GF(5), ("X", "Y", "Z"), {(1, 0, 2): 3, (0, 4, 0): 1, (0, 0, 0): 2})
    calls = []
    unpack = poly_module.unpack
    monkeypatch.setattr(poly_module, "unpack", lambda *a: calls.append(a) or unpack(*a))
    view = p.terms
    assert len(view) == len(p) == 3 and view and sorted(view.values()) == [1, 2, 3]
    assert calls == []
    assert view[(1, 0, 2)] == 3 and (0, 4, 0) in view and (0, 4, 1) not in view
    assert (1, 0) not in view and (-1, 0, 2) not in view
    assert calls == []
    assert set(view) == {(1, 0, 2), (0, 4, 0), (0, 0, 0)}
    assert dict(view.items()) == {(1, 0, 2): 3, (0, 4, 0): 1, (0, 0, 0): 2}
    assert len(calls) == 6
    zero = Poly.zero(QQ, ("X",))
    assert len(zero) == 0 and not zero.terms and zero.terms == {}
