import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cubicf.errors import DegreeDropError, DegreeError, EndpointRootError, ZeroPolynomialError
from cubicf.poly import (
    IntPoly,
    Unimodular2x2,
    content_primitive,
    discriminant,
    divide_out_rational_root,
    eval_at_rational,
    is_squarefree,
    moebius_transform,
    qq_gcd,
    rational_roots,
    rem_mod,
    resultant,
    sturm_count,
    unimodular_transform,
)

X3M2 = IntPoly((-2, 0, 0, 1))
C7 = IntPoly((-1, -2, 1, 1))


class TestEval:
    def test_cube_at_four_thirds(self):
        # 64/27 - 54/27
        assert eval_at_rational(X3M2, Fraction(4, 3)) == Fraction(10, 27)

    def test_constant_term(self):
        assert eval_at_rational(X3M2, Fraction(0)) == -2

    def test_c7_at_one(self):
        assert eval_at_rational(C7, Fraction(1)) == -1  # 1 + 1 - 2 - 1

    def test_cleared_matches_fraction(self):
        r = Fraction(7, 5)
        assert X3M2.eval_cleared(7, 5) == eval_at_rational(X3M2, r) * 5**3


class TestContentPrimitive:
    def test_common_factor(self):
        c, g = content_primitive(IntPoly((-4, 0, 2)))
        assert (c, g) == (2, IntPoly((-2, 0, 1)))

    def test_sign_normalization(self):
        c, g = content_primitive(IntPoly((1, 3, 3, -1)))
        assert c == 1
        assert g == IntPoly((-1, -3, -3, 1))

    def test_already_primitive(self):
        assert content_primitive(X3M2) == (1, X3M2)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            content_primitive(IntPoly(()))


class TestDiscriminant:
    def test_disc_49(self):
        assert discriminant(C7) == 49

    def test_disc_minus_108(self):
        assert discriminant(X3M2) == -108

    def test_quadratic(self):
        assert discriminant(IntPoly((-1, -1, 1))) == 5

    def test_degree_guard(self):
        with pytest.raises(DegreeError):
            discriminant(IntPoly((1, 2)))

    def test_resultant_shared_root(self):
        f = IntPoly((-1, 0, 1))  # (x-1)(x+1)
        g = IntPoly((-1, 1))  # x - 1
        assert resultant(f, g) == 0


class TestTransform:
    def test_shift_reciprocal_of_cbrt2(self):
        got = moebius_transform(X3M2, 1, 1, 1, 0)
        assert got == IntPoly((-1, -3, -3, 1))

    def test_identity(self):
        assert unimodular_transform(X3M2, Unimodular2x2.identity()) == X3M2

    def test_disc_preserved_on_example(self):
        g = Unimodular2x2(2, 1, 1, 1)
        assert discriminant(unimodular_transform(C7, g)) == 49

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            moebius_transform(X3M2, 2, 4, 1, 2)

    def test_root_at_pole_drops_degree(self):
        # x^3 - 8 vanishes at 2 = a/c, the image of x = oo under (2x+1)/x
        with pytest.raises(DegreeDropError):
            moebius_transform(IntPoly((-8, 0, 0, 1)), 2, 1, 1, 0)

    def test_matches_naive_expansion(self):
        rng = random.Random(20261017)
        checked = {"unimodular": 0, "wide": 0}
        while min(checked.values()) < 150:
            m = rng.randint(1, 5)
            f = IntPoly(tuple(rng.randint(-30, 30) for _ in range(m)) + (rng.choice((-1, 1)) * rng.randint(1, 30),))
            a, b, c, d = (rng.randint(-6, 6) for _ in range(4))
            det = a * d - b * c
            if det == 0:
                continue
            want = _naive_moebius(f, a, b, c, d)
            if want.degree() < m:
                with pytest.raises(DegreeDropError):
                    moebius_transform(f, a, b, c, d)
                continue
            assert moebius_transform(f, a, b, c, d) == content_primitive(want)[1], (f, a, b, c, d)
            checked["unimodular" if abs(det) == 1 else "wide"] += 1


def _naive_moebius(f: IntPoly, a: int, b: int, c: int, d: int) -> IntPoly:
    """sum_i f_i (ax+b)^i (cx+d)^(m-i), expanded term by term."""
    m = f.degree()
    total = IntPoly(())
    for i, fi in enumerate(f.coeffs):
        term = IntPoly.const(fi)
        for _ in range(i):
            term = term * IntPoly((b, a))
        for _ in range(m - i):
            term = term * IntPoly((d, c))
        total = total + term
    return total


def _poly_strategy():
    return st.builds(
        lambda low, lead: content_primitive(IntPoly(tuple(low + [lead])))[1],
        st.lists(st.integers(-9, 9), min_size=2, max_size=4),
        st.integers(1, 9),
    )


def _unimodular_strategy():
    gen_l = lambda k: Unimodular2x2(1, k, 0, 1)
    gen_r = lambda k: Unimodular2x2(1, 0, k, 1)
    swap = Unimodular2x2(0, 1, 1, 0)

    @st.composite
    def build(draw):
        m = Unimodular2x2.identity()
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.integers(0, 2))
            k = draw(st.integers(-4, 4))
            m = m @ (gen_l(k) if kind == 0 else gen_r(k) if kind == 1 else swap)
        return m

    return build()


@given(f=_poly_strategy(), g=_unimodular_strategy())
@settings(max_examples=80, deadline=None)
def test_transform_preserves_discriminant(f, g):
    if f.degree() < 2:
        return
    try:
        h = unimodular_transform(f, g)
    except DegreeError:
        return
    except Exception as exc:
        if "degree dropped" in str(exc):
            return  # root at the pole: excluded by the statement
        raise
    assert discriminant(h) == discriminant(f)


@given(f=_poly_strategy(), g=_unimodular_strategy())
@settings(max_examples=80, deadline=None)
def test_transform_round_trip(f, g):
    try:
        h = unimodular_transform(f, g)
        back = unimodular_transform(h, g.inverse())
    except Exception as exc:
        if "degree dropped" in str(exc):
            return
        raise
    assert back == f


@given(f=_poly_strategy())
@settings(max_examples=60, deadline=None)
def test_primitive_part_is_canonical(f):
    c, g = content_primitive(f * 6)
    assert c > 0
    assert g.lc > 0
    assert g.content() == 1


class TestSturm:
    def test_cbrt2_in_1_2(self):
        assert sturm_count(X3M2, Fraction(1), Fraction(2)) == 1

    def test_c7_three_roots(self):
        assert sturm_count(C7, Fraction(-2), Fraction(2)) == 3

    def test_cbrt2_negative_side(self):
        assert sturm_count(X3M2, Fraction(-2), Fraction(0)) == 0

    def test_endpoint_root_rejected(self):
        f = IntPoly((-1, 0, 1))
        with pytest.raises(EndpointRootError):
            sturm_count(f, Fraction(1), Fraction(2))

    def test_matches_numeric_root_finder(self):
        rng = random.Random(1105)
        for _ in range(50):
            coeffs = tuple(rng.randint(-30, 30) for _ in range(3)) + (rng.randint(1, 30),)
            f = IntPoly(coeffs)
            if f.degree() != 3 or not is_squarefree(f):
                continue
            lo, hi = Fraction(rng.randint(-12, -1)), Fraction(rng.randint(0, 12))
            if f.sign_at(lo) == 0 or f.sign_at(hi) == 0:
                continue
            numeric = sum(1 for r in oracles.real_roots(f.coeffs) if float(lo) < r < float(hi))
            assert sturm_count(f, lo, hi) == numeric


class TestRationalRoots:
    def test_cbrt2_none(self):
        assert rational_roots(X3M2) == []

    def test_golden_none(self):
        assert rational_roots(IntPoly((-1, -1, 1))) == []

    def test_linear(self):
        assert rational_roots(IntPoly((-3, 2))) == [Fraction(3, 2)]

    def test_divide_out(self):
        f = IntPoly((-3, 2)) * X3M2
        assert rational_roots(f) == [Fraction(3, 2)]
        assert divide_out_rational_root(f, Fraction(3, 2)) == X3M2


class TestHelpers:
    def test_rem_mod_zero_for_multiple(self):
        assert rem_mod(X3M2 * IntPoly((1, 5, 2)), X3M2).is_zero()

    def test_rem_mod_sign(self):
        # x^2 reduced mod x^3-2 stays x^2 (degree already lower)
        h = IntPoly((0, 0, 1, 1))
        r = rem_mod(h, X3M2)
        assert r == IntPoly((2, 0, 1))  # x^3 + x^2 = x^2 + 2 at roots of x^3-2

    def test_qq_gcd(self):
        shared = IntPoly((-1, 1))
        assert qq_gcd(shared * X3M2, shared * IntPoly((3, 1))) == shared

    def test_squarefree(self):
        assert is_squarefree(X3M2)
        assert not is_squarefree(IntPoly((-1, 1)) * IntPoly((-1, 1)))

    def test_unimodular_validation(self):
        with pytest.raises(ValueError):
            Unimodular2x2(2, 0, 0, 1)
