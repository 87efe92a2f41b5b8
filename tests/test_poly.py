import random
import time
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
    isolate_real_roots,
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
        assert divide_out_rational_root(f * 4, Fraction(3, 2)) == X3M2
        with pytest.raises(ValueError):
            divide_out_rational_root(f, Fraction(1, 2))


def _divisors_reference(n: int) -> list[int]:
    n = abs(n)
    return [d for d in range(1, n + 1) if n % d == 0]


def _rational_roots_reference(f: IntPoly) -> list[Fraction]:
    """Divisor test: a root p/q in lowest terms of a polynomial with x^j
    stripped has p | c0 and q | lc."""
    cs = f.coeffs
    roots = set()
    if cs[0] == 0:
        roots.add(Fraction(0))
        while cs[0] == 0:
            cs = cs[1:]
    g = IntPoly(cs)
    if g.degree() >= 1:
        for p in _divisors_reference(cs[0]):
            for q in _divisors_reference(cs[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if g.sign_at(cand) == 0:
                        roots.add(cand)
    return sorted(roots)


def _planted(rng: random.Random) -> tuple[IntPoly, list[Fraction]]:
    """content * (product of planted q·x - p factors, some repeated) * cofactor,
    degree 1-5; returns the polynomial and the planted roots."""
    degree = rng.randint(1, 5)
    factors: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, degree)):
        if factors and rng.random() < 0.3:
            factors.append(rng.choice(factors))  # a repeated rational root
        else:
            factors.append((rng.randint(-6, 6), rng.randint(1, 4)))  # p = 0 plants a root at 0
    rest = degree - len(factors)
    cof = IntPoly(tuple(rng.randint(-7, 7) for _ in range(rest)) + (rng.choice((-3, -1, 1, 2, 5)),))
    f = cof * rng.choice((1, 1, 2, -3, 6))  # non-primitive inputs too
    for p, q in factors:
        f = f * IntPoly((-p, q))
    return f, sorted({Fraction(p, q) for p, q in factors})


def _halving_midpoints(f: IntPoly, lo: Fraction, hi: Fraction, width: Fraction):
    """The midpoints plain Fraction bisection visits while narrowing (lo, hi)."""
    s_lo = f.sign_at(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        yield mid
        s = f.sign_at(mid)
        if s == 0:
            return
        if s == s_lo:
            lo = mid
        else:
            hi = mid


class TestRationalRootsAgainstDivisors:
    def test_seeded_random_polynomials(self):
        rng = random.Random(4)
        for _ in range(300):
            coeffs = [rng.randint(-40, 40) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 40)]
            f = IntPoly(tuple(coeffs))
            assert rational_roots(f) == _rational_roots_reference(f), f

    def test_planted_factors(self):
        rng = random.Random(5)
        for _ in range(400):
            f, planted = _planted(rng)
            got = rational_roots(f)
            assert got == _rational_roots_reference(f), f
            assert set(planted) <= set(got), f

    def test_repeated_roots(self):
        f = IntPoly((-2, 3)) * IntPoly((-2, 3)) * IntPoly((1, 1)) * IntPoly((1, 1)) * IntPoly((1, 1))
        assert rational_roots(f) == [Fraction(-1), Fraction(2, 3)]
        assert rational_roots(X3M2 * X3M2 * IntPoly((-5, 7))) == [Fraction(5, 7)]

    def test_root_at_zero(self):
        assert rational_roots(IntPoly((0, 1))) == [Fraction(0)]
        assert rational_roots(IntPoly((0, 0, -2, 0, 1))) == [Fraction(0)]
        assert rational_roots(IntPoly((0, -3, 2)) * IntPoly((1, 0, 1))) == [Fraction(0), Fraction(3, 2)]

    def test_non_primitive(self):
        assert rational_roots(X3M2 * 6) == []
        assert rational_roots(IntPoly((-3, 2)) * -10) == [Fraction(3, 2)]
        assert rational_roots(IntPoly((4, 0, -2, 12))) == _rational_roots_reference(IntPoly((4, 0, -2, 12)))

    @pytest.mark.parametrize(
        "f, root",
        [
            (IntPoly((-3, 2)), Fraction(3, 2)),
            (IntPoly((-3, 2)) * IntPoly((1, 0, 1)), Fraction(3, 2)),
            (IntPoly((0, 1)) * IntPoly((2, 0, 1)), Fraction(0)),
            (IntPoly((-3, 8)) * IntPoly((1, 0, 1)), Fraction(3, 8)),
        ],
    )
    def test_root_on_a_bisection_midpoint(self, f, root):
        # the only real root lies on a midpoint of the bisection that
        # narrows its isolating interval to width 1/(2·lc)
        (lo, hi), = isolate_real_roots(f)
        assert root in _halving_midpoints(f, lo, hi, Fraction(1, 2 * f.lc))
        assert rational_roots(f) == [root]

    def test_large_coefficients_are_fast(self):
        big = 10**40
        for f, expected in (
            (IntPoly((big + 2, 2, 0, 1)), []),
            (IntPoly((2, 2, 0, big + 1)), []),
            (IntPoly((-(big + 7), big + 3)), [Fraction(big + 7, big + 3)]),
            (IntPoly((-(3**80), 0, 0, 2**90)) * IntPoly((-(5**40), 7**40)), [Fraction(5**40, 7**40)]),
        ):
            start = time.perf_counter()
            assert rational_roots(f) == expected
            assert time.perf_counter() - start < 1.0


def _squarefree_reference(f: IntPoly) -> bool:
    if f.degree() <= 1:
        return not f.is_zero()
    return qq_gcd(f, f.derivative()).degree() == 0


class TestSquarefreeAgainstGcd:
    """is_squarefree reads the last Sturm-chain element against a qq_gcd reference."""

    def test_seeded_random_polynomials(self):
        rng = random.Random(8)
        for _ in range(300):
            coeffs = [rng.randint(-12, 12) for _ in range(rng.randint(0, 6))] + [rng.randint(1, 12)]
            f = IntPoly(tuple(coeffs)) * rng.choice((1, 1, 4, -6))
            assert is_squarefree(f) == _squarefree_reference(f), f

    def test_repeated_factors(self):
        rng = random.Random(9)
        seen = {True: 0, False: 0}
        for _ in range(300):
            f, _ = _planted(rng)
            if rng.random() < 0.5:  # square an irrational factor too
                f = f * X3M2 * X3M2 if rng.random() < 0.5 else f * IntPoly((-2, 0, 1)) * IntPoly((-2, 0, 1))
            expected = _squarefree_reference(f)
            assert is_squarefree(f) == expected, f
            seen[expected] += 1
        assert min(seen.values()) > 50

    def test_non_primitive(self):
        assert is_squarefree(X3M2 * 6)
        assert is_squarefree(C7 * -10)
        assert not is_squarefree(IntPoly((-1, 1)) * IntPoly((-1, 1)) * 12)
        assert not is_squarefree(IntPoly((4, 0, -2)) * IntPoly((-2, 0, 1)))

    def test_low_degree(self):
        assert not is_squarefree(IntPoly(()))
        assert is_squarefree(IntPoly((5,)))
        assert is_squarefree(IntPoly((-3, 2)))
        assert is_squarefree(IntPoly((0, -4)))


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
