import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import oracles
from conftest import random_cubic_number
from cubicf.algnum import (
    approximate,
    floor_of,
    isolate_real_roots,
    make_algebraic,
    map_moebius,
    refine,
    same_root,
    sign_at,
)
from cubicf.errors import (
    NotSquarefreeError,
    ReducibleInputError,
    RootSelectionError,
)
from cubicf.poly import IntPoly, sturm_chain, sturm_count

X3M2 = IntPoly((-2, 0, 0, 1))
C7 = IntPoly((-1, -2, 1, 1))
GOLDEN = IntPoly((-1, -1, 1))


class TestMake:
    def test_cbrt2_interval(self, cbrt2):
        assert Fraction(1) <= cbrt2.lo < cbrt2.hi <= Fraction(2)
        assert sturm_count(cbrt2.poly, cbrt2.lo, cbrt2.hi) == 1

    def test_largest_root_of_c7(self, cos27_largest):
        assert approximate(cos27_largest, 5) == "1.24698"

    def test_all_three_roots(self):
        vals = [approximate(make_algebraic(C7, index=k), 5) for k in (1, 2, 3)]
        assert vals == ["-1.80194", "-0.44504", "1.24698"]

    def test_out_of_range(self):
        with pytest.raises(RootSelectionError):
            make_algebraic(X3M2, index=2)

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefreeError):
            make_algebraic(IntPoly((-1, 1)) * IntPoly((-1, 1)), index=1)

    def test_rational_root_rejected_when_irrational_required(self):
        with pytest.raises(ReducibleInputError):
            make_algebraic(IntPoly((-1, 0, 1)), index=1)

    def test_rational_root_allowed_on_request(self):
        x = make_algebraic(IntPoly((-1, 0, 1)), index=2, require_irrational=False)
        assert x.degree == 1
        assert x.poly == IntPoly((-1, 1))

    def test_mixed_cubic_strips_rational_factor(self):
        f = IntPoly((-1, 1)) * IntPoly((-2, 0, 1))  # roots -sqrt2, 1, sqrt2
        x = make_algebraic(f, index=3)
        assert x.poly == IntPoly((-2, 0, 1))
        assert x.irreducible

    def test_interval_selector(self):
        x = make_algebraic(X3M2, isolating=(Fraction(1), Fraction(2)))
        assert approximate(x, 4) == "1.2599"

    def test_interval_selector_rejects_wide(self):
        with pytest.raises(RootSelectionError):
            make_algebraic(C7, isolating=(Fraction(-3), Fraction(3)))

    def test_isolate_counts(self):
        assert len(isolate_real_roots(X3M2)) == 1
        assert len(isolate_real_roots(C7)) == 3


class TestRefine:
    def test_cbrt2_to_thousandth(self, cbrt2):
        y = refine(cbrt2, Fraction(1, 1000))
        assert Fraction(1259, 1000) < y.lo < y.hi < Fraction(1261, 1000)

    def test_idempotent(self, cbrt2):
        y = refine(cbrt2, Fraction(1, 64))
        assert refine(y, Fraction(1, 64)) is y

    def test_golden(self, golden):
        y = refine(golden, Fraction(1, 100))
        assert Fraction(160, 100) < y.lo < y.hi < Fraction(163, 100)

    def test_same_root_preserved(self, cbrt2):
        y = refine(cbrt2, Fraction(1, 10**6))
        assert sturm_count(y.poly, y.lo, y.hi) == 1
        assert same_root(cbrt2, y)


class TestSign:
    def test_own_minimal_polynomial(self, cbrt2):
        assert sign_at(cbrt2, X3M2) == 0

    def test_multiple_of_minpoly(self, cbrt2):
        assert sign_at(cbrt2, X3M2 * IntPoly((5, 7, 1))) == 0

    def test_above_one(self, cbrt2):
        assert sign_at(cbrt2, IntPoly((-1, 1))) == 1

    def test_cbrt4_below_four(self, cbrt2):
        assert sign_at(cbrt2, IntPoly((-4, 0, 1))) == -1

    def test_matches_numeric_oracle(self):
        rng = random.Random(777)
        checked = 0
        while checked < 100:
            x = random_cubic_number(rng)
            h = IntPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(2, 4))))
            if h.is_zero():
                continue
            got = sign_at(x, h)
            root = next(
                r
                for r in oracles.real_roots(x.poly.coeffs)
                if float(x.lo) <= r <= float(x.hi)
            )
            val = sum(float(c) * root**i for i, c in enumerate(h.coeffs))
            if abs(val) < 1e-20:
                continue
            assert got == (1 if val > 0 else -1), (x.poly, h)
            checked += 1


class TestFloor:
    def test_cbrt2(self, cbrt2):
        assert floor_of(cbrt2) == 1

    def test_cos27(self, cos27_largest):
        assert floor_of(cos27_largest) == 1

    def test_first_tail_of_cbrt2(self):
        x = make_algebraic(IntPoly((-1, -3, -3, 1)), index=1)
        assert floor_of(x) == 3

    def test_negative(self):
        x = make_algebraic(C7, index=1)  # ~ -1.80194
        assert floor_of(x) == -2

    def test_root_pressed_against_integer(self):
        # root of x^3 - 10^6 x^2 + 1 just below 10^6: floor must be 10^6 - 1
        f = IntPoly((1, 0, -(10**6), 1))
        x = make_algebraic(f, index=3)
        assert floor_of(x) == 10**6 - 1

    def test_floor_bracket_property(self):
        rng = random.Random(909)
        for _ in range(25):
            x = random_cubic_number(rng)
            m = floor_of(x)
            assert sign_at(x, IntPoly((-m, 1))) == 1
            assert sign_at(x, IntPoly((-(m + 1), 1))) == -1


class TestApproximate:
    def test_cbrt2_six(self, cbrt2):
        assert approximate(cbrt2, 6) == "1.259921"

    def test_golden_five(self, golden):
        assert approximate(golden, 5) == "1.61803"

    def test_cbrt2_one_rounds_up(self, cbrt2):
        assert approximate(cbrt2, 1) == "1.3"

    def test_negative_value(self):
        x = make_algebraic(C7, index=1)
        assert approximate(x, 3) == "-1.802"

    def test_rounding_certificate(self):
        # reparsed value is within half an ulp of the number: the interval
        # refined to a tenth of an ulp stays inside [r - h, r + h]
        rng = random.Random(31)
        for _ in range(10):
            x = random_cubic_number(rng)
            for digits in (3, 7):
                r = Fraction(approximate(x, digits))
                h = Fraction(1, 2 * 10**digits)
                y = refine(x, Fraction(1, 10 ** (digits + 1)))
                assert r - h <= y.lo and y.hi <= r + h


class TestIsolationInvariant:
    """Every operation hands back an interval that still isolates (one
    Sturm-counted root, endpoints off the polynomial)."""

    def _check(self, x):
        assert x.poly.sign_at(x.lo) != 0 and x.poly.sign_at(x.hi) != 0
        assert sturm_count(x.poly, x.lo, x.hi) == 1

    def test_across_operations(self):
        import random

        from cubicf.algnum import floor_with_refined

        rng = random.Random(2024)
        for _ in range(15):
            x = random_cubic_number(rng)
            self._check(x)
            y = refine(x, Fraction(1, 10**9))
            self._check(y)
            _, z = floor_with_refined(y)
            self._check(z)
            w = map_moebius(z, 2, 1, 1, 1)
            self._check(w)

    def test_interval_construction(self):
        x = make_algebraic(X3M2, isolating=(Fraction(1), Fraction(2)))
        self._check(x)


class TestQuarticUnverified:
    """Degree >= 4 inputs: only squarefreeness is certified; signs fall
    back to gcd checks when the stored polynomial may be reducible."""

    def test_irreducible_quartic_flagged(self):
        f = IntPoly((1, 0, -10, 0, 1))  # minimal polynomial of sqrt2+sqrt3
        x = make_algebraic(f, index=4)
        assert not x.irreducible
        assert sign_at(x, IntPoly((-10, 0, 1))) == -1  # (sqrt2+sqrt3)^2 < 10
        assert floor_of(x) == 3

    def test_reducible_squarefree_quartic(self):
        g = IntPoly((6, 0, -5, 0, 1))  # (x^2-2)(x^2-3), no rational roots
        y = make_algebraic(g, index=3)  # sqrt2
        assert y.poly == g and not y.irreducible
        assert sign_at(y, IntPoly((-2, 0, 1))) == 0  # shared factor detected
        assert sign_at(y, IntPoly((-3, 0, 1))) == -1
        assert approximate(y, 5) == "1.41421"


class TestSameRootAndMaps:
    def test_distinct_roots_differ(self):
        a = make_algebraic(C7, index=1)
        b = make_algebraic(C7, index=2)
        assert not same_root(a, b)
        assert same_root(a, a)

    def test_map_moebius_value(self, cbrt2):
        y = map_moebius(cbrt2, 0, 2, 1, 0)  # 2/cbrt2 = cbrt4
        assert y.poly == IntPoly((-4, 0, 0, 1))
        assert approximate(y, 4) == "1.5874"

    def test_map_moebius_identity(self, cbrt2):
        y = map_moebius(cbrt2, 1, 0, 0, 1)
        assert y.poly == cbrt2.poly
        assert same_root(y, cbrt2)

    def test_map_moebius_random_matrices(self):
        # the image interval isolates without a Sturm chain being built
        rng = random.Random(20261017)
        for _ in range(25):
            x = random_cubic_number(rng)
            a, b, c, d = 0, 0, 0, 0
            while a * d - b * c == 0:
                a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
            sturm_chain.cache_clear()
            y = map_moebius(x, a, b, c, d)
            assert sturm_chain.cache_info().misses == 0
            assert sturm_count(y.poly, y.lo, y.hi) == 1
            with mp.workdps(60):
                lo, hi = (mpf(r.numerator) / r.denominator for r in (x.lo, x.hi))
                t = next(r for r in oracles.real_roots(x.poly.coeffs) if lo < r < hi)
                image = (a * t + b) / (c * t + d)
                assert mpf(y.lo.numerator) / y.lo.denominator < image < mpf(y.hi.numerator) / y.hi.denominator
