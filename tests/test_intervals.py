from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicf import intervals as iv

frac = st.fractions(min_value=-50, max_value=50, max_denominator=40)


@st.composite
def intervals(draw):
    a, b = draw(frac), draw(frac)
    return (a, b) if a <= b else (b, a)


@given(a=intervals(), b=intervals(), x=frac, y=frac)
@settings(max_examples=150, deadline=None)
def test_arithmetic_encloses_pointwise(a, b, x, y):
    x = min(max(x, a[0]), a[1])
    y = min(max(y, b[0]), b[1])
    assert iv.contains(iv.add(a, b), x + y)
    assert iv.contains(iv.sub(a, b), x - y)
    assert iv.contains(iv.mul(a, b), x * y)
    if not (b[0] <= 0 <= b[1]):
        assert iv.contains(iv.div(a, b), x / y)
    assert iv.contains(iv.absolute(a), abs(x))


@given(a=intervals(), x=frac, coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_poly_eval_encloses_pointwise(a, x, coeffs):
    x = min(max(x, a[0]), a[1])
    truth = sum(Fraction(c) * x**i for i, c in enumerate(coeffs))
    assert iv.contains(iv.poly_eval(coeffs, a), truth)


def four_product_mul(a, b):
    products = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(products), max(products))


def fraction_horner(coeffs, a):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        lo, hi = four_product_mul(acc, a)
        acc = (lo + Fraction(c), hi + Fraction(c))
    return acc


# zero, degenerate, both-negative, both-positive and straddling intervals
edge_intervals = st.sampled_from(
    [(Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(3, 2)), (Fraction(-5, 3), Fraction(-5, 3)),
     (Fraction(0), Fraction(2)), (Fraction(-2), Fraction(0)), (Fraction(-7, 2), Fraction(-1, 3)),
     (Fraction(1, 4), Fraction(9)), (Fraction(-3), Fraction(5, 2)), (Fraction(-1, 9), Fraction(1, 7))]
)
any_interval = st.one_of(intervals(), edge_intervals)


@given(a=any_interval, b=any_interval)
@settings(max_examples=300, deadline=None)
def test_mul_equals_four_product_reference(a, b):
    assert iv.mul(a, b) == four_product_mul(a, b)


def test_mul_covers_all_nine_sign_cases():
    signs = [(Fraction(1), Fraction(2)), (Fraction(-2), Fraction(-1)), (Fraction(-1), Fraction(3))]
    for a in signs:
        for b in signs:
            assert iv.mul(a, b) == four_product_mul(a, b)


@given(a=any_interval, coeffs=st.lists(st.integers(-10**6, 10**6), min_size=0, max_size=6))
@settings(max_examples=300, deadline=None)
def test_poly_eval_equals_fraction_horner(a, coeffs):
    got = iv.poly_eval(coeffs, a)
    assert got == fraction_horner(coeffs, a)
    assert all(type(end) is Fraction for end in got)


@given(r=st.fractions(min_value=0, max_value=10**6, max_denominator=1000), bits=st.integers(4, 40))
@settings(max_examples=100, deadline=None)
def test_sqrt_bounds_bracket(r, bits):
    lo, hi = iv.sqrt_bounds(r, bits)
    assert lo * lo <= r <= hi * hi
    assert hi - lo <= Fraction(2, 2**bits)


@given(
    r=st.fractions(min_value=0, max_value=10**4, max_denominator=100),
    n=st.integers(2, 6),
    bits=st.integers(4, 24),
)
@settings(max_examples=100, deadline=None)
def test_nth_root_bounds_bracket(r, n, bits):
    lo, hi = iv.nth_root_bounds(r, n, bits)
    assert lo**n <= r <= hi**n


class TestRounding:
    def test_decimal_str_half_away(self):
        assert iv.decimal_str(Fraction(25, 10), 0) == "3"
        assert iv.decimal_str(Fraction(-25, 10), 0) == "-3"
        assert iv.decimal_str(Fraction(12599, 10000), 1) == "1.3"
        assert iv.decimal_str(Fraction(1, 3), 4) == "0.3333"
        assert iv.decimal_str(Fraction(-1, 3), 4) == "-0.3333"

    def test_round_scaled(self):
        assert iv.round_scaled(Fraction(5, 4), 100) == 125
        assert iv.round_scaled(Fraction(125, 1000), 100) == 13  # tie away
        assert iv.round_scaled(Fraction(-125, 1000), 100) == -13

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            iv.interval(Fraction(2), Fraction(1))

    def test_recip_zero_straddle(self):
        with pytest.raises(ZeroDivisionError):
            iv.recip((Fraction(-1), Fraction(1)))
