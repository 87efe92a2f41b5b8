"""Micro-benchmarks of the verification kernel, with pytest-benchmark.

    python -m pytest tests/bench_kernel.py --benchmark-only

The default test run does not collect this file (it does not match
``test_*.py``). pytest-benchmark keeps saved runs under ``.benchmarks/``.
"""
from fractions import Fraction

import pytest

from cubicf import intervals as iv
from cubicf.cf import expand
from cubicf.conjugates import conjugates
from cubicf.poly import discriminant

DEPTH = 30
SIGNED = [  # positive, negative and straddling operands: all nine sign cases
    (Fraction(3, 7), Fraction(22, 7)),
    (Fraction(-13, 5), Fraction(-2, 9)),
    (Fraction(-1, 3), Fraction(5, 4)),
]


@pytest.fixture(scope="module")
def tails(cbrt2):
    e = expand(cbrt2, DEPTH)
    return [e.tail(n) for n in (10, 20, 30)]


def test_mul_sign_cases(benchmark):
    def run():
        return [iv.mul(a, b) for a in SIGNED for b in SIGNED]

    out = benchmark(run)
    assert all(lo <= hi for lo, hi in out)


def test_poly_eval_tail_derivative(benchmark, tails):
    tail = tails[-1]
    coeffs = tail.poly.derivative().coeffs
    lo, hi = benchmark(iv.poly_eval, coeffs, tail.interval)
    assert lo <= hi and not lo <= 0 <= hi  # f' is nonzero at a simple root


@pytest.mark.parametrize(
    "precision", [Fraction(1, 10**6), Fraction(1, 10**20)], ids=["1e-6", "1e-20"]
)
def test_complex_conjugates_on_tails(benchmark, tails, precision):
    assert all(discriminant(t.poly) < 0 for t in tails)

    def run():
        return [conjugates(t, precision) for t in tails]

    pairs = benchmark(run)
    assert all(p.kind == "complex-pair" and iv.width(p.first.re) <= precision for p in pairs)
