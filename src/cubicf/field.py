"""Cubic-field element manipulation.

Elements of K = Q(beta) are power-basis coordinate triples
alpha = A0 + A1*beta + A2*beta^2.  The module solves the fractional-linear
representation problem alpha = (a*beta + b)/(c*beta + d) over the
integers, converts coordinates to exact algebraic numbers (characteristic
polynomial of the multiplication matrix), searches two expansions for a
shared continued-fraction tail, and runs the finite-depth transfer checks
for the bad-approximability constant.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import intervals as iv
from .algnum import AlgebraicNumber, _bisect, map_moebius, same_root
from .cf import Expansion, lambda_estimate
from .errors import (
    CubicRequiredError,
    EndpointRootError,
    EngineInvariantError,
    RationalElementError,
)
from .poly import IntPoly, rational_roots, rem_mod, sturm_count


def _require_cubic_field(beta: AlgebraicNumber) -> None:
    if beta.degree != 3:
        raise CubicRequiredError("the field facilities require a cubic generator")


@dataclass(frozen=True)
class FieldElement:
    """Coordinates A0 + A1*beta + A2*beta^2 of an element of Q(beta)."""

    a0: Fraction
    a1: Fraction
    a2: Fraction

    @staticmethod
    def of(a0, a1=0, a2=0) -> "FieldElement":
        return FieldElement(Fraction(a0), Fraction(a1), Fraction(a2))

    def is_rational(self) -> bool:
        return self.a1 == 0 and self.a2 == 0


@dataclass(frozen=True)
class FracLinearRep:
    """Primitive integer tuple with alpha = (a*beta + b)/(c*beta + d)."""

    a: int
    b: int
    c: int
    d: int

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


def _beta_cube(beta: AlgebraicNumber) -> tuple[Fraction, Fraction, Fraction]:
    """(B0, B1, B2) with beta^3 = B0 + B1*beta + B2*beta^2."""
    c0, c1, c2, c3 = beta.poly.coeffs
    return (Fraction(-c0, c3), Fraction(-c1, c3), Fraction(-c2, c3))


def _normalize_quad(vals: tuple[Fraction, Fraction, Fraction, Fraction]) -> tuple[int, int, int, int]:
    scale = lcm(*(v.denominator for v in vals))
    ints = [int(v * scale) for v in vals]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints] if g else ints
    first = next((v for v in ints if v), 1)
    if first < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def express(beta: AlgebraicNumber, elem: FieldElement) -> FracLinearRep:
    """Solve alpha = (a*beta + b)/(c*beta + d) in primitive integers.

    The linear system comes from clearing the denominator and reducing
    beta^3 through its minimal polynomial; the nullspace is one-
    dimensional exactly when the element is irrational, and the rational
    case degenerates to a = c = 0 with b/d the value.  The output is
    verified by reducing the cross-multiplied relation modulo the minimal
    polynomial.
    """
    _require_cubic_field(beta)
    a0, a1, a2 = elem.a0, elem.a1, elem.a2
    if elem.is_rational():
        if a0 == 0:
            return FracLinearRep(0, 0, 0, 1)
        quad = _normalize_quad((Fraction(0), Fraction(a0.numerator), Fraction(0), Fraction(a0.denominator)))
        return FracLinearRep(*quad)

    b0, b1, b2 = _beta_cube(beta)
    c_ = a2
    d_ = -(a1 + a2 * b2)
    a_ = (a0 + a2 * b1) * c_ + a1 * d_
    b_ = a2 * b0 * c_ + a0 * d_
    rep = FracLinearRep(*_normalize_quad((a_, b_, c_, d_)))
    _verify_rep(beta, elem, rep)
    return rep


def _verify_rep(beta: AlgebraicNumber, elem: FieldElement, rep: FracLinearRep) -> None:
    """(cX + d)(A2 X^2 + A1 X + A0) - (aX + b) must vanish modulo the
    minimal polynomial of beta."""
    num = [Fraction(0)] * 4
    for i, coef in enumerate((elem.a0, elem.a1, elem.a2)):
        num[i] += coef * rep.d
        num[i + 1] += coef * rep.c
    num[0] -= rep.b
    num[1] -= rep.a
    scale = lcm(*(v.denominator for v in num))
    cleared = IntPoly(tuple(int(v * scale) for v in num))
    if not cleared.is_zero() and not rem_mod(cleared, beta.poly).is_zero():
        raise EngineInvariantError("representation failed its exact verification")


def as_algebraic(beta: AlgebraicNumber, elem: FieldElement) -> AlgebraicNumber:
    """The element A0 + A1*beta + A2*beta^2 as an exact algebraic number.

    Its minimal polynomial is the characteristic polynomial of the
    multiplication-by-element matrix in the power basis; irrational
    elements of a cubic field always have degree exactly 3 (the field has
    no intermediate subfield).
    """
    _require_cubic_field(beta)
    if elem.is_rational():
        raise RationalElementError("element is rational; nothing to isolate")
    a = (elem.a0, elem.a1, elem.a2)
    b0, b1, b2 = _beta_cube(beta)
    # columns: coordinates of elem * beta^j
    col0 = (a[0], a[1], a[2])
    col1 = (a[2] * b0, a[0] + a[2] * b1, a[1] + a[2] * b2)
    col2 = (
        a[1] * b0 + a[2] * b2 * b0,
        a[1] * b1 + a[2] * (b0 + b2 * b1),
        a[0] + a[1] * b2 + a[2] * (b1 + b2 * b2),
    )
    m = (col0, col1, col2)

    def entry(i, j):
        return m[j][i]

    tr = entry(0, 0) + entry(1, 1) + entry(2, 2)
    s2 = (
        entry(0, 0) * entry(1, 1)
        - entry(0, 1) * entry(1, 0)
        + entry(0, 0) * entry(2, 2)
        - entry(0, 2) * entry(2, 0)
        + entry(1, 1) * entry(2, 2)
        - entry(1, 2) * entry(2, 1)
    )
    det = (
        entry(0, 0) * (entry(1, 1) * entry(2, 2) - entry(1, 2) * entry(2, 1))
        - entry(0, 1) * (entry(1, 0) * entry(2, 2) - entry(1, 2) * entry(2, 0))
        + entry(0, 2) * (entry(1, 0) * entry(2, 1) - entry(1, 1) * entry(2, 0))
    )
    coeffs = (-det, s2, -tr, Fraction(1))
    scale = lcm(*(c.denominator for c in coeffs))
    charpoly = IntPoly(tuple(int(c * scale) for c in coeffs))
    if charpoly.lc < 0:
        charpoly = -charpoly
    if rational_roots(charpoly):
        raise EngineInvariantError("irrational element produced a reducible polynomial")

    cur = beta
    coeff_ivs = [
        (elem.a0, elem.a0),
        (elem.a1, elem.a1),
        (elem.a2, elem.a2),
    ]
    # Unlike the one-to-one transports in cf.expand and map_moebius, this
    # enclosure comes from interval evaluation of a quadratic, which can be
    # wide enough to hold other roots of charpoly, so it is certified with
    # a Sturm count and refined until it isolates.
    while True:
        t = cur.interval
        value = iv.add(coeff_ivs[0], iv.add(iv.mul(coeff_ivs[1], t), iv.mul(coeff_ivs[2], iv.mul(t, t))))
        try:
            if sturm_count(charpoly, value[0], value[1]) == 1:
                return AlgebraicNumber(charpoly, value[0], value[1], irreducible=True)
        except EndpointRootError:
            pass
        cur = _bisect(cur, steps=4)


def apply_rep(beta: AlgebraicNumber, rep: FracLinearRep) -> AlgebraicNumber:
    """The number (a*beta + b)/(c*beta + d) for a rep with det != 0."""
    return map_moebius(beta, rep.a, rep.b, rep.c, rep.d)


@dataclass(frozen=True)
class TailMatch:
    found: bool
    offset_first: int
    offset_second: int
    window: int
    quotients: tuple[int, ...]
    note: str


def tails_match(e1: Expansion, e2: Expansion, window: int) -> TailMatch:
    """Search both expansions for a common tail.

    A match at offsets (i, j) means the quotient blocks a_{i+1..i+window}
    of the first expansion and a_{j+1..j+window} of the second agree AND
    the tails at the aligned step are exactly the same algebraic number
    (equal minimal polynomials, same root).  Quotient blocks can coincide
    by accident; equal tails cannot, so the tail identity is the match
    certificate.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if e1.depth < window or e2.depth < window:
        raise ValueError("expansions are shallower than the search window")
    q1, q2 = e1.quotients(), e2.quotients()
    max_i = e1.depth - window
    max_j = e2.depth - window
    for total in range(max_i + max_j + 1):
        for i in range(min(total, max_i) + 1):
            j = total - i
            if j > max_j:
                continue
            if q1[i : i + window] != q2[j : j + window]:
                continue
            t1 = e1.tail(i + window)
            t2 = e2.tail(j + window)
            if t1.poly == t2.poly and same_root(t1, t2):
                return TailMatch(
                    found=True,
                    offset_first=i,
                    offset_second=j,
                    window=window,
                    quotients=tuple(q1[i : i + window]),
                    note="exact tail identity at the aligned step",
                )
    return TailMatch(False, -1, -1, window, (), "no match within depth")


@dataclass(frozen=True)
class TransferReport:
    """Finite-depth check of lambda(y) <= |det| * lambda(x) and its mirror.

    Each estimate is lambda_estimate's minimum over the trailing half of
    the expanded steps, hence an upper bound of the true liminf constant;
    a finite-depth violation is only suggestive and is reported, never
    raised.
    """

    det: int
    lambda_first: iv.Interval
    lambda_second: iv.Interval
    forward_consistent: bool
    backward_consistent: bool
    relation_verified: bool
    caveat: str = "finite-depth estimates upper-bound the true constants"


def lambda_transfer_check(
    e_first: Expansion,
    e_second: Expansion,
    rep: FracLinearRep,
    precision: Fraction = Fraction(1, 10**9),
) -> TransferReport:
    """rep must relate the origins: second = (a*first + b)/(c*first + d)."""
    if rep.det == 0:
        raise ValueError("transfer needs det != 0")
    if e_first.depth < 10 or e_second.depth < 10:
        raise ValueError("transfer checks need depth >= 10 on both sides")
    image = apply_rep(e_first.origin, rep)
    relation_ok = image.poly == e_second.origin.poly and same_root(image, e_second.origin)
    l1 = lambda_estimate(e_first, precision=precision)
    l2 = lambda_estimate(e_second, precision=precision)
    k = abs(rep.det)
    return TransferReport(
        det=rep.det,
        lambda_first=l1,
        lambda_second=l2,
        forward_consistent=l2[0] <= k * l1[1],
        backward_consistent=l1[0] <= k * l2[1],
        relation_verified=relation_ok,
    )


@dataclass(frozen=True)
class BoundednessProfile:
    """Partial-quotient statistics for the boundedness dichotomy, plus the
    classical well-approximability statistic min_n q_n^2 |f0(p_n/q_n)|."""

    depth: int
    max_quotient: int
    argmax: int
    running_max: tuple[int, ...]
    histogram: dict[int, int]
    thue_siegel_min: Fraction
    thue_siegel_argmin: int


def boundedness_profile(e: Expansion) -> BoundednessProfile:
    if e.depth < 10:
        raise ValueError("profiles need depth >= 10")
    m = e.origin.degree
    qs = e.quotients()
    running: list[int] = []
    best = qs[0]
    argmax = 1
    hist: dict[int, int] = {}
    for idx, a in enumerate(qs, start=1):
        if a > best:
            best, argmax = a, idx
        running.append(best)
        hist[a] = hist.get(a, 0) + 1
    ts_min = None
    ts_arg = 1
    for step in e.steps:
        ts = Fraction(abs(step.c_signed), step.q ** (m - 2))
        if ts_min is None or ts < ts_min:
            ts_min, ts_arg = ts, step.n
    return BoundednessProfile(
        depth=e.depth,
        max_quotient=best,
        argmax=argmax,
        running_max=tuple(running),
        histogram=dict(sorted(hist.items())),
        thue_siegel_min=ts_min,
        thue_siegel_argmin=ts_arg,
    )
