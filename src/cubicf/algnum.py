"""Exact real algebraic numbers.

A number is a squarefree primitive integer polynomial together with a
rational isolating interval pinning one of its real roots.  Everything is
decided by exact sign computations: refinement bisects with endpoint sign
tests, floors bisect over the integers inside the interval, and signs of
other polynomials at the number are obtained by reduction modulo the
minimal polynomial followed by interval evaluation.

Values are immutable; refinement returns a new number for the same root.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import intervals as iv
from .errors import (
    DegreeError,
    EndpointRootError,
    EngineInvariantError,
    NotSquarefreeError,
    ReducibleInputError,
    RootSelectionError,
    ZeroPolynomialError,
)
from .poly import (
    IntPoly,
    content_primitive,
    divide_out_rational_root,
    is_squarefree,
    moebius_transform,
    qq_gcd,
    rational_roots,
    rem_mod,
    sturm_count,
)


@dataclass(frozen=True)
class AlgebraicNumber:
    """One real root of ``poly``, isolated by the open interval (lo, hi).

    ``irreducible`` records whether ``poly`` is a verified minimal
    polynomial; it is always True on degree <= 3 construction paths and
    False for degree >= 4 inputs, where only squarefreeness is enforced.
    """

    poly: IntPoly
    lo: Fraction
    hi: Fraction
    irreducible: bool = True

    @property
    def degree(self) -> int:
        return self.poly.degree()

    @property
    def interval(self) -> iv.Interval:
        return (self.lo, self.hi)

    def __repr__(self) -> str:
        mid = float((self.lo + self.hi) / 2)
        return f"AlgebraicNumber({self.poly} ~ {mid:.6g})"


def _bisect(x: AlgebraicNumber, steps: int = 1) -> AlgebraicNumber:
    f = x.poly
    lo, hi = x.lo, x.hi
    s_lo = f.sign_at(lo)
    for _ in range(steps):
        mid = (lo + hi) / 2
        s = f.sign_at(mid)
        if s == 0:
            raise EngineInvariantError("bisection midpoint is a root")
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return replace(x, lo=lo, hi=hi)


def refine(x: AlgebraicNumber, width_bound: Fraction) -> AlgebraicNumber:
    """Same root, interval width <= width_bound."""
    width_bound = Fraction(width_bound)
    f = x.poly
    lo, hi = x.lo, x.hi
    if hi - lo <= width_bound:
        return x
    s_lo = f.sign_at(lo)
    while hi - lo > width_bound:
        mid = (lo + hi) / 2
        s = f.sign_at(mid)
        if s == 0:
            raise EngineInvariantError("bisection midpoint is a root")
        if s == s_lo:
            lo = mid
        else:
            hi = mid
    return replace(x, lo=lo, hi=hi)


def isolate_real_roots(f: IntPoly) -> list[iv.Interval]:
    """Disjoint rational isolating intervals for all real roots, ascending.

    f must be squarefree.  Endpoints are never roots.
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    _, g = content_primitive(f)
    if g.degree() == 0:
        return []
    bound = 1 + max(abs(c) for c in g.coeffs) // abs(g.lc) + 1
    out: list[iv.Interval] = []

    def split_point(lo: Fraction, hi: Fraction) -> Fraction:
        k = 2
        while True:  # at most deg(g) candidates can be roots
            probe = lo + (hi - lo) / k
            if g.sign_at(probe) != 0:
                return probe
            k += 1

    lo0, hi0 = Fraction(-bound), Fraction(bound)
    work = [(lo0, hi0, sturm_count(g, lo0, hi0))]
    while work:
        lo, hi, n = work.pop()
        if n == 0:
            continue
        if n == 1:
            out.append((lo, hi))
            continue
        mid = split_point(lo, hi)
        left = sturm_count(g, lo, mid)
        # right pushed first so the worklist yields ascending intervals
        work.append((mid, hi, n - left))
        work.append((lo, mid, left))
    return out


def make_algebraic(
    f: IntPoly,
    index: int | None = None,
    isolating: iv.Interval | None = None,
    require_irrational: bool = True,
) -> AlgebraicNumber:
    """Pin one real root of f, selected by ascending index (1-based) or by
    a caller-supplied isolating interval.

    Rational roots are divided out of f so the stored polynomial is the
    selected root's minimal polynomial whenever the degree allows us to
    certify that (always for degree <= 3; for higher degree the rational-
    root-free part is stored and flagged unverified).
    """
    if (index is None) == (isolating is None):
        raise RootSelectionError("select a root by index or by interval, not both")
    _, g = content_primitive(f)
    if g.degree() < 1:
        raise DegreeError("constant polynomial has no roots")
    if not is_squarefree(g):
        raise NotSquarefreeError("polynomial is not squarefree")

    roots = isolate_real_roots(g)
    if index is not None:
        if not 1 <= index <= len(roots):
            raise RootSelectionError(
                f"root index {index} out of range: polynomial has {len(roots)} real root(s)"
            )
        lo, hi = roots[index - 1]
    else:
        lo, hi = Fraction(isolating[0]), Fraction(isolating[1])
        if lo >= hi:
            raise RootSelectionError("empty selection interval")
        if g.sign_at(lo) == 0 or g.sign_at(hi) == 0:
            raise RootSelectionError("selection endpoint is a root; perturb it")
        if sturm_count(g, lo, hi) != 1:
            raise RootSelectionError("interval does not isolate exactly one root")

    rat = rational_roots(g)
    selected_rational = next((r for r in rat if lo < r < hi), None)
    if selected_rational is not None:
        if require_irrational:
            raise ReducibleInputError(
                f"selected root {selected_rational} is rational"
            )
        den, num = selected_rational.denominator, selected_rational.numerator
        return AlgebraicNumber(IntPoly((-num, den)), lo, hi, irreducible=True)

    minpoly = g
    for r in rat:
        minpoly = divide_out_rational_root(minpoly, r)
    verified = minpoly.degree() <= 3
    # interval still isolates within minpoly: its roots are a subset of g's
    out = AlgebraicNumber(minpoly, lo, hi, irreducible=verified)
    return refine(out, Fraction(1, 2))


def sign_at(x: AlgebraicNumber, h: IntPoly) -> int:
    """Exact sign of h at the number; 0 iff the minimal polynomial divides h."""
    if h.is_zero():
        return 0
    f = x.poly
    if x.degree == 1:
        value = Fraction(-f.coeffs[0], f.coeffs[1])
        return h.sign_at(value)
    r = rem_mod(h, f) if h.degree() >= f.degree() else h
    if r.is_zero():
        return 0
    if not x.irreducible:
        g = qq_gcd(f, h)
        if g.degree() >= 1:
            cur = x
            while True:
                try:
                    if sturm_count(g, cur.lo, cur.hi) >= 1:
                        return 0
                    break
                except EndpointRootError:
                    cur = _bisect(cur)
    cur = x
    while True:
        lo_v, hi_v = iv.poly_eval(r.coeffs, cur.interval)
        if lo_v > 0:
            return 1
        if hi_v < 0:
            return -1
        cur = _bisect(cur, steps=4)


def floor_with_refined(x: AlgebraicNumber) -> tuple[int, AlgebraicNumber]:
    """Exact floor plus the number with its interval narrowed accordingly."""
    if x.degree < 2:
        raise DegreeError("floor by refinement requires an irrational")
    f = x.poly
    lo, hi = x.lo, x.hi
    s_lo = f.sign_at(lo)
    low = lo.numerator // lo.denominator
    high = hi.numerator // hi.denominator
    if hi.denominator == 1:
        high -= 1  # hi itself is excluded from the open interval
    while low < high:
        mid = (low + high + 1) // 2  # integer strictly inside (lo, hi)
        s = f.sign_at(Fraction(mid))
        if s == 0:
            raise EngineInvariantError("integer root inside an isolating interval")
        if s == s_lo:
            lo = Fraction(mid)
            low = mid
        else:
            hi = Fraction(mid)
            high = mid - 1
    return low, replace(x, lo=lo, hi=hi)


def floor_of(x: AlgebraicNumber) -> int:
    return floor_with_refined(x)[0]


def approximate(x: AlgebraicNumber, digits: int) -> str:
    """Correctly rounded decimal string with ``digits`` fractional digits.

    Rounds half away from zero; the interval is refined only until the
    rounding is unambiguous (impossible ties: the number is irrational
    whenever rounding could tie, except for exact rationals which format
    directly).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    scale = 10**digits
    cur = x
    if cur.degree == 1:
        value = Fraction(-cur.poly.coeffs[0], cur.poly.coeffs[1])
        return iv.decimal_str(value, digits)
    while iv.round_scaled(cur.lo, scale) != iv.round_scaled(cur.hi, scale):
        cur = _bisect(cur)
    n = iv.round_scaled(cur.lo, scale)
    sign = "-" if n < 0 else ""
    ip, fp = divmod(abs(n), scale)
    return f"{sign}{ip}.{str(fp).zfill(digits)}"


def same_root(x: AlgebraicNumber, y: AlgebraicNumber) -> bool:
    """Exact equality test for two numbers sharing a minimal polynomial."""
    if x.poly != y.poly:
        return False
    a, b = x, y
    while True:
        if a.hi <= b.lo or b.hi <= a.lo:
            return False
        lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
        if sturm_count(a.poly, lo, hi) == 1:
            return True
        a = _bisect(a)
        b = _bisect(b)


def map_moebius(x: AlgebraicNumber, a: int, b: int, c: int, d: int) -> AlgebraicNumber:
    """The number (a·x + b)/(c·x + d) for an integer matrix with det != 0."""
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    if x.degree == 1:
        value = Fraction(-x.poly.coeffs[0], x.poly.coeffs[1])
        image = (a * value + b) / (c * value + d)
        w = Fraction(1, 2)
        return AlgebraicNumber(
            IntPoly((-image.numerator, image.denominator)), image - w, image + w
        )
    # adjugate: roots of the transform are the images of x.poly's roots
    newpoly = moebius_transform(x.poly, d, -b, -c, a)
    cur = x
    if c != 0:
        pole = Fraction(-d, c)
        while cur.lo <= pole <= cur.hi:
            cur = _bisect(cur)

    # With the pole outside [lo, hi] the map is a bijection of (lo, hi) onto
    # the image interval, and newpoly's roots are exactly the images of
    # x.poly's, so the image isolates the mapped root.
    u = (a * cur.lo + b) / (c * cur.lo + d)
    v = (a * cur.hi + b) / (c * cur.hi + d)
    ilo, ihi = (u, v) if u < v else (v, u)
    if newpoly.sign_at(ilo) * newpoly.sign_at(ihi) >= 0:
        raise EngineInvariantError("mapped polynomial has no sign change on the image interval")
    return AlgebraicNumber(newpoly, ilo, ihi, cur.irreducible)
