"""Exact integer-polynomial algebra.

Polynomials are dense integer coefficient tuples with the constant term
first.  The canonical form used for minimal polynomials throughout the
package is *primitive*: content 1 and positive leading coefficient, which
makes equality and discriminant comparisons plain ``==`` checks.

The module provides evaluation, content/primitive-part splitting,
resultants and discriminants (fraction-free Bareiss elimination on the
Sylvester matrix), Sturm chains with exact sign-variation counts and real
root isolation, the rational-root test in time polynomial in the
coefficients' bit size (bisection to width 1/(2·lc), then one exact
candidate per real root; no divisor enumeration), and fractional-linear
coefficient substitutions f(x) -> (cx+d)^deg(f) * f((ax+b)/(cx+d)).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    DegreeDropError,
    DegreeError,
    EndpointRootError,
    ZeroPolynomialError,
)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, constant term first, trailing zeros trimmed."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @staticmethod
    def const(c: int) -> "IntPoly":
        return IntPoly((c,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        other = IntPoly.const(other) if isinstance(other, int) else other
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return IntPoly(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = IntPoly.const(other) if isinstance(other, int) else other
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(tuple(out))

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def eval_cleared(self, p: int, q: int) -> int:
        """q**deg(f) * f(p/q), an exact integer (q > 0)."""
        if self.is_zero():
            return 0
        acc = self.coeffs[-1]
        qpow = 1
        for c in reversed(self.coeffs[:-1]):
            qpow *= q
            acc = acc * p + c * qpow
        return acc

    def eval_fraction(self, r: Fraction) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        p, q = r.numerator, r.denominator
        return Fraction(self.eval_cleared(p, q), q ** self.degree())

    def sign_at(self, r: Fraction) -> int:
        return _sign(self.eval_cleared(r.numerator, r.denominator))

    def bit_size(self) -> int:
        return max((abs(c).bit_length() for c in self.coeffs), default=0)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            elif i == 1:
                body = "x" if mag == 1 else f"{mag}x"
            else:
                body = f"x^{i}" if mag == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)


def eval_at_rational(f: IntPoly, r: Fraction) -> Fraction:
    """Exact value of f at a rational point."""
    return f.eval_fraction(Fraction(r))


def content_primitive(f: IntPoly) -> tuple[int, IntPoly]:
    """Split f = ±c·g with c > 0 and g primitive with positive leading coefficient."""
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no primitive part")
    c = f.content()
    g = IntPoly(tuple(x // c for x in f.coeffs))
    if g.lc < 0:
        g = -g
    return c, g


def _bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free Gaussian elimination."""
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def resultant(f: IntPoly, g: IntPoly) -> int:
    if f.is_zero() or g.is_zero():
        return 0
    m, n = f.degree(), g.degree()
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for i in range(n):
        rows.append([0] * i + fd + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + gd + [0] * (size - n - 1 - i))
    return _bareiss_det(rows)


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(m(m-1)/2) * res(f, f') / lc(f), exactly."""
    m = f.degree()
    if m < 2:
        raise DegreeError("discriminant needs degree >= 2")
    res = resultant(f, f.derivative())
    num = res if (m * (m - 1) // 2) % 2 == 0 else -res
    d, r = divmod(num, f.lc)
    if r != 0:  # always divides; guards against construction bugs
        raise ArithmeticError("leading coefficient does not divide the resultant")
    return d


@dataclass(frozen=True)
class Unimodular2x2:
    """Integer 2x2 matrix with determinant ±1, acting by (ax+b)/(cx+d)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if abs(self.det) != 1:
            raise ValueError(f"matrix {self} is not unimodular")

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    @staticmethod
    def identity() -> "Unimodular2x2":
        return Unimodular2x2(1, 0, 0, 1)

    def inverse(self) -> "Unimodular2x2":
        s = self.det  # 1/det == det for det = ±1
        return Unimodular2x2(self.d * s, -self.b * s, -self.c * s, self.a * s)

    def __matmul__(self, other: "Unimodular2x2") -> "Unimodular2x2":
        return Unimodular2x2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )


def moebius_transform(f: IntPoly, a: int, b: int, c: int, d: int) -> IntPoly:
    """Primitive part of (cx+d)^deg(f) * f((ax+b)/(cx+d)).

    The roots of the result are the preimages of f's roots under
    t -> (at+b)/(ct+d).  Degree must be preserved; a drop means f had a
    root at the pole of the substitution, which is impossible for the
    rational-root-free polynomials this package constructs.
    """
    if a * d - b * c == 0:
        raise ValueError("singular substitution matrix")
    m = f.degree()
    if m < 1:
        raise DegreeError("substitution needs degree >= 1")
    fc = f.coeffs
    # Horner on plain lists: acc <- acc*(ax+b) + f_i*(cx+d)^(m-i), where
    # den holds (cx+d)^(m-i); both have m-i+1 coefficients after each pass.
    acc = [fc[m]]
    den = [1]
    for i in range(m - 1, -1, -1):
        acc = [b * acc[0], *(b * acc[j] + a * acc[j - 1] for j in range(1, len(acc))), a * acc[-1]]
        den = [d * den[0], *(d * den[j] + c * den[j - 1] for j in range(1, len(den))), c * den[-1]]
        fi = fc[i]
        if fi:
            acc = [u + fi * v for u, v in zip(acc, den)]
    if acc[m] == 0:
        raise DegreeDropError("degree dropped: polynomial has a root at the pole")
    g = gcd(*acc)
    if acc[m] < 0:
        g = -g
    return IntPoly(tuple(u // g for u in acc))


def unimodular_transform(f: IntPoly, gamma: Unimodular2x2) -> IntPoly:
    return moebius_transform(f, gamma.a, gamma.b, gamma.c, gamma.d)


def rem_mod(h: IntPoly, f: IntPoly) -> IntPoly:
    """Remainder of h modulo f over Q, cleared by a positive rational factor.

    The result is an integer polynomial with the same sign as the true
    remainder at every point, content 1; zero iff f divides h.
    """
    m = f.degree()
    if m <= 0:
        return IntPoly(())
    r = [Fraction(c) for c in h.coeffs]
    flc = Fraction(f.lc)
    while len(r) - 1 >= m:
        if r[-1] == 0:
            r.pop()
            continue
        factor = r[-1] / flc
        top = len(r) - 1
        for k in range(m + 1):
            r[top - m + k] -= factor * f.coeffs[k]
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    if not r:
        return IntPoly(())
    scale = lcm(*(c.denominator for c in r))
    ints = [int(c * scale) for c in r]
    g = 0
    for c in ints:
        g = gcd(g, c)
    return IntPoly(tuple(c // g for c in ints))


def qq_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """gcd over Q, returned as a primitive integer polynomial."""
    a, b = f, g
    if a.degree() < b.degree():
        a, b = b, a
    while not b.is_zero():
        a, b = b, rem_mod(a, b)
    if a.is_zero():
        raise ZeroPolynomialError("gcd of zero polynomials")
    return content_primitive(a)[1]


def is_squarefree(f: IntPoly) -> bool:
    if f.degree() <= 1:
        return not f.is_zero()
    return sturm_chain(f)[-1].degree() == 0  # a constant multiple of gcd(f, f')


@functools.lru_cache(maxsize=512)
def sturm_chain(f: IntPoly) -> tuple[IntPoly, ...]:
    """Signed-remainder chain of f; scalings are positive so signs survive."""
    if f.is_zero():
        raise ZeroPolynomialError("no Sturm chain for the zero polynomial")
    head = IntPoly(tuple(c // f.content() for c in f.coeffs))
    chain = [head]
    if head.degree() >= 1:
        d = head.derivative()
        chain.append(IntPoly(tuple(c // d.content() for c in d.coeffs)))
    while chain[-1].degree() >= 1:
        nxt = -rem_mod(chain[-2], chain[-1])
        if nxt.is_zero():
            break
        chain.append(nxt)
    return tuple(chain)


def _variations(chain: tuple[IntPoly, ...], r: Fraction) -> int:
    signs = []
    p, q = r.numerator, r.denominator
    for poly in chain:
        s = _sign(poly.eval_cleared(p, q))
        if s:
            signs.append(s)
    flips = 0
    for prev, cur in zip(signs, signs[1:]):
        if prev != cur:
            flips += 1
    return flips


def sturm_count(f: IntPoly, lo: Fraction, hi: Fraction) -> int:
    """Exact number of distinct real roots of squarefree f in (lo, hi)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    if f.sign_at(lo) == 0 or f.sign_at(hi) == 0:
        raise EndpointRootError("endpoint is a root; perturb the interval")
    chain = sturm_chain(f)
    return _variations(chain, lo) - _variations(chain, hi)


def isolate_real_roots(f: IntPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational isolating intervals for all real roots, ascending.

    f must be squarefree.  Endpoints are never roots.
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    _, g = content_primitive(f)
    if g.degree() == 0:
        return []
    bound = 1 + max(abs(c) for c in g.coeffs) // abs(g.lc) + 1
    out: list[tuple[Fraction, Fraction]] = []

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


def _halvings(ratio: Fraction) -> int:
    """Fewest halvings k with ratio / 2**k <= 1 (ratio > 0)."""
    return (-(-ratio.numerator // ratio.denominator) - 1).bit_length()


def _halve(f: IntPoly, lo: Fraction, hi: Fraction, steps: int) -> tuple[Fraction, Fraction]:
    """Bisect (lo, hi) ``steps`` times, keeping the half where f changes sign.

    The endpoints run as integer numerators over one shared denominator
    and each midpoint's sign comes straight from ``eval_cleared``, so no
    midpoint is normalised; the endpoints returned are the same rationals
    plain ``Fraction`` bisection reaches.  A midpoint where f vanishes
    stops the loop and comes back as ``(mid, mid)``.
    """
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    s_lo = _sign(f.eval_cleared(lo.numerator, lo.denominator))
    moved_lo = moved_hi = False
    for _ in range(steps):
        mid = a + b
        den *= 2
        s = _sign(f.eval_cleared(mid, den))
        if s == 0:
            root = Fraction(mid, den)
            return root, root
        if s == s_lo:
            a, b = mid, 2 * b
            moved_lo = True
        else:
            a, b = 2 * a, mid
            moved_hi = True
    # an endpoint that never moved is returned as the object passed in
    return (Fraction(a, den) if moved_lo else lo), (Fraction(b, den) if moved_hi else hi)


def _exact_quotient(f: IntPoly, g: IntPoly) -> IntPoly:
    """f / g for primitive g; ValueError unless g divides f.

    By Gauss's lemma the quotient of an integer polynomial by a primitive
    divisor has integer coefficients, so the long division stays in Z.
    """
    r = list(f.coeffs)
    n = g.degree()
    quot = [0] * (len(r) - n)
    for i in range(len(r) - 1, n - 1, -1):
        c, rem = divmod(r[i], g.lc)
        if rem:
            raise ValueError(f"{g} does not divide {f}")
        quot[i - n] = c
        for k, gk in enumerate(g.coeffs):
            r[i - n + k] -= c * gk
    if any(r[:n]):
        raise ValueError(f"{g} does not divide {f}")
    return IntPoly(tuple(quot))


def rational_roots(f: IntPoly) -> list[Fraction]:
    """All rational roots, ascending, in time polynomial in the bit size.

    A root p/q of the squarefree primitive part g has q | lc(g), so it is
    k/lc(g) for an integer k.  Each isolating interval of g is bisected to
    width <= 1/(2·lc(g)), after which it holds at most one such point; that
    one candidate is tested exactly (NOTES.md, rational roots).
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial")
    _, g = content_primitive(f)
    if g.degree() < 1:
        return []
    common = sturm_chain(g)[-1]  # a constant multiple of gcd(g, g')
    if common.degree() >= 1:
        g = _exact_quotient(g, content_primitive(common)[1])
    lc = g.lc
    roots = []
    for lo, hi in isolate_real_roots(g):
        lo, hi = _halve(g, lo, hi, _halvings((hi - lo) * 2 * lc))
        if lo == hi:  # a midpoint was the root
            roots.append(lo)
            continue
        k = lo.numerator * lc // lo.denominator + 1  # least k with k/lc > lo
        if k * hi.denominator < hi.numerator * lc and g.eval_cleared(k, lc) == 0:
            roots.append(Fraction(k, lc))
    return roots


def divide_out_rational_root(f: IntPoly, r: Fraction) -> IntPoly:
    """Primitive part of the exact quotient of f by (q·x - p), for a rational root r = p/q."""
    if f.degree() < 1:
        raise DegreeError("nothing to divide out")
    return content_primitive(_exact_quotient(f, IntPoly((-r.numerator, r.denominator))))[1]
