"""Conjugate data and limit-law verification for cubic irrationalities.

For a cubic with a negative discriminant the two non-real conjugates are
recovered exactly from the trace and norm of the quadratic cofactor
(sigma + conj = -c2/c3 - alpha, sigma*conj = -c0/(c3*alpha)); with a
positive discriminant the other two real roots are isolated directly.
Conjugate separation is also available through the discriminant product
formula |r1-r2| = sqrt|D| / (c3*|f'(r0)|), which yields tight certified
enclosures without any complex arithmetic; the two routes cross-check
each other in the test suite.

Reducedness (all other conjugates inside the disk |z + 1/2| < 1/2) is
decided exactly.  See NOTES.md for the derivations used here.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intervals as iv
from .algnum import AlgebraicNumber, _bisect, isolate_real_roots, refine, same_root, sign_at
from .cf import Expansion, lambda_estimate
from .errors import CubicRequiredError, EngineInvariantError
from .poly import IntPoly, _halvings, discriminant, sturm_count


def _require_cubic(x: AlgebraicNumber) -> None:
    if x.degree != 3:
        raise CubicRequiredError(
            "this facility is specific to cubic irrationalities and does not "
            f"apply to degree {x.degree}"
        )


def _bits_for(precision: Fraction) -> int:
    return max(8, (precision.denominator // max(precision.numerator, 1)).bit_length() + 4)


@dataclass(frozen=True)
class ComplexBox:
    """Axis-aligned enclosure of one conjugate."""

    re: iv.Interval
    im: iv.Interval


@dataclass(frozen=True)
class ConjugatePair:
    kind: str  # "two-real" | "complex-pair"
    first: ComplexBox
    second: ComplexBox


@dataclass(frozen=True)
class ReducednessVerdict:
    reduced: bool
    method: str  # "exact-totally-real" | "exact-complex-case"
    witness: dict


def conjugates(x: AlgebraicNumber, precision: Fraction = Fraction(1, 10**15)) -> ConjugatePair:
    """Certified boxes around the two conjugates of a cubic number."""
    _require_cubic(x)
    precision = Fraction(precision)
    f = x.poly
    disc = discriminant(f)
    if disc > 0:
        others = []
        for lohi in isolate_real_roots(f):
            cand = AlgebraicNumber(f, lohi[0], lohi[1], x.irreducible)
            if not same_root(cand, x):
                others.append(cand)
        if len(others) != 2:
            raise EngineInvariantError("totally real cubic must have two other roots")
        boxes = []
        zero = (Fraction(0), Fraction(0))
        for other in others:
            other = refine(other, precision)
            boxes.append(ComplexBox(re=other.interval, im=zero))
        return ConjugatePair("two-real", boxes[0], boxes[1])

    c0, _, c2, c3 = f.coeffs
    bits = _bits_for(precision)
    cur = x
    while cur.lo <= 0 <= cur.hi:  # the root is nonzero; exclude 0 before dividing
        cur = _bisect(cur)
    # width(re) = width(t)/2, so no rung passes while width(t) > 2*precision:
    # start at the first rung that can (NOTES.md, first passable rung)
    rungs = -(-_halvings((cur.hi - cur.lo) / (2 * precision)) // 8)
    cur = _bisect(cur, steps=8 * rungs)
    bits += 4 * rungs
    while True:
        t = cur.interval
        trace = iv.sub((Fraction(-c2, c3), Fraction(-c2, c3)), t)
        re = iv.scale(trace, Fraction(1, 2))
        norm = iv.div((Fraction(-c0, c3), Fraction(-c0, c3)), t)
        im_sq = iv.sub(norm, iv.mul(re, re))
        im = iv.sqrt_interval(im_sq, bits)
        if iv.width(re) <= precision and iv.width(im) <= precision:
            break
        cur = _bisect(cur, steps=8)
        bits += 4
    return ConjugatePair(
        "complex-pair",
        ComplexBox(re=re, im=im),
        ComplexBox(re=re, im=iv.neg(im)),
    )


def is_reduced(x: AlgebraicNumber) -> ReducednessVerdict:
    """Exact verdict: x > 1 and both conjugates inside |z + 1/2| < 1/2.

    Totally real case: both other roots in (-1, 0).  Complex case: the
    disk condition is equivalent to c3*x^2 + c2*x + 2*c0 > 0 at the number
    (NOTES.md).  Never uncertain.
    """
    _require_cubic(x)
    f = x.poly
    gt_one = sign_at(x, IntPoly((-1, 1))) > 0
    if discriminant(f) > 0:
        inside = sturm_count(f, Fraction(-1), Fraction(0))
        return ReducednessVerdict(
            reduced=gt_one and inside == 2,
            method="exact-totally-real",
            witness={"gt_one": gt_one, "conjugates_in_unit_interval": inside},
        )
    c0, _, c2, c3 = f.coeffs
    disk_sign = sign_at(x, IntPoly((2 * c0, c2, c3)))
    return ReducednessVerdict(
        reduced=gt_one and disk_sign > 0,
        method="exact-complex-case",
        witness={"gt_one": gt_one, "disk_sign": disk_sign},
    )


def reduced_flags(e: Expansion) -> list[bool]:
    """Reducedness of alpha_1 (the origin) through alpha_{depth+1}."""
    _require_cubic(e.origin)
    flags = [is_reduced(e.origin).reduced]
    flags.extend(is_reduced(e.tail(n)).reduced for n in range(1, e.depth + 1))
    return flags


def _onset(flags: list[bool]) -> int | None:
    if not flags[-1]:
        return None
    n0 = len(flags)  # 1-based index of the first flag of the trailing reduced run
    while n0 > 1 and flags[n0 - 2]:
        n0 -= 1
    return n0


def reducedness_onset(e: Expansion) -> int | None:
    """Least n0 with alpha_n reduced for every n0 <= n <= depth+1, or None
    if the expansion never stabilises reduced within its depth."""
    return _onset(reduced_flags(e))


def separation(x: AlgebraicNumber, rel_precision: Fraction = Fraction(1, 10**9)) -> iv.Interval:
    """|sigma1 - sigma2| via the discriminant product formula."""
    _require_cubic(x)
    f = x.poly
    d_abs = abs(discriminant(f))
    fp = f.derivative()
    bits = 64
    cur = x
    while True:
        froot = iv.sqrt_bounds(Fraction(d_abs), bits)
        deriv = iv.poly_eval(fp.coeffs, cur.interval)
        if deriv[0] <= 0 <= deriv[1]:
            cur = _bisect(cur, steps=8)
            continue
        value = iv.div(froot, iv.scale(iv.absolute(deriv), f.lc))
        if iv.width(value) <= rel_precision * value[0]:
            return value
        cur = _bisect(cur, steps=8)
        bits += 8


def beta_constant(x: AlgebraicNumber, precision: Fraction = Fraction(1, 10**15)) -> iv.Interval:
    """Certified enclosure of |sigma1-sigma2| / |(x-sigma1)(x-sigma2)|,
    the limit of q_n^2 times the tail conjugate separation.

    The denominator |(x-sigma1)(x-sigma2)| is the quadratic cofactor of
    the minimal polynomial evaluated at x, i.e. |f'(x)|/c3.
    """
    _require_cubic(x)
    precision = Fraction(precision)
    f = x.poly
    fp = f.derivative()
    cur = x
    conj_precision = precision
    while True:
        pair = conjugates(cur, conj_precision)
        if pair.kind == "two-real":
            sep = iv.absolute(iv.sub(pair.second.re, pair.first.re))
        else:
            sep = iv.scale(pair.first.im, 2)
        deriv = iv.poly_eval(fp.coeffs, cur.interval)
        if not (deriv[0] <= 0 <= deriv[1]):
            cofactor = iv.scale(iv.absolute(deriv), Fraction(1, f.lc))
            value = iv.div(sep, cofactor)
            if iv.width(value) <= precision:
                return value
        cur = _bisect(cur, steps=8)
        conj_precision /= 2


@dataclass(frozen=True)
class LimitRecord:
    n: int
    value: iv.Interval  # q_n^2 * |sigma1(tail) - sigma2(tail)|
    target: iv.Interval  # enclosure of the limit constant


def limit_sequence(e: Expansion, rel_precision: Fraction = Fraction(1, 10**6)) -> list[LimitRecord]:
    """Per-step certified enclosures of q_n^2 times the conjugate
    separation of the tail, with the limit constant alongside."""
    _require_cubic(e.origin)
    return _limit_records(e, rel_precision, beta_constant(e.origin, rel_precision / 4))


def _limit_records(e: Expansion, rel_precision: Fraction, beta: iv.Interval) -> list[LimitRecord]:
    out = []
    for step in e.steps:
        sep = separation(e.tail(step.n), rel_precision)
        out.append(LimitRecord(n=step.n, value=iv.scale(sep, step.q**2), target=beta))
    return out


@dataclass(frozen=True)
class AsymRecord:
    n: int
    ratio_first: iv.Interval  # |tail - sigma_j| * q_n^2 |f0(p/q)|, j = 1
    ratio_second: iv.Interval  # same for j = 2
    target: iv.Interval  # |D|^(1/4) / beta^(1/2)


def asym_target(x: AlgebraicNumber, precision: Fraction = Fraction(1, 10**9)) -> iv.Interval:
    """|D|^(1/4) / beta^(1/2) = sqrt(sqrt|D| / beta) as an enclosure."""
    _require_cubic(x)
    return _asym_target(x, precision, beta_constant(x, precision / 4))


def _asym_target(x: AlgebraicNumber, precision: Fraction, beta: iv.Interval) -> iv.Interval:
    bits = _bits_for(precision)
    inner = iv.div(iv.sqrt_bounds(Fraction(abs(discriminant(x.poly))), bits), beta)
    return iv.sqrt_interval(inner, bits)


def asym_sequence(e: Expansion, rel_precision: Fraction = Fraction(1, 10**6)) -> list[AsymRecord]:
    """Distance-to-conjugate asymptotics: per step and conjugate j, a
    certified enclosure of |tail - sigma_j(tail)| * q_n^2 |f0(p_n/q_n)|.

    Both ratios approach |D|^(1/4)/beta^(1/2); in the totally real case
    they differ at finite n and only the limits agree.
    """
    _require_cubic(e.origin)
    return _asym_records(e, rel_precision, asym_target(e.origin, rel_precision))


def _asym_records(e: Expansion, rel_precision: Fraction, target: iv.Interval) -> list[AsymRecord]:
    disc_negative = discriminant(e.origin.poly) < 0
    out = []
    for step in e.steps:
        scale = Fraction(abs(step.c_signed), step.q)  # q_n^2 |f0(p_n/q_n)|
        tail = e.tail(step.n)
        fp = tail.poly.derivative()
        if disc_negative:
            bits = _bits_for(rel_precision) + 8
            cur = tail
            while True:
                deriv = iv.poly_eval(fp.coeffs, cur.interval)
                if not (deriv[0] <= 0 <= deriv[1]):
                    dist_sq = iv.scale(iv.absolute(deriv), Fraction(1, tail.poly.lc))
                    dist = iv.sqrt_interval(dist_sq, bits)
                    ratio = iv.scale(dist, scale)
                    if iv.width(ratio) <= rel_precision * ratio[0]:
                        break
                cur = _bisect(cur, steps=8)
                bits += 8
            out.append(AsymRecord(step.n, ratio, ratio, target))
        else:
            prec = rel_precision / 4
            while True:
                pair = conjugates(tail, prec)
                t_ref = refine(tail, prec)
                r1 = iv.scale(iv.absolute(iv.sub(t_ref.interval, pair.first.re)), scale)
                r2 = iv.scale(iv.absolute(iv.sub(t_ref.interval, pair.second.re)), scale)
                if iv.width(r1) <= rel_precision * r1[0] and iv.width(r2) <= rel_precision * r2[0]:
                    break
                prec /= 4
            out.append(AsymRecord(step.n, r1, r2, target))
    return out


def disc_product_enclosure(
    x: AlgebraicNumber, lc_abs: int, precision: Fraction = Fraction(1, 10**9)
) -> iv.Interval:
    """Enclosure of C^2 |(x-s1)(x-s2)(s1-s2)| built from conjugate boxes
    only; equals sqrt|D| exactly, which the tests assert by overlap.

    The conjugate gap shrinks like 1/C^2 (NOTES.md), so the boxes start
    that much narrower than the tolerance; an enclosure still too wide
    is rebuilt from boxes four times narrower."""
    _require_cubic(x)
    prec = Fraction(precision) / (1024 * lc_abs**2)
    while True:
        pair = conjugates(x, prec)
        t = refine(x, prec).interval
        if pair.kind == "two-real":
            d1 = iv.absolute(iv.sub(t, pair.first.re))
            d2 = iv.absolute(iv.sub(t, pair.second.re))
            sep = iv.absolute(iv.sub(pair.second.re, pair.first.re))
            prod = iv.mul(iv.mul(d1, d2), sep)
        else:
            re, im = pair.first.re, pair.first.im
            dist_sq = iv.add(iv.mul(iv.sub(t, re), iv.sub(t, re)), iv.mul(im, im))
            prod = iv.mul(dist_sq, iv.scale(im, 2))
        value = iv.scale(prod, lc_abs**2)
        if iv.width(value) <= precision * max(value[0], Fraction(1)):
            return value
        prec /= 4


@dataclass(frozen=True)
class PisotRecord:
    n: int
    c_signed: int
    reduced: bool
    pisot: bool  # |C_n| = 1 together with a reduced tail


def _pisot_records(e: Expansion, flags: list[bool]) -> list[PisotRecord]:
    return [  # flags[s.n] is the flag of alpha_{n+1}
        PisotRecord(s.n, s.c_signed, flags[s.n], abs(s.c_signed) == 1 and flags[s.n])
        for s in e.steps
    ]


def pisot_scan(e: Expansion) -> list[PisotRecord]:
    """Flag steps whose tail is a unit-leading-coefficient reduced number:
    such tails are algebraic integers > 1 with conjugates in the open unit
    disk.  Hits are expected to be extremely rare."""
    return _pisot_records(e, reduced_flags(e))


def is_pisot(x: AlgebraicNumber) -> bool:
    """Exact certificate: algebraic integer > 1 with all conjugates of
    modulus < 1 (cubic case)."""
    _require_cubic(x)
    f = x.poly
    if f.lc != 1:
        return False
    if sign_at(x, IntPoly((-1, 1))) <= 0:
        return False
    if discriminant(f) > 0:
        return sturm_count(f, Fraction(-1), Fraction(1)) == 2
    c0 = f.coeffs[0]
    # |sigma|^2 = -c0/x < 1  <=>  x + c0 > 0  (monic, x > 0)
    return sign_at(x, IntPoly((c0, 1))) > 0


@dataclass(frozen=True)
class VerificationReport:
    """Exact-invariant checks plus the empirical limit sequences for one
    expansion of a cubic number."""

    discriminant: int
    discriminant_constant: bool
    determinant_ok: bool
    lead_coeff_ok: bool
    crosscheck_steps: tuple[int, ...]
    reduced: tuple[bool, ...]
    onset: int | None
    monotone_reduced: bool
    limit: tuple[LimitRecord, ...]
    asym: tuple[AsymRecord, ...]
    pisot: tuple[PisotRecord, ...]
    lambda_enclosure: iv.Interval | None  # None when the expansion is too shallow
    disc_product_ok: bool

    @property
    def exact_ok(self) -> bool:
        return (
            self.discriminant_constant
            and self.determinant_ok
            and self.lead_coeff_ok
            and self.monotone_reduced
            and self.disc_product_ok
        )


def verification_report(
    e: Expansion, rel_precision: Fraction = Fraction(1, 10**6)
) -> VerificationReport:
    _require_cubic(e.origin)
    f0 = e.origin.poly
    d0 = discriminant(f0)
    disc_ok = all(discriminant(s.tail_poly) == d0 for s in e.steps)
    det_ok = all(s.p * s.q_prev - s.p_prev * s.q == (-1) ** s.n for s in e.steps)
    lead_ok = all(
        abs(s.c_signed) == s.tail_poly.lc
        and s.c_signed == (1 if s.n % 2 == 0 else -1) * f0.eval_cleared(s.p, s.q)
        for s in e.steps
    )
    flags = reduced_flags(e)
    # once reduced, stays reduced: no True -> False transition
    monotone = not any(flags[k] and not flags[k + 1] for k in range(len(flags) - 1))
    beta = beta_constant(e.origin, rel_precision / 4)  # one beta for the limit and asym targets
    sqrt_d = iv.sqrt_bounds(Fraction(abs(d0)), 96)
    product_ok = all(
        iv.overlaps(disc_product_enclosure(e.tail(s.n), abs(s.c_signed), Fraction(1, 10**6)), sqrt_d)
        for s in e.steps
    )
    return VerificationReport(
        discriminant=d0,
        discriminant_constant=disc_ok,
        determinant_ok=det_ok,
        lead_coeff_ok=lead_ok,
        crosscheck_steps=e.checkpoints,
        reduced=tuple(flags),
        onset=_onset(flags),
        monotone_reduced=monotone,
        limit=tuple(_limit_records(e, rel_precision, beta)),
        asym=tuple(_asym_records(e, rel_precision, _asym_target(e.origin, rel_precision, beta))),
        pisot=tuple(_pisot_records(e, flags)),
        lambda_enclosure=lambda_estimate(e) if e.depth >= 5 else None,
        disc_product_ok=product_ok,
    )
