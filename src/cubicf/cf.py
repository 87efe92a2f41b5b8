"""Exact continued-fraction engine.

Step n extracts a_n = floor(alpha_n) exactly, carries the tail's minimal
polynomial forward with the substitution x -> a_n + 1/x (a unimodular
coefficient transform), and transports the isolating interval through
t -> 1/(t - a_n).  That map is one-to-one and carries the old
polynomial's roots onto the new one's, so the transported interval
isolates the tail without re-certification; a two-point sign check guards
the invariant.  Convergents follow the usual three-term recurrence with
p_0 = 1, q_0 = 0.

Two independent derivations of each tail polynomial are available: the
local carry above, and a direct recomputation from the origin polynomial
through the accumulated convergent matrix.  The engine compares them at
checkpoints and treats any mismatch as fatal.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import intervals as iv
from .algnum import AlgebraicNumber, _bisect, floor_with_refined, refine, same_root
from .errors import CrossCheckError, EngineInvariantError, ReducibleInputError
from .poly import IntPoly, Unimodular2x2, moebius_transform, unimodular_transform

SOFT_DEPTH_CAP = 10_000


@dataclass(frozen=True)
class CFStep:
    """One expansion step: quotient, convergents, and the next tail."""

    n: int
    a: int
    p: int
    q: int
    p_prev: int
    q_prev: int
    tail_poly: IntPoly
    tail_lo: Fraction
    tail_hi: Fraction
    c_signed: int  # (-1)^n * q^m * f0(p/q); |c_signed| = lc(tail_poly)
    bits: int

    def gamma(self) -> Unimodular2x2:
        return Unimodular2x2(self.p, self.p_prev, self.q, self.q_prev)


@dataclass(frozen=True)
class Expansion:
    origin: AlgebraicNumber
    steps: tuple[CFStep, ...]
    checkpoints: tuple[int, ...]
    period: tuple[int, int] | None = None  # (preperiod, length), quadratic inputs only

    @property
    def depth(self) -> int:
        return len(self.steps)

    def quotients(self) -> list[int]:
        return [s.a for s in self.steps]

    def tail(self, n: int) -> AlgebraicNumber:
        """alpha_{n+1} as an exact number, for 1 <= n <= depth."""
        s = self.steps[n - 1]
        return AlgebraicNumber(s.tail_poly, s.tail_lo, s.tail_hi, self.origin.irreducible)


def default_checkpoints(depth: int, every: int | None = None) -> frozenset[int]:
    """Direct-recomputation schedule: every step to 100 and every 10th
    beyond, unless an explicit cadence is given (which always includes the
    final step)."""
    if every is not None:
        if every < 1:
            raise ValueError("cadence must be >= 1")
        return frozenset(n for n in range(1, depth + 1) if n % every == 0) | {depth}
    return frozenset(n for n in range(1, depth + 1) if n <= 100 or n % 10 == 0)


def expand(x: AlgebraicNumber, depth: int, crosscheck_every: int | None = None) -> Expansion:
    """Expand an irrational algebraic number to ``depth`` partial quotients."""
    if x.degree < 2:
        raise ReducibleInputError("cannot expand a rational number")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > SOFT_DEPTH_CAP:
        import warnings

        warnings.warn(
            f"depth {depth} exceeds the soft cap of {SOFT_DEPTH_CAP}; "
            "coefficient sizes grow linearly with depth",
            stacklevel=2,
        )

    f0 = x.poly
    m = x.degree
    checkpoints = default_checkpoints(depth, crosscheck_every)
    steps: list[CFStep] = []
    cur = x
    p_prev, q_prev = 1, 0
    p_prev2, q_prev2 = 0, 1

    for n in range(1, depth + 1):
        a, cur = floor_with_refined(cur)
        if n >= 2 and a < 1:
            raise EngineInvariantError("partial quotient below 1 past the first step")
        while not (cur.lo > a and cur.hi < a + 1):
            cur = _bisect(cur)
        tail_poly = moebius_transform(cur.poly, a, 1, 1, 0)
        if tail_poly.degree() != m:
            raise EngineInvariantError("tail polynomial degree dropped")
        # t -> 1/(t - a) maps (lo, hi) one-to-one onto the transported
        # interval and cur.poly's roots onto tail_poly's, so the image
        # isolates the tail (NOTES.md, interval transport).
        tail_lo = 1 / (cur.hi - a)
        tail_hi = 1 / (cur.lo - a)
        if tail_lo <= 1:
            raise EngineInvariantError("tail interval must lie in (1, oo)")
        if tail_poly.sign_at(tail_lo) * tail_poly.sign_at(tail_hi) >= 0:
            raise EngineInvariantError("tail polynomial has no sign change on the tail interval")

        p = a * p_prev + p_prev2
        q = a * q_prev + q_prev2
        if p * q_prev - p_prev * q != (-1) ** n:
            raise EngineInvariantError("convergent determinant identity failed")
        base = f0.eval_cleared(p, q)
        c_signed = base if n % 2 == 0 else -base
        if abs(c_signed) != tail_poly.lc:
            raise EngineInvariantError("leading coefficient disagrees with q^m f0(p/q)")

        if n in checkpoints:
            direct = unimodular_transform(f0, Unimodular2x2(p, p_prev, q, q_prev))
            if direct != tail_poly:
                raise CrossCheckError(f"direct tail polynomial differs at step {n}")

        steps.append(
            CFStep(
                n=n,
                a=a,
                p=p,
                q=q,
                p_prev=p_prev,
                q_prev=q_prev,
                tail_poly=tail_poly,
                tail_lo=tail_lo,
                tail_hi=tail_hi,
                c_signed=c_signed,
                bits=tail_poly.bit_size(),
            )
        )
        cur = AlgebraicNumber(tail_poly, tail_lo, tail_hi, x.irreducible)
        p_prev2, q_prev2 = p_prev, q_prev
        p_prev, q_prev = p, q

    period = _detect_period(steps, x.irreducible) if m == 2 else None
    return Expansion(x, tuple(steps), tuple(sorted(checkpoints & set(range(1, depth + 1)))), period)


def _detect_period(steps: list[CFStep], irreducible: bool) -> tuple[int, int] | None:
    """First recurrence of a tail (same polynomial, same root): quadratic
    expansions are eventually periodic, so this is cheap sanity metadata."""
    seen: dict[IntPoly, list[int]] = {}
    for j, step in enumerate(steps):
        tail_j = AlgebraicNumber(step.tail_poly, step.tail_lo, step.tail_hi, irreducible)
        for i in seen.get(step.tail_poly, []):
            si = steps[i]
            tail_i = AlgebraicNumber(si.tail_poly, si.tail_lo, si.tail_hi, irreducible)
            if same_root(tail_i, tail_j):
                return (i, j - i)
        seen.setdefault(step.tail_poly, []).append(j)
    return None


def tail_poly_direct(x: AlgebraicNumber, step: CFStep) -> IntPoly:
    """Tail polynomial recomputed from the origin through the convergent
    matrix.  Must equal the carried polynomial; a mismatch is fatal."""
    direct = unimodular_transform(x.poly, step.gamma())
    if direct != step.tail_poly:
        raise CrossCheckError(f"direct tail polynomial differs at step {step.n}")
    return direct


@dataclass(frozen=True)
class ApproxStat:
    """Per-step approximation quality: the scaled error q|q·alpha - p| as a
    certified enclosure, and the exact rational q^2·|f0(p/q)|."""

    n: int
    scaled_error: iv.Interval
    thue_siegel: Fraction


def _scaled_error(step: CFStep, tail: AlgebraicNumber) -> iv.Interval:
    # q|q alpha - p| = q / (q*alpha_{n+1} + q_prev), with alpha_{n+1} enclosed
    q, q_prev = step.q, step.q_prev
    return (
        Fraction(q, q * tail.hi + q_prev),
        Fraction(q, q * tail.lo + q_prev),
    )


def approximation_stats(e: Expansion, precision: Fraction = Fraction(1, 10**12)) -> list[ApproxStat]:
    if e.depth < 2:
        raise ValueError("need depth >= 2")
    m = e.origin.degree
    out = []
    for step in e.steps:
        tail = refine(e.tail(step.n), precision)
        out.append(
            ApproxStat(
                n=step.n,
                scaled_error=_scaled_error(step, tail),
                thue_siegel=Fraction(abs(step.c_signed), step.q ** (m - 2)),
            )
        )
    return out


def lambda_estimate(
    e: Expansion,
    upto: int | None = None,
    precision: Fraction = Fraction(1, 10**9),
) -> iv.Interval:
    """Certified enclosure estimating liminf_n q_n|q_n·alpha - p_n|.

    The minimum is taken over the trailing half of the expanded steps so
    that pre-periodic dips (which the liminf ignores) do not pin the
    estimate; the value approximates the bad-approximability constant of
    the number from above as depth grows.
    """
    if e.depth < 5:
        raise ValueError("need depth >= 5 for a meaningful estimate")
    last = e.depth if upto is None else min(upto, e.depth)
    first = last // 2  # 0-based start of the trailing window
    best_lo, best_hi = None, None
    for step in e.steps[first:last]:
        tail = refine(e.tail(step.n), precision)
        lo, hi = _scaled_error(step, tail)
        best_lo = lo if best_lo is None else min(best_lo, lo)
        best_hi = hi if best_hi is None else min(best_hi, hi)
    return (best_lo, best_hi)
