"""Independent references for the benchmark's correctness gates.

Nothing here imports cubicf.  Partial quotients come from mpmath
multiprecision roots by plain floor/reciprocal (the approach of
tests/oracles.py); tail polynomials and the constants C_n are rebuilt from
those quotients with a few lines of integer arithmetic.  The digest of a
step sequence covers exactly the quotients, the tail polynomials and C_n,
so it does not depend on how the engine encloses its tails.
"""
from __future__ import annotations

import hashlib
from math import gcd


def primitive(coeffs) -> tuple[int, ...]:
    """Content 1 and a positive leading coefficient, constant term first."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    out = [c // g for c in coeffs]
    if out[-1] < 0:
        out = [-c for c in out]
    return tuple(out)


def cubic_discriminant(coeffs) -> int:
    d, c, b, a = coeffs
    return 18 * a * b * c * d - 4 * b**3 * d + b * b * c * c - 4 * a * c**3 - 27 * a * a * d * d


def real_root_count(coeffs) -> int:
    """Distinct real roots of a squarefree cubic, from the discriminant sign."""
    return 3 if cubic_discriminant(coeffs) > 0 else 1


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [k for k in range(1, n + 1) if n % k == 0]


def has_rational_root(coeffs) -> bool:
    """Rational-root test for small coefficients (|c0|, |lc| up to a few hundred)."""
    if coeffs[0] == 0:
        return True
    for p in _divisors(coeffs[0]):
        for q in _divisors(coeffs[-1]):
            if eval_cleared(coeffs, p, q) == 0 or eval_cleared(coeffs, -p, q) == 0:
                return True
    return False


def eval_cleared(coeffs, p: int, q: int) -> int:
    """q^deg * f(p/q)."""
    m = len(coeffs) - 1
    return sum(c * p**i * q ** (m - i) for i, c in enumerate(coeffs))


def _real_roots(coeffs, dps: int):
    """Ascending real roots as mpmath numbers at ``dps`` digits."""
    from mpmath import mp, mpc, mpf

    with mp.workdps(dps):
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=400, extraprec=2 * dps)
        tol = mpf(10) ** (-dps // 2)
        return sorted(r.real for r in (mpc(r) for r in roots) if abs(mpc(r).imag) < tol)


def _quotients_at(coeffs, root_index: int, count: int, dps: int) -> list[int]:
    from mpmath import mp

    with mp.workdps(dps):
        x = _real_roots(coeffs, dps)[root_index - 1]
        out = []
        for _ in range(count):
            a = int(mp.floor(x))
            frac = x - a
            if frac <= 0 or frac >= 1:
                raise ArithmeticError("oracle precision exhausted")
            out.append(a)
            x = 1 / frac
        return out


def cf_quotients(coeffs, root_index: int, count: int) -> list[int]:
    """First ``count`` partial quotients of the ``root_index``-th real root
    (1-based, ascending).  Computed at two working precisions that must
    agree, so a precision shortfall raises instead of answering wrongly."""
    bits = max(abs(c) for c in coeffs).bit_length()
    dps = int(1.1 * count) + bits + 60
    first = _quotients_at(coeffs, root_index, count, dps)
    if first != _quotients_at(coeffs, root_index, count, dps + 40 + count // 8):
        raise ArithmeticError("oracle quotients depend on the working precision")
    return first


def root_value(coeffs, root_index: int, dps: int = 60):
    return _real_roots(coeffs, dps)[root_index - 1]


def reference_steps(coeffs, quotients):
    """(n, a, tail polynomial, C_n) for each step, from the quotients alone.

    The tail after step n is the primitive part of x^m T(a_n + 1/x), where
    T is the previous tail; C_n = (-1)^n q_n^m f0(p_n/q_n).
    """
    f0 = primitive(coeffs)
    m = len(f0) - 1
    tail = list(f0)
    p_prev, q_prev, p_prev2, q_prev2 = 1, 0, 0, 1
    for n, a in enumerate(quotients, start=1):
        shifted = tail[:]
        for i in range(m):  # Taylor shift: T(x) -> T(x + a)
            for j in range(m - 1, i - 1, -1):
                shifted[j] += a * shifted[j + 1]
        tail = list(primitive(shifted[::-1]))
        p, q = a * p_prev + p_prev2, a * q_prev + q_prev2
        base = eval_cleared(f0, p, q)
        yield n, a, tuple(tail), base if n % 2 == 0 else -base
        p_prev2, q_prev2, p_prev, q_prev = p_prev, q_prev, p, q


def digest(steps) -> str:
    """sha256 over ``n:a:tail coefficients:C`` lines."""
    h = hashlib.sha256()
    for n, a, tail, c in steps:
        h.update(f"{n}:{a}:{','.join(map(str, tail))}:{c}\n".encode())
    return h.hexdigest()
