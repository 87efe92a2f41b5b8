"""The benchmark's workloads: seeded inputs, the timed operations, and
the check of every operation's output.

Each workload hands out rounds of operations.  An operation is one
request of a closed-loop client: ``run`` is the timed call into cubicf and
``check`` returns None when the output is correct, or the reason it is not.
Library calls go through module attributes at call time, so a tracer that
rebinds those attributes sees them.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

ALG = importlib.import_module("cubicf.algnum")
CF = importlib.import_module("cubicf.cf")
CLI = importlib.import_module("cubicf.cli")
CONJ = importlib.import_module("cubicf.conjugates")
IntPoly = importlib.import_module("cubicf.poly").IntPoly

HERE = Path(__file__).resolve().parent
SCHEMA = HERE.parent / "schema" / "expansion.schema.json"

CBRT2 = ("cbrt2", (-2, 0, 0, 1), 1)  # complex-conjugate case
C7 = ("c7", (-1, -2, 1, 1), 3)  # largest root of x^3+x^2-2x-1, totally real case


@dataclass
class Op:
    rid: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    steps: int  # continued-fraction steps the operation certifies when it succeeds
    kind: str  # what the latency report groups by: the input, or the request shape and class
    limit_s: float | None = None  # per-request time limit


def poly_text(coeffs) -> str:
    """CLI spelling of a polynomial given constant term first."""
    parts = []
    for power in range(len(coeffs) - 1, -1, -1):
        c = coeffs[power]
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag) if power == 0 else ("" if mag == 1 else str(mag)) + ("x" if power == 1 else f"x^{power}")
        parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
    return "".join(parts)


def small_cubic(rng: random.Random, bound: int = 20) -> tuple[int, ...]:
    """Primitive irreducible cubic with coefficients in [-bound, bound]."""
    while True:
        coeffs = tuple(rng.randint(-bound, bound) for _ in range(3)) + (rng.randint(1, bound),)
        if coeffs == oracle.primitive(coeffs) and not oracle.has_rational_root(coeffs):
            return coeffs


def eisenstein_cubic(rng: random.Random, u_range, lc_range, mid: int, primes=(2, 3, 5, 7)) -> tuple[int, ...]:
    """Irreducible cubic by Eisenstein's criterion at a small prime P:
    constant term P*u with |u| in u_range, middle coefficients multiples
    of P up to P*mid, leading coefficient in lc_range and prime to P."""
    prime = rng.choice(primes)
    while True:
        u = rng.randrange(*u_range) * rng.choice((1, -1))
        lc = rng.randrange(*lc_range)
        if u % prime and lc % prime:
            break
    c1, c2 = (prime * rng.randint(-mid, mid) for _ in range(2))
    return oracle.primitive((prime * u, c1, c2, lc))


def reset_caches():
    """Drop memoised results so every operation runs as a cold request."""
    for cache in CACHES:
        cache.cache_clear()


CACHES = [
    value
    for name in ("cubicf.poly", "cubicf.algnum", "cubicf.cf", "cubicf.conjugates", "cubicf.field")
    for value in vars(importlib.import_module(name)).values()
    if hasattr(value, "cache_clear")
]


def _overlaps(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


# --- expand-deep ---------------------------------------------------------------------------------


class ExpandDeep:
    """cf.expand at depth 2000 with a cross-check every 10 steps."""

    depth = 2000
    cadence = 10

    def __init__(self, seed: int):
        rng = random.Random(seed)
        coeffs = small_cubic(rng, bound=10)
        self.inputs = [CBRT2, C7, ("random", coeffs, rng.randint(1, oracle.real_root_count(coeffs)))]
        self.numbers = [ALG.make_algebraic(IntPoly(c), index=k) for _, c, k in self.inputs]
        self._refs: dict[int, str] = {}

    def round_ops(self, r: int) -> list[Op]:
        return [
            Op(f"{name}#{r}", lambda x=x: CF.expand(x, self.depth, crosscheck_every=self.cadence),
               lambda e, i=i: self._check(i, e), self.depth, name)
            for i, ((name, _, _), x) in enumerate(zip(self.inputs, self.numbers))
        ]

    def _check(self, i: int, e) -> str | None:
        if e.depth != self.depth:
            return f"depth {e.depth}, expected {self.depth}"
        got = oracle.digest((s.n, s.a, s.tail_poly.coeffs, s.c_signed) for s in e.steps)
        if got != self.reference(i):
            return "step digest differs from the independent reference"
        return None

    def reference(self, i: int) -> str:
        """Digest of the independent step sequence; for the named inputs it
        must also equal the digest recorded at the seed commit."""
        if i not in self._refs:
            name, coeffs, k = self.inputs[i]
            quotients = oracle.cf_quotients(coeffs, k, self.depth)
            ref = oracle.digest(oracle.reference_steps(coeffs, quotients))
            recorded = RECORDED.get(f"{name}@{self.depth}")
            if recorded is not None and recorded != ref:
                raise RuntimeError(f"independent reference for {name} differs from the recorded digest")
            self._refs[i] = ref
        return self._refs[i]


RECORDED = json.loads((HERE / "digests.json").read_text())


# --- verify-certify ------------------------------------------------------------------------------


class VerifyCertify:
    """expand at depth 40, then conjugates.verification_report at 1e-6."""

    depth = 40
    rel_precision = Fraction(1, 10**6)

    def __init__(self, seed: int):
        inputs = [CBRT2, C7]
        random.Random(seed).shuffle(inputs)  # the inputs are fixed; the seed only orders them
        self.inputs = inputs
        self.numbers = [ALG.make_algebraic(IntPoly(c), index=k) for _, c, k in inputs]
        self._quotients: dict[int, list[int]] = {}

    def round_ops(self, r: int) -> list[Op]:
        return [
            Op(f"{name}#{r}", lambda x=x: self._verify(x), lambda out, i=i: self._check(i, out), self.depth, name)
            for i, ((name, _, _), x) in enumerate(zip(self.inputs, self.numbers))
        ]

    def _verify(self, x):
        e = CF.expand(x, self.depth)
        return e, CONJ.verification_report(e, self.rel_precision)

    def _check(self, i: int, out) -> str | None:
        e, rep = out
        if i not in self._quotients:
            _, coeffs, k = self.inputs[i]
            self._quotients[i] = oracle.cf_quotients(coeffs, k, self.depth)
        if e.quotients() != self._quotients[i]:
            return "quotients differ from the mpmath oracle"
        if not (rep.exact_ok and rep.disc_product_ok):
            return "exact invariants or the disc-product identity failed"
        last_limit, last_asym = rep.limit[-1], rep.asym[-1]
        if not _overlaps(last_limit.value, last_limit.target):
            return "final limit enclosure misses its target"
        if not (_overlaps(last_asym.ratio_first, last_asym.target)
                and _overlaps(last_asym.ratio_second, last_asym.target)):
            return "final asym enclosures miss their target"
        return None


# --- request-stream ------------------------------------------------------------------------------

# One round: (kind, coefficient class, count).  Each request shape the
# README shows (expand as JSON and as CSV, verify, express, stats, stats
# --relate) gets an equal share of 18, split evenly between the small and
# medium coefficient classes, except verify: the README verifies a small
# cubic, and a medium one costs 0.15-0.8 s (the regime of verify-certify).
# The two adversarial requests, one per adversarial class, are a chosen
# weight, not a measured one; they have the coefficient shapes that make
# input validation exponential in digit count (a long constant term, a
# long leading coefficient), sized to finish well under the time limit at
# the seed commit.  A round has 110 requests, so 11 lie beyond its p90.
SHARE = 18
MIX = [
    *((kind, cls, SHARE // 2) for kind in ("expand-json", "expand-csv", "express", "stats", "stats-relate")
      for cls in ("small", "medium")),
    ("verify", "small", SHARE),
    ("expand-json", "adversarial-c0", 1), ("expand-json", "adversarial-lc", 1),
]
EXPAND_DEPTH = 30
VERIFY_DEPTH = 8
STATS_DEPTH = 30
LIMIT_S = 5.0


class RequestStream:
    """Short in-process ``cubicf.cli.main(argv)`` requests, stdout captured."""

    def __init__(self, seed: int):
        self.seed = seed
        self._validator = None

    @staticmethod
    def _cubic(rng: random.Random, cls: str) -> tuple[int, ...]:
        if cls == "small":
            return small_cubic(rng)
        if cls == "medium":
            return eisenstein_cubic(rng, (10**7, 10**8), (10, 100), mid=10**8)
        # The divisor scan of rational_roots costs about sqrt(|c0|) steps,
        # times sqrt(lc) steps per divisor of c0; these ranges are narrow so
        # that every adversarial request costs about the same.
        if cls == "adversarial-c0":  # a 14-digit constant term
            return eisenstein_cubic(rng, (10**13, 12 * 10**12), (1, 10), mid=100, primes=(2,))
        return eisenstein_cubic(rng, (1, 2), (10**12, 12 * 10**11), mid=100, primes=(2,))  # 13-digit lc

    def round_ops(self, r: int) -> list[Op]:
        rng = random.Random(f"{self.seed}/{r}")
        kinds = [(kind, cls) for kind, cls, n in MIX for _ in range(n)]
        rng.shuffle(kinds)
        return [self._request(rng, kind, cls, f"{r}.{j}") for j, (kind, cls) in enumerate(kinds)]

    def _request(self, rng, kind, cls, rid) -> Op:
        coeffs = self._cubic(rng, cls)
        index = rng.randint(1, oracle.real_root_count(coeffs))
        if kind in ("expand-json", "expand-csv"):
            fmt = kind.split("-")[1]
            argv = ["expand", "--poly", poly_text(coeffs), "--root", str(index),
                    "--depth", str(EXPAND_DEPTH), "--format", fmt]
            check = lambda out: self._check_expand(out, coeffs, index, fmt)  # noqa: E731
            steps = EXPAND_DEPTH
        elif kind == "verify":
            argv = ["verify", "--poly", poly_text(coeffs), "--root", str(index),
                    "--depth", str(VERIFY_DEPTH), "--format", "json"]
            check = lambda out: self._check_verify(out, coeffs, index)  # noqa: E731
            steps = VERIFY_DEPTH
        elif kind == "express":
            elem = [str(rng.randint(-9, 9)), str(rng.randint(1, 9)),
                    f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"]
            argv = ["express", "--poly", poly_text(coeffs), *elem, "--format", "json"]
            check = lambda out: self._check_express(out, coeffs, elem)  # noqa: E731
            steps = 0
        else:
            if kind == "stats":
                other = self._cubic(rng, cls)
                other_index = rng.randint(1, oracle.real_root_count(other))
                relate = None
            else:  # second = (s*first + k)/(0*first + 1): order kept for s > 0, reversed for s < 0
                s, k = rng.choice((1, -1, 2, -2)), rng.randint(-3, 3)
                other = oracle.primitive(_affine_image(coeffs, s, k))
                n_real = oracle.real_root_count(coeffs)
                other_index = index if s > 0 else n_real + 1 - index
                relate = f"{s},{k},0,1"
            argv = ["stats", "--poly", poly_text(coeffs), "--root", str(index),
                    "--poly", poly_text(other), "--root", str(other_index),
                    "--depth", str(STATS_DEPTH), "--format", "json"]
            if relate:
                argv.append(f"--relate={relate}")
            pairs = [(coeffs, index), (other, other_index)]
            check = lambda out: self._check_stats(out, pairs, relate is not None)  # noqa: E731
            steps = 2 * STATS_DEPTH
        return Op(f"{rid} {kind} {cls}", lambda: _call_cli(argv), check, steps, f"{kind} {cls}", LIMIT_S)

    # checks: exit code 0 is the expected outcome of every generated request

    def _schema_error(self, doc) -> str | None:
        if self._validator is None:
            import jsonschema

            self._validator = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))
        error = next(iter(self._validator.iter_errors(doc)), None)
        return None if error is None else f"schema: {error.message}"

    def _check_expand(self, out, coeffs, index, fmt) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}, expected 0"
        if fmt == "json":
            doc = json.loads(text)
            problem = self._schema_error(doc)
            if problem:
                return problem
            if doc["origin"]["poly"] != [str(c) for c in coeffs]:
                return "origin polynomial differs from the input"
            got = [int(s["a"]) for s in doc["steps"]]
        else:
            rows = text.splitlines()
            if rows[0] != ",".join(CLI.EXPAND_CSV_COLUMNS):
                return "unexpected CSV header"
            got = [int(row.split(",")[1]) for row in rows[1:]]
        if got != oracle.cf_quotients(coeffs, index, EXPAND_DEPTH):
            return "quotients differ from the mpmath oracle"
        return None

    def _check_verify(self, out, coeffs, index) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}, expected 0"
        doc = json.loads(text)
        problem = self._schema_error(doc)
        if problem:
            return problem
        if not (doc["reports"]["exact_ok"] and doc["reports"]["disc_product_ok"]):
            return "verification report flags a failure"
        if [int(s["a"]) for s in doc["steps"]] != oracle.cf_quotients(coeffs, index, VERIFY_DEPTH):
            return "quotients differ from the mpmath oracle"
        return None

    def _check_express(self, out, coeffs, elem) -> str | None:
        from mpmath import mp, mpf

        code, text = out
        if code != 0:
            return f"exit code {code}, expected 0"
        doc = json.loads(text)
        a, b, c, d, det = (int(doc[k]) for k in ("a", "b", "c", "d", "det"))
        if det != a * d - b * c or det == 0:
            return "determinant is wrong or zero"
        with mp.workdps(60):
            beta = oracle.root_value(coeffs, 1, 60)
            a0, a1, a2 = (mpf(Fraction(v).numerator) / Fraction(v).denominator for v in elem)
            want = a0 + a1 * beta + a2 * beta**2
            if abs((a * beta + b) / (c * beta + d) - want) > mpf(10) ** -40 * max(1, abs(want)):
                return "representation does not evaluate to the element"
        return None

    def _check_stats(self, out, pairs, related) -> str | None:
        code, text = out
        if code != 0:
            return f"exit code {code}, expected 0"
        doc = json.loads(text)
        for item, (coeffs, index) in zip(doc["inputs"], pairs):
            if int(item["max_quotient"]) != max(oracle.cf_quotients(coeffs, index, STATS_DEPTH)):
                return "max quotient differs from the mpmath oracle"
            lo, hi = (Fraction(v) for v in item["lambda"])
            if not 0 < lo <= hi:
                return "lambda enclosure is empty or not positive"
        if not isinstance(doc["tails_match"]["found"], bool):
            return "tails_match.found is missing"
        if related and doc["lambda_transfer"]["relation_verified"] is not True:
            return "the stated relation was not verified"
        return None


def _affine_image(coeffs, s: int, k: int) -> tuple[int, ...]:
    """Polynomial whose roots are s*r + k for the roots r of coeffs:
    s^m f((y - k)/s), expanded with integer arithmetic."""
    m = len(coeffs) - 1
    out = [0] * (m + 1)
    for i, c in enumerate(coeffs):
        # c * (y - k)^i * s^(m - i)
        term = [1]
        for _ in range(i):
            term = [x - k * y for x, y in zip([0] + term, term + [0])]
        for j, t in enumerate(term):
            out[j] += c * t * s ** (m - i)
    return tuple(out)


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = CLI.main(argv)
        except SystemExit as exc:  # argparse rejects an argument
            code = exc.code
    return code, out.getvalue()


WORKLOADS = {"expand-deep": ExpandDeep, "verify-certify": VerifyCertify, "request-stream": RequestStream}
