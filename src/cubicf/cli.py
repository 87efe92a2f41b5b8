"""Command-line front end: expression parsing, subcommands, JSON/CSV/text.

All exact numbers are emitted as decimal strings ("123", "5/4"), never as
floats, so output is bit-identical across platforms.  Enclosures are
[lo, hi] string pairs.  Exit codes: 0 ok, 1 exact-invariant violation,
2 parse error, 3 invalid root selection, 4 rejected input polynomial.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import intervals as iv
from .algnum import AlgebraicNumber, make_algebraic
from .cf import Expansion, expand, lambda_estimate
from .conjugates import verification_report
from .errors import (
    CubicfError,
    CubicRequiredError,
    DegreeError,
    EngineInvariantError,
    NotSquarefreeError,
    PolyParseError,
    RationalElementError,
    ReducibleInputError,
    RootSelectionError,
    ZeroPolynomialError,
)
from .field import (
    FieldElement,
    FracLinearRep,
    boundedness_profile,
    express,
    lambda_transfer_check,
    tails_match,
)
from .poly import IntPoly

DEFAULT_DEPTH = 30
DEFAULT_PRECISION = Fraction(1, 10**12)
DEFAULT_FORMAT = "text"


def parse_poly(text: str) -> IntPoly:
    """Parse ``term (('+'|'-') term)*`` with term ``int | int? '*'? x ('^' uint)?``.

    Whitespace-insensitive; repeated powers are summed; errors carry the
    offending offset.
    """
    pos = 0
    n = len(text)
    powers: dict[int, int] = {}

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def read_uint() -> int:
        nonlocal pos
        start = pos
        while pos < n and text[pos].isdigit():
            pos += 1
        if start == pos:
            raise PolyParseError("expected digits", start)
        return int(text[start:pos])

    skip_ws()
    if pos == n:
        raise PolyParseError("empty polynomial", pos)
    first = True
    while True:
        skip_ws()
        if pos == n:
            break
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            skip_ws()
        elif not first:
            raise PolyParseError("expected '+' or '-' between terms", pos)
        coeff = None
        if pos < n and text[pos].isdigit():
            coeff = read_uint()
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos >= n or text[pos] != "x":
                    raise PolyParseError("expected 'x' after '*'", pos)
        power = 0
        if pos < n and text[pos] == "x":
            pos += 1
            power = 1
            skip_ws()
            if pos < n and text[pos] == "^":
                pos += 1
                skip_ws()
                power = read_uint()
        elif coeff is None:
            raise PolyParseError("expected a coefficient or 'x'", pos)
        if coeff is None:
            coeff = 1
        powers[power] = powers.get(power, 0) + sign * coeff
        first = False
    f = IntPoly(tuple(powers.get(k, 0) for k in range(max(powers) + 1)))
    if f.is_zero():
        raise ZeroPolynomialError("polynomial is zero")
    return f


def poly_to_string(f: IntPoly) -> str:
    """Canonical rendering that round-trips through parse_poly."""
    return str(f)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PolyParseError(f"bad rational {text!r}: {exc}", 0)


def fr_str(x) -> str:
    fr = Fraction(x)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def _enc(pair: iv.Interval) -> list[str]:
    return [fr_str(pair[0]), fr_str(pair[1])]


def _dec(fr, digits=10) -> str:
    return iv.decimal_str(Fraction(fr), digits)


def _short(value: int, limit: int = 40) -> str:
    s = str(value)
    if len(s) <= limit:
        return s
    return f"{s[:8]}...({len(s)}d)"


@dataclass
class RunConfig:
    depth: int
    precision: Fraction
    fmt: str
    out: str | None
    crosscheck_every: int | None = None

    @staticmethod
    def from_args(args) -> "RunConfig":
        depth = args.depth
        if depth is None:
            env = os.environ.get("CUBICF_DEPTH")
            depth = int(env) if env else DEFAULT_DEPTH
        if depth < 1:
            raise ValueError("depth must be >= 1")
        precision = DEFAULT_PRECISION
        if hasattr(args, "precision"):  # only verify takes --precision
            text = args.precision if args.precision is not None else os.environ.get("CUBICF_PRECISION")
            if text:
                precision = parse_rational(text)
            if precision <= 0:
                raise ValueError("precision must be positive")
        fmt = args.format or os.environ.get("CUBICF_FORMAT") or DEFAULT_FORMAT
        if fmt not in ("text", "json", "csv"):
            raise ValueError(f"unknown format {fmt!r}")
        return RunConfig(
            depth=depth,
            precision=precision,
            fmt=fmt,
            out=args.out,
            crosscheck_every=getattr(args, "crosscheck_every", None),
        )


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _select_number(args) -> tuple[AlgebraicNumber, object]:
    f = parse_poly(args.poly)
    if getattr(args, "interval", None):
        lo, hi = parse_rational(args.interval[0]), parse_rational(args.interval[1])
        return make_algebraic(f, isolating=(lo, hi)), [fr_str(lo), fr_str(hi)]
    index = args.root if args.root is not None else 1
    return make_algebraic(f, index=index), index


def _expansion_doc(e: Expansion, source: str, root_desc, reports: dict | None = None) -> dict:
    return {
        "origin": {
            "poly": [str(c) for c in e.origin.poly.coeffs],
            "interval": [fr_str(e.origin.lo), fr_str(e.origin.hi)],
            "source": source,
            "root": root_desc,
        },
        "steps": [
            {
                "n": s.n,
                "a": str(s.a),
                "p": str(s.p),
                "q": str(s.q),
                "tail_poly": [str(c) for c in s.tail_poly.coeffs],
                "C": str(s.c_signed),
                "bits": s.bits,
                "tail_interval": [fr_str(s.tail_lo), fr_str(s.tail_hi)],
            }
            for s in e.steps
        ],
        "reports": reports or {},
    }


EXPAND_CSV_COLUMNS = ["n", "a", "p", "q", "tail_poly", "C", "bits"]
VERIFY_CSV_COLUMNS = [
    "n", "a", "disc", "reduced", "limit_lo", "limit_hi",
    "asym1_lo", "asym1_hi", "asym2_lo", "asym2_hi", "C", "pisot",
]


def _expand_csv(e: Expansion) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(EXPAND_CSV_COLUMNS)
    for s in e.steps:
        w.writerow(
            [s.n, s.a, s.p, s.q, " ".join(str(c) for c in s.tail_poly.coeffs), s.c_signed, s.bits]
        )
    return buf.getvalue()


def _expand_text(e: Expansion) -> str:
    lines = [f"expansion of root of {e.origin.poly} (depth {e.depth})"]
    if e.period is not None:
        lines.append(f"periodic tail detected: preperiod {e.period[0]}, length {e.period[1]}")
    lines.append(f"{'n':>5} {'a':>12} {'p':>20} {'q':>20} {'C':>16} {'bits':>6}")
    for s in e.steps:
        lines.append(
            f"{s.n:>5} {_short(s.a, 12):>12} {_short(s.p, 20):>20} "
            f"{_short(s.q, 20):>20} {_short(s.c_signed, 16):>16} {s.bits:>6}"
        )
    return "\n".join(lines)


def cmd_expand(args) -> int:
    cfg = RunConfig.from_args(args)
    x, root_desc = _select_number(args)
    e = expand(x, cfg.depth, cfg.crosscheck_every)
    if cfg.fmt == "json":
        _emit(json.dumps(_expansion_doc(e, args.poly, root_desc), indent=2), cfg.out)
    elif cfg.fmt == "csv":
        _emit(_expand_csv(e), cfg.out)
    else:
        _emit(_expand_text(e), cfg.out)
    return 0


def _report_json(rep) -> dict:
    return {
        "discriminant": str(rep.discriminant),
        "discriminant_constant": rep.discriminant_constant,
        "determinant_ok": rep.determinant_ok,
        "lead_coeff_ok": rep.lead_coeff_ok,
        "crosscheck_steps": list(rep.crosscheck_steps),
        "reduced": list(rep.reduced),
        "onset": rep.onset,
        "monotone_reduced": rep.monotone_reduced,
        "limit": [
            {"n": r.n, "value": _enc(r.value), "target": _enc(r.target)} for r in rep.limit
        ],
        "asym": [
            {
                "n": r.n,
                "first": _enc(r.ratio_first),
                "second": _enc(r.ratio_second),
                "target": _enc(r.target),
            }
            for r in rep.asym
        ],
        "pisot": [
            {"n": r.n, "C": str(r.c_signed), "reduced": r.reduced, "pisot": r.pisot}
            for r in rep.pisot
        ],
        "lambda": _enc(rep.lambda_enclosure) if rep.lambda_enclosure else None,
        "disc_product_ok": rep.disc_product_ok,
        "exact_ok": rep.exact_ok,
    }


def _verify_csv(e: Expansion, rep) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(VERIFY_CSV_COLUMNS)
    limit = {r.n: r for r in rep.limit}
    asym = {r.n: r for r in rep.asym}
    pisot = {r.n: r for r in rep.pisot}
    from .poly import discriminant

    for s in e.steps:
        lr, ar = limit[s.n], asym[s.n]
        w.writerow(
            [
                s.n,
                s.a,
                discriminant(s.tail_poly),
                int(rep.reduced[s.n]),
                fr_str(lr.value[0]),
                fr_str(lr.value[1]),
                fr_str(ar.ratio_first[0]),
                fr_str(ar.ratio_first[1]),
                fr_str(ar.ratio_second[0]),
                fr_str(ar.ratio_second[1]),
                s.c_signed,
                int(pisot[s.n].pisot),
            ]
        )
    return buf.getvalue()


def _verify_text(e: Expansion, rep) -> str:
    lines = [
        f"verification of root of {e.origin.poly} (depth {e.depth})",
        f"discriminant {rep.discriminant} constant along the expansion: "
        f"{'PASS' if rep.discriminant_constant else 'FAIL'}",
        f"determinant identity at every step: {'PASS' if rep.determinant_ok else 'FAIL'}",
        f"leading coefficient = +-q^m f0(p/q) at every step: "
        f"{'PASS' if rep.lead_coeff_ok else 'FAIL'}",
        f"reduced flags monotone: {'PASS' if rep.monotone_reduced else 'FAIL'}",
        f"reducedness onset: {rep.onset if rep.onset is not None else 'not reached'}",
        f"discriminant product identity (enclosures): "
        f"{'PASS' if rep.disc_product_ok else 'FAIL'}",
        "lambda enclosure: "
        + (
            f"[{_dec(rep.lambda_enclosure[0])}, {_dec(rep.lambda_enclosure[1])}]"
            if rep.lambda_enclosure
            else "(depth too shallow)"
        ),
        f"{'n':>4} {'a':>10} {'red':>4} {'limit~':>14} {'asym1~':>14} {'asym2~':>14} {'|C|=1':>6}",
    ]
    asym = {r.n: r for r in rep.asym}
    pisot = {r.n: r for r in rep.pisot}
    for r in rep.limit:
        a_rec = asym[r.n]
        lines.append(
            f"{r.n:>4} {_short(e.steps[r.n - 1].a, 10):>10} "
            f"{int(rep.reduced[r.n]):>4} {_dec(iv.midpoint(r.value), 8):>14} "
            f"{_dec(iv.midpoint(a_rec.ratio_first), 8):>14} "
            f"{_dec(iv.midpoint(a_rec.ratio_second), 8):>14} "
            f"{int(abs(pisot[r.n].c_signed) == 1):>6}"
        )
    lines.append(f"exact invariants: {'ALL PASS' if rep.exact_ok else 'VIOLATED'}")
    return "\n".join(lines)


def cmd_verify(args) -> int:
    cfg = RunConfig.from_args(args)
    x, root_desc = _select_number(args)
    if x.degree != 3:
        raise CubicRequiredError("verify is specific to cubic inputs")
    e = expand(x, cfg.depth, cfg.crosscheck_every)
    rep = verification_report(e, cfg.precision)
    if cfg.fmt == "json":
        _emit(
            json.dumps(_expansion_doc(e, args.poly, root_desc, _report_json(rep)), indent=2),
            cfg.out,
        )
    elif cfg.fmt == "csv":
        _emit(_verify_csv(e, rep), cfg.out)
    else:
        _emit(_verify_text(e, rep), cfg.out)
    return 0 if rep.exact_ok else 1


def cmd_express(args) -> int:
    f = parse_poly(args.poly)
    if f.degree() != 3:
        raise CubicRequiredError("express needs a cubic field generator")
    beta = make_algebraic(f, index=1)
    if beta.degree < 3:  # a rational root was divided out of f
        raise ReducibleInputError("generator polynomial is reducible")
    elem = FieldElement.of(
        parse_rational(args.a0), parse_rational(args.a1), parse_rational(args.a2)
    )
    rep = express(beta, elem)
    fmt = args.format or os.environ.get("CUBICF_FORMAT") or DEFAULT_FORMAT
    if fmt == "json":
        _emit(
            json.dumps(
                {
                    "a": str(rep.a),
                    "b": str(rep.b),
                    "c": str(rep.c),
                    "d": str(rep.d),
                    "det": str(rep.det),
                }
            ),
            args.out,
        )
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["a", "b", "c", "d", "det"])
        w.writerow([rep.a, rep.b, rep.c, rep.d, rep.det])
        _emit(buf.getvalue(), args.out)
    else:
        _emit(f"{rep.a} {rep.b} {rep.c} {rep.d}  det {rep.det}", args.out)
    return 0


def _parse_relate(text: str) -> FracLinearRep:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise PolyParseError("--relate needs four comma-separated integers", 0)
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError:
        raise PolyParseError("--relate entries must be integers", 0)
    return FracLinearRep(a, b, c, d)


def cmd_stats(args) -> int:
    cfg = RunConfig.from_args(args)
    polys = args.poly
    roots = args.root or [1] * len(polys)
    if len(roots) != len(polys):
        raise RootSelectionError(
            f"give one --root per --poly or none: {len(roots)} --root for {len(polys)} --poly"
        )
    numbers = [(ptext, make_algebraic(parse_poly(ptext), index=k)) for ptext, k in zip(polys, roots)]
    expansions = [expand(x, cfg.depth) for _, x in numbers]
    profiles = [boundedness_profile(e) for e in expansions]

    match = None
    transfer = None
    if len(expansions) >= 2:
        match = tails_match(expansions[0], expansions[1], window=args.window)
        if args.relate:
            transfer = lambda_transfer_check(
                expansions[0], expansions[1], _parse_relate(args.relate)
            )
    # the transfer check estimated the first two lambdas at lambda_estimate's precision
    known = [transfer.lambda_first, transfer.lambda_second] if transfer is not None else []
    lambdas = known + [lambda_estimate(e) for e in expansions[len(known):]]

    if cfg.fmt == "json":
        doc = {
            "inputs": [
                {
                    "poly": src,
                    "max_quotient": str(prof.max_quotient),
                    "argmax": prof.argmax,
                    "histogram": {str(k): v for k, v in prof.histogram.items()},
                    "thue_siegel_min": fr_str(prof.thue_siegel_min),
                    "thue_siegel_argmin": prof.thue_siegel_argmin,
                    "lambda": _enc(lam),
                }
                for (src, _), prof, lam in zip(numbers, profiles, lambdas)
            ],
        }
        if match is not None:
            doc["tails_match"] = {
                "found": match.found,
                "offset_first": match.offset_first,
                "offset_second": match.offset_second,
                "window": match.window,
                "quotients": [str(a) for a in match.quotients],
                "note": match.note,
            }
        if transfer is not None:
            doc["lambda_transfer"] = {
                "det": str(transfer.det),
                "lambda_first": _enc(transfer.lambda_first),
                "lambda_second": _enc(transfer.lambda_second),
                "forward_consistent": transfer.forward_consistent,
                "backward_consistent": transfer.backward_consistent,
                "relation_verified": transfer.relation_verified,
                "caveat": transfer.caveat,
            }
        _emit(json.dumps(doc, indent=2), cfg.out)
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["input", "n", "a", "running_max"])
        for idx, e in enumerate(expansions):
            prof = profiles[idx]
            for s, rm in zip(e.steps, prof.running_max):
                w.writerow([idx + 1, s.n, s.a, rm])
        _emit(buf.getvalue(), cfg.out)
    else:
        lines = []
        for (src, _), prof, lam in zip(numbers, profiles, lambdas):
            lines.append(f"input: {src}")
            lines.append(
                f"  max quotient {prof.max_quotient} at n={prof.argmax}; "
                f"Thue-Siegel min {_dec(prof.thue_siegel_min, 8)} at n={prof.thue_siegel_argmin}"
            )
            lines.append(f"  lambda enclosure [{_dec(lam[0], 8)}, {_dec(lam[1], 8)}]")
        if match is not None:
            if match.found:
                lines.append(
                    f"tail match at offsets ({match.offset_first}, {match.offset_second}) "
                    f"window {match.window}: quotients {list(match.quotients)}"
                )
            else:
                lines.append(f"tail match: {match.note}")
        if transfer is not None:
            lines.append(
                f"lambda transfer |det|={abs(transfer.det)}: "
                f"forward {'consistent' if transfer.forward_consistent else 'violated'}, "
                f"backward {'consistent' if transfer.backward_consistent else 'violated'} "
                f"(relation verified: {transfer.relation_verified}; {transfer.caveat})"
            )
        _emit("\n".join(lines), cfg.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubicf",
        description="Exact continued fractions of real algebraic numbers (cubic focus).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, root_group=True):
        sp.add_argument("--depth", type=int, default=None)
        sp.add_argument("--format", choices=("text", "json", "csv"), default=None)
        sp.add_argument("--out", default=None)
        if root_group:
            g = sp.add_mutually_exclusive_group()
            g.add_argument("--root", type=int, default=None, help="1-based ascending real-root index")
            g.add_argument("--interval", nargs=2, metavar=("LO", "HI"), default=None)

    sp = sub.add_parser("expand", help="expand a root into its continued fraction")
    sp.add_argument("--poly", required=True)
    common(sp)
    sp.add_argument("--crosscheck-every", type=int, default=None, dest="crosscheck_every")
    sp.set_defaults(func=cmd_expand)

    sp = sub.add_parser("verify", help="run the exact and limit-law verification bundle")
    sp.add_argument("--poly", required=True)
    common(sp)
    sp.add_argument("--precision", default=None)
    sp.add_argument("--crosscheck-every", type=int, default=None, dest="crosscheck_every")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("express", help="fractional-linear representation over Q(beta)")
    sp.add_argument("--poly", required=True, help="minimal polynomial of the generator")
    sp.add_argument("a0", help="rational coordinate A0")
    sp.add_argument("a1", help="rational coordinate A1")
    sp.add_argument("a2", help="rational coordinate A2")
    sp.add_argument("--format", choices=("text", "json", "csv"), default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_express)

    sp = sub.add_parser("stats", help="partial-quotient statistics and transfer checks")
    sp.add_argument("--poly", action="append", required=True)
    sp.add_argument("--root", action="append", type=int, help="one per --poly, or none for root 1")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json", "csv"), default=None)
    sp.add_argument("--out", default=None)
    sp.add_argument("--relate", default=None, help="a,b,c,d with second = (a*first+b)/(c*first+d)")
    sp.add_argument("--window", type=int, default=5)
    sp.set_defaults(func=cmd_stats)
    return p


_parser: argparse.ArgumentParser | None = None  # built on the first main() call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (PolyParseError, ZeroPolynomialError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RootSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (
        ReducibleInputError,
        NotSquarefreeError,
        CubicRequiredError,
        RationalElementError,
        DegreeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EngineInvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, CubicfError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
