import importlib
import random
from fractions import Fraction

import pytest

import oracles
from conftest import random_cubic_number
from cubicf import intervals as iv
from cubicf.algnum import _bisect, make_algebraic, refine, sign_at
from cubicf.cf import expand
from cubicf.conjugates import (
    asym_sequence,
    asym_target,
    beta_constant,
    conjugates,
    disc_product_enclosure,
    is_pisot,
    is_reduced,
    limit_sequence,
    pisot_scan,
    reduced_flags,
    reducedness_onset,
    separation,
    verification_report,
)
from cubicf.errors import CubicRequiredError
from cubicf.poly import IntPoly, discriminant

X3M2 = IntPoly((-2, 0, 0, 1))
C7 = IntPoly((-1, -2, 1, 1))
TAIL1 = IntPoly((-1, -3, -3, 1))  # first tail of cbrt2


class TestConjugates:
    def test_cbrt2_complex_pair(self, cbrt2):
        pair = conjugates(cbrt2, Fraction(1, 10**8))
        assert pair.kind == "complex-pair"
        re = iv.midpoint(pair.first.re)
        im = iv.midpoint(pair.first.im)
        assert abs(re - Fraction(-62996, 100000)) < Fraction(1, 10**4)
        assert abs(im - Fraction(109112, 100000)) < Fraction(1, 10**4)
        assert pair.second.im[1] < 0  # mirrored partner

    def test_c7_totally_real(self, cos27_largest):
        pair = conjugates(cos27_largest, Fraction(1, 10**8))
        assert pair.kind == "two-real"
        vals = sorted([iv.midpoint(pair.first.re), iv.midpoint(pair.second.re)])
        assert abs(vals[0] + Fraction(180194, 100000)) < Fraction(1, 10**4)
        assert abs(vals[1] + Fraction(44504, 100000)) < Fraction(1, 10**4)

    def test_vieta_sum(self, cos27_largest):
        pair = conjugates(cos27_largest, Fraction(1, 10**10))
        x = refine(cos27_largest, Fraction(1, 10**10))
        total = iv.add(iv.add(pair.first.re, pair.second.re), x.interval)
        assert iv.contains(total, Fraction(-1))  # -c2/c3 = -1

    def test_degree_guard(self, golden):
        with pytest.raises(CubicRequiredError):
            conjugates(golden, Fraction(1, 100))

    def test_kind_matches_discriminant(self):
        rng = random.Random(4242)
        for _ in range(10):
            x = random_cubic_number(rng)
            pair = conjugates(x, Fraction(1, 10**6))
            if discriminant(x.poly) > 0:
                assert pair.kind == "two-real"
            else:
                assert pair.kind == "complex-pair"

    def test_complex_boxes_match_rung_by_rung_reference(self, cbrt2):
        # the first-passable-rung jump must land on the boxes that trying
        # every rung of 8 halvings from the zero-free start reaches
        e = expand(cbrt2, 25)
        rng = random.Random(77)
        numbers = [cbrt2, e.tail(1), e.tail(12), e.tail(25)]
        while len(numbers) < 12:
            x = random_cubic_number(rng, 50)
            if discriminant(x.poly) < 0:
                numbers.append(x)
        precisions = (Fraction(1, 2), Fraction(1, 10**6), Fraction(3, 7**20), Fraction(1, 10**30))
        for x in numbers:
            for precision in precisions:
                pair = conjugates(x, precision)
                assert (pair.first.re, pair.first.im) == _complex_box_reference(x, precision)


def _complex_box_reference(x, precision):
    c0, _, c2, c3 = x.poly.coeffs
    bits = max(8, (precision.denominator // max(precision.numerator, 1)).bit_length() + 4)
    cur = x
    while cur.lo <= 0 <= cur.hi:
        cur = _bisect(cur)
    while True:
        t = cur.interval
        re = iv.scale(iv.sub((Fraction(-c2, c3),) * 2, t), Fraction(1, 2))
        im_sq = iv.sub(iv.div((Fraction(-c0, c3),) * 2, t), iv.mul(re, re))
        im = iv.sqrt_interval(im_sq, bits)
        if iv.width(re) <= precision and iv.width(im) <= precision:
            return re, im
        cur = _bisect(cur, steps=8)
        bits += 4


class TestReduced:
    def test_cbrt2_not_reduced(self, cbrt2):
        v = is_reduced(cbrt2)
        assert not v.reduced
        assert v.method == "exact-complex-case"
        assert v.witness["disk_sign"] == -1  # sign of x^2 - 4 at cbrt2

    def test_first_tail_reduced(self):
        x = make_algebraic(TAIL1, index=1)
        v = is_reduced(x)
        assert v.reduced
        assert v.method == "exact-complex-case"
        # exact test: x^2 - 3x - 2 positive at 3.847...
        assert sign_at(x, IntPoly((-2, -3, 1))) == 1

    def test_successor_of_reduced_is_reduced(self):
        rng = random.Random(1212)
        found = 0
        while found < 8:
            x = random_cubic_number(rng)
            e = expand(x, 12)
            flags = reduced_flags(e)
            if not flags[0]:
                continue
            assert all(flags), x.poly
            found += 1

    def test_agrees_with_numeric_disk_membership(self):
        # 200 randomized cubic tails against the numeric oracle
        rng = random.Random(5150)
        tails_checked = 0
        while tails_checked < 200:
            x = random_cubic_number(rng)
            e = expand(x, 6)
            for n in range(1, e.depth + 1):
                tail = e.tail(n)
                got = is_reduced(tail).reduced
                root = next(
                    r
                    for r in oracles.real_roots(tail.poly.coeffs)
                    if float(tail.lo) <= r <= float(tail.hi)
                )
                conj = oracles.conjugates_of_root(tail.poly.coeffs, root)
                want = root > 1 and all(oracles.in_reduced_disk(z) for z in conj)
                assert got == want, tail.poly
                tails_checked += 1


class TestOnset:
    def test_cbrt2_onset_two(self, cbrt2):
        assert reducedness_onset(expand(cbrt2, 20)) == 2

    def test_already_reduced_onset_one(self):
        x = make_algebraic(TAIL1, index=1)
        assert reducedness_onset(expand(x, 10)) == 1

    def test_no_flicker(self):
        rng = random.Random(86)
        for _ in range(10):
            e = expand(random_cubic_number(rng), 40)
            flags = reduced_flags(e)
            assert not any(flags[i] and not flags[i + 1] for i in range(len(flags) - 1))

    def test_onset_not_reached_reports_none(self):
        # smallest root of 12x^3 + 8x^2 - 15x - 3 stays unreduced through
        # alpha_3; a depth-2 expansion cannot certify an onset
        f = IntPoly((-3, -15, 8, 12))
        x = make_algebraic(f, index=1)
        assert reducedness_onset(expand(x, 2)) is None
        assert reducedness_onset(expand(x, 8)) == 4


class TestBeta:
    def test_cbrt2_beta_is_108_to_minus_sixth(self, cbrt2):
        enc = beta_constant(cbrt2, Fraction(1, 10**12))
        target = iv.recip(iv.nth_root_bounds(Fraction(108), 6, 96))
        assert iv.overlaps(enc, target)
        assert iv.width(enc) <= Fraction(1, 10**12)

    def test_c7_beta_annihilated(self, cos27_largest):
        # sqrt(7/beta) is (up to sign) a root of x^3 - 7x^2 + 49
        enc = beta_constant(cos27_largest, Fraction(1, 10**13))
        mid = iv.midpoint(enc)
        t = iv.midpoint(iv.sqrt_bounds(7 / mid, 128))
        p = IntPoly((49, 0, -7, 1))
        val = min(abs(p.eval_fraction(t)), abs(p.eval_fraction(-t)))
        assert val < Fraction(1, 10**9)
        assert abs(mid - Fraction(26303, 100000)) < Fraction(1, 10**4)

    def test_cbrt2_asym_target_is_cbrt108(self, cbrt2):
        enc = asym_target(cbrt2, Fraction(1, 10**9))
        target = iv.nth_root_bounds(Fraction(108), 3, 96)
        assert iv.overlaps(enc, target)

    def test_separation_matches_conjugate_boxes(self):
        # dual routes: sqrt|D|/(c3|f'|) versus trace/norm enclosures
        rng = random.Random(99)
        for _ in range(12):
            x = random_cubic_number(rng)
            sep = separation(x, Fraction(1, 10**9))
            pair = conjugates(x, Fraction(1, 10**10))
            if pair.kind == "complex-pair":
                box = iv.scale(pair.first.im, 2)
            else:
                box = iv.absolute(iv.sub(pair.second.re, pair.first.re))
            assert iv.overlaps(sep, box), x.poly


class TestLimitSequence:
    def test_cbrt2_converges(self, cbrt2):
        e = expand(cbrt2, 30)
        recs = limit_sequence(e, Fraction(1, 10**6))
        last = recs[-1]
        assert iv.is_subset(last.target, last.value) or iv.overlaps(last.target, last.value)
        rel = iv.width(last.value) / last.value[0]
        assert rel < Fraction(1, 10**6)

    def test_c7_converges(self, cos27_largest):
        e = expand(cos27_largest, 30)
        recs = limit_sequence(e, Fraction(1, 10**6))
        assert iv.overlaps(recs[-1].value, recs[-1].target)

    def test_rate_consistent_with_one_over_q(self, cbrt2):
        e = expand(cbrt2, 25)
        recs = limit_sequence(e, Fraction(1, 10**8))
        beta = beta_constant(cbrt2, Fraction(1, 10**12))
        bmid = iv.midpoint(beta)
        ok_from = None
        for rec, step in zip(recs, e.steps):
            gap = abs(iv.midpoint(rec.value) - bmid)
            if gap < 10 * bmid / step.q:
                if ok_from is None:
                    ok_from = rec.n
            else:
                ok_from = None
        assert ok_from is not None and ok_from <= e.depth

    def test_bounded(self, cbrt2):
        # boundedness of q_n^2 |sigma1 - sigma2| along the expansion
        e = expand(cbrt2, 30)
        recs = limit_sequence(e, Fraction(1, 10**4))
        beta = iv.midpoint(beta_constant(cbrt2, Fraction(1, 10**8)))
        assert all(rec.value[1] < 10 * beta for rec in recs)

    def test_degree_guard(self, golden):
        with pytest.raises(CubicRequiredError):
            limit_sequence(expand(golden, 10), Fraction(1, 100))


class TestAsymSequence:
    def test_cbrt2_both_ratios(self, cbrt2):
        e = expand(cbrt2, 30)
        recs = asym_sequence(e, Fraction(1, 10**6))
        target = iv.nth_root_bounds(Fraction(108), 3, 96)
        tmid = iv.midpoint(target)
        last = recs[-1]
        for ratio in (last.ratio_first, last.ratio_second):
            assert abs(iv.midpoint(ratio) - tmid) / tmid < Fraction(1, 10**4)

    def test_c7_target(self, cos27_largest):
        e = expand(cos27_largest, 20)
        recs = asym_sequence(e, Fraction(1, 10**5))
        tmid = iv.midpoint(recs[-1].target)
        assert abs(tmid - Fraction(51588, 10000)) < Fraction(1, 100)
        for ratio in (recs[-1].ratio_first, recs[-1].ratio_second):
            assert abs(iv.midpoint(ratio) - tmid) / tmid < Fraction(1, 10**3)

    def test_disc_product_identity(self, cbrt2):
        # |C^2 (t-s1)(t-s2)(s1-s2)| = sqrt|D| in enclosure form, per step,
        # with the left side built from conjugate boxes only
        e = expand(cbrt2, 15)
        sqrt_d = iv.sqrt_bounds(Fraction(108), 96)
        for s in e.steps:
            enc = disc_product_enclosure(e.tail(s.n), abs(s.c_signed), Fraction(1, 10**7))
            assert iv.overlaps(enc, sqrt_d), s.n

    def test_disc_product_identity_totally_real(self, cos27_largest):
        e = expand(cos27_largest, 12)
        sqrt_d = iv.sqrt_bounds(Fraction(49), 96)
        for s in e.steps:
            enc = disc_product_enclosure(e.tail(s.n), abs(s.c_signed), Fraction(1, 10**7))
            assert iv.overlaps(enc, sqrt_d), s.n


class TestPisot:
    def test_cbrt2_first_step_hit(self, cbrt2):
        e = expand(cbrt2, 50)
        recs = pisot_scan(e)
        assert recs[0].pisot  # |C_1| = 1 and the tail 3.847... is reduced
        hits = [r.n for r in recs if r.pisot]
        assert hits[0] == 1

    def test_hit_certificate(self, cbrt2):
        # a flagged tail really is Pisot: integer > 1, conjugates inside
        # the unit disk (checked exactly)
        e = expand(cbrt2, 50)
        for rec in pisot_scan(e):
            if rec.pisot:
                assert is_pisot(e.tail(rec.n))

    def test_c_matches_cleared_value(self, cbrt2):
        e = expand(cbrt2, 50)
        for s in e.steps:
            assert abs(s.c_signed) == abs(X3M2.eval_cleared(s.p, s.q))

    def test_rarity(self, cos27_largest):
        e = expand(cos27_largest, 60)
        hits = [r for r in pisot_scan(e) if r.pisot]
        assert len(hits) <= 3  # extremely rare


class TestReport:
    def test_cbrt2_report(self, cbrt2):
        e = expand(cbrt2, 12)
        rep = verification_report(e, Fraction(1, 10**6))
        assert rep.exact_ok
        assert rep.discriminant == -108
        assert rep.onset == 2
        assert rep.lambda_enclosure[0] > 0

    def test_tampered_expansion_flagged(self, cbrt2):
        import dataclasses

        e = expand(cbrt2, 8)
        bad_step = dataclasses.replace(e.steps[4], c_signed=e.steps[4].c_signed + 2)
        bad = dataclasses.replace(e, steps=e.steps[:4] + (bad_step,) + e.steps[5:])
        rep = verification_report(bad, Fraction(1, 10**4))
        assert not rep.lead_coeff_ok
        assert not rep.exact_ok


class TestWorkCounts:
    @pytest.mark.parametrize("fixture", ["cbrt2", "cos27_largest"])
    def test_report_decides_each_tail_once(self, fixture, request, monkeypatch):
        # the cubicf package rebinds the name `conjugates` to the function,
        # so patch the module object itself
        mod = importlib.import_module("cubicf.conjugates")
        calls = {"is_reduced": 0, "conjugates": 0}
        for name in calls:
            real = getattr(mod, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(mod, name, counted)
        e = expand(request.getfixturevalue(fixture), 40)
        rep = mod.verification_report(e, Fraction(1, 10**6))
        assert rep.exact_ok
        assert calls["is_reduced"] == e.depth + 1  # one verdict per alpha_1 .. alpha_41
        assert calls["conjugates"] <= 120  # about one per step, not one per restart

    @pytest.mark.parametrize("fixture", ["cbrt2", "cos27_largest"])
    def test_report_computes_beta_once(self, fixture, request, monkeypatch):
        mod = importlib.import_module("cubicf.conjugates")
        calls = []
        real = mod.beta_constant

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, "beta_constant", counted)
        e = expand(request.getfixturevalue(fixture), 12)
        rep = mod.verification_report(e, Fraction(1, 10**6))
        assert rep.exact_ok
        assert len(calls) == 1  # the limit target and the asym target share it
        assert rep.limit[0].target == beta_constant(e.origin, Fraction(1, 4 * 10**6))
        assert rep.asym[0].target == asym_target(e.origin, Fraction(1, 10**6))

    def test_complex_boxes_skip_rungs_that_cannot_pass(self, cbrt2, monkeypatch):
        mod = importlib.import_module("cubicf.conjugates")
        state = {"inside": 0, "calls": 0, "roots": 0}
        real_conjugates, real_sqrt = mod.conjugates, iv.sqrt_interval

        def counted_conjugates(*args, **kwargs):
            state["calls"] += 1
            state["inside"] += 1
            try:
                return real_conjugates(*args, **kwargs)
            finally:
                state["inside"] -= 1

        def counted_sqrt(*args, **kwargs):
            state["roots"] += state["inside"] > 0
            return real_sqrt(*args, **kwargs)

        monkeypatch.setattr(mod, "conjugates", counted_conjugates)
        monkeypatch.setattr(iv, "sqrt_interval", counted_sqrt)
        e = expand(cbrt2, 40)
        rep = mod.verification_report(e, Fraction(1, 10**6))
        assert rep.exact_ok
        assert state["calls"] > 0  # D < 0: every call takes the complex branch
        assert state["roots"] <= 9 * state["calls"]  # 18 per call when every rung is tried
