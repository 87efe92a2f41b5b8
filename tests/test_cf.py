import random
from fractions import Fraction

import pytest

import oracles
from conftest import random_cubic_number
from cubicf import intervals as iv
from cubicf.algnum import make_algebraic
from cubicf.cf import (
    approximation_stats,
    default_checkpoints,
    expand,
    lambda_estimate,
    tail_poly_direct,
)
from cubicf.errors import CrossCheckError, ReducibleInputError
from cubicf.poly import IntPoly, discriminant, sturm_chain, sturm_count

X3M2 = IntPoly((-2, 0, 0, 1))
C7 = IntPoly((-1, -2, 1, 1))


def _engine_inputs():
    """cbrt2, C7, a seeded random cubic and a squarefree reducible quartic."""
    return [
        ("cbrt2", make_algebraic(X3M2, index=1)),
        ("C7", make_algebraic(C7, index=3)),
        ("random cubic", random_cubic_number(random.Random(20261017))),
        ("sqrt2 via (x^2-2)(x^2-3)", make_algebraic(IntPoly((6, 0, -5, 0, 1)), index=3)),
    ]


class TestExpand:
    def test_cbrt2_prefix(self, cbrt2):
        e = expand(cbrt2, 7)
        assert e.quotients() == [1, 3, 1, 5, 1, 1, 4]

    def test_cos27_prefix(self, cos27_largest):
        e = expand(cos27_largest, 3)
        assert e.quotients() == [1, 4, 20]

    def test_first_step_detail(self, cbrt2):
        e = expand(cbrt2, 1)
        s = e.steps[0]
        assert s.a == 1
        assert s.tail_poly == IntPoly((-1, -3, -3, 1))
        assert (s.p, s.q) == (1, 1)
        assert s.c_signed == 1

    def test_rational_rejected(self):
        x = make_algebraic(IntPoly((-3, 2)), index=1, require_irrational=False)
        with pytest.raises(ReducibleInputError):
            expand(x, 5)

    def test_depth_guard(self, cbrt2):
        with pytest.raises(ValueError):
            expand(cbrt2, 0)

    def test_soft_cap_warns(self, cbrt2, monkeypatch):
        import cubicf.cf as cfmod

        monkeypatch.setattr(cfmod, "SOFT_DEPTH_CAP", 5)
        with pytest.warns(UserWarning, match="soft cap"):
            expand(cbrt2, 6)

    def test_interval_isolation_survives_every_step(self):
        # the engine no longer counts roots; the transported interval must
        # still isolate exactly one root of every tail polynomial
        for name, x in _engine_inputs():
            e = expand(x, 200)
            for s in e.steps:
                assert sturm_count(s.tail_poly, s.tail_lo, s.tail_hi) == 1, (name, s.n)

    def test_engine_builds_no_sturm_chain(self):
        for name, x in _engine_inputs():
            sturm_chain.cache_clear()
            expand(x, 300)
            assert sturm_chain.cache_info().misses == 0, name

    def test_determinant_identity(self, cbrt2):
        e = expand(cbrt2, 40)
        for s in e.steps:
            assert s.p * s.q_prev - s.p_prev * s.q == (-1) ** s.n

    def test_tail_intervals_above_one(self, cbrt2):
        e = expand(cbrt2, 40)
        for s in e.steps:
            assert s.tail_lo > 1

    def test_quotient_positivity(self):
        rng = random.Random(52)
        for _ in range(5):
            e = expand(random_cubic_number(rng), 25)
            qs = e.quotients()
            assert all(a >= 1 for a in qs[1:])

    def test_c_signed_formula(self, cbrt2):
        e = expand(cbrt2, 30)
        for s in e.steps:
            base = X3M2.eval_cleared(s.p, s.q)
            assert s.c_signed == (base if s.n % 2 == 0 else -base)
            assert abs(s.c_signed) == s.tail_poly.lc

    def test_convergence_bound(self, cbrt2):
        # |alpha - p/q| < 1/q^2, certified via the tail interval
        e = expand(cbrt2, 30)
        for s in e.steps:
            assert s.q * s.tail_lo + s.q_prev > s.q


class TestCrossCheck:
    def test_direct_equals_local_every_step(self, cos27_largest):
        e = expand(cos27_largest, 60)
        for s in e.steps:
            assert tail_poly_direct(cos27_largest, s) == s.tail_poly

    def test_direct_disc_invariant(self, cbrt2):
        e = expand(cbrt2, 25)
        for s in e.steps:
            assert discriminant(tail_poly_direct(cbrt2, s)) == -108

    def test_mismatch_is_fatal(self, cbrt2):
        import dataclasses

        e = expand(cbrt2, 5)
        bad = dataclasses.replace(e.steps[2], tail_poly=IntPoly((-7, 0, 0, 1)))
        with pytest.raises(CrossCheckError):
            tail_poly_direct(cbrt2, bad)

    def test_checkpoint_schedule(self):
        cps = default_checkpoints(250)
        assert 1 in cps and 100 in cps
        assert 101 not in cps and 110 in cps and 250 in cps
        cps10 = default_checkpoints(47, every=10)
        assert cps10 == frozenset({10, 20, 30, 40, 47})


class TestOracleAgreement:
    def test_cbrt2_fifty_steps(self, cbrt2):
        e = expand(cbrt2, 50)
        assert e.quotients() == oracles.cf_quotients(X3M2.coeffs, 1, 50)

    def test_randomized_cubics(self):
        rng = random.Random(20260811)
        from cubicf.algnum import isolate_real_roots

        for _ in range(6):
            f = None
            from conftest import random_irreducible_cubic

            f = random_irreducible_cubic(rng)
            k = rng.randint(1, len(isolate_real_roots(f)))
            x = make_algebraic(f, index=k)
            e = expand(x, 50)
            assert e.quotients() == oracles.cf_quotients(f.coeffs, k, 50), (f, k)


class TestHigherDegree:
    def test_quartic_expansion_matches_oracle(self):
        f = IntPoly((1, 0, -10, 0, 1))  # sqrt2 + sqrt3
        x = make_algebraic(f, index=4)
        e = expand(x, 12)
        assert e.quotients() == oracles.cf_quotients(f.coeffs, 4, 12)
        for s in e.steps:  # C_n clears a degree-4 denominator here
            assert abs(s.c_signed) == abs(f.eval_cleared(s.p, s.q))


class TestStats:
    def test_thue_siegel_at_step_two(self, cbrt2):
        # q^2 |f0(p/q)| at p/q = 4/3 is 9 * 10/27 = 10/3
        e = expand(cbrt2, 5)
        stats = approximation_stats(e)
        assert stats[1].thue_siegel == Fraction(10, 3)

    def test_scaled_error_below_one(self, cbrt2):
        e = expand(cbrt2, 20)
        for rec in approximation_stats(e):
            assert rec.scaled_error[1] < 1

    def test_scaled_error_encloses_truth(self, golden):
        # lambda_n = q_n / (q_n*phi + q_{n-1}) for the all-ones expansion
        e = expand(golden, 20)
        stats = approximation_stats(e)
        phi = (1 + 5**0.5) / 2
        for s, rec in zip(e.steps, stats):
            truth = s.q / (s.q * phi + s.q_prev)
            assert float(rec.scaled_error[0]) <= truth <= float(rec.scaled_error[1]) or (
                abs(float(rec.scaled_error[0]) - truth) < 1e-12
            )

    def test_depth_guard(self, cbrt2):
        with pytest.raises(ValueError):
            approximation_stats(expand(cbrt2, 1))


class TestLambda:
    def test_golden_classical_value(self, golden):
        lam = lambda_estimate(expand(golden, 30))
        target = iv.sqrt_bounds(Fraction(1, 5), 64)
        assert abs(iv.midpoint(lam) - iv.midpoint(target)) < Fraction(1, 1000)

    def test_sqrt2_classical_value(self, sqrt2):
        lam = lambda_estimate(expand(sqrt2, 30))
        target = iv.recip(iv.sqrt_bounds(Fraction(8), 64))  # 1/(2*sqrt2)
        assert abs(iv.midpoint(lam) - iv.midpoint(target)) < Fraction(1, 1000)

    def test_enclosure_orientation(self, cbrt2):
        lam = lambda_estimate(expand(cbrt2, 30))
        assert 0 < lam[0] <= lam[1] < 1

    def test_depth_guard(self, cbrt2):
        with pytest.raises(ValueError):
            lambda_estimate(expand(cbrt2, 4))


class TestQuadraticPeriod:
    def test_golden_period(self, golden):
        e = expand(golden, 12)
        assert e.period == (0, 1)

    def test_sqrt2_period(self, sqrt2):
        e = expand(sqrt2, 12)
        assert e.period == (0, 1)

    def test_sqrt7_period(self):
        x = make_algebraic(IntPoly((-7, 0, 1)), index=2)
        e = expand(x, 16)
        assert e.quotients()[:9] == [2, 1, 1, 1, 4, 1, 1, 1, 4]
        assert e.period == (0, 4)

    def test_non_purely_periodic(self):
        # sqrt(2)/2 = [0; 1, 2, 2, ...]: preperiod present
        x = make_algebraic(IntPoly((-1, 0, 2)), index=2)
        e = expand(x, 12)
        assert e.period is not None
        pre, length = e.period
        assert length >= 1
