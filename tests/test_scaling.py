"""Scaling-law coefficients, the region classifier, the constant-class
supremum, and the curve sweep."""

import math

import mpmath
import numpy as np
import pytest

from ergraphon import (
    ConstraintPair,
    DensityPair,
    DomainError,
    InfeasibleError,
    MultiplierPair,
    above_line_coefficient,
    below_line_coefficient,
    bernoulli_entropy,
    bernoulli_entropy_deriv,
    bregman_quotient_min,
    constant_graphon_sup,
    curve_sweep,
    region_classify,
    solve_microcanonical,
    specific_relative_entropy,
)
from ergraphon.optimize import loglog_slope


class TestAboveLineCoefficient:
    def test_value_and_symmetry(self):
        # |log(t1/(1-t1)) / (1 - 2 t1)|: 2.5 log(7/3) at both 0.3 and 0.7
        expect = 2.5 * math.log(7 / 3)
        assert above_line_coefficient(0.7) == pytest.approx(expect, rel=1e-14)
        assert above_line_coefficient(0.3) == pytest.approx(expect, rel=1e-14)
        for t1 in (0.2, 0.35, 0.6, 0.9):
            assert above_line_coefficient(t1) == pytest.approx(
                above_line_coefficient(1 - t1), rel=1e-12
            )
            assert above_line_coefficient(t1) > 0.0

    def test_oracle_entropy_difference_quotient(self):
        # the construction's entropy growth is the rate itself
        for t1 in (0.3, 0.7):
            coeff = above_line_coefficient(t1)
            for eps in (1e-5, 1e-4):
                q = specific_relative_entropy(t1, eps, "above") / eps
                assert q == pytest.approx(coeff, rel=2e-2)
                assert q > 0.0

    def test_rejects_half(self):
        with pytest.raises(DomainError):
            above_line_coefficient(0.5)


class TestBelowLineCoefficient:
    def test_closed_form_below_half(self):
        assert below_line_coefficient(0.3) == pytest.approx(0.3 / 2.8, rel=1e-14)
        assert below_line_coefficient(0.5) == pytest.approx(0.25, rel=1e-14)

    def test_equals_curvature_identity(self):
        for t1 in (0.1, 0.25, 0.4, 0.5):
            ident = 0.5 * t1 * t1 * bernoulli_entropy_deriv(t1, 2)
            assert below_line_coefficient(t1) == pytest.approx(ident, rel=1e-12)

    def test_above_half_uses_quotient_min(self):
        for t1 in (0.6, 0.7, 0.8):
            val = below_line_coefficient(t1)
            assert val == pytest.approx(bregman_quotient_min(t1).value, rel=1e-14)
            assert val < t1 / (4 * (1 - t1))  # strict dichotomy

    def test_continuity_across_half(self):
        assert abs(below_line_coefficient(0.501) - 0.25) < 1e-2


class TestSpecificRelativeEntropy:
    def test_zero_at_er_point(self):
        assert specific_relative_entropy(0.3, 0.0, "below") == 0.0
        assert specific_relative_entropy(0.7, 0.0, "above") == 0.0

    def test_below_value(self):
        val = specific_relative_entropy(0.3, 1e-3, "below")
        assert val == pytest.approx(0.3 / 2.8 * 1e-2, rel=1e-2)

    def test_above_value(self):
        val = specific_relative_entropy(0.7, 1e-3, "above")
        assert val == pytest.approx(above_line_coefficient(0.7) * 1e-3, rel=1e-2)

    def test_nonnegative_everywhere(self):
        for t1 in (0.2, 0.4, 0.55, 0.7):
            for eps in (1e-6, 1e-4, 1e-3):
                for side in ("below",) if t1 == 0.5 else ("below", "above"):
                    assert specific_relative_entropy(t1, eps, side) >= -1e-12

    def test_asymmetry_below_exceeds_above(self):
        for t1 in (0.55, 0.6, 0.7, 0.8):
            for eps in (1e-5, 1e-4):
                below = specific_relative_entropy(t1, eps, "below")
                above = specific_relative_entropy(t1, eps, "above")
                assert below > above

    def test_bad_side(self):
        with pytest.raises(DomainError):
            specific_relative_entropy(0.3, 1e-4, "sideways")

    def test_small_eps_below_matches_mpmath(self):
        # t1^3 eps = 2.7e-11 lies inside the solver's default ER tolerance;
        # the increment must still be solved, not read as 0. For t1 <= 1/2
        # the reduced family's optimum is the symmetric split lam = 1/2
        t1, eps = 0.3, 1e-9
        with mpmath.workdps(60):
            t, u = mpmath.mpf(t1), mpmath.mpf(t1) * mpmath.cbrt(mpmath.mpf(eps))

            def ent(x):
                return (x * mpmath.log(x) + (1 - x) * mpmath.log(1 - x)) / 2

            # diagonal blocks t1 - u, off-diagonal t1 + u, each of total measure 1/2
            want = (ent(t - u) + ent(t + u)) / 2 - ent(t)
        got = specific_relative_entropy(t1, eps, "below")
        assert abs(got - float(want)) <= 1e-6 * float(want)

    def test_eps_below_resolution_rejected(self):
        # 0.3^3 (1 - 1e-17) rounds to 0.3^3: no target off the line is left
        with pytest.raises(DomainError, match="resolution"):
            specific_relative_entropy(0.3, 1e-17, "below")

    def test_eps_above_resolution_rejected(self):
        # 0.7^3 + 3 (0.7) 1e-17 rounds to 0.7^3: the increment would be 0
        with pytest.raises(DomainError, match="resolution"):
            specific_relative_entropy(0.7, 1e-17, "above")


class TestConstantGraphonSup:
    def test_er_calibration_fixed_point(self):
        for p in (0.3, 0.5, 0.72):
            th1 = bernoulli_entropy_deriv(p, 1)
            u, val = constant_graphon_sup(MultiplierPair(th1, 0.0))
            assert u == pytest.approx(p, abs=1e-9)
            assert val == pytest.approx(th1 * p - bernoulli_entropy(p), rel=1e-12)

    def test_zero_multipliers(self):
        u, val = constant_graphon_sup(MultiplierPair(0.0, 0.0))
        assert u == pytest.approx(0.5, abs=1e-9)
        assert val == pytest.approx(math.log(2) / 2, rel=1e-12)

    def test_generic_interior_max_against_grid(self):
        th = MultiplierPair(0.5, 0.2)
        u, val = constant_graphon_sup(th)
        us = np.linspace(1e-9, 1 - 1e-9, 200001)
        ent = 0.5 * (us * np.log(us) + (1 - us) * np.log(1 - us))
        vals = th.theta1 * us + th.theta2 * us**3 - ent
        assert val >= vals.max() - 1e-10
        assert abs(u - us[np.argmax(vals)]) < 1e-4
        resid = th.theta1 + 3 * th.theta2 * u**2 - bernoulli_entropy_deriv(u, 1)
        assert abs(resid) < 1e-10


def mp_constant_sup(th1, th2):
    """(u*, value) at 50 digits from the stationarity root in x = logit(u).

    For the multipliers used below theta1 + 3 theta2 sigma(x)^2 - x/2 has a
    single sign change on (-40, 40), and it is the maximum.
    """
    with mpmath.workdps(50):
        th1, th2 = mpmath.mpf(th1), mpmath.mpf(th2)

        def stat(x):
            return th1 + 3 * th2 / (1 + mpmath.exp(-x)) ** 2 - x / 2

        x = mpmath.findroot(stat, (mpmath.mpf(-40), mpmath.mpf(40)), solver="anderson")
        u, v = 1 / (1 + mpmath.exp(-x)), 1 / (1 + mpmath.exp(x))
        value = th1 * u + th2 * u**3 - (u * mpmath.log(u) + v * mpmath.log(v)) / 2
        return u, value


class TestConstantGraphonSupMpmath:
    @pytest.mark.parametrize("th1, th2", [(0.2, 3.0), (8.0, 0.0), (-8.0, 0.0), (0.5, 0.2)])
    def test_matches_mpmath(self, th1, th2):
        # the first three maximizers sit within 1.2e-7 of 0 or 1, where
        # I'(u) = log(u/(1-u))/2 loses about 8 digits in double precision
        u, val = constant_graphon_sup(MultiplierPair(th1, th2))
        u_mp, val_mp = mp_constant_sup(th1, th2)
        assert abs(u - u_mp) <= 1e-14
        assert abs(val - val_mp) <= 1e-14


class TestRegionClassify:
    def test_reference_verdicts(self):
        assert region_classify(ConstraintPair(0.6, 0.216)) == "equivalent"
        assert region_classify(ConstraintPair(0.6, 0.3)) == "broken"
        assert region_classify(ConstraintPair(0.4, 0.9)) == "inadmissible"

    def test_triangle_free_segment(self):
        assert region_classify(ConstraintPair(0.3, 0.0)) == "equivalent"
        assert region_classify(ConstraintPair(0.5, 0.0)) == "equivalent"

    def test_low_triangle_strip_below_half(self):
        assert region_classify(ConstraintPair(0.4, 0.05)) == "broken"

    def test_unknown_region(self):
        # off the line, below 1/8, above 1/2: no verdict available
        assert region_classify(ConstraintPair(0.6, 0.05)) == "unknown"

    def test_grid_sanity(self):
        # every broken/equivalent verdict lies inside the admissible region
        for t1 in np.linspace(0.01, 0.99, 200):
            for t2 in np.linspace(0.0, 1.0, 200):
                verdict = region_classify(ConstraintPair(float(t1), float(t2)))
                if verdict in ("broken", "equivalent"):
                    assert t2 <= t1**1.5 + 1e-9

    def test_constraint_pair_metadata(self):
        pair = ConstraintPair(0.6, 0.216)
        assert pair.on_er_line
        assert pair.admissible
        assert not ConstraintPair(0.6, 0.2161).on_er_line

    def test_verdict_reads_the_pair_tolerance(self):
        pair = ConstraintPair(0.6, 0.216 + 1e-4, tol=1e-3)
        assert pair.on_er_line
        assert region_classify(pair) == "equivalent"


class TestAdmissibleRegionOneOwner:
    def test_sliver_above_the_bound_is_inadmissible_everywhere(self):
        # 5e-10 above t1^(3/2): outside the 1e-12 rounding slack, inside
        # the ER-line tolerance that once doubled as admissibility slack
        t1 = 0.49
        t2 = t1**1.5 + 5e-10
        pair = ConstraintPair(t1, t2)
        assert not pair.admissible
        assert region_classify(pair) == "inadmissible"
        with pytest.raises(DomainError, match="admissibility bound"):
            DensityPair(t1, t2)
        with pytest.raises(InfeasibleError, match="admissible region"):
            solve_microcanonical(t1, t2)


class TestCurveSweep:
    def test_below_exponents_and_errors(self):
        rows = curve_sweep([0.5, 0.6, 0.7, 0.8], np.geomspace(1e-6, 1e-3, 7), "below")
        by_t1 = {}
        for r in rows:
            by_t1.setdefault(r["t1"], []).append(r)
        for t1, rs in by_t1.items():
            eps = [r["eps"] for r in rs]
            num = [r["numeric"] for r in rs]
            assert loglog_slope(eps, num) == pytest.approx(2 / 3, abs=0.02)
            # prediction matches at the small end
            assert rs[0]["rel_err"] < 0.03

    def test_above_exponents(self):
        rows = curve_sweep([0.6, 0.7], np.geomspace(1e-6, 1e-3, 5), "above")
        by_t1 = {}
        for r in rows:
            by_t1.setdefault(r["t1"], []).append(r)
        for t1, rs in by_t1.items():
            eps = [r["eps"] for r in rs]
            num = [r["numeric"] for r in rs]
            assert loglog_slope(eps, num) == pytest.approx(1.0, abs=0.02)
            assert rs[0]["rel_err"] < 0.03

    def test_below_curves_ordered_in_t1(self):
        # the eps^(2/3) coefficients increase across these edge densities
        coeffs = [below_line_coefficient(t) for t in (0.5, 0.6, 0.7, 0.8)]
        assert all(a < b for a, b in zip(coeffs, coeffs[1:]))
        rows = curve_sweep([0.5, 0.6, 0.7, 0.8], [1e-5], "below")
        nums = [r["numeric"] for r in rows]
        assert all(a < b for a, b in zip(nums, nums[1:]))

    def test_both_sides_and_fields(self):
        rows = curve_sweep([0.6], [1e-5, 1e-4], "both")
        assert {r["side"] for r in rows} == {"below", "above"}
        for r in rows:
            assert set(r) == {"t1", "eps", "side", "pred", "numeric", "rel_err", "exponent"}

    def test_generator_t1_list(self):
        # a one-shot iterable is read once, not consumed by the emptiness check
        eps = [1e-5, 1e-4]
        rows = curve_sweep((t for t in (0.6, 0.7)), eps, "both")
        for t1 in (0.6, 0.7):
            assert sum(r["t1"] == t1 for r in rows) == 2 * len(eps)

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            curve_sweep([], [1e-4], "below")

    @pytest.mark.parametrize("t1_list, eps_grid, side", [
        ([0.3], [0.0, 1e-3], "below"),
        # t1 = 1/2 is rejected before the below sweep reaches t1 = 0.99
        ([0.5, 0.99], [0.1], "both"),
        # a repeated eps leaves no log-log slope between its two rows
        ([0.6], [1e-4, 1e-4], "below"),
    ])
    def test_inputs_checked_before_any_solve(self, t1_list, eps_grid, side):
        with pytest.raises(DomainError) as info:
            curve_sweep(t1_list, eps_grid, side)
        assert type(info.value) is DomainError
