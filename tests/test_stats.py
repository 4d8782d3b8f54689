import math

import pytest

from nornet import DegenerateVarianceError, DomainError, log_odds, paired_t, two_sided_p


def t_density(x: float, df: int) -> float:
    ln = (
        math.lgamma((df + 1) / 2)
        - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
        - ((df + 1) / 2) * math.log(1 + x * x / df)
    )
    return math.exp(ln)


def tail_prob_by_quadrature(t: float, df: int, steps: int = 4000) -> float:
    """Independent Simpson-rule oracle for P(|T| >= t)."""
    h = t / steps
    total = t_density(0.0, df) + t_density(t, df)
    for k in range(1, steps):
        total += (4 if k % 2 else 2) * t_density(k * h, df)
    inner = total * h / 3
    return 1.0 - 2.0 * inner


def t_at_tail(alpha: float, df: int) -> float:
    """The |t| at which two_sided_p falls to alpha, by bisection."""
    lo, hi = 0.0, 1000.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if two_sided_p(mid, df) > alpha else (lo, mid)
    return hi


class TestLogOdds:
    def test_half_is_zero(self):
        assert log_odds(0.5) == 0.0

    def test_three_quarters_is_ln_three(self):
        assert log_odds(0.75) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_endpoints_clamped(self):
        top = log_odds(1.0)
        assert top == pytest.approx(20.723, abs=1e-3)
        assert log_odds(0.0) == pytest.approx(-top, rel=1e-6)
        assert log_odds(1.0) == log_odds(0.9999999999)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            log_odds(1.5)


class TestPairedT:
    def test_identical_lists_give_zero(self):
        t, df = paired_t([0.3, 0.4, 0.5], [0.3, 0.4, 0.5])
        assert t == 0.0
        assert df == 2

    def test_hand_computed_fixture(self):
        # diffs [1, 2, 3]: mean 2, sd 1, t = 2 / (1 / sqrt(3))
        t, df = paired_t([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert t == pytest.approx(3.4641, abs=1e-4)
        assert df == 2

    def test_constant_nonzero_diff_is_degenerate(self):
        with pytest.raises(DegenerateVarianceError):
            paired_t([5.0, 5.0], [0.0, 0.0])
        # the mean of [0.1] * 3 rounds away from 0.1, so a variance taken
        # around it is not zero and t would come out near 1e16
        with pytest.raises(DegenerateVarianceError):
            paired_t([0.1] * 3, [0.0] * 3)

    def test_too_short_rejected(self):
        with pytest.raises(DomainError):
            paired_t([1.0], [0.0])
        with pytest.raises(DomainError):
            paired_t([1.0, 2.0], [0.0])

    @pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e154, 1e200, 5e307])
    def test_scale_free_at_extreme_magnitudes(self, scale):
        # the squares of these differences underflow (to 0 or to a
        # subnormal that keeps few digits) or overflow
        t, df = paired_t([scale, 2 * scale, 3 * scale], [0.0] * 3)
        assert t == pytest.approx(12**0.5, rel=1e-15)
        assert df == 2

    def test_sign_convention(self):
        t, _ = paired_t([2.0, 3.0, 4.0], [1.0, 1.5, 2.5])
        assert t > 0
        t, _ = paired_t([1.0, 1.5, 2.5], [2.0, 3.0, 4.0])
        assert t < 0


class TestStudentT:
    @pytest.mark.parametrize(
        "df,expected",
        [
            (1, 12.7062047364),
            (2, 4.30265272991),
            (10, 2.22813885196),
            (30, 2.04227245630),
            (100, 1.98397151845),
        ],
    )
    def test_critical_values_match_standard_table(self, df, expected):
        assert two_sided_p(expected, df) == pytest.approx(0.05, abs=1e-8)

    @pytest.mark.parametrize("df", [1, 2, 5, 17, 60, 400, 1001, 5000])
    @pytest.mark.parametrize("confidence", [0.95, 0.975])
    def test_round_trip_against_quadrature(self, df, confidence):
        critical = t_at_tail(1.0 - confidence, df)
        assert tail_prob_by_quadrature(critical, df) == pytest.approx(
            1.0 - confidence, abs=1e-7
        )

    def test_two_sided_p_against_quadrature(self):
        for df in (1, 3, 12, 45):
            for t in (0.5, 1.0, 2.1, 4.0):
                assert two_sided_p(t, df) == pytest.approx(
                    tail_prob_by_quadrature(t, df), abs=1e-9
                )

    def test_large_df_approaches_normal(self):
        # past df 10**8 the incomplete beta's front factor loses its digits
        # (0.0199 for 0.05 at df 10**15), so the tail is the normal limit
        for df in (10**9, 10**15):
            assert two_sided_p(1.959963984540054, df) == pytest.approx(0.05, abs=1e-9)
            assert two_sided_p(2.241402727604947, df) == pytest.approx(0.025, abs=1e-9)

    @pytest.mark.parametrize("t", [2.0, 5.0, 8.0, 9.0, 12.0])
    def test_normal_limit_keeps_the_far_tail(self, t):
        # either side of the switch to the normal limit the tails agree;
        # 2 * Phi(-t) would cancel in 1 + erf(-t / sqrt(2)) and give 0.0 at t = 9
        below = two_sided_p(t, 10**8)
        assert two_sided_p(t, 10**8 + 1) == pytest.approx(below, rel=1e-4, abs=0.0)

    def test_critical_decreases_with_df(self):
        # equivalently, the tail beyond a fixed t shrinks as df grows
        values = [two_sided_p(2.0, df) for df in (1, 2, 5, 20, 100, 1000, 10**9)]
        assert values == sorted(values, reverse=True)
        assert len(set(values)) == len(values)

    def test_zero_t_never_significant(self):
        assert two_sided_p(0.0, 7) == 1.0

    def test_extreme_t_and_bad_df(self):
        assert two_sided_p(1e200, 5) == 0.0
        assert two_sided_p(1e-200, 5) == 1.0
        with pytest.raises(DomainError, match="degrees of freedom 0 < 1"):
            two_sided_p(2.0, 0)
