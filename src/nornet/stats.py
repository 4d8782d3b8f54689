"""Log-odds transform and paired t machinery.

Significance is the two-sided tail probability of Student's t, computed
in-process as a regularized incomplete beta (Lentz's continued fraction)
for df up to 10**8. Past that the ``lgamma`` difference in the beta's
front factor loses its digits, and the tail is the normal limit, computed
as one ``math.erfc`` so that it keeps its digits far into the tail.
"""

from __future__ import annotations

import math
import sys

from .errors import DegenerateVarianceError, DomainError

LOG_ODDS_EPS = 1e-9
_NORMAL_APPROX_DF = 10**8


def log_odds(p: float) -> float:
    """ln(p / (1 - p)) with p clamped into [1e-9, 1 - 1e-9] first, so the
    endpoints map to large finite values instead of infinities."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"probability {p} outside [0, 1]")
    p = min(max(p, LOG_ODDS_EPS), 1.0 - LOG_ODDS_EPS)
    return math.log(p / (1.0 - p))


def paired_t(a: list[float], b: list[float]) -> tuple[float, int]:
    """Paired t statistic and degrees of freedom for matched samples.

    Differences are a[i] - b[i]; the standard deviation uses the n-1
    denominator. All-zero differences give t = 0; differences that are all
    one nonzero value are an error (zero variance: t would be infinite).
    """
    if len(a) != len(b):
        raise DomainError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise DomainError("paired t needs at least two pairs")
    diffs = [x - y for x, y in zip(a, b)]
    if all(d == diffs[0] for d in diffs):
        if diffs[0] == 0.0:
            return 0.0, n - 1
        raise DegenerateVarianceError(
            f"paired differences are constant ({diffs[0]}) with zero variance"
        )
    t = _t_statistic(diffs)
    if math.isnan(t):
        # t does not depend on the scale of the differences, and a power of
        # two rescales them exactly: bring the largest into [0.5, 1) and
        # compute again.
        _, exponent = math.frexp(max(abs(d) for d in diffs))
        t = _t_statistic([math.ldexp(d, -exponent) for d in diffs])
    return t, n - 1


def _t_statistic(diffs: list[float]) -> float:
    """The one-sample t of ``diffs``; nan when the sum of squared deviations
    overflows or falls below the smallest normal double, where it has lost
    its digits."""
    n = len(diffs)
    mean = sum(diffs) / n
    try:
        squares = sum((d - mean) ** 2 for d in diffs)
    except OverflowError:
        return math.nan
    if not sys.float_info.min <= squares <= sys.float_info.max:
        return math.nan
    sd = math.sqrt(squares / (n - 1))
    return mean / (sd / math.sqrt(n))


def two_sided_p(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom; the normal
    limit past df 10**8."""
    if df < 1:
        raise DomainError(f"degrees of freedom {df} < 1")
    t = abs(float(t))
    if t == 0.0:
        return 1.0
    if df > _NORMAL_APPROX_DF:
        return math.erfc(t / math.sqrt(2.0))
    x = df / (df + t * t)
    return _reg_incomplete_beta(df / 2.0, 0.5, x)


def _reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    """Lentz continued fraction for the incomplete beta."""
    tiny = 1e-300
    eps = 3e-16
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        even_term = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd_term = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even_term, odd_term):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h
