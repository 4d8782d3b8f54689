"""Log-odds transform and paired t machinery.

The t critical values are computed in-process (regularized incomplete
beta via Lentz's continued fraction, inverted by bisection) for df up to
10**8. Past that the ``lgamma`` difference in the beta's front factor
loses its digits, and the value is the normal limit from the standard
library's ``statistics.NormalDist.inv_cdf``, which is within 4e-8 of the
true t quantile at the cutover and closer beyond it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

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
    denominator. All-zero differences give t = 0; zero variance with a
    nonzero mean is an error (t would be infinite).
    """
    if len(a) != len(b):
        raise DomainError(f"paired samples differ in length: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise DomainError("paired t needs at least two pairs")
    diffs = [x - y for x, y in zip(a, b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    sd = math.sqrt(var)
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, n - 1
        raise DegenerateVarianceError(
            f"paired differences are constant ({mean}) with zero variance"
        )
    return mean / (sd / math.sqrt(n)), n - 1


def two_sided_p(t: float, df: int) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    if df < 1:
        raise DomainError(f"degrees of freedom {df} < 1")
    t = abs(float(t))
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return _reg_incomplete_beta(df / 2.0, 0.5, x)


@lru_cache(maxsize=None)
def t_critical(df: int, confidence: float) -> float:
    """Two-sided critical value: |t| beyond it is significant at the given
    confidence level (e.g. 0.95 or 0.975)."""
    if df < 1:
        raise DomainError(f"degrees of freedom {df} < 1")
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence {confidence} outside (0, 1)")
    alpha = 1.0 - confidence
    if df > _NORMAL_APPROX_DF:
        return NormalDist().inv_cdf(1.0 - alpha / 2.0)
    lo, hi = 0.0, 2.0
    while two_sided_p(hi, df) > alpha:
        hi *= 2.0
        if hi > 1e9:
            raise DomainError(f"no critical value below 1e9 for df={df}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if two_sided_p(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def is_significant(t: float, df: int, confidence: float) -> bool:
    return abs(t) > t_critical(df, confidence)


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
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
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
