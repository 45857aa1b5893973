"""Special-function kernel in log form: modified Bessel I/K, Kummer M and
Tricomi U.

The Bessel functions come from scipy's exponentially scaled ive/kve, with
log-space series where those underflow or overflow (large order); Kummer M
from its positive series in log space; Tricomi U from one trapezoidal
quadrature of its integral representation, for every (a, b, x). The density
and moment series must not silently overflow, and each series either
converges or raises NonConvergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .errors import DomainError, NonConvergenceError, check_integer

__all__ = [
    "SeriesControl",
    "log_bessel_i",
    "log_bessel_k",
    "log_kummer_m",
    "log_tricomi_u",
]


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the infinite series evaluators.

    Evaluators either converge (estimated tail below tolerance) or raise
    NonConvergenceError; they never silently truncate.
    """

    abs_tol: float = 1e-12
    max_terms: int = 10000

    def __post_init__(self):
        if not 0 < self.abs_tol < 1:
            raise DomainError(f"abs_tol must lie in (0, 1), got {self.abs_tol}")
        object.__setattr__(self, "max_terms", check_integer(self.max_terms, 1, "max_terms"))


DEFAULT_CONTROL = SeriesControl()

# terms of the ascending Bessel-I series before it raises: enough for
# arguments up to about 1e5 where ive underflows
_BESSEL_I_TERMS = 100_000


def _poisson_window(mu: float, tol: float, max_terms: float) -> tuple[int, np.ndarray, float]:
    """(lo, w, omitted): the shortest window lo..hi that leaves at most tol/2
    of the Poisson(mu) mass at each end, its weights, and the exact omitted
    mass pdtr(lo - 1, mu) + pdtrc(hi, mu).

    The ends start from the continuous inverses of the tails, pdtrik and
    gdtrib (pdtrc(k, mu) = gdtr(1, k + 1, mu)), and step until minimal. The
    weights follow the ratio mu / k outward from the mode, scaled to the mass
    1 - omitted (exp(k ln mu - ln k! - mu) is 1.5e-10 off by mu = 4e4). More
    than max_terms indices raise NonConvergenceError naming the window length.
    """
    if mu == 0.0:
        return 0, np.ones(1), 0.0
    half = tol / 2.0
    lo = 0
    if sc.pdtr(0, mu) <= half:  # else no index can be cut below
        lo = math.floor(sc.pdtrik(half, mu)) + 1
        while sc.pdtr(lo - 1, mu) > half:
            lo -= 1
        while sc.pdtr(lo, mu) <= half:
            lo += 1
    hi = max(lo, math.ceil(sc.gdtrib(1.0, half, mu) - 1.0))
    while sc.pdtrc(hi, mu) > half:
        hi += 1
    while hi > lo and sc.pdtrc(hi - 1, mu) <= half:
        hi -= 1
    if hi - lo + 1 > max_terms:
        raise NonConvergenceError(
            f"Poisson window needs {hi - lo + 1} terms > max_terms={max_terms}",
            max_terms=hi - lo + 1)
    omitted = (sc.pdtr(lo - 1, mu) if lo > 0 else 0.0) + sc.pdtrc(hi, mu)
    step = np.log(mu / np.arange(lo + 1, hi + 1))  # ln w_k - ln w_{k-1}
    m = min(max(math.floor(mu), lo), hi) - lo  # the mode's place in the window
    w = np.exp(np.concatenate((-np.cumsum(step[:m][::-1])[::-1], [0.0],
                               np.cumsum(step[m:]))))
    return lo, w * ((1.0 - omitted) / w.sum()), float(omitted)


def log_bessel_i(nu: float, x: float) -> float:
    """ln I_nu(x) for nu > -1, stable for large x and for large order at small
    argument. I_nu(x) > 0 there, and every term of its ascending series is
    positive."""
    if not nu > -1.0:
        raise DomainError(f"log_bessel_i requires nu > -1, got {nu}")
    if x < 0:
        raise DomainError(f"log_bessel_i requires x >= 0, got {x}")
    if x == 0:
        return 0.0 if nu == 0 else math.copysign(math.inf, -nu)
    scaled = sc.ive(nu, x)  # I_nu(x) * exp(-x)
    if scaled > 0 and math.isfinite(scaled):
        return math.log(scaled) + x
    # ive underflows when nu is large relative to x: use the ascending series
    # I_nu(x) = (x/2)^nu sum_m (x^2/4)^m / (m! Gamma(nu+m+1)), all terms positive.
    # ln x - ln 2 rather than ln(x/2), which is ln 0 at x = 5e-324
    half = math.log(x) - math.log(2.0)
    logs = []
    lt = best = nu * half - sc.gammaln(nu + 1.0)
    for m in range(1, _BESSEL_I_TERMS):
        logs.append(lt)
        # ln of the term ratio (x^2/4) / (m (nu + m)), which falls with m:
        # stop once it is below 1 and the terms lie 40 below the largest, so
        # that the omitted rest is below the current term over 1 - e^ratio
        ratio = 2.0 * half - math.log(m) - math.log(nu + m)
        lt += ratio
        best = max(best, lt)
        if ratio < 0.0 and lt < best - 40.0:
            return float(sc.logsumexp(logs))
    raise NonConvergenceError(
        f"log_bessel_i: {_BESSEL_I_TERMS} series terms exhausted at (nu={nu}, x={x})")


def log_bessel_k(nu: float, x: float) -> float:
    """ln K_nu(x), stable for large order and/or large argument."""
    if x <= 0:
        raise DomainError(f"log_bessel_k requires x > 0, got {x}")
    nu = abs(nu)
    scaled = sc.kve(nu, x)  # K_nu(x) * exp(x)
    if math.isfinite(scaled) and scaled > 0:
        return math.log(scaled) - x
    # kve overflows only when nu >> 1 with x moderate. Use the dominant part of
    # the small-argument expansion:
    # K_nu(x) ~ (1/2) Gamma(nu) (x/2)^{-nu} sum_m (-x^2/4)^m / (m! (1-nu)_m),
    # whose terms shrink by a factor ~ q/nu, so a short alternating sum in
    # linear space (relative to the leading term) is exact to roundoff.
    q = 0.25 * x * x
    total, term, m = 1.0, 1.0, 0
    while m < nu - 1.0 and abs(term) > 1e-18:
        term *= -q / ((m + 1.0) * (nu - m - 1.0))
        total += term
        m += 1
    return (-math.log(2.0) - nu * (math.log(x) - math.log(2.0)) + sc.gammaln(nu)
            + math.log(total))


def log_kummer_m(a: float, b: float, x: float, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """ln M(a, b, x) for a > 0, b > 0, x >= 0 (all series terms positive).

    This is the overflow-safe route for large x; the moment formulas only need
    this positive-parameter region.
    """
    if a <= 0 or b <= 0 or x < 0:
        raise DomainError("log_kummer_m requires a > 0, b > 0, x >= 0")
    if x == 0:
        return 0.0
    # term_k = (a)_k x^k / ((b)_k k!); log-recurrence, then logsumexp.
    logs = [0.0]
    lt = 0.0
    best = 0.0
    for k in range(ctrl.max_terms):
        lt += math.log(a + k) - math.log(b + k) + math.log(x) - math.log(k + 1)
        logs.append(lt)
        best = max(best, lt)
        if lt < best - 40.0 and a + k > x:  # past the peak and negligible
            return float(sc.logsumexp(logs))
    raise NonConvergenceError(f"log_kummer_m: {ctrl.max_terms} terms exhausted at (a={a}, b={b}, x={x})")


def log_tricomi_u(a, b, x: float):
    """ln U(a, b, x) for x > 0 and a > 0 after the b < 1 reflection
    U(a, b, x) = x^{1-b} U(a - b + 1, 2 - b, x), where U > 0.

    a and b are scalars or equal-length 1-d arrays, all at the one x; the
    result then is an array.

    A trapezoidal rule on the integral representation (DLMF 13.4.4):
    U Gamma(a) x^a = int e^{phi(t)} dt with s = e^t and
    phi(t) = a t - e^t + c log1p(e^t / x), c = b - a - 1. The integrand is
    analytic in |Im t| < pi/2 and decays at both ends, so the trapezoidal rule
    on the whole line converges geometrically in 1/h. log1p(e^t / x) is taken
    as logaddexp(0, t - ln x), which stays finite where e^t / x overflows
    (x subnormal). A batch shares one grid: the smallest step and the union of
    the ranges that each element needs, which only adds accuracy. scipy's own
    U is not used: it is silently wrong in much of the range the density
    series needs, by 24 in ln U at integer b (see CHANGES.md).
    """
    if x <= 0:
        raise DomainError(f"log_tricomi_u requires x > 0, got {x}")
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    lx = math.log(x)
    refl = b < 1.0
    shift = np.where(refl, (1.0 - b) * lx, 0.0)
    a, b = np.where(refl, a - b + 1.0, a), np.where(refl, 2.0 - b, b)
    if not (a > 0).all():
        raise DomainError("log_tricomi_u requires a > 0 (after reflection)")
    c = b - a - 1.0
    big = a + np.maximum(c, 0.0)

    def phi(t):
        return a[:, None] * t - np.exp(t) + c[:, None] * np.logaddexp(0.0, t - lx)

    # phi' <= big - e^t, so phi falls by more than 45 over [ln big, t_hi]
    t_hi = float(np.max(np.log(big) + np.log(2.0 + 45.0 / big))) + 1.0
    # below t1, psi = phi(t) - a t obeys |psi| <= e^t (1 + |c|/x) <= 0.1, so
    # the grid points below t_lo, summed as the geometric series of e^{a t},
    # are off by less than e^{phi(ln a) - 40}: the slow e^{a t} tail of a
    # small a costs no grid points
    ref = phi(np.log(a)[:, None])[:, 0]
    t1 = np.minimum(0.0, lx - np.log1p(np.abs(c))) - 3.0
    t_lo = float(np.min(np.minimum(
        t1, (ref - 40.0 - np.log(2.2 * (x + np.abs(c))) + lx) / (a + 1.0))))
    # the step resolves the peak (curvature at most a + |c| + 1) and stays
    # small against the strip width
    h = min(0.15, float(np.min(0.5 / np.sqrt(a + np.abs(c) + 1.0))))
    f = phi(t_lo + h * np.arange(2 * math.ceil((t_hi - t_lo) / (2.0 * h)) + 1))
    m = np.maximum(f.max(axis=1), ref)
    w = np.exp(f - m[:, None])

    def tail(step):  # sum of e^{a t - m} over t = t_lo - step, t_lo - 2 step, ...
        return np.exp(a * (t_lo - step) - m) / -np.expm1(-a * step)

    fine = w.sum(axis=1) + tail(h)
    coarse = 2.0 * (w[:, ::2].sum(axis=1) + tail(2.0 * h))
    # the error falls at least geometrically in 1/h, so the step-h error is
    # at most the square of the step-2h one: this keeps it below 1e-12
    gap = np.abs(coarse / fine - 1.0)
    bad = ~(gap <= 1e-6)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonConvergenceError(
            f"U trapezoid unresolved at (a={a[i]}, b={b[i]}, x={x}): "
            f"step-h and step-2h sums differ by {gap[i]:.1e}")
    out = np.log(h * fine) + m - a * lx - sc.gammaln(a) + shift
    return float(out[0]) if scalar else out
