"""Special-function kernel in log form: modified Bessel I/K, Kummer M and
Tricomi U.

Production evaluation is delegated to scipy.special where it is accurate in the
regimes we need; the overflow corners (large-order Bessel K, large second
parameter in U, large-argument M) get dedicated log-space paths, since the
density and moment series must not silently overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sc

from .errors import DomainError, NonConvergenceError

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
        if not self.abs_tol > 0:
            raise DomainError("abs_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_CONTROL = SeriesControl()


def log_bessel_i(nu: float, x: float) -> float:
    """ln I_nu(x), stable for large x and for large order at small argument."""
    if nu < 0:
        raise DomainError(f"log_bessel_i requires nu >= 0, got {nu}")
    if x < 0:
        raise DomainError(f"log_bessel_i requires x >= 0, got {x}")
    if x == 0:
        return 0.0 if nu == 0 else -math.inf
    scaled = sc.ive(nu, x)  # I_nu(x) * exp(-x)
    if scaled > 0 and math.isfinite(scaled):
        return math.log(scaled) + x
    # ive underflows when nu is large relative to x: use the ascending series
    # I_nu(x) = (x/2)^nu sum_m (x^2/4)^m / (m! Gamma(nu+m+1)), all terms positive.
    q = 0.25 * x * x
    logs = []
    lt = nu * math.log(0.5 * x) - sc.gammaln(nu + 1.0)
    m = 0
    while True:
        logs.append(lt)
        m += 1
        lt += math.log(q) - math.log(m) - math.log(nu + m)
        if lt < logs[0] - 40.0 or m > 500:
            break
    return float(sc.logsumexp(logs))


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
    return (-math.log(2.0) - nu * math.log(0.5 * x) + sc.gammaln(nu)
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


def _log_u_trap(a: float, b: float, x: float) -> float:
    # U Gamma(a) x^a = int e^{phi(t)} dt with s = e^t and
    # phi(t) = a t - e^t + c log1p(e^t / x); valid for all a > 0, x > 0.
    # The integrand is analytic in |Im t| < pi/2 and decays at both ends, so
    # the trapezoidal rule on the whole line converges geometrically in 1/h.
    # log1p(e^t / x) is taken as logaddexp(0, t - ln x), which stays finite
    # where e^t / x overflows (x subnormal)
    c = b - a - 1.0
    big = a + max(c, 0.0)
    lx = math.log(x)

    def phi(t):
        return a * t - np.exp(t) + c * np.logaddexp(0.0, t - lx)

    # phi' <= big - e^t, so phi falls by more than 45 over [ln big, t_hi]
    t_hi = math.log(big) + math.log(2.0 + 45.0 / big) + 1.0
    # below t1, psi = phi(t) - a t obeys |psi| <= e^t (1 + |c|/x) <= 0.1, so
    # the grid points below t_lo, summed as the geometric series of e^{a t},
    # are off by less than e^{phi(ln a) - 40}: the slow e^{a t} tail of a
    # small a costs no grid points
    ref = float(phi(math.log(a)))
    t1 = min(0.0, lx - math.log1p(abs(c))) - 3.0
    t_lo = min(t1, (ref - 40.0 - math.log(2.2 * (x + abs(c))) + lx) / (a + 1.0))
    # the step resolves the peak (curvature at most a + |c| + 1) and stays
    # small against the strip width
    h = min(0.15, 0.5 / math.sqrt(a + abs(c) + 1.0))
    f = phi(t_lo + h * np.arange(2 * math.ceil((t_hi - t_lo) / (2.0 * h)) + 1))
    m = max(float(f.max()), ref)
    w = np.exp(f - m)

    def tail(step):  # sum of e^{a t - m} over t = t_lo - step, t_lo - 2 step, ...
        return math.exp(a * (t_lo - step) - m) / -math.expm1(-a * step)

    fine = float(w.sum()) + tail(h)
    coarse = 2.0 * (float(w[::2].sum()) + tail(2.0 * h))
    # the error falls at least geometrically in 1/h, so the step-h error is
    # at most the square of the step-2h one: this keeps it below 1e-12
    if not abs(coarse / fine - 1.0) <= 1e-6:
        raise NonConvergenceError(
            f"U trapezoid unresolved at (a={a}, b={b}, x={x}): "
            f"step-h and step-2h sums differ by {abs(coarse / fine - 1.0):.1e}")
    return math.log(h * fine) + m - a * lx - sc.gammaln(a)


def _log_u_core(a: float, b: float, x: float) -> float:
    """ln U(a, b, x) for a > 0, b >= 1, x > 0 (the post-reflection region).

    Two routes: scipy's hyperu inside the box where it was measured to be
    accurate, and everywhere else a trapezoidal quadrature of the integral
    representation (`_log_u_trap`, within 1.1e-14 of 40-digit mpmath). The
    box is b < 4 with b at least 0.1 from an integer, a <= b + 1 and
    x < max(1, 2(b - a - 1)): against the trapezoid, hyperu was within 5.7e-14
    in ln U at all 80,000 random points of it (1e-8 <= a, 1e-14 <= x). Outside
    it hyperu is silently wrong in many places, for example by 24 in ln U at
    U(3.997, 5, 0.0097) (integer b), 3.9e-11 at U(0.5, 9, 10.94), 5.8e-10 at
    U(25.21, 30.42, 7.0), 1e-8 for a > b + 1 at small x, 4.5e-7 at large x,
    and about 2e-15/|b - n| by cancellation for b near an integer n.
    """
    c = b - a - 1.0
    if b < 4.0 and abs(b - round(b)) >= 0.1 and c >= -2.0 and x < max(1.0, 2.0 * c):
        h = sc.hyperu(a, b, x)
        if math.isfinite(h) and h > 0:
            return math.log(h)
    return _log_u_trap(a, b, x)


def log_tricomi_u(a: float, b: float, x: float) -> float:
    """ln U(a, b, x); requires a parameter region where U > 0 (first parameter
    positive after the b < 1 reflection)."""
    if x <= 0:
        raise DomainError(f"log_tricomi_u requires x > 0, got {x}")
    if b < 1.0:
        return (1.0 - b) * math.log(x) + log_tricomi_u(a - b + 1.0, 2.0 - b, x)
    if a <= 0:
        raise DomainError("log_tricomi_u requires a > 0 (after reflection)")
    return _log_u_core(a, b, x)
