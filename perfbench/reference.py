"""Computations made apart from ncx2diff, against which the benchmark judges
the program's outputs.

Nothing here imports ncx2diff. Each reference uses a different route from the
program's production path:

- the difference density by Fourier inversion of the characteristic function,
  written in its real closed form, and within 0.1 of 0 as a convolution of
  the two noncentral chi-square densities (the program sums a Tricomi-U
  series);
- the product density for n = 1 as the integral of the bivariate normal
  density along the hyperbola xy = z, and for n >= 2 as a convolution of two
  scaled noncentral chi-square densities (the program inverts the CF);
- the n = 1 negativity probability by a conditional-normal quadrature (the
  program sums incomplete-beta rectangles);
- raw moments rebuilt exactly, in rational arithmetic, from the closed-form
  cumulants 2^(k-1) (k-1)! (r + k lambda) (the program expands binomial or
  trinomial sums of noncentral chi-square moments).
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import integrate, special, stats

# ---------------------------------------------------------------------------
# densities


def diff_pdf(x: float, r: float, lam1: float, lam2: float) -> float:
    """Density of T = V1 - V2 at x != 0.

    The CF of T is (1 + 4t^2)^(-r/2) exp(-2(l1 + l2) t^2 / (1 + 4t^2))
    exp(i (l1 - l2) t / (1 + 4t^2)), so p(x) = (1/pi) int_0^inf A(t)
    [cos(theta) cos(xt) + sin(theta) sin(xt)] dt, taken by QUADPACK's
    Fourier-integral rule. Within DIFF_PDF_NEAR_ZERO of 0 that rule fails (its
    cycles grow like 1/|x|; at r = 0.5, lambda1 = lambda2 = 16 it returns 0 at
    x = 1e-3 for a density of 0.037), and the convolution below is used.
    """
    if x == 0.0:
        raise ValueError("the reference density is defined for x != 0")
    if abs(x) < DIFF_PDF_NEAR_ZERO:
        return _diff_pdf_convolution(x, r, lam1, lam2)

    def amp(t):
        d = 1.0 + 4.0 * t * t
        return d ** (-r / 2.0) * math.exp(-2.0 * (lam1 + lam2) * t * t / d)

    def theta(t):
        return (lam1 - lam2) * t / (1.0 + 4.0 * t * t)

    ax = abs(x)
    best = None
    with warnings.catch_warnings():
        # QUADPACK warns when it cannot reach the accuracy asked for
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # asking for too much can make the cycle extrapolation fail outright
        # (an error estimate of 1e-3 where 1e-12 was asked, at r = 1), so the
        # request is relaxed until the estimate meets it
        for eps in (1e-12, 1e-11, 1e-10):
            c, ce = integrate.quad(lambda t: amp(t) * math.cos(theta(t)), 0.0, np.inf,
                                   weight="cos", wvar=ax, limlst=200, limit=400,
                                   epsabs=eps)
            s, se = integrate.quad(lambda t: amp(t) * math.sin(theta(t)), 0.0, np.inf,
                                   weight="sin", wvar=ax, limlst=200, limit=400,
                                   epsabs=eps)
            if best is None or ce + se < best[1]:
                best = ((c + math.copysign(1.0, x) * s) / math.pi, ce + se)
            if ce + se <= 2.0 * eps:
                break
    return best[0]


DIFF_PDF_NEAR_ZERO = 0.1


def _diff_pdf_convolution(x: float, r: float, lam1: float, lam2: float) -> float:
    """Density of T = V1 - V2 at small x != 0 as int f1(|x| + w) f2(w) dw over
    w >= 0 (the laws swapped for x < 0).

    f2 behaves like w^(r/2 - 1) at 0, which QUADPACK's algebraic weight takes
    exactly on [0, |x|]; f1(|x| + w) varies on the scale |x|, so the rest of
    the line is split at |x| 2^i up to 1.
    """
    if x < 0.0:
        x, lam1, lam2 = -x, lam2, lam1
    alpha = r / 2.0 - 1.0
    # f2(w) / w^alpha, with its limit at w = 0 (the Poisson term j = 0)
    at0 = math.exp(-lam2 / 2.0 - r / 2.0 * math.log(2.0) - math.lgamma(r / 2.0))

    def smooth2(w):
        return _scaled_ncx2_pdf(w, 1.0, r, lam2) / w ** alpha if w > 0.0 else at0

    def f(w):
        return _scaled_ncx2_pdf(x + w, 1.0, r, lam1) * _scaled_ncx2_pdf(w, 1.0, r, lam2)

    opts = dict(limit=200, epsabs=1e-15, epsrel=1e-13)
    total = integrate.quad(lambda w: _scaled_ncx2_pdf(x + w, 1.0, r, lam1) * smooth2(w),
                           0.0, x, weight="alg", wvar=(alpha, 0.0), **opts)[0]
    edges = [x]
    while edges[-1] < 1.0:
        edges.append(2.0 * edges[-1])
    # the mass of f2 lies below lam2 + r + 14 sqrt(r + 2 lam2) + 40
    edges.append(max(2.0, lam2 + r + 14.0 * math.sqrt(r + 2.0 * lam2) + 40.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        total += sum(integrate.quad(f, p, q, **opts)[0] for p, q in zip(edges, edges[1:]))
        total += integrate.quad(f, edges[-1], np.inf, **opts)[0]
    return total


def _bvn_line_pdf(z: float, mx: float, my: float, rho: float) -> float:
    """Density of Z = XY, unit variances, n = 1: int phi2(x, z/x) / |x| dx."""
    s2 = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(s2))

    def f(x):
        y = z / x
        dx, dy = x - mx, y - my
        q = (dx * dx - 2.0 * rho * dx * dy + dy * dy) / s2
        return norm * math.exp(-0.5 * q) / abs(x)

    # the mass lies within ~12 of mx on the x axis and of my on the y axis;
    # split each half-line where x or z/x crosses those edges
    total = 0.0
    for sign in (-1.0, 1.0):
        edges = sorted({1e-300, abs(mx) + 14.0, abs(z) / (abs(my) + 14.0),
                        math.sqrt(abs(z)), 1.0})
        lo = 0.0
        for hi in edges[1:] + [np.inf]:
            a, b = (lo, hi) if sign > 0 else (-hi, -lo)
            total += integrate.quad(f, a, b, limit=200, epsabs=1e-15,
                                    epsrel=1e-12)[0]
            lo = hi
    return total


def _scaled_ncx2_pdf(u: float, scale: float, n: int, lam: float) -> float:
    """Density of scale * chi'^2_n(lam) at u, in its Bessel-I closed form
    (scipy.stats' per-call overhead would dominate the quadrature)."""
    x = u / scale
    if x <= 0.0:
        return 0.0
    if lam == 0.0:
        return math.exp((n / 2.0 - 1.0) * math.log(x) - x / 2.0
                        - n / 2.0 * math.log(2.0) - math.lgamma(n / 2.0)) / scale
    s = math.sqrt(lam * x)
    return (0.5 * math.exp(-(math.sqrt(x) - math.sqrt(lam)) ** 2 / 2.0)
            * (x / lam) ** (n / 4.0 - 0.5) * special.ive(n / 2.0 - 1.0, s) / scale)


def product_pdf(z: float, mx: float, my: float, rho: float, n: int) -> float:
    """Density of S_n, the sum of n products of unit-variance normals with
    correlation rho (|rho| < 1) at z != 0.

    n = 1: the bivariate normal density along xy = z. n >= 2: S_n = a V1 - b V2
    with a = (1 + rho)/2, b = (1 - rho)/2, V1 ~ chi'^2_n(n (mx + my)^2 /
    (2(1 + rho))), V2 ~ chi'^2_n(n (mx - my)^2 / (2(1 - rho))); the density
    is int f_{aV1}(z + w) f_{bV2}(w) dw over w >= max(0, -z). Both factors are
    bounded for n >= 2, which a plain double-precision quadrature needs.
    """
    if n == 1:
        return _bvn_line_pdf(z, mx, my, rho)
    a, b = (1.0 + rho) / 2.0, (1.0 - rho) / 2.0
    lp = n * (mx + my) ** 2 / (2.0 * (1.0 + rho))
    lm = n * (mx - my) ** 2 / (2.0 * (1.0 - rho))

    def f(w):
        return float(_scaled_ncx2_pdf(z + w, a, n, lp) * _scaled_ncx2_pdf(w, b, n, lm))

    lo = max(0.0, -z)
    # the second factor's mass lies below b (n + lm + 14 sqrt(n + 2 lm) + 40)
    span = b * (n + lm + 14.0 * math.sqrt(n + 2.0 * lm) + 40.0)
    edges = [lo, lo + span / 8.0, lo + span]
    total = sum(integrate.quad(f, p, q, limit=200, epsabs=1e-15, epsrel=1e-12)[0]
                for p, q in zip(edges, edges[1:]))
    return total + integrate.quad(f, edges[-1], np.inf, limit=200,
                                  epsabs=1e-15)[0]


# ---------------------------------------------------------------------------
# negativity probability


def prob_nonpositive_n1(mx: float, my: float, rho: float) -> float:
    """P(XY <= 0) for unit-variance normals with correlation |rho| < 1.

    P = int phi(x - mx) P(sign Y != sign x | X = x) dx, where
    Y | X = x ~ N(my + rho (x - mx), 1 - rho^2).
    """
    s = math.sqrt(1.0 - rho * rho)

    def below(x):  # P(Y <= 0 | X = x)
        return special.ndtr(-(my + rho * (x - mx)) / s)

    def f(x):
        p = below(x)
        return math.exp(-0.5 * (x - mx) ** 2) * (p if x > 0 else 1.0 - p)

    lo, hi = mx - 14.0, mx + 14.0
    # breakpoints: the sign change of x, and where the conditional mean of Y
    # crosses 0 (a step of width ~s when rho is near +-1)
    cuts = {lo, hi}
    for c in (0.0, mx - my / rho if rho != 0.0 else None):
        if c is not None and lo < c < hi:
            cuts.add(c)
    cuts = sorted(cuts)
    total = sum(integrate.quad(f, a, b, limit=400, epsabs=1e-15, epsrel=1e-13)[0]
                for a, b in zip(cuts, cuts[1:]))
    return total / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# moments


def raw_moments(kappa: list) -> list:
    """Exact raw moments m_1..m_K from the cumulants kappa_1..kappa_K:
    m_n = sum_{i<n} C(n-1, i) kappa_{n-i} m_i."""
    m = [Fraction(1)]
    for n in range(1, len(kappa) + 1):
        m.append(sum(math.comb(n - 1, i) * kappa[n - i - 1] * m[i]
                     for i in range(n)))
    return m[1:]


def _ncx2_cumulant(k: int, r, lam) -> Fraction:
    return Fraction(2) ** (k - 1) * math.factorial(k - 1) * (r + k * lam)


def diff_cumulants(kmax: int, r: float, lam1: float, lam2: float) -> list:
    """Exact kappa_1..kappa_kmax of T = V1 - V2 for the binary floats given."""
    r, l1, l2 = Fraction(r), Fraction(lam1), Fraction(lam2)
    return [_ncx2_cumulant(k, r, l1) + (-1) ** k * _ncx2_cumulant(k, r, l2)
            for k in range(1, kmax + 1)]


def sum_cumulants(kmax: int, mx: float, my: float, rho: float, n: int) -> list:
    """Exact kappa_1..kappa_kmax of S_n (unit variances, |rho| < 1) through
    S_n = c1 V1 - c2 V2, c1 = (1 + rho)/2, c2 = (1 - rho)/2."""
    mx, my, rho = Fraction(mx), Fraction(my), Fraction(rho)
    c1, c2 = (1 + rho) / 2, (1 - rho) / 2
    lp = n * (mx + my) ** 2 / (2 * (1 + rho))
    lm = n * (mx - my) ** 2 / (2 * (1 - rho))
    return [c1 ** k * _ncx2_cumulant(k, n, lp) + (-c2) ** k * _ncx2_cumulant(k, n, lm)
            for k in range(1, kmax + 1)]


def sum_moment_condition(kmax: int, mx: float, my: float, rho: float, n: int) -> list:
    """Condition number sum|t| / |sum t| of the trinomial expansion
    E[S^k] = sum_{i+j=k} C(k, i) c1^i (-c2)^j E[V1^i] E[V2^j], orders 1..kmax.

    A floating-point evaluation of that sum loses digits in proportion to it:
    near laws symmetric about 0 the terms cancel and it grows without bound.
    """
    mx, my, rho = Fraction(mx), Fraction(my), Fraction(rho)
    c1, c2 = (1 + rho) / 2, (1 - rho) / 2
    lp = n * (mx + my) ** 2 / (2 * (1 + rho))
    lm = n * (mx - my) ** 2 / (2 * (1 - rho))
    m1 = [Fraction(1)] + raw_moments([_ncx2_cumulant(k, n, lp) for k in range(1, kmax + 1)])
    m2 = [Fraction(1)] + raw_moments([_ncx2_cumulant(k, n, lm) for k in range(1, kmax + 1)])
    out = []
    for k in range(1, kmax + 1):
        terms = [math.comb(k, i) * c1 ** i * (-c2) ** (k - i) * m1[i] * m2[k - i]
                 for i in range(k + 1)]
        out.append(float(sum(abs(t) for t in terms) / abs(sum(terms))))
    return out


# ---------------------------------------------------------------------------
# sampler draws


def sample_bounds(values: np.ndarray, kappa: list, z: float = 6.0) -> dict:
    """Mean and variance of a batch against the closed-form cumulants.

    The sample mean has standard error sqrt(k2/N) and the sample variance
    sqrt((k4 + 2 k2^2)/N); |deviation| <= z standard errors fails a correct
    sampler with probability about 2e-9 each at z = 6.
    """
    k1, k2, _, k4 = (float(k) for k in kappa[:4])
    n = len(values)
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    mean_se = math.sqrt(k2 / n)
    var_se = math.sqrt((k4 + 2.0 * k2 * k2) / n)
    return {"mean_z": (mean - k1) / mean_se, "var_z": (var - k2) / var_se,
            "ok": abs(mean - k1) <= z * mean_se and abs(var - k2) <= z * var_se}


def ks_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov p-value."""
    return float(stats.ks_2samp(a, b, method="asymp").pvalue)
