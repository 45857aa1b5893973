"""Series densities for the noncentral chi-square difference law and the
noncentral chi-square itself, together with the characteristic functions and a
CF-inversion PDF oracle."""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable

import numpy as np
from scipy import integrate
from scipy import special as sc

from .errors import (
    DomainError,
    InversionAccuracyError,
    NonConvergenceError,
    SingularPointError,
)
from .params import ChiSqDiffParams, ChiSqDiffRepr, ProductNormalParams, to_chisq_diff
from .specfun import (
    DEFAULT_CONTROL,
    SeriesControl,
    _poisson_window,
    log_bessel_i,
    log_tricomi_u,
)

__all__ = [
    "ncx2_pdf",
    "ncx2diff_pdf",
    "char_fn_product",
    "char_fn_sum",
    "char_fn_ncx2",
    "cf_inversion_pdf",
    "singularity_constant",
]

_LN2 = math.log(2.0)
# smallest normal double: the relative certificate holds down to this p
_TINY = sys.float_info.min


# ---------------------------------------------------------------------------
# noncentral chi-square density


def ncx2_pdf(x: float, r: float, lam: float) -> float:
    """PDF of chi'^2_r(lambda) at x >= 0.

    Raises SingularPointError at x = 0 when r < 2 (the density diverges there).
    """
    if x < 0:
        raise DomainError(f"ncx2_pdf requires x >= 0, got {x}")
    if r <= 0 or lam < 0:
        raise DomainError("require r > 0 and lambda >= 0")
    if x == 0:
        if r < 2:
            raise SingularPointError(x, "chi'^2 density diverges at 0 for r < 2")
        if r == 2:
            return 0.5 * math.exp(-lam / 2.0)
        return 0.0
    if lam == 0:
        logp = (r / 2.0 - 1.0) * math.log(x) - x / 2.0 \
            - (r / 2.0) * math.log(2.0) - sc.gammaln(r / 2.0)
        return math.exp(logp)
    nu = r / 2.0 - 1.0
    logp = -math.log(2.0) - (x + lam) / 2.0 \
        + (r / 4.0 - 0.5) * (math.log(x) - math.log(lam)) \
        + log_bessel_i(nu, math.sqrt(lam * x))
    return math.exp(logp)


# ---------------------------------------------------------------------------
# difference-density series


def _window_bounds(x: float, r: float, lam1: float, lam2: float,
                   floor: float) -> np.ndarray:
    """E[K] bounds the cells of the double series past outer index K, for
    K = 0, 1, ...: the series stops at the first K whose E[K] meets its
    target.

    Cell (k, j) is Poisson((lam1 + lam2)/2) weight k times a binomial share
    times the density at x of chi^2_{r+2 j1} - chi^2_{r+2 j2}, j1 = k - j and
    j2 = j. That density is at most S(j1) = sup over y >= x of the
    chi^2_{r+2 j1} density; for j1 = 0 and r <= 2 it is also at most
    int chi^2_r chi^2_{r+2 j2} <= Gamma(r) / (2^{r+1} Gamma(r/2) Gamma(r/2+1)),
    since j2 >= 1 past k = 0. So row k sums to at most its Poisson weight
    times the largest S(j1) in it, never more than 1/2, and the rows outside
    the Poisson window lo..hi (mass at most floor) add at most floor / 2:
    E[K] counts that half of the omitted mass for every K.
    """
    mu = (lam1 + lam2) / 2.0
    lo, w, omitted = _poisson_window(mu, floor, math.inf)
    cap = lo + w.size - 1
    k = np.arange(cap + 1)
    nu = r + 2.0 * k
    y = np.maximum(x, nu - 2.0)  # where chi^2_nu peaks on [x, inf)
    sup = np.exp(sc.xlogy(nu / 2.0 - 1.0, y) - y / 2.0 - nu / 2.0 * _LN2
                 - sc.gammaln(nu / 2.0))
    if r <= 2.0:
        sup[0] = min(sup[0], math.exp(sc.gammaln(r) - (r + 1.0) * _LN2
                                      - sc.gammaln(r / 2.0) - sc.gammaln(r / 2.0 + 1.0)))
    if lam1 == 0.0:  # every cell has j1 = 0
        row = np.full(cap + 1, sup[0])
    elif lam2 == 0.0:  # every cell has j1 = k
        row = sup
    else:
        row = np.maximum.accumulate(sup)
    rows = np.zeros(cap + 1)
    rows[lo:] = w * row[lo:]
    past = np.cumsum(rows[::-1])[::-1]
    return np.append(past[1:], 0.0) + 0.5 * omitted


def _log_diagonal(x: float, r: float, K: int) -> np.ndarray:
    """ln V_k, V_k = x^{r+k-1} U(r/2 + k, r + k, x), for k = 0..K.

    By Kummer's transformation V_k = U(1 - r/2, 2 - r - k, x): one
    b-recurrence at fixed a, V_{k+1} = [x V_{k-1} + (r + k - 1 - x) V_k] /
    (r/2 + k) (DLMF 13.3.8). It runs downward in b, which is stable once
    k >= x; below that it loses digits (0.14 in ln U by k = 80 from k = 0 at
    x = 40), so the seeds k <= max(1, ceil(x)) come from one batched U call.
    """
    h = r / 2.0
    lx = math.log(x)
    k0 = min(K, max(1, math.ceil(x)))
    ks = np.arange(k0 + 1)
    lv = (r + ks - 1.0) * lx + log_tricomi_u(h + ks, r + ks, x)
    if K == k0:
        return lv
    out = np.empty(K + 1)
    out[:k0 + 1] = lv
    s = math.exp(lv[-1] - lv[-2])  # V_k / V_{k-1}
    for k in range(k0, K):
        s = (x / s + r + k - 1.0 - x) / (h + k)
        out[k + 1] = out[k] + math.log(s)
    return out


def _window_sum(x: float, r: float, lam1: float, lam2: float, K: int) -> float:
    """The double series over the cells k <= K, at x >= 0.

    Cell (k, j) is a weight times x^{r+k-1} U(r/2 + j, r + k, x); it is held
    at (d, j), d = k - j, where the weight (lam1/4)^d (lam2/4)^j /
    (d! j! Gamma(r/2 + d)) splits into a factor of d and a factor of j. With
    lam1 = 0 only the diagonal d = 0 is present, with lam2 = 0 only column
    j = 0. Column j starts from the diagonal V_j, takes its value at
    b = r + j + 1 from V_j and V_{j+1} by DLMF 13.3.10,
    U(a, b) = a U(a+1, b) + U(a, b-1), and then steps down by DLMF 13.3.8 in
    ratio form; U is the dominant solution in b, so that forward recurrence
    is stable. All columns take their d-th step together.
    """
    h = r / 2.0
    D = K if lam1 > 0.0 else 0
    J = K if lam2 > 0.0 else 0
    d = np.arange(D + 1.0)
    j = np.arange(J + 1.0)
    if x == 0.0:
        # x -> 0 limit of x^{r+k-1} U(r/2+j, r+k, x); valid since r > 2
        lu = sc.gammaln(r - 1.0 + d[:, None] + j) - sc.gammaln(h + j)
    else:
        lv = _log_diagonal(x, r, J if D == 0 else min(K, J + 1))
        lu = np.zeros((D + 1, J + 1))
        if D:
            # rho[d - 1, j] = x U(a, b) / U(a, b - 1) at a = r/2 + j,
            # b = r + j + d, for the columns j < K that step at all; scaled by
            # x so that it stays finite for subnormal x
            lx = math.log(x)
            nc = min(J + 1, K)
            rho = np.ones((D, J + 1))
            # 13.3.10 has all terms positive; logaddexp because its exponent
            # grows like -ln x, past exp's range for subnormal x
            rho[0, :nc] = np.exp(np.logaddexp(np.log(h + j[:nc]) + lv[1:nc + 1] - lx,
                                              lv[:nc]) - lv[:nc] + lx)
            base = r - 1.0 + x + j[:nc]
            for step in range(1, D):
                c = min(nc, K - step)
                # z U(a, b+1) = (b - 1 + z) U(a, b) - (b - a - 1) U(a, b-1)
                rho[step, :c] = (base[:c] + step) - (h + step - 1.0) * x / rho[step - 1, :c]
            lu[1:] = np.cumsum(np.log(rho), axis=0)
        lu += lv[:J + 1]
    # note the 2^{-k}: the correct Poisson-mixture weights are
    # (lam1/4)^{k-j} (lam2/4)^j, cross-checked against the equal-lambda
    # Bessel series, CF inversion and Monte Carlo
    llam1 = math.log(lam1) - _LN2 if lam1 > 0 else 0.0
    llam2 = math.log(lam2) - _LN2 if lam2 > 0 else 0.0
    cd = -sc.gammaln(d + 1.0) - sc.gammaln(h + d) + d * (llam1 - _LN2)
    cj = -sc.gammaln(j + 1.0) + j * (llam2 - _LN2) - r * _LN2 - (x + lam1 + lam2) / 2.0
    terms = np.exp(lu + cd[:, None] + cj)
    terms[d[:, None] + j > K] = 0.0  # the window is the cells d + j <= K
    return float(terms.sum())


def _saddlepoint_pdf(x: float, r: float, lam1: float, lam2: float) -> float:
    """Saddlepoint approximation to the density of T at x: only the size of
    the series window rests on it, never the value."""
    def cgf(t):
        a, b = 1.0 - 2.0 * t, 1.0 + 2.0 * t
        k0 = -0.5 * r * (math.log(a) + math.log(b)) + lam1 * t / a - lam2 * t / b
        k1 = r / a - r / b + lam1 / (a * a) - lam2 / (b * b)
        k2 = 2.0 * r * (1.0 / (a * a) + 1.0 / (b * b)) \
            + 4.0 * (lam1 / a ** 3 + lam2 / b ** 3)
        return k0, k1, k2

    # K'(t) = x on -1/2 < t < 1/2 (K' increases from -inf to inf): Newton
    # steps, bisection where a step leaves the bracket
    lo, hi, t = -0.5, 0.5, 0.0
    for _ in range(100):
        k0, k1, k2 = cgf(t)
        if k1 > x:
            hi = t
        else:
            lo = t
        step = t - (k1 - x) / k2
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(step - t) <= 1e-12:
            break
        t = step
    k0, k1, k2 = cgf(t)
    return math.exp(k0 - t * x) / math.sqrt(2.0 * math.pi * k2)


def _diff_pdf_nonneg(x: float, r: float, lam1: float, lam2: float,
                     ctrl: SeriesControl) -> float:
    """Double-series density at x >= 0 over the certified window k <= K
    (see ncx2diff_pdf and _window_bounds).

    K is sized up front for the saddlepoint approximation of p. Where the sum
    comes out smaller than that, the window is sized again for the sum, a
    lower bound on p since all terms are positive. A window of more than
    max_terms cells is cut to the largest that fits; if that one is not
    certified, NonConvergenceError names the max_terms that is.
    """
    if x == 0.0 and r <= 2.0:
        raise SingularPointError(x, "difference density singular/non-series at 0 for r <= 2")
    tol = ctrl.abs_tol
    bound = _window_bounds(x, r, lam1, lam2, tol * _TINY)

    def window(p):
        return int(np.argmax(bound <= tol * min(1.0, max(p, _TINY))))

    # the window k <= K has K + 1 cells with lam1 = 0 or lam2 = 0 (one
    # diagonal or one column) and (K + 1)(K + 2)/2 else; the largest K whose
    # cells fit the budget
    one_sided = lam1 == 0.0 or lam2 == 0.0
    m = ctrl.max_terms
    fits = m - 1 if one_sided else (math.isqrt(8 * m + 1) - 3) // 2
    K = min(window(_saddlepoint_pdf(x, r, lam1, lam2)), fits)
    total = _window_sum(x, r, lam1, lam2, K)
    need = window(total)
    if need > K:
        if need > fits:
            cells = need + 1 if one_sided else (need + 1) * (need + 2) // 2
            raise NonConvergenceError(
                f"difference-density series at x={x}: the certified window has "
                f"{cells} cells > max_terms={m}", max_terms=cells)
        total = _window_sum(x, r, lam1, lam2, need)
    return total


def ncx2diff_pdf(x: float, q: ChiSqDiffParams,
                 ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """PDF of T = V1 - V2 (independent noncentral chi-squares) at x.

    Negative abscissae are handled through the symmetry
    p(x; r, lam1, lam2) = p(-x; r, lam2, lam1).

    The double series is summed over the outer indices k <= K, a window fixed
    before summing (sized by a saddlepoint estimate of p, widened once if the
    sum comes out smaller). It is certified: the omitted cells add at most
    ctrl.abs_tol * min(1, max(p, 2.2e-308)), by a rigorous bound on every
    cell past K. A window of more than ctrl.max_terms cells raises
    NonConvergenceError; its max_terms attribute is a budget that suffices.
    Raises SingularPointError at x = 0 for r <= 2.
    """
    if x >= 0:
        return _diff_pdf_nonneg(x, q.r, q.lambda1, q.lambda2, ctrl)
    return _diff_pdf_nonneg(-x, q.r, q.lambda2, q.lambda1, ctrl)


def singularity_constant(lam1: float, lam2: float) -> float:
    """Coefficient c of the r = 1 logarithmic singularity p(x) ~ -c ln|x|."""
    return math.exp(-(lam1 + lam2) / 2.0) / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# characteristic functions


def char_fn_ncx2(t: float, r: float, lam: float) -> complex:
    """CF of chi'^2_r(lambda): (1-2it)^{-r/2} exp(i lam t / (1-2it))."""
    d = 1.0 - 2.0j * t
    return d ** (-r / 2.0) * cmath.exp(1j * lam * t / d)


def char_fn_product(t: float, p: ProductNormalParams) -> complex:
    """CF of the product Z = XY (the n field of p is ignored)."""
    if abs(p.rho) == 1.0:
        return char_fn_sum(t, ProductNormalParams(
            p.mu_x, p.mu_y, p.sigma_x, p.sigma_y, p.rho, 1))
    return _char_fn_sum_direct(t, p, 1)


def _char_fn_sum_direct(t: float, p: ProductNormalParams, n: int) -> complex:
    a = p.mu_x / p.sigma_x
    b = p.mu_y / p.sigma_y
    tau = p.s * t
    d = (1.0 - (1.0 + p.rho) * 1j * tau) * (1.0 + (1.0 - p.rho) * 1j * tau)
    num = -n * (a * a + b * b - 2.0 * p.rho * a * b) * tau * tau \
        + 2.0 * n * a * b * 1j * tau
    return d ** (-n / 2.0) * cmath.exp(num / (2.0 * d))


def char_fn_sum(t: float, p: ProductNormalParams | ChiSqDiffParams) -> complex:
    """CF of S_n, or of T, via the noncentral chi-square factorisation of the
    representation (valid for all rho, including the degenerate rho = +-1)."""
    rep = to_chisq_diff(p)
    out = cmath.exp(1j * rep.shift * t)
    if rep.scale_plus > 0:
        out *= char_fn_ncx2(rep.scale_plus * t, rep.r, rep.lambda_plus)
    if rep.scale_minus > 0:
        out *= char_fn_ncx2(-rep.scale_minus * t, rep.r, rep.lambda_minus)
    return out


def char_fn_sum_direct(t: float, p: ProductNormalParams) -> complex:
    """CF of S_n via the n-th power of the product CF; |rho| < 1 only."""
    if abs(p.rho) == 1.0:
        raise DomainError("direct product-CF formula requires |rho| < 1")
    return _char_fn_sum_direct(t, p, p.n)


# CF of T = V1 - V2: the representation at unit scales
char_fn_diff = char_fn_sum


# ---------------------------------------------------------------------------
# CF-inversion oracle


def cf_inversion_pdf(x: float, cf: Callable[[float], complex],
                     tol: float = 1e-8) -> float:
    """Density at x by Fourier inversion of a characteristic function.

    Uses QUADPACK's oscillatory Fourier quadrature on [0, inf) for x != 0
    (handles the conditionally convergent slowly decaying tails that arise for
    r <= 1) and plain adaptive quadrature for x = 0. Raises
    InversionAccuracyError when the quadrature error estimate exceeds tol.
    """
    re = lambda t: cf(t).real
    im = lambda t: cf(t).imag
    if x == 0.0:
        val, err = integrate.quad(re, 0.0, np.inf, limit=400)
        total, toterr = val, err
    else:
        ax = abs(x)
        c_val, c_err = integrate.quad(re, 0.0, np.inf, weight="cos", wvar=ax,
                                      limlst=200, limit=400)
        s_val, s_err = integrate.quad(im, 0.0, np.inf, weight="sin", wvar=ax,
                                      limlst=200, limit=400)
        total = c_val + math.copysign(1.0, x) * s_val
        toterr = c_err + s_err
    if toterr > tol * math.pi:
        raise InversionAccuracyError(
            f"CF inversion error estimate {toterr / math.pi:.3e} exceeds tol {tol:.1e} at x={x}")
    return total / math.pi

