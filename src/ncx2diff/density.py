"""Series densities for the noncentral chi-square difference law and the
noncentral chi-square itself, together with the characteristic functions and a
CF-inversion PDF oracle."""

from __future__ import annotations

import cmath
import math
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


def _diff_pdf_nonneg(x: float, r: float, lam1: float, lam2: float,
                     ctrl: SeriesControl) -> float:
    """Double-series density evaluated at x >= 0.

    Outer index k sums the terms j = 0..k, each a Poisson-type weight times
    x^{r+k-1} U(r/2 + j, r + k, x). Column j of that U table is seeded by
    log_tricomi_u at b = r + j, takes its value at b = r + j + 1 from that
    seed and the next column's seed by DLMF 13.3.10, then is stepped in b by
    the recurrence DLMF 13.3.8 in ratio form; U is the dominant solution in b,
    so the forward recurrence is stable. That is one U call per outer index
    (two at k = 1 when lam2 = 0, where the row has no diagonal).

    All terms are positive; the outer index is stopped once three consecutive
    outer contributions fall below abs_tol times the running sum (guards
    against odd/even oscillation of the Poisson-type weights).
    """
    at_zero = x == 0.0
    if at_zero and r <= 2.0:
        raise SingularPointError(x, "difference density singular/non-series at 0 for r <= 2")
    log_pref = -r * math.log(2.0) - (abs(x) + lam1 + lam2) / 2.0
    # log(lam) - log(2) rather than log(lam / 2): lam / 2 can underflow to 0
    # for subnormal lam even though lam > 0. A zero lam keeps only the terms
    # in which its power is 0, so its log is never used.
    llam1 = math.log(lam1) - _LN2 if lam1 > 0 else 0.0
    llam2 = math.log(lam2) - _LN2 if lam2 > 0 else 0.0
    h = r / 2.0
    # ln U(h + j, r + k, x) and x U(h + j, r + k, x) / U(h + j, r + k - 1, x)
    # by column j (the ratio is scaled by x so that it stays finite for
    # subnormal x); with lam1 = 0 only the last entry of lu is current
    lu = np.empty(0)
    rho = np.empty(0)
    total = 0.0
    small_streak = 0
    terms_used = 0
    k = 0
    while True:
        # lam1 = 0 keeps only j = k, lam2 = 0 only j = 0
        first = k if lam1 == 0.0 else 0
        last = 0 if lam2 == 0.0 else k
        j = np.arange(first, last + 1)
        if at_zero:
            # x -> 0 limit of x^{r+k-1} U(r/2+j, r+k, x); valid since r > 2
            lu_row = sc.gammaln(r + k - 1.0) - sc.gammaln(h + j)
        else:
            lx = math.log(x)
            old = j[j <= k - 2]
            if old.size:
                # z U(a, b+1) = (b - 1 + z) U(a, b) - (b - a - 1) U(a, b-1)
                b = r + k - 1.0
                rho[old] = (b - 1.0 + x) - (b - h - old - 1.0) * x / rho[old]
                lu[old] += np.log(rho[old]) - lx
            has_diag = first <= k <= last
            if has_diag:
                diag = log_tricomi_u(h + k, r + k, x)
            if first <= k - 1 <= last:
                if has_diag:
                    # U(a, b) = a U(a+1, b) + U(a, b-1) (DLMF 13.3.10), all
                    # terms positive; logaddexp because the exponent grows
                    # like -ln x, past exp's range for subnormal x
                    step = float(np.logaddexp(
                        0.0, math.log(h + k - 1.0) + diag - lu[k - 1]))
                else:
                    step = log_tricomi_u(h + k - 1.0, r + k, x) - lu[k - 1]
                rho[k - 1] = math.exp(step + lx)
                lu[k - 1] += step
            if has_diag:
                lu = np.append(lu, diag)
                rho = np.append(rho, math.nan)
            lu_row = (r + k - 1.0) * lx + lu[first:last + 1]
        # note the 2^{-k}: the correct Poisson-mixture weights are
        # (lam1/4)^{k-j} (lam2/4)^j, cross-checked against the equal-lambda
        # Bessel series, CF inversion and Monte Carlo
        lcoef = -sc.gammaln(j + 1.0) - sc.gammaln(k - j + 1.0) - sc.gammaln(h + k - j) \
            - k * _LN2 + (k - j) * llam1 + j * llam2
        outer = float(np.exp(log_pref + lcoef + lu_row).sum())
        terms_used += j.size
        total += outer
        if terms_used > ctrl.max_terms:
            raise NonConvergenceError(
                f"difference-density series: {ctrl.max_terms} terms exhausted")
        if outer <= ctrl.abs_tol * max(total, ctrl.abs_tol):
            small_streak += 1
            if small_streak >= 3:
                return total
        else:
            small_streak = 0
        k += 1


def ncx2diff_pdf(x: float, q: ChiSqDiffParams,
                 ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """PDF of T = V1 - V2 (independent noncentral chi-squares) at x.

    Negative abscissae are handled through the symmetry
    p(x; r, lam1, lam2) = p(-x; r, lam2, lam1).
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
        return _char_fn_sum_repr(t, ProductNormalParams(
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


def _char_fn_sum_repr(t: float, p: ProductNormalParams) -> complex:
    rep = to_chisq_diff(p)
    out = cmath.exp(1j * rep.shift * t)
    if rep.scale_plus > 0:
        out *= char_fn_ncx2(rep.scale_plus * t, rep.r, rep.lambda_plus)
    if rep.scale_minus > 0:
        out *= char_fn_ncx2(-rep.scale_minus * t, rep.r, rep.lambda_minus)
    return out


def char_fn_sum(t: float, p: ProductNormalParams) -> complex:
    """CF of S_n via the noncentral chi-square factorisation (valid for all rho,
    including the degenerate rho = +-1)."""
    return _char_fn_sum_repr(t, p)


def char_fn_sum_direct(t: float, p: ProductNormalParams) -> complex:
    """CF of S_n via the n-th power of the product CF; |rho| < 1 only."""
    if abs(p.rho) == 1.0:
        raise DomainError("direct product-CF formula requires |rho| < 1")
    return _char_fn_sum_direct(t, p, p.n)


def char_fn_diff(t: float, q: ChiSqDiffParams) -> complex:
    """CF of T = V1 - V2."""
    return char_fn_ncx2(t, q.r, q.lambda1) * char_fn_ncx2(-t, q.r, q.lambda2)


# ---------------------------------------------------------------------------
# CF-inversion oracle


def cf_inversion_pdf(x: float, cf: Callable[[float], complex],
                     ctrl: SeriesControl = DEFAULT_CONTROL,
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

