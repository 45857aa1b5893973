"""Series densities of S_n and of the noncentral chi-square difference law,
both read through the representation S_n = c+ V1 - c- V2 + shift, and of the
noncentral chi-square itself; the characteristic functions; and a CF-inversion
PDF, kept as an independent oracle that the tests and the self-test compare
the series against."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as sc

from .errors import (
    DomainError,
    InversionAccuracyError,
    NonConvergenceError,
    SingularPointError,
)
from .params import ChiSqDiffParams, ProductNormalParams, to_chisq_diff
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
    if not 0 <= x < math.inf:
        raise DomainError(f"ncx2_pdf requires finite x >= 0, got {x}")
    if not (0 < r < math.inf and 0 <= lam < math.inf):
        raise DomainError("require finite r > 0 and lambda >= 0")
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
        + log_bessel_i(nu, math.sqrt(lam) * math.sqrt(x))  # lam x can underflow
    return math.exp(logp)


# ---------------------------------------------------------------------------
# difference-density series


class _Scales(NamedTuple):
    """The scales of c1 V1 - c2 V2 at z >= 0, V1 the side that z lies on, as
    the series reads them.

    V1 ~ chi'^2_r(lam1) is a Poisson(lam1/2) mixture of 2 G_{r/2+j1}, G a
    unit gamma variable, and likewise V2. With a = 2 c1 and b = 2 c2, cell
    (j1, j2) is the density at z of a G_{r/2+j1} - b G_{r/2+j2},
    e^{-z/a} y^{r+j1+j2-1} U(r/2+j2, r+j1+j2, y) (b/(a+b))^{r/2+j1}
    (a/(a+b))^{r/2+j2} (a+b) / (ab Gamma(r/2+j1)) at y = z (a+b)/(ab) = z / harm.
    T is c1 = c2 = 1: y = z, and both ratios are 1/2.
    """

    c1: float
    c2: float
    lw1: float  # ln(b/(a+b)), the weight of each index j1
    lw2: float  # ln(a/(a+b)), of each j2

    @property
    def harm(self) -> float:
        """ab/(a+b) = 2 c1 c2 / (c1 + c2): 1 for T."""
        return 2.0 * self.c1 * self.c2 / (self.c1 + self.c2)


def _window_bounds(z: float, r: float, lam1: float, lam2: float, cs: _Scales,
                   floor: float) -> tuple:
    """The Poisson windows of j1 and j2 at mass `floor`: (lo1, row, lo2, w2,
    outside), row = p1 S over the first and w2 = p2 over the second.

    Cell (j1, j2) is p1(j1) p2(j2), Poisson(lam1/2) and Poisson(lam2/2)
    weights, times the density at z of a G_{r/2+j1} - b G_{r/2+j2} (see
    _Scales). That is at most S(j1) = sup over u >= z of the a G_{r/2+j1}
    density, (2/a) sup over v >= 2z/a of the chi^2_{r+2 j1} density; for
    j1 = 0 and r <= 2, where that density falls, also at most its integral
    against the b G_{r/2+j2} density, which falls with j2, so is at most its
    j2 = 1 value Gamma(r) (ab/(a+b))^r / (a^{r/2} b^{r/2+1} Gamma(r/2)
    Gamma(r/2+1)) once j2 >= 1. Cell (0, 0), which diverges at z = 0 for
    r <= 1, is always summed; every other cell has a gamma shape of at least
    1 on one side, so max(1/a, 1/b) bounds it, and those outside both windows
    (masses o1, o2 left) add at most `outside` = o1 max(1/a, 1/b)
    + o2 sum(row) <= floor.
    """
    lo1, w1, o1 = _poisson_window(lam1 / 2.0, floor, math.inf)
    lo2, w2, o2 = _poisson_window(lam2 / 2.0, floor, math.inf)
    nu = r + 2.0 * np.arange(lo1, lo1 + w1.size)
    y = np.maximum(z / cs.c1, nu - 2.0)  # where chi^2_nu peaks on [2z/a, inf)
    sup = np.exp(sc.xlogy(nu / 2.0 - 1.0, y) - y / 2.0 - nu / 2.0 * _LN2
                 - sc.gammaln(nu / 2.0)) / cs.c1
    if r <= 2.0 and lo1 == 0:
        # the T constant Gamma(r) / (2^{r+1} Gamma(r/2) Gamma(r/2+1)) times
        # (4ab/(a+b)^2)^{r/2} (2/b)
        sup[0] = min(sup[0], math.exp(sc.gammaln(r) - (r + 1.0) * _LN2
                                      - sc.gammaln(r / 2.0) - sc.gammaln(r / 2.0 + 1.0))
                     * (2.0 * cs.harm / (cs.c1 + cs.c2)) ** (r / 2.0) / cs.c2)
    row = w1 * sup
    return lo1, row, lo2, w2, 0.5 / min(cs.c1, cs.c2) * o1 + o2 * float(row.sum())


def _trim(lo: int, w: np.ndarray, cut: float) -> tuple[int, int, float]:
    """The shortest sub-window of lo..lo + len(w) - 1 that keeps the largest
    weight and leaves at most `cut` of w at each end, and the mass it leaves."""
    m = int(np.argmax(w))
    i = min(int(np.searchsorted(np.cumsum(w), cut, side="right")), m)
    k = min(int(np.searchsorted(np.cumsum(w[::-1]), cut, side="right")), w.size - 1 - m)
    return lo + i, lo + w.size - 1 - k, float(w[:i].sum() + w[w.size - k:].sum())


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


def _window_sum(z: float, r: float, lam1: float, lam2: float, cs: _Scales,
                lo1: int, hi1: int, lo2: int, hi2: int) -> float:
    """The double series over the cells (j1, j2) of the rectangle
    lo1..hi1 x lo2..hi2, and cell (0, 0), at z >= 0.

    Cell (j1, j2) = (d, j) is a weight times y^{r+d+j-1} U(r/2 + j, r + d + j, y),
    y = z / harm (see _Scales), where the weight (lam1/2)^d (lam2/2)^j
    (b/(a+b))^d (a/(a+b))^j / (d! j! Gamma(r/2 + d)) splits into a factor of
    d and a factor of j. Column j starts from the diagonal V_j at d = 0,
    takes its value at b = r + j + 1 from V_j and V_{j+1} by DLMF 13.3.10,
    U(a, b) = a U(a+1, b) + U(a, b-1), and then steps down by DLMF 13.3.8 in
    ratio form; U is the dominant solution in b, so that forward recurrence
    is stable. All columns take their d-th step together; the steps below lo1
    take no U call and add nothing to the sum.
    """
    h = r / 2.0
    y = z / cs.harm
    d = np.arange(lo1, hi1 + 1.0)
    j = np.arange(lo2, hi2 + 1.0)
    if y == 0.0:
        # y -> 0 limit of y^{b-1} U(r/2+j, b, y), b = r+d+j; valid since r > 1
        lu = sc.gammaln(r - 1.0 + d[:, None] + j) - sc.gammaln(h + j)
    else:
        lv = _log_diagonal(y, r, hi2 + (hi1 > 0))
        # rho[d] = y U(a, b) / U(a, b - 1) at a = r/2 + j, b = r + j + d, and
        # 1 at d = 0; scaled by y so that it stays finite for subnormal y
        rho = np.ones((hi1 + 1, j.size))
        if hi1:
            ly = math.log(y)
            # 13.3.10 has all terms positive; logaddexp because its exponent
            # grows like -ln y, past exp's range for subnormal y
            rho[1] = np.exp(np.logaddexp(np.log(h + j) + lv[lo2 + 1:hi2 + 2] - ly,
                                         lv[lo2:hi2 + 1]) - lv[lo2:hi2 + 1] + ly)
            base = r - 1.0 + y + j
            for step in range(1, hi1):
                # y U(a, b+1) = (b - 1 + y) U(a, b) - (b - a - 1) U(a, b-1)
                rho[step + 1] = (base + step) - (h + step - 1.0) * y / rho[step]
        lu = np.cumsum(np.log(rho), axis=0)[lo1:] + lv[lo2:hi2 + 1]
    lu00 = lv[0] if y else sc.gammaln(r - 1.0) - sc.gammaln(h)
    # the weights are checked against Bessel-K, CF inversion, Monte Carlo and
    # the scaled convolution
    llam1 = math.log(lam1) - _LN2 if lam1 > 0 else 0.0
    llam2 = math.log(lam2) - _LN2 if lam2 > 0 else 0.0
    # (b/(a+b))^{r/2} (a/(a+b))^{r/2} (a+b)/(ab), and e^{-z/a - (lam1+lam2)/2}
    lc = h * (cs.lw1 + cs.lw2) - math.log(cs.harm)
    decay = (z / cs.c1 + lam1 + lam2) / 2.0
    cd = -sc.gammaln(d + 1.0) - sc.gammaln(h + d) + d * (llam1 + cs.lw1)
    cj = -sc.gammaln(j + 1.0) + j * (llam2 + cs.lw2) + lc - decay
    total = float(np.exp(lu + cd[:, None] + cj).sum())
    if lo1 or lo2:  # cell (0, 0)
        total += math.exp(lu00 - sc.gammaln(h) + lc - decay)
    return total


def _saddlepoint_pdf(z: float, r: float, lam1: float, lam2: float,
                     cs: _Scales) -> float:
    """Saddlepoint approximation to the density of c1 V1 - c2 V2 at z: only
    the size of the series window rests on it, never the value."""
    c1, c2 = cs.c1, cs.c2

    def cgf(t):
        a, b = 1.0 - 2.0 * c1 * t, 1.0 + 2.0 * c2 * t
        k0 = -0.5 * r * (math.log(a) + math.log(b)) + lam1 * c1 * t / a \
            - lam2 * c2 * t / b
        k1 = c1 * r / a - c2 * r / b + c1 * lam1 / (a * a) - c2 * lam2 / (b * b)
        k2 = 2.0 * r * (c1 * c1 / (a * a) + c2 * c2 / (b * b)) \
            + 4.0 * (lam1 * c1 * c1 / a ** 3 + lam2 * c2 * c2 / b ** 3)
        return k0, k1, k2

    # K'(t) = z on -1/(2 c2) < t < 1/(2 c1) (K' increases from -inf to inf):
    # Newton steps, bisection where a step leaves the bracket
    lo, hi, t = -0.5 / c2, 0.5 / c1, 0.0
    for _ in range(100):
        k0, k1, k2 = cgf(t)
        if k1 > z:
            hi = t
        else:
            lo = t
        step = t - (k1 - z) / k2
        step = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(step - t) <= 1e-12:
            break
        t = step
    k0, k1, k2 = cgf(t)
    return math.exp(k0 - t * z) / math.sqrt(2.0 * math.pi * k2)


def _diff_pdf_nonneg(z: float, r: float, lam1: float, lam2: float, cs: _Scales,
                     ctrl: SeriesControl) -> float:
    """Double-series density of c1 V1 - c2 V2 at z >= 0 over a certified
    rectangle (see ncx2diff_pdf and _window_bounds). The rectangle leaves at
    most a quarter of the spare tolerance at each end of row, and of w2 times
    sum(row). A budget error names a max_terms sized for the sum over the
    largest sub-rectangle that fits, a lower bound on p, so that it suffices.
    """
    if z / cs.harm == 0.0 and r <= 1.0:  # y = 0, where cell (0, 0) diverges
        raise SingularPointError(z, "difference density diverges at 0 for r <= 1")
    tol = ctrl.abs_tol
    lo1, row, lo2, w2, outside = _window_bounds(z, r, lam1, lam2, cs, tol * _TINY)
    rows = max(float(row.sum()), _TINY)  # kept positive: the j2 cut divides by it

    def target(p):
        return tol * min(1.0, max(p, _TINY))

    def window(p):
        """The rectangle certified for p, its omitted bound and its cells."""
        spare = target(p) - outside
        a, b, left1 = _trim(lo1, row, spare / 4.0)
        c, e, left2 = _trim(lo2, w2, spare / (4.0 * rows))
        return (a, b, c, e), outside + left1 + left2 * rows, (b - a + 1) * (e - c + 1)

    def total(win):
        return _window_sum(z, r, lam1, lam2, cs, *win)

    win, bound, cells = window(_saddlepoint_pdf(z, r, lam1, lam2, cs))
    if cells <= ctrl.max_terms:
        p = total(win)
        if bound <= target(p):
            return p
        win, _, cells = window(p)
        if cells <= ctrl.max_terms:
            return total(win)
    else:  # both sides shrunk by one factor about their middles
        a, b, c, e = win
        f = math.sqrt(ctrl.max_terms / cells)
        k1, k2 = max(1, int((b - a + 1) * f)), max(1, int((e - c + 1) * f))
        a, c = (a + b + 1 - k1) // 2, (c + e + 1 - k2) // 2
        lower = total((a, a + k1 - 1, c, c + k2 - 1))
        if bound > target(lower):
            win, _, cells = window(lower)
    raise NonConvergenceError(
        f"difference-density series at x={z}: the certified rectangle has "
        f"{cells} cells > max_terms={ctrl.max_terms}", max_terms=cells)


def ncx2diff_pdf(x: float, p: ProductNormalParams | ChiSqDiffParams,
                 ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """PDF of S_n, or of T = V1 - V2, at x, read through the representation
    c+ V1 - c- V2 + shift (to_chisq_diff); T is c+ = c- = 1 with no shift.

    Below the shift the two sides trade places, so the series runs at
    z = |x - shift| >= 0. It is the double Poisson mixture of _Scales,
    summed over a rectangle of two Poisson windows (of j1 and j2), fixed
    before summing: sized by a saddlepoint estimate of p, widened once if the
    sum comes out smaller. It is certified: the omitted cells add at most
    ctrl.abs_tol * min(1, max(p, 2.2e-308)). A rectangle of more than
    ctrl.max_terms cells raises NonConvergenceError; its max_terms attribute
    is a budget that suffices. Raises SingularPointError at x = shift for
    r <= 1 (the density is finite there for r > 1).

    At rho = +-1 one scale is 0 and the law is c chi'^2_n(lambda) + shift,
    one-sided: its density is ncx2_pdf(+-(x - shift)/c)/c, and 0 off its
    support.
    """
    if not math.isfinite(x):
        raise DomainError(f"ncx2diff_pdf requires finite x, got {x}")
    q = to_chisq_diff(p)
    z = x - q.shift
    if q.scale_plus == 0.0 or q.scale_minus == 0.0:
        c, lam, u = ((q.scale_plus, q.lambda_plus, z) if q.scale_plus
                     else (q.scale_minus, q.lambda_minus, -z))
        return ncx2_pdf(u / c, q.r, lam) / c if u >= 0 else 0.0
    # b/(a+b) = c-/(c+ + c-) is beta_arg, held exactly
    lw_plus, lw_minus = math.log(q.beta_arg), math.log1p(-q.beta_arg)
    if z >= 0:
        return _diff_pdf_nonneg(z, q.r, q.lambda_plus, q.lambda_minus, _Scales(
            q.scale_plus, q.scale_minus, lw_plus, lw_minus), ctrl)
    return _diff_pdf_nonneg(-z, q.r, q.lambda_minus, q.lambda_plus, _Scales(
        q.scale_minus, q.scale_plus, lw_minus, lw_plus), ctrl)


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
    return char_fn_sum(t, replace(p, n=1))


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
    """CF of S_n via the n-th power of the product CF; |rho| < 1 only. The
    test oracle for char_fn_sum, which reads the representation."""
    if abs(p.rho) == 1.0:
        raise DomainError("direct product-CF formula requires |rho| < 1")
    n = p.n
    a = p.mu_x / p.sigma_x
    b = p.mu_y / p.sigma_y
    tau = p.s * t
    d = (1.0 - (1.0 + p.rho) * 1j * tau) * (1.0 + (1.0 - p.rho) * 1j * tau)
    num = -n * (a * a + b * b - 2.0 * p.rho * a * b) * tau * tau \
        + 2.0 * n * a * b * 1j * tau
    return d ** (-n / 2.0) * cmath.exp(num / (2.0 * d))


# CF of T = V1 - V2: the representation at unit scales
char_fn_diff = char_fn_sum


# ---------------------------------------------------------------------------
# CF-inversion oracle: no evaluator calls it; the tests, the self-test and the
# scripts compare the series against it


def cf_inversion_pdf(x: float, cf: Callable[[float], complex],
                     tol: float = 1e-8) -> float:
    """Density at x by Fourier inversion of a characteristic function.

    Uses QUADPACK's oscillatory Fourier quadrature on [0, inf) for x != 0
    (handles the conditionally convergent slowly decaying tails that arise for
    r <= 1) and plain adaptive quadrature for x = 0. Raises
    InversionAccuracyError when the quadrature error estimate exceeds tol.
    Near x = 0 it can be wrong with a small error estimate (CHANGES.md), so it
    is a cross-check only, never a route of ncx2diff_pdf.
    """
    # imported here, not at module level: it adds about 0.3 s to the import
    # of the package, and only this oracle needs it
    from scipy import integrate

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

