"""Moments and cumulants of the noncentral chi-square difference and of sums of
products of correlated normals.

Every function reads only the chi-square representation c1 V1 - c2 V2 + shift
(params.to_chisq_diff), so each serves S_n and, at c1 = c2 = 1 with no shift,
the difference T = V1 - V2; the diff_* names are the same functions. Raw
moments are alternating binomial sums of noncentral chi-square moments, summed
exactly in scaled integers, with one correctly rounded division. Cumulants are
available in closed form and are used for the central moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as sc

from .errors import DomainError, check_integer
from .params import (ChiSqDiffParams, ChiSqDiffRepr, ProductNormalParams,
                     to_chisq_diff)
from .specfun import log_kummer_m

__all__ = [
    "MomentSet",
    "ncx2_moment",
    "ncx2_cumulant",
    "diff_moment",
    "diff_cumulant",
    "diff_moment_set",
    "sum_moment",
    "sum_cumulant",
    "sum_moment_set",
    "raw_from_cumulants",
]


@dataclass(frozen=True)
class MomentSet:
    """Raw moments, central moments and cumulants of orders 1..kmax, plus the
    standardized shape summaries."""

    raw: tuple
    central: tuple
    cumulants: tuple
    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float

    def to_dict(self) -> dict:
        return {
            "raw": list(self.raw),
            "central": list(self.central),
            "cumulants": list(self.cumulants),
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
        }


def log_ncx2_moment(k: int, r: float, lam: float) -> float:
    """ln E[V^k] for V ~ chi'^2_r(lambda); stable for large order/noncentrality.

    E[V^k] = 2^k Gamma(r/2+k)/Gamma(r/2) M(-k, r/2, -lambda/2), rewritten via
    the Kummer transformation so every series term is positive.
    """
    k = check_integer(k, 0, "moment order")
    if not 0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    if not 0 <= lam < math.inf:
        raise DomainError(f"lambda must be nonnegative and finite, got {lam}")
    if k == 0:
        return 0.0
    out = k * math.log(2.0) + sc.gammaln(r / 2.0 + k) - sc.gammaln(r / 2.0)
    if lam > 0:
        out += -lam / 2.0 + log_kummer_m(r / 2.0 + k, r / 2.0, lam / 2.0)
    return float(out)


def ncx2_moment(k: int, r: float, lam: float) -> float:
    """Raw moment E[V^k] for V ~ chi'^2_r(lambda)."""
    return math.exp(log_ncx2_moment(k, r, lam))


def ncx2_cumulant(k: int, r: float, lam: float) -> float:
    """kappa_k = 2^{k-1} (k-1)! (r + k*lambda) for V ~ chi'^2_r(lambda)."""
    k = check_integer(k, 0, "moment order")
    if k == 0:
        return 0.0
    return 2.0 ** (k - 1) * math.factorial(k - 1) * (r + k * lam)


def _dyadic(x: float) -> tuple:
    """x = n / 2**e exactly, as the pair (n, e) with e >= 0."""
    n, d = x.as_integer_ratio()
    return n, d.bit_length() - 1


def _scaled_ncx2_moments(kmax: int, c: tuple, r: tuple, lam: tuple,
                         e: int) -> list:
    """N_0, ..., N_kmax with E[(c V)^j] = N_j / 2^(e j) exactly, for
    V ~ chi'^2_r(lambda), c, r and lam given as dyadic pairs (n, e):
    E[(c V)^j] = sum_i C(j,i) (c lam)^i prod_{m=i}^{j-1} (c r + 2 c m), every
    term positive and a product of j factors that are integers over 2^e.
    """
    u = c[0] * lam[0] << e - c[1] - lam[1]
    v = c[0] * r[0] << e - c[1] - r[1]
    w = c[0] << e - c[1] + 1
    out = []
    for j in range(kmax + 1):
        total, rising = 0, 1
        for i in range(j, -1, -1):  # rising = prod_{m=i}^{j-1} (v + m w)
            total += math.comb(j, i) * u ** i * rising
            rising *= v + (i - 1) * w
        out.append(total)
    return out


def _diff_moments(kmax: int, q: ChiSqDiffRepr) -> list:
    """E[X^1], ..., E[X^kmax] for X = c1 V1 - c2 V2 + shift, the
    representation q, from one pair of exact ncx2 moment lists.

    E[(c1 V1 - c2 V2)^k] = sum_{j=0}^{k} C(k,j) (-1)^{k-j} E[(c1 V1)^j]
    E[(c2 V2)^{k-j}] cancels badly when the two sides nearly balance (odd
    orders vanish for a law symmetric about 0), so it is summed exactly, in
    scaled integers, with one correctly rounded division. The scales, r,
    the noncentralities and the shift are binary floats, so every quantity of
    order k, the binomial shift included, is an integer over 2^(e k), e the
    largest binary exponent of c lambda, c r and the shift; Fraction
    arithmetic would round the same rational to the same float.
    """
    r = _dyadic(q.r)
    sides = [(_dyadic(c), _dyadic(lam)) for c, lam in
             ((q.scale_plus, q.lambda_plus), (q.scale_minus, q.lambda_minus))]
    d = _dyadic(q.shift)
    e = max(d[1], *(c[1] + max(lam[1], r[1]) for c, lam in sides))
    m1, m2 = (_scaled_ncx2_moments(kmax, c, r, lam, e) for c, lam in sides)
    exact = [sum(math.comb(k, j) * (-1) ** (k - j) * m1[j] * m2[k - j]
                 for j in range(k + 1))
             for k in range(kmax + 1)]
    if d[0]:
        s = d[0] << e - d[1]
        exact = [sum(math.comb(k, i) * s ** (k - i) * exact[i]
                     for i in range(k + 1))
                 for k in range(kmax + 1)]
    out = []
    for k in range(1, kmax + 1):
        try:
            out.append(exact[k] / (1 << e * k))
        except OverflowError:
            out.append(math.inf if exact[k] > 0 else -math.inf)
    return out


def raw_from_cumulants(cums) -> list:
    """Raw moments mu'_1..mu'_n from cumulants kappa_1..kappa_n via
    mu'_n = sum_{i=0}^{n-1} C(n-1, i) kappa_{n-i} mu'_i (mu'_0 = 1). With
    kappa_1 = 0 these are the central moments."""
    mu = [1.0]
    for n in range(1, len(cums) + 1):
        mu.append(math.fsum(math.comb(n - 1, i) * cums[n - i - 1] * mu[i]
                            for i in range(n)))
    return mu[1:]


def sum_moment(k: int, params: ProductNormalParams | ChiSqDiffParams) -> float:
    """Raw moment E[S_n^k], or E[T^k], through the difference-of-chi-squares
    representation c1*V1 - c2*V2 + shift (c1 = c2 = 1 and no shift for T),
    summed exactly (see _diff_moments).
    """
    k = check_integer(k, 0, "moment order")
    if k == 0:
        return 1.0
    return _diff_moments(k, to_chisq_diff(params))[-1]


def sum_cumulant(k: int, params: ProductNormalParams | ChiSqDiffParams) -> float:
    """kappa_k(S_n), or kappa_k(T), via the representation:
    kappa_k(c1 V1 - c2 V2 + shift) = c1^k kappa_k(V1) + (-c2)^k kappa_k(V2),
    plus shift at k = 1.

    For S_n with |rho| < 1 this equals
    (s^k/2)(k-1)! [(1+rho)^k (n + k*lam+) + (-1)^k (1-rho)^k (n + k*lam-)];
    for T it is 2^{k-1}(k-1)! [(r + k*lambda1) + (-1)^k (r + k*lambda2)].
    """
    k = check_integer(k, 0, "moment order")
    if k == 0:
        return 0.0
    q = to_chisq_diff(params)
    out = (q.scale_plus ** k * ncx2_cumulant(k, q.r, q.lambda_plus)
           + (-q.scale_minus) ** k * ncx2_cumulant(k, q.r, q.lambda_minus))
    if k == 1:
        out += q.shift
    return out


def sum_moment_set(params: ProductNormalParams | ChiSqDiffParams,
                   kmax: int = 4) -> MomentSet:
    """Moments/cumulants of S_n, or of T, up to order kmax (>= 4)."""
    kmax = check_integer(kmax, 0, "moment order")
    if kmax < 4:
        raise DomainError("kmax must be at least 4 for the shape summaries")
    raw = _diff_moments(kmax, to_chisq_diff(params))
    cums = [sum_cumulant(k, params) for k in range(1, kmax + 1)]
    var = cums[1]
    return MomentSet(
        raw=tuple(raw),
        central=tuple(raw_from_cumulants([0.0, *cums[1:]])),
        cumulants=tuple(cums),
        mean=cums[0],
        variance=var,
        skewness=cums[2] / var ** 1.5,
        excess_kurtosis=cums[3] / var ** 2,
    )


# T = V1 - V2 is the representation at unit scales: one implementation each
diff_moment = sum_moment
diff_cumulant = sum_cumulant
diff_moment_set = sum_moment_set
