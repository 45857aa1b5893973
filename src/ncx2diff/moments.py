"""Moments and cumulants of the noncentral chi-square difference and of sums of
products of correlated normals.

Every function reads only the chi-square representation c1 V1 - c2 V2 + shift
(params.to_chisq_diff), so each serves S_n and, at c1 = c2 = 1 with no shift,
the difference T = V1 - V2; the diff_* names are the same functions. Raw
moments are alternating binomial sums of noncentral chi-square moments, summed
exactly in rational arithmetic and rounded once. Cumulants are available in
closed form and are used for the central moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from scipy import special as sc

from .errors import DomainError
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


def _check_order(k: int):
    if k < 0 or k != int(k):
        raise DomainError(f"moment order must be a nonnegative integer, got {k}")


def log_ncx2_moment(k: int, r: float, lam: float) -> float:
    """ln E[V^k] for V ~ chi'^2_r(lambda); stable for large order/noncentrality.

    E[V^k] = 2^k Gamma(r/2+k)/Gamma(r/2) M(-k, r/2, -lambda/2), rewritten via
    the Kummer transformation so every series term is positive.
    """
    _check_order(k)
    if r <= 0:
        raise DomainError(f"r must be positive, got {r}")
    if lam < 0:
        raise DomainError(f"lambda must be nonnegative, got {lam}")
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
    _check_order(k)
    if k == 0:
        return 0.0
    return 2.0 ** (k - 1) * math.factorial(k - 1) * (r + k * lam)


def _ncx2_moments_exact(kmax: int, r: float, lam: float) -> list:
    """E[V^0], ..., E[V^kmax] for V ~ chi'^2_r(lambda) as exact rationals of
    the binary floats r and lam:
    E[V^j] = 2^j sum_i C(j,i) (lam/2)^i (r/2 + i)_{j-i}, every term positive.
    """
    b, z = Fraction(r) / 2, Fraction(lam) / 2
    out = []
    for j in range(kmax + 1):
        total, rising = Fraction(0), Fraction(1)
        for i in range(j, -1, -1):  # rising = (b + i)_{j-i}
            total += math.comb(j, i) * z ** i * rising
            rising *= b + i - 1
        out.append(2 ** j * total)
    return out


def _diff_moments(kmax: int, q: ChiSqDiffRepr) -> list:
    """E[X^1], ..., E[X^kmax] for X = c1 V1 - c2 V2 + shift, the
    representation q, from one pair of exact ncx2 moment lists.

    E[(c1 V1 - c2 V2)^k] = sum_{j=0}^{k} C(k,j) (-1)^{k-j} E[(c1 V1)^j]
    E[(c2 V2)^{k-j}] cancels badly when the two sides nearly balance (odd
    orders vanish for a law symmetric about 0), so each sum, and the binomial
    shift after it, is taken in exact rational arithmetic of the binary floats
    and rounded once.
    """
    m1 = _ncx2_moments_exact(kmax, q.r, q.lambda_plus)
    m2 = _ncx2_moments_exact(kmax, q.r, q.lambda_minus)
    m1 = [Fraction(q.scale_plus) ** j * m for j, m in enumerate(m1)]
    m2 = [Fraction(q.scale_minus) ** j * m for j, m in enumerate(m2)]
    exact = [sum(math.comb(k, j) * (-1) ** (k - j) * m1[j] * m2[k - j]
                 for j in range(k + 1))
             for k in range(kmax + 1)]
    if q.shift != 0.0:
        d = Fraction(q.shift)
        exact = [sum(math.comb(k, i) * d ** (k - i) * exact[i]
                     for i in range(k + 1))
                 for k in range(kmax + 1)]
    out = []
    for e in exact[1:]:
        try:
            out.append(float(e))
        except OverflowError:
            out.append(math.inf if e > 0 else -math.inf)
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
    _check_order(k)
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
    _check_order(k)
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
