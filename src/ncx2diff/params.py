"""Parameterisations of the product-normal sum and the noncentral chi-square
difference law, and the exact bijection between them (including the degenerate
correlations rho = +-1, which contribute a deterministic shift)."""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from functools import cached_property

from .errors import DomainError, UnsupportedParameterError, check_integer

__all__ = [
    "ProductNormalParams",
    "ChiSqDiffParams",
    "ChiSqDiffRepr",
    "to_chisq_diff",
    "from_chisq_diff",
]


@dataclass(frozen=True)
class ProductNormalParams:
    """Parameters of S_n = sum of n independent copies of Z = XY with (X, Y)
    bivariate normal: means, standard deviations, correlation, copy count."""

    mu_x: float
    mu_y: float
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    rho: float = 0.0
    n: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.mu_x) and math.isfinite(self.mu_y)):
            raise DomainError(f"mu_x and mu_y must be finite, got {self.mu_x}, {self.mu_y}")
        if not (0 < self.sigma_x < math.inf and 0 < self.sigma_y < math.inf):
            raise DomainError("sigma_x and sigma_y must be positive and finite")
        if not -1.0 <= self.rho <= 1.0:
            raise DomainError(f"rho must lie in [-1, 1], got {self.rho}")
        object.__setattr__(self, "n", check_integer(self.n, 1, "n"))

    @property
    def s(self) -> float:
        return self.sigma_x * self.sigma_y

    @cached_property
    def chisq_diff(self) -> "ChiSqDiffRepr":
        """Exact difference-of-noncentral-chi-squares representation of S_n,
        built once per parameter set (the CF of S_n reads it at every t)."""
        s = self.s
        a = self.mu_x / self.sigma_x
        b = self.mu_y / self.sigma_y
        if self.rho == 1.0:
            lam_plus = self.n * (a + b) ** 2 / 4.0
            return ChiSqDiffRepr(
                scale_plus=s, scale_minus=0.0, r=float(self.n),
                lambda_plus=lam_plus, lambda_minus=0.0,
                shift=-(self.n * s / 4.0) * (a - b) ** 2,
            )
        if self.rho == -1.0:
            lam_minus = self.n * (a - b) ** 2 / 4.0
            return ChiSqDiffRepr(
                scale_plus=0.0, scale_minus=s, r=float(self.n),
                lambda_plus=0.0, lambda_minus=lam_minus,
                shift=(self.n * s / 4.0) * (a + b) ** 2,
            )
        lam_plus = self.n / (2.0 * (1.0 + self.rho)) * (a + b) ** 2
        lam_minus = self.n / (2.0 * (1.0 - self.rho)) * (a - b) ** 2
        return ChiSqDiffRepr(
            scale_plus=s * (1.0 + self.rho) / 2.0,
            scale_minus=s * (1.0 - self.rho) / 2.0,
            r=float(self.n),
            lambda_plus=lam_plus,
            lambda_minus=lam_minus,
            shift=0.0,
            beta_arg=(1.0 - self.rho) / 2.0,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProductNormalParams":
        return cls(
            mu_x=float(d["mu_x"]),
            mu_y=float(d["mu_y"]),
            sigma_x=float(d.get("sigma_x", 1.0)),
            sigma_y=float(d.get("sigma_y", 1.0)),
            rho=float(d.get("rho", 0.0)),
            n=int(d.get("n", 1)),
        )


@dataclass(frozen=True)
class ChiSqDiffParams:
    """Parameters of T = V1 - V2 with independent V1 ~ chi'^2_r(lambda1) and
    V2 ~ chi'^2_r(lambda2)."""

    r: float
    lambda1: float = 0.0
    lambda2: float = 0.0

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise DomainError(f"r must be positive and finite, got {self.r}")
        if not (0 <= self.lambda1 < math.inf and 0 <= self.lambda2 < math.inf):
            raise DomainError("noncentralities must be nonnegative and finite")

    @cached_property
    def chisq_diff(self) -> "ChiSqDiffRepr":
        """T in the representation that S_n uses: unit scales, no shift."""
        return ChiSqDiffRepr(1.0, 1.0, self.r, self.lambda1, self.lambda2)

    def swapped(self) -> "ChiSqDiffParams":
        return ChiSqDiffParams(self.r, self.lambda2, self.lambda1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ChiSqDiffParams":
        return cls(r=float(d["r"]),
                   lambda1=float(d.get("lambda1", 0.0)),
                   lambda2=float(d.get("lambda2", 0.0)))


@dataclass(frozen=True)
class ChiSqDiffRepr:
    """S_n =_d scale_plus*V1 - scale_minus*V2 + shift with V1 ~ chi'^2_r(lambda_plus),
    V2 ~ chi'^2_r(lambda_minus) independent. shift is nonzero only for rho = +-1.
    T = V1 - V2 is the case scale_plus = scale_minus = 1, shift = 0.

    beta_arg is scale_minus / (scale_plus + scale_minus), the argument of the
    incomplete-beta series for P(S_n <= 0), kept exact: (1 - rho)/2 for S_n,
    1/2 for T. The rounded scales can put their own ratio 2 ulps off it. When
    not given it is taken from the scales."""

    scale_plus: float
    scale_minus: float
    r: float
    lambda_plus: float
    lambda_minus: float
    shift: float = 0.0
    beta_arg: float | None = None

    def __post_init__(self):
        if self.beta_arg is None:
            object.__setattr__(self, "beta_arg", self.scale_minus
                               / (self.scale_plus + self.scale_minus))

    def to_dict(self) -> dict:
        return asdict(self)


def to_chisq_diff(p: ProductNormalParams | ChiSqDiffParams) -> ChiSqDiffRepr:
    """Exact difference-of-noncentral-chi-squares representation of S_n, or
    of T = V1 - V2 (unit scales, no shift). Every evaluator that accepts
    either parameter type reads only this."""
    return p.chisq_diff


def from_chisq_diff(q: ChiSqDiffParams) -> ProductNormalParams:
    """Product-normal parameters whose representation, scaled by 2, recovers
    T = V1 - V2.

    Requires integer degrees of freedom. Sign convention: mu_x + mu_y >= 0 and
    mu_x - mu_y >= 0 (any branch gives the same distribution of T, since it
    depends on the mu's only through lambda1 and lambda2).
    """
    if q.r != int(q.r):
        raise UnsupportedParameterError(
            f"exact inverse needs integer degrees of freedom, got r={q.r}")
    r = int(q.r)
    sm = math.sqrt(2.0 * q.lambda1 / r)  # mu_x + mu_y
    dm = math.sqrt(2.0 * q.lambda2 / r)  # mu_x - mu_y
    return ProductNormalParams(
        mu_x=(sm + dm) / 2.0, mu_y=(sm - dm) / 2.0,
        sigma_x=1.0, sigma_y=1.0, rho=0.0, n=r,
    )
