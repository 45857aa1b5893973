"""Deterministic-seeded samplers for the product-normal sum via both routes
(definitional bivariate-normal products and the difference-of-noncentral-
chi-squares representation), plus the two-sample KS comparison used as the
universal Monte Carlo oracle.

Reproducibility contract: numpy Generator over the counter-based Philox
bit generator, keyed directly by the user seed; normals come from numpy's
ziggurat method, so bit-identical batches are pinned to the numpy version.
Identical (seed, route, params, count) yields bit-identical batches: the
definitional route consumes the stream strictly per draw (row-major), and the
mixture routes use a fixed internal chunk size that is part of the contract.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, check_integer
from .params import ChiSqDiffParams, ProductNormalParams, to_chisq_diff

__all__ = [
    "SampleBatch",
    "sample_product_definitional",
    "sample_ncx2",
    "sample_diff",
    "sample_sum_via_representation",
    "ks_two_sample",
    "export_batch",
]

_CHUNK = 1 << 20


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible sample: identical (seed, route, params, count) yields
    bit-identical values."""

    values: np.ndarray
    seed: int
    route: str  # "definitional" | "representation" | "ncx2"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values.setflags(write=False)

    def __len__(self):
        return len(self.values)


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _draws(count: int, seed: int, draw) -> np.ndarray:
    """count values from draw(rng, m), called in order on chunks of
    m <= _CHUNK values from the one stream keyed by seed."""
    count = check_integer(count, 1, "count")
    rng = _rng(seed)
    out = np.empty(count)
    for lo in range(0, count, _CHUNK):
        m = min(_CHUNK, count - lo)
        out[lo:lo + m] = draw(rng, m)
    return out


def sample_product_definitional(p: ProductNormalParams, count: int,
                                seed: int) -> SampleBatch:
    """Draw S_n = sum of n products Z = XY with (X, Y) bivariate normal:
    X = mu_x + sigma_x G1, Y = mu_y + sigma_y (rho G1 + sqrt(1-rho^2) G2)."""
    root = math.sqrt(1.0 - p.rho * p.rho)

    def draw(rng, m):
        g = rng.standard_normal((m, 2 * p.n))
        g1, g2 = g[:, :p.n], g[:, p.n:]
        x = p.mu_x + p.sigma_x * g1
        y = p.mu_y + p.sigma_y * (p.rho * g1 + root * g2)
        return (x * y).sum(axis=1)

    return SampleBatch(_draws(count, seed, draw), seed, "definitional", p.to_dict())


def _draw_ncx2(rng: np.random.Generator, r: float, lam: float,
               count: int) -> np.ndarray:
    """chi'^2_r(lambda) via the Poisson-gamma mixture (any real r > 0)."""
    if lam > 0:
        j = rng.poisson(lam / 2.0, size=count)
        return rng.gamma(shape=r / 2.0 + j, scale=2.0, size=count)
    return rng.gamma(shape=r / 2.0, scale=2.0, size=count)


def sample_ncx2(r: float, lam: float, count: int, seed: int) -> SampleBatch:
    """Draw from the noncentral chi-square chi'^2_r(lambda)."""
    if not 0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    if not 0 <= lam < math.inf:
        raise DomainError(f"lambda must be nonnegative and finite, got {lam}")
    out = _draws(count, seed, lambda rng, m: _draw_ncx2(rng, r, lam, m))
    return SampleBatch(out, seed, "ncx2", {"r": r, "lambda": lam})


def sample_sum_via_representation(p: ProductNormalParams | ChiSqDiffParams,
                                  count: int, seed: int) -> SampleBatch:
    """Draw S_n, or T, through the difference-of-noncentral-chi-squares
    representation scale_plus*V1 - scale_minus*V2 + shift (unit scales and no
    shift for T; shift nonzero only at rho = +-1 for S_n)."""
    q = to_chisq_diff(p)

    def draw(rng, m):
        acc = np.full(m, q.shift)
        if q.scale_plus > 0:
            acc += q.scale_plus * _draw_ncx2(rng, q.r, q.lambda_plus, m)
        if q.scale_minus > 0:
            acc -= q.scale_minus * _draw_ncx2(rng, q.r, q.lambda_minus, m)
        return acc

    return SampleBatch(_draws(count, seed, draw), seed, "representation", p.to_dict())


# T = V1 - V2 draws through the same representation: 0.0 + 1.0*V1 - 1.0*V2
# is exact, so the stream is V1 - V2 bit for bit
sample_diff = sample_sum_via_representation


def ks_two_sample(a: SampleBatch, b: SampleBatch) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic and asymptotic p-value."""
    if len(a) == 0 or len(b) == 0:
        raise DomainError("both batches must be nonempty")
    from scipy import stats  # only user of scipy.stats; kept off the import path

    res = stats.ks_2samp(a.values, b.values, method="asymp")
    return float(res.statistic), float(res.pvalue)


def export_batch(batch: SampleBatch, csv_path: str) -> None:
    """Write the values as single-column CSV plus a JSON sidecar with the
    provenance fields (seed, route, params, count)."""
    with open(csv_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["value"])
        for v in batch.values:
            w.writerow([format(v, ".17g")])
    sidecar = {
        "seed": batch.seed,
        "route": batch.route,
        "params": batch.params,
        "count": len(batch),
    }
    with open(csv_path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
