"""Exact negativity probabilities P(S_n <= 0) and P(T <= 0) via the
Poisson-weighted double series of regularized incomplete beta functions (the
CDF of the doubly noncentral F ratio), with certified truncation bounds. One
function serves both laws through their chi-square representation;
prob_nonpositive_diff is prob_nonpositive_sum.

Every beta factor lies in [0, 1], so the truncation error of the double series
is bounded by the Poisson mass it omits. Each index runs over the shortest
window that omits at most abs_tol/4 of its Poisson mass, abs_tol/8 at each
end, and the exact omitted mass of the two windows is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy import special as sc

from .errors import DomainError, check_integer
from .params import ChiSqDiffParams, ProductNormalParams, to_chisq_diff
from .specfun import DEFAULT_CONTROL, SeriesControl, _poisson_window

__all__ = [
    "NegativityResult",
    "prob_nonpositive_sum",
    "prob_nonpositive_central",
    "prob_nonpositive_diff",
    "table1",
    "TABLE1_MU_PAIRS",
    "TABLE1_RHOS",
    "TABLE1_PAPER_VALUES",
    "TABLE1_FLAGGED",
    "TABLE1_PRINTED_SLIPS",
    "table1_cell_ok",
]


@dataclass(frozen=True)
class NegativityResult:
    """A negativity probability with its truncation certificate: tail_bound
    is the exact Poisson mass that the windows omit, at most abs_tol/2, and
    bounds the error since every summed factor lies in [0, 1]."""

    probability: float
    terms_used: int
    tail_bound: float

    def to_dict(self) -> dict:
        return {
            "probability": self.probability,
            "terms_used": self.terms_used,
            "tail_bound": self.tail_bound,
        }


def _beta_double_series(x: float, half_r: float, lam1: float, lam2: float,
                        ctrl: SeriesControl) -> NegativityResult:
    """sum_{j,k} pois(j; lam1/2) pois(k; lam2/2) I_x(half_r + j, half_r + k)
    over two Poisson windows, each omitting at most abs_tol/4."""
    lo1, wj, o1 = _poisson_window(lam1 / 2.0, ctrl.abs_tol / 4.0, ctrl.max_terms)
    lo2, wk, o2 = _poisson_window(lam2 / 2.0, ctrl.abs_tol / 4.0, ctrl.max_terms)
    bk = half_r + lo2 + np.arange(wk.size)
    # one betainc call per row j keeps memory at O(K); fsum over every
    # rectangle is exact, whatever the order
    total = math.fsum(chain.from_iterable(
        (w * wk * sc.betainc(half_r + lo1 + j, bk, x)).tolist()
        for j, w in enumerate(wj)))
    return NegativityResult(
        probability=min(max(total, 0.0), 1.0),
        terms_used=wj.size * wk.size,
        tail_bound=1.0 - (1.0 - o1) * (1.0 - o2),
    )


def _ncx2_cdf_mixture(c: float, r: float, lam: float,
                      ctrl: SeriesControl) -> NegativityResult:
    """P(V <= c) for V ~ chi'^2_r(lambda) as a Poisson mixture of regularized
    incomplete gamma functions over one Poisson window."""
    if c < 0:
        return NegativityResult(0.0, 1, 0.0)
    lo, wj, omitted = _poisson_window(lam / 2.0, ctrl.abs_tol / 4.0, ctrl.max_terms)
    total = math.fsum((wj * sc.gammainc(r / 2.0 + lo + np.arange(wj.size), c / 2.0)).tolist())
    return NegativityResult(
        probability=min(max(total, 0.0), 1.0),
        terms_used=wj.size,
        tail_bound=omitted,
    )


def prob_nonpositive_sum(p: ProductNormalParams | ChiSqDiffParams,
                         ctrl: SeriesControl = DEFAULT_CONTROL) -> NegativityResult:
    """P(S_n <= 0), or P(T <= 0), from the representation
    c1 V1 - c2 V2 + shift.

    With both scales positive this is the Poisson-weighted double series of
    I_{c2/(c1+c2)}(r/2 + j, r/2 + k) over the two noncentrality mixtures: the
    beta argument is the representation's exact beta_arg, (1 - rho)/2 for S_n
    and 1/2 for T. With one scale zero
    (rho = +-1) the law is a shifted, possibly negated, scaled noncentral
    chi-square and the probability is its CDF/survival at the shift threshold.
    """
    q = to_chisq_diff(p)
    if q.scale_minus == 0.0:
        # S = c1 V1 + shift with shift <= 0: P(S <= 0) = P(V1 <= -shift/c1)
        return _ncx2_cdf_mixture(-q.shift / q.scale_plus, q.r, q.lambda_plus, ctrl)
    if q.scale_plus == 0.0:
        # S = -c2 V2 + shift with shift >= 0: P(S <= 0) = P(V2 >= shift/c2)
        res = _ncx2_cdf_mixture(q.shift / q.scale_minus, q.r, q.lambda_minus, ctrl)
        return NegativityResult(1.0 - res.probability, res.terms_used, res.tail_bound)
    return _beta_double_series(q.beta_arg, q.r / 2.0, q.lambda_plus,
                               q.lambda_minus, ctrl)


def prob_nonpositive_central(n: int, rho: float) -> float:
    """P(S_n <= 0) in the central case mu_x = mu_y = 0: the single term
    I_{(1-rho)/2}(n/2, n/2)."""
    n = check_integer(n, 1, "n")
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1), got {rho}")
    return float(sc.betainc(n / 2.0, n / 2.0, (1.0 - rho) / 2.0))


# P(T <= 0) is the same function: T is the representation at unit scales
prob_nonpositive_diff = prob_nonpositive_sum


TABLE1_MU_PAIRS = ((0.0, 0.0), (1.0, -1.0), (2.0, -1.0), (2.0, -2.0),
                   (1.0, 0.0), (1.0, 1.0), (2.0, 1.0), (2.0, 2.0))
TABLE1_RHOS = (-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75)

# Published 4-decimal reference grid, row order matching TABLE1_MU_PAIRS.
TABLE1_PAPER_VALUES = (
    (0.7499, 0.6667, 0.5804, 0.5000, 0.4196, 0.3333, 0.2301),
    (0.8636, 0.8077, 0.7660, 0.7330, 0.7075, 0.6902, 0.6831),
    (0.8580, 0.8451, 0.8340, 0.8258, 0.8209, 0.8189, 0.8186),
    (0.9715, 0.9626, 0.9579, 0.9555, 0.9547, 0.9545, 0.9545),
    (0.6403, 0.5961, 0.5483, 0.5000, 0.4517, 0.4039, 0.3597),
    (0.3169, 0.3098, 0.2925, 0.2670, 0.2339, 0.1923, 0.1364),
    (0.1814, 0.1811, 0.1791, 0.1742, 0.1660, 0.1549, 0.1420),
    (0.0455, 0.0455, 0.0453, 0.0445, 0.0421, 0.0374, 0.0285),
)

# Published entries inconsistent with the exact formulas: ((mu_x, mu_y), rho).
# The (0,0) central value at rho=-0.75 is exactly (2/pi) arcsin(sqrt(0.875))
# = 0.7699..., which the reflection identity against the printed 0.2301 at
# rho=+0.75 confirms; the printed 0.7499 is a typo.
TABLE1_FLAGGED = (((0.0, 0.0), -0.75),)

# Published entries off by a last-digit slip (5.1e-5..5.5e-5, so they do not
# round from the exact value), keyed ((mu_x, mu_y), rho) -> exact probability.
# The exact values come from a 40-digit quadrature of the conditional normal,
# P(XY <= 0) = int phi(x - mu_x) P(sign Y != sign x | X = x) dx
# (scripts/generate_oracle_values.py), a route independent of the beta series.
# The table contradicts itself at (1,1,0.25): the reflection identity pairs it
# with the printed 0.7660 at (1,-1,-0.25), and the two sum to 0.9999.
TABLE1_PRINTED_SLIPS = {
    ((1.0, -1.0), 0.5): 0.6902540962827944,
    ((1.0, 1.0), -0.5): 0.3097459037172056,
    ((1.0, 1.0), 0.25): 0.2339513670670726,
}


def table1(ctrl: SeriesControl = DEFAULT_CONTROL) -> list[dict]:
    """The 8x7 negativity-probability grid (n=1, unit variances) with the diff
    against the published 4-decimal values.

    Returns one dict per cell with keys mu_x, mu_y, rho, probability,
    paper_value, abs_diff, flagged; row-major in the published order.
    """
    rows = []
    for (mx, my), paper_row in zip(TABLE1_MU_PAIRS, TABLE1_PAPER_VALUES):
        for rho, paper in zip(TABLE1_RHOS, paper_row):
            p = ProductNormalParams(mu_x=mx, mu_y=my, rho=rho, n=1)
            prob = prob_nonpositive_sum(p, ctrl).probability
            rows.append({
                "mu_x": mx, "mu_y": my, "rho": rho,
                "probability": prob,
                "paper_value": paper,
                "abs_diff": abs(prob - paper),
                "flagged": ((mx, my), rho) in TABLE1_FLAGGED,
            })
    return rows


def table1_cell_ok(row: dict) -> bool:
    """Whether an unflagged table1() row reproduces the published cell.

    A clean cell must lie within 5e-5 of its printed 4-decimal value. A cell in
    TABLE1_PRINTED_SLIPS must lie within 1e-10 of its independent exact value,
    and its printed value within 6e-5 of that value (a last-digit slip rather
    than a different number). Flagged cells are judged by their callers.
    """
    exact = TABLE1_PRINTED_SLIPS.get(((row["mu_x"], row["mu_y"]), row["rho"]))
    if exact is None:
        return row["abs_diff"] <= 5e-5
    return (abs(row["probability"] - exact) <= 1e-10
            and abs(row["paper_value"] - exact) <= 6e-5)


def table1_summary(rows: list[dict]) -> dict:
    """Max-deviation summary of a table1 grid, separating the flagged cells."""
    clean = [r for r in rows if not r["flagged"]]
    flagged = [r for r in rows if r["flagged"]]
    return {
        "cells": len(rows),
        "max_abs_diff": max(r["abs_diff"] for r in clean),
        "flagged": [
            {"mu_x": r["mu_x"], "mu_y": r["mu_y"], "rho": r["rho"],
             "probability": r["probability"], "paper_value": r["paper_value"],
             "note": "published value inconsistent with the exact formula"}
            for r in flagged
        ],
    }
