"""Seeded input generators, one per workload.

Round k of a run with seed s draws its inputs from the generator keyed by
(s, workload, k), so the same seed gives the same inputs in the same order.
Every round holds the same operations on fresh parameters. Parameters are
stratified (one draw per stratum, strata shuffled, or strata balanced within
a round and rotated across rounds), so every round covers its ranges evenly
and the cost of a round varies little between rounds and seeds.

The inputs are plain tuples of floats and ints; the program receives only
these values.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("density_series", "negativity_moments", "stein_sampling")

# x + lambda1 + lambda2 stays within this limit: beyond it the density series
# can stop before the Poisson peak and return a wrong value silently (see
# CHANGES.md); inside it the series agrees with CF inversion.
DENSITY_X_PLUS_LAMBDA_MAX = 80.0
R_CLASSES = ("r_lt_1", "r_eq_1", "r_near_int", "r_ge_2")
# exact 0 (central or one-sided law), moderate, and large noncentrality.
# lambda stops at 16: beyond it the series leans on scipy's hyperu at b >= 30
# and x >= 5, where hyperu is off by up to 5e-6 in ln U, and on some seeds the
# density misses the check by 1e-10 to 1e-9 (see CHANGES.md)
LAMBDA_BINS = ((0.0, 0.0), (0.2, 3.0), (3.0, 8.0), (8.0, 16.0))
# The 16 (lambda1 bin, lambda2 bin) pairs in two halves of 8, each half listed
# from its cheapest pair to its costliest. Each half holds every bin twice on
# each side. Of all such splits, this one with the r-class rotation of
# density_round gave the 8 kinds of round the closest costs on 16-point grids
# (within 13% of each other, measured per stratum).
LAMBDA_PAIR_HALVES = (((0, 0), (0, 2), (3, 0), (1, 1), (2, 1), (1, 3), (2, 3), (3, 2)),
                      ((1, 0), (0, 1), (2, 0), (0, 3), (1, 2), (2, 2), (3, 1), (3, 3)))
# points per x-grid: the CLI's examples use 11 and 17 points, ROADMAP D3 a
# 101-point grid; at 16 points a set's own set-up is a fifth to a third of its time
X_PER_SET = 16
PRODUCT_SETS = 8
Z_PER_SET = 24
# z-grid points stay this far from 0: within about 3e-4 of it, CF inversion
# of the n = 2 law raises InversionAccuracyError on some parameters (see
# CHANGES.md); none did at 1e-3
Z_MIN_ABS = 1e-2

# (mu_x, mu_y, rho, n) that need more than max_terms = 10,000 Poisson terms
# today; attempted once per round and counted as failed operations
DEGENERATE_RHO_CASES = ((1.0, -1.0, 0.9999, 1), (3.0, -1.0, 0.9999, 1))
# fewest and most Poisson rectangles of a probability evaluation
PROB_TERMS = (13, 258519)
# swapped (lambda1, lambda2) pairs of P(T <= 0) per round
DIFF_PROB_PAIRS = 16
# (n, |rho|) of the twelve points beyond the Table 1 box, smallest size first:
# every n appears once in each half of the size ladder
WIDE_POINTS = ((1, 0.8), (16, 0.999), (2, 0.95), (8, 0.9), (4, 0.99), (12, 0.85),
               (1, 0.999), (16, 0.8), (2, 0.9), (8, 0.99), (4, 0.85), (12, 0.95))


def _rng(seed: int, workload: str, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), k])


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """n values in [0, 1), one in each interval [i/n, (i+1)/n), shuffled."""
    return (rng.permutation(n) + rng.random(n)) / n


def _draw_r(cls: str, u: float, rng: np.random.Generator) -> float:
    if cls == "r_lt_1":
        return 0.3 + 0.65 * u
    if cls == "r_eq_1":
        return 1.0
    if cls == "r_near_int":
        # within 0.1 of an integer but not on it: the trapezoid U route
        n = int(rng.integers(1, 7))
        return n + float(rng.choice((-1.0, 1.0))) * (0.005 + 0.09 * u)
    return 2.0 + 8.0 * u


def _grid(lo: float, hi: float, u: np.ndarray) -> list:
    return [lo + (hi - lo) * (i + float(ui)) / len(u) for i, ui in enumerate(u)]


def density_round(seed: int, k: int) -> dict:
    """8 (r, lambda1, lambda2) sets, each on a jittered 16-point x-grid within
    3 standard deviations of the mean; 8 product-normal sets (n in {1, 2},
    |rho| in [0.1, 0.5) or [0.5, 0.95)) on 24-point z-grids.

    Round k takes half k % 2 of the lambda-bin pairs and gives its i-th pair
    the r class (i + k // 2) % 4, so every round holds each r class twice and
    each lambda bin twice on each side, and every 8 rounds cover all 64
    (r class, lambda1 bin, lambda2 bin) strata once."""
    rng = _rng(seed, "density_series", k)
    diff = []
    ur = [_strata(rng, 2) for _ in R_CLASSES]
    for i, (b1, b2) in enumerate(LAMBDA_PAIR_HALVES[k % 2]):
        c = (i + k // 2) % len(R_CLASSES)
        r = _draw_r(R_CLASSES[c], float(ur[c][i // len(R_CLASSES)]), rng)
        (lo1, hi1), (lo2, hi2) = LAMBDA_BINS[b1], LAMBDA_BINS[b2]
        l1 = lo1 + (hi1 - lo1) * float(rng.random())
        l2 = lo2 + (hi2 - lo2) * float(rng.random())
        room = DENSITY_X_PLUS_LAMBDA_MAX - l1 - l2
        mean, sd = l1 - l2, 2.0 * math.sqrt(r + l1 + l2)
        xs = _grid(max(mean - 3.0 * sd, -room), min(mean + 3.0 * sd, room),
                   rng.random(X_PER_SET))
        diff.append(((r, l1, l2), xs))
    product = []
    for i, u in enumerate(_strata(rng, PRODUCT_SETS)):
        n, (rlo, rhi) = (1, 2)[i % 2], ((0.1, 0.5), (0.5, 0.95))[i // 2 % 2]
        rho = float(rng.choice((-1.0, 1.0))) * (rlo + (rhi - rlo) * float(u))
        mx, my = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        mean = n * (mx * my + rho)
        sd = math.sqrt(n * (mx * mx + my * my + 2.0 * rho * mx * my + 1.0 + rho * rho))
        zs = [z if abs(z) >= Z_MIN_ABS else math.copysign(Z_MIN_ABS, z)
              for z in _grid(mean - 3.0 * sd, mean + 3.0 * sd, rng.random(Z_PER_SET))]
        product.append(((mx, my, rho, n), zs))
    return {"diff": diff, "product": product}


def _mu_from_lambdas(lp: float, lm: float, rho: float, n: int,
                     rng: np.random.Generator) -> tuple:
    """(mu_x, mu_y) with unit variances whose representation has
    lambda_plus = lp and lambda_minus = lm."""
    s = float(rng.choice((-1.0, 1.0))) * math.sqrt(2.0 * (1.0 + rho) * lp / n)
    d = float(rng.choice((-1.0, 1.0))) * math.sqrt(2.0 * (1.0 - rho) * lm / n)
    return (s + d) / 2.0, (s - d) / 2.0


def _poisson_mean_for_cut(j: float) -> float:
    """Poisson mean whose cut at tail weight 2.5e-13 lies near j
    (the cut is about mu + 7 sqrt(mu))."""
    return ((-7.0 + math.sqrt(49.0 + 4.0 * j)) / 2.0) ** 2


def negativity_round(seed: int, k: int) -> dict:
    """Negativity probabilities, each with its reflection partner
    (mu_x, -mu_y, -rho); chi-square-difference probabilities in swapped pairs
    and one equal-lambda case; the two degenerate-rho cases; moment sets."""
    rng = _rng(seed, "negativity_moments", k)
    box = []  # the Table 1 region
    for ux, uy, ur in zip(*(_strata(rng, 4) for _ in range(3))):
        box.append((-2.0 + 4.0 * float(ux), -2.0 + 4.0 * float(uy),
                    -0.75 + 1.5 * float(ur), 1))
    # correlation up to 0.999 and n up to 16. The cost of a point is its
    # number of Poisson rectangles (J + 1)(K + 1), J and K the cuts of the two
    # noncentrality mixtures. Point i takes the i-th of twelve sizes
    # log-spaced over PROB_TERMS and the i-th (n, |rho|) of WIDE_POINTS; the
    # seed jitters the size by a twentieth of a step, |rho| by at most 0.002
    # and the split of the size between J and K around 1/2, and picks the
    # signs. The means are solved from the sizes. A fixed ladder keeps the
    # cost of a round the same in every round and seed: the costliest points
    # dominate a round, and the time per rectangle varies by a third between
    # points.
    lo, hi = (math.log(t) for t in PROB_TERMS)
    wide = []
    for i, (n, arho) in enumerate(WIDE_POINTS):
        rho = float(rng.choice((-1.0, 1.0))) * (arho - 0.002 * float(rng.random()))
        pos = (i + 0.5 + 0.1 * (float(rng.random()) - 0.5)) / len(WIDE_POINTS)
        size = math.exp(lo + (hi - lo) * pos)
        split = float(rng.uniform(0.45, 0.55))
        lp = 2.0 * _poisson_mean_for_cut(size ** split - 1.0)
        lm = 2.0 * _poisson_mean_for_cut(size ** (1.0 - split) - 1.0)
        wide.append((*_mu_from_lambdas(lp, lm, rho, n, rng), rho, n))
    sums = []
    for p in box + wide:
        sums += [p, (p[0], -p[1], -p[2], p[3])]
    diffs = []
    ul = _strata(rng, 2 * DIFF_PROB_PAIRS + 1)
    for i in range(DIFF_PROB_PAIRS):
        r = float(rng.uniform(0.5, 10.0))
        l1, l2 = 150.0 * float(ul[2 * i]) ** 2, 150.0 * float(ul[2 * i + 1]) ** 2
        diffs += [(r, l1, l2), (r, l2, l1)]
    lam = 150.0 * float(ul[-1]) ** 2
    equal = (float(rng.uniform(0.5, 10.0)), lam, lam)
    # orders 1..kmax with kmax near 20, 40 and 60 (T) and near 10, 12, 14 and
    # 16 (S_n);
    # the cost grows like kmax^3, so kmax varies by at most 2
    diff_sets = []
    for kmax in (20, 40, 60):
        r = float(rng.uniform(0.5, 10.0))
        l1 = float(rng.uniform(0.0, 40.0))
        # away from lambda1 = lambda2, where the law is symmetric about 0
        l2 = (l1 + float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.5, 10.5))) % 40.0
        diff_sets.append(((r, l1, l2), kmax - int(rng.integers(0, 3))))
    sum_sets = []
    for kmax in (10, 12, 14, 16):
        mx, my = (float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.2, 2.0))
                  for _ in range(2))
        rho = float(rng.choice((-1.0, 1.0))) * float(rng.uniform(0.2, 0.9))
        n = int(rng.integers(1, 9))
        sum_sets.append(((mx, my, rho, n), kmax - int(rng.integers(0, 3))))
    return {"sums": sums, "degenerate": list(DEGENERATE_RHO_CASES),
            "diffs": diffs, "equal": equal,
            "diff_sets": diff_sets, "sum_sets": sum_sets}


SAMPLER_DRAWS = 10 ** 6
# Monte Carlo draws per test function of the Stein report: at 10**6 a report
# takes 6-9 s, and a 20-second run would hold two or three rounds
REPORT_DRAWS = 10 ** 5


def stein_round(seed: int, k: int) -> dict:
    """Sampler parameters and seeds, and one (r, lambda1, lambda2) for the
    Stein report and the Stein quadrature. r stays in [2.2, 2.8] and the
    noncentralities small, where a quadrature takes 1.7-2.2 s; across wider
    ranges one call takes 0.4-8 s, which would swamp the run-to-run spread.
    Within the box a quadrature still costs from 0.95 to 2 s, rising with
    lambda1 and lambda2 and falling with r, so rounds 2j and 2j + 1 take
    mirrored points u and 1 - u of it: their costs then sit on either side of
    the box's middle, and the median round of a run is about the same for
    every seed."""
    rng = _rng(seed, "stein_sampling", k)
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, 4)]
    mx, my = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
    product = (mx, my, float(rng.uniform(-0.9, 0.9)), 2)
    diff = (float(rng.uniform(0.5, 6.0)), float(rng.uniform(0.0, 10.0)),
            float(rng.uniform(0.0, 10.0)))
    u = np.random.default_rng([seed, WORKLOADS.index("stein_sampling"), k // 2, 1]).random(3)
    if k % 2:
        u = 1.0 - u
    stein = (2.2 + 0.6 * float(u[0]), 1.0 + 2.0 * float(u[1]), 0.5 + float(u[2]))
    return {"product": product, "diff": diff, "stein": stein,
            "draws": SAMPLER_DRAWS, "report_draws": REPORT_DRAWS,
            "seeds": {"definitional": seeds[0], "representation": seeds[1],
                      "diff": seeds[2], "report": seeds[3]}}


ROUNDS = {"density_series": density_round,
          "negativity_moments": negativity_round,
          "stein_sampling": stein_round}
