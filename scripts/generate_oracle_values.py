"""Regenerate the high-precision reference values frozen into the test suite.

Every value is computed with mpmath at 40 significant digits through routes
independent of the library code: the density by direct numerical convolution
of two noncentral chi-square densities (scaled, for S_n), U/M/Bessel values by mpmath's own
implementations, negativity probabilities by the Poisson-weighted incomplete
beta double series and, for the published-table cells and the near-degenerate
correlations, by quadrature of the conditional normal, Poisson weights from
their closed form, and moments by the Kummer-M closed form.

Run:  python scripts/generate_oracle_values.py
"""

from mpmath import (besseli, besselk, betainc, exp, factorial, gamma, hyp1f1,
                    hyperu, inf, log, loggamma, mp, mpf, ncdf, npdf, quad, sqrt)

mp.dps = 40


def ncx2_pdf(u, r, lam):
    if u <= 0:
        return mpf(0)
    if lam == 0:
        return u ** (mpf(r) / 2 - 1) * exp(-u / 2) / (2 ** (mpf(r) / 2) * gamma(mpf(r) / 2))
    return (exp(-(u + lam) / 2) / 2 * (u / lam) ** (mpf(r) / 4 - mpf(1) / 2)
            * besseli(mpf(r) / 2 - 1, sqrt(lam * u)))


def diff_pdf(x, r, lam1, lam2):
    x, r, lam1, lam2 = mpf(x), mpf(r), mpf(lam1), mpf(lam2)
    lo = max(mpf(0), x)
    return quad(lambda u: ncx2_pdf(u, r, lam1) * ncx2_pdf(u - x, r, lam2),
                [lo, lo + 5, lo + 40, inf])


def sum_pdf(x, mu_x, mu_y, sigma_x, sigma_y, rho, n):
    """Density of S_n for |rho| < 1 as the convolution of the densities of
    c+ V1 and c- V2, c+- = sigma_x sigma_y (1 +- rho)/2, V1 ~ chi'^2_n(lambda+)
    and V2 ~ chi'^2_n(lambda-), split across the bulk of each factor and, near
    0, at |x| 4^i."""
    mu_x, mu_y, sigma_x, sigma_y, rho, x = (mpf(v) for v in (mu_x, mu_y, sigma_x, sigma_y, rho, x))
    a, b = mu_x / sigma_x, mu_y / sigma_y
    cp, cm = sigma_x * sigma_y * (1 + rho) / 2, sigma_x * sigma_y * (1 - rho) / 2
    lp, lm = n * (a + b) ** 2 / (2 * (1 + rho)), n * (a - b) ** 2 / (2 * (1 - rho))
    lo = max(mpf(0), x)
    points = {lo}
    for c, lam, off in ((cp, lp, 0), (cm, lm, x)):
        mean, sd = n + lam, sqrt(2 * n + 4 * lam)
        points |= {off + c * (mean + i * sd) for i in range(-8, 9)}
    step = abs(x)
    while 0 < step < 5 * max(cp, cm):
        points.add(lo + step)
        step *= 4
    return quad(lambda u: ncx2_pdf(u / cp, n, lp) * ncx2_pdf((u - x) / cm, n, lm) / (cp * cm),
                sorted(p for p in points if p >= lo) + [inf])


def prob_diff_nonpositive(r, lam1, lam2, terms=120):
    total = mpf(0)
    for j in range(terms):
        wj = exp(-mpf(lam1) / 2) * (mpf(lam1) / 2) ** j / factorial(j)
        for k in range(terms):
            wk = exp(-mpf(lam2) / 2) * (mpf(lam2) / 2) ** k / factorial(k)
            total += wj * wk * betainc(mpf(r) / 2 + j, mpf(r) / 2 + k,
                                       0, mpf(1) / 2, regularized=True)
    return total


def prob_product_nonpositive(mu_x, mu_y, rho):
    """P(XY <= 0) for unit-variance (X, Y) with correlation rho, as
    int phi(x - mu_x) P(sign Y != sign x | X = x) dx, where
    Y | X = x ~ N(mu_y + rho (x - mu_x), 1 - rho^2). Split at 0 and where the
    conditional mean of Y crosses 0, a step of width sqrt(1 - rho^2)."""
    mu_x, mu_y, rho = mpf(mu_x), mpf(mu_y), mpf(rho)
    s = sqrt(1 - rho ** 2)

    def f(x):
        z = (mu_y + rho * (x - mu_x)) / s
        return npdf(x, mu_x, 1) * ncdf(z if x < 0 else -z)

    cuts = sorted({mpf(0), mu_x - mu_y / rho} if rho != 0 else {mpf(0)})
    return quad(f, [-inf] + cuts + [inf])


# Poisson means of the window tests and nine indices each: 0..8 for mu <= 1,
# else the mode and 1, 2, 4 and 6 standard deviations either side
POISSON_MEANS = ("1e-3", "0.5", "60", "4e4", "1e6")


def poisson_indices(mu):
    if mu <= 1:
        return list(range(9))
    return [int(mu + z * sqrt(mu)) for z in (-6, -4, -2, -1, 0, 1, 2, 4, 6)]


def poisson_weight(k, mu):
    return exp(k * log(mu) - loggamma(k + 1) - mu) if k else exp(-mu)


def ncx2_moment(k, r, lam):
    return (2 ** k * gamma(mpf(r) / 2 + k) / gamma(mpf(r) / 2)
            * hyp1f1(-k, mpf(r) / 2, -mpf(lam) / 2))


def show(label, value, digits=30):
    print(f"{label} = {mp.nstr(value, digits)}")


if __name__ == "__main__":
    print("# density values (convolution route)")
    show("pdf(0.7;  r=3,   l1=1.2, l2=1.2)", diff_pdf("0.7", 3, "1.2", "1.2"))
    show("pdf(0.7;  r=3,   l1=1.2, l2=0)", diff_pdf("0.7", 3, "1.2", 0))
    show("pdf(-2;   r=4.5, l1=3,   l2=1)", diff_pdf(-2, "4.5", 3, 1))
    show("pdf(0.25; r=0.5, l1=0.3, l2=0.7)", diff_pdf("0.25", "0.5", "0.3", "0.7"))
    show("pdf(1.5;  r=1,   l1=0.5, l2=2)", diff_pdf("1.5", 1, "0.5", 2))
    show("pdf(1.3;  r=2.5, central)", diff_pdf("1.3", "2.5", 0, 0))
    show("pdf(-1e-6; r=3.7225, central)", diff_pdf("-1e-6", "3.7225", 0, 0))
    show("pdf(0.3;  r=2.5, l1=1,   l2=0.5)", diff_pdf("0.3", "2.5", 1, "0.5"))
    print("# S_n densities (scaled convolution route)")
    show("pdf_S(3e-4; mu=(-1.912,-1.088), rho=0.311, n=2)",
         sum_pdf("3e-4", "-1.912", "-1.088", 1, 1, "0.311", 2))
    show("pdf_S(430; mu=(16,4.5), sigma=(2,1.5), rho=0.1, n=6)",
         sum_pdf(430, 16, "4.5", 2, "1.5", "0.1", 6))
    print("# density at x = 0, finite for r > 1 (convolution route)")
    show("pdf(0;    r=2,   central)", diff_pdf(0, 2, 0, 0))
    show("pdf(0;    r=1.5, central)", diff_pdf(0, "1.5", 0, 0))
    show("pdf(0;    r=2,   l1=1,   l2=0.5)", diff_pdf(0, 2, 1, "0.5"))
    show("pdf(0;    r=1.5, l1=1,   l2=0.5)", diff_pdf(0, "1.5", 1, "0.5"))
    print("# noncentral chi-square density where ive underflows (Bessel-I series)")
    show("ncx2_pdf(1e4; r=8002, lam=2000)", ncx2_pdf(10000, 8002, 2000), 25)
    print("# Tricomi U values")
    show("U(5.5, 11, 0.7)", hyperu(mpf("5.5"), 11, mpf("0.7")))
    show("U(0.75, 1.5, 20)", hyperu(mpf("0.75"), mpf("1.5"), 20))
    show("U(18.5, 37, 40)", hyperu(mpf("18.5"), 37, 40))
    show("U(2.3, 0.4, 1.7)", hyperu(mpf("2.3"), mpf("0.4"), mpf("1.7")))
    show("U(1.5, 3, 1e-5)", hyperu(mpf("1.5"), 3, mpf("1e-5")))
    show("U(0.5, 10.999999999999993, 17)", hyperu(mpf("0.5"), mpf(10.999999999999993), 17))
    show("U(1.5, 3.999999999999993, 1)", hyperu(mpf("1.5"), mpf(3.999999999999993), 1))
    show("U(1, 1.0000000000000002, 0.5)", hyperu(1, mpf(1.0000000000000002), mpf("0.5")))
    show("U(1.86125, 3.7225, 1e-6)", hyperu(mpf("1.86125"), mpf("3.7225"), mpf("1e-6")))
    show("U(2.5, 4, 1e-6)", hyperu(mpf("2.5"), 4, mpf("1e-6")))
    show("U(1.25, 2.5, 0.41)", hyperu(mpf("1.25"), mpf("2.5"), mpf("0.41")))
    show("ln U(36.87, 9.01, 0.41)", log(hyperu(mpf(36.87), mpf(9.01), mpf(0.41))), 25)
    print("# ln U(r/2 + k, r + k, x) on the density's diagonal, k0 + 100..300 "
          "past k0 = max(1, ceil x); mpmath's hyperu needs the extra digits at x = 150")
    with mp.workdps(160):
        for r in (0.7, 7.3):  # the doubles, as the tests pass them
            for x in (0.5, 10, 40, 150):
                k0 = max(1, int(mp.ceil(x)))
                for k in (k0 + 100, k0 + 200, k0 + 300):
                    show(f"ln U({r}/2 + {k}, {r} + {k}, {x})",
                         log(hyperu(mpf(r) / 2 + k, mpf(r) + k, mpf(x))), 25)
    print("# negativity probabilities (double series route)")
    show("P(T<=0; r=3, l1=1.2, l2=0.4)", prob_diff_nonpositive(3, "1.2", "0.4"))
    show("P(T<=0; r=1, l1=2,   l2=0)", prob_diff_nonpositive(1, 2, 0))
    show("P(T<=0; r=0.5, l1=4, l2=1)", prob_diff_nonpositive("0.5", 4, 1))
    print("# published-table cells: printed slips and the flagged cell "
          "(conditional-normal route)")
    for mu_x, mu_y, rho in [(1, -1, "0.5"), (1, 1, "-0.5"), (1, 1, "0.25"),
                            (0, 0, "-0.75")]:
        show(f"P(XY<=0; mu=({mu_x},{mu_y}), rho={rho})",
             prob_product_nonpositive(mu_x, mu_y, rho))
    print("# near-degenerate correlation, where the Poisson windows start far "
          "above 0 (conditional-normal route)")
    for mu_x, mu_y, rho in [(1, -1, "0.9999"), (3, -1, "0.9999"), (1, -1, "0.999999")]:
        show(f"P(XY<=0; mu=({mu_x},{mu_y}), rho={rho})",
             prob_product_nonpositive(mu_x, mu_y, rho))
    print("# Poisson(mu) weights at nine indices per mean")
    for m in POISSON_MEANS:
        mu = mpf(m)
        print(f"mu = {m}: " + ", ".join(
            f"({k}, {mp.nstr(poisson_weight(k, mu), 25)})" for k in poisson_indices(mu)))
    print("# noncentral chi-square moments (Kummer route)")
    show("E[V^5] (r=3, lam=1.2)", ncx2_moment(5, 3, "1.2"))
    show("E[V^10] (r=0.5, lam=4)", ncx2_moment(10, "0.5", 4))
    print("# log-space Bessel/Kummer overflow corners")
    show("log I_1(800)", log(besseli(1, 800)), 25)
    show("log I_300(0.5)", log(besseli(300, mpf("0.5"))), 25)
    show("log I_4000(1e4)", log(besseli(4000, 10000)), 25)
    show("log K_400(1)", log(besselk(400, 1)), 25)
    show("log M(2,3,900)", log(hyp1f1(2, 3, 900)), 25)
