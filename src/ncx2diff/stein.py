"""Stein operators characterising the noncentral chi-square difference law and
an empirical harness checking E[A f(T)] = 0 under the true law (and detectably
nonzero under perturbed laws).

Three operators, in decreasing order, for the general, one-sided (lambda2 = 0)
and central cases. A test function is f = Re sum_i p_i(x) exp(q_i(x)) with
polynomials p_i (complex coefficients allowed) and q_i of degree at most 2;
its derivatives are exact, since (p e^q)' = (p' + p q') e^q keeps that form.
The built-in Gaussian-damped family lies in the admissible class for every
parameter choice since all moments of T are finite and every member decays
faster than any polynomial.
"""

from __future__ import annotations

import math
import warnings
from functools import reduce

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyadd, polymul, polyval

from .density import ncx2diff_pdf
from .errors import DomainError, UnsupportedParameterError
from .params import ChiSqDiffParams
from .sampling import sample_diff
from .specfun import DEFAULT_CONTROL, SeriesControl

__all__ = [
    "TestFunction",
    "builtin_test_functions",
    "apply_a1",
    "apply_a2",
    "apply_a3",
    "stein_expectation",
    "stein_report",
]

_MAX_DERIV = 4


def _real_if_exact(coef: np.ndarray) -> np.ndarray:
    return coef if coef.imag.any() else coef.real


class TestFunction:
    """f(x) = Re sum_i p_i(x) exp(q_i(x)) with exact derivatives through
    order `order`.

    `terms` is a sequence of (p, q) coefficient pairs in increasing powers of
    x, as numpy.polynomial takes them; q has degree at most 2. For example
    sin(x) exp(-x^2/4) = Re(-i exp(i x - x^2/4)) is [([-1j], [0, 1j, -0.25])].
    A term whose coefficients are all real is evaluated in real arithmetic.
    """

    def __init__(self, name: str, terms, order: int = _MAX_DERIV):
        derivs, exponents = [], []
        for p, q in terms:
            p, q = Polynomial(p), Polynomial(q)
            if q.degree() > 2:
                raise DomainError(f"test function {name!r}: exponent of degree "
                                  f"{q.degree()} > 2")
            ps = [p]
            for _ in range(order):
                ps.append((ps[-1].deriv() + ps[-1] * q.deriv()).trim())
            derivs.append([_real_if_exact(d.coef) for d in ps])
            exponents.append(_real_if_exact(q.coef))
        self.name = name
        self.order = order
        self._exponents = tuple(exponents)
        # _derivs[j][i]: coefficients of the polynomial factor of term i in f^(j)
        self._derivs = tuple(tuple(d[j] for d in derivs) for j in range(order + 1))

    def __repr__(self) -> str:
        return f"TestFunction(name={self.name!r}, order={self.order})"

    def evaluate(self, j: int, x):
        """j-th derivative at x (scalar or array), j in 0..order."""
        if not 0 <= j <= self.order:
            raise DomainError(f"derivative order {j} outside 0..{self.order}")
        return _evaluate(zip(self._derivs[j], self._exponents), x)

    def fold(self, coeffs) -> tuple:
        """The (R_i, q_i) terms of sum_j c_j(x) f^(j)(x), for polynomials c_j
        given by their coefficients in increasing powers, j = 0..len(coeffs) - 1.

        Each term's derivative factors fold into one polynomial
        R_i = sum_j c_j P_ij, so an operator costs one exp per term."""
        if len(coeffs) - 1 > self.order:
            raise DomainError(f"derivative order {len(coeffs) - 1} outside 0..{self.order}")
        return tuple((reduce(polyadd, [polymul(c, self._derivs[j][i])
                                       for j, c in enumerate(coeffs)]), q)
                     for i, q in enumerate(self._exponents))


def _evaluate(terms, x):
    """Re sum_i R_i(x) exp(q_i(x)) at x (scalar or array) over (R_i, q_i)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for p, q in terms:
        out += (polyval(x, p) * np.exp(polyval(x, q))).real
    return out if out.ndim else float(out)


def builtin_test_functions() -> tuple:
    """The built-in family: Gaussian-damped monomials x^p e^{-x^2/2} (p <= 6),
    e^{-x^2}, and sin(x) e^{-x^2/4}."""
    funcs = [TestFunction(f"x^{p}*exp(-x^2/2)",
                          [([0.0] * p + [1.0], [0.0, 0.0, -0.5])])
             for p in range(7)]
    funcs.append(TestFunction("exp(-x^2)", [([1.0], [0.0, 0.0, -1.0])]))
    funcs.append(TestFunction("sin(x)*exp(-x^2/4)", [([-1j], [0.0, 1j, -0.25])]))
    return tuple(funcs)


def apply_a1(f: TestFunction, x, q: ChiSqDiffParams):
    """Fourth-order operator for the general difference law:
    16x f'''' + 16r f''' - (8x + 4(l1-l2)) f'' - 4(l1+l2+r) f' + (x - (l1-l2)) f."""
    return _evaluate(f.fold(_coeffs("a1", q.r, q.lambda1, q.lambda2)), x)


def apply_a2(f: TestFunction, x, r: float, lambda1: float):
    """Third-order operator for the one-sided case lambda2 = 0:
    8x f''' + (8r - 4x) f'' - (2x + 4r + 2*l1) f' + (x - l1) f."""
    return _evaluate(f.fold(_coeffs("a2", r, lambda1, 0.0)), x)


def apply_a3(f: TestFunction, x, r: float):
    """Second-order operator for the central case: 4x f'' + 4r f' - x f."""
    return _evaluate(f.fold(_coeffs("a3", r, 0.0, 0.0)), x)


def _coeffs(operator: str, r: float, lambda1: float, lambda2: float) -> list:
    """c_0, c_1, ... of an operator sum_j c_j(x) d^j/dx^j above, each in
    increasing powers of x."""
    if operator == "a1":
        d = lambda1 - lambda2
        return [[-d, 1.0], [-4.0 * (lambda1 + lambda2 + r)], [-4.0 * d, -8.0],
                [16.0 * r], [0.0, 16.0]]
    if operator == "a2":
        return [[-lambda1, 1.0], [-(4.0 * r + 2.0 * lambda1), -2.0],
                [8.0 * r, -4.0], [0.0, 8.0]]
    return [[0.0, -1.0], [4.0 * r], [0.0, 4.0]]


def _operator_coeffs(operator: str, q: ChiSqDiffParams) -> list:
    if operator not in ("a1", "a2", "a3"):
        raise DomainError(f"unknown operator {operator!r}; expected a1, a2 or a3")
    if operator == "a2" and q.lambda2 != 0.0:
        raise UnsupportedParameterError("a2 requires lambda2 = 0")
    if operator == "a3" and (q.lambda1 != 0.0 or q.lambda2 != 0.0):
        raise UnsupportedParameterError("a3 requires lambda1 = lambda2 = 0")
    return _coeffs(operator, q.r, q.lambda1, q.lambda2)


def _check_integrable(f: TestFunction):
    """Sufficient admissibility check: x * f^{(j)}(x) must be negligible far in
    the tails (all built-ins decay super-polynomially)."""
    probe = np.array([-50.0, 50.0])
    for j in range(min(f.order, _MAX_DERIV) + 1):
        if np.max(np.abs(probe * f.evaluate(j, probe))) > 1e-6:
            warnings.warn(
                f"test function {f.name!r}: x*f^({j}) not negligible at |x|=50; "
                "admissibility of the expectation identity is not guaranteed",
                stacklevel=3)


def _mean_and_error(vals: np.ndarray) -> tuple[float, float]:
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))


def stein_expectation(operator: str, f: TestFunction, q: ChiSqDiffParams,
                      method: str = "monte_carlo", count: int = 10 ** 6,
                      seed: int = 0,
                      ctrl: SeriesControl = DEFAULT_CONTROL) -> tuple[float, float]:
    """(estimate, uncertainty) for E[A f(T)] under T = V1 - V2.

    monte_carlo: average A f over `count` representation-sampler draws;
    uncertainty is the standard error. quadrature: integrate A f against the
    density, split at the origin; uncertainty is the combined quad error bound.
    """
    terms = f.fold(_operator_coeffs(operator, q))
    _check_integrable(f)
    if method == "monte_carlo":
        return _mean_and_error(_evaluate(terms, sample_diff(q, count, seed).values))
    if method == "quadrature":
        # imported here: scipy.integrate adds about 0.3 s to the package import
        from scipy.integrate import quad

        def integrand(x):
            return _evaluate(terms, x) * ncx2diff_pdf(x, q, ctrl)
        neg, e1 = quad(integrand, -np.inf, 0.0, limit=400)
        pos, e2 = quad(integrand, 0.0, np.inf, limit=400)
        return neg + pos, e1 + e2
    raise DomainError(f"unknown method {method!r}; expected monte_carlo or quadrature")


def stein_report(q: ChiSqDiffParams, operator: str = "a1",
                 funcs: tuple = None, method: str = "monte_carlo",
                 count: int = 10 ** 6, seed: int = 0,
                 sigma_limit: float = 4.0) -> list[dict]:
    """One JSON-ready row per test function: estimate, uncertainty and the
    |estimate| <= sigma_limit * uncertainty verdict.

    Each row equals stein_expectation(operator, f, q, method, count, seed);
    by Monte Carlo the one seeded batch of draws serves every function.
    """
    if funcs is None:
        funcs = builtin_test_functions()
    if method == "monte_carlo":
        coeffs = _operator_coeffs(operator, q)
        t = sample_diff(q, count, seed).values

    rows = []
    for f in funcs:
        if method == "monte_carlo":
            terms = f.fold(coeffs)
            _check_integrable(f)
            est, unc = _mean_and_error(_evaluate(terms, t))
        else:
            est, unc = stein_expectation(operator, f, q, method=method,
                                         count=count, seed=seed)
        rows.append({
            "operator": operator,
            "test_function": f.name,
            "params": q.to_dict(),
            "method": method,
            "estimate": est,
            "uncertainty": unc,
            "pass": bool(abs(est) <= sigma_limit * unc),
        })
    return rows
