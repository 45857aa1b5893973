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

import numpy as np
from numpy.polynomial import Polynomial
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad

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
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for p, q in zip(self._derivs[j], self._exponents):
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
    if f.order < 4:
        raise DomainError("apply_a1 needs derivatives through order 4")
    d = q.lambda1 - q.lambda2
    return (16.0 * np.asarray(x) * f.evaluate(4, x)
            + 16.0 * q.r * f.evaluate(3, x)
            - (8.0 * np.asarray(x) + 4.0 * d) * f.evaluate(2, x)
            - 4.0 * (q.lambda1 + q.lambda2 + q.r) * f.evaluate(1, x)
            + (np.asarray(x) - d) * f.evaluate(0, x))


def apply_a2(f: TestFunction, x, r: float, lambda1: float):
    """Third-order operator for the one-sided case lambda2 = 0:
    8x f''' + (8r - 4x) f'' - (2x + 4r + 2*l1) f' + (x - l1) f."""
    if f.order < 3:
        raise DomainError("apply_a2 needs derivatives through order 3")
    x = np.asarray(x)
    return (8.0 * x * f.evaluate(3, x)
            + (8.0 * r - 4.0 * x) * f.evaluate(2, x)
            - (2.0 * x + 4.0 * r + 2.0 * lambda1) * f.evaluate(1, x)
            + (x - lambda1) * f.evaluate(0, x))


def apply_a3(f: TestFunction, x, r: float):
    """Second-order operator for the central case: 4x f'' + 4r f' - x f."""
    if f.order < 2:
        raise DomainError("apply_a3 needs derivatives through order 2")
    x = np.asarray(x)
    return 4.0 * x * f.evaluate(2, x) + 4.0 * r * f.evaluate(1, x) - x * f.evaluate(0, x)


def _operator_fn(operator: str, q: ChiSqDiffParams):
    if operator == "a1":
        return lambda f, x: apply_a1(f, x, q)
    if operator == "a2":
        if q.lambda2 != 0.0:
            raise UnsupportedParameterError("a2 requires lambda2 = 0")
        return lambda f, x: apply_a2(f, x, q.r, q.lambda1)
    if operator == "a3":
        if q.lambda1 != 0.0 or q.lambda2 != 0.0:
            raise UnsupportedParameterError("a3 requires lambda1 = lambda2 = 0")
        return lambda f, x: apply_a3(f, x, q.r)
    raise DomainError(f"unknown operator {operator!r}; expected a1, a2 or a3")


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
    op = _operator_fn(operator, q)
    _check_integrable(f)
    if method == "monte_carlo":
        return _mean_and_error(op(f, sample_diff(q, count, seed).values))
    if method == "quadrature":
        def integrand(x):
            return float(op(f, x)) * ncx2diff_pdf(x, q, ctrl)
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
        op = _operator_fn(operator, q)
        t = sample_diff(q, count, seed).values

    rows = []
    for f in funcs:
        if method == "monte_carlo":
            _check_integrable(f)
            est, unc = _mean_and_error(op(f, t))
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
