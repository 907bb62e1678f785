"""Nonlinear least squares via Levenberg-Marquardt with numeric Jacobians.

The solver is deliberately small and fully pinned down so that every fit in
this package shares one auditable engine:

* central-difference Jacobian with per-parameter step h_i = max(1e-8, 1e-6*|theta_i|)
* damping factor starts at 1e-3, *10 on a rejected step, /10 on an accepted one
* converged when the relative cost decrease falls below 1e-10, the gradient
  norm falls below 1e-12, or no damped step can reduce the cost at all (the
  point is a minimum at working precision), within at most 200 iterations

Weights are interpreted as absolute inverse variances (w_i = 1/sigma_i^2) when
supplied, in which case the covariance is (J^T W J)^-1 and scaling all weights
by c scales the covariance by 1/c.  Without weights the noise level is
estimated from the residuals: covariance = (J^T J)^-1 * SSR/(n-p).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, FitRankError, SingularModelError

DEFAULT_MAX_ITER = 200
COST_TOL = 1e-10
GRAD_TOL = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Outcome of an lm_fit call. ``params`` maps name -> value in theta order."""

    params: dict
    covariance: np.ndarray = field(repr=False)
    residual_rms: float
    converged: bool
    iterations: int

    @property
    def theta(self) -> np.ndarray:
        return np.array(list(self.params.values()), dtype=float)

    @property
    def sigmas(self) -> np.ndarray:
        d = np.diag(self.covariance)
        return np.sqrt(np.where(d >= 0, d, np.inf))

    def sigma(self, name: str) -> float:
        i = list(self.params).index(name)
        return float(self.sigmas[i])


def _step_sizes(theta: np.ndarray, rel_step: float, min_step: float) -> np.ndarray:
    return np.maximum(min_step, rel_step * np.abs(theta))


def numeric_jacobian(
    func: Callable[[np.ndarray], np.ndarray],
    theta,
    rel_step: float = 1e-6,
    min_step: float = 1e-8,
) -> np.ndarray:
    """Central-difference Jacobian of func(theta) -> values, shape (n_values, n_params)."""
    theta = np.asarray(theta, dtype=float)
    h = _step_sizes(theta, rel_step, min_step)
    cols = []
    for i in range(theta.size):
        tp = theta.copy()
        tm = theta.copy()
        tp[i] += h[i]
        tm[i] -= h[i]
        fp = np.asarray(func(tp), dtype=float)
        fm = np.asarray(func(tm), dtype=float)
        cols.append((fp - fm) / (2.0 * h[i]))
    J = np.column_stack(cols)
    if not np.all(np.isfinite(J)):
        raise SingularModelError("non-finite model output while differentiating")
    return J


def _covariance(J: np.ndarray, ssr: float, n: int, p: int, absolute_weights: bool) -> np.ndarray:
    A = J.T @ J
    # invert in column-scaled form so that widely different parameter
    # magnitudes are not mistaken for rank deficiency
    norms = np.sqrt(np.diag(A))
    if not (np.all(np.isfinite(norms)) and np.all(norms > 0)):
        return np.full((p, p), np.inf)
    scale = 1.0 / norms
    scaled = A * np.outer(scale, scale)
    evals, evecs = np.linalg.eigh(scaled)
    if evals[-1] <= 0 or evals[0] <= 1e-12 * evals[-1]:
        # degenerate direction: the data do not constrain some parameter
        return np.full((p, p), np.inf)
    Ainv = ((evecs / evals) @ evecs.T) * np.outer(scale, scale)
    if absolute_weights:
        return Ainv
    if n <= p:
        return np.full((p, p), np.inf)
    return Ainv * (ssr / (n - p))


def lm_fit(
    model: Callable,
    x,
    y,
    theta0,
    weights=None,
    names: Sequence[str] | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> FitResult:
    """Fit model(x, theta) -> predictions to y by damped least squares.

    Raises FitRankError if there are fewer observations than parameters,
    DomainError if ``names`` does not name every parameter, and
    SingularModelError if the model is non-finite at the start point or at an
    accepted iterate.  Non-finite trial steps are rejected like any other bad
    step (damping increases) rather than aborting the fit.
    """
    y = np.asarray(y, dtype=float).ravel()
    theta = np.asarray(theta0, dtype=float).ravel().copy()
    n, p = y.size, theta.size
    if n < p:
        raise FitRankError(f"{n} observations cannot constrain {p} parameters")
    if names is not None and len(names) != p:
        raise DomainError(f"{len(names)} names given for {p} parameters")
    sw = None
    if weights is not None:
        w = np.asarray(weights, dtype=float).ravel()
        if w.size != n or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise SingularModelError("weights must be finite and non-negative")
        sw = np.sqrt(w)

    def residual(th: np.ndarray) -> np.ndarray:
        pred = np.asarray(model(x, th), dtype=float).ravel()
        r = pred - y
        return r * sw if sw is not None else r

    r = residual(theta)
    if not np.all(np.isfinite(r)):
        raise SingularModelError("non-finite model output at the starting point")
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        J = numeric_jacobian(residual, theta)
        g = J.T @ r
        if float(np.linalg.norm(g)) < GRAD_TOL:
            converged = True
            break
        A = J.T @ J
        diag = np.diag(A).copy()
        floor = 1e-12 * max(float(diag.max()), 1e-300)
        diag[diag < floor] = floor

        accepted = False
        new_theta = new_r = None
        new_cost = cost
        for _ in range(60):
            try:
                step = np.linalg.solve(A + lam * np.diag(diag), -g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                cand = theta + step
                rc = residual(cand)
                if np.all(np.isfinite(rc)):
                    cc = 0.5 * float(rc @ rc)
                    if cc < cost:
                        accepted = True
                        new_theta, new_r, new_cost = cand, rc, cc
                        break
            lam *= 10.0
            if lam > 1e14:
                break
        if not accepted:
            # damping exhausted: even a near-zero step cannot reduce the cost,
            # so the point is a minimum at working precision (common on
            # noise-free data, where the cost bottoms out at rounding error)
            converged = True
            break
        rel_decrease = (cost - new_cost) / max(cost, 1e-300)
        theta, r, cost = new_theta, new_r, new_cost
        lam = max(lam / 10.0, 1e-14)
        if rel_decrease < COST_TOL:
            converged = True
            break

    J = numeric_jacobian(residual, theta)
    ssr = 2.0 * cost
    cov = _covariance(J, ssr, n, p, absolute_weights=sw is not None)
    rms = float(np.sqrt(ssr / n))
    if names is None:
        names = [f"theta{i}" for i in range(p)]
    params = {str(k): float(v) for k, v in zip(names, theta)}
    return FitResult(params=params, covariance=cov, residual_rms=rms,
                     converged=converged, iterations=iterations)


# ---------------------------------------------------------------------------
# built-in model shapes shared by the analysis modules
# ---------------------------------------------------------------------------


def line_model(x, theta):
    """theta = (slope, intercept)."""
    return theta[0] * np.asarray(x, dtype=float) + theta[1]


def exp_decay_model(x, theta):
    """theta = (amplitude, rate); amplitude * exp(-rate*x)."""
    return theta[0] * np.exp(-theta[1] * np.asarray(x, dtype=float))


def gaussian_model(x, theta):
    """theta = (amplitude, center, sigma, offset)."""
    x = np.asarray(x, dtype=float)
    return theta[0] * np.exp(-0.5 * ((x - theta[1]) / theta[2]) ** 2) + theta[3]


def lorentzian_model(x, theta):
    """theta = (amplitude, center, fwhm, offset); amplitude is the peak height."""
    x = np.asarray(x, dtype=float)
    hw = 0.5 * theta[2]
    return theta[0] * hw**2 / ((x - theta[1]) ** 2 + hw**2) + theta[3]
