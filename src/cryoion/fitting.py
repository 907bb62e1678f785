"""Nonlinear least squares via Levenberg-Marquardt with numeric Jacobians.

The solver is deliberately small and fully pinned down so that every fit in
this package shares one auditable engine:

* central-difference Jacobian with per-parameter step h_i = max(1e-8, 1e-6*|theta_i|)
* damping factor starts at 1e-3, *10 on a rejected step, /10 on an accepted one
* each iteration takes one eigendecomposition S = V diag(L) V^T of the
  column-scaled normal matrix S = N^-1 J^T J N^-1, N = sqrt(diag J^T J); every
  damped trial of that iteration is then Marquardt's step
  -(J^T J + lam diag J^T J)^-1 g = -(V/N) ((V/N)^T g / (L + lam))
* converged when the relative cost decrease falls below 1e-10, the cosine
  |J_i . r| / (|J_i| |r|) between the residual and every Jacobian column is at
  most 1e-12 (a test that rescaling y or a parameter leaves unchanged), or no
  damped step can reduce the cost at all (the point is a minimum at working
  precision), within at most 200 iterations
* stopped as degenerate (not converged) as soon as an iterate's N is zero or
  non-finite or min(L) <= 1e-12 max(L): the data no longer constrain some
  direction, the covariance there is infinite, and the fit is running off
  toward a boundary at infinity (an amplitude and an offset cancelling, a
  width shrinking to zero); this is the same test that makes the covariance
  infinite, so a degenerate stop always reports infinite sigmas
* stopped as off_range (not converged), for a peak-shaped model that names
  its center and width parameters (``peak=(center_index, width_index)``), at
  the first accepted iterate whose center lies more than one x-span outside
  [min x, max x] or whose |width| exceeds two x-spans, span = max x - min x:
  on data without a peak the fit otherwise drifts far off the scanned range
  while its normal matrix stays well conditioned ("parameter evaporation",
  Transtrum, Machta and Sethna, Phys. Rev. E 83, 036701 (2011)); the bounds
  are relative to the span, so shifting or scaling x leaves the rule unchanged

Models must broadcast over a parameter batch.  Each Jacobian costs one model
call, ``model(x[:, None], batch)``, where ``batch`` has shape (p, 2p) and
holds the 2p perturbed parameter vectors as columns; the call must return
shape (n, 2p).  Writing the model with ``theta[k]`` and numpy ufuncs, as the
built-in shapes below are, is enough: ``theta[k]`` is then a row of 2p values
that broadcasts against the (n, 1) column of x.

Weights are interpreted as absolute inverse variances (w_i = 1/sigma_i^2) when
supplied, in which case the covariance is (J^T W J)^-1 and scaling all weights
by c scales the covariance by 1/c.  Without weights the noise level is
estimated from the residuals: covariance = (J^T J)^-1 * SSR/(n-p).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, FitRankError, SingularModelError

DEFAULT_MAX_ITER = 200
COST_TOL = 1e-10
GRAD_TOL = 1e-12

#: termination reasons reported in ``FitResult.reason``
REASON_GRAD_TOL = "grad_tol"
REASON_COST_TOL = "cost_tol"
REASON_DAMPING_EXHAUSTED = "damping_exhausted"
REASON_MAX_ITER = "max_iter"
REASON_DEGENERATE = "degenerate"
REASON_OFF_RANGE = "off_range"

#: the scaled normal matrix is degenerate when min(L) <= DEGENERATE_RATIO * max(L)
DEGENERATE_RATIO = 1e-12


@dataclass(frozen=True)
class FitResult:
    """Outcome of an lm_fit call. ``params`` maps name -> value in theta order.

    ``reason`` names the rule that stopped the fit (one of the ``REASON_*``
    constants); ``converged`` is false for ``max_iter``, ``degenerate`` and
    ``off_range``.
    ``model_calls`` counts every model evaluation, one per Jacobian included.
    """

    params: dict
    covariance: np.ndarray = field(repr=False)
    residual_rms: float
    converged: bool
    iterations: int
    reason: str
    model_calls: int

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


def numeric_jacobian(
    func: Callable[[np.ndarray], np.ndarray],
    theta,
    rel_step: float = 1e-6,
    min_step: float = 1e-8,
) -> np.ndarray:
    """Central-difference Jacobian of func at theta, shape (n_values, n_params).

    ``func`` is called once, on a (p, 2p) batch whose column i is
    theta + h_i e_i and whose column p + i is theta - h_i e_i, and must
    return the (n_values, 2p) array of the values at those columns.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    p = theta.size
    h = np.maximum(min_step, rel_step * np.abs(theta))
    batch = np.empty((p, 2 * p))
    batch[:] = theta[:, None]
    flat = batch.reshape(-1)  # a view: stride 2p + 1 walks the diagonal of each half
    flat[::2 * p + 1] += h
    flat[p::2 * p + 1] -= h
    f = np.asarray(func(batch), dtype=float)
    if f.ndim != 2 or f.shape[1] != 2 * p:
        raise DomainError(
            f"func must broadcast over a ({p}, {2 * p}) parameter batch and return "
            f"(n_values, {2 * p}) values, got shape {f.shape}")
    J = (f[:, :p] - f[:, p:]) / (2.0 * h)
    if not np.isfinite(J).all():
        raise SingularModelError("non-finite model output while differentiating")
    return J


def _scaled_eigh(A: np.ndarray):
    """Eigendecomposition of the column-scaled normal matrix, or None if degenerate.

    Returns (N, L, V) with N = sqrt(diag A) and N^-1 A N^-1 = V diag(L) V^T.
    Scaling the columns first keeps widely different parameter magnitudes
    from being mistaken for rank deficiency.  None means some direction is
    unconstrained: N is zero or non-finite, or min(L) <= DEGENERATE_RATIO *
    max(L).
    """
    N = np.sqrt(A.diagonal())
    if not (np.all(np.isfinite(N)) and np.all(N > 0)):
        return None
    evals, evecs = np.linalg.eigh(A / N / N[:, None])
    if not evals[0] > DEGENERATE_RATIO * evals[-1]:
        return None
    return N, evals, evecs


def _covariance(J: np.ndarray, ssr: float, n: int, p: int, absolute_weights: bool) -> np.ndarray:
    scaled = _scaled_eigh(J.T @ J)
    if scaled is None:
        return np.full((p, p), np.inf)
    N, evals, evecs = scaled
    Ainv = ((evecs / evals) @ evecs.T) / N / N[:, None]
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
    peak: tuple[int, int] | None = None,
) -> FitResult:
    """Fit model(x, theta) -> predictions to y by damped least squares.

    ``model`` must also accept a parameter batch: ``model(x[:, None], batch)``
    with ``batch`` of shape (p, 2p) returns shape (n, 2p), one column per
    parameter vector (see the module docstring).  Each Jacobian is one such
    call.

    ``peak=(center_index, width_index)`` marks a peak-shaped model: the fit
    then stops as ``off_range`` (not converged) at the first accepted iterate
    whose center lies more than one x-span outside [min x, max x] or whose
    |width| exceeds two x-spans, span = max x - min x; the covariance is
    computed at that iterate, as at every stop.  Without ``peak`` no such
    stop exists.

    Raises FitRankError if there are fewer observations than parameters,
    DomainError if ``names`` does not name every parameter, ``peak`` does not
    name two distinct parameter indices or the model does not broadcast over
    a batch, and SingularModelError if the model is non-finite at the start
    point or at an accepted iterate.  Non-finite trial steps are rejected like
    any other bad step (damping increases) rather than aborting the fit.
    """
    y = np.asarray(y, dtype=float).ravel()
    theta = np.asarray(theta0, dtype=float).ravel().copy()
    n, p = y.size, theta.size
    if n < p:
        raise FitRankError(f"{n} observations cannot constrain {p} parameters")
    if names is not None and len(names) != p:
        raise DomainError(f"{len(names)} names given for {p} parameters")
    if peak is not None:
        try:
            center_i, width_i = map(operator.index, peak)
        except (TypeError, ValueError):
            center_i = width_i = -1
        if center_i == width_i or not (0 <= center_i < p and 0 <= width_i < p):
            raise DomainError(
                f"peak must name two distinct parameter indices in [0, {p}), got {peak!r}")
        x_lo, x_hi = float(np.min(x)), float(np.max(x))
        x_span = x_hi - x_lo
    sw = None
    if weights is not None:
        w = np.asarray(weights, dtype=float).ravel()
        if w.size != n or np.any(w < 0) or not np.all(np.isfinite(w)):
            raise SingularModelError("weights must be finite and non-negative")
        sw = np.sqrt(w)
    x_col = np.reshape(x, (-1, 1))
    model_calls = 0

    def residual(th: np.ndarray) -> np.ndarray:
        nonlocal model_calls
        model_calls += 1
        pred = np.asarray(model(x, th), dtype=float).ravel()
        r = pred - y
        return r * sw if sw is not None else r

    def batch_residual(batch: np.ndarray) -> np.ndarray:
        nonlocal model_calls
        model_calls += 1
        pred = np.asarray(model(x_col, batch), dtype=float)
        if pred.shape != (n, batch.shape[1]):
            raise DomainError(
                f"model(x[:, None], theta) with theta of shape {batch.shape} must "
                f"broadcast to shape {(n, batch.shape[1])}, got {pred.shape}")
        r = pred - y[:, None]
        return r * sw[:, None] if sw is not None else r

    r = residual(theta)
    if not np.isfinite(r).all():
        raise SingularModelError("non-finite model output at the starting point")
    cost = 0.5 * float(r @ r)
    lam = 1e-3
    reason = REASON_MAX_ITER
    iterations = 0

    for iterations in range(1, max_iter + 1):
        J = numeric_jacobian(batch_residual, theta)
        g = J.T @ r
        scaled = _scaled_eigh(J.T @ J)
        if scaled is None:
            reason = REASON_DEGENERATE
            break
        N, evals, evecs = scaled
        # the cosine between r and each column of J: unchanged by rescaling y
        # or a parameter, unlike the raw gradient norm (which scales as y^2)
        if float(np.max(np.abs(g) / N)) <= GRAD_TOL * float(np.linalg.norm(r)):
            reason = REASON_GRAD_TOL
            break
        W = evecs / N[:, None]
        Wg = W.T @ g

        accepted = False
        new_theta = new_r = None
        new_cost = cost
        for _ in range(60):
            cand = theta - W @ (Wg / (evals + lam))
            rc = residual(cand)
            if np.isfinite(rc).all():
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
            reason = REASON_DAMPING_EXHAUSTED
            break
        rel_decrease = (cost - new_cost) / max(cost, 1e-300)
        theta, r, cost = new_theta, new_r, new_cost
        if peak is not None and not (
                x_lo - x_span <= theta[center_i] <= x_hi + x_span
                and abs(theta[width_i]) <= 2.0 * x_span):
            reason = REASON_OFF_RANGE
            break
        lam = max(lam / 10.0, 1e-14)
        if rel_decrease < COST_TOL:
            reason = REASON_COST_TOL
            break

    J = numeric_jacobian(batch_residual, theta)
    ssr = 2.0 * cost
    cov = _covariance(J, ssr, n, p, absolute_weights=sw is not None)
    rms = float(np.sqrt(ssr / n))
    if names is None:
        names = [f"theta{i}" for i in range(p)]
    params = {str(k): float(v) for k, v in zip(names, theta)}
    return FitResult(params=params, covariance=cov, residual_rms=rms,
                     converged=reason not in (REASON_MAX_ITER, REASON_DEGENERATE,
                                              REASON_OFF_RANGE),
                     iterations=iterations, reason=reason, model_calls=model_calls)


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
