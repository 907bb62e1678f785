"""Nonlinear least squares via Levenberg-Marquardt with closed-form Jacobians.

The solver is deliberately small and fully pinned down so that every fit in
this package shares one auditable engine:

* a model returns its predictions and their exact Jacobian at one parameter
  vector, ``model(x, theta) -> (values, jacobian)`` with shapes (n,) and
  (n, p); it is called once at the start and once per damped trial, and an
  accepted trial's Jacobian is the next iteration's, so no call is spent on
  differentiation and nothing depends on a step size or the units of x
* damping factor starts at 1e-3, *10 on a rejected step, /10 on an accepted one
* each iterate's Jacobian J is decomposed once: S = V diag(L) V^T, the
  column-scaled normal matrix S = N^-1 J^T J N^-1, N = sqrt(diag J^T J); that
  one decomposition gives every damped trial of the iteration Marquardt's
  step -(J^T J + lam diag J^T J)^-1 g = -(V/N) ((V/N)^T g / (L + lam)),
  decides the degenerate stop below and, for the iterate the fit ends on,
  the covariance (J^T J)^-1 = (V/N) L^-1 (V/N)^T; only a fit that ends on a
  newly accepted iterate (cost_tol, off_range, max_iter) decomposes once more
* converged when the relative cost decrease falls below 1e-10, the cosine
  |J_i . r| / (|J_i| |r|) between the residual and every Jacobian column is at
  most 1e-12 (a test that rescaling y or a parameter leaves unchanged), or no
  damped step can reduce the cost at all (the point is a minimum at working
  precision), within at most 200 iterations
* stopped as degenerate (not converged) as soon as an iterate's N is zero or
  non-finite or min(L) <= 1e-12 max(L): the data no longer constrain some
  direction, the covariance there is infinite, and the fit is running off
  toward a boundary at infinity (an amplitude and an offset cancelling, a
  width shrinking to zero); a degenerate stop always reports infinite sigmas
* for a peak-shaped model that names its center and width parameters
  (``peak=(center_index, width_index)``), with span = max x - min x:
  stopped as degenerate too when moving the center or the width by one span
  would change no prediction by more than EPS * max|y| (the peak has
  vanished, and on noise-free flat data the residual is exactly zero), and
  stopped as off_range (not converged) at the first accepted iterate whose
  center lies more than one span outside [min x, max x], whose |width|
  exceeds two spans or whose |width| falls below a quarter of the smallest
  step between x values: on data without a peak the fit otherwise drifts far
  off the scanned range, or shrinks the peak onto one noisy sample, while
  its normal matrix stays well conditioned ("parameter evaporation",
  Transtrum, Machta and Sethna, Phys. Rev. E 83, 036701 (2011)); the rules
  are relative to the span, the x step and y, so shifting or scaling x or
  scaling y leaves them unchanged

A model that is linear in its parameters needs no search: its fit starts at
the closed-form least-squares minimum (``line_lstsq`` for a line), so the
first iteration's gradient test confirms it, with one model call and one
decomposition, and the engine still reports the stop reason and covariance.
(Data the model reproduces to rounding leave a residual of rounding noise,
which no gradient test tells from a minimum; such a fit tries damped steps
and ends on damping_exhausted.)

Data must be finite: a NaN or an infinity in x or y is a DomainError naming
its row, raised before the model is called.

Weights are interpreted as absolute inverse variances (w_i = 1/sigma_i^2) when
supplied, in which case the covariance is (J^T W J)^-1 and scaling all weights
by c scales the covariance by 1/c.  Without weights the noise level is
estimated from the residuals: covariance = (J^T J)^-1 * SSR/(n-p).  A variance
that overflows is reported as an infinite sigma.
"""
from __future__ import annotations

import math
import operator
import sys
from collections.abc import Callable, Sequence

import numpy as np

from .errors import DomainError, FitRankError, Record, SingularModelError

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
#: a peak fit is degenerate once its center and width move no prediction by EPS * max|y|
EPS = sys.float_info.epsilon
#: a peak fit is off_range once |width| < WIDTH_FLOOR * the smallest x step; the
#: narrowest iterate of any signal scan of bench seeds 1-3 is 0.78 steps wide
WIDTH_FLOOR = 0.25


class FitResult(Record, hidden=("covariance",)):
    """Outcome of an lm_fit call. ``params`` maps name -> value in theta order.

    ``reason`` names the rule that stopped the fit (one of the ``REASON_*``
    constants); ``converged`` is false for ``max_iter``, ``degenerate`` and
    ``off_range``.
    ``model_calls`` counts every model evaluation: one at the start and one
    per damped trial, each returning its values and Jacobian.
    """

    params: dict
    covariance: np.ndarray
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
        d = float(self.covariance[i, i])
        return math.sqrt(d) if d >= 0 else math.inf

    def is_unconstrained(self, name: str) -> bool:
        """True if the fit did not converge or the 1-sigma of ``name`` is
        non-finite or exceeds |``name``|: the data do not pin it down."""
        sig = self.sigma(name)
        return not self.converged or not math.isfinite(sig) or sig > abs(self.params[name])


def _scaled_eigh(A: np.ndarray):
    """Eigendecomposition of the column-scaled normal matrix, or None if degenerate.

    Returns (N, L, V) with N = sqrt(diag A) and N^-1 A N^-1 = V diag(L) V^T.
    Scaling the columns first keeps widely different parameter magnitudes
    from being mistaken for rank deficiency.  None means some direction is
    unconstrained: diag A holds a zero, negative or non-finite entry (a NaN
    fails every comparison), or min(L) <= DEGENERATE_RATIO * max(L).
    """
    d = A.diagonal()
    # p is small: a Python test of its p entries beats two numpy reductions
    if not all(0.0 < v < math.inf for v in d.tolist()):
        return None
    N = np.sqrt(d)
    S = A / N
    S /= N[:, None]
    evals, evecs = np.linalg.eigh(S)
    if not evals[0] > DEGENERATE_RATIO * evals[-1]:
        return None
    return N, evals, evecs


def _covariance(scaled, ssr: float, n: int, p: int, absolute_weights: bool) -> np.ndarray:
    """(J^T J)^-1, times SSR/(n-p) without absolute weights, from the
    decomposition ``scaled = _scaled_eigh(J^T J)``; infinite if that is None
    or, without absolute weights, if n <= p."""
    if scaled is None or (not absolute_weights and n <= p):
        return np.full((p, p), np.inf)
    N, evals, evecs = scaled
    # a column far smaller than the others can overflow 1/N^2: that variance
    # is infinite (and 0 * inf a NaN, which ``sigmas`` reads as infinite)
    with np.errstate(over="ignore", invalid="ignore"):
        Ainv = ((evecs / evals) @ evecs.T) / N / N[:, None]
        return Ainv if absolute_weights else Ainv * (ssr / (n - p))


def scan_arrays(x, y, what: str):
    """``x`` and ``y`` of a scan as float arrays.

    Raises DomainError, naming the fit ``what``, unless both are 1-D and of
    one length.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError(f"{what} needs 1-D x and y of equal length, "
                          f"got shapes {x.shape} and {y.shape}")
    _check_finite(x, y, what)
    return x, y


def _check_finite(x: np.ndarray, y: np.ndarray, what: str) -> None:
    """Raise DomainError, naming ``what`` and the first row of x or y that
    holds a NaN or an infinity; x is indexed by its leading axis."""
    if np.isfinite(x).all() and np.isfinite(y).all():
        return
    bad = ~np.isfinite(y)
    bad |= ~np.isfinite(x).reshape(len(x), -1).all(axis=1)
    i = int(bad.argmax())
    raise DomainError(f"{what} needs finite data: row {i} holds x = {x[i]}, y = {y[i]}")


def _checked_weights(weights, n: int) -> np.ndarray:
    """``weights`` as n floats; DomainError if there are not n of them,
    SingularModelError if one is negative or non-finite."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.size != n:
        raise DomainError(f"{w.size} weights given for {n} values of y")
    if not np.isfinite(w).all() or (w < 0).any():
        raise SingularModelError("weights must be finite and non-negative")
    return w


def line_lstsq(x, y, weights=None) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through (x, y).

    With ``weights`` the line minimises sum w_i r_i^2.  The slope is
    Sxy / Sxx, sums of products of x and y centred on their (weighted)
    means, which keeps the digits the raw normal equations lose when the
    data sit far from the origin.  Where the minimum is not unique the tie
    is broken without a numpy warning: weights that sum to zero give the
    unweighted line, and x values that all coincide (Sxx = 0) slope 0
    through the mean of y.  Raises as ``lm_fit`` does for bad weights.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = None if weights is None else _checked_weights(weights, y.size)
    total = 0.0 if w is None else float(w.sum())
    if total > 0:
        xm, ym = float(w @ x) / total, float(w @ y) / total
        dx = x - xm
        wdx = w * dx
    else:
        xm, ym = float(x.sum()) / x.size, float(y.sum()) / y.size
        wdx = dx = x - xm
    sxx = float(wdx @ dx)
    slope = float(wdx @ (y - ym)) / sxx if sxx > 0 else 0.0
    return slope, ym - slope * xm


def _smallest_step(x) -> float:
    """The smallest distance between two distinct values of ``x``; 0 if
    there are fewer than two."""
    steps = np.diff(np.sort(x, axis=None))
    steps = steps[steps > 0]
    return float(steps.min()) if steps.size else 0.0


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
    """Fit model(x, theta) -> (predictions, jacobian) to y by damped least squares.

    ``model`` is called with x as a float array and one parameter vector, and
    returns the n predictions and their (n, p) Jacobian in closed form (see
    the module docstring).  It is called once at the start and once per
    damped trial; the covariance uses the Jacobian of the final iterate.

    ``peak=(center_index, width_index)`` marks a peak-shaped model: the fit
    then stops as ``off_range`` (not converged) at the first accepted iterate
    whose center lies more than one x-span outside [min x, max x] or whose
    |width| exceeds two x-spans, span = max x - min x, or is below
    ``WIDTH_FLOOR`` times the smallest step between distinct x values, and as
    ``degenerate`` when moving the center or the width by one x-span would
    change no prediction by more than EPS * max|y| (y weighted by
    sqrt(weights) when weights are given).  Without ``peak`` neither stop
    exists.

    Raises FitRankError if there are fewer observations than parameters,
    DomainError if theta0 is empty, ``names`` does not name every parameter,
    the leading length of x or the number of weights is not the length n of
    y, or a row of x or y holds a NaN or an infinity (all checked before the
    model is called), ``peak`` does not name two
    distinct parameter indices or the model does not return
    (values, jacobian) of shapes (n,) and (n, p), and SingularModelError if
    a weight is negative or non-finite or the model or its Jacobian is
    non-finite at the start point.  A trial whose values or Jacobian are
    non-finite is rejected like any other bad step (damping increases)
    rather than aborting the fit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    theta = np.asarray(theta0, dtype=float).ravel().copy()
    n, p = y.size, theta.size
    if p == 0:
        raise DomainError("theta0 holds no parameters")
    if n < p:
        raise FitRankError(f"{n} observations cannot constrain {p} parameters")
    if names is not None and len(names) != p:
        raise DomainError(f"{len(names)} names given for {p} parameters")
    if x.ndim == 0 or len(x) != n:
        raise DomainError(f"x has {len(x) if x.ndim else 'no'} rows but y has {n} values")
    _check_finite(x, y, "lm_fit")
    sw = None if weights is None else np.sqrt(_checked_weights(weights, n))
    if peak is not None:
        try:
            center_i, width_i = map(operator.index, peak)
        except (TypeError, ValueError):
            center_i = width_i = -1
        if center_i == width_i or not (0 <= center_i < p and 0 <= width_i < p):
            raise DomainError(
                f"peak must name two distinct parameter indices in [0, {p}), got {peak!r}")
        # the two columns as a view: a slice, not an index list, which copies
        lo, hi = sorted((center_i, width_i))
        peak_cols = slice(lo, hi + 1, hi - lo)
        x_lo, x_hi = float(x.min()), float(x.max())
        x_span = x_hi - x_lo
        # no two distinct x values are closer than the smallest step, so the
        # first two bound the width floor from above, and the step itself is
        # found only for an iterate narrower than that bound
        first_gap = abs(float(x.flat[1]) - float(x.flat[0])) if x.size > 1 else 0.0
        w_bound = WIDTH_FLOOR * (first_gap or x_span)
        y_floor = EPS * float(abs(y if sw is None else y * sw).max())
    model_calls = 0

    def evaluate(th: np.ndarray):
        nonlocal model_calls
        model_calls += 1
        out = model(x, th)
        try:
            pred, jac = out
            pred = np.asarray(pred, dtype=float).ravel()
            jac = np.asarray(jac, dtype=float)
        except (TypeError, ValueError):
            pred = jac = None
        if pred is None or pred.size != n or jac.shape != (n, p):
            raise DomainError(f"model(x, theta) must return (values, jacobian) of shapes "
                              f"({n},) and ({n}, {p})")
        if sw is None:
            return pred - y, jac
        return (pred - y) * sw, jac * sw[:, None]

    r, J = evaluate(theta)
    if not (np.isfinite(r).all() and np.isfinite(J).all()):
        raise SingularModelError("non-finite model output or Jacobian at the starting point")
    rr = float(r @ r)
    cost = 0.5 * rr
    lam = 1e-3
    reason = REASON_MAX_ITER
    iterations = 0
    # the decomposition of the current J, once taken; the covariance reuses it
    scaled = None

    for iterations in range(1, max_iter + 1):
        scaled = _scaled_eigh(J.T @ J)
        if scaled is None or (peak is not None and x_span * float(
                abs(J[:, peak_cols]).max(axis=0).min()) <= y_floor):
            reason = REASON_DEGENERATE
            break
        N, evals, evecs = scaled
        g = J.T @ r
        # the cosine between r and each column of J: unchanged by rescaling y
        # or a parameter, unlike the raw gradient norm (which scales as y^2)
        bound = GRAD_TOL * math.sqrt(rr)
        if all(abs(gi) / ni <= bound for gi, ni in zip(g.tolist(), N.tolist())):
            reason = REASON_GRAD_TOL
            break
        W = evecs / N[:, None]
        Wg = W.T @ g

        accepted = False
        for _ in range(60):
            cand = theta - W @ (Wg / (evals + lam))
            rc, Jc = evaluate(cand)
            rrc = float(rc @ rc)
            cc = 0.5 * rrc
            if cc < cost and np.isfinite(Jc).all():
                accepted = True
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
        rel_decrease = (cost - cc) / max(cost, 1e-300)
        theta, r, J, rr, cost, scaled = cand, rc, Jc, rrc, cc, None
        if peak is not None:
            width = abs(theta[width_i])
            if not (x_lo - x_span <= theta[center_i] <= x_hi + x_span and width <= 2.0 * x_span
                    and (width >= w_bound or width >= WIDTH_FLOOR * _smallest_step(x))):
                reason = REASON_OFF_RANGE
                break
        lam = max(lam / 10.0, 1e-14)
        if rel_decrease < COST_TOL:
            reason = REASON_COST_TOL
            break

    ssr = 2.0 * cost
    if reason == REASON_DEGENERATE:
        cov = np.full((p, p), np.inf)
    else:
        if scaled is None:  # J was accepted after the loop's last decomposition
            scaled = _scaled_eigh(J.T @ J)
        cov = _covariance(scaled, ssr, n, p, absolute_weights=sw is not None)
    rms = math.sqrt(ssr / n)
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


# Each model fills a (p, n) array row by row and returns its transpose, a
# column-major (n, p) Jacobian as np.array(columns).T would give: a constant
# column is then one assignment rather than an array of ones.


def line_model(x, theta):
    """theta = (slope, intercept)."""
    x = np.asarray(x, dtype=float)
    jac = np.empty((2,) + x.shape)
    jac[0] = x
    jac[1] = 1.0
    return theta[0] * x + theta[1], jac.T


def gaussian_model(x, theta):
    """theta = (amplitude, center, sigma, offset)."""
    a, c, w, b = theta
    u = (np.asarray(x, dtype=float) - c) / w
    e = np.exp(-0.5 * u**2)
    ae = a * e
    jac = np.empty((4,) + u.shape)
    jac[0] = e
    jac[1] = ae * u / w
    jac[2] = ae * u * u / w
    jac[3] = 1.0
    return ae + b, jac.T


def lorentzian_model(x, theta):
    """theta = (amplitude, center, fwhm, offset); amplitude is the peak height."""
    a, c, g, b = theta
    d = np.asarray(x, dtype=float) - c
    hw = 0.5 * g
    hw2 = hw**2
    den = d**2 + hw2
    shape = hw2 / den
    slope = a * shape / den
    jac = np.empty((4,) + d.shape)
    jac[0] = shape
    jac[1] = 2.0 * slope * d
    jac[2] = slope * d * d / hw
    jac[3] = 1.0
    return a * hw2 / den + b, jac.T
