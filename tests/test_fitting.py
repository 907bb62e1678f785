"""Least-squares engine: recovery, covariance semantics, Jacobians, error paths."""
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from cryoion import csvio, fitting, metrology, qubit, shielding
from cryoion.errors import DomainError, FitRankError, SingularModelError
from cryoion.fitting import (
    DEFAULT_MAX_ITER,
    REASON_COST_TOL,
    REASON_DAMPING_EXHAUSTED,
    REASON_DEGENERATE,
    REASON_GRAD_TOL,
    REASON_MAX_ITER,
    REASON_OFF_RANGE,
    WIDTH_FLOOR,
    gaussian_model,
    line_model,
    lm_fit,
    lorentzian_model,
)
from cryoion.series import TimeSeries, seeded_rng

DEMO = Path(__file__).resolve().parent.parent / "demo"


def exp_decay_model(x, theta):
    """theta = (amplitude, rate); amplitude * exp(-rate*x) and its Jacobian."""
    e = np.exp(-theta[1] * x)
    return theta[0] * e, np.array([e, -theta[0] * e * x]).T


def test_exact_line_fit():
    x = np.array([0.0, 1.0, 2.0])
    y = 2.0 * x + 1.0
    res = lm_fit(line_model, x, y, [0.0, 0.0], names=("slope", "intercept"))
    assert res.converged
    assert res.params["slope"] == pytest.approx(2.0, abs=1e-9)
    assert res.params["intercept"] == pytest.approx(1.0, abs=1e-9)
    assert res.residual_rms == pytest.approx(0.0, abs=1e-9)


def test_noisy_exponential_within_three_sigma():
    rng = seeded_rng(42)
    x = np.linspace(0.0, 4.0, 40)
    y = np.exp(-x) * (1.0 + 0.01 * rng.standard_normal(x.size))
    res = lm_fit(exp_decay_model, x, y, [0.9, 1.1], names=("amplitude", "rate"))
    assert res.converged
    assert abs(res.params["rate"] - 1.0) < 3.0 * res.sigma("rate")


def test_coverage_of_covariance_estimate():
    # additive homoscedastic noise, unweighted fit: the s^2 (J'J)^-1 estimate
    # should put the truth inside 3 sigma in well over 99 % of repeated draws
    x = np.linspace(0.0, 4.0, 30)
    truth = np.array([1.3, -0.7])
    y0 = line_model(x, truth)[0]
    inside = 0
    n_trials = 400
    for seed in range(n_trials):
        y = y0 + 0.05 * seeded_rng(seed).standard_normal(x.size)
        res = lm_fit(line_model, x, y, [1.0, 0.0])
        ok = np.abs(res.theta - truth) < 3.0 * res.sigmas
        inside += bool(ok.all())
    assert inside / n_trials >= 0.99


@pytest.mark.parametrize("model,theta,theta0", [
    (line_model, np.array([2.0, 1.0]), np.array([1.0, 0.0])),
    (exp_decay_model, np.array([1.5, 0.8]), np.array([1.0, 1.0])),
    (gaussian_model, np.array([2.0, 1.0, 0.5, 0.2]), np.array([1.5, 0.8, 0.7, 0.0])),
    (lorentzian_model, np.array([3.0, -0.5, 1.2, 0.1]), np.array([2.0, 0.0, 2.0, 0.0])),
])
def test_noise_free_recovery_all_model_shapes(model, theta, theta0):
    x = np.linspace(-3.0, 3.0, 60)
    y = model(x, theta)[0]
    res = lm_fit(model, x, y, theta0)
    assert res.converged
    assert np.allclose(res.theta, theta, rtol=1e-6)


def test_nan_at_start_raises():
    def bad(x, theta):
        return np.full(x.shape, np.nan), np.full(x.shape + (1,), np.nan)

    with pytest.raises(SingularModelError):
        lm_fit(bad, np.arange(4.0), np.arange(4.0), [1.0])


def test_more_parameters_than_points_raises():
    with pytest.raises(FitRankError):
        lm_fit(line_model, [1.0], [2.0], [0.0, 0.0])


@pytest.mark.parametrize("names", [("a",), ("a", "b", "c")])
def test_names_must_match_parameter_count(names):
    x = np.arange(5.0)
    with pytest.raises(DomainError, match="parameters"):
        lm_fit(line_model, x, x, [1.0, 0.0], names=names)


def test_bad_weights_rejected():
    x = np.arange(5.0)
    with pytest.raises(SingularModelError):
        lm_fit(line_model, x, x, [1.0, 0.0], weights=[1, 1, -1, 1, 1])


def test_weight_scaling_scales_covariance():
    rng = seeded_rng(7)
    x = np.linspace(0.0, 1.0, 25)
    y = line_model(x, [2.0, 1.0])[0] + 0.02 * rng.standard_normal(x.size)
    w = np.full(x.size, 3.0)
    c = 4.0
    res1 = lm_fit(line_model, x, y, [2.0, 1.0], weights=w)
    res2 = lm_fit(line_model, x, y, [2.0, 1.0], weights=c * w)
    assert np.allclose(res2.covariance, res1.covariance / c, rtol=1e-6)


def test_unweighted_covariance_uses_residual_scale():
    # doubling the noise on the same design doubles the parameter sigmas
    x = np.linspace(0.0, 1.0, 50)
    noise = seeded_rng(11).standard_normal(x.size)
    y1 = line_model(x, [1.0, 0.0])[0] + 0.01 * noise
    y2 = line_model(x, [1.0, 0.0])[0] + 0.02 * noise
    r1 = lm_fit(line_model, x, y1, [1.0, 0.0])
    r2 = lm_fit(line_model, x, y2, [1.0, 0.0])
    assert np.allclose(r2.sigmas, 2.0 * r1.sigmas, rtol=1e-6)


def test_covariance_symmetric_psd_when_converged():
    rng = seeded_rng(3)
    x = np.linspace(-2.0, 2.0, 40)
    y = gaussian_model(x, [1.0, 0.1, 0.6, 0.05])[0] + 0.01 * rng.standard_normal(x.size)
    res = lm_fit(gaussian_model, x, y, [0.8, 0.0, 0.5, 0.0])
    assert res.converged
    assert res.iterations <= 200
    cov = res.covariance
    assert np.allclose(cov, cov.T, rtol=1e-9)
    assert np.all(np.linalg.eigvalsh(cov) > -1e-18)
    assert res.residual_rms >= 0.0


def test_degenerate_direction_gives_infinite_covariance():
    # amplitude*1 + offset is flat in the difference direction: unconstrained
    def flat(x, theta):
        return theta[0] + theta[1] + 0.0 * x, np.ones((x.size, 2))

    res = lm_fit(flat, np.arange(6.0), np.full(6, 2.0), [1.0, 1.0])
    assert np.all(np.isinf(res.covariance))
    assert res.reason == REASON_DEGENERATE and not res.converged


def test_vanished_peak_stops_degenerate():
    # noise-free flat data: the amplitude shrinks to 1.6e-17, the offset
    # absorbs it and r is exactly zero.  The center and width columns are then
    # tiny but not zero, so only the span-relative rule of a peak fit sees that
    # they move no prediction; without ``peak`` the fit stops on grad_tol with
    # zero sigmas
    f = np.linspace(100.0, 200.0, 60)
    y = np.full(f.size, 0.5)
    theta0 = [1.0, 100.0, 20.0, 0.5]
    res = lm_fit(lorentzian_model, f, y, theta0, peak=(1, 2))
    assert (res.reason, res.converged, res.residual_rms) == (REASON_DEGENERATE, False, 0.0)
    assert np.all(np.isinf(res.sigmas))
    free = lm_fit(lorentzian_model, f, y, theta0)
    assert free.params == res.params
    assert free.reason == REASON_GRAD_TOL and np.all(free.sigmas == 0.0)


def test_no_signal_gaussian_run_off_stops_degenerate():
    # flat Poisson counts: the best "Gaussian plus offset" is a broad cap whose
    # amplitude grows without bound while the offset cancels it, so the fit
    # runs off toward infinity; once the scaled normal matrix is numerically
    # singular the engine stops instead of iterating on to max_iter
    px = np.arange(40.0)
    counts = seeded_rng(8).poisson(50.0, px.size).astype(float)
    # the start guess of metrology.gaussian_profile_fit: half-maximum span
    b0, a0 = counts.min(), counts.max() - counts.min()
    above = np.nonzero(counts - b0 > 0.5 * a0)[0]
    theta0 = [a0, float(np.argmax(counts)), (above[-1] - above[0]) / 2.355, b0]
    res = lm_fit(gaussian_model, px, counts, theta0)
    assert res.reason == REASON_DEGENERATE
    assert not res.converged
    assert np.all(np.isinf(res.covariance))
    assert res.iterations < DEFAULT_MAX_ITER // 4
    assert res.theta[0] > 0.0 > res.theta[3]


def test_huge_parameter_scale_difference_is_not_degenerate():
    # columns differing by ~1e11 in magnitude must still invert cleanly
    x = np.linspace(-8e-6, 8e-6, 17)
    theta = np.array([6.0e5, 3.0e-6])

    def model(xx, th):
        e = np.exp(-((xx / th[1]) ** 2))
        return th[0] * e, np.array([e, 2.0 * th[0] * e * (xx / th[1]) ** 2 / th[1]]).T

    y = model(x, theta)[0]
    res = lm_fit(model, x, y, np.array([5.0e5, 4.0e-6]))
    assert res.converged
    assert np.all(np.isfinite(res.covariance))
    assert np.allclose(res.theta, theta, rtol=1e-6)


def _model_of(fit, *args, **kwargs):
    """The model function a public fit hands to lm_fit.

    The fits import ``lm_fit`` when they run, so the spy replaces the
    binding in ``cryoion.fitting`` while the fit runs.
    """
    seen = []

    def spy(model, *a, **k):
        seen.append(model)
        return lm_fit(model, *a, **k)

    with mock.patch.object(fitting, "lm_fit", spy):
        fit(*args, **kwargs)
    return seen[0]


def _builtin_case(name):
    """(model, x, theta) for every model shape the package fits."""
    t = np.linspace(0.0, 0.03, 12)
    if name == "line":
        return line_model, np.linspace(0.0, 4.0, 9), np.array([2.14, 0.31])
    if name == "exp":  # this file's own model, which the recovery tests fit
        return exp_decay_model, np.linspace(0.0, 4.0, 9), np.array([0.97, 1.3])
    if name == "gaussian":
        return gaussian_model, np.arange(33.0), np.array([950.0, 16.2, 2.4, 50.0])
    if name == "lorentzian":
        return lorentzian_model, np.linspace(170.0, 190.0, 41), np.array([1.0, 180.1, 2.2, 0.01])
    if name in ("ramsey_gaussian", "ramsey_exponential"):
        shape = qubit.RAMSEY_GAUSSIAN if name == "ramsey_gaussian" else qubit.RAMSEY_EXPONENTIAL
        model = _model_of(qubit.ramsey_contrast_fit,
                          t, 0.97 * np.exp(-((t / 0.0182) ** 2)), shape=shape)
        return model, t, np.array([0.96, 0.0181])
    if name == "waist":
        x = np.linspace(-8e-6, 8e-6, 17)
        model = _model_of(qubit.waist_from_rabi_scan, x, 6.3e5 * np.exp(-((x / 3e-6) ** 2)))
        return model, x, np.array([6.3e5, 1.2e-7, 3.1e-6])
    f = np.geomspace(1.0, 400.0, 10)
    if name == "skin":
        return shielding._skin_model, f, np.array([14.2])
    return shielding._contact_model, f, np.array([-12.0, 1.3])


#: each model shape written out independently in mpmath, as f(x, *theta)
_MP_SHAPES = {
    "line": lambda x, a, b: a * x + b,
    "exp": lambda x, a, k: a * mpmath.exp(-k * x),
    "gaussian": lambda x, a, c, w, b: a * mpmath.exp(-((x - c) / w) ** 2 / 2) + b,
    "lorentzian": lambda x, a, c, g, b: a * (g / 2) ** 2 / ((x - c) ** 2 + (g / 2) ** 2) + b,
    "ramsey_gaussian": lambda t, c0, t1e: c0 * mpmath.exp(-((t / t1e) ** 2)),
    "ramsey_exponential": lambda t, c0, t1e: c0 * mpmath.exp(-t / t1e),
    "waist": lambda x, a, c, w: a * mpmath.exp(-(((x - c) / w) ** 2)),
    "skin": lambda f, a: -a * mpmath.sqrt(f),
    "contact": lambda f, b, s: b - 20 * s * mpmath.log10(f),
}


@pytest.mark.parametrize("name", list(_MP_SHAPES))
def test_closed_form_jacobian_matches_mpmath(name):
    # the model's values agree with the independent mpmath form, and every
    # Jacobian entry with that form's numeric partial derivative at 30 digits
    model, x, theta = _builtin_case(name)
    values, jac = model(x, theta)
    shape = _MP_SHAPES[name]
    p = theta.size
    assert jac.shape == (x.size, p)
    with mpmath.workdps(30):
        point = [mpmath.mpf(float(v)) for v in theta]
        for i, xi in enumerate(x):
            exact = shape(mpmath.mpf(float(xi)), *point)
            assert values[i] == pytest.approx(float(exact), rel=1e-14, abs=1e-300)
            for j in range(p):
                order = tuple(int(k == j) for k in range(p))
                jac_mp = mpmath.diff(lambda *th: shape(mpmath.mpf(float(xi)), *th), point, order)
                assert jac[i, j] == pytest.approx(float(jac_mp), rel=1e-13, abs=1e-300), (i, j)


def test_model_without_jacobian_is_domain_error():
    x = np.arange(6.0)
    for bad in (lambda xv, th: th[0] * xv,
                lambda xv, th: (th[0] * xv,),
                lambda xv, th: float(th[0]),
                lambda xv, th: (th[0] * xv, None)):
        with pytest.raises(DomainError, match="jacobian"):
            lm_fit(bad, x, x, [1.0, 0.5])


def test_jacobian_of_wrong_shape_is_domain_error():
    x = np.arange(6.0)
    ones = np.ones_like(x)
    for jac in (np.array([x, ones]),                  # (p, n) instead of (n, p)
                x[:, None],                            # one column for two parameters
                np.array([x, ones, ones]).T,           # three columns
                np.array([x, ones]).T[:-1],            # one row short
                x):                                    # a vector
        with pytest.raises(DomainError, match="jacobian"):
            lm_fit(lambda xv, th, jac=jac: (th[0] * xv + th[1], jac), x, x, [1.0, 0.5])


def test_one_model_call_per_jacobian():
    # every call returns values and Jacobian at one parameter vector: one at
    # the start and one per damped trial, and none again at the final iterate
    # for the covariance, so no parameter vector is ever evaluated twice
    thetas = []

    def counting(x, theta):
        thetas.append(tuple(theta))
        return gaussian_model(x, theta)

    x = np.linspace(-3.0, 3.0, 40)
    y = gaussian_model(x, [2.0, 0.3, 0.7, 0.1])[0] + 0.01 * seeded_rng(5).standard_normal(x.size)
    res = lm_fit(counting, x, y, [1.5, 0.0, 1.0, 0.0])
    assert res.converged
    assert res.model_calls == len(thetas) == len(set(thetas))
    assert thetas[0] == (1.5, 0.0, 1.0, 0.0)
    assert tuple(res.theta) in thetas
    assert res.iterations + 1 <= res.model_calls


def test_max_iter_is_reported():
    x = np.linspace(-3.0, 3.0, 40)
    y = gaussian_model(x, [2.0, 0.3, 0.7, 0.1])[0]
    res = lm_fit(gaussian_model, x, y, [1.5, 0.0, 1.0, 0.0], max_iter=1)
    assert res.reason == REASON_MAX_ITER
    assert not res.converged
    assert res.iterations == 1


def test_stopping_reasons():
    x = np.linspace(0.0, 4.0, 30)
    noisy = line_model(x, [1.3, -0.7])[0] + 0.05 * seeded_rng(1).standard_normal(x.size)
    res = lm_fit(line_model, x, noisy, [1.0, 0.0])
    assert res.converged and res.reason == REASON_COST_TOL
    # noise-free with large amplitude: from this start the exact Jacobian
    # walks onto the truth bit for bit, where r = 0 passes the gradient test
    g = np.linspace(-3.0, 3.0, 60)
    clean = gaussian_model(g, [950.0, 0.2, 0.8, 50.0])[0]
    exact = lm_fit(gaussian_model, g, clean, [800.0, 0.0, 1.0, 40.0])
    assert exact.converged and exact.reason == REASON_GRAD_TOL
    assert exact.residual_rms == 0.0 and exact.theta.tolist() == [950.0, 0.2, 0.8, 50.0]
    # from this one the cost bottoms out at rounding error while the gradient
    # is still above GRAD_TOL, so no damped step helps
    near = lm_fit(gaussian_model, g, clean, [807.5, 0.0, 1.0, 40.0])
    assert near.converged and near.reason == REASON_DAMPING_EXHAUSTED
    assert 0.0 < near.residual_rms < 1e-13
    # starting exactly at the minimum of an exactly representable problem
    at_min = lm_fit(line_model, [0.0, 1.0, 2.0], [1.0, 3.0, 5.0], [2.0, 1.0])
    assert at_min.converged and at_min.reason == REASON_GRAD_TOL and at_min.iterations == 1


def _recording(model):
    """``model`` wrapped to keep the Jacobian it returns at each parameter vector."""
    jacobians = {}

    def wrapped(x, theta):
        values, jac = model(x, theta)
        jacobians[tuple(theta)] = np.array(values, dtype=float), np.array(jac, dtype=float)
        return values, jac

    return wrapped, jacobians


def _fresh_covariance(res, jacobians, y, weights=None):
    """``_covariance`` of a fresh decomposition of the final iterate's Jacobian."""
    values, jac = jacobians[tuple(res.theta)]
    r = values - y
    if weights is not None:
        sw = np.sqrt(weights)
        r, jac = r * sw, jac * sw[:, None]
    ssr = 2.0 * (0.5 * float(r @ r))
    return fitting._covariance(fitting._scaled_eigh(jac.T @ jac), ssr, y.size, res.theta.size,
                               weights is not None)


def _flat(x, theta):
    return theta[0] + theta[1] + 0.0 * x, np.ones((x.size, 2))


_g = np.linspace(-3.0, 3.0, 60)
_x = np.linspace(0.0, 4.0, 30)
_noisy = line_model(_x, [1.3, -0.7])[0] + 0.05 * seeded_rng(1).standard_normal(_x.size)
#: reason -> (model, x, y, theta0, keywords); the runs of test_stopping_reasons
#: and friends, one per stop, some weighted
_STOPS = {
    REASON_COST_TOL: (line_model, _x, _noisy, [1.0, 0.0], {}),
    "cost_tol weighted": (line_model, _x, _noisy, [1.0, 0.0],
                          {"weights": np.linspace(1.0, 3.0, _x.size)}),
    REASON_GRAD_TOL: (gaussian_model, _g, gaussian_model(_g, [950.0, 0.2, 0.8, 50.0])[0],
                      [800.0, 0.0, 1.0, 40.0], {}),
    "grad_tol at the start": (line_model, np.array([0.0, 1.0, 2.0]), np.array([1.0, 3.0, 5.0]),
                              [2.0, 1.0], {"weights": np.array([1.0, 2.0, 4.0])}),
    REASON_DAMPING_EXHAUSTED: (gaussian_model, _g, gaussian_model(_g, [950.0, 0.2, 0.8, 50.0])[0],
                               [807.5, 0.0, 1.0, 40.0], {}),
    REASON_MAX_ITER: (gaussian_model, _g, gaussian_model(_g, [2.0, 0.3, 0.7, 0.1])[0],
                      [1.5, 0.0, 1.0, 0.0], {"max_iter": 1}),
    REASON_DEGENERATE: (_flat, np.arange(6.0), np.full(6, 2.0), [1.0, 1.0], {}),
}


@pytest.mark.parametrize("case", list(_STOPS))
def test_covariance_is_a_fresh_covariance_of_the_final_jacobian(case):
    # the engine reuses the loop's decomposition of the final Jacobian where
    # it has one (grad_tol, damping_exhausted) and takes a new one otherwise;
    # either way the covariance is bit for bit what a fresh one gives
    model, x, y, theta0, keywords = _STOPS[case]
    wrapped, jacobians = _recording(model)
    res = lm_fit(wrapped, x, y, theta0, **keywords)
    assert res.reason == case.split()[0]
    expected = _fresh_covariance(res, jacobians, y, keywords.get("weights"))
    assert res.covariance.tobytes() == expected.tobytes()


def test_off_range_covariance_is_a_fresh_covariance_of_the_final_jacobian(monkeypatch):
    # a degenerate stop of a vanished peak reports infinite sigmas by rule;
    # the off_range stop keeps the covariance of its last iterate
    wrapped, jacobians = _recording(lorentzian_model)
    monkeypatch.setattr(metrology, "lorentzian_model", wrapped)
    x, y = _nosignal_scan("linewidth", seeded_rng(47))
    res = metrology.lorentzian_linewidth_fit(x, y).fit
    assert res.reason == REASON_OFF_RANGE
    assert res.covariance.tobytes() == _fresh_covariance(res, jacobians, y).tobytes()


_not_positive_and_finite = (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
                            | st.floats(max_value=0.0, allow_nan=False))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), p=st.integers(1, 5), bad=_not_positive_and_finite)
def test_scaled_eigh_is_none_for_a_diagonal_entry_not_positive_and_finite(data, p, bad):
    entries = st.floats(min_value=-1e300, max_value=1e300)
    A = np.array(data.draw(st.lists(st.lists(entries, min_size=p, max_size=p),
                                    min_size=p, max_size=p)))
    A = A + A.T
    A[np.diag_indices(p)] = data.draw(st.lists(st.floats(1e-300, 1e300), min_size=p, max_size=p))
    A[(data.draw(st.integers(0, p - 1)),) * 2] = bad
    assert fitting._scaled_eigh(A) is None


def test_x_of_another_length_than_y_is_a_domain_error_before_the_model_runs():
    model = mock.Mock(side_effect=line_model)
    for x, rows in ((np.arange(4.0), "4"), (np.arange(6.0), "6"),
                    (np.arange(12.0).reshape(6, 2), "6"), (3.0, "no")):
        with pytest.raises(DomainError, match=f"x has {rows} rows but y has 5 values"):
            lm_fit(model, x, np.arange(5.0), [1.0, 0.0])
    model.assert_not_called()


def test_no_parameters_is_a_domain_error_before_the_model_runs():
    model = mock.Mock(side_effect=lambda x, th: (0.0 * x, np.zeros((x.size, 0))))
    with pytest.raises(DomainError, match="theta0 holds no parameters"):
        lm_fit(model, np.arange(3.0), np.arange(3.0), [])
    model.assert_not_called()


@pytest.mark.parametrize("weights", [[1.0] * 4, [1.0] * 6, [[1.0] * 5] * 2])
def test_weights_of_another_length_than_y_are_a_domain_error_before_the_model_runs(weights):
    model = mock.Mock(side_effect=line_model)
    with pytest.raises(DomainError, match=f"{np.size(weights)} weights given for 5 values of y"):
        lm_fit(model, np.arange(5.0), np.arange(5.0), [1.0, 0.0], weights=weights)
    model.assert_not_called()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_stay_singular(bad):
    x = np.arange(5.0)
    with pytest.raises(SingularModelError, match="finite and non-negative"):
        lm_fit(line_model, x, x, [1.0, 0.0], weights=[1.0, 1.0, bad, 1.0, 1.0])


#: each public scan fit on (x, y)
_SCAN_FITS = {
    "heating": qubit.heating_rate_fit,
    "ramsey": qubit.ramsey_contrast_fit,
    "waist": qubit.waist_from_rabi_scan,
    "linewidth": metrology.lorentzian_linewidth_fit,
}


@pytest.mark.parametrize("fit", list(_SCAN_FITS))
@pytest.mark.parametrize("shapes", [((12,), (13,)), ((13,), (12,)), ((6, 2), (6, 2)),
                                    ((12,), (6, 2)), ((6, 2), (12,)), ((), (12,))])
def test_scan_fits_need_1d_x_and_y_of_equal_length(fit, shapes):
    # more contrasts than wait times was an IndexError, 2-D heating data
    # numpy's ambiguous truth value and other 2-D scans a TypeError
    x_shape, y_shape = shapes
    x = np.linspace(0.1, 1.0, int(np.prod(x_shape))).reshape(x_shape)
    y = np.exp(-np.linspace(0.0, 2.0, int(np.prod(y_shape))) ** 2).reshape(y_shape)
    with pytest.raises(DomainError, match="1-D x and y of equal length"):
        _SCAN_FITS[fit](x, y)


_moderate = st.floats(min_value=-50.0, max_value=50.0)
_factor = st.floats(min_value=0.01, max_value=100.0)


@settings(max_examples=40, deadline=None)
@given(slope=_moderate, intercept=_moderate, shift=st.floats(-1e3, 1e3),
       seed=st.integers(0, 2**16))
def test_shifting_y_moves_line_intercept(slope, intercept, shift, seed):
    x = np.linspace(0.0, 2.0, 15)
    y = line_model(x, [slope, intercept])[0] + 0.1 * seeded_rng(seed).standard_normal(x.size)
    base = lm_fit(line_model, x, y, [0.0, 0.0])
    moved = lm_fit(line_model, x, y + shift, [0.0, 0.0])
    scale = 1.0 + abs(slope) + abs(intercept) + abs(shift)
    assert moved.params["theta0"] == pytest.approx(base.params["theta0"], abs=1e-7 * scale)
    assert moved.params["theta1"] == pytest.approx(base.params["theta1"] + shift,
                                                   abs=1e-7 * scale)


@settings(max_examples=40, deadline=None)
@given(amplitude=_factor, offset=_moderate, s=_factor, negate=st.booleans(),
       seed=st.integers(0, 2**16))
# an absolute gradient stop ended the scaled fit one step early here
@example(amplitude=0.01171875, offset=0.0, s=0.01171875, negate=False, seed=2157)
def test_scaling_y_scales_gaussian_amplitude_and_offset(amplitude, offset, s, negate, seed):
    s = -s if negate else s
    x = np.linspace(-3.0, 3.0, 41)
    y = gaussian_model(x, [amplitude, 0.2, 0.8, offset])[0]
    y = y + 0.01 * amplitude * seeded_rng(seed).standard_normal(x.size)
    theta0 = np.array([0.8 * amplitude, 0.0, 1.0, offset + 0.1 * amplitude])
    base = lm_fit(gaussian_model, x, y, theta0)
    scaled = lm_fit(gaussian_model, x, s * y, theta0 * [s, 1.0, 1.0, s])
    a, c, w, b = base.theta
    tol = 1e-6 * (abs(a) + abs(b))
    assert scaled.theta[0] == pytest.approx(s * a, abs=abs(s) * tol)
    assert scaled.theta[3] == pytest.approx(s * b, abs=abs(s) * tol)
    assert scaled.theta[1] == pytest.approx(c, abs=1e-6 * abs(w))
    assert scaled.theta[2] == pytest.approx(w, rel=1e-6)


def _line_jacobian(x, theta):
    return np.column_stack([x, np.ones_like(x)])


def _gaussian_jacobian(x, theta):
    a, c, w, _ = theta
    u = (x - c) / w
    e = np.exp(-0.5 * u * u)
    return np.column_stack([e, a * e * u / w, a * e * u * u / w, np.ones_like(x)])


def _lorentzian_jacobian(x, theta):
    a, c, g, _ = theta
    hw = 0.5 * g
    d = (x - c) ** 2 + hw**2
    return np.column_stack([hw**2 / d, 2.0 * a * hw**2 * (x - c) / d**2,
                            a * hw * (x - c) ** 2 / d**2, np.ones_like(x)])


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(["line", "gaussian", "lorentzian"]),
       amplitude=st.floats(0.5, 100.0), negate=st.booleans(), center=st.floats(-1.0, 1.0),
       width=st.floats(0.0, 1.0), offset=_moderate,
       start=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       seed=st.integers(0, 2**16))
def test_well_posed_fits_match_scipy_least_squares(shape, amplitude, negate, center, width,
                                                   offset, start, seed):
    # well-posed: a peak well inside the scan, 1 % noise and a start within
    # 20 % of the truth (a line starts at zero); the oracle is scipy's LM with
    # an analytic Jacobian, started at the truth, at its tightest tolerances
    noise = seeded_rng(seed).standard_normal
    s = np.asarray(start)
    if shape == "line":
        model, jacobian = line_model, _line_jacobian
        truth = np.array([amplitude * (-1.0 if negate else 1.0), offset])
        x = np.linspace(0.0, 2.0, 15)
        y = model(x, truth)[0] + 0.1 * noise(x.size)
        theta0 = np.zeros(2)
        scale = np.full(2, 1.0 + np.abs(truth).sum())
    else:
        a = -amplitude if negate else amplitude
        if shape == "gaussian":
            model, jacobian = gaussian_model, _gaussian_jacobian
            w = 0.3 + 1.2 * width
            x = np.linspace(-3.0, 3.0, 41)
        else:
            model, jacobian = lorentzian_model, _lorentzian_jacobian
            w = 0.5 + 2.5 * width
            x = np.linspace(-6.0, 6.0, 61)
        truth = np.array([a, center, w, offset])
        y = model(x, truth)[0] + 0.01 * amplitude * noise(x.size)
        theta0 = truth + 0.2 * s * [a, w, w, amplitude]
        scale = np.array([amplitude + abs(offset), w, w, amplitude + abs(offset)])
    res = lm_fit(model, x, y, theta0)
    if shape != "line":
        # the off_range stop never fires on a well-posed peak fit
        peaked = lm_fit(model, x, y, theta0, peak=(1, 2))
        assert peaked.params == res.params
        assert np.array_equal(peaked.covariance, res.covariance)
        assert (peaked.reason, peaked.iterations, peaked.model_calls) == (
            res.reason, res.iterations, res.model_calls)
    oracle = least_squares(lambda th: model(x, th)[0] - y, truth, jac=lambda th: jacobian(x, th),
                           method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert res.reason != REASON_DEGENERATE
    assert res.converged
    assert np.all(np.abs(res.theta - oracle.x) <= 1e-7 * scale)


# ---------------------------------------------------------------------------
# the off_range stop of peak fits
# ---------------------------------------------------------------------------

#: rows per no-signal scan of each peak family, drawn log-uniformly
_NOSIGNAL_ROWS = {"waist": (5, 60), "image": (24, 400), "linewidth": (25, 400)}


def _nosignal_scan(family, rng):
    """(x, y) of a pure-noise scan shaped like a real one of ``family``.

    Waist scans are Rabi rates over about 5 waists of position (metres),
    image profiles Poisson counts over pixels and linewidth spectra a flat
    floor with 2 % noise over 12 line widths (hertz).
    """
    lo, hi = _NOSIGNAL_ROWS[family]
    rows = int(round(np.exp(rng.uniform(np.log(lo), np.log(hi)))))
    if family == "waist":
        w = rng.uniform(2e-6, 10e-6)
        x = np.linspace(-2.5 * w, 2.5 * w, rows) + rng.uniform(-0.3, 0.3) * w
        peak = 2 * np.pi * rng.uniform(50e3, 200e3)
        return x, np.abs(rng.normal(loc=0.05 * peak, scale=0.01 * peak, size=rows))
    if family == "image":
        return np.arange(rows, dtype=float), rng.poisson(50.0, size=rows).astype(float)
    fwhm = rng.uniform(0.5, 5.0)
    f0 = rng.uniform(150.0, 250.0)
    f = np.linspace(f0 - 6.0 * fwhm, f0 + 6.0 * fwhm, rows) + rng.uniform(-0.3, 0.3) * fwhm
    return f, 0.01 * (1.0 + rng.normal(scale=0.02, size=rows))


def _peak_fit(family, x, y):
    """The package's fit of ``family`` on (x, y): (FitResult, unconstrained)."""
    if family == "waist":
        fit = qubit.waist_from_rabi_scan(x, y)
    elif family == "image":
        fit = metrology.gaussian_profile_fit(metrology.ImageProfile(pixel_counts=y))
    else:
        fit = metrology.lorentzian_linewidth_fit(x, y)
    return fit.fit, fit.unconstrained


def test_no_signal_waist_scan_stops_off_range():
    # without the stop this scan runs all 200 iterations while centre and
    # waist drift to millimetres on a 21 um scan
    x, y = _nosignal_scan("waist", seeded_rng(0))
    res, unconstrained = _peak_fit("waist", x, y)
    assert res.reason == REASON_OFF_RANGE
    assert not res.converged and unconstrained
    assert res.iterations < DEFAULT_MAX_ITER // 20
    span = x.max() - x.min()
    assert (not x.min() - span <= res.params["center"] <= x.max() + span
            or abs(res.params["waist"]) > 2.0 * span)


@pytest.mark.parametrize("arrangement", ["scanned", "shuffled", "each twice"])
def test_no_signal_linewidth_shrinking_onto_one_sample_stops_off_range(arrangement):
    # on this noise spectrum the fwhm shrinks onto one sample while the
    # centre stays in the band, so neither the span bounds nor the degenerate
    # stop fire: the fit ran all 200 iterations and ended 0.034 frequency
    # steps wide.  It stops once the fwhm is below a quarter of the smallest
    # step, also where the first two frequencies are not one step apart
    x, y = _nosignal_scan("linewidth", seeded_rng(47))
    step = np.diff(x).min()
    if arrangement == "shuffled":
        order = seeded_rng(1).permutation(x.size)
        x, y = x[order], y[order]
    elif arrangement == "each twice":
        x, y = np.repeat(x, 2), np.repeat(y, 2)
    res, unconstrained = _peak_fit("linewidth", x, y)
    assert (res.reason, unconstrained) == (REASON_OFF_RANGE, True)
    assert res.iterations < DEFAULT_MAX_ITER // 2
    assert abs(res.params["fwhm"]) < WIDTH_FLOOR * step
    assert x.min() <= res.params["center"] <= x.max()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), max_size=30))
def test_smallest_step_is_the_closest_pair_of_distinct_values(values):
    # the width floor's step, in any order and with repeated values
    gaps = [abs(a - b) for a in values for b in values if a != b]
    assert fitting._smallest_step(np.array(values)) == min(gaps, default=0.0)


def test_no_signal_peak_fits_stay_within_the_iteration_budget():
    # without the stop these scans take 66 (waist), 45 (image) and 55
    # (linewidth) iterations on average, and 6 waist fits run to max_iter
    rng = seeded_rng(17)
    iterations = {}
    for family in _NOSIGNAL_ROWS:
        for _ in range(20):
            res, unconstrained = _peak_fit(family, *_nosignal_scan(family, rng))
            iterations.setdefault(family, []).append(res.iterations)
            if res.reason == REASON_OFF_RANGE:
                assert unconstrained
    assert max(iterations["waist"]) < DEFAULT_MAX_ITER
    budget = {"waist": 10, "image": 35, "linewidth": 40}
    for family, counts in iterations.items():
        assert np.mean(counts) < budget[family], family


def test_peak_must_name_two_distinct_parameters():
    x = np.arange(8.0)
    y = gaussian_model(x, [1.0, 3.5, 1.2, 0.1])[0]
    for bad in [(1, 1), (1, 4), (-1, 2), (1,), (1, 2, 3), ("a", 2), (1.0, 2), 1]:
        with pytest.raises(DomainError, match="peak"):
            lm_fit(gaussian_model, x, y, [1.0, 3.0, 1.0, 0.0], peak=bad)


def test_zero_span_waist_scan_stops_degenerate_before_any_step():
    # every position equal: x spans nothing, so the fit stops as degenerate
    # before it accepts a step and the off_range bounds are never compared
    res, unconstrained = _peak_fit("waist", np.full(5, 1e-6),
                                   np.array([1.0, 2.0, 3.0, 2.0, 1.0]))
    assert (res.reason, res.iterations, unconstrained) == (REASON_DEGENERATE, 1, True)


def _waist_shape():
    """The Rabi-rate profile that ``qubit.waist_from_rabi_scan`` fits."""
    x = np.linspace(-2.0, 2.0, 9)
    return _model_of(qubit.waist_from_rabi_scan, x, np.exp(-(x**2)))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["waist", "image", "linewidth"]), seed=st.integers(0, 2**16),
       x_scale=st.floats(0.1, 10.0), x_shift=st.floats(-10.0, 10.0),
       y_scale=st.floats(0.01, 100.0))
def test_off_range_stop_is_unchanged_by_affine_x_and_scaled_y(family, seed, x_scale, x_shift,
                                                               y_scale):
    # the bounds are relative to the x span, so a no-signal fit stops at the
    # same iterate in any units.  The model is fitted directly so that the
    # image's pixel axis can move too.  LM itself is equivariant only up to
    # rounding, which a slow drift over tens of iterations can turn into a
    # stop one iteration earlier or later, so the property covers the fits
    # that stop within 20 iterations
    x, y = _nosignal_scan(family, seeded_rng(seed))
    model = {"waist": _waist_shape(), "image": gaussian_model,
             "linewidth": lorentzian_model}[family]

    def fit(xv, yv):
        i0 = int(np.argmax(yv))
        span = xv.max() - xv.min()
        theta0 = [yv[i0], xv[i0], span / 4.0] + ([] if family == "waist" else [yv.min()])
        return lm_fit(model, xv, yv, theta0, peak=(1, 2))

    base = fit(x, y)
    assume(base.reason == REASON_OFF_RANGE and base.iterations <= 20)
    moved = fit(x_scale * x + x_shift * (x.max() - x.min()), y_scale * y)
    assert (moved.reason, moved.iterations) == (base.reason, base.iterations)


def _waist_scan(scan):
    """(positions in metres, Rabi rates) of the demo scan, or of a seeded
    signal scan over about 5 waists with 1 % noise, as the benchmark draws."""
    if scan == "demo":
        table = csvio.read_table(str(DEMO / "waist_scan.csv"), ("position_m", "rabi_rad_s"))
        return table["position_m"], table["rabi_rad_s"]
    rng = seeded_rng(scan)
    rows = int(rng.integers(5, 61))
    w = rng.uniform(2e-6, 10e-6)
    x = np.linspace(-2.5 * w, 2.5 * w, rows) + rng.uniform(-0.3, 0.3) * w
    peak = 2 * np.pi * rng.uniform(50e3, 200e3)
    return x, peak * np.exp(-((x / w) ** 2)) * (1 + rng.normal(scale=0.01, size=rows))


_binary = st.integers(-20, 30).map(lambda k: 2.0**k)


@settings(max_examples=40, deadline=None)
@given(scan=st.integers(0, 2**16), x_scale=_binary, y_scale=_binary)
# at a Jacobian step floor of 1e-8 the demo waist in metres depended on the
# length unit: its sigma moved by 6.9e-6 (relative) in micrometres
@example(scan="demo", x_scale=1e6, y_scale=1.0)
@example(scan="demo", x_scale=2.0**20, y_scale=2.0**-10)
def test_waist_fit_is_unit_free(scan, x_scale, y_scale):
    # the same scan with positions in metres and in other units, and with
    # the rates scaled, stops by the same rule at the same iteration, and its
    # parameters and sigmas scale with the units.  Binary factors scale every
    # operation of the fit exactly.  A decimal factor such as 1e6 rounds x,
    # and on about 3 % of scans a trial that lowers the cost only at rounding
    # level is then accepted in one unit and rejected in the other, so only
    # the demo scan is drawn in micrometres
    x, y = _waist_scan(scan)
    base = qubit.waist_from_rabi_scan(x, y).fit
    moved = qubit.waist_from_rabi_scan(x_scale * x, y_scale * y).fit
    assert (moved.reason, moved.iterations) == (base.reason, base.iterations)
    scale = np.array([y_scale, x_scale, x_scale])
    np.testing.assert_allclose(moved.theta, scale * base.theta, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(moved.sigmas, scale * base.sigmas, rtol=1e-12, atol=0.0)


def _waist_jacobian(x, theta):
    a, c, w = theta
    u = (x - c) / w
    e = np.exp(-(u**2))
    return np.column_stack([e, 2.0 * a * e * u / w, 2.0 * a * e * u * u / w])


def test_demo_waist_is_the_least_squares_minimum():
    # the oracle is scipy's LM with its own analytic Jacobian, in micrometres,
    # at its tightest tolerances.  Near the minimum the cost is flat to
    # rounding over about 5e-10 of the waist (a 40-digit Gauss-Newton puts
    # the minimum 6.4e-10 from the package's answer); the parent's numeric
    # Jacobian stopped 7.3e-8 away
    x, y = _waist_scan("demo")
    fit = qubit.waist_from_rabi_scan(x, y)
    xu = 1e6 * x
    start = [float(y.max()), 0.0, 3.0]
    oracle = least_squares(
        lambda th: th[0] * np.exp(-(((xu - th[1]) / th[2]) ** 2)) - y, start,
        jac=lambda th: _waist_jacobian(xu, th), method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    assert fit.fit.converged and not fit.unconstrained
    assert fit.profile.waist == pytest.approx(1e-6 * oracle.x[2], rel=1e-9)
    assert fit.profile.center == pytest.approx(1e-6 * oracle.x[1], abs=1e-9 * np.ptp(x))


# ---------------------------------------------------------------------------
# linear fits: a closed-form start that lm_fit confirms in one iteration
# ---------------------------------------------------------------------------


def _bench_scan(gen, family, seed, signal):
    """The columns of one scan of ``family`` as the benchmark draws it from ``seed``."""
    rng = seeded_rng(seed)
    rows = int(rng.integers(*gen.SCAN_ROWS[family], endpoint=True))
    return gen._scan_data(rng, family, rows, signal)[0]


def _regime_fit(columns):
    return shielding.fit_attenuation_regime(shielding.AttenuationCurve(
        tuple(columns["freq_hz"]), tuple(columns["atten_db"]), floor_db=-58.0))


def _lstsq(design, y, weights=None):
    """The weighted least-squares parameters from np.linalg.lstsq, the oracle."""
    if weights is not None:
        sw = np.sqrt(weights)
        design, y = design * sw[:, None], y * sw
    return np.linalg.lstsq(design, y, rcond=None)[0]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("signal", [True, False])
def test_heating_fit_is_the_lstsq_line(bench_gen, seed, signal):
    columns = _bench_scan(bench_gen, "heating", seed, signal)
    t, n = columns["wait_s"], columns["nbar"]
    design = np.column_stack([t, np.ones_like(t)])
    for weights in (None, np.linspace(1.0, 4.0, t.size)):
        fit = qubit.heating_rate_fit(t, n, weights=weights)
        np.testing.assert_allclose(fit.theta, _lstsq(design, n, weights), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("signal", [True, False])
def test_skin_and_contact_fits_are_the_lstsq_minima(bench_gen, seed, signal):
    columns = _bench_scan(bench_gen, "regime", seed, signal)
    fit = _regime_fit(columns)
    usable = columns["atten_db"] > -58.0
    f, a = columns["freq_hz"][usable], columns["atten_db"][usable]
    skin = _lstsq(-np.sqrt(f)[:, None], a)
    contact = _lstsq(np.column_stack([np.ones_like(f), -20.0 * np.log10(f)]), a)
    np.testing.assert_allclose(fit.skin_fit.theta, skin, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(fit.contact_fit.theta, contact, rtol=1e-12, atol=0.0)


def test_demo_heating_rate_is_the_least_squares_rate_to_thirty_digits():
    table = csvio.read_table(DEMO / "heating.csv", ["wait_s", "nbar"])
    t, n = table["wait_s"], table["nbar"]
    with mpmath.workdps(30):
        tm = [mpmath.mpf(float(v)) for v in t]
        nm = [mpmath.mpf(float(v)) for v in n]
        t_mean, n_mean = mpmath.fsum(tm) / len(tm), mpmath.fsum(nm) / len(nm)
        rate = (mpmath.fsum((u - t_mean) * (v - n_mean) for u, v in zip(tm, nm))
                / mpmath.fsum((u - t_mean) ** 2 for u in tm))
        exact = float(rate)
    fit = qubit.heating_rate_fit(t, n)
    assert fit.params["rate"] == pytest.approx(exact, rel=1e-14)
    assert "%.12g" % fit.params["rate"] == "2.17069139017"


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["heating", "regime"]), seed=st.integers(0, 2**32 - 1),
       signal=st.booleans())
def test_linear_fits_confirm_their_start_in_one_iteration(bench_gen, family, seed, signal):
    columns = _bench_scan(bench_gen, family, seed, signal)
    if family == "heating":
        fits = [qubit.heating_rate_fit(columns["wait_s"], columns["nbar"])]
    else:
        regime = _regime_fit(columns)
        fits = [regime.skin_fit, regime.contact_fit]
    for fit in fits:
        assert (fit.reason, fit.iterations, fit.model_calls) == (REASON_GRAD_TOL, 1, 1)


@pytest.mark.parametrize("x,y,weights", [
    ([1.0, 1.0, 1.0], [0.5, 0.7, 0.6], None),
    ([0.0] * 4, [0.5, 0.7, 0.6, 0.2], None),
    ([2.5] * 4, [0.5, 0.7, 0.6, 0.2], [1.0, 2.0, 0.0, 3.0]),
    ([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], [0.1, 0.5, 0.9, 1.3, 1.6, 2.2], [0.0] * 6),
], ids=["equal_waits", "zero_waits", "equal_waits_weighted", "zero_weights"])
def test_degenerate_heating_fit_starts_without_a_warning(x, y, weights):
    with np.errstate(all="raise"):
        slope, intercept = fitting.line_lstsq(x, y, weights)
    fit = qubit.heating_rate_fit(x, y, weights=weights)
    assert fit.reason == REASON_DEGENERATE and not fit.converged
    assert np.isinf(fit.sigmas).all()
    assert fit.params == {"rate": slope, "intercept": intercept}
    if len(set(x)) == 1:
        # every line through the weighted mean fits equally well: slope 0
        w = np.ones(len(y)) if weights is None else np.asarray(weights)
        assert (slope, intercept) == (0.0, pytest.approx(np.average(y, weights=w)))
    else:
        # no weight at all: the unweighted line
        assert (slope, intercept) == pytest.approx(tuple(_lstsq(
            np.column_stack([x, np.ones(len(x))]), np.asarray(y))), rel=1e-12)


@pytest.mark.parametrize("t", [np.linspace(0.0, 1.0, 6), np.linspace(0.3, 7.0, 17)])
def test_noise_free_heating_line_converges_on_the_line(t):
    # the data reproduce the line to rounding, so the residual at the start
    # is rounding noise and no gradient test can tell it from a minimum: LM
    # tries steps and ends once none lowers the cost
    with np.errstate(all="raise"):
        fitting.line_lstsq(t, 0.1 + 2.14 * t)
    fit = qubit.heating_rate_fit(t, 0.1 + 2.14 * t)
    assert fit.converged
    np.testing.assert_allclose(fit.theta, [2.14, 0.1], rtol=1e-14, atol=0.0)
    assert (fit.sigmas < 1e-14).all()


@pytest.mark.parametrize("weights,error,message", [
    ([1.0, 1.0], DomainError, "2 weights given for 4 values of y"),
    ([1.0, -1.0, 1.0, 1.0], SingularModelError, "finite and non-negative"),
    ([1.0, math.inf, 1.0, 1.0], SingularModelError, "finite and non-negative"),
    ([1.0, math.nan, 1.0, 1.0], SingularModelError, "finite and non-negative"),
], ids=["length", "negative", "inf", "nan"])
def test_heating_fit_checks_its_weights_before_the_start(weights, error, message):
    with pytest.raises(error, match=message):
        qubit.heating_rate_fit([0.0, 1.0, 2.0, 3.0], [0.1, 1.0, 2.0, 3.0], weights=weights)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_heating_data_is_a_domain_error_naming_the_row(bad):
    with pytest.raises(DomainError, match=f"heating-rate fit needs finite data: row 1 .*{bad}"):
        qubit.heating_rate_fit([0, 1, 2, 3], [0.1, bad, 2.0, 3.0])
    with pytest.raises(DomainError, match=f"row 2 holds x = {bad}"):
        qubit.heating_rate_fit([0, 1, bad, 3], [0.1, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("fit", list(_SCAN_FITS))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scan_fits_name_the_first_non_finite_row(fit, bad):
    x = np.linspace(0.1, 1.0, 12)
    y = np.exp(-np.linspace(0.0, 2.0, 12) ** 2)
    x[7], y[4] = bad, bad
    with pytest.raises(DomainError, match="needs finite data: row 4 "):
        _SCAN_FITS[fit](x, y)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lm_fit_rejects_non_finite_data_before_the_model_runs(bad):
    model = mock.Mock(side_effect=line_model)
    y = np.arange(5.0)
    with pytest.raises(DomainError, match="lm_fit needs finite data: row 3 "):
        lm_fit(model, np.arange(5.0), np.where(y == 3.0, bad, y), [1.0, 0.0])
    x = np.arange(10.0).reshape(5, 2)
    x[2, 1] = bad
    with pytest.raises(DomainError, match="lm_fit needs finite data: row 2 "):
        lm_fit(model, x, y, [1.0, 0.0])
    model.assert_not_called()


def test_time_series_basics():
    ts = TimeSeries(t0=0.5, dt=0.25, samples=[1.0, 2.0, 4.0])
    assert len(ts) == 3
    assert ts.duration == pytest.approx(0.5)
    assert ts.sample_rate == pytest.approx(4.0)
    assert np.allclose(ts.times, [0.5, 0.75, 1.0])
    # immutable storage
    with pytest.raises(ValueError):
        ts.samples[0] = 9.0


def test_time_series_validation():
    from cryoion.errors import DomainError

    with pytest.raises(DomainError):
        TimeSeries(0.0, 0.0, [1.0])
    with pytest.raises(DomainError):
        TimeSeries(0.0, 1.0, [])
    with pytest.raises(DomainError):
        TimeSeries(0.0, 1.0, [1.0, np.nan])
