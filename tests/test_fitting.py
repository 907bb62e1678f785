"""Least-squares engine: recovery, covariance semantics, Jacobians, error paths."""
import numpy as np
import pytest

from cryoion.errors import DomainError, FitRankError, SingularModelError
from cryoion.fitting import (
    exp_decay_model,
    gaussian_model,
    line_model,
    lm_fit,
    lorentzian_model,
    numeric_jacobian,
)
from cryoion.series import TimeSeries, seeded_rng


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
    y0 = line_model(x, truth)
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
    y = model(x, theta)
    res = lm_fit(model, x, y, theta0)
    assert res.converged
    assert np.allclose(res.theta, theta, rtol=1e-6)


def test_nan_at_start_raises():
    def bad(x, theta):
        return np.full(np.asarray(x).shape, np.nan)

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
    y = line_model(x, [2.0, 1.0]) + 0.02 * rng.standard_normal(x.size)
    w = np.full(x.size, 3.0)
    c = 4.0
    res1 = lm_fit(line_model, x, y, [2.0, 1.0], weights=w)
    res2 = lm_fit(line_model, x, y, [2.0, 1.0], weights=c * w)
    assert np.allclose(res2.covariance, res1.covariance / c, rtol=1e-6)


def test_unweighted_covariance_uses_residual_scale():
    # doubling the noise on the same design doubles the parameter sigmas
    x = np.linspace(0.0, 1.0, 50)
    noise = seeded_rng(11).standard_normal(x.size)
    y1 = line_model(x, [1.0, 0.0]) + 0.01 * noise
    y2 = line_model(x, [1.0, 0.0]) + 0.02 * noise
    r1 = lm_fit(line_model, x, y1, [1.0, 0.0])
    r2 = lm_fit(line_model, x, y2, [1.0, 0.0])
    assert np.allclose(r2.sigmas, 2.0 * r1.sigmas, rtol=1e-6)


def test_covariance_symmetric_psd_when_converged():
    rng = seeded_rng(3)
    x = np.linspace(-2.0, 2.0, 40)
    y = gaussian_model(x, [1.0, 0.1, 0.6, 0.05]) + 0.01 * rng.standard_normal(x.size)
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
        return np.full(np.asarray(x).shape, theta[0] + theta[1])

    res = lm_fit(flat, np.arange(6.0), np.full(6, 2.0), [1.0, 1.0])
    assert np.all(np.isinf(res.covariance))


def test_huge_parameter_scale_difference_is_not_degenerate():
    # columns differing by ~1e11 in magnitude must still invert cleanly
    x = np.linspace(-8e-6, 8e-6, 17)
    theta = np.array([6.0e5, 3.0e-6])

    def model(xx, th):
        return th[0] * np.exp(-((np.asarray(xx) / th[1]) ** 2))

    y = model(x, theta)
    res = lm_fit(model, x, y, np.array([5.0e5, 4.0e-6]))
    assert res.converged
    assert np.all(np.isfinite(res.covariance))
    assert np.allclose(res.theta, theta, rtol=1e-6)


def test_jacobian_linear_model_exact():
    A = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 4.0]])

    def f(theta):
        return A @ theta

    J = numeric_jacobian(f, np.array([0.3, -0.2]))
    assert np.allclose(J, A, rtol=1e-9, atol=1e-12)


def test_jacobian_quadratic_at_three():
    J = numeric_jacobian(lambda th: np.array([th[0] ** 2]), np.array([3.0]))
    assert J[0, 0] == pytest.approx(6.0, rel=1e-6)


def test_jacobian_cubic_matches_analytic():
    # polynomials through degree 3: central differences are exact through
    # degree 2 and accurate to the step-size tolerance at degree 3
    theta = np.array([1.5, -0.8, 0.3])

    def f(th):
        return np.array([th[0] ** 3 + 2.0 * th[1] ** 2 - th[2],
                         th[0] * th[1] * th[2]])

    expected = np.array([
        [3.0 * theta[0] ** 2, 4.0 * theta[1], -1.0],
        [theta[1] * theta[2], theta[0] * theta[2], theta[0] * theta[1]],
    ])
    J = numeric_jacobian(f, theta)
    assert np.allclose(J, expected, rtol=1e-6)


def test_jacobian_halving_step_is_second_order():
    theta = np.array([0.7])

    def f(th):
        return np.array([np.sin(3.0 * th[0])])

    exact = 3.0 * np.cos(3.0 * 0.7)
    err_h = abs(numeric_jacobian(f, theta, rel_step=1e-3, min_step=0.0)[0, 0] - exact)
    err_h2 = abs(numeric_jacobian(f, theta, rel_step=5e-4, min_step=0.0)[0, 0] - exact)
    # O(h^2) truncation: quartering within 20 %
    assert err_h2 == pytest.approx(err_h / 4.0, rel=0.2)


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
