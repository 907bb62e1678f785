"""Coil-pair field: elliptic integrals, loop field, homogeneity."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import ellipe, ellipk

from cryoion.errors import DomainError, SingularFieldError
from cryoion.coils import (
    CoilPair,
    _cel,
    coil_field,
    coil_homogeneity,
    helmholtz_center_field,
    loop_field,
)
from cryoion.units import CONSTANTS

RADIUS = 0.195  # the bias-coil radius used throughout


def bs_loop(radius, z0, amp_turns, point, n=4096):
    """Biot-Savart midpoint quadrature around the filament (independent oracle)."""
    th = (np.arange(n) + 0.5) * (2.0 * np.pi / n)
    src = np.stack([radius * np.cos(th), radius * np.sin(th), np.full(n, z0)], axis=1)
    dl = np.stack([-radius * np.sin(th), radius * np.cos(th), np.zeros(n)],
                  axis=1) * (2.0 * np.pi / n)
    r = np.asarray(point, dtype=float) - src
    rn = np.linalg.norm(r, axis=1)
    integrand = np.cross(dl, r) / rn[:, None] ** 3
    return CONSTANTS.mu0 * amp_turns / (4.0 * np.pi) * integrand.sum(axis=0)


def test_elliptic_reference_point():
    # K(m) = cel(kc, 1, 1, 1) and E(m) = cel(kc, 1, 1, kc^2) with kc^2 = 1 - m
    kc = math.sqrt(0.5)
    assert _cel(kc, 1.0, 1.0) == pytest.approx(1.8540746773013719, abs=1e-14)
    assert _cel(kc, 1.0, 0.5) == pytest.approx(1.3506438810476755, abs=1e-14)


def test_elliptic_against_scipy_grid():
    for m in np.linspace(0.0, 0.999999, 501):
        kc = math.sqrt(1.0 - float(m))
        assert _cel(kc, 1.0, 1.0) == pytest.approx(float(ellipk(m)), abs=1e-12)
        assert _cel(kc, 1.0, 1.0 - float(m)) == pytest.approx(float(ellipe(m)), abs=1e-12)


def test_loop_on_axis_closed_form():
    # on axis the elliptic solution must collapse to mu0 N I a^2 / 2(a^2+z^2)^1.5
    for z in (0.0, 0.05, -0.11, 0.3):
        b = loop_field(RADIUS, 0.0, 3.7, (0.0, 0.0, z))
        bz = CONSTANTS.mu0 * 3.7 * RADIUS**2 / (2.0 * (RADIUS**2 + z**2) ** 1.5)
        assert b[0] == 0.0 and b[1] == 0.0
        assert b[2] == pytest.approx(bz, rel=1e-12)


def test_loop_off_axis_against_biot_savart():
    rng = np.random.default_rng(2024)
    for _ in range(10):
        p = rng.uniform(-0.5 * RADIUS, 0.5 * RADIUS, 3)
        b = loop_field(RADIUS, 0.03, 2.5, p)
        oracle = bs_loop(RADIUS, 0.03, 2.5, p)
        assert np.linalg.norm(b - oracle) <= 1e-9 * np.linalg.norm(oracle)


def mp_loop(radius, z0, amp_turns, rho, z):
    """(B_rho, B_z) of a loop from mpmath's K and E at 30 digits (near-axis oracle)."""
    with mpmath.workdps(30):
        a, r, dz = mpmath.mpf(radius), mpmath.mpf(rho), mpmath.mpf(z) - mpmath.mpf(z0)
        den, near = (a + r) ** 2 + dz**2, (a - r) ** 2 + dz**2
        K, E = mpmath.ellipk(4 * a * r / den), mpmath.ellipe(4 * a * r / den)
        pref = mpmath.mpf(CONSTANTS.mu0) * amp_turns / (2 * mpmath.pi * mpmath.sqrt(den))
        return (pref * dz / r * (-K + E * (a**2 + r**2 + dz**2) / near),
                pref * (K + E * (a**2 - r**2 - dz**2) / near))


@pytest.mark.parametrize("exponent", range(2, 12))
def test_loop_near_axis_against_mpmath(exponent):
    # K and E cancel in B_rho as rho -> 0; B must keep its digits there
    rho, z = RADIUS * 10.0**-exponent, 0.11
    b = loop_field(RADIUS, 0.03, 2.5, (rho, 0.0, z))
    b_rho, b_z = mp_loop(RADIUS, 0.03, 2.5, rho, z)
    assert b[1] == 0.0
    assert math.hypot(b[0] - b_rho, b[2] - b_z) <= 1e-14 * abs(b_z)


def test_loop_field_against_mpmath_near_and_far():
    # B keeps its digits relative to |B| from 1 % of a radius off the
    # filament out to 1e6 radii, where the closed form's B_rho cancels two
    # terms of order 1/d^2 to a field of order 1/d^3 and its B_z cancels
    # likewise in the loop's plane
    rng = np.random.default_rng(41)
    points = []
    for _ in range(150):
        d, angle = 10.0 ** rng.uniform(-2.0, 0.0), rng.uniform(0.0, 2.0 * math.pi)
        points.append((RADIUS * (1.0 + d * math.cos(angle)), RADIUS * d * math.sin(angle)))
    for _ in range(300):
        d, angle = 10.0 ** rng.uniform(0.0, 6.0), rng.uniform(-0.5 * math.pi, 0.5 * math.pi)
        points.append((RADIUS * d * math.cos(angle), RADIUS * d * math.sin(angle)))
    for rho, z in points:
        b = loop_field(RADIUS, 0.0, 2.5, (rho, 0.0, z))
        b_rho, b_z = mp_loop(RADIUS, 0.0, 2.5, rho, z)
        assert b[1] == 0.0
        assert math.hypot(b[0] - b_rho, b[2] - b_z) <= 1e-13 * math.hypot(b_rho, b_z)


def test_loop_field_is_divergence_free():
    pair = CoilPair.helmholtz(RADIUS)
    rng = np.random.default_rng(99)
    h = 1e-4 * RADIUS
    for _ in range(10):
        p = rng.uniform(-0.08, 0.08, 3)
        div = 0.0
        for i in range(3):
            dp = np.zeros(3)
            dp[i] = h
            div += (coil_field(pair, p + dp)[i] - coil_field(pair, p - dp)[i]) / (2.0 * h)
        assert abs(div) < 1e-6 * np.linalg.norm(coil_field(pair, p))


def test_loop_rejects_field_point_on_filament():
    with pytest.raises(SingularFieldError):
        loop_field(RADIUS, 0.0, 1.0, (RADIUS, 0.0, 0.0))


def test_helmholtz_center_field_closed_form():
    pair = CoilPair.helmholtz(RADIUS, turns=1, current=1.0)
    assert helmholtz_center_field(pair) == pytest.approx(4.61116043883699e-06, rel=1e-12)
    b = coil_field(pair, (0.0, 0.0, 0.0))
    assert b[2] == pytest.approx(helmholtz_center_field(pair), rel=1e-12)
    # linear in N*I
    strong = CoilPair.helmholtz(RADIUS, turns=130, current=2.0)
    assert helmholtz_center_field(strong) == pytest.approx(
        260.0 * helmholtz_center_field(pair), rel=1e-12)


def test_helmholtz_homogeneity_over_trap_extent():
    pair = CoilPair.helmholtz(RADIUS)
    homog = coil_homogeneity(pair, extent=1.5e-3)
    # quartic axial expansion: (144/125) * (z/R)^4 at the segment ends
    quartic = (144.0 / 125.0) * (0.75e-3 / RADIUS) ** 4
    assert homog == pytest.approx(quartic, rel=1e-3)
    assert homog < 1.2e-8


def test_homogeneity_independent_of_drive():
    weak = CoilPair.helmholtz(RADIUS, turns=1, current=0.1)
    strong = CoilPair.helmholtz(RADIUS, turns=130, current=1.0)
    assert coil_homogeneity(weak, 1.5e-3) == coil_homogeneity(strong, 1.5e-3)


def test_non_helmholtz_spacing_is_much_worse():
    ideal = CoilPair.helmholtz(RADIUS)
    detuned = CoilPair(radius=RADIUS, separation=1.25 * RADIUS, turns=1, current=1.0)
    assert coil_homogeneity(detuned, 1.5e-3) > 100.0 * coil_homogeneity(ideal, 1.5e-3)


def test_homogeneity_argument_guards():
    pair = CoilPair.helmholtz(RADIUS)
    with pytest.raises(DomainError):
        coil_homogeneity(pair, extent=0.0)
    with pytest.raises(DomainError):
        coil_homogeneity(pair, extent=RADIUS)  # beyond the quartic region
    with pytest.raises(DomainError):
        coil_homogeneity(CoilPair.helmholtz(RADIUS, current=0.0), 1.5e-3)
    with pytest.raises(DomainError, match="separation is beyond the float range"):
        coil_homogeneity(CoilPair(1e-300, 1e300, 1, 1.0), 1e-302)


def mp_homogeneity(radius, separation, extent):
    """Worst |B(z)/B(0) - 1| on the axial segment from the loops' on-axis
    closed form at 40 digits (independent oracle): the larger of the
    segment's end and every zero of dB/dz that ``findroot`` polishes from a
    sign change on a geometric grid over (1e-6, 1] of the half-length."""
    with mpmath.workdps(40):
        a = mpmath.mpf(separation) / (2 * mpmath.mpf(radius))
        u_end = mpmath.mpf(extent) / (2 * mpmath.mpf(radius))

        def loop(u):
            return (1 + u * u) ** mpmath.mpf(-1.5)

        def deviation(u):
            return (loop(u - a) + loop(u + a)) / (2 * loop(a)) - 1

        def slope(u):
            return -3 * sum(v * (1 + v * v) ** mpmath.mpf(-2.5) for v in (u - a, u + a))

        grid = [u_end * mpmath.mpf(10) ** (-6 * mpmath.mpf(k) / 120) for k in range(120, -1, -1)]
        worst = abs(deviation(u_end))
        for lo, hi in zip(grid, grid[1:]):
            if slope(lo) * slope(hi) < 0:
                worst = max(worst, abs(deviation(mpmath.findroot(slope, (lo, hi),
                                                                 solver="anderson"))))
        return float(worst)


@st.composite
def _segments(draw):
    """(radius, separation, extent): separation 0.5-2 radii, or within
    1e-8 to 2 % of Helmholtz, and extent 1e-4 to 1/10 of the radius."""
    radius = 10.0 ** draw(st.floats(min_value=-6.0, max_value=6.0))
    detuning = draw(st.one_of(
        st.floats(min_value=-0.5, max_value=1.0),
        st.builds(lambda sign, exponent: sign * 10.0**exponent, st.sampled_from((-1.0, 1.0)),
                  st.floats(min_value=-8.0, max_value=math.log10(0.02)))))
    extent = radius * 10.0 ** draw(st.floats(min_value=-4.0, max_value=-1.0, exclude_max=True))
    assume(extent < radius / 10.0)
    return radius, radius * (1.0 + detuning), extent


@settings(max_examples=150, deadline=None)
@given(_segments())
@example((0.05, 0.05005, 0.004))  # interior worst point, which a 201-point grid misses
@example((0.195, 0.195, 0.0015))  # Helmholtz: B(z) - B(0) cancels to 1e-10 of B(0)
def test_homogeneity_is_the_exact_worst_deviation(segment):
    radius, separation, extent = segment
    worst = coil_homogeneity(CoilPair(radius, separation, 3, 1.5), extent)
    assert worst == pytest.approx(mp_homogeneity(radius, separation, extent), rel=1e-13)


# ratios of powers of two, so that the separation scales with the radius
# exactly; the extent R/100 rounds alike at every radius
@pytest.mark.parametrize("separation", [1.0, 0.5, 2.0])
def test_homogeneity_is_scale_free(separation):
    unit = coil_homogeneity(CoilPair(1.0, separation, 1, 1.0), 1e-2)
    for radius in (1e-300, 1e300):
        scaled = coil_homogeneity(CoilPair(radius, separation * radius, 1, 1.0), radius / 100)
        assert scaled == pytest.approx(unit, rel=1e-15)


def test_coil_pair_validation():
    with pytest.raises(DomainError):
        CoilPair(radius=0.0, separation=0.1, turns=1, current=1.0)
    with pytest.raises(DomainError):
        CoilPair(radius=0.1, separation=-0.1, turns=1, current=1.0)
    with pytest.raises(DomainError):
        CoilPair(radius=0.1, separation=0.1, turns=0, current=1.0)
    with pytest.raises(DomainError):
        CoilPair(radius=0.1, separation=0.1, turns=1, current=math.inf)


def test_pair_field_is_sum_of_loops():
    pair = CoilPair(radius=RADIUS, separation=0.21, turns=7, current=0.4)
    p = (0.02, -0.01, 0.03)
    ni = 7 * 0.4
    # np.add: the fields are tuples, which + would concatenate
    expected = np.add(loop_field(RADIUS, -0.105, ni, p), loop_field(RADIUS, 0.105, ni, p))
    assert np.allclose(coil_field(pair, p), expected, rtol=1e-12)


_COORD = st.floats(min_value=-0.6, max_value=0.6)


@settings(max_examples=300, deadline=None)
@given(_COORD, _COORD, _COORD, st.floats(min_value=0.05, max_value=0.6),
       st.floats(min_value=-100.0, max_value=100.0))
@example(0.0, 0.47307285002371235, 0.0, 0.599609375, 1.0)  # B_z of the loops cancels
def test_scaling_every_length_scales_the_field_inversely(x, y, z, separation, log_scale):
    # keep 1 % of the radius off both filaments, where B is smooth enough for 1e-12
    rho = math.hypot(x, y)
    for z0 in (-0.5 * separation, 0.5 * separation):
        assume(math.hypot(rho - RADIUS, z - z0) > 0.01 * RADIUS)
    scale = 10.0 ** log_scale
    b = coil_field(CoilPair(RADIUS, separation, 3, 1.5), (x, y, z))
    scaled = coil_field(CoilPair(RADIUS * scale, separation * scale, 3, 1.5),
                        (x * scale, y * scale, z * scale))
    # rounding acts at the scale of the two loops' fields, not of their sum,
    # which vanishes where they cancel
    loops = sum(math.hypot(*loop_field(RADIUS, z0, 4.5, (x, y, z)))
                for z0 in (-0.5 * separation, 0.5 * separation))
    assert math.dist([v * scale for v in scaled], b) <= 1e-12 * loops
