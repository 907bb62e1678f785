"""Gapless-plane trap electrostatics: potentials, RF null, secular motion."""
import collections
import itertools
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from cryoion import trap
from cryoion.cli import main
from cryoion.errors import ConfigError, DomainError, NoTrapError
from cryoion.trap import (
    CA40,
    ElectrodeLayout,
    IonSpecies,
    ROLE_CENTER,
    ROLE_DC,
    ROLE_RF,
    SR88,
    Strip,
    dc_potential,
    find_rf_null,
    _escape_saddle,
    five_wire_layout,
    load_layout,
    pseudopotential,
    rect_potential,
    resonance_frequency,
    resonator_capacitance,
    rf_basis_potential,
    rf_field,
    secular_spectrum,
    two_ion_spacing,
)
from cryoion.units import CONSTANTS

RF_OMEGA = 2.0 * math.pi * 49.9e6
DEMO_LAYOUT = Path(__file__).resolve().parent.parent / "demo" / "trap_layout.cfg"


def stacked(corners, points, order=2):
    """The kernel's sums (``trap._derivatives``) over a corner table at each
    of ``points``, (N, 3) or one point, as arrays over the points: phi, (N,),
    at order 0, else grad (N, 3), Hessian (N, 3, 3) and third derivatives
    (N, 3, 3, 3) up to ``order``."""
    out = [trap._derivatives(corners, tuple(p), order)
           for p in np.asarray(points, dtype=float).reshape(-1, 3).tolist()]
    if order == 0:
        return np.array(out, dtype=float)
    return tuple(np.array([o[k] for o in out], dtype=float).reshape((len(out),) + (3,) * (k + 1))
                 for k in range(order))


def strip_derivatives(strips, weights, points, order=2):
    """``stacked`` over the corner table of the weighted ``strips``."""
    return stacked(trap._corners(strips, weights), points, order)


@pytest.fixture(scope="module")
def five_wire():
    layout, geom = five_wire_layout(52.7e-6)
    return layout, geom


@pytest.fixture(scope="module")
def solved(five_wire):
    layout, geom = five_wire
    return secular_spectrum(layout, CA40)


# ---------------------------------------------------------------------------
# independent references: mpmath derivatives and a finite-difference Hessian
# ---------------------------------------------------------------------------

_UM = 10**6  # the mpmath oracles work in micrometres, where features are O(1)
_FIRST = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mp_phi(strips, x, y, z):
    """Summed arctangent potential of ``strips`` at (x, y, z) in micrometres."""
    total = mp.mpf(0)
    for s in strips:
        x0, x1, y0, y1 = (mp.mpf(e) * _UM for e in (s.x_min, s.x_max, s.y_min, s.y_max))

        def corner(u, v):
            return mp.atan(u * v / (z * mp.sqrt(u * u + v * v + z * z)))

        total += (corner(x1 - x, y1 - y) - corner(x0 - x, y1 - y)
                  - corner(x1 - x, y0 - y) + corner(x0 - x, y0 - y)) / (2 * mp.pi)
    return total


def mp_grad(strips, point):
    """grad(phi) in 1/m by mpmath.diff of the arctangent sum at 30 digits."""
    with mp.workdps(30):
        p = [mp.mpf(float(c)) * _UM for c in point]
        return np.array([float(mp.diff(lambda *c: mp_phi(strips, *c), p, o) * _UM)
                         for o in _FIRST])


def mp_hess(strips, point):
    """Hessian of phi in 1/m^2 by mpmath.diff of the arctangent sum at 30 digits."""
    with mp.workdps(30):
        p = [mp.mpf(float(c)) * _UM for c in point]
        H = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                order = [0, 0, 0]
                order[i] += 1
                order[j] += 1
                H[i, j] = float(mp.diff(lambda *c: mp_phi(strips, *c), p, tuple(order))
                                * _UM**2)
        return H


def mp_third(strips, point):
    """Third derivatives of phi in 1/m^3 by mpmath.diff of the arctangent sum at 30 digits."""
    with mp.workdps(30):
        p = [mp.mpf(float(c)) * _UM for c in point]
        T = np.empty((3, 3, 3))
        found = {}  # the 10 distinct orders of the 27 entries
        for ijk in itertools.product(range(3), repeat=3):
            order = tuple(ijk.count(axis) for axis in range(3))
            if order not in found:
                found[order] = float(mp.diff(lambda *c: mp_phi(strips, *c), p, order)
                                     * _UM**3)
            T[ijk] = found[order]
        return T


def mp_psi(layout, species, x, y, z):
    """Pseudopotential in J at (x, y, z) in micrometres, from the mpmath field."""
    e2 = sum(mp.diff(lambda *c: mp_phi(layout.rf_strips, *c), (x, y, z), o) ** 2
             for o in _FIRST) * (layout.rf_voltage * _UM) ** 2
    return (mp.mpf(species.charge_c) ** 2 * e2
            / (4 * mp.mpf(species.mass_kg) * mp.mpf(layout.rf_omega) ** 2))


def hessian_3pt(func, point, step: float, richardson: bool = True) -> np.ndarray:
    """Symmetric 3x3 second-difference Hessian, optionally Richardson refined."""

    def raw(h):
        p = np.asarray(point, dtype=float)
        H = np.empty((3, 3))
        f0 = func(p)
        for i in range(3):
            ei = np.zeros(3)
            ei[i] = h
            H[i, i] = (func(p + ei) - 2.0 * f0 + func(p - ei)) / h**2
            for j in range(i + 1, 3):
                ej = np.zeros(3)
                ej[j] = h
                H[i, j] = H[j, i] = (func(p + ei + ej) - func(p + ei - ej)
                                     - func(p - ei + ej) + func(p - ei - ej)) / (4.0 * h * h)
        return H

    if not richardson:
        return raw(step)
    return (4.0 * raw(0.5 * step) - raw(step)) / 3.0


# ---------------------------------------------------------------------------
# basis potential of a single rectangle
# ---------------------------------------------------------------------------


def poisson_kernel_quadrature(strip, point, n=1024):
    """Half-space Poisson kernel phi = (z/2pi) iint dA/r^3, midpoint rule.

    Independent of the closed-form corner expression under test.
    """
    px, py, pz = point
    xs = strip.x_min + (np.arange(n) + 0.5) * (strip.x_max - strip.x_min) / n
    ys = strip.y_min + (np.arange(n) + 0.5) * (strip.y_max - strip.y_min) / n
    area_el = (strip.x_max - strip.x_min) * (strip.y_max - strip.y_min) / n**2
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    r2 = (X - px) ** 2 + (Y - py) ** 2 + pz**2
    return pz / (2.0 * np.pi) * float(np.sum(r2**-1.5)) * area_el


def test_rect_potential_matches_surface_quadrature():
    strip = Strip(-60e-6, -20e-6, -300e-6, 300e-6, ROLE_RF)
    rng = np.random.default_rng(77)
    for _ in range(5):
        p = (rng.uniform(-150e-6, 150e-6), rng.uniform(-400e-6, 400e-6),
             rng.uniform(20e-6, 200e-6))
        oracle = poisson_kernel_quadrature(strip, p)
        assert rect_potential(strip, p) == pytest.approx(oracle, rel=1e-6)


def test_rect_potential_far_field_decays():
    small = Strip(-5e-6, 5e-6, -5e-6, 5e-6, ROLE_RF)
    assert rect_potential(small, (0.0, 0.0, 100 * 10e-6)) < 1e-3


def test_rect_potential_half_space_limit():
    plane = Strip(-0.5, 0.5, -0.5, 0.5, ROLE_RF)
    assert rect_potential(plane, (0.0, 0.0, 1e-6)) == pytest.approx(1.0, abs=1e-4)


def test_rect_potential_bounded_and_positive():
    strip = Strip(-60e-6, -20e-6, -300e-6, 300e-6, ROLE_RF)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = (rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), rng.uniform(1e-6, 1e-3))
        v = rect_potential(strip, p)
        assert 0.0 < v < 1.0


def test_rect_potential_requires_positive_height():
    strip = Strip(-1e-5, 1e-5, -1e-4, 1e-4, ROLE_RF)
    with pytest.raises(DomainError):
        rect_potential(strip, (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        rect_potential(strip, (0.0, 0.0, -1e-6))


_POINT_FUNCTIONS = {
    "rect_potential": lambda layout, p: rect_potential(layout.strips[0], p),
    "rf_basis_potential": rf_basis_potential,
    "dc_potential": lambda layout, p: dc_potential(layout, {0: 1.0}, p),
    "rf_field": rf_field,
    "pseudopotential": lambda layout, p: pseudopotential(layout, CA40, p),
}


@pytest.mark.parametrize("name", sorted(_POINT_FUNCTIONS))
@pytest.mark.parametrize("point", [(0.0, 0.0, math.nan), (0.0, 0.0, math.inf),
                                   (math.nan, 0.0, 80e-6), (math.inf, 0.0, 80e-6),
                                   (0.0, -math.inf, 80e-6)])
def test_non_finite_point_is_domain_error(five_wire, name, point):
    layout, _ = five_wire
    with pytest.raises(DomainError, match="finite"):
        _POINT_FUNCTIONS[name](layout, point)


@pytest.mark.parametrize("name", sorted(_POINT_FUNCTIONS))
@pytest.mark.parametrize("point", [(0.0, 1e-5), (0.0, 0.0, 1e-5, 1.0), 1e-5, (), "xyz",
                                   ("0", "0", "1e-5"), (0.0, None, 1e-5), (0.0, 0.0, 1j)],
                         ids=["two", "four", "bare_float", "empty", "text", "text_numbers",
                              "none", "complex"])
def test_point_that_is_not_three_numbers_is_domain_error(five_wire, name, point):
    layout, _ = five_wire
    with pytest.raises(DomainError, match="three numbers"):
        _POINT_FUNCTIONS[name](layout, point)


def test_point_may_be_any_sequence_of_three_numbers(five_wire):
    layout, _ = five_wire
    p = (1e-5, 2e-4, 8e-5)
    e = rf_field(layout, p)
    for same in ([1e-5, 2e-4, 8e-5], np.array(p), iter(p), (np.float32(1e-5), 2e-4, 8e-5)):
        assert np.allclose(rf_field(layout, same), e, rtol=1e-6, atol=0.0)
    assert np.array_equal(rf_field(layout, (0, 0, 1)), rf_field(layout, (0.0, 0.0, 1.0)))


def test_rect_potential_is_harmonic():
    strip = Strip(-60e-6, -20e-6, -300e-6, 300e-6, ROLE_RF)
    rng = np.random.default_rng(13)
    for _ in range(8):
        p = np.array([rng.uniform(-100e-6, 100e-6), rng.uniform(-200e-6, 200e-6),
                      rng.uniform(30e-6, 150e-6)])
        h = p[2] / 50.0

        def second_derivs(step):
            f0 = rect_potential(strip, p)
            out = []
            for i in range(3):
                dp = np.zeros(3)
                dp[i] = step
                out.append((rect_potential(strip, p + dp) - 2.0 * f0
                            + rect_potential(strip, p - dp)) / step**2)
            return np.array(out)

        d2 = (4.0 * second_derivs(0.5 * h) - second_derivs(h)) / 3.0
        assert abs(d2.sum()) < 1e-6 * np.abs(d2).max()


def test_kernel_derivatives_match_mpmath():
    rng = np.random.default_rng(19)
    for _ in range(4):
        x0, y0 = rng.uniform(-200e-6, 200e-6, 2)
        strip = Strip(x0, x0 + rng.uniform(5e-6, 150e-6), y0, y0 + rng.uniform(5e-6, 3e-3),
                      ROLE_RF)
        pts = np.column_stack([rng.uniform(-300e-6, 300e-6, 3), rng.uniform(-300e-6, 300e-6, 3),
                               rng.uniform(5e-6, 300e-6, 3)])
        grad, hess, third = strip_derivatives([strip], 1.0, pts, order=3)
        for p, g, h, t in zip(pts, grad, hess, third):
            assert np.allclose(g, mp_grad([strip], p), rtol=1e-10, atol=0.0)
            assert np.allclose(h, mp_hess([strip], p), rtol=1e-10, atol=0.0)
            assert np.allclose(t, mp_third([strip], p), rtol=1e-10, atol=0.0)


def seeded_strips_and_points():
    """The strips and points of ``test_kernel_derivatives_match_mpmath``, then
    a narrow strip seen from far away and low down, where corner terms cancel."""
    rng = np.random.default_rng(19)
    cases = []
    for _ in range(4):
        x0, y0 = rng.uniform(-200e-6, 200e-6, 2)
        strip = Strip(x0, x0 + rng.uniform(5e-6, 150e-6), y0, y0 + rng.uniform(5e-6, 3e-3),
                      ROLE_RF)
        cases.append((strip, np.column_stack([rng.uniform(-300e-6, 300e-6, 3),
                                              rng.uniform(-300e-6, 300e-6, 3),
                                              rng.uniform(5e-6, 300e-6, 3)])))
    cases.append((Strip(170e-6, 177e-6, 0.0, 5e-6, ROLE_RF), np.array([[-100e-6, 0.0, 5e-6]])))
    return cases


def test_kernel_potential_matches_mpmath():
    # order 0 of the kernel: the corner sum of the arctangents themselves.  It
    # is good to a few ulps of the unit potential, not relatively: for the
    # narrow strip the corner arctangents cancel to phi = 1.36e-6, which is
    # 1.9e-17 (1.4e-11 relative) off
    for strip, pts in seeded_strips_and_points():
        phi = strip_derivatives([strip], 1.0, pts, order=0)
        assert phi.shape == (len(pts),)
        for p, got in zip(pts, phi):
            with mp.workdps(30):
                oracle = float(mp_phi([strip], *(mp.mpf(float(c)) * _UM for c in p)))
            assert got == pytest.approx(oracle, rel=1e-13, abs=1e-16)


def test_kernel_third_derivatives_match_mpmath_normwise():
    # the kernel's contract for third derivatives is norm-wise: on the seeded
    # strips it is good to 1e-14 of the tensor's norm; for the narrow strip the
    # corner terms cancel, d_yyy is off by 5.9e-6 relative, and the tensor by
    # 4.4e-9 of its norm, so an entry-wise bound fails there
    *seeded, (narrow, point) = seeded_strips_and_points()
    for strip, pts in seeded:
        for p, t in zip(pts, strip_derivatives([strip], 1.0, pts, order=3)[2]):
            oracle = mp_third([strip], p)
            assert np.linalg.norm(t - oracle) <= 1e-13 * np.linalg.norm(oracle)
    (t,) = strip_derivatives([narrow], 1.0, point, order=3)[2]
    oracle = mp_third([narrow], point[0])
    assert np.linalg.norm(t - oracle) <= 1e-8 * np.linalg.norm(oracle)
    assert not np.allclose(t, oracle, rtol=1e-6, atol=0.0)


def test_analytic_hessians_are_traceless(five_wire):
    layout, _ = five_wire
    rng = np.random.default_rng(23)
    pts = np.column_stack([rng.uniform(-150e-6, 150e-6, 8), rng.uniform(-1e-3, 1e-3, 8),
                           rng.uniform(20e-6, 200e-6, 8)])
    dc = [s for s in layout.strips if s.role == ROLE_DC]
    for strips, weights in ((layout.rf_strips, 1.0), (dc, [1.0, -0.7])):
        _, hess = strip_derivatives(strips, weights, pts)
        for h in hess:
            assert abs(np.trace(h)) <= 1e-12 * np.linalg.norm(h)


def test_superposition_of_disjoint_strips(five_wire):
    # the RF strips together, each strip alone and the DC strips at their
    # voltages, against the 30-digit arctangent sum; the worst of 40 random
    # points was 2.5e-14 relative, for a far strip seen from low down
    layout, _ = five_wire
    dc = [s for s in layout.strips if s.role == ROLE_DC]
    for p in ((15e-6, 40e-6, 90e-6), (-120e-6, 2.9e-3, 3e-6), (300e-6, -1e-3, 400e-6)):
        with mp.workdps(30):
            q = [mp.mpf(c) * _UM for c in p]
            rf = mp_phi(layout.rf_strips, *q)
            each = [mp_phi([s], *q) for s in layout.strips]
            dc_sum = 2 * mp_phi(dc[:1], *q) - mp.mpf(0.5) * mp_phi(dc[1:], *q)
        assert rf_basis_potential(layout, p) == pytest.approx(float(rf), rel=1e-13)
        for s, oracle in zip(layout.strips, each):
            assert rect_potential(s, p) == pytest.approx(float(oracle), rel=1e-13)
        assert dc_potential(layout, {0: 2.0, 1: -0.5}, p) == pytest.approx(float(dc_sum),
                                                                         rel=1e-13)


def test_dc_potential_linear_in_voltage(five_wire):
    layout, _ = five_wire
    p = (10e-6, 1e-4, 80e-6)
    v1 = dc_potential(layout, {0: 1.0}, p)
    v2 = dc_potential(layout, {1: 1.0}, p)
    both = dc_potential(layout, {0: 2.0, 1: -0.5}, p)
    assert both == pytest.approx(2.0 * v1 - 0.5 * v2, rel=1e-12)
    assert dc_potential(layout, None, p) == 0.0
    assert dc_potential(layout, {}, p) == 0.0


def test_conformal_scaling_of_potential():
    strip = Strip(-60e-6, -20e-6, -300e-6, 300e-6, ROLE_RF)
    doubled = Strip(-120e-6, -40e-6, -600e-6, 600e-6, ROLE_RF)
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = np.array([rng.uniform(-100e-6, 100e-6), rng.uniform(-200e-6, 200e-6),
                      rng.uniform(20e-6, 200e-6)])
        assert rect_potential(doubled, 2.0 * p) == pytest.approx(
            rect_potential(strip, p), rel=1e-12)


@st.composite
def strips_and_points(draw, n_points=3):
    """A rectangle and points above the plane, drawn in micrometres, in SI."""
    x0, y0 = draw(st.floats(-200.0, 200.0)), draw(st.floats(-200.0, 200.0))
    w, length = draw(st.floats(5.0, 150.0)), draw(st.floats(5.0, 3000.0))
    strip = Strip(x0 * 1e-6, (x0 + w) * 1e-6, y0 * 1e-6, (y0 + length) * 1e-6, ROLE_RF)
    pts = [(draw(st.floats(-300.0, 300.0)), draw(st.floats(-300.0, 300.0)),
            draw(st.floats(5.0, 300.0))) for _ in range(n_points)]
    return strip, np.array(pts) * 1e-6


@settings(max_examples=50, deadline=None)
@given(strips_and_points())
@example((Strip(170e-6, 177e-6, 0.0, 5e-6, ROLE_RF),
          np.array([[0.0, 0.0, 5e-6], [-100e-6, 0.0, 5e-6], [0.0, 0.0, 5e-6]])))
def test_kernel_derivatives_are_harmonic_and_consistent(case):
    # harmonicity: a traceless Hessian and sum_i d_iik phi = 0 for every k; the
    # third derivatives are symmetric and match mpmath, which checks the
    # entries the kernel fills from the identities.  The example is a narrow
    # strip seen from far away and low down, where the corner terms cancel:
    # there a central difference of the float Hessian is off by 1e-6 of the
    # tensor's norm while the kernel itself is good to 1e-8 of it
    strip, pts = case
    _, hess, third = strip_derivatives([strip], 1.0, pts, order=3)
    for p, h, t in zip(pts, hess, third):
        assert abs(np.trace(h)) <= 1e-12 * np.linalg.norm(h)
        assert np.all(np.abs(np.einsum("iik->k", t)) <= 1e-12 * np.linalg.norm(t))
        for perm in itertools.permutations(range(3)):
            assert np.array_equal(t, t.transpose(perm))
        assert np.allclose(t, mp_third([strip], p), rtol=0.0, atol=1e-6 * np.linalg.norm(t))


@settings(max_examples=50, deadline=None)
@given(st.lists(strips_and_points(n_points=4), min_size=1, max_size=3),
       st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
def test_kernel_symmetries_and_trace_identities_hold_bit_for_bit(cases, weights):
    # the kernel assembles its Hessian and third derivatives from 15 summed
    # rows, so equal entries are one value and the
    # entries with two z indices are exactly minus the sum of their x-x and
    # y-y partners
    strips = [strip for strip, _ in cases]
    pts = np.concatenate([p for _, p in cases])
    corners = trap._corners(strips, weights[:len(strips)])
    _, hess2 = stacked(corners, pts, order=2)
    _, hess3, t = stacked(corners, pts, order=3)
    for h in (hess2, hess3):
        assert np.array_equal(h, h.transpose(0, 2, 1))
        assert np.array_equal(h[:, 2, 2], -(h[:, 0, 0] + h[:, 1, 1]))
    for perm in itertools.permutations(range(3)):
        assert np.array_equal(t, t.transpose(0, *(1 + i for i in perm)))
    assert np.array_equal(t[:, :, 2, 2], -(t[:, :, 0, 0] + t[:, :, 1, 1]))


@settings(max_examples=25, deadline=None)
@given(st.lists(strips_and_points(n_points=1), min_size=2, max_size=3),
       st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3))
@example([(Strip(-60e-6, -20e-6, -3e-3, 3e-3, ROLE_RF), np.array([[15e-6, 40e-6, 90e-6]])),
          (Strip(170e-6, 177e-6, 0.0, 5e-6, ROLE_RF), np.array([[0.0, 0.0, 5e-6]])),
          (Strip(20e-6, 80e-6, -1e-3, 2e-3, ROLE_RF), np.array([[0.0, 0.0, 5e-6]]))],
         [1.0, 1.0, 1.0])
def test_weighted_table_matches_mpmath(cases, magnitudes):
    # a table of 2-3 strips with unequal weights, one of them negative,
    # against the weighted sum of each strip's 30-digit mpmath derivatives
    # at the first case's point: phi to a few ulps of the summed |weights|,
    # and each derivative order norm-wise within 1e-8 of the summed
    # |w_k| |D_k|, above the documented worst case (4.4e-9 of the norm, for a
    # narrow strip seen from far away and low down); a dropped weight or a
    # swapped u/v term misses by O(1)
    strips = [strip for strip, _ in cases]
    weights = [m * f for m, f in zip(magnitudes, (1.0, -1.7, 0.6))][:len(strips)]
    point = cases[0][1][0]
    table = trap._corners(strips, weights)
    with mp.workdps(30):
        q = [mp.mpf(float(c)) * _UM for c in point]
        phi = [float(mp_phi([s], *q)) for s in strips]
    assert abs(trap._derivatives(table, tuple(point.tolist()), order=0)
               - sum(w * p for w, p in zip(weights, phi))) <= 1e-15 * sum(map(abs, weights))
    got = [d[0] for d in stacked(table, point, order=3)]
    for d, oracle_of in zip(got, (mp_grad, mp_hess, mp_third)):
        parts = [oracle_of([s], point) for s in strips]
        oracle = sum(w * p for w, p in zip(weights, parts))
        scale = sum(abs(w) * np.linalg.norm(p) for w, p in zip(weights, parts))
        assert np.linalg.norm(d - oracle) <= 1e-8 * scale


@settings(max_examples=50, deadline=None)
@given(strips_and_points(), st.floats(0.05, 0.95), st.booleans())
def test_abutting_strips_equal_their_union(case, cut, along_x):
    strip, pts = case
    if along_x:
        mid = strip.x_min + cut * (strip.x_max - strip.x_min)
        parts = [Strip(strip.x_min, mid, strip.y_min, strip.y_max, ROLE_RF),
                 Strip(mid, strip.x_max, strip.y_min, strip.y_max, ROLE_RF)]
    else:
        mid = strip.y_min + cut * (strip.y_max - strip.y_min)
        parts = [Strip(strip.x_min, strip.x_max, strip.y_min, mid, ROLE_RF),
                 Strip(strip.x_min, strip.x_max, mid, strip.y_max, ROLE_RF)]
    whole = strip_derivatives([strip], 1.0, pts, order=3)
    split = strip_derivatives(parts, 1.0, pts, order=3)
    for n, (a, b) in enumerate(zip(split, whole), start=1):
        # the halves carry the shared edge's corner terms with opposite
        # signs; an n-th derivative corner term is of order z^-n
        err = np.abs(a - b).reshape(len(pts), -1).max(axis=1)
        assert np.all(err <= 1e-13 * pts[:, 2] ** -n)


@settings(max_examples=50, deadline=None)
@given(strips_and_points(), st.floats(0.1, 10.0))
def test_kernel_derivatives_scale_conformally(case, lam):
    # phi(lam * layout, lam * r) = phi(layout, r), so the n-th derivatives
    # scale as lam^-n
    strip, pts = case
    scaled = Strip(lam * strip.x_min, lam * strip.x_max, lam * strip.y_min, lam * strip.y_max,
                   ROLE_RF)
    base = strip_derivatives([strip], 1.0, pts, order=3)
    big = strip_derivatives([scaled], 1.0, lam * pts, order=3)
    for n, (b, d) in enumerate(zip(base, big), start=1):
        # rounding is set by the corner terms, of order z^-n (see above)
        err = np.abs(d * lam**n - b).reshape(len(pts), -1).max(axis=1)
        assert np.all(err <= 1e-13 * pts[:, 2] ** -n)


# ---------------------------------------------------------------------------
# RF field and pseudopotential
# ---------------------------------------------------------------------------


def test_rf_field_vanishing_transverse_component_on_symmetry_plane(five_wire):
    layout, _ = five_wire
    e = rf_field(layout, (0.0, 0.0, 75e-6))
    assert abs(e[0]) <= 1e-12 * np.linalg.norm(e)


def test_rf_field_linear_in_drive_voltage(five_wire):
    layout, _ = five_wire
    stronger = ElectrodeLayout(strips=layout.strips, rf_voltage=2.0 * layout.rf_voltage,
                               rf_omega=layout.rf_omega)
    p = (8e-6, 0.0, 60e-6)
    assert np.allclose(rf_field(stronger, p), 2.0 * rf_field(layout, p), rtol=1e-12)


def test_rf_field_matches_mpmath_oracle(five_wire):
    layout, _ = five_wire
    rng = np.random.default_rng(41)
    for _ in range(4):
        p = (rng.uniform(-100e-6, 100e-6), rng.uniform(-1e-3, 1e-3), rng.uniform(20e-6, 200e-6))
        oracle = -layout.rf_voltage * mp_grad(layout.rf_strips, p)
        assert np.allclose(rf_field(layout, p), oracle, rtol=1e-10, atol=0.0)


def test_pseudopotential_scalings(five_wire):
    layout, _ = five_wire
    p = (5e-6, 0.0, 70e-6)
    psi = pseudopotential(layout, CA40, p)
    assert psi > 0
    half_omega = ElectrodeLayout(strips=layout.strips, rf_voltage=layout.rf_voltage,
                                 rf_omega=2.0 * layout.rf_omega)
    assert pseudopotential(half_omega, CA40, p) == pytest.approx(psi / 4.0, rel=1e-9)
    ratio = pseudopotential(layout, SR88, p) / psi
    assert ratio == pytest.approx(CA40.mass_kg / SR88.mass_kg, rel=1e-12)
    assert ratio == pytest.approx(0.4545, rel=3e-4)


def test_pseudopotential_vanishes_at_null(five_wire, solved):
    layout, _ = five_wire
    at_null = pseudopotential(layout, CA40, solved.null_position)
    nearby = pseudopotential(layout, CA40, solved.null_position + [0.0, 0.0, 5e-6])
    assert at_null < 1e-12 * nearby


# ---------------------------------------------------------------------------
# null location
# ---------------------------------------------------------------------------


def test_five_wire_null_on_symmetry_axis(solved):
    assert abs(solved.null_position[0]) < 1e-12
    assert solved.height > 0


def test_five_wire_height_near_quoted_value(solved):
    assert abs(solved.height - 100e-6) / 100e-6 < 0.15


def test_five_wire_height_matches_infinite_strip_analytic(solved, five_wire):
    # infinitely long rails from a to b trap at sqrt(a*b); the 6 mm long
    # modeled rails reproduce that within a percent
    _, geom = five_wire
    a = geom.center_half_width + 0.5 * geom.gap
    b = a + geom.gap + geom.rail_width
    assert solved.height == pytest.approx(math.sqrt(a * b), rel=1e-2)


def test_ion_edge_distance_near_quoted_value(solved, five_wire):
    _, geom = five_wire
    d = geom.ion_edge_distance(solved.height)
    assert abs(d - 113e-6) / 113e-6 < 0.15


@settings(max_examples=25, deadline=None)
@given(g=st.floats(20e-6, 150e-6), rail=st.floats(40e-6, 120e-6), gap=st.floats(5e-6, 15e-6),
       volts=st.floats(50.0, 250.0), freq=st.floats(20e6, 60e6))
@example(g=52.7e-6, rail=60e-6, gap=10e-6, volts=120.0, freq=49.9e6)
def test_multi_start_convergence_agrees(g, rail, gap, volts, freq):
    # the bench's design ranges; the search from the cross-section's null
    # finds a null, and starts on the vertical at fixed fractions of the RF
    # extent, each alone, land on the same null or leave the domain
    layout, _ = five_wire_layout(g, rail_width=rail, gap=gap, rf_voltage=volts,
                                 rf_omega=2.0 * math.pi * freq)
    null = find_rf_null(layout).null_position
    x0, extent, _, y = layout.search_frame
    starts = [(x0, extent * f) for f in (1 / 12, 1 / 6, 1 / 3, 2 / 3)]
    ends = [trap._damped_newton(layout, trap._null_step, [x], [z])
            for x, z in starts + list(layout.section_roots[0])]
    assert ends[-1], "the cross-section's null polishes to a null"
    assert sum(map(bool, ends)) >= 3
    for x, z, _ in itertools.chain.from_iterable(ends):
        assert np.linalg.norm(np.array([x, y, z]) - null) < 1e-9


def test_null_height_scales_conformally(five_wire):
    layout, _ = five_wire
    base = find_rf_null(layout).height
    doubled, _ = five_wire_layout(2 * 52.7e-6, rail_width=120e-6, gap=20e-6,
                                  dc_width=400e-6, length=12e-3)
    assert find_rf_null(doubled).height == pytest.approx(2.0 * base, rel=1e-6)


@pytest.mark.parametrize("g, rail, gap, dc_width", [(5e-6, 5e-6, 1e-6, 15e-6),
                                                    (10e-6, 10e-6, 2e-6, 30e-6)])
def test_micron_scale_five_wire_solves(g, rail, gap, dc_width):
    # designs five to ten times smaller than the demo trap; their 1 mm long
    # rails trap within a percent of the infinite-strip height sqrt(a*b)
    layout, _ = five_wire_layout(g, rail_width=rail, gap=gap, dc_width=dc_width, length=1e-3)
    sol = secular_spectrum(layout, CA40)
    a = g + 0.5 * gap
    assert sol.height == pytest.approx(math.sqrt(a * (a + gap + rail)), rel=1e-2)
    assert sol.stable and 0.0 < sol.trap_depth_ev < math.inf


@pytest.mark.parametrize("volts", [1e150, 1e-200, -120.0])
def test_null_does_not_depend_on_the_drive(five_wire, volts):
    # the search runs at unit drive, so any amplitude finds the null of 120 V
    layout, _ = five_wire
    other = ElectrodeLayout(strips=layout.strips, rf_voltage=volts, rf_omega=layout.rf_omega)
    assert np.array_equal(find_rf_null(other).null_position,
                          find_rf_null(layout).null_position)


def scaled_layout(layout, s):
    """``layout`` with every length times ``s`` and the drive frequency over ``s``."""
    return ElectrodeLayout(
        strips=tuple(Strip(s * e.x_min, s * e.x_max, s * e.y_min, s * e.y_max, e.role, e.dc_index)
                     for e in layout.strips),
        rf_voltage=layout.rf_voltage, rf_omega=layout.rf_omega / s)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0))
@example(-3.0)
@example(3.0)
@example(math.log10(0.15))
def test_demo_spectrum_is_scale_free(log_s):
    # scaling every length by s and Omega by 1/s leaves q and the depth as
    # they are, scales the height by s and the frequencies by 1/s.  The
    # near-zero axial mode is ill-conditioned: over 300 draws its q moved by
    # up to 7.7e-11 and its 15 Hz frequency by 6.2e-6, relative
    s = 10.0 ** log_s
    layout, species = load_layout(DEMO_LAYOUT)
    base = secular_spectrum(layout, species)
    sol = secular_spectrum(scaled_layout(layout, s), species)
    assert sol.height == pytest.approx(s * base.height, rel=1e-14)
    assert sol.q_params[1:] == pytest.approx(base.q_params[1:], rel=1e-12)
    assert sol.trap_depth_ev == pytest.approx(base.trap_depth_ev, rel=1e-12)
    freqs, base_freqs = sorted(sol.secular_freqs_hz), sorted(base.secular_freqs_hz)
    assert [s * f for f in freqs[1:]] == pytest.approx(base_freqs[1:], rel=1e-12)
    assert sol.q_params[0] == pytest.approx(base.q_params[0], rel=1e-9)
    assert s * freqs[0] == pytest.approx(base_freqs[0], rel=1e-4)


@settings(max_examples=50, deadline=None)
@given(g=st.floats(1e-6, 200e-6), rail=st.floats(1e-6, 200e-6), gap=st.floats(0.5e-6, 20e-6))
def test_symmetric_rails_null_root_is_the_geometric_mean_of_their_edges(g, rail, gap):
    # rails [c, d] and [-d, -c] give N = 2 (d - c)(w^2 + c d), whose one root
    # in the upper half plane is i sqrt(c d)
    layout, _ = five_wire_layout(g, rail_width=rail, gap=gap)
    c, d = max((s.x_min, s.x_max) for s in layout.rf_strips)
    ((x, z),) = layout.section_roots[0]
    assert x == 0.0
    assert z == pytest.approx(math.sqrt(c * d), rel=1e-15, abs=0.0)


def test_abutting_rf_strips_have_the_roots_of_one_strip():
    # two RF strips that share an edge across the axial center are one
    # interval of the cross-section; RF strips that miss the center add none
    layout, _ = five_wire_layout(52.7e-6)
    left, right = sorted(layout.rf_strips, key=lambda s: s.x_min)
    middle = 0.5 * (right.x_min + right.x_max)
    split = ElectrodeLayout(
        strips=tuple(s for s in layout.strips if s is not right)
        + (Strip(right.x_min, middle, right.y_min, right.y_max, ROLE_RF),
           Strip(middle, right.x_max, right.y_min, right.y_max, ROLE_RF),
           Strip(left.x_min, left.x_max, right.y_max, right.y_max + 1e-3, ROLE_RF)),
        rf_voltage=layout.rf_voltage, rf_omega=layout.rf_omega)
    assert split.search_frame[3] == 0.5e-3
    assert split.section_roots == layout.section_roots


def rails_of_length(length):
    """A grounded strip at x = 1...39 um between RF strips at -49...-11 um and
    42...150 um, all ``length`` long, at 100 V and 30 MHz: a trap off the
    vertical through the RF strips' center."""
    um = 1e-6
    ends = (-0.5 * length, 0.5 * length)
    return ElectrodeLayout(strips=(Strip(1 * um, 39 * um, *ends, ROLE_CENTER),
                                   Strip(-49 * um, -11 * um, *ends, ROLE_RF),
                                   Strip(42 * um, 150 * um, *ends, ROLE_RF)),
                           rf_voltage=100.0, rf_omega=2.0 * math.pi * 30e6)


def test_null_approaches_the_cross_section_null_as_the_strips_grow():
    # the end effects of strips L long fall off about as (height / L)^2
    misses = []
    for length in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 1.0):
        layout = rails_of_length(length)
        ((x, z),) = layout.section_roots[0]
        sol = find_rf_null(layout)
        misses.append(math.hypot(sol.null_position[0] - x, sol.height - z) / z)
    assert all(b < a / 5.0 for a, b in zip(misses, misses[1:]))
    assert misses[-1] < 1e-7


def test_null_off_the_vertical_is_found(capsys, tmp_path):
    # every start on the vertical through the RF strips' center (x = 50.5 um)
    # climbs out of the domain here; the cross-section's null polishes to the
    # null at (2.80, 45.05) um, and the depth is the polished ray march's
    um = 1e-6
    layout = tmp_path / "layout.cfg"
    layout.write_text("[trap]\nrf_voltage = 100V\nrf_frequency = 30MHz\n" + "".join(
        f"[strip {name}]\nrole = {role}\nx_min = {lo}um\nx_max = {hi}um\n"
        f"y_min = -3.5mm\ny_max = 3.5mm\n"
        for name, role, lo, hi in (("ground", "center", 1, 39), ("rf_left", "rf", -49, -11),
                                   ("rf_right", "rf", 42, 150))))
    assert load_layout(layout)[0] == rails_of_length(7e-3)
    code = main(["trap", "solve", "--layout", str(layout), "--json"])
    solved = json.loads(capsys.readouterr().out)
    assert code == 0
    assert solved["null_x_m"] == pytest.approx(2.80 * um, abs=0.01 * um)
    assert solved["height_m"] == pytest.approx(45.05 * um, abs=0.01 * um)
    code = main(["trap", "spectrum", "--layout", str(layout), "--json"])
    depth = json.loads(capsys.readouterr().out)["trap_depth_ev"]
    assert code == 0
    sol = find_rf_null(rails_of_length(7e-3))
    march = ray_march_depth(rails_of_length(7e-3), CA40, sol.null_position, sol.height,
                            polish_angle=True)
    assert depth == pytest.approx(march, rel=1e-6)


def test_no_trap_for_single_strip():
    lonely = ElectrodeLayout(
        strips=(Strip(-50e-6, 50e-6, -3e-3, 3e-3, ROLE_RF),),
        rf_voltage=120.0, rf_omega=RF_OMEGA)
    with pytest.raises(NoTrapError):
        find_rf_null(lonely)


def test_no_trap_for_zero_drive(five_wire):
    layout, _ = five_wire
    dead = ElectrodeLayout(strips=layout.strips, rf_voltage=0.0, rf_omega=RF_OMEGA)
    with pytest.raises(NoTrapError):
        find_rf_null(dead)


# ---------------------------------------------------------------------------
# secular spectrum
# ---------------------------------------------------------------------------


def test_secular_radial_pair_and_free_axial_mode(solved):
    axial, rad1, rad2 = sorted(solved.secular_freqs_hz)
    assert rad1 == pytest.approx(rad2, rel=1e-4)       # degenerate radial pair
    assert axial < 1e-3 * rad1                         # translation along the rails
    assert rad1 == pytest.approx(3.1503e6, rel=1e-3)   # frozen from this geometry
    assert solved.stable


def test_mathieu_q_and_low_q_relation(solved, five_wire):
    layout, _ = five_wire
    q_radial = max(solved.q_params)
    assert q_radial == pytest.approx(0.17857, rel=1e-3)
    assert q_radial < 0.3
    omega_pred = q_radial * layout.rf_omega / (2.0 * math.sqrt(2.0))
    assert max(solved.secular_freqs_hz) * 2.0 * math.pi == pytest.approx(
        omega_pred, rel=0.01)


def test_q_scales_with_voltage_and_inverse_omega_squared(five_wire, solved):
    q0 = max(solved.q_params)
    f0 = max(solved.secular_freqs_hz)
    hi_v, _ = five_wire_layout(52.7e-6, rf_voltage=240.0)
    sol_v = secular_spectrum(hi_v, CA40)
    assert max(sol_v.q_params) == pytest.approx(2.0 * q0, rel=1e-6)
    assert max(sol_v.secular_freqs_hz) == pytest.approx(2.0 * f0, rel=1e-6)
    hi_w, _ = five_wire_layout(52.7e-6, rf_omega=math.sqrt(2.0) * RF_OMEGA)
    sol_w = secular_spectrum(hi_w, CA40)
    assert max(sol_w.q_params) == pytest.approx(0.5 * q0, rel=1e-6)
    assert max(sol_w.secular_freqs_hz) == pytest.approx(f0 / math.sqrt(2.0), rel=1e-6)


def test_trap_depth_positive_and_sub_ev(solved):
    assert solved.trap_depth_ev == pytest.approx(0.0403579, rel=1e-4)
    assert 0.0 < solved.trap_depth_ev < 1.0


def test_demo_spectrum_kernel_evaluations(monkeypatch):
    # one demo-layout spectrum evaluates the kernel at 6 points of the RF
    # table: the null search from the cross-section's null steps from 3
    # points at order 2, one order-2 evaluation at the null gives both J and
    # the field behind psi(null), and the saddle search from the
    # cross-section's saddle steps from 2 points at order 3, its model value
    # recorded in the iteration where its step falls below eps^(1/3) of the
    # height; without DC voltages no DC evaluation runs, and with them the
    # DC table is read once, at order 2 at the null
    layout, species = load_layout(DEMO_LAYOUT)
    counts = collections.Counter()
    kernel = trap._derivatives

    def counted(corners, point, order=2):
        counts["rf" if corners is layout.rf_corners else "dc", order] += 1
        return kernel(corners, point, order)

    monkeypatch.setattr(trap, "_derivatives", counted)
    secular_spectrum(layout, species)
    assert counts == {("rf", 2): 4, ("rf", 3): 2}
    counts.clear()
    secular_spectrum(layout, species, dc_voltages={0: 1.5, 1: 1.5})
    assert counts == {("rf", 2): 4, ("rf", 3): 2, ("dc", 2): 1}


def test_rf_evaluations_build_the_rf_corner_table_once(monkeypatch):
    # every RF evaluation reads the layout's cached unit-drive table; the
    # field folds the drive into its weights rather than building its own
    layout, species = load_layout(DEMO_LAYOUT)
    builds = []
    corners = trap._corners

    def counted(strips, weights):
        builds.append(len(strips))
        return corners(strips, weights)

    monkeypatch.setattr(trap, "_corners", counted)
    point = (0.0, 0.0, 50e-6)
    rf_field(layout, point)
    rf_field(layout, point)
    pseudopotential(layout, species, point)
    secular_spectrum(layout, species)
    assert builds == [len(layout.rf_strips)]


#: RF layouts of 1, 2 and 26 strips side by side: 4, 8 and 104 corners
_KERNEL_LAYOUTS = {n: [Strip(k * 30e-6, k * 30e-6 + (10 + k % 7) * 1e-6, -(1 + k % 3) * 1e-3,
                             (1 + k % 5) * 1e-3, ROLE_RF) for k in range(n)]
                   for n in (1, 2, 26)}

@st.composite
def kernel_cases(draw):
    """A layout of ``_KERNEL_LAYOUTS``, a number of points, a seed for the
    weights and points, the cuts of a split at any points and the points to
    evaluate alone."""
    n_strips = draw(st.sampled_from(sorted(_KERNEL_LAYOUTS)))
    n = draw(st.integers(0, 200))
    cuts = draw(st.sets(st.integers(1, n - 1), max_size=4)) if n > 1 else ()
    alone = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)) if n else ()
    return (n_strips, n, draw(st.integers(0, 2**32 - 1)), tuple(sorted(cuts)),
            tuple(sorted(alone)))


def floats_of(value):
    """The leaves of a float or of nested tuples of them, in order."""
    if isinstance(value, tuple):
        return [leaf for part in value for leaf in floats_of(part)]
    assert type(value) is float
    return [value]


@settings(max_examples=50, deadline=None)
@given(kernel_cases())
@example((2, 0, 0, (), ()))
@example((2, 1, 0, (), (0,)))
@example((2, 515, 0, (3,), (0, 513, 514)))
@example((26, 33, 0, (1, 17), (0, 16, 32)))
def test_kernel_bits_belong_to_the_point(case):
    # the kernel gives a point's outputs at orders 0-3 as floats in nested
    # tuples of the documented shapes; the Newton steps of a point are the
    # same bits alone, in any batch and in any piece of a split; and the
    # public helpers that read the layout's RF corner table give that
    # point's kernel bits
    n_strips, n, seed, cuts, alone = case
    strips = _KERNEL_LAYOUTS[n_strips]
    rng = np.random.default_rng(seed)
    corners = trap._corners(strips, rng.uniform(-2.0, 2.0, n_strips))
    x0, x1 = strips[0].x_min, strips[-1].x_max
    pts = [tuple(p) for p in np.column_stack([
        rng.uniform(2 * x0 - x1, 2 * x1 - x0, n), rng.uniform(-2e-3, 2e-3, n),
        rng.uniform(1e-6, 3e-4, n)]).tolist()]
    edges = [0, *cuts, n]

    for i in alone:
        assert type(trap._derivatives(corners, pts[i], order=0)) is float
        for order in (1, 2, 3):
            out = trap._derivatives(corners, pts[i], order)
            assert [np.shape(part) for part in out] == [(3,) * k for k in range(1, order + 1)]
            assert len(floats_of(out)) == sum(3**k for k in range(1, order + 1))
    for step in (trap._null_step, trap._saddle_step):
        whole = step(corners, pts)
        assert len(whole) == n
        pieces = [s for i, j in zip(edges, edges[1:]) for s in step(corners, pts[i:j])]
        # the repr of a float holds all of its bits, the sign of zero included
        assert repr(pieces) == repr(whole)
        for i in alone:
            assert repr(step(corners, [pts[i]])) == repr(whole[i:i + 1])

    layout = ElectrodeLayout(strips=tuple(strips), rf_voltage=120.0, rf_omega=RF_OMEGA)
    f = trap._drive_factors(layout, CA40)[0]
    # rf_field folds -V into the weights of the unit-drive table
    driven = [(cx, cy, -120.0 * w) for cx, cy, w in layout.rf_corners]
    for i in alone:
        assert rf_basis_potential(layout, pts[i]) == trap._derivatives(layout.rf_corners,
                                                                       pts[i], order=0)
        ((ex, ey, ez),) = trap._derivatives(layout.rf_corners, pts[i], order=1)
        assert pseudopotential(layout, CA40, pts[i]) == 0.25 * f * (ex * ex + ey * ey + ez * ez)
        (e,) = trap._derivatives(driven, pts[i], order=1)
        assert repr(rf_field(layout, pts[i]).tolist()) == repr(list(e))


def test_null_search_starts_end_alone_as_beside_the_others():
    # each start of a null search ends on the same bits alone as in the
    # joint run, so the null that find_rf_null picks is its start's alone.
    # Two rails on each side give the cross-section three nulls
    um = 1e-6
    layout = ElectrodeLayout(
        strips=(Strip(-50 * um, 50 * um, -3e-3, 3e-3, ROLE_CENTER),)
        + tuple(Strip(*sorted((side * lo, side * hi)), -3e-3, 3e-3, ROLE_RF)
                for side in (-1.0, 1.0) for lo, hi in ((60 * um, 120 * um), (130 * um, 250 * um))),
        rf_voltage=120.0, rf_omega=RF_OMEGA)
    nulls = layout.section_roots[0]

    def ends(starts):
        return trap._damped_newton(layout, trap._null_step, [x for x, _ in starts],
                                   [z for _, z in starts])

    # a start that leaves the domain ends nowhere, alone or beside the others;
    # the repr of a float holds all of its bits, the sign of zero included
    alone = [ends([start]) for start in nulls]
    joint = ends(nulls)
    assert len(joint) >= 2
    assert repr(joint) == repr([end for one in alone for end in one])
    sol = find_rf_null(layout)
    picked = [start for start, one in zip(nulls, alone)
              if [(x, z) for x, z, _ in one] == [(sol.null_position[0], sol.height)]]
    assert picked
    # the same layout, its starts cut down to the picked one
    own_layout = ElectrodeLayout(layout.strips, layout.rf_voltage, layout.rf_omega)
    own_layout.__dict__["section_roots"] = (tuple(picked[:1]), layout.section_roots[1])
    own = find_rf_null(own_layout)
    assert own.null_position.tobytes() == sol.null_position.tobytes()
    assert own.height == sol.height


def test_newton_2x2_singular_matrix_gives_a_non_finite_step():
    # a det of exactly 0, of either sign, is a NaN step and never a
    # ZeroDivisionError; the det is returned as computed
    for h in ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), (-2.0, 2.0, -2.0), (0.0, -0.0, 3.0)):
        dx, dz, det = trap._newton_2x2(*h, 1.0, 2.0)
        assert det == 0.0
        assert not (math.isfinite(dx) or math.isfinite(dz))
    assert trap._newton_2x2(2.0, 0.0, 4.0, 2.0, -4.0) == (-1.0, 1.0, 8.0)


def test_damped_newton_drops_non_finite_steps_and_takes_a_zero_step_whole():
    # a patched step answers each batch in turn: starts 0-2 step NaN,
    # singular and infinite, and are dropped at once; start 3 steps by zero,
    # which is taken whole and converges where it stands; start 4 steps 1e-6
    # of its height and converges in the next batch, which holds it alone
    layout, _ = load_layout(DEMO_LAYOUT)
    x0, extent, _, y = layout.search_frame
    z = [extent * f for f in (0.1, 0.2, 0.3, 0.4, 0.5)]
    z4 = z[4] + 1e-6 * z[4]
    singular = trap._newton_2x2(1.0, 1.0, 1.0, 1.0, 1.0)[:2]
    answers = iter([[(math.nan, 0.0, 0.0), (*singular, 1.0), (math.inf, 0.0, 2.0),
                     (0.0, 0.0, 3.0), (0.0, 1e-6 * z[4], 4.0)],
                    [(0.0, 0.0, 5.0)]])
    batches = []

    def step(rf, pts):
        assert rf is layout.rf_corners
        batches.append(pts)
        return next(answers)

    assert trap._damped_newton(layout, step, [x0] * 5, z) == [(x0, z[3], 3.0), (x0, z4, 5.0)]
    assert batches == [[(x0, y, zk) for zk in z], [(x0, y, z4)]]
    # the points are tuples of Python floats, which the float kernel reads
    assert {type(c) for batch in batches for p in batch for c in (p, *p)} == {tuple, float}


def test_start_choice_prefers_finite_values_and_the_earlier_start_on_a_tie(monkeypatch):
    # find_rf_null takes the highest null with max, and _escape_saddle the
    # smallest value with min, each the earlier start on a tie; an inf
    # saddle value (a point that is not an index-1 saddle) never beats a
    # finite one, and only inf values raise
    layout, _ = load_layout(DEMO_LAYOUT)
    sol = find_rf_null(layout)
    frame = layout.search_frame

    def converge_with(*values, heights=None):
        # start k converges at (1e-6 k, heights[k]) with values[k], by
        # default at the height 1e-4 (k + 1)
        heights = heights or [1e-4 * (k + 1) for k in range(len(values))]
        monkeypatch.setattr(trap, "_damped_newton", lambda *args, **kwargs: [
            (1e-6 * k, z, v) for k, (z, v) in enumerate(zip(heights, values))])

    converge_with(2.0, 1.0, 1.0, 3.0, heights=[2e-4, 4e-4, 4e-4, 1e-4])
    assert find_rf_null(layout).null_position.tolist() == [1e-6, frame[3], 4e-4]
    for values, k in (((math.inf, 5.0, 5.0), 1), ((math.inf, 1e300), 1), ((7.0, math.inf), 0)):
        converge_with(*values)
        saddle, e2 = _escape_saddle(layout, sol.null_position, sol.height)
        assert (saddle.tolist(), e2) == ([1e-6 * k, frame[3], 1e-4 * (k + 1)], values[k])
    for values in ((math.inf, math.inf), ()):
        converge_with(*values)
        with pytest.raises(NoTrapError, match="no escape saddle"):
            _escape_saddle(layout, sol.null_position, sol.height)


#: norm-wise accuracy of the kernel's derivatives against mpmath on ordinary
#: strips (``test_kernel_third_derivatives_match_mpmath_normwise``)
_KERNEL_TOL = 1e-13


def newton_oracles(strips, point):
    """The null and saddle Newton steps at ``point`` from the mpmath
    derivatives, each with its value and first-order bounds on their errors
    that the kernel's accuracy allows, all in the x-z plane:
    ((-J^-1 E, |(E_x, E_z)|, bounds), (-h^-1 g, |E|^2 + g.delta, bounds, det h))."""
    xz = [0, 2]
    e, jac, d3 = mp_grad(strips, point), mp_hess(strips, point), mp_third(strips, point)
    # error allowed in E, J and grad J: the tolerance times each one's norm,
    # plus z times the next one's for E and J, which cancel from that size
    # at the null (E) and at the saddle (J)
    n_e, n_j, n_t = np.linalg.norm(e), np.linalg.norm(jac), np.linalg.norm(d3)
    z = point[2]
    err_e, err_j, err_t = (_KERNEL_TOL * n for n in (n_e + z * n_j, n_j + z * n_t, n_t))
    a = jac[np.ix_(xz, xz)]
    null = -np.linalg.solve(a, e[xz])
    null_bound = np.linalg.norm(np.linalg.inv(a), 2) * (err_e + err_j * np.linalg.norm(null))
    g = e @ jac[:, xz]
    h = jac[:, xz].T @ jac[:, xz] + np.einsum("i,iab->ab", e, d3[:, xz][:, :, xz])
    saddle = -np.linalg.solve(h, g)
    err_g = n_e * err_j + n_j * err_e
    err_h = 2.0 * n_j * err_j + n_e * err_t + n_t * err_e
    saddle_bound = np.linalg.norm(np.linalg.inv(h), 2) * (err_g + err_h * np.linalg.norm(saddle))
    value_bound = (2.0 * n_e * err_e + np.linalg.norm(g) * saddle_bound
                   + np.linalg.norm(saddle) * err_g)
    return ((null, math.hypot(*e[xz]), (null_bound, err_e)),
            (saddle, e @ e + g @ saddle, (saddle_bound, value_bound), np.linalg.det(h)))


@settings(max_examples=12, deadline=None)
@given(at_saddle=st.booleans(), dx=st.floats(-0.2, 0.2), dz=st.floats(-0.1, 0.1))
@example(at_saddle=False, dx=0.1, dz=0.05)
@example(at_saddle=True, dx=-0.1, dz=0.05)
def test_float_steps_match_mpmath_newton_steps(at_saddle, dx, dz):
    # near the demo null and its escape saddle, each float step is the
    # Newton step of the mpmath derivatives to the kernel's accuracy; the
    # steps agree to within 1/250 of the bound.  A sign flip of h_xz, which
    # vanishes on the symmetry axis x = 0, misses by more than 3e10 times
    # the bound at |dx| >= 0.05 heights; an x/z column swapped fails too
    layout, _ = load_layout(DEMO_LAYOUT)
    sol = find_rf_null(layout)
    center = (_escape_saddle(layout, sol.null_position, sol.height)[0] if at_saddle
              else sol.null_position)
    point = center + sol.height * np.array([dx, 0.0, dz])
    (null, e_xz, (null_bound, e_bound)), (saddle, e2, (step_bound, value_bound), det) = (
        newton_oracles(layout.rf_strips, point))
    ((nx, nz, nv),) = trap._null_step(layout.rf_corners, [tuple(point.tolist())])
    assert math.hypot(nx - null[0], nz - null[1]) <= null_bound
    assert abs(nv - e_xz) <= e_bound
    ((sx, sz, sv),) = trap._saddle_step(layout.rf_corners, [tuple(point.tolist())])
    assert math.hypot(sx - saddle[0], sz - saddle[1]) <= step_bound
    # the value is the model's where h has one negative eigenvalue, else inf
    assert (det < 0.0) == at_saddle
    if at_saddle:
        assert abs(sv - e2) <= value_bound
    else:
        assert sv == math.inf


def test_spectrum_invariant_under_translation(five_wire, solved):
    layout, _ = five_wire
    shifted = ElectrodeLayout(
        strips=tuple(Strip(s.x_min + 1e-3, s.x_max + 1e-3, s.y_min, s.y_max,
                           s.role, s.dc_index) for s in layout.strips),
        rf_voltage=layout.rf_voltage, rf_omega=layout.rf_omega)
    sol = secular_spectrum(shifted, CA40)
    assert sol.null_position[0] == pytest.approx(1e-3, abs=1e-12)
    assert sol.height == pytest.approx(solved.height, rel=1e-9)
    for got, ref in zip(sorted(sol.secular_freqs_hz)[1:],
                        sorted(solved.secular_freqs_hz)[1:]):
        assert got == pytest.approx(ref, rel=1e-6)


def test_dc_only_hessian_is_traceless(five_wire, solved):
    layout, _ = five_wire
    volts = {0: 1.0, 1: -0.7}

    def phi(p):
        return dc_potential(layout, volts, p)

    H = hessian_3pt(phi, solved.null_position, step=solved.height * 1e-2)
    assert abs(np.trace(H)) < 1e-6 * np.linalg.norm(H)
    _, exact = stacked(trap._dc_corners(layout, volts), solved.null_position)
    assert np.allclose(H, exact[0], rtol=0.0, atol=1e-6 * np.linalg.norm(exact[0]))


def test_unknown_dc_index_raises(five_wire):
    layout, _ = five_wire
    with pytest.raises(DomainError, match=r"indices are \[0, 1\]"):
        secular_spectrum(layout, CA40, dc_voltages={99: 5.0})
    with pytest.raises(DomainError, match=r"indices are \[0, 1\]"):
        dc_potential(layout, {0: 1.0, 99: 5.0}, (0.0, 0.0, 80e-6))


@pytest.mark.parametrize("volts", [1e308, math.inf, -math.inf, math.nan])
def test_non_finite_curvature_is_domain_error(five_wire, volts):
    # a voltage that is not finite, or whose curvature overflows, names the
    # problem instead of failing inside the eigensolver
    layout, _ = five_wire
    with pytest.raises(DomainError):
        secular_spectrum(layout, CA40, dc_voltages={0: volts})
    with pytest.raises(DomainError):
        secular_spectrum(layout, CA40, dc_voltages={0: 1.0, 1: volts})


@pytest.mark.parametrize("volts, freq, named", [(120.0, 1e-200, "rf_frequency = 1e-200 Hz"),
                                               (1e-200, 49.9e6, "rf_voltage = 1e-200 V"),
                                               (1e300, 49.9e6, "rf_voltage = 1e+300 V")])
def test_degenerate_drive_factor_is_domain_error(five_wire, volts, freq, named):
    # Omega^2 underflows, (qV)^2 underflows, (qV)^2 overflows: the factors
    # that carry the unit-drive field over to the ion are zero or infinite
    layout = ElectrodeLayout(strips=five_wire[0].strips, rf_voltage=volts,
                             rf_omega=2.0 * math.pi * freq)
    with pytest.raises(DomainError, match=re.escape(named)):
        secular_spectrum(layout, CA40)
    with pytest.raises(DomainError, match=re.escape(named)):
        pseudopotential(layout, CA40, (0.0, 0.0, 80e-6))


def test_overflowing_rf_curvature_is_domain_error(five_wire):
    # at 1e150 V the null is found, but the curvature per unit mass overflows
    layout = ElectrodeLayout(strips=five_wire[0].strips, rf_voltage=1e150, rf_omega=RF_OMEGA)
    with pytest.raises(DomainError, match="curvature"):
        secular_spectrum(layout, CA40)


@pytest.mark.parametrize("mass, charge", [(math.inf, 1.6e-19), (math.nan, 1.6e-19),
                                          (0.0, 1.6e-19), (6.6e-26, math.inf),
                                          (6.6e-26, -math.inf), (6.6e-26, math.nan),
                                          (6.6e-26, 0.0)])
def test_species_needs_finite_mass_and_charge(mass, charge):
    with pytest.raises(DomainError, match="finite"):
        IonSpecies(mass, charge, "x")


def test_trap_depth_matches_mpmath_barrier(five_wire, solved):
    # the symmetric trap's escape saddle lies on the vertical through the
    # null: mpmath finds the root of d(psi)/dz there at 30 digits, started
    # from the highest of a coarse sample of the public pseudopotential
    layout, _ = five_wire
    null, h = solved.null_position, solved.height
    s = np.geomspace(1e-2 * h, 30.0 * h, 64)
    psi = [pseudopotential(layout, CA40, null + [0.0, 0.0, si]) for si in s]
    z_top = null[2] + s[int(np.argmax(psi))]

    def phi(*c):
        return mp_phi(layout.rf_strips, *c)

    with mp.workdps(30):
        x, y, z0 = (mp.mpf(float(c)) * _UM for c in null)

        def dpsi_dz(z):  # proportional to sum_i d_i(phi) d_i d_z(phi)
            return sum(mp.diff(phi, (x, y, z), o) * mp.diff(phi, (x, y, z), (o[0], o[1], o[2] + 1))
                       for o in _FIRST)

        z_saddle = mp.findroot(dpsi_dz, mp.mpf(float(z_top)) * _UM)
        barrier = mp_psi(layout, CA40, x, y, z_saddle) - mp_psi(layout, CA40, x, y, z0)
        oracle = float(barrier / mp.mpf(CONSTANTS.elementary_charge))
    assert solved.trap_depth_ev == pytest.approx(oracle, rel=1e-13)


def test_asymmetric_trap_depth_is_its_escape_saddle():
    # rails of unequal width tilt the escape saddle off the vertical; a ray
    # march puts the barrier at 0.0579519 eV with 64 rays and at 0.0578887 eV
    # with 1024
    layout = ElectrodeLayout(strips=(Strip(-55e-6, 55e-6, -3e-3, 3e-3, ROLE_CENTER),
                                     Strip(55e-6, 115e-6, -3e-3, 3e-3, ROLE_RF),
                                     Strip(-195e-6, -55e-6, -3e-3, 3e-3, ROLE_RF)),
                             rf_voltage=120.0, rf_omega=RF_OMEGA)
    sol = secular_spectrum(layout, CA40)
    assert 0.0 < sol.trap_depth_ev <= 0.0578887
    saddle, _ = _escape_saddle(layout, sol.null_position, sol.height)
    assert abs(saddle[0] - sol.null_position[0]) > 1e-6  # off the vertical

    def phi(*c):
        return mp_phi(layout.rf_strips, *c)

    def grad_xz(p):
        """The terms of grad psi's x and z components, proportional to
        sum_i d_i(phi) d_i d_j(phi)."""
        g = [mp.diff(phi, p, o) for o in _FIRST]
        return [[g[i] * mp.diff(phi, p, tuple(a + b for a, b in zip(_FIRST[i], _FIRST[j])))
                 for i in range(3)] for j in (0, 2)]

    with mp.workdps(30):
        # the oracle is the float saddle polished to 30 digits
        p = [mp.mpf(float(c)) * _UM for c in saddle]
        y = p[1]
        x, z = mp.findroot(lambda x, z: [sum(terms) for terms in grad_xz((x, y, z))],
                           (p[0], p[2]))
        null = [mp.mpf(float(c)) * _UM for c in sol.null_position]
        barrier = mp_psi(layout, CA40, x, y, z) - mp_psi(layout, CA40, *null)
        oracle = float(barrier / mp.mpf(CONSTANTS.elementary_charge))
        # the float saddle lies within about eps^(2/3) of the height of it
        off = max(abs(float(x / _UM) - saddle[0]), abs(float(z / _UM) - saddle[2]))
    assert off <= 1e-10 * sol.height
    assert sol.trap_depth_ev == pytest.approx(oracle, rel=1e-13)


def test_escape_rays_without_a_saddle_raise(monkeypatch, five_wire):
    # the depth is never a sampled value: when the cross-section has saddles
    # but no Newton start from them reaches an index-1 saddle (every value
    # inf), the depth is undefined
    layout, _ = five_wire
    step = trap._saddle_step
    monkeypatch.setattr(trap, "_saddle_step", lambda rf, pts: [
        (dx, dz, math.inf) for dx, dz, _ in step(rf, pts)])
    with pytest.raises(NoTrapError, match="no escape saddle"):
        secular_spectrum(layout, CA40)


def closed_form_rf_field(layout, points):
    """Peak RF field -V grad(phi_rf) (V/m) at (N, 3) ``points``, vectorised over
    points and RF strip corners and apart from the kernel: at a corner (u, v) =
    (x_c - x, y_c - y) of a strip, with r = |(u, v, z)|, atan(uv / (z r)) has
    the u, v and z derivatives vz / ((u^2 + z^2) r), uz / ((v^2 + z^2) r) and
    -uv (r^2 + z^2) / ((u^2 + z^2)(v^2 + z^2) r)."""
    xc, yc, sign = np.array([(x, y, sx * sy) for s in layout.rf_strips
                             for x, sx in ((s.x_max, 1.0), (s.x_min, -1.0))
                             for y, sy in ((s.y_max, 1.0), (s.y_min, -1.0))]).T
    x, y, z = np.asarray(points, dtype=float).reshape(-1, 3).T[:, :, None]
    u, v = xc - x, yc - y
    uz, vz = u * u + z * z, v * v + z * z
    r = np.sqrt(uz + v * v)
    grad = np.column_stack([-(v * z / (uz * r)) @ sign, -(u * z / (vz * r)) @ sign,
                            -(u * v * (r * r + z * z) / (uz * vz * r)) @ sign])
    return -layout.rf_voltage * grad / (2.0 * math.pi)


@pytest.mark.parametrize("length", [7e-3, 100e-6])
def test_closed_form_field_matches_the_kernel(length):
    # the ray-march oracle's field, checked once against trap.rf_field
    layout = rails_of_length(length)
    sol = find_rf_null(layout)
    offsets = ([0.0, 0.0, 20e-6], [15e-6, 3e-6, -10e-6], [-40e-6, -20e-6, 60e-6], [0.0] * 3)
    points = [sol.null_position + offset for offset in offsets]
    kernel = np.array([trap.rf_field(layout, point) for point in points])
    np.testing.assert_allclose(closed_form_rf_field(layout, points), kernel, rtol=0.0,
                               atol=1e-12 * np.abs(kernel).max())


def ray_march_depth(layout, species, null, height, n_rays=64, n_samples=2000,
                    polish_angle=False):
    """Lowest escape-ray barrier of psi above the null, in eV, by a dense march.

    Each transverse ray is sampled at ``n_samples`` distances out to 30
    heights; a ray whose highest sample is its last one does not escape.  The
    maximum of each escape ray is then polished by golden-section search
    between the samples beside it, so that every ray barrier is exact and, as
    the top of an escape path, no lower than the escape saddle.  With
    ``polish_angle``, the barrier of each ray no higher than its two
    neighbours is also minimized over the angle between them, by golden
    section, so that a saddle between two rays is met too.
    """
    s = np.geomspace(1e-2 * height, 30.0 * height, n_samples)
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def e2(theta, dist):
        pts = np.column_stack([null[0] + np.cos(theta) * dist, np.full(dist.size, null[1]),
                               null[2] + np.sin(theta) * dist])
        e = closed_form_rf_field(layout, pts)
        return np.einsum("ij,ij->i", e, e)

    def barriers(thetas):
        """The polished barrier of each ray, inf where it does not escape."""
        rays, theta, lo, hi = [], [], [], []
        for r, th in enumerate(thetas):
            ray = s[null[2] + math.sin(th) * s > 1e-8]
            k = int(np.argmax(e2(np.full(ray.size, th), ray)))
            if 0 < k < ray.size - 1:
                rays.append(r)
                theta.append(th)
                lo.append(ray[k - 1])
                hi.append(ray[k + 1])
        theta, lo, hi = np.array(theta), np.array(lo), np.array(hi)
        for _ in range(80):
            a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
            left = e2(theta, a) > e2(theta, b)
            hi, lo = np.where(left, b, hi), np.where(left, lo, a)
        out = np.full(len(thetas), np.inf)
        out[rays] = e2(theta, 0.5 * (lo + hi))
        return out

    thetas = np.linspace(0.0, 2.0 * math.pi, n_rays, endpoint=False)
    tops = barriers(thetas)
    top = float(tops.min())
    if polish_angle:
        ring = np.concatenate([tops[-1:], tops, tops[:1]])
        valley = thetas[np.isfinite(tops) & (tops <= ring[:-2]) & (tops <= ring[2:])]
        lo, hi = valley - 2.0 * math.pi / n_rays, valley + 2.0 * math.pi / n_rays
        for _ in range(30):
            a, b = hi - golden * (hi - lo), lo + golden * (hi - lo)
            f = barriers(np.concatenate([a, b]))
            left = f[:a.size] < f[a.size:]
            hi, lo = np.where(left, b, hi), np.where(left, lo, a)
        top = min(top, float(barriers(0.5 * (lo + hi)).min()))
    top -= float(e2(np.zeros(1), np.zeros(1))[0])  # |E|^2 at the null itself
    psi = species.charge_c**2 * top / (4.0 * species.mass_kg * layout.rf_omega**2)
    return psi / CONSTANTS.elementary_charge


@settings(max_examples=12, deadline=None)
@given(g=st.floats(20e-6, 150e-6), rail=st.floats(40e-6, 120e-6), gap=st.floats(5e-6, 15e-6),
       volts=st.floats(50.0, 250.0), freq=st.floats(20e6, 60e6))
def test_five_wire_depth_matches_dense_ray_march(g, rail, gap, volts, freq):
    # the bench's design ranges; each polished ray barrier bounds the saddle
    # from above, and the ray through it attains it
    layout, _ = five_wire_layout(g, rail_width=rail, gap=gap, rf_voltage=volts,
                                 rf_omega=2.0 * math.pi * freq)
    sol = secular_spectrum(layout, CA40)
    march = ray_march_depth(layout, CA40, sol.null_position, sol.height)
    assert math.isfinite(sol.trap_depth_ev) and sol.trap_depth_ev > 0.0
    assert sol.trap_depth_ev <= march * (1.0 + 1e-9)
    assert sol.trap_depth_ev == pytest.approx(march, rel=1e-6)


@pytest.mark.parametrize("length", [6e-3, 1e-3, 400e-6, 200e-6, 100e-6, 50e-6])
def test_short_strip_depth_matches_dense_ray_march(length):
    # strips a few heights long hold the null and the saddle well below their
    # infinite-strip heights (at 50 um long, the null at 0.67 of it); the
    # saddle starts, rescaled by the null's height, still reach the saddle
    layout, _ = five_wire_layout(52.7e-6, length=length)
    sol = secular_spectrum(layout, CA40)
    march = ray_march_depth(layout, CA40, sol.null_position, sol.height)
    assert sol.trap_depth_ev == pytest.approx(march, rel=1e-6)


@st.composite
def rail_layouts(draw):
    """One or two RF rails on each side of a grounded center strip off x = 0,
    each rail of its own width, gap to its inner neighbour and length."""
    um = 1e-6
    center, half = draw(st.floats(-200.0, 200.0)) * um, draw(st.floats(20.0, 150.0)) * um
    strips = [Strip(center - half, center + half, -3e-3, 3e-3, ROLE_CENTER)]
    for side in (-1.0, 1.0):
        edge = half
        for _ in range(draw(st.integers(1, 2))):
            inner = edge + draw(st.floats(5.0, 15.0)) * um
            edge = inner + draw(st.floats(40.0, 120.0)) * um
            x_min, x_max = sorted((center + side * inner, center + side * edge))
            length = draw(st.floats(2e-3, 8e-3))
            strips.append(Strip(x_min, x_max, -0.5 * length, 0.5 * length, ROLE_RF))
    return ElectrodeLayout(strips=tuple(strips), rf_voltage=120.0, rf_omega=RF_OMEGA)


@settings(max_examples=10, deadline=None)
@given(rail_layouts())
def test_escape_saddle_off_the_vertical_matches_dense_ray_march(layout):
    # 2-4 rails of unequal width, gap and length tilt the escape saddle off
    # the vertical and between any fixed rays, so the march is also polished
    # over the angle; every such layout has a null and its exact saddle
    sol = secular_spectrum(layout, CA40)
    march = ray_march_depth(layout, CA40, sol.null_position, sol.height, n_samples=400,
                            polish_angle=True)
    assert sol.trap_depth_ev <= march * (1.0 + 1e-9)
    assert sol.trap_depth_ev == pytest.approx(march, rel=1e-6)


@settings(max_examples=10, deadline=None)
@given(rail_layouts())
def test_saddle_search_stops_early_without_losing_digits(layout):
    # the saddle search stops once its step is below eps^(1/3) of the height
    # and reports the quadratic model's |E|^2 at the step's end; the same
    # starts run on to 1e-9, as the null search does, end on the same value
    # to 1e-14 and never in fewer order-3 evaluations
    sol = find_rf_null(layout)
    kernel = trap._derivatives
    runs = []
    for tol in (trap._SADDLE_TOL, 1e-9):
        batches = collections.Counter()

        def counted(corners, points, order=2):
            batches[order] += 1
            return kernel(corners, points, order)

        with mock.patch.object(trap, "_SADDLE_TOL", tol), \
                mock.patch.object(trap, "_derivatives", counted):
            try:
                saddle = _escape_saddle(layout, sol.null_position, sol.height)
            except NoTrapError as exc:
                saddle = str(exc)
        runs.append((saddle, batches[3]))
    (early, early_batches), (late, late_batches) = runs
    assert early_batches <= late_batches
    if not isinstance(late, tuple):
        assert early == late
        return
    assert early[1] == pytest.approx(late[1], rel=1e-14, abs=0.0)


def test_axial_q_matches_mpmath_curvature(five_wire, solved):
    # the pseudopotential's axial curvature at the null, by mpmath.diff of the
    # mpmath pseudopotential along y, sets the axial Mathieu q; the axial q is
    # about 1e-5 of the radial one, so only a q computed to full relative
    # precision meets the tolerance.  The fixture's trap, then designs from
    # the bench's five-wire ranges
    cases = [(five_wire[0], solved)]
    for g, rail, gap, volts, freq in ((40.9e-6, 55.4e-6, 5.8e-6, 169.0, 28.2e6),
                                      (24e-6, 44e-6, 6e-6, 70.0, 22e6),
                                      (140e-6, 110e-6, 14e-6, 240.0, 57e6)):
        layout, _ = five_wire_layout(g, rail_width=rail, gap=gap, rf_voltage=volts,
                                     rf_omega=2.0 * math.pi * freq)
        cases.append((layout, secular_spectrum(layout, CA40)))
    for layout, sol in cases:
        x, y, z = sol.null_position
        with mp.workdps(30):
            curv = mp.diff(lambda yy: mp_psi(layout, CA40, mp.mpf(x) * _UM, yy, mp.mpf(z) * _UM),
                           mp.mpf(y) * _UM, 2) * _UM**2
            oracle = float(2 * mp.sqrt(2) * mp.sqrt(curv / mp.mpf(CA40.mass_kg))
                           / mp.mpf(layout.rf_omega))
        assert min(sol.q_params) == pytest.approx(oracle, rel=1e-9)


def test_axial_confinement_from_dc_rails(five_wire):
    # positive rail voltages push the ion away from the rail ends: the axial
    # direction turns unstable at this segment count, and is reported, not raised
    layout, _ = five_wire
    sol = secular_spectrum(layout, CA40, dc_voltages={0: 1.0, 1: 1.0})
    assert sol.unstable_axes == (0,)
    assert not sol.stable
    assert sorted(sol.secular_freqs_hz)[0] == 0.0
    # radial modes split but stay near the RF-only value
    _, r1, r2 = sorted(sol.secular_freqs_hz)
    assert r1 == pytest.approx(2.93e6, rel=1e-2)
    assert r2 == pytest.approx(3.36e6, rel=1e-2)


# ---------------------------------------------------------------------------
# layout construction and config files
# ---------------------------------------------------------------------------


def test_strip_validation():
    with pytest.raises(DomainError):
        Strip(1e-5, -1e-5, -1e-4, 1e-4, ROLE_RF)
    with pytest.raises(DomainError):
        Strip(-1e-5, 1e-5, -1e-4, 1e-4, "ground")
    with pytest.raises(DomainError):
        Strip(-1e-5, 1e-5, -1e-4, 1e-4, ROLE_DC)  # missing dc_index


@pytest.mark.parametrize("role", [ROLE_RF, ROLE_CENTER])
def test_strip_rejects_dc_index_on_a_non_dc_strip(role):
    with pytest.raises(DomainError, match=f"only dc strips take a dc_index, not {role}"):
        Strip(-1e-5, 1e-5, -1e-4, 1e-4, role, dc_index=0)


@pytest.mark.parametrize("index", [0.5, 1.0, -1, "0"])
def test_strip_dc_index_is_an_integer_at_least_zero(index):
    # a float index would set a voltage through a float key of dc_voltages
    with pytest.raises(DomainError, match=r"dc_index must be an integer >= 0, got "):
        Strip(-1e-5, 1e-5, -1e-4, 1e-4, ROLE_DC, dc_index=index)
    strip = Strip(-1e-5, 1e-5, -1e-4, 1e-4, ROLE_DC, dc_index=np.int64(2))
    assert type(strip.dc_index) is int and strip.dc_index == 2


def test_load_layout_rejects_dc_index_on_the_rf_strip(tmp_path):
    text = DEMO_LAYOUT.read_text()
    path = tmp_path / "layout.cfg"
    path.write_text(text.replace("[strip rf_left]\nrole = rf\n",
                                 "[strip rf_left]\nrole = rf\ndc_index = 0\n", 1))
    assert path.read_text() != text
    with pytest.raises(ConfigError, match=r"^\[strip rf_left\]: only dc strips take a dc_index"):
        load_layout(path)


@pytest.mark.parametrize("extents", [(0.0, math.inf, 0.0, 1e-4), (-math.inf, 0.0, 0.0, 1e-4),
                                     (0.0, 1e-5, -math.inf, math.inf), (0.0, 1e-5, 0.0, math.nan)])
def test_strip_rejects_non_finite_extents(extents):
    with pytest.raises(DomainError):
        Strip(*extents, ROLE_RF)


def test_layout_rejects_overlap_and_missing_rf():
    a = Strip(-2e-5, 1e-5, -1e-4, 1e-4, ROLE_RF)
    b = Strip(0.0, 3e-5, -1e-4, 1e-4, ROLE_RF)
    with pytest.raises(DomainError):
        ElectrodeLayout(strips=(a, b), rf_voltage=100.0, rf_omega=RF_OMEGA)
    only_dc = Strip(-2e-5, 1e-5, -1e-4, 1e-4, ROLE_DC, dc_index=0)
    with pytest.raises(DomainError):
        ElectrodeLayout(strips=(only_dc,), rf_voltage=100.0, rf_omega=RF_OMEGA)
    # shared edges are fine
    ElectrodeLayout(strips=(a, Strip(1e-5, 3e-5, -1e-4, 1e-4, ROLE_CENTER)),
                    rf_voltage=100.0, rf_omega=RF_OMEGA)


@pytest.mark.parametrize("segments", [-1, 1.5, 2.0, "2", None])
def test_five_wire_dc_segments_must_be_a_non_negative_integer(segments):
    with pytest.raises(DomainError, match="dc_segments"):
        five_wire_layout(52.7e-6, dc_segments=segments)


def test_five_wire_dc_segments_count_the_rails():
    for n in (0, 1, np.int64(3)):
        layout, _ = five_wire_layout(52.7e-6, dc_segments=n)
        roles = collections.Counter(s.role for s in layout.strips)
        assert (roles[ROLE_CENTER], roles[ROLE_RF], roles[ROLE_DC]) == (1, 2, 2 * n)


def test_solved_layout_equals_a_fresh_one():
    # rf_strips is computed once per layout; the cache must not change what
    # a layout compares, hashes or prints as
    solved_layout, _ = five_wire_layout(52.7e-6)
    fresh, _ = five_wire_layout(52.7e-6)
    secular_spectrum(solved_layout, CA40)
    assert solved_layout.rf_strips == fresh.rf_strips
    assert solved_layout == fresh and fresh == solved_layout
    assert hash(solved_layout) == hash(fresh)
    assert repr(solved_layout) == repr(fresh)
    assert solved_layout != ElectrodeLayout(strips=fresh.strips, rf_voltage=121.0,
                                            rf_omega=fresh.rf_omega)


def test_load_layout_round_trip(tmp_path, five_wire):
    layout, _ = five_wire
    cfg = tmp_path / "trap.cfg"
    lines = ["[trap]", "rf_voltage = 120V", "rf_frequency = 49.9MHz", "species = Ca40", ""]
    for i, s in enumerate(layout.strips):
        lines += [f"[strip e{i}]", f"role = {s.role}",
                  f"x_min = {s.x_min}", f"x_max = {s.x_max}",
                  f"y_min = {s.y_min}", f"y_max = {s.y_max}"]
        if s.dc_index is not None:
            lines.append(f"dc_index = {s.dc_index}")
        lines.append("")
    cfg.write_text("\n".join(lines))
    loaded, species = load_layout(cfg)
    assert species is CA40
    assert loaded.rf_voltage == pytest.approx(120.0)
    assert loaded.rf_omega == pytest.approx(RF_OMEGA, rel=1e-12)
    assert len(loaded.strips) == len(layout.strips)
    got = {(s.x_min, s.x_max, s.role) for s in loaded.strips}
    want = {(s.x_min, s.x_max, s.role) for s in layout.strips}
    assert got == want


def test_load_layout_error_paths(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(ConfigError):
        load_layout(missing)

    no_trap = tmp_path / "a.cfg"
    no_trap.write_text("[strip s]\nrole = rf\nx_min = 0um\nx_max = 1um\n"
                       "y_min = 0um\ny_max = 1um\n")
    with pytest.raises(ConfigError):
        load_layout(no_trap)

    bad_key = tmp_path / "b.cfg"
    bad_key.write_text("[trap]\nrf_voltage = 120V\nrf_frequency = 49.9MHz\n"
                       "color = blue\n")
    with pytest.raises(ConfigError):
        load_layout(bad_key)

    bad_section = tmp_path / "c.cfg"
    bad_section.write_text("[trap]\nrf_voltage = 120V\nrf_frequency = 49.9MHz\n"
                           "[oven]\nrole = rf\n")
    with pytest.raises(ConfigError):
        load_layout(bad_section)

    bad_species = tmp_path / "d.cfg"
    bad_species.write_text("[trap]\nrf_voltage = 120V\nrf_frequency = 49.9MHz\n"
                           "species = Yb171\n")
    with pytest.raises(ConfigError):
        load_layout(bad_species)

    bad_strip = tmp_path / "e.cfg"
    bad_strip.write_text("[trap]\nrf_voltage = 120V\nrf_frequency = 49.9MHz\n"
                         "[strip s]\nrole = rf\nx_min = 2um\nx_max = 1um\n"
                         "y_min = 0um\ny_max = 1um\n")
    with pytest.raises(ConfigError):
        load_layout(bad_strip)


# ---------------------------------------------------------------------------
# resonator and two-ion helpers
# ---------------------------------------------------------------------------


def test_resonator_capacitance_value():
    c = resonator_capacitance(1.6e-6, 49.9e6)
    assert c == pytest.approx(6.357980467594619e-12, rel=1e-12)
    assert c == pytest.approx(6.36e-12, rel=1e-3)


def test_resonator_round_trip_and_scaling():
    c = resonator_capacitance(1.6e-6, 49.9e6)
    assert resonance_frequency(1.6e-6, c) == pytest.approx(49.9e6, rel=1e-12)
    assert resonance_frequency(1.6e-6, 4.0 * c) == pytest.approx(0.5 * 49.9e6, rel=1e-12)
    with pytest.raises(DomainError):
        resonator_capacitance(0.0, 49.9e6)
    with pytest.raises(DomainError):
        resonance_frequency(1.6e-6, -1e-12)


def test_two_ion_spacing_value_and_scaling():
    s = two_ion_spacing(CA40, 1.0e6)
    assert s == pytest.approx(5.605442553159701e-6, rel=1e-12)
    assert s == pytest.approx(5.59e-6, rel=4e-3)  # three-digit headline value
    assert two_ion_spacing(CA40, 1.0e6) / two_ion_spacing(CA40, 2.0e6) == pytest.approx(
        2.0 ** (2.0 / 3.0), rel=1e-12)
    # comfortably resolvable by a 3 um addressing beam
    assert s > 3.0e-6
    with pytest.raises(DomainError):
        two_ion_spacing(CA40, 0.0)


@pytest.mark.parametrize("call", [
    lambda: resonator_capacitance(1e-200, 1e-200),  # L*(2 pi f)^2 underflows to 0
    lambda: resonator_capacitance(1e300, 1e300),    # (2 pi f)^2 overflows
    lambda: resonance_frequency(1e-200, 1e-200),    # L*C underflows to 0
    lambda: resonance_frequency(1e300, 1e300),      # L*C overflows: f0 underflows to 0
    lambda: two_ion_spacing(CA40, 1e-150),          # m*omega^2 underflows to 0
    lambda: two_ion_spacing(CA40, 1e300),           # omega^2 overflows
], ids=["cap_under", "cap_over", "f0_under", "f0_over", "spacing_under", "spacing_over"])
def test_closed_forms_beyond_the_float_range_raise_domain_error(call):
    with pytest.raises(DomainError, match="beyond the float range"):
        call()


def test_species_module_serves_the_trap_names():
    import cryoion
    from cryoion import species

    for name in ("IonSpecies", "CA40", "SR88", "SPECIES", "resonator_capacitance",
                 "resonance_frequency", "two_ion_spacing"):
        assert getattr(trap, name) is getattr(species, name)
    assert cryoion.CA40 is species.CA40 and cryoion.two_ion_spacing is species.two_ion_spacing
