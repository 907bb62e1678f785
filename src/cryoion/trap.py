"""Surface-electrode trap electrostatics in the gapless-plane approximation.

Every electrode is a rectangle in the z=0 plane; the rest of the plane is
grounded.  The basis potential of a rectangle held at unit voltage is the
solid angle it subtends at the field point divided by 2*pi (a sum of four
arctangents), which is harmonic, bounded in [0, 1] and exact for the gapless
model.  One numpy kernel sums those arctangents and their closed-form
derivatives up to third order over all strips for a batch of points
(Wesenberg, PRA 78, 063410 (2008); House, PRA 78, 033402 (2008)).

The solve is scale-free: it runs on the RF strips at unit drive, and each of
its lengths is a fixed fraction of the RF strips' x extent or of the height.
Damped Newton steps with exact derivatives find the RF null (E = 0, with the
field Jacobian J) and the escape saddle of |E|^2 in the x-z plane through it.
V, Omega, m and q enter once, at the end: psi = (qV)^2 |E|^2 / (4 m Omega^2)
has the Hessian (qV)^2 J^T J / (2 m Omega^2) at the null, which with the DC
curvature gives the secular spectrum; the Mathieu q_i = 2 |qV| sigma_i /
(m Omega^2), with sigma_i the singular values of J; and the depth is psi at
the saddle minus psi at the null.

The ion species, the LC resonator arithmetic and the two-ion spacing are
scalar closed forms in ``cryoion.species``, imported here so that they are
also ``cryoion.trap`` names; the CLI's scalar trap commands use that module
and never load this one or numpy.

Axes: x across the strips, y along the trap axis, z normal to the chip.
"""
from __future__ import annotations

import configparser
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NoTrapError, UnitError, integer_at_least
from .species import (CA40, SPECIES, SR88, IonSpecies, resonance_frequency,
                      resonator_capacitance, two_ion_spacing)
from .units import CONSTANTS, HERTZ, METER, VOLT, parse_si

ROLE_RF = "rf"
ROLE_DC = "dc"
ROLE_CENTER = "center"  # grounded: a covered slot or ground plane strip

#: start heights of the null search, as fractions of the RF strips' x extent L
DEFAULT_START_FRACTIONS = (1 / 12, 1 / 6, 1 / 3, 2 / 3)

#: lowest height of a search point, as a fraction of L (1 nm on the demo layout)
_MIN_Z = 4e-6
#: Newton correction, as a fraction of the height, below which a search has
#: converged.  The null's position and Jacobian are outputs, so its search
#: runs to 1e-9.  The saddle search reports the quadratic model's value at
#: the Newton end point, whose error at a stationary point is O((|step|/z)^3),
#: so a step of eps^(1/3) z (about 6.1e-6 z) already leaves it exact to rounding
_NULL_TOL = 1e-9
_SADDLE_TOL = float(np.finfo(float).eps) ** (1.0 / 3.0)
#: coarse transverse ray scan that seeds the escape-saddle search (rays, and
#: samples per ray), and the most Newton starts taken from it
_SCAN_RAYS = 32
_SCAN_SAMPLES = 12
_SADDLE_STARTS = 4
#: the scan's distances from the null along each ray, in heights
_SCAN_DISTANCES = np.geomspace(1e-2, 30.0, _SCAN_SAMPLES)
#: directions (cos, sin) of the scan's rays in the x-z plane, one row per ray
_RAY_COS, _RAY_SIN = (f(np.linspace(0.0, 2.0 * math.pi, _SCAN_RAYS, endpoint=False))[:, None]
                      for f in (np.cos, np.sin))
#: the rays in order with one wrapped neighbour at each end: ring[:-2] is each
#: ray's neighbour before it on the circle, ring[2:] the one after
_RAY_RING = np.arange(-1, _SCAN_RAYS + 1) % _SCAN_RAYS


@dataclass(frozen=True)
class Strip:
    """Axis-aligned rectangular electrode [x_min,x_max] x [y_min,y_max] at z=0.

    Only DC strips take a ``dc_index``, an integer >= 0, stored as an int."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    role: str
    dc_index: int | None = None

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise DomainError("strip extents must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DomainError("strip extents must have positive width and length")
        if self.role not in (ROLE_RF, ROLE_DC, ROLE_CENTER):
            raise DomainError(f"unknown strip role {self.role!r}")
        if self.role == ROLE_DC and self.dc_index is None:
            raise DomainError("dc strips need a dc_index")
        if self.role != ROLE_DC and self.dc_index is not None:
            raise DomainError(f"only dc strips take a dc_index, not {self.role}")
        if self.dc_index is not None:
            object.__setattr__(self, "dc_index", integer_at_least(self.dc_index, 0, "dc_index"))


@dataclass(frozen=True)
class ElectrodeLayout:
    strips: tuple
    rf_voltage: float  # drive amplitude in V
    rf_omega: float    # drive angular frequency in rad/s

    def __post_init__(self):
        strips = tuple(self.strips)
        if not any(s.role == ROLE_RF for s in strips):
            raise DomainError("layout needs at least one RF strip")
        if not (self.rf_omega > 0 and math.isfinite(self.rf_omega)):
            raise DomainError("rf_omega must be positive")
        if not math.isfinite(self.rf_voltage):
            raise DomainError("rf_voltage must be finite")
        for i, a in enumerate(strips):
            for b in strips[i + 1:]:
                if (min(a.x_max, b.x_max) - max(a.x_min, b.x_min) > 0
                        and min(a.y_max, b.y_max) - max(a.y_min, b.y_min) > 0):
                    raise DomainError("strips overlap with positive area")
        object.__setattr__(self, "strips", strips)

    @cached_property
    def rf_strips(self) -> tuple:
        # cached in the instance dict, outside the fields that eq, hash and repr see
        return tuple(s for s in self.strips if s.role == ROLE_RF)

    @cached_property
    def rf_corners(self) -> tuple:
        """Corner table of the RF strips at unit drive (``_corners``), read-only."""
        table = _corners(self.rf_strips, 1.0)
        for a in table:
            a.flags.writeable = False
        return table

    @cached_property
    def search_frame(self) -> tuple:
        """Center x0 and x extent L of the RF strips, the x span of all strips
        and the axial center y: the frame and length scale of every
        stationary-point search in x-z."""
        xs = [s.x_min for s in self.rf_strips] + [s.x_max for s in self.rf_strips]
        span = max(s.x_max for s in self.strips) - min(s.x_min for s in self.strips)
        return 0.5 * (min(xs) + max(xs)), max(xs) - min(xs), span, self.axial_center

    @property
    def axial_center(self) -> float:
        ys = [s.y_min for s in self.rf_strips] + [s.y_max for s in self.rf_strips]
        return 0.5 * (min(ys) + max(ys))


# ---------------------------------------------------------------------------
# basis potentials and their closed-form derivatives
# ---------------------------------------------------------------------------


def _field_point(point, what: str = "potential") -> tuple[float, float, float]:
    """(x, y, z) floats of a point where ``what`` is defined: three real
    numbers, finite, with z > 0."""
    try:
        x, y, z = point
        if any(isinstance(v, (str, bytes)) for v in (x, y, z)):
            raise TypeError  # text is not a number, though float() would parse it
        x, y, z = float(x), float(y), float(z)
    except (TypeError, ValueError):
        raise DomainError(f"{what} needs a point of three numbers (x, y, z), "
                          f"got {point!r}") from None
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise DomainError(f"{what} is defined at finite points only, got {(x, y, z)}")
    if z <= 0:
        raise DomainError(f"{what} is defined for z > 0 only")
    return x, y, z


def rect_potential(strip: Strip, point) -> float:
    """Basis potential of one rectangle at a single point with z > 0."""
    return float(_derivatives(_corners([strip], 1.0), _field_point(point), order=0)[0])


def rf_basis_potential(layout: ElectrodeLayout, point) -> float:
    """Sum of RF strip basis potentials (dimensionless, unit drive)."""
    return float(_derivatives(layout.rf_corners, _field_point(point), order=0)[0])


def _dc_corners(layout: ElectrodeLayout, voltages: Mapping[int, float] | None):
    """Corner table (``_corners``) of the DC strips that ``voltages`` sets, in
    layout order, each weighted by its voltage: the one DC table of a call,
    built once and read at every point the call evaluates; None where
    ``voltages`` sets no strip.

    An index that names no DC strip of the layout raises rather than being
    skipped, so a mistyped index cannot leave the result silently unchanged.
    """
    voltages = voltages or {}
    known = sorted({s.dc_index for s in layout.strips if s.role == ROLE_DC})
    unknown = [k for k in voltages if k not in known]
    if unknown:
        raise DomainError(f"no DC strip has index {unknown}; "
                          f"the layout's DC indices are {known}")
    strips = [s for s in layout.strips if s.role == ROLE_DC and s.dc_index in voltages]
    volts = [float(voltages[s.dc_index]) for s in strips]
    if not all(map(math.isfinite, volts)):
        raise DomainError(f"DC voltages must be finite, got {dict(voltages)}")
    return _corners(strips, volts) if strips else None


def dc_potential(layout: ElectrodeLayout, voltages: Mapping[int, float] | None, point) -> float:
    """Static potential in V from the DC strips at their set voltages, summed
    over the voltage set's corner table (``_dc_corners``); 0 where it sets none."""
    dc = _dc_corners(layout, voltages)
    point = _field_point(point)
    return 0.0 if dc is None else float(_derivatives(dc, point, order=0)[0])


#: signs of the four corner arctangents of a rectangle, over 2*pi, for the
#: corners (x, y) = (min, min), (min, max), (max, min), (max, max)
_CORNER_SIGN = np.array([1.0, -1.0, -1.0, 1.0]) / (2.0 * math.pi)


#: the rows that the kernel sums over the corners, in order: -grad; then
#: Hessian entries; then third derivatives.  The rest follow from these.
_SUMMED = ("x", "y", "z", "xx", "yy", "xy", "xz", "yz",
           "xxx", "yyy", "xxz", "yyz", "xxy", "xyy", "xyz")
#: rows the kernel sums at each order 0 to 3: phi alone, then _SUMMED's up to it
_ROWS = (1,) + tuple(sum(len(name) <= order for name in _SUMMED) for order in (1, 2, 3))


def _row_map(order):
    """The 0/1 map from the kernel's summed rows at ``order`` (2 or 3) to the
    entries of grad and of the derivative tensors up to ``order``, each
    flattened in C order, and the sign of each entry.

    An entry with two z indices is minus the sum of its x-x and y-y
    partners, by the trace identity sum_i d_iik phi = 0 (harmonicity), and a
    gradient entry is minus its row, which sums -grad.  The signs are applied
    after the sums, so that every entry is exactly plus or minus its sum,
    zeros included, as a negation gives: a matmul never returns -0.0.
    """
    rows = [name for name in _SUMMED if len(name) <= order]
    entries = ["".join(sorted(ijk)) for n in range(1, order + 1)
               for ijk in itertools.product("xyz", repeat=n)]
    ones, signs = [], []
    for col, name in enumerate(entries):
        by_trace = name.endswith("zz")
        summed = (["".join(sorted(name[:-2] + pair)) for pair in ("xx", "yy")] if by_trace
                  else [name])
        ones += [(rows.index(r), col) for r in summed]
        signs.append(-1.0 if by_trace or len(name) == 1 else 1.0)
    row_map = np.zeros((len(rows), len(entries)))
    row_map[tuple(zip(*ones))] = 1.0
    return row_map, np.array(signs)


_ROW_MAPS = {order: _row_map(order) for order in (2, 3)}

def _corners(strips: Sequence[Strip], weights):
    """Corner table of weighted strips for ``_derivatives``: the weight of
    every corner arctangent, shape (C,) for the C = 4 * len(strips) corners,
    and the corner coordinates, shape (2, C, 1) for x and y.  ``weights`` is
    one number per strip or one for all."""
    w = np.empty((len(strips), 1))
    w[:, 0] = weights
    xy = np.array([((s.x_min, s.x_min, s.x_max, s.x_max), (s.y_min, s.y_max, s.y_min, s.y_max))
                   for s in strips], dtype=float).reshape(-1, 2, 4)
    return (w * _CORNER_SIGN).ravel(), xy.transpose(1, 0, 2).reshape(2, -1, 1)


def _derivatives(corners, points, order: int = 2):
    """Weighted corner sums of phi and its derivatives up to ``order`` (0 to 3).

    ``corners`` is a table from ``_corners``; ``points`` is (N, 3) with z > 0.
    Order 0 returns phi, shape (N,); otherwise a tuple of ``order`` arrays:
    grad(phi), shape (N, 3), its Hessian, (N, 3, 3), and the third
    derivatives, (N, 3, 3, 3).  Each corner term
    F = atan(u v / (z R)), with u, v the corner offsets from the point,
    R^2 = u^2 + v^2 + z^2, a = u^2 + z^2 and b = v^2 + z^2, has closed-form
    derivatives F_u = v z / (a R), F_z = -u v (1/a + 1/b) / R, F_uv = z / R^3,
    F_uu = -u v z (2/a + 1/R^2) / (a R),
    F_uz = v (1 - 2 z^2/a - z^2/R^2) / (a R), F_uuv = -3 z u / R^5,
    F_uvz = (R^2 - 3 z^2) / R^5, F_uuu = -v z P(u) / (a^2 R^3) and
    F_uuz = -u v P(z) / (a^2 R^3) with
    P(w) = 2 R^2 + a - 4 w^2 - w^2 (8 R^2/a + 3 a/R^2); F is symmetric in u
    and v, so each v term is its u term with u, a and v, b swapped, and
    d/dx = -d/du, d/dy = -d/dv.  The u and v versions of a term are one
    stacked (2, C, N) array, and each point's terms are summed over the
    corners in one contraction, into the 15 rows of ``_SUMMED``: -grad, the 5 Hessian
    entries xx, yy, xy, xz, yz and the 7 independent third derivatives.  A
    weighted sum of rectangle potentials is harmonic, so the zz entry of the
    Hessian is -(xx + yy), and the third derivatives with two z indices follow
    from the trace identities sum_i d_iik phi = 0.  One constant map
    (``_row_map``) takes the summed rows to all 39 entries of the gradient,
    Hessian and third derivatives, with those identities built in; it is one
    small matmul and a sign per entry, and the three outputs are reshaped
    views of its result, so that equal entries are one value and the
    symmetries and identities hold bit for bit.

    Third derivatives are accurate norm-wise, not entry-wise: where the corner
    terms cancel (a narrow strip seen from far away at low height) one entry
    can lose most of its digits.  At strip x 170-177 um, y 0-5 um and point
    (-100, 0, 5) um, d_yyy is off by 2.8e-6 relative, the tensor by 2.7e-9.

    A point's bits are its own, whatever its batch: each point's corner
    terms are contracted with the weights in one small (rows x C)
    matrix-vector product of its own, so that no point's sum depends on the
    points beside it.
    """
    c, xy = corners
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(p)
    # axes: u or v, then the corners, then the points (small dense arrays,
    # since numpy's per-call overhead dominates at the small batches of a solve)
    s = xy - p[:, :2].T[:, None]
    z = p[:, 2]
    z2 = z * z
    ss = s * s
    a = ss + z2
    r2 = a[0] + ss[1]
    r = np.sqrt(r2)
    uv = s[0] * s[1]
    if order == 0:
        parts = [np.arctan(uv / (z * r))[None]]
    else:
        t = s[::-1]
        ar = a * r
        # the rows of the sum, in the order of _SUMMED
        parts = [t * z / ar, (uv * (1.0 / a[0] + 1.0 / a[1]) / r)[None]]
    if order > 1:
        ir2 = 1.0 / r2
        parts += [-(uv * z) * (2.0 / a + ir2) / ar, (z * ir2 / r)[None],
                  -t * (1.0 - 2.0 * z2 / a - z2 * ir2) / ar]
    if order > 2:
        ir3 = ir2 / r
        ir5 = ir3 * ir2
        k = 4.0 + 8.0 * r2 / a + 3.0 * a * ir2
        m = 2.0 * r2 + a
        d = ir3 / (a * a)
        zs = z * s
        parts += [zs[::-1] * (m - ss * k) * d, uv * (z2 * k - m) * d, 3.0 * zs * ir5,
                  ((r2 - 3.0 * z2) * ir5)[None]]
    # the terms go straight into a points-first buffer, so that the product
    # below is one (rows x C) matrix-vector product per point
    buf = np.empty((n, _ROWS[order], c.size))
    np.concatenate(parts, out=buf.transpose(1, 2, 0))
    out = buf @ c
    if order == 0:
        return out[:, 0]
    if order == 1:
        return (-out,)
    row_map, signs = _ROW_MAPS[order]
    res = (out @ row_map) * signs
    grad, hess = res[:, :3], res[:, 3:12].reshape(n, 3, 3)
    if order == 2:
        return grad, hess
    return grad, hess, res[:, 12:].reshape(n, 3, 3, 3)


def rf_field(layout: ElectrodeLayout, point) -> np.ndarray:
    """Peak RF field vector -V grad(phi_rf) (V/m) at a point, in closed form,
    from the layout's unit-drive corner table with -V folded into its weights."""
    c, xy = layout.rf_corners
    (e,) = _derivatives((-layout.rf_voltage * c, xy), _field_point(point, "field"), order=1)
    return e[0]


def pseudopotential(layout: ElectrodeLayout, species: IonSpecies, point) -> float:
    """Time-averaged RF confinement energy q^2 |E|^2 / (4 m Omega^2), in J."""
    (e,) = _derivatives(layout.rf_corners, _field_point(point, "field"), order=1)
    return 0.25 * _drive_factors(layout, species)[0] * float(e[0] @ e[0])


def _drive_factors(layout, species):
    """f = (qV)^2 / (m Omega^2) and g = 2 |qV| / (m Omega^2), which carry the
    unit-drive field E and Jacobian J over to the ion: psi = f |E|^2 / 4, its
    Hessian at the null is f J^T J / 2, and the Mathieu q_i = g sigma_i.  A
    factor that is not finite, or zero at a non-zero drive, is a DomainError."""
    v, omega = layout.rf_voltage, layout.rf_omega
    qv = abs(species.charge_c * v)
    m_omega2 = species.mass_kg * omega * omega
    g = 2.0 * qv / m_omega2 if m_omega2 > 0 else math.inf
    f = 0.5 * qv * g
    if not (math.isfinite(f) and math.isfinite(g)) or (v != 0 and f == 0):
        raise DomainError(f"rf_voltage = {v:g} V and rf_frequency = {omega / (2 * math.pi):g} "
                          f"Hz give {species.label} the factors (qV)^2/(m Omega^2) = {f:g} and "
                          f"2|qV|/(m Omega^2) = {g:g}; both must be finite and non-zero")
    return f, g


# ---------------------------------------------------------------------------
# RF null search
# ---------------------------------------------------------------------------


def _newton_2x2(hxx, hxz, hzz, gx, gz):
    """The Newton step -h^-1 g, as (dx, dz), for the symmetric 2x2 matrix
    h = [[hxx, hxz], [hxz, hzz]] and the vector g = (gx, gz), in floats, and
    det h.  A singular h (det exactly 0) gives a NaN step, which
    ``_damped_newton`` drops like any non-finite step."""
    det = hxx * hzz - hxz * hxz
    if not det:
        return math.nan, math.nan, det
    return (hxz * gz - hzz * gx) / det, (hxz * gx - hxx * gz) / det, det


def _null_step(rf, pts):
    """Newton steps toward E_x = E_z = 0 at the points, and |(E_x, E_z)|
    there, as one (dx, dz, value) of floats per point; a singular Jacobian
    gives a non-finite step."""
    e, jac = _derivatives(rf, pts)
    steps = []
    for (ex, _, ez), ((jxx, _, jxz), _, (_, _, jzz)) in zip(e.tolist(), jac.tolist()):
        dx, dz, _ = _newton_2x2(jxx, jxz, jzz, ex, ez)
        steps.append((dx, dz, math.hypot(ex, ez)))
    return steps


def _damped_newton(layout, step, x, z, first: bool = False, tol: float = _NULL_TOL):
    """Converged end points of damped Newton in the x-z plane at the layout's
    axial center, as one (x, z, value) of floats per converged start, in
    start order, in its ``search_frame``; ``x`` and ``z`` are the starts'
    coordinates, floats.

    ``step(rf, points)``, with ``rf`` the layout's corner table of the RF
    strips at unit drive (``ElectrodeLayout.rf_corners``), returns one
    (dx, dz, value) of floats per point of a batch: the Newton correction
    and the point's value.  All starts that are still stepping are one
    batch, in start order.  A step is
    capped at half the current height, and a start is dropped once it leaves
    the domain (z at or below ``_MIN_Z`` L, above 4 spans, or more than 2
    spans off x0; see ``ElectrodeLayout.search_frame``), which a non-finite
    step always does.  A start counts as converged when the Newton
    correction at its end point is at most ``tol`` of the height and its
    last step stays inside the domain; ``value`` is the step's value at that
    point, recorded in the iteration in which the start converges.  Each end
    point is one Newton step past its converged point, whose value it
    carries, so that no further evaluation is needed.  With ``first``, the
    search stops at the first iteration in which some start converges and
    returns the starts that did.

    Only the kernel batch inside ``step`` is numpy; the steps come back as
    floats, and the loop below is plain float arithmetic, the same IEEE
    operations without numpy's per-call cost on batches of a few points.
    """
    x0, rf_extent, span, y = layout.search_frame
    rf = layout.rf_corners
    # a planar-trap stationary point sits within a few electrode spans of the
    # metal; beyond that the far field decays monotonically (and eventually
    # underflows), which a solver would mistake for convergence
    z_min, z_cap, x_off = _MIN_Z * rf_extent, 4.0 * span, 2.0 * span
    live = list(zip(itertools.count(), x, z))  # (start, x, z) still stepping
    ends = []  # (start, x, z, value) of the starts that converged
    for _ in range(60):
        if not live or (first and ends):
            break
        steps = step(rf, np.array([(px, y, pz) for _, px, pz in live]))
        going = []
        for (k, px, pz), (sx, sz, v) in zip(live, steps):
            norm = math.hypot(sx, sz)
            # a zero step is taken whole; a NaN or infinite step leaves
            # a NaN coordinate, which the domain test drops
            scale = min(1.0, 0.5 * pz / norm) if norm else 1.0
            done = norm <= tol * pz
            px += scale * sx
            pz += scale * sz
            if z_min < pz <= z_cap and abs(px - x0) <= x_off:
                if done:
                    ends.append((k, px, pz, v))
                else:
                    going.append((k, px, pz))
        live = going
    ends.sort()  # start order
    return [end[1:] for end in ends]


def find_rf_null(layout: ElectrodeLayout) -> "TrapSolution":
    """Locate the RF field null in the x-z plane at the axial center.

    Solves E_x = E_z = 0 at unit drive by damped Newton steps
    (``_damped_newton``) with the closed-form field Jacobian, from starts at
    the ``DEFAULT_START_FRACTIONS`` of the RF strips' x extent above their
    center, all at once, so that the search scales with the layout and
    neither the drive nor an ion species enters it.  |E| alone is not a
    usable convergence test, since the far field is small everywhere.  The
    search stops at the first iteration in which some start converges
    (converged starts agree to well below 1e-9 of the height); of those
    starts, the one with the smallest |(E_x, E_z)| (``_null_step``'s value)
    is returned, the earlier start on a tie.
    """
    if layout.rf_voltage == 0:
        raise NoTrapError("zero RF amplitude traps nothing")
    x0, rf_extent, _, y = layout.search_frame
    heights = [rf_extent * f for f in DEFAULT_START_FRACTIONS]
    ends = _damped_newton(layout, _null_step, [x0] * len(heights), heights, first=True)
    if not ends:
        raise NoTrapError("no interior RF null found from any start height")
    x, z, _ = min(ends, key=lambda end: end[2])
    return TrapSolution(null_position=np.array([x, y, z]), height=z)


# ---------------------------------------------------------------------------
# secular spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapSolution:
    """RF null location plus (when solved) the secular motion around it."""

    null_position: np.ndarray = field(repr=False)
    height: float
    secular_freqs_hz: tuple | None = None
    axes: np.ndarray | None = field(default=None, repr=False)
    q_params: tuple | None = None
    trap_depth_ev: float | None = None
    unstable_axes: tuple = ()

    @property
    def stable(self) -> bool:
        return not self.unstable_axes


def _saddle_step(rf, pts):
    """Newton steps toward grad psi = 0 in the x-z plane at the points, and
    the quadratic model's |E|^2 at each step's end point, or inf where the
    2x2 Hessian of psi does not have exactly one negative eigenvalue, as one
    (dx, dz, value) of floats per point.

    With psi proportional to |E|^2 and J the field Jacobian, grad psi is
    proportional to g = J^T E (x-z columns) and the Hessian to
    h = J^T J + sum_i E_i grad(J_i), in closed form from the kernel's third
    derivatives; the factors of psi cancel from the step, so the field is that
    of unit drive.  The Newton step is delta = -h^-1 g, and the model of |E|^2
    at the point plus delta is |E|^2 + 2 g.delta + delta.h.delta =
    |E|^2 + g.delta.  Near a stationary point its error is O(|delta/z|^3) of
    |E|^2, so a step of eps^(1/3) z (``_SADDLE_TOL``) leaves it exact to
    rounding.  Each sum over i runs over the three components left to right,
    and h is J^T J plus sum_i E_i grad(J_i), each summed on its own.
    """
    e, jac, d3 = _derivatives(rf, pts, order=3)
    steps = []
    for (ex, ey, ez), ((jxx, _, jxz), (jyx, _, jyz), (jzx, _, jzz)), (tx, ty, tz) in zip(
            e.tolist(), jac.tolist(), d3.tolist()):
        # the x-z entries of each grad(J_i)
        (txxx, _, txxz), _, (_, _, txzz) = tx
        (tyxx, _, tyxz), _, (_, _, tyzz) = ty
        (tzxx, _, tzxz), _, (_, _, tzzz) = tz
        gx = ex * jxx + ey * jyx + ez * jzx
        gz = ex * jxz + ey * jyz + ez * jzz
        hxx = (jxx * jxx + jyx * jyx + jzx * jzx) + (ex * txxx + ey * tyxx + ez * tzxx)
        hxz = (jxx * jxz + jyx * jyz + jzx * jzz) + (ex * txxz + ey * tyxz + ez * tzxz)
        hzz = (jxz * jxz + jyz * jyz + jzz * jzz) + (ex * txzz + ey * tyzz + ez * tzzz)
        dx, dz, det = _newton_2x2(hxx, hxz, hzz, gx, gz)
        value = ex * ex + ey * ey + ez * ez + gx * dx + gz * dz if det < 0.0 else math.inf
        steps.append((dx, dz, value))
    return steps


def _escape_saddle(layout, null, height):
    """The lowest index-1 saddle of psi in the x-z plane through the null, as
    (point, |E|^2 there at unit drive), or None when no transverse ray escapes;
    |E| is that of the layout's unit-drive ``rf_corners``.

    A coarse scan samples ``_SCAN_RAYS`` rays from the null at the
    ``_SCAN_SAMPLES`` distances of ``_SCAN_DISTANCES``, 0.01 to 30 heights;
    its values only choose Newton's starts.  A ray whose maximum sits at the
    end of its range (still climbing, e.g. toward the chip plane) offers no
    escape path.  Over the ray angle the escape rays' maxima form valleys,
    one per saddle they pass near; the maximum sample of the lowest ray of
    each of the ``_SADDLE_STARTS`` lowest valleys starts damped Newton on
    grad psi = 0 (``_damped_newton``), which stops a start once its Newton
    step is at most ``_SADDLE_TOL`` (eps^(1/3), about 6.1e-6) of the height.
    The point is that step's end, and |E|^2 is the quadratic model's value
    there (``_saddle_step``), exact to O(eps) of |E|^2, though the point
    itself is only within about eps^(2/3) z (4e-11 z) of the saddle.  A
    converged point counts only where the Hessian of psi has exactly one
    negative eigenvalue, and the lowest of those is returned, the earlier
    start on a tie; escape rays with no such saddle raise ``NoTrapError``,
    so the depth is never a sampled value.
    """
    frame = layout.search_frame
    s = height * _SCAN_DISTANCES
    px = null[0] + _RAY_COS * s
    pz = null[2] + _RAY_SIN * s
    ok = pz > 10.0 * _MIN_Z * frame[1]  # per ray a prefix: pz is monotonic
    pts = np.column_stack([px[ok], np.full(np.count_nonzero(ok), null[1]), pz[ok]])
    (e,) = _derivatives(layout.rf_corners, pts, order=1)
    e2 = np.full(px.shape, -np.inf)
    e2[ok] = np.einsum("ij,ij->i", e, e)
    n_ok = ok.sum(axis=1)
    imax = np.argmax(e2, axis=1)
    escape = (n_ok >= 4) & (imax < n_ok - 1)
    if not escape.any():
        return None
    barrier = np.where(escape, e2.max(axis=1), np.inf)
    ring = barrier[_RAY_RING]
    valley = np.flatnonzero((barrier < ring[:-2]) & (barrier <= ring[2:]))
    rays = valley[np.argsort(barrier[valley])[:_SADDLE_STARTS]]
    ends = [end for end in _damped_newton(layout, _saddle_step, px[rays, imax[rays]].tolist(),
                                          pz[rays, imax[rays]].tolist(), tol=_SADDLE_TOL)
            if end[2] < math.inf]  # the index-1 saddles
    if not ends:
        raise NoTrapError("the pseudopotential has escape paths but no escape saddle")
    x, z, e2_end = min(ends, key=lambda end: end[2])
    return np.array([x, frame[3], z]), e2_end


def secular_spectrum(layout: ElectrodeLayout, species: IonSpecies = CA40,
                     dc_voltages: Mapping[int, float] | None = None) -> TrapSolution:
    """Secular frequencies, axes, Mathieu q and depth at the RF null.

    The null and the escape saddle are found at unit drive; V, Omega, m and q
    enter once, through ``_drive_factors``.  At the null E = 0, so the Hessian
    of psi is exactly (qV)^2 J^T J / (2 m Omega^2), to which the DC strips add
    q * sum_k V_k Hess(phi_k), summed over the voltage set's one corner table
    (``_dc_corners``); its eigen-decomposition over m gives the
    frequencies and axes.  A negative eigenvalue marks the axis unstable
    (frequency reported as 0) rather than raising.  The Mathieu q of each axis
    is 2 |qV| sigma_i / (m Omega^2), from the singular values of J, which keep
    the small axial q to full relative precision; the eigenvalues of J^T J,
    with its condition number squared, would not.  The depth, in eV, is
    (qV)^2 (|E_saddle|^2 - |E_null|^2) / (4 m Omega^2 e), with |E_saddle|^2
    the quadratic-model value of ``_escape_saddle`` (its search stops at a
    coarser step than the null's, since only the null's position and J are
    outputs); it is inf when no transverse ray from the null escapes, and
    the DC strips do not enter it.  A DC index that names no DC strip, a DC
    voltage or curvature that is not finite, or a drive factor that is zero
    or not finite raises DomainError.
    """
    dc = _dc_corners(layout, dc_voltages)
    sol = find_rf_null(layout)
    f, g = _drive_factors(layout, species)
    null = sol.null_position
    (e,), (jac,) = _derivatives(layout.rf_corners, null)
    m = species.mass_kg
    with np.errstate(over="ignore", invalid="ignore"):
        k = 0.5 * f / m * (jac.T @ jac)  # H / m, whose eigenvalues are omega^2
        if dc is not None:
            k = k + species.charge_c / m * _derivatives(dc, null)[1][0]
        scale = float(np.linalg.norm(k))
    if not math.isfinite(scale):
        raise DomainError("the curvature at the RF null is not finite; "
                          "the RF or DC voltages are too large")
    evals, axes = np.linalg.eigh(k)
    unstable = tuple(int(i) for i, ev in enumerate(evals) if ev < -1e-9 * scale)
    freqs = tuple(math.sqrt(max(float(ev), 0.0)) / (2.0 * math.pi) for ev in evals)
    q_params = tuple(float(q) for q in g * np.linalg.svd(jac, compute_uv=False)[::-1])

    saddle = _escape_saddle(layout, null, sol.height)
    depth = math.inf if saddle is None else (
        0.25 * f * (saddle[1] - float(e @ e)) / CONSTANTS.elementary_charge)
    return TrapSolution(null_position=null, height=sol.height,
                        secular_freqs_hz=freqs, axes=axes, q_params=q_params,
                        trap_depth_ev=depth, unstable_axes=unstable)


# ---------------------------------------------------------------------------
# canonical five-wire builder and plain-text layout files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiveWireGeometry:
    """Physical cross-section parameters of the symmetric five-wire builder."""

    center_half_width: float
    rail_width: float
    gap: float
    dc_width: float
    length: float

    def ion_edge_distance(self, height: float) -> float:
        """Distance from a point at ``height`` above the axis to the nearest
        exposed electrode edge (the center electrode edge at x = +/- half width)."""
        return math.hypot(height, self.center_half_width)


def five_wire_layout(center_half_width: float, rail_width: float = 60e-6,
                     gap: float = 10e-6, dc_width: float = 200e-6,
                     length: float = 6e-3, rf_voltage: float = 120.0,
                     rf_omega: float = 2.0 * math.pi * 49.9e6,
                     dc_segments: int = 1):
    """Symmetric cross-section: DC | gap | RF | gap | center | gap | RF | gap | DC.

    In the gapless model each gap is split half-half between its neighbours,
    so the modeled RF rail spans [g + gap/2, g + 1.5*gap + rail_width] with
    g the center half width.
    ``dc_segments`` DC strips run along each side; 0 leaves out the DC
    rails.  Returns (ElectrodeLayout, FiveWireGeometry).
    """
    g, wg, wr, wd = center_half_width, gap, rail_width, dc_width
    if min(g, wg, wr, wd, length) <= 0:
        raise DomainError("all five-wire dimensions must be positive")
    n_dc = integer_at_least(dc_segments, 0, "dc_segments")
    half_len = 0.5 * length
    center_edge = g + 0.5 * wg
    rf_in, rf_out = g + 0.5 * wg, g + 1.5 * wg + wr
    dc_in, dc_out = g + 1.5 * wg + wr, g + 2.0 * wg + wr + wd
    strips = [Strip(-center_edge, center_edge, -half_len, half_len, ROLE_CENTER),
              Strip(rf_in, rf_out, -half_len, half_len, ROLE_RF),
              Strip(-rf_out, -rf_in, -half_len, half_len, ROLE_RF)]
    edges = np.linspace(-half_len, half_len, n_dc + 1)
    for k in range(n_dc):
        strips.append(Strip(dc_in, dc_out, edges[k], edges[k + 1], ROLE_DC, dc_index=k))
        strips.append(Strip(-dc_out, -dc_in, edges[k], edges[k + 1], ROLE_DC, dc_index=n_dc + k))
    layout = ElectrodeLayout(strips=tuple(strips), rf_voltage=rf_voltage, rf_omega=rf_omega)
    geom = FiveWireGeometry(center_half_width=g, rail_width=wr, gap=wg, dc_width=wd,
                            length=length)
    return layout, geom


_TRAP_KEYS = {"rf_voltage", "rf_frequency", "species"}
_STRIP_KEYS = {"role", "x_min", "x_max", "y_min", "y_max", "dc_index"}


def _layout_value(section, key: str, dims, unit_label: str) -> float:
    """SI float of one layout value; a bad unit is a ``ConfigError`` (exit 1)."""
    try:
        return parse_si(section[key], dims, f"[{section.name}] {key}", unit_label)
    except UnitError as exc:
        raise ConfigError(str(exc)) from exc


def load_layout(path) -> tuple[ElectrodeLayout, IonSpecies]:
    """Read a layout from an INI-style file.

    One ``[trap]`` section (rf_voltage, rf_frequency in Hz, optional species)
    and one ``[strip <name>]`` section per electrode with role and extents.
    Values may carry unit suffixes ("60um", "49.9MHz"); a bare number is SI,
    and a unit of the wrong dimension is a ``ConfigError`` naming the section
    and key, as are unknown sections or keys.
    """
    cp = configparser.ConfigParser(interpolation=None)
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        detail = " ".join(str(exc).split())  # configparser messages span lines
        raise ConfigError(f"cannot parse layout file {path!r}: {detail}") from exc
    if not read:
        raise ConfigError(f"cannot read layout file {path!r}")
    if "trap" not in cp:
        raise ConfigError("layout file needs a [trap] section")
    trap = cp["trap"]
    unknown = set(trap) - _TRAP_KEYS
    if unknown:
        raise ConfigError(f"unknown keys in [trap]: {sorted(unknown)}")
    try:
        rf_voltage = _layout_value(trap, "rf_voltage", VOLT, "V")
        rf_omega = 2.0 * math.pi * _layout_value(trap, "rf_frequency", HERTZ, "Hz")
    except KeyError as exc:
        raise ConfigError(f"[trap] is missing {exc}") from exc
    species = SPECIES.get(trap.get("species", "Ca40"))
    if species is None:
        raise ConfigError(f"unknown species {trap.get('species')!r}")

    strips = []
    for name in cp.sections():
        if name == "trap":
            continue
        if not name.startswith("strip"):
            raise ConfigError(f"unknown section [{name}]")
        sec = cp[name]
        unknown = set(sec) - _STRIP_KEYS
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")
        try:
            kwargs = {k: _layout_value(sec, k, METER, "m")
                      for k in ("x_min", "x_max", "y_min", "y_max")}
            role = sec["role"].strip()
        except KeyError as exc:
            raise ConfigError(f"[{name}] is missing {exc}") from exc
        idx = sec.get("dc_index")
        try:
            dc_index = int(idx) if idx is not None else None
        except ValueError as exc:
            raise ConfigError(f"[{name}]: dc_index must be an integer, got {idx!r}") from exc
        try:
            strips.append(Strip(role=role, dc_index=dc_index, **kwargs))
        except DomainError as exc:
            raise ConfigError(f"[{name}]: {exc}") from exc
    try:
        layout = ElectrodeLayout(strips=tuple(strips), rf_voltage=rf_voltage, rf_omega=rf_omega)
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return layout, species
