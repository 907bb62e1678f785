"""Surface-electrode trap electrostatics in the gapless-plane approximation.

Every electrode is a rectangle in the z=0 plane; the rest of the plane is
grounded.  The basis potential of a rectangle held at unit voltage is the
solid angle it subtends at the field point divided by 2*pi (a sum of four
arctangents), which is harmonic, bounded in [0, 1] and exact for the gapless
model.  One kernel on Python floats sums those arctangents and their
closed-form derivatives up to third order over a table of weighted strip
corners, one point at a time (Wesenberg, PRA 78, 063410 (2008); House, PRA
78, 033402 (2008)), so that every number the solve reports from it, the
height, the null and the depth, is the same bits on any host: no BLAS
product enters it.

The solve is scale-free: it runs on the RF strips at unit drive, and each of
its lengths is a fixed fraction of the RF strips' x extent or of the height.
From the cross-section's roots, damped Newton steps with exact derivatives
find the RF null (E = 0, with the field Jacobian J) and the escape saddle.
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
from collections.abc import Mapping, Sequence
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, NoTrapError, Record, UnitError, integer_at_least
from .species import (CA40, SPECIES, SR88, IonSpecies, resonance_frequency,
                      resonator_capacitance, two_ion_spacing)
from .units import CONSTANTS, HERTZ, METER, VOLT, parse_si

ROLE_RF = "rf"
ROLE_DC = "dc"
ROLE_CENTER = "center"  # grounded: a covered slot or ground plane strip

#: lowest height of a search point, as a fraction of L (1 nm on the demo layout)
_MIN_Z = 4e-6
#: Newton correction, as a fraction of the height, below which a search has
#: converged.  The null's position and Jacobian are outputs, so its search
#: runs to 1e-9.  The saddle search reports the quadratic model's value at
#: the Newton end point, whose error at a stationary point is O((|step|/z)^3),
#: so a step of eps^(1/3) z (about 6.1e-6 z) already leaves it exact to rounding
_NULL_TOL = 1e-9
_SADDLE_TOL = float(np.finfo(float).eps) ** (1.0 / 3.0)


class Strip(Record):
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
            self.__dict__["dc_index"] = integer_at_least(self.dc_index, 0, "dc_index")


class ElectrodeLayout(Record):
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
        self.__dict__["strips"] = strips

    @cached_property
    def rf_strips(self) -> tuple:
        # cached in the instance dict, outside the fields that eq, hash and repr see
        return tuple(s for s in self.strips if s.role == ROLE_RF)

    @cached_property
    def rf_corners(self) -> tuple:
        """Corner table of the RF strips at unit drive (``_corners``)."""
        return _corners(self.rf_strips, 1.0)

    @cached_property
    def search_frame(self) -> tuple:
        """Center x0 and x extent L of the RF strips, the x span of all strips
        and the axial center y of the RF strips: the frame and length scale
        of every stationary-point search in x-z."""
        xs = [s.x_min for s in self.rf_strips] + [s.x_max for s in self.rf_strips]
        ys = [s.y_min for s in self.rf_strips] + [s.y_max for s in self.rf_strips]
        span = max(s.x_max for s in self.strips) - min(s.x_min for s in self.strips)
        return 0.5 * (min(xs) + max(xs)), max(xs) - min(xs), span, 0.5 * (min(ys) + max(ys))

    @cached_property
    def section_roots(self) -> tuple:
        """(nulls, saddles) of |E|^2 at the axial center, each a tuple of (x, z)
        in ``_search_domain``, with the RF strips across it infinitely long and
        abutting ones merged: E_x - i E_z is then proportional to F = N / D =
        sum_k [1/(w - b_k) - 1/(w - a_k)] of w = x + iz.  The nulls are the
        roots of N, and |F|^2 is stationary only where F or F' is 0, so the
        saddles are the roots of N'D - ND'; float coefficients in the frame."""
        x0, extent, _, y = self.search_frame
        spans = []
        for s in sorted(self.rf_strips, key=lambda s: s.x_min):
            if s.y_min < y < s.y_max:
                if spans and spans[-1][1] == s.x_min:
                    spans[-1][1] = s.x_max
                else:
                    spans.append([s.x_min, s.x_max])
        if not spans:
            return (), ()
        (a, b), *rest = [((lo - x0) / extent, (hi - x0) / extent) for lo, hi in spans]
        num, den = [b - a], [1.0, -(a + b), a * b]
        for a, b in rest:
            # N/D + (b - a)/((w - a)(w - b)) over the common denominator
            factor = [1.0, -(a + b), a * b]
            num = [p + (b - a) * q for p, q in zip(_poly_product(num, factor), den)]
            den = _poly_product(den, factor)
        d_num, d_den = ([c * k for c, k in zip(p, range(len(p) - 1, 0, -1))] for p in (num, den))
        slope = [p - q for p, q in zip(_poly_product(d_num, den), _poly_product(num, d_den))]
        z_min, z_cap, x_off = _search_domain(self.search_frame)
        return tuple(tuple(point for point in ((x0 + extent * w.real, extent * w.imag)
                                               for w in np.roots(p).tolist())
                           if z_min < point[1] <= z_cap and abs(point[0] - x0) <= x_off)
                     for p in (num, slope))


def _search_domain(frame):
    """(z_min, z_cap, x_off): a search point stays while z_min < z <= z_cap and
    |x - x0| <= x_off.  Beyond a few electrode spans, where no stationary
    point is, the far field decays (and underflows) like a converged search."""
    _, rf_extent, span, _ = frame
    return _MIN_Z * rf_extent, 4.0 * span, 2.0 * span


def _poly_product(p, q):
    """Coefficients of the product of two polynomials, highest power first."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


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
    return _derivatives(_corners([strip], 1.0), _field_point(point), order=0)


def rf_basis_potential(layout: ElectrodeLayout, point) -> float:
    """Sum of RF strip basis potentials (dimensionless, unit drive)."""
    return _derivatives(layout.rf_corners, _field_point(point), order=0)


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
    return 0.0 if dc is None else _derivatives(dc, point, order=0)


#: weight of a corner arctangent of a rectangle at unit voltage: +-1/(2 pi)
_TURN = 1.0 / (2.0 * math.pi)


def _corners(strips: Sequence[Strip], weights):
    """Corner table of weighted strips for ``_derivatives``: one (x, y, w)
    triple of floats per corner, four per strip in the order (x, y) =
    (min, min), (min, max), (max, min), (max, max), where w is the strip's
    weight times +1/(2 pi), -1/(2 pi), -1/(2 pi) and +1/(2 pi), the signs of
    the corner arctangents.  ``weights`` is one number per strip or one for all."""
    if isinstance(weights, (int, float)):
        weights = [weights] * len(strips)
    table = []
    for s, weight in zip(strips, weights, strict=True):
        c = float(weight) * _TURN
        x0, x1, y0, y1 = float(s.x_min), float(s.x_max), float(s.y_min), float(s.y_max)
        table += [(x0, y0, c), (x0, y1, -c), (x1, y0, -c), (x1, y1, c)]
    return tuple(table)


def _derivatives(corners, point, order: int = 2):
    """Weighted corner sums of phi and its derivatives up to ``order`` (0 to 3)
    at one point, in Python floats.

    ``corners`` is a table from ``_corners``; ``point`` is three floats
    (x, y, z) with z > 0.  Order 0 returns phi, a float; otherwise a tuple of
    ``order`` nested tuples of floats: grad(phi), (3,), its Hessian, (3, 3),
    and the third derivatives, (3, 3, 3).  Each corner term
    F = atan(u v / (z R)), with u, v the corner offsets from the point,
    R^2 = u^2 + v^2 + z^2, a = u^2 + z^2 and b = v^2 + z^2, has closed-form
    derivatives F_u = v z / (a R), F_z = -u v (1/a + 1/b) / R, F_uv = z / R^3,
    F_uu = -u v z (2/a + 1/R^2) / (a R),
    F_uz = v (1 - 2 z^2/a - z^2/R^2) / (a R), F_uuv = -3 z u / R^5,
    F_uvz = (R^2 - 3 z^2) / R^5, F_uuu = -v z P(u) / (a^2 R^3) and
    F_uuz = -u v P(z) / (a^2 R^3) with
    P(w) = 2 R^2 + a - 4 w^2 - w^2 (8 R^2/a + 3 a/R^2); F is symmetric in u
    and v, so each v term is its u term with u, a and v, b swapped, and
    d/dx = -d/du, d/dy = -d/dv.  The corner terms are summed into 15 rows:
    -grad, the Hessian entries xx, yy, xy, xz, yz and the third derivatives
    xxx, yyy, xxz, yyz, xxy, xyy, xyz, each row in one accumulator, over the
    corners left to right.  A weighted sum of rectangle potentials is
    harmonic, so the zz entry of the Hessian is -(xx + yy), and the third
    derivatives with two z indices follow from the trace identities
    sum_i d_iik phi = 0: xzz = -(xxx + xyy), yzz = -(xxy + yyy) and
    zzz = -(xxz + yyz).  Equal entries of the outputs are one float, so the
    symmetries and identities hold bit for bit, and a point's bits are its
    own: no sum reads another point, and no library routine (such as a BLAS
    product, whose order and fused multiply-adds vary with the host) enters.

    phi is accurate to a few ulps of the unit potential, not relatively, and
    third derivatives norm-wise, not entry-wise: where the corner terms cancel
    (a narrow strip seen from far away at low height) a small value can lose
    most of its digits.  At strip x 170-177 um, y 0-5 um and point
    (-100, 0, 5) um, against mpmath at 30 digits, phi = 1.36e-6 is off by
    1.9e-17 (1.4e-11 relative), d_yyy by 5.9e-6 relative and the tensor by
    4.4e-9 of its norm.

    The cost is one pass over the table per point, linear in the corners:
    on a 2-core Xeon, about 0.7 us (order 2) and 1.3 us (order 3) per
    corner, 6-8 us and 11-15 us for the 8 corners of two RF strips.  A numpy
    batch kernel costs about 30 and 50 us per call at any table up to 26
    strips, all per-call overhead at one point, so it would win only from
    about 10 strips (order 2) and 7 strips (order 3) in one table; the
    paper's trap, the demo and every bench design have 2 RF strips, and a
    DC table is read once per spectrum.
    """
    x, y, z = point
    z2 = z * z
    sqrt = math.sqrt
    if order == 0:
        phi = 0.0
        for cx, cy, w in corners:
            u = cx - x
            v = cy - y
            phi += w * math.atan(u * v / (z * sqrt((u * u + z2) + v * v)))
        return phi
    z2_2 = 2.0 * z2
    z2_3 = 3.0 * z2
    ex = ey = ez = xx = yy = xy = xz = yz = 0.0
    xxx = yyy = xxz = yyz = xxy = xyy = xyz = 0.0
    for cx, cy, w in corners:
        u = cx - x
        v = cy - y
        uu = u * u
        vv = v * v
        au = uu + z2
        av = vv + z2
        r2 = au + vv
        r = sqrt(r2)
        uv = u * v
        aur = au * r
        avr = av * r
        # the rows of the sum: -grad, then the Hessian, then third derivatives
        ex += w * (v * z / aur)
        ey += w * (u * z / avr)
        iau = 1.0 / au
        iav = 1.0 / av
        ez += w * (uv * (iau + iav) / r)
        if order > 1:
            # 2/a and 8 r^2/a are 2 (1/a) and 8 (r^2/a) to the bit
            ir2 = 1.0 / r2
            uvz = uv * z
            z2ir2 = z2 * ir2
            xx -= w * (uvz * (2.0 * iau + ir2) / aur)
            yy -= w * (uvz * (2.0 * iav + ir2) / avr)
            xy += w * (z * ir2 / r)
            xz -= w * (v * (1.0 - z2_2 / au - z2ir2) / aur)
            yz -= w * (u * (1.0 - z2_2 / av - z2ir2) / avr)
            if order > 2:
                ir3 = ir2 / r
                ir5 = ir3 * ir2
                r2_2 = 2.0 * r2
                r2_8 = 4.0 * r2_2
                ku = 4.0 + r2_8 / au + 3.0 * au * ir2
                kv = 4.0 + r2_8 / av + 3.0 * av * ir2
                mu = r2_2 + au
                mv = r2_2 + av
                du = ir3 / (au * au)
                dv = ir3 / (av * av)
                zu = z * u
                zv = z * v
                xxx += w * (zv * (mu - uu * ku) * du)
                yyy += w * (zu * (mv - vv * kv) * dv)
                xxz += w * (uv * (z2 * ku - mu) * du)
                yyz += w * (uv * (z2 * kv - mv) * dv)
                xxy += w * (3.0 * zu * ir5)
                xyy += w * (3.0 * zv * ir5)
                xyz += w * ((r2 - z2_3) * ir5)
    grad = (-ex, -ey, -ez)
    if order == 1:
        return (grad,)
    zz = -(xx + yy)
    hess = ((xx, xy, xz), (xy, yy, yz), (xz, yz, zz))
    if order == 2:
        return grad, hess
    xzz = -(xxx + xyy)
    yzz = -(xxy + yyy)
    zzz = -(xxz + yyz)
    third = (((xxx, xxy, xxz), (xxy, xyy, xyz), (xxz, xyz, xzz)),
             ((xxy, xyy, xyz), (xyy, yyy, yyz), (xyz, yyz, yzz)),
             ((xxz, xyz, xzz), (xyz, yyz, yzz), (xzz, yzz, zzz)))
    return grad, hess, third


def rf_field(layout: ElectrodeLayout, point) -> np.ndarray:
    """Peak RF field vector -V grad(phi_rf) (V/m) at a point, in closed form,
    from the layout's unit-drive corner table with -V folded into its weights."""
    v = -layout.rf_voltage
    corners = [(cx, cy, v * w) for cx, cy, w in layout.rf_corners]
    (e,) = _derivatives(corners, _field_point(point, "field"), order=1)
    return np.array(e)


def pseudopotential(layout: ElectrodeLayout, species: IonSpecies, point) -> float:
    """Time-averaged RF confinement energy q^2 |E|^2 / (4 m Omega^2), in J."""
    ((ex, ey, ez),) = _derivatives(layout.rf_corners, _field_point(point, "field"), order=1)
    return 0.25 * _drive_factors(layout, species)[0] * (ex * ex + ey * ey + ez * ez)


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
    """Newton steps toward E_x = E_z = 0 at the points, (x, y, z) floats,
    and |(E_x, E_z)| there, as one (dx, dz, value) of floats per point; a
    singular Jacobian gives a non-finite step."""
    steps = []
    for point in pts:
        (ex, _, ez), ((jxx, _, jxz), _, (_, _, jzz)) = _derivatives(rf, point)
        dx, dz, _ = _newton_2x2(jxx, jxz, jzz, ex, ez)
        steps.append((dx, dz, math.hypot(ex, ez)))
    return steps


def _damped_newton(layout, step, x, z, tol: float = _NULL_TOL):
    """Converged end points of damped Newton in the x-z plane at the layout's
    axial center, one (x, z, value) of floats per converged start, in start
    order; ``x`` and ``z`` are the starts' coordinates, floats.

    ``step(rf, points)``, with ``rf`` the layout's corner table of the RF
    strips at unit drive (``ElectrodeLayout.rf_corners``), and ``points``
    a list of (x, y, z) floats, returns one (dx, dz, value) of floats per
    point: the Newton correction and the point's value.  All starts that are
    still stepping are one batch, in start order.  A step is capped at half the current height,
    and a start is dropped once it leaves the ``_search_domain``, which a
    non-finite step always does.  A start counts as converged
    when the Newton correction at its end point is at most ``tol`` of the
    height and its last step stays inside the domain; ``value`` is the
    step's value at that point, recorded in the iteration in which the
    start converges.  Each end point is one Newton step past its converged
    point, whose value it carries, so that no further evaluation is needed.
    The search is plain float arithmetic, kernel included (``_derivatives``),
    so no point's end depends on the others in its batch.
    """
    x0, _, _, y = layout.search_frame
    rf = layout.rf_corners
    z_min, z_cap, x_off = _search_domain(layout.search_frame)
    live = list(zip(itertools.count(), x, z))  # (start, x, z) still stepping
    ends = []  # (start, x, z, value) of the starts that converged
    for _ in range(60):
        if not live:
            break
        steps = step(rf, [(px, y, pz) for _, px, pz in live])
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
    (``_damped_newton``) with the closed-form field Jacobian, from every
    null of the cross-section (``ElectrodeLayout.section_roots``) in one
    batch; |E| alone is no convergence test, being small everywhere far out.
    Of several nulls (n RF strips side by side have up to n - 1) the highest
    converged one is returned, the earlier start on a tie; none is a NoTrapError.
    """
    if layout.rf_voltage == 0:
        raise NoTrapError("zero RF amplitude traps nothing")
    nulls = layout.section_roots[0]
    ends = _damped_newton(layout, _null_step, [x for x, _ in nulls], [z for _, z in nulls])
    if not ends:
        raise NoTrapError("no interior RF null found from the cross-section's nulls")
    x, z, _ = max(ends, key=lambda end: end[1])
    return TrapSolution(null_position=np.array([x, layout.search_frame[3], z]), height=z)


# ---------------------------------------------------------------------------
# secular spectrum
# ---------------------------------------------------------------------------


class TrapSolution(Record, hidden=("null_position", "axes")):
    """RF null location plus (when solved) the secular motion around it."""

    null_position: np.ndarray
    height: float
    secular_freqs_hz: tuple | None = None
    axes: np.ndarray | None = None
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
    steps = []
    for point in pts:
        ((ex, ey, ez), ((jxx, _, jxz), (jyx, _, jyz), (jzx, _, jzz)),
         (tx, ty, tz)) = _derivatives(rf, point, order=3)
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
    (point, |E|^2 there at the unit drive of ``rf_corners``), or None when
    the layout's cross-section has no saddle.

    Damped Newton on grad psi = 0 (``_damped_newton``) starts at every saddle
    of the cross-section (``ElectrodeLayout.section_roots``), rescaled about
    the chip plane by r = height / z_2 over its highest null (x_2, z_2):
    x -> null_x + r (x - x_2), z -> r z, since strips a few heights long
    hold null and saddle well below their infinite-strip heights.  A start
    stops once its step is at most ``_SADDLE_TOL`` (eps^(1/3)) of the
    height, its point within about eps^(2/3) z of the saddle and its |E|^2
    the quadratic model's (``_saddle_step``), exact to O(eps).  The lowest
    point where psi's Hessian has one negative eigenvalue is returned, the
    earlier start on a tie; none is a NoTrapError: the depth is never sampled.
    """
    nulls, saddles = layout.section_roots
    if not saddles:
        return None
    x_2, z_2 = max(nulls, key=lambda point: point[1])
    r = height / z_2
    ends = [end for end in _damped_newton(layout, _saddle_step,
                                          [null[0] + r * (x - x_2) for x, _ in saddles],
                                          [r * z for _, z in saddles], tol=_SADDLE_TOL)
            if end[2] < math.inf]  # the index-1 saddles
    if not ends:
        raise NoTrapError("the cross-section's saddles polish to no escape saddle")
    x, z, e2_end = min(ends, key=lambda end: end[2])
    return np.array([x, layout.search_frame[3], z]), e2_end


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
    the quadratic-model value of ``_escape_saddle``; it is inf when the
    layout's cross-section has no saddle, and the DC strips do not enter it.
    A DC index that names no DC strip, a DC voltage or curvature that is not
    finite, or a drive factor that is zero or not finite raises DomainError.
    """
    dc = _dc_corners(layout, dc_voltages)
    sol = find_rf_null(layout)
    f, g = _drive_factors(layout, species)
    null = sol.null_position
    point = tuple(null.tolist())
    (ex, ey, ez), jac = _derivatives(layout.rf_corners, point)
    jac = np.array(jac)
    m = species.mass_kg
    with np.errstate(over="ignore", invalid="ignore"):
        k = 0.5 * f / m * (jac.T @ jac)  # H / m, whose eigenvalues are omega^2
        if dc is not None:
            k = k + species.charge_c / m * np.array(_derivatives(dc, point)[1])
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
        0.25 * f * (saddle[1] - (ex * ex + ey * ey + ez * ez)) / CONSTANTS.elementary_charge)
    return TrapSolution(null_position=null, height=sol.height,
                        secular_freqs_hz=freqs, axes=axes, q_params=q_params,
                        trap_depth_ev=depth, unstable_axes=unstable)


# ---------------------------------------------------------------------------
# canonical five-wire builder and plain-text layout files
# ---------------------------------------------------------------------------


class FiveWireGeometry(Record):
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
