"""Surface-electrode trap electrostatics in the gapless-plane approximation.

Every electrode is a rectangle in the z=0 plane; the rest of the plane is
grounded.  The basis potential of a rectangle held at unit voltage is the
solid angle it subtends at the field point divided by 2*pi (a sum of four
arctangents), which is harmonic, bounded in [0, 1] and exact for the gapless
model.  Fields and Hessians are the closed-form derivatives of those
arctangents (Wesenberg, PRA 78, 063410 (2008); House, PRA 78, 033402 (2008)),
summed over all strips for a batch of points in one numpy kernel.  The RF
null is found by damped Newton steps on E = 0 with the exact field Jacobian
J.  There the pseudopotential q^2 |E|^2 / (4 m Omega^2) has the exact Hessian
q^2 J^T J / (2 m Omega^2); with the DC curvature added, its eigen-decomposition
is the secular spectrum.

Axes: x across the strips, y along the trap axis, z normal to the chip.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DomainError, NoTrapError
from .units import CONSTANTS, HERTZ, parse_quantity

ROLE_RF = "rf"
ROLE_DC = "dc"
ROLE_CENTER = "center"  # grounded: a covered slot or ground plane strip

#: multi-start heights for the null search (absolute, tuned to ~100 um scale traps)
DEFAULT_START_HEIGHTS = (30e-6, 60e-6, 120e-6, 240e-6)

_MIN_Z = 1e-9
_DEPTH_CHUNK = 2048  # ray points per kernel call; bounds the transient memory


@dataclass(frozen=True)
class IonSpecies:
    mass_kg: float
    charge_c: float
    label: str

    def __post_init__(self):
        if not (self.mass_kg > 0 and self.charge_c != 0):
            raise DomainError("species needs positive mass and non-zero charge")


CA40 = IonSpecies(CONSTANTS.m_ca40, CONSTANTS.elementary_charge, "Ca40")
SR88 = IonSpecies(CONSTANTS.m_sr88, CONSTANTS.elementary_charge, "Sr88")
SPECIES = {"Ca40": CA40, "Sr88": SR88}


@dataclass(frozen=True)
class Strip:
    """Axis-aligned rectangular electrode [x_min,x_max] x [y_min,y_max] at z=0."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    role: str
    dc_index: int | None = None

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise DomainError("strip extents must have positive width and length")
        if self.role not in (ROLE_RF, ROLE_DC, ROLE_CENTER):
            raise DomainError(f"unknown strip role {self.role!r}")
        if self.role == ROLE_DC and self.dc_index is None:
            raise DomainError("dc strips need a dc_index")


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

    @property
    def rf_strips(self) -> tuple:
        return tuple(s for s in self.strips if s.role == ROLE_RF)

    @property
    def axial_center(self) -> float:
        ys = [s.y_min for s in self.rf_strips] + [s.y_max for s in self.rf_strips]
        return 0.5 * (min(ys) + max(ys))


# ---------------------------------------------------------------------------
# basis potentials and their closed-form derivatives
# ---------------------------------------------------------------------------


def _rect_phi(strip: Strip, px, py, pz):
    """Vectorized unit-voltage basis potential of one rectangle (z > 0)."""
    u1 = strip.x_min - px
    u2 = strip.x_max - px
    v1 = strip.y_min - py
    v2 = strip.y_max - py
    z = pz

    def corner(u, v):
        return np.arctan(u * v / (z * np.sqrt(u * u + v * v + z * z)))

    return (corner(u2, v2) - corner(u1, v2) - corner(u2, v1) + corner(u1, v1)) / (2.0 * math.pi)


def rect_potential(strip: Strip, point) -> float:
    """Basis potential of one rectangle at a single point with z > 0."""
    x, y, z = (float(v) for v in point)
    if z <= 0:
        raise DomainError("potential is defined for z > 0 only")
    return float(_rect_phi(strip, x, y, z))


def rf_basis_potential(layout: ElectrodeLayout, point) -> float:
    """Sum of RF strip basis potentials (dimensionless, unit drive)."""
    x, y, z = (float(v) for v in point)
    if z <= 0:
        raise DomainError("potential is defined for z > 0 only")
    return float(sum(_rect_phi(s, x, y, z) for s in layout.rf_strips))


def _dc_strips(layout: ElectrodeLayout, voltages: Mapping[int, float] | None):
    """The DC strips that ``voltages`` sets, in layout order, and their voltages.

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
    return strips, [float(voltages[s.dc_index]) for s in strips]


def dc_potential(layout: ElectrodeLayout, voltages: Mapping[int, float] | None, point) -> float:
    """Static potential in V from the DC strips at their set voltages."""
    x, y, z = (float(v) for v in point)
    if z <= 0:
        raise DomainError("potential is defined for z > 0 only")
    total = 0.0
    for s, volts in zip(*_dc_strips(layout, voltages)):
        total += volts * float(_rect_phi(s, x, y, z))
    return total


#: signs of the four corner arctangents of a rectangle, over 2*pi; entry
#: [i, j] is the corner at x edge i and y edge j (0 = min, 1 = max)
_CORNER_SIGN = np.array([[1.0, -1.0], [-1.0, 1.0]]) / (2.0 * math.pi)


def _grad_hess(strips: Sequence[Strip], weights, points, hessian: bool = True):
    """Weighted strip sums of grad(phi), shape (N, 3), and of its Hessian, (N, 3, 3).

    ``weights`` is one number per strip or one for all; ``points`` is (N, 3)
    with z > 0.  Each corner term F = atan(u v / (z R)), with u, v the corner
    offsets from the point, R^2 = u^2 + v^2 + z^2, a = u^2 + z^2 and
    b = v^2 + z^2, has closed-form derivatives F_u = v z / (a R),
    F_v = u z / (b R), F_z = -u v (1/a + 1/b) / R, F_uv = z / R^3,
    F_uu = -u v z (2/a + 1/R^2) / (a R) and
    F_uz = v (1 - 2 z^2/a - z^2/R^2) / (a R) (u, a and v, b swap for the v
    terms); d/dx = -d/du and d/dy = -d/dv.  The zz entry is -(xx + yy),
    because a weighted sum of rectangle potentials is harmonic.  With
    ``hessian=False`` the Hessian is None.
    """
    ext = np.array([(s.x_min, s.x_max, s.y_min, s.y_max) for s in strips],
                   dtype=float).reshape(-1, 4)
    c = (np.broadcast_to(np.asarray(weights, dtype=float), len(ext))[:, None, None]
         * _CORNER_SIGN).ravel()
    p = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(p)
    # axes: strip, x edge, y edge, point (last, so numpy's inner loops are long)
    u = ext[:, 0:2, None, None] - p[:, 0]
    v = ext[:, None, 2:4, None] - p[:, 1]
    z = p[:, 2]
    z2 = z * z
    a = u * u + z2
    b = v * v + z2
    r2 = a + v * v
    r = np.sqrt(r2)
    ar = a * r
    br = b * r
    uv = u * v

    def total(f):
        return c @ f.reshape(c.size, n)

    grad = np.column_stack([-total(v * z / ar), -total(u * z / br),
                            -total(uv * (1.0 / a + 1.0 / b) / r)])
    if not hessian:
        return grad, None
    ir2 = 1.0 / r2
    uvz = uv * z
    hxx = total(-uvz * (2.0 / a + ir2) / ar)
    hyy = total(-uvz * (2.0 / b + ir2) / br)
    hxy = total(z * ir2 / r)
    hxz = -total(v * (1.0 - 2.0 * z2 / a - z2 * ir2) / ar)
    hyz = -total(u * (1.0 - 2.0 * z2 / b - z2 * ir2) / br)
    hzz = -(hxx + hyy)
    hess = np.stack([hxx, hxy, hxz, hxy, hyy, hyz, hxz, hyz, hzz], axis=-1)
    return grad, hess.reshape(n, 3, 3)


def rf_field(layout: ElectrodeLayout, point) -> np.ndarray:
    """Peak RF field vector -V grad(phi_rf) (V/m) at a point, in closed form."""
    x, y, z = (float(v) for v in point)
    if z <= 0:
        raise DomainError("field is defined for z > 0 only")
    e, _ = _grad_hess(layout.rf_strips, -layout.rf_voltage, (x, y, z), hessian=False)
    return e[0]


def pseudopotential(layout: ElectrodeLayout, species: IonSpecies, point) -> float:
    """Time-averaged RF confinement energy q^2 |E|^2 / (4 m Omega^2), in J."""
    e = rf_field(layout, point)
    return species.charge_c**2 * float(e @ e) / (4.0 * species.mass_kg * layout.rf_omega**2)


# ---------------------------------------------------------------------------
# RF null search
# ---------------------------------------------------------------------------


def _xz_newton_step(layout, x, z):
    """Newton steps toward E_x = E_z = 0 from the points (x, axial center, z),
    and |(E_x, E_z)| there; a singular Jacobian gives a non-finite step."""
    pts = np.column_stack([x, np.full_like(x, layout.axial_center), z])
    e, jac = _grad_hess(layout.rf_strips, -layout.rf_voltage, pts)
    ex, ez = e[:, 0], e[:, 2]
    jxx, jxz, jzz = jac[:, 0, 0], jac[:, 0, 2], jac[:, 2, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = jxx * jzz - jxz * jxz
        return (jxz * ez - jzz * ex) / det, (jxz * ex - jxx * ez) / det, np.hypot(ex, ez)


def find_rf_null(layout: ElectrodeLayout, species: IonSpecies = CA40,
                 start_heights: Sequence[float] = DEFAULT_START_HEIGHTS) -> "TrapSolution":
    """Locate the RF field null in the x-z plane at the axial center.

    Solves E_x = E_z = 0 by damped Newton steps with the closed-form field
    Jacobian, stepping all start heights as one batch.  A step is capped at
    half the current height, and a start is dropped once it leaves the domain
    (z at or below 1 nm, above 4 electrode spans, or more than 2 spans off
    center).  A start counts as converged when the Newton correction at its
    end point is below 1e-9 of the height (|E| alone is not a usable test: the
    far field is small everywhere); all converged starts agree to well below
    1e-9 m for a valid layout, and the one with the smallest |E| is returned.
    """
    if layout.rf_voltage == 0:
        raise NoTrapError("zero RF amplitude traps nothing")
    xs = [s.x_min for s in layout.rf_strips] + [s.x_max for s in layout.rf_strips]
    x0 = 0.5 * (min(xs) + max(xs))
    # a planar-trap null always sits within a few electrode spans of the
    # metal; beyond that the far field decays monotonically (and eventually
    # underflows), which a solver would mistake for convergence
    span = (max(s.x_max for s in layout.strips)
            - min(s.x_min for s in layout.strips))
    z_cap = 4.0 * span

    z = np.array(start_heights, dtype=float)
    x = np.full(z.shape, x0)
    inside = np.ones(z.shape, dtype=bool)
    stepping = inside.copy()
    for _ in range(60):
        i = np.flatnonzero(stepping)
        if i.size == 0:
            break
        dx, dz, _ = _xz_newton_step(layout, x[i], z[i])
        norm = np.hypot(dx, dz)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.minimum(1.0, 0.5 * z[i] / norm)
        done = norm <= 1e-9 * z[i]
        x[i] += scale * dx
        z[i] += scale * dz
        inside[i] = (z[i] > _MIN_Z) & (z[i] <= z_cap) & (np.abs(x[i] - x0) <= 2.0 * span)
        stepping[i] = inside[i] & ~done

    i = np.flatnonzero(inside)
    dx, dz, e = _xz_newton_step(layout, x[i], z[i])
    converged = np.hypot(dx, dz) <= 1e-9 * z[i]
    candidates = [(float(ek), float(xk), float(zk))
                  for ek, xk, zk in zip(e[converged], x[i][converged], z[i][converged])]
    if not candidates:
        raise NoTrapError("no interior RF null found from any start height")
    _, x_null, z_null = min(candidates)
    pos = np.array([x_null, layout.axial_center, z_null])
    return TrapSolution(null_position=pos, height=z_null)


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


def _trap_depth_ev(layout, species, null, height, n_rays: int = 64,
                   n_samples: int = 400, reach: float = 30.0) -> float:
    """Lowest escape barrier of the pseudopotential along transverse rays, in eV.

    Marches each ray in the x-z plane outward to ``reach`` heights; a ray whose
    maximum sits at the end of its range (still climbing, e.g. toward the chip
    plane) offers no escape path and is skipped.  The points of all rays go
    through the field kernel in chunks of ``_DEPTH_CHUNK``.
    """
    psi0 = pseudopotential(layout, species, null)
    s = np.geomspace(1e-2 * height, reach * height, n_samples)
    theta = np.linspace(0.0, 2.0 * math.pi, n_rays, endpoint=False)
    px = null[0] + np.cos(theta)[:, None] * s
    pz = null[2] + np.sin(theta)[:, None] * s
    ok = pz > 10.0 * _MIN_Z  # per ray a prefix: pz is monotonic along a ray
    pts = np.column_stack([px[ok], np.full(np.count_nonzero(ok), null[1]), pz[ok]])
    e2 = np.empty(len(pts))
    for k in range(0, len(pts), _DEPTH_CHUNK):
        e, _ = _grad_hess(layout.rf_strips, -layout.rf_voltage, pts[k:k + _DEPTH_CHUNK],
                          hessian=False)
        e2[k:k + _DEPTH_CHUNK] = np.einsum("ij,ij->i", e, e)
    psi = np.full(px.shape, -np.inf)
    psi[ok] = species.charge_c**2 * e2 / (4.0 * species.mass_kg * layout.rf_omega**2)
    n_ok = ok.sum(axis=1)
    imax = np.argmax(psi, axis=1)
    escape = (n_ok >= 4) & (imax < n_ok - 1)
    if not escape.any():
        return math.inf
    best = float(np.min(psi[escape, imax[escape]])) - psi0
    return best / CONSTANTS.elementary_charge


def secular_spectrum(layout: ElectrodeLayout, species: IonSpecies = CA40,
                     dc_voltages: Mapping[int, float] | None = None) -> TrapSolution:
    """Secular frequencies, axes, Mathieu q and depth at the RF null.

    At the null E = 0, so the Hessian of the pseudopotential is exactly
    H_rf = q^2 J^T J / (2 m Omega^2), with J the closed-form Jacobian of the
    RF field; the DC strips add q * sum_k V_k Hess(phi_k).  A negative
    eigenvalue of the total Hessian marks the axis unstable (frequency
    reported as 0) rather than raising.  The Mathieu q of each axis comes
    from the eigenvalues of H_rf.  A DC index that names no DC strip of the
    layout raises DomainError.
    """
    dc_strips, dc_volts = _dc_strips(layout, dc_voltages)
    sol = find_rf_null(layout, species)
    null = sol.null_position
    q_ion, mass = species.charge_c, species.mass_kg
    _, jac = _grad_hess(layout.rf_strips, -layout.rf_voltage, null)
    H_rf = q_ion**2 / (2.0 * mass * layout.rf_omega**2) * (jac[0].T @ jac[0])
    _, dc_hess = _grad_hess(dc_strips, dc_volts, null)
    H = H_rf + q_ion * dc_hess[0]
    evals, axes = np.linalg.eigh(H)
    scale = float(np.linalg.norm(H))
    unstable = tuple(int(i) for i, ev in enumerate(evals) if ev < -1e-9 * scale)
    freqs = tuple(math.sqrt(max(float(ev), 0.0) / mass) / (2.0 * math.pi) for ev in evals)

    rf_evals = np.linalg.eigvalsh(H_rf)
    q_params = tuple(2.0 * math.sqrt(2.0) * math.sqrt(max(float(ev), 0.0) / mass)
                     / layout.rf_omega for ev in rf_evals)

    depth = _trap_depth_ev(layout, species, null, sol.height)
    return TrapSolution(null_position=null, height=sol.height,
                        secular_freqs_hz=freqs, axes=axes, q_params=q_params,
                        trap_depth_ev=depth, unstable_axes=unstable)


# ---------------------------------------------------------------------------
# lumped resonator and ion-crystal helpers
# ---------------------------------------------------------------------------


def resonator_capacitance(inductance_h: float, resonance_hz: float) -> float:
    """Load capacitance of an LC resonator: C = 1/(L*(2*pi*f0)^2)."""
    if inductance_h <= 0 or resonance_hz <= 0:
        raise DomainError("inductance and resonance frequency must be positive")
    return 1.0 / (inductance_h * (2.0 * math.pi * resonance_hz) ** 2)


def resonance_frequency(inductance_h: float, capacitance_f: float) -> float:
    """f0 = 1/(2*pi*sqrt(L*C))."""
    if inductance_h <= 0 or capacitance_f <= 0:
        raise DomainError("inductance and capacitance must be positive")
    return 1.0 / (2.0 * math.pi * math.sqrt(inductance_h * capacitance_f))


def two_ion_spacing(species: IonSpecies, secular_frequency_hz: float) -> float:
    """Equilibrium spacing of two ions sharing a harmonic well, in m.

    Balance of Coulomb repulsion and restoring force:
    s = (q^2 / (2*pi*eps0*m*omega^2))^(1/3).
    """
    f = float(secular_frequency_hz)
    if f <= 0:
        raise DomainError("secular frequency must be positive")
    omega = 2.0 * math.pi * f
    s3 = species.charge_c**2 / (2.0 * math.pi * CONSTANTS.eps0 * species.mass_kg * omega**2)
    return s3 ** (1.0 / 3.0)


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
    gaps_assigned: bool

    def ion_edge_distance(self, height: float) -> float:
        """Distance from a point at ``height`` above the axis to the nearest
        exposed electrode edge (the center electrode edge at x = +/- half width)."""
        return math.hypot(height, self.center_half_width)


def five_wire_layout(center_half_width: float, rail_width: float = 60e-6,
                     gap: float = 10e-6, dc_width: float = 200e-6,
                     length: float = 6e-3, rf_voltage: float = 120.0,
                     rf_omega: float = 2.0 * math.pi * 49.9e6,
                     dc_segments: int = 1, assign_gaps: bool = True):
    """Symmetric cross-section: DC | gap | RF | gap | center | gap | RF | gap | DC.

    In the gapless model each gap is split half-half between its neighbours
    (``assign_gaps=True``), so the modeled RF rail spans
    [g + gap/2, g + 1.5*gap + rail_width] with g the center half width.
    Returns (ElectrodeLayout, FiveWireGeometry).
    """
    g, wg, wr, wd = center_half_width, gap, rail_width, dc_width
    if min(g, wg, wr, wd, length) <= 0:
        raise DomainError("all five-wire dimensions must be positive")
    half_len = 0.5 * length
    if assign_gaps:
        center_edge = g + 0.5 * wg
        rf_in, rf_out = g + 0.5 * wg, g + 1.5 * wg + wr
        dc_in, dc_out = g + 1.5 * wg + wr, g + 2.0 * wg + wr + wd
    else:
        center_edge = g
        rf_in, rf_out = g + wg, g + wg + wr
        dc_in, dc_out = g + 2.0 * wg + wr, g + 2.0 * wg + wr + wd
    strips = [Strip(-center_edge, center_edge, -half_len, half_len, ROLE_CENTER),
              Strip(rf_in, rf_out, -half_len, half_len, ROLE_RF),
              Strip(-rf_out, -rf_in, -half_len, half_len, ROLE_RF)]
    edges = np.linspace(-half_len, half_len, dc_segments + 1)
    for k in range(dc_segments):
        strips.append(Strip(dc_in, dc_out, edges[k], edges[k + 1], ROLE_DC, dc_index=k))
        strips.append(Strip(-dc_out, -dc_in, edges[k], edges[k + 1], ROLE_DC,
                            dc_index=dc_segments + k))
    layout = ElectrodeLayout(strips=tuple(strips), rf_voltage=rf_voltage, rf_omega=rf_omega)
    geom = FiveWireGeometry(center_half_width=g, rail_width=wr, gap=wg, dc_width=wd,
                            length=length, gaps_assigned=assign_gaps)
    return layout, geom


_TRAP_KEYS = {"rf_voltage", "rf_frequency", "species"}
_STRIP_KEYS = {"role", "x_min", "x_max", "y_min", "y_max", "dc_index"}


def load_layout(path) -> tuple[ElectrodeLayout, IonSpecies]:
    """Read a layout from an INI-style file.

    One ``[trap]`` section (rf_voltage, rf_frequency in Hz, optional species)
    and one ``[strip <name>]`` section per electrode with role and extents.
    Values may carry unit suffixes ("60um", "49.9MHz").  Unknown sections or
    keys are rejected.
    """
    cp = configparser.ConfigParser()
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
        rf_voltage = parse_quantity(trap["rf_voltage"]).value
        rf_omega = 2.0 * math.pi * parse_quantity(trap["rf_frequency"]).value
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
            kwargs = {k: parse_quantity(sec[k]).value for k in ("x_min", "x_max", "y_min", "y_max")}
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
