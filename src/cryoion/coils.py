"""Magnetic field of circular coil pairs (Helmholtz bias coils).

The field of a circular current loop is evaluated in closed form with complete
elliptic integrals K and E; those are computed by the arithmetic-geometric
mean, which converges quadratically and needs no special-function library.
Fields are plain float triples and everything here is scalar ``math``, so
the coil commands answer without loading numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularFieldError, integer_at_least
from .units import CONSTANTS

_AGM_TOL = 1e-15  # c_n below this ends the iteration; K,E good to ~1e-12 or better


def _agm(m: float) -> tuple[float, float]:
    """(K(m), S) with E(m) = K * (1 - S), so K - E = K * S without cancellation.

    AGM iteration: a <- (a+b)/2, b <- sqrt(ab), c_(n+1) = (a_n-b_n)/2;
    K = pi/(2*a_inf) and S = sum 2^(n-1) c_n^2 with c_0 = sqrt(m).
    """
    if not (0.0 <= m < 1.0):
        raise DomainError(f"elliptic parameter m must be in [0, 1), got {m}")
    a, b = 1.0, math.sqrt(1.0 - m)
    c = math.sqrt(m)
    csum = 0.5 * c * c
    power = 0.5
    for _ in range(64):
        if abs(c) < _AGM_TOL:
            break
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        power *= 2.0
        csum += power * c * c
    return math.pi / (2.0 * a), csum


def elliptic_ke(m: float) -> tuple[float, float]:
    """Complete elliptic integrals (K(m), E(m)) for parameter m = k^2 in [0, 1)."""
    k_val, csum = _agm(m)
    return k_val, k_val * (1.0 - csum)


def loop_field(radius: float, z0: float, amp_turns: float, point) -> tuple[float, float, float]:
    """B (T) of a circular loop of given radius centered on the z axis at z=z0.

    ``amp_turns`` is N*I.  Uses the standard elliptic-integral solution in
    cylindrical coordinates, evaluated in units of the radius (rho/R, dz/R,
    prefactor mu0*N*I/R), so B scales exactly as 1/R and neither a tiny nor
    a huge coil over- or underflows on the way.  Raises SingularFieldError
    on the filament itself, and DomainError where B is beyond the float range.
    """
    if not 0.0 < radius < math.inf:
        raise DomainError("loop radius must be positive and finite")
    x, y, z = (float(v) for v in point)
    rho_m = math.hypot(x, y)
    rho, dz = rho_m / radius, (z - z0) / radius
    if not (math.isfinite(rho) and math.isfinite(dz)):
        raise DomainError("field point is beyond the float range in units of the radius")
    scale = CONSTANTS.mu0 * amp_turns / radius
    if rho < 1e-12:
        # a float ** raises OverflowError; beyond 1e100 radii B/scale is below 1e-300
        cube = (1.0 + dz * dz) ** 1.5 if abs(dz) < 1e100 else math.inf
        return _finite_field((0.0, 0.0, scale / (2.0 * cube)))
    # distances to the far and the near side of the loop; no square of a length
    # is formed, so no point within the float range overflows
    far, near = math.hypot(1.0 + rho, dz), math.hypot(1.0 - rho, dz)
    m = 4.0 * rho / far / far
    if m > 1.0 - 1e-12 or near < 1e-12:
        raise SingularFieldError("field point is on (or numerically at) the coil filament")
    K, csum = _agm(m)
    E, k_minus_e = K * (1.0 - csum), K * csum
    # bz = pref*(K + E*(1 - rho^2 - dz^2)/near^2) and
    # brho = pref*(dz/rho)*(-K + E*(1 + rho^2 + dz^2)/near^2), rewritten with
    # K - E so that neither cancels near the axis
    pref = scale / (2.0 * math.pi * far)
    bz = pref * (k_minus_e + 2.0 * E * (1.0 - rho) / near / near)
    brho = pref * dz * (2.0 * E / near / near - k_minus_e / rho)
    return _finite_field((brho * x / rho_m, brho * y / rho_m, bz))


def _finite_field(b: tuple[float, float, float]) -> tuple[float, float, float]:
    if not all(map(math.isfinite, b)):
        raise DomainError("coil field is beyond the float range")
    return b


@dataclass(frozen=True)
class CoilPair:
    """Two coaxial loops of equal radius on the z axis at z = +/- separation/2.

    Both carry ``turns * current`` in the same sense (fields add at the center).
    """

    radius: float
    separation: float
    turns: int
    current: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise DomainError("radius must be positive")
        if not (self.separation > 0 and math.isfinite(self.separation)):
            raise DomainError("separation must be positive")
        if not (isinstance(self.turns, int) and self.turns >= 1):
            raise DomainError("turns must be a positive integer")
        if not math.isfinite(self.current):
            raise DomainError("current must be finite")

    @classmethod
    def helmholtz(cls, radius: float, turns: int = 1, current: float = 1.0) -> "CoilPair":
        """Separation equal to the radius: vanishing 2nd-order axial curvature."""
        return cls(radius=radius, separation=radius, turns=turns, current=current)


def coil_field(pair: CoilPair, point) -> tuple[float, float, float]:
    """Total B (T) of the pair at a 3-d point (coil axis along z, center at origin)."""
    ni = pair.turns * pair.current
    lower = loop_field(pair.radius, -0.5 * pair.separation, ni, point)
    upper = loop_field(pair.radius, +0.5 * pair.separation, ni, point)
    return _finite_field(tuple(a + b for a, b in zip(lower, upper)))


def helmholtz_center_field(pair: CoilPair) -> float:
    """|B| at the center of an ideal Helmholtz pair: (4/5)^(3/2) * mu0*N*I/R."""
    return (4.0 / 5.0) ** 1.5 * CONSTANTS.mu0 * pair.turns * abs(pair.current) / pair.radius


def coil_homogeneity(pair: CoilPair, extent: float, n_samples: int = 201) -> float:
    """Worst relative deviation of |B| from the center value on the axis.

    Samples ``n_samples`` (an integer >= 101) points on a centered axial
    segment of length ``extent``; requires extent < radius/10 where the
    quartic term dominates.  Anything else is a DomainError.
    """
    if not (0 < extent < pair.radius / 10.0):
        raise DomainError("extent must be positive and below radius/10")
    n = integer_at_least(n_samples, 101, "n_samples")
    b0 = math.hypot(*coil_field(pair, (0.0, 0.0, 0.0)))
    if b0 == 0.0:
        raise DomainError("zero field at center (zero current?)")
    # the nodes of np.linspace: lo + i*step, the last one exactly hi
    lo, hi = -0.5 * extent, 0.5 * extent
    step = (hi - lo) / (n - 1)
    worst = 0.0
    for z in [lo + i * step for i in range(n - 1)] + [hi]:
        b = math.hypot(*coil_field(pair, (0.0, 0.0, z)))
        worst = max(worst, abs(b - b0) / b0)
    return worst
