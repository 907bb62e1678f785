"""Magnetic field of circular coil pairs (Helmholtz bias coils).

The field of a circular current loop is evaluated in closed form with
Bulirsch's general complete elliptic integral cel (Bulirsch, Numer. Math. 13,
305 (1969); used for coil fields by Derby & Olbert, Am. J. Phys. 78, 229
(2010)), whose Gauss transformation converges quadratically and needs no
special-function library.  Fields are plain float triples and everything here
is scalar ``math``, so the coil commands answer without loading numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularFieldError, real_number
from .units import CONSTANTS

#: relative gap between the arithmetic and geometric means below which cel's
#: Gauss transformation stops; it converges quadratically, so its error is
#: about the square of this, which is rounding
_CEL_TOL = math.sqrt(2.0**-52)


def _cel(kc: float, a: float, b: float) -> float:
    """Bulirsch's cel(kc, 1, a, b), the integral over [0, pi/2] of
    (a cos^2 t + b sin^2 t) / sqrt(cos^2 t + kc^2 sin^2 t) dt, for kc > 0.

    This is Bulirsch's algorithm at p = 1, the only p used here: repeated
    Gauss transformations, each an arithmetic-geometric mean step of the
    moduli.  It is linear in (a, b), and with a, b >= 0 every step adds
    positive terms, so the result keeps full relative precision.
    """
    k = kc
    em, pp, cc, ss, kk = 1.0, 1.0, a, b, kc
    for _ in range(64):
        f = cc
        cc += ss / pp
        g = kk / pp
        ss = 2.0 * (ss + f * g)
        pp += g
        g, em = em, em + k
        if abs(g - k) <= g * _CEL_TOL:
            break
        k = 2.0 * math.sqrt(kk)
        kk = k * em
    return 0.5 * math.pi * (ss + cc * em) / (em * (em + pp))


def loop_field(radius: float, z0: float, amp_turns: float, point) -> tuple[float, float, float]:
    """B (T) of a circular loop of given radius centered on the z axis at z=z0.

    ``amp_turns`` is N*I.  Uses the elliptic-integral solution in cylindrical
    coordinates, evaluated in units of the radius (rho/R, dz/R, prefactor
    mu0*N*I/R), so B scales exactly as 1/R and neither a tiny nor a huge coil
    over- or underflows on the way.  Raises SingularFieldError on the
    filament itself, and DomainError where B is beyond the float range.

    Biot-Savart with the angle around the loop substituted gives
    B_rho = pref dz cel(kc, kc^2, -1, 1) and
    B_z = pref cel(kc, kc^2, 1 + rho, 1 - rho), with pref = mu0 N I / (pi R
    far^3), far and near the distances to the far and near side of the loop,
    k^2 = 4 rho / far^2 and kc = near / far.  Both integrals cancel where the
    field is small against its terms: B_rho's everywhere far from the loop,
    where its terms are O(1) and their sum O(k^2), and B_z's far off in the
    loop's plane.  One Gauss transformation, done here in closed form, turns
    cel(kc, kc^2, a, b) into cel(kc1, 1, a + b / kc^2,
    2 (b + a kc) / (kc (1 + kc))) / (1 + kc) with kc1 = 2 sqrt(kc) / (1 + kc),
    and its cancelling sums have closed forms: a + b / kc^2 is k^2 / kc^2 for
    B_rho and 2 (1 - rho^2 + dz^2) / near^2 for B_z; b + a kc is
    (1 - kc) = k^2 / (1 + kc) for B_rho, and for B_z beyond rho = 1 it is
    k^2 dz^2 / ((1 + rho) kc + rho - 1).  Then B_rho's arguments are positive,
    and B_z's are each at most a few times |B| over the prefactor, so both
    components are exact to a few rounding errors of |B| at any distance.
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
    kc = near / far
    kc1 = 2.0 * math.sqrt(kc) / (1.0 + kc)
    # b + a kc of B_z, a sum of positive terms inside rho = 1 and its closed
    # form outside, where its two terms cancel
    bz_sum = ((1.0 - rho) + (1.0 + rho) * kc if rho <= 1.0
              else 4.0 * rho * (dz / far) ** 2 / ((1.0 + rho) * kc + rho - 1.0))
    # mu0 N I / (pi R far^3), with the Gauss step's 1 / (1 + kc)
    pref = scale / (math.pi * far * (1.0 + kc)) / far / far
    brho = pref * dz * _cel(kc1, m / kc / kc, 2.0 * m / (kc * (1.0 + kc) ** 2))
    bz = pref * _cel(kc1, 2.0 * ((1.0 - rho) / near * ((1.0 + rho) / near) + (dz / near) ** 2),
                     2.0 * bz_sum / (kc * (1.0 + kc)))
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
        for name in ("radius", "separation", "current"):
            real_number(getattr(self, name), name)
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


def coil_homogeneity(pair: CoilPair, extent: float) -> float:
    """Worst relative deviation |B(z) - B(0)| / |B(0)| on a centered axial
    segment of length ``extent`` < radius/10; any other extent, zero current
    or a separation beyond the float range in radii is a DomainError.

    With a = separation/(2R), h = sqrt(1 + a^2), x = a/h and s = (z/(R h))^2
    <= 1/400, B(z)/B(0) - 1 = D(s) = sum_m C_2m(x) s^m by the Gegenbauer
    generating function (1 - 2xt + t^2)^(-3/2) = sum_n C_n(x) t^n (DLMF
    18.12.4; Garrett, J. Appl. Phys. 22, 1091 (1951)), so no two fields are
    subtracted.  C_2 = 1.5 (2a - 1)(2a + 1)/h^2, zero at Helmholtz, is formed
    as that product, the rest by the recurrence.  As |C_n(x)| <= C_n(1) =
    (n + 1)(n + 2)/2, the first omitted term, C_18 s^9, is below 1e-15 of the
    worst |D|, at least s_end/25 where |C_2| >= 0.08 and s_end^2/5 where not.
    The worst point is the end or the one zero of D' in (0, s_end], found by
    bisection; D' is monotone wherever it can vanish, as a zero needs
    |C_2| < 0.08, and there C_4 < -1.6 keeps D'' < -2.7.
    """
    if not (0 < extent < pair.radius / 10.0):
        raise DomainError("extent must be positive and below radius/10")
    if pair.current == 0.0:
        raise DomainError("zero field at center (zero current)")
    a = 0.5 * pair.separation / pair.radius
    if a == math.inf:
        raise DomainError("separation is beyond the float range in units of the radius")
    h = math.hypot(1.0, a)
    x = a / h
    c = [1.0, 3.0 * x,
         1.5 * ((pair.separation - pair.radius) / h / pair.radius) * (2.0 * x + 1.0 / h)]
    for n in range(3, 17):
        c.append((2.0 * x * (n + 0.5) * c[n - 1] - (n + 1) * c[n - 2]) / n)
    terms = list(enumerate(c[2::2], 1))  # (m, C_2m) for m = 1..8

    def series(s: float, slope: bool = False) -> float:  # D(s), or D'(s) with slope
        return sum(cm * (m * s ** (m - 1) if slope else s**m) for m, cm in terms)

    s_end = (0.5 * extent / pair.radius / h) ** 2
    worst = abs(series(s_end))
    if c[2] * series(s_end, slope=True) < 0.0:
        lo, hi = 0.0, s_end
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            lo, hi = (mid, hi) if c[2] * series(mid, slope=True) > 0.0 else (lo, mid)
        worst = max(worst, abs(series(mid)))
    return worst
