"""Exponent geometry for the randomized space-time density estimates.

All region geometry is done in exact rational arithmetic (fractions.Fraction)
in the (1/q, 1/p) plane.  The admissible region is the convex hull of the
corners

    A = (0, (d-2*sigma)/2),  B = ((d-2*sigma)/d, 0),
    C = (1, 0),              D = ((d-2)/d, 1),

intersected with the unit square; for d = 2 the closed segment AB is
excluded.  The scaling line 2/p + d/q = d - sigma is checked separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "ExponentRegion",
    "AdmissibilityReport",
    "deterministic_sharp_alpha",
    "region_membership",
    "sobolev_admissible",
    "singular_estimate_exponents",
    "full_estimate_check",
]

Frac = Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x).limit_denominator(10**12)


def deterministic_sharp_alpha(q, d: int):
    """Sharp Schatten exponent 2q/(q+1) of the deterministic estimate."""
    q = _frac(q)
    if q < 1:
        raise ValueError("q must be >= 1")
    # q = (d+1)/(d-1) is accepted as the limiting endpoint of the range.
    if d >= 2 and q > Fraction(d + 1, d - 1):
        raise ValueError(f"q must satisfy q < (d+1)/(d-1) for d={d}")
    return 2 * q / (q + 1)


def _clip_unit_square(poly):
    """Sutherland-Hodgman clip of a convex polygon to [0,1]^2, exact."""
    half_planes = [
        (lambda pt: pt[0] >= 0, lambda a, b: _intersect_x(a, b, Frac(0))),
        (lambda pt: pt[0] <= 1, lambda a, b: _intersect_x(a, b, Frac(1))),
        (lambda pt: pt[1] >= 0, lambda a, b: _intersect_y(a, b, Frac(0))),
        (lambda pt: pt[1] <= 1, lambda a, b: _intersect_y(a, b, Frac(1))),
    ]
    for inside, cut in half_planes:
        out = []
        n = len(poly)
        for i in range(n):
            a, b = poly[i], poly[(i + 1) % n]
            if inside(a):
                out.append(a)
                if not inside(b):
                    out.append(cut(a, b))
            elif inside(b):
                out.append(cut(a, b))
        poly = out
        if not poly:
            return []
    dedup = []
    for pt in poly:
        if not dedup or pt != dedup[-1]:
            dedup.append(pt)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _intersect_x(a, b, x0):
    t = (x0 - a[0]) / (b[0] - a[0])
    return (x0, a[1] + t * (b[1] - a[1]))


def _intersect_y(a, b, y0):
    t = (y0 - a[1]) / (b[1] - a[1])
    return (a[0] + t * (b[0] - a[0]), y0)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b) -> bool:
    if _cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


@dataclass
class ExponentRegion:
    """Convex admissible region in (1/q, 1/p) coordinates, exact rationals."""

    d: int
    sigma: Fraction

    def __post_init__(self):
        object.__setattr__(self, "sigma", _frac(self.sigma))
        # sigma = d/2 is accepted as the degenerate endpoint (corners A = B = origin).
        if not (0 <= self.sigma <= Fraction(self.d, 2)):
            raise ValueError("sigma must lie in [0, d/2]")

    @property
    def corner_a(self):
        return (Frac(0), Fraction(self.d - 2 * self.sigma, 2))

    @property
    def corner_b(self):
        return (Fraction(self.d - 2 * self.sigma, self.d), Frac(0))

    @property
    def corner_c(self):
        return (Frac(1), Frac(0))

    @property
    def corner_d(self):
        return (Fraction(self.d - 2, self.d), Frac(1))

    def polygon(self):
        raw = [self.corner_a, self.corner_b, self.corner_c, self.corner_d]
        dedup = []
        for pt in raw:
            if pt not in dedup:
                dedup.append(pt)
        return _clip_unit_square(dedup)


def region_membership(point, region: ExponentRegion) -> str:
    """Classify (1/q, 1/p) as inside / boundary / outside / excluded-AB."""
    p = (_frac(point[0]), _frac(point[1]))
    if region.d == 2 and _on_segment(p, region.corner_a, region.corner_b):
        return "excluded-AB"
    poly = region.polygon()
    if len(poly) < 3:
        # Degenerate region: membership means lying on the remaining segment/point.
        if len(poly) == 2 and _on_segment(p, poly[0], poly[1]):
            return "boundary"
        if len(poly) == 1 and p == poly[0]:
            return "boundary"
        return "outside"
    on_edge = False
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        c = _cross(a, b, p)
        if c < 0:
            return "outside"
        if c == 0 and _on_segment(p, a, b):
            on_edge = True
    return "boundary" if on_edge else "inside"


@dataclass
class AdmissibilityReport:
    scaling_ok: bool
    trace_condition_ok: bool
    strict_alpha_ok: bool

    @property
    def admissible(self) -> bool:
        return self.scaling_ok and self.trace_condition_ok and self.strict_alpha_ok


def sobolev_admissible(p, q, alpha, s, d: int) -> AdmissibilityReport:
    """Admissibility of (p, q, alpha) for the Sobolev-weighted density bound.

    Requires 2/p + d/q = d - 2s together with 1/alpha >= 1/(d p) + 1/q and
    alpha < p.
    """
    p, q, alpha, s = _frac(p), _frac(q), _frac(alpha), _frac(s)
    if not (0 < s < Fraction(d, 2)):
        raise ValueError("s must lie in (0, d/2)")
    scaling_ok = 2 / p + Fraction(d) / q == d - 2 * s
    trace_ok = 1 / alpha >= 1 / (d * p) + 1 / q
    strict_ok = alpha < p
    return AdmissibilityReport(scaling_ok, trace_ok, strict_ok)


def singular_estimate_exponents(p, q, sigma, d: int):
    """Exponents for the singular-value-randomized moment bound.

    Validates the scaling relation 2/p + d/q = d - sigma and region
    membership, then returns (alpha, r_min) with alpha = min(p, q, 2) and
    r_min = max(p, q).  alpha strictly exceeds the deterministic sharp
    exponent 2q/(q+1) whenever the latter is defined.
    """
    p, q, sigma = _frac(p), _frac(q), _frac(sigma)
    if 2 / p + Fraction(d) / q != d - sigma:
        raise ValueError(
            f"scaling violated: 2/p + d/q = {2 / p + Fraction(d) / q} != d - sigma = {d - sigma}"
        )
    region = ExponentRegion(d, sigma)
    verdict = region_membership((1 / q, 1 / p), region)
    if verdict == "excluded-AB":
        raise ValueError("exponent region: point on excluded segment AB (d=2)")
    if verdict == "outside":
        raise ValueError("exponent region: point outside admissible region")
    alpha = min(p, q, Frac(2))
    r_min = max(p, q)
    if d == 1 or q < Fraction(d + 1, d - 1):
        beta = deterministic_sharp_alpha(q, d)
        assert alpha > beta, "randomized exponent must beat the deterministic sharp one"
    return alpha, r_min


def full_estimate_check(p, q, q_hat, r, d: int) -> None:
    """Exponent preconditions of the fully-randomized moment bound."""
    p, q, q_hat, r = _frac(p), _frac(q), _frac(q_hat), _frac(r)
    if p < 2:
        raise ValueError("p must be >= 2")
    if 2 / p + Fraction(d) / q != d:
        raise ValueError("scaling violated: need 2/p + d/q = d")
    if q_hat < max(q, 2):
        raise ValueError("q_hat must be >= max(q, 2)")
    if r < max(p, q_hat):
        raise ValueError("moment order r must be >= max(p, q_hat)")
