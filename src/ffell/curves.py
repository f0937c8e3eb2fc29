"""Weierstrass models y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q(t) (char >= 5),
their standard quantities, quadratic twists, and exact fiber point counts."""

from __future__ import annotations

from .algebra import FieldElement, Poly, PrimeField, legendre
from .places import Place, RationalFunction, residue_field


class WeierstrassCurve:
    """Short Weierstrass model with polynomial coefficients a2, a4, a6."""

    def __init__(self, a2: Poly, a4: Poly, a6: Poly):
        self.field = a2.field
        if a4.field != self.field or a6.field != self.field:
            raise ValueError("coefficients over different fields")
        self.a2, self.a4, self.a6 = a2, a4, a6
        b2 = 4 * a2
        b4 = 2 * a4
        b6 = 4 * a6
        self.c4 = b2 * b2 - 24 * b4
        self.c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
        inv1728 = self.field(1728).inverse()
        self.delta = (self.c4 ** 3 - self.c6 ** 2) * inv1728
        if not self.delta:
            raise ValueError("degenerate model: discriminant is zero")

    @classmethod
    def from_int_coeffs(cls, p: int, a2, a4, a6) -> "WeierstrassCurve":
        F = PrimeField(p)
        return cls(Poly(F, a2), Poly(F, a4), Poly(F, a6))

    @property
    def j(self) -> RationalFunction:
        return RationalFunction(self.c4 ** 3, self.delta)

    def is_isotrivial(self) -> bool:
        j = self.j
        return j.num.degree <= 0 and j.den.degree <= 0

    def assert_nonisotrivial(self):
        if self.is_isotrivial():
            raise ValueError("curve has constant j-invariant")

    def twist_by(self, d) -> "WeierstrassCurve":
        """Quadratic twist by d (a Poly or a constant): d*y^2 = rhs, rewritten
        in short form; multiplies Delta by d^6 and fixes j."""
        if isinstance(d, (int, FieldElement)):
            d = Poly(self.field, [d])
        if not d:
            raise ValueError("twist by zero")
        return WeierstrassCurve(self.a2 * d, self.a4 * d ** 2, self.a6 * d ** 3)

    def __repr__(self):
        return (f"WeierstrassCurve(p={self.field.p}, a2={self.a2!r}, "
                f"a4={self.a4!r}, a6={self.a6!r})")


def count_points_cubic(K, A2, A4, A6, method: str = "charsum") -> int:
    """|E(K)| for y^2 = x^3 + A2 x^2 + A4 x + A6 over the finite field K.

    'charsum' evaluates |E| = q + 1 + sum_u chi(f(u)); 'naive' counts the
    solutions of y^2 = f(u) against a table of square roots.  Both are exact;
    naive is the oracle.
    """
    q = K.order
    if method == "charsum":
        s = 0
        for u in K.elements():
            s += legendre(((u + A2) * u + A4) * u + A6)
        return q + 1 + s
    if method == "naive":
        nsols = {}
        for y in K.elements():
            sq = (y * y).raw
            nsols[sq] = nsols.get(sq, 0) + 1
        total = 1  # point at infinity
        for u in K.elements():
            f = ((u + A2) * u + A4) * u + A6
            total += nsols.get(f.raw, 0)
        return total
    raise ValueError(f"unknown method {method!r}")


def count_fiber_points(curve: WeierstrassCurve, x: Place,
                       method: str = "charsum") -> int:
    """a_x(E) = q^deg(x) + 1 - |E_x(F_x)| at a place of good reduction.

    Works on the minimal model at x, so non-minimal inputs are fine."""
    from .reduction import local_reduce
    data = local_reduce(curve, x)
    if data.reduction_type != "good":
        raise ValueError(f"{x!r} is a place of bad reduction")
    ax = data.a_x
    if method != "charsum":
        K = residue_field(x) if not x.is_infinite else x.field
        A2, A4, A6 = data.minimal_fiber
        count = count_points_cubic(K, A2, A4, A6, method=method)
        ax2 = K.order + 1 - count
        assert ax2 == ax, "point counting paths disagree"
    # Hasse bound sanity
    qd = (x.field.p ** x.degree)
    assert ax * ax <= 4 * qd
    return ax
