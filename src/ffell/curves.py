"""Weierstrass models y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q(t) (char >= 5),
their standard quantities and quadratic twists.  Fiber point counts come
from the character sums in fastcount."""

from __future__ import annotations

from .algebra import FieldElement, Poly, PrimeField


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

    def short_coefficients(self):
        """(A, B) = (-c4/48, -c6/864): the model as y^2 = x^3 + A x + B."""
        F = self.field
        return -F(48).inverse() * self.c4, -F(864).inverse() * self.c6

    def is_isotrivial(self) -> bool:
        """Whether j = c4^3/Delta is constant, i.e. c4^3 is a constant
        multiple (possibly 0) of Delta."""
        q, r = divmod(self.c4 ** 3, self.delta)
        return not r and q.degree <= 0

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
