"""Weierstrass models y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q(t) (char >= 5),
their standard quantities and quadratic twists.  Fiber point counts come
from the character sums in fastcount."""

from __future__ import annotations

from .algebra import Poly, PrimeField


class WeierstrassCurve:
    """Short Weierstrass model with polynomial coefficients a2, a4, a6."""

    def __init__(self, a2: Poly, a4: Poly, a6: Poly, *, short=None):
        """short: (A, B, Delta) of y^2 = x^3 + Ax + B, if already known."""
        self.twist_of = None  # (base, d) for a curve built by twist_by
        self._memo = {}       # what twists read off this curve as a base
        self.field = a2.field
        if a4.field != self.field or a6.field != self.field:
            raise ValueError("coefficients over different fields")
        self.a2, self.a4, self.a6 = a2, a4, a6
        if short is None:                         # x -> x - s, s = a2/3
            s = a2 * pow(3, self.field.p - 2, self.field.p)
            A, B = a4 - a2 * s, a6 - s * (a4 - 2 * s * s)
            short = A, B, -16 * (4 * A ** 3 + 27 * B * B)
        self.A, self.B, self.delta = short
        if not self.delta:
            raise ValueError("degenerate model: discriminant is zero")

    @classmethod
    def from_int_coeffs(cls, p: int, a2, a4, a6) -> "WeierstrassCurve":
        F = PrimeField(p)
        return cls(Poly(F, a2), Poly(F, a4), Poly(F, a6))

    def short_coefficients(self):
        """(A, B) = (-c4/48, -c6/864): the model as y^2 = x^3 + A x + B."""
        return self.A, self.B

    @property
    def c4(self) -> Poly:
        return -48 * self.A

    @property
    def c6(self) -> Poly:
        return -864 * self.B

    def memoised(self, key, make):
        """make(), computed once per curve; only a twist asks its base."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def is_isotrivial(self) -> bool:
        """Whether j = c4^3/Delta = -110592 A^3/Delta is constant, i.e. A^3
        is a constant multiple (possibly 0) of Delta.  Twisting fixes j, so
        a twist reads its base's answer."""
        if self.twist_of is not None:
            base = self.twist_of[0]
            return base.memoised("isotrivial", base.is_isotrivial)
        q, r = divmod(self.A ** 3, self.delta)
        return not r and q.degree <= 0

    def assert_nonisotrivial(self):
        if self.is_isotrivial():
            raise ValueError("curve has constant j-invariant")

    def twist_by(self, d) -> "WeierstrassCurve":
        """Quadratic twist by d (a Poly or an int): d*y^2 = rhs, rewritten
        in short form; multiplies Delta by d^6 and fixes j.  The twist
        records (self, d) as twist_of, so that its factored Delta, leading
        digits and isotriviality are read off self."""
        if isinstance(d, int):
            d = Poly(self.field, [d])
        if not d:
            raise ValueError("twist by zero")
        d2 = d * d
        d3 = d2 * d
        E = WeierstrassCurve(self.a2 * d, self.a4 * d2, self.a6 * d3,
                             short=(self.A * d2, self.B * d3,
                                    self.delta * (d3 * d3)))
        E.twist_of = (self, d)
        return E

    def __repr__(self):
        return (f"WeierstrassCurve(p={self.field.p}, a2={self.a2!r}, "
                f"a4={self.a4!r}, a6={self.a6!r})")
