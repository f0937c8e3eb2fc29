"""Weierstrass models y^2 = x^3 + a2 x^2 + a4 x + a6 over F_q(t) (char >= 5),
their standard quantities and quadratic twists.  Fiber point counts come
from the character sums in fastcount."""

from __future__ import annotations

from functools import cached_property

from .algebra import Poly, PrimeField


def _twisted(name: str, k: int) -> cached_property:
    """The twist's coefficient `name`: its base's times d^k, built at first
    read.  A curve built by __init__ holds its own, which shadows this."""
    def scaled(self):
        base, d = self.twist_of
        return getattr(base, name) * d ** k
    scaled.__name__ = name
    return cached_property(scaled)


class WeierstrassCurve:
    """Short Weierstrass model with polynomial coefficients a2, a4, a6.

    A twist built by twist_by is its base and d, nothing more: a2, a4, a6,
    A, B and Delta are the base's scaled by d^k, multiplied out only when
    first read."""

    a2, a4, a6 = _twisted("a2", 1), _twisted("a4", 2), _twisted("a6", 3)
    A, B, delta = _twisted("A", 2), _twisted("B", 3), _twisted("delta", 6)

    def __init__(self, a2: Poly, a4: Poly, a6: Poly):
        self.twist_of = None  # (base, d) for a curve built by twist_by
        self._memo = {}       # what twists read off this curve as a base
        self.field = a2.field
        if a4.field != self.field or a6.field != self.field:
            raise ValueError("coefficients over different fields")
        self.a2, self.a4, self.a6 = a2, a4, a6
        s = a2 * pow(3, self.field.p - 2, self.field.p)  # x -> x - s, s = a2/3
        self.A = A = a4 - a2 * s
        self.B = B = a6 - s * (a4 - 2 * s * s)
        self.delta = -16 * (4 * A ** 3 + 27 * B * B)
        if not self.delta:
            raise ValueError("degenerate model: discriminant is zero")

    @classmethod
    def from_int_coeffs(cls, p: int, a2, a4, a6) -> "WeierstrassCurve":
        F = PrimeField(p)
        return cls(Poly(F, a2), Poly(F, a4), Poly(F, a6))

    @property
    def c4(self) -> Poly:
        return -48 * self.A

    @property
    def c6(self) -> Poly:
        return -864 * self.B

    def memoised(self, key, make):
        """make(), computed once per curve; only a twist asks its base.
        A hit hashes the key once (a Place in the key hashes in Python)."""
        try:
            return self._memo[key]
        except KeyError:
            self._memo[key] = value = make()
            return value

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
        in short form, has a2 d, a4 d^2, a6 d^3, A d^2, B d^3 and Delta d^6,
        and the same j (Silverman, The Arithmetic of Elliptic Curves, X.5).
        The twist records only (self, d) as twist_of and multiplies out
        none of these until one is read: its bad places, leading digits, I0*
        root counts, isotriviality and traces are read off self."""
        if isinstance(d, int):
            d = Poly(self.field, [d])
        if not d:
            raise ValueError("twist by zero")
        E = WeierstrassCurve.__new__(WeierstrassCurve)
        E.twist_of, E._memo, E.field = (self, d), {}, self.field
        return E

    def __repr__(self):
        return (f"WeierstrassCurve(p={self.field.p}, a2={self.a2!r}, "
                f"a4={self.a4!r}, a6={self.a6!r})")
