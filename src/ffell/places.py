"""Closed points of P^1 over F_q and their residue fields.

A finite place is a monic irreducible polynomial pi over F_q; the place at
infinity has uniformizer 1/t and residue field F_q.  Residue fields are
realized as F_q[t]/(pi), i.e. an ExtField with modulus pi (or F_q itself in
degree 1), so the residue of a polynomial f is f mod pi read in that field
(reduction._leading); at infinity it reads top coefficients instead.
"""

from __future__ import annotations

from .algebra import (ExtField, Poly, PrimeField, is_irreducible,
                      monic_irreducibles)


class Place:
    """A closed point of P^1 over F_q: a monic irreducible, or infinity.
    Its hash is taken once, at construction or unpickling, as every memo
    keyed by a place hashes it on each lookup."""

    __slots__ = ("field", "pi", "degree", "_hash")

    def __init__(self, field: PrimeField, pi: Poly | None):
        self.field = field
        if pi is None:
            self.pi = None
            self.degree = 1
        else:
            if pi.lead() != 1:
                raise ValueError("finite place polynomial must be monic")
            if not is_irreducible(pi):
                raise ValueError("finite place polynomial must be irreducible")
            self.pi = pi
            self.degree = int(pi.degree)
        self._hash = hash((field, self.pi))

    @classmethod
    def infinity(cls, field) -> "Place":
        return cls(field, None)

    @classmethod
    def finite(cls, field, pi: Poly) -> "Place":
        return cls(field, pi)

    @classmethod
    def rational(cls, field, a: int) -> "Place":
        """The degree-1 place t = a."""
        return cls(field, Poly(field, [-a, 1]))

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    def __eq__(self, other):
        return (isinstance(other, Place) and other.field == self.field
                and other.pi == self.pi)

    def __hash__(self):
        return self._hash

    def __getstate__(self):
        return self.field, self.pi, self.degree

    def __setstate__(self, state):
        # str hashes differ between processes, so a pickled hash is stale
        self.field, self.pi, self.degree = state
        self._hash = hash((self.field, self.pi))

    def __repr__(self):
        if self.is_infinite:
            return "Place(oo)"
        return f"Place({self.pi})"


def residue_field(x: Place):
    """F_x = F_q[t]/(pi), of order q^(deg x)."""
    if x.is_infinite or x.degree == 1:
        return x.field
    return ExtField(x.field, list(x.pi.coeffs))


def count_places(q: int, d: int) -> int:
    """Number of finite places of degree d (necklace formula)."""
    total = 0
    for e in _divisors(d):
        total += _mobius(e) * q ** (d // e)
    return total // d


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _mobius(n):
    if n == 1:
        return 1
    m, cnt, d = n, 0, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            cnt += 1
        d += 1
    if m > 1:
        cnt += 1
    return -1 if cnt % 2 else 1


def enumerate_places(field: PrimeField, d_max: int):
    """Yield infinity, then every finite place of degree <= d_max.

    Deterministic order: infinity first, then degree ascending, and within a
    degree the order of algebra.monic_irreducibles.
    """
    yield Place.infinity(field)
    for d in range(1, d_max + 1):
        for f in monic_irreducibles(field, d):
            yield Place(field, f)
