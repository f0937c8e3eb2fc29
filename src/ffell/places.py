"""Closed points of P^1 over F_q and their residue fields.

A finite place is a monic irreducible polynomial pi over F_q; the place at
infinity has uniformizer 1/t and residue field F_q.  Residue fields are
realized as F_q[t]/(pi), i.e. an ExtField with modulus pi (or F_q itself in
degree 1), so the residue of a polynomial f is f mod pi read in that field
(reduction._leading); at infinity it reads top coefficients instead.
"""

from __future__ import annotations

from .algebra import (ExtField, Poly, PrimeField, _prime_factors,
                      is_irreducible, monic_irreducibles)


class Place:
    """A closed point of P^1 over F_q: a monic irreducible, or infinity.
    Its hash is taken once, at construction, as every memo keyed by a place
    hashes it on each lookup; it hashes only integers, p and the
    coefficients of pi, so it is the same in every process and a pickled
    place keeps it."""

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
        self._hash = hash((field.p, pi.coeffs if pi else ()))

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
    """Number of finite places of degree d: the necklace formula
    (1/d) sum_{e | d} mu(e) q^(d/e), summed over the squarefree e, the
    products of distinct prime factors of d, where mu(e) = (-1)^(number of
    them)."""
    mu = {1: 1}                          # squarefree e | d -> mu(e)
    for r in set(_prime_factors(d)):
        mu.update({e * r: -m for e, m in mu.items()})
    return sum(m * q ** (d // e) for e, m in mu.items()) // d


def enumerate_places(field: PrimeField, d_max: int):
    """Yield infinity, then every finite place of degree <= d_max.

    Deterministic order: infinity first, then degree ascending, and within a
    degree the order of algebra.monic_irreducibles.
    """
    yield Place.infinity(field)
    for d in range(1, d_max + 1):
        for f in monic_irreducibles(field, d):
            yield Place(field, f)
