"""Closed points of P^1 over F_q, their residue fields, and residues of
polynomials.

A finite place is a monic irreducible polynomial pi over F_q; the place at
infinity has uniformizer 1/t and residue field F_q.  Residue fields are
realized as F_q[t]/(pi), i.e. an ExtField with modulus pi (or F_q itself in
degree 1), so the residue of a polynomial f is f mod pi read in that field.
Reduction at infinity goes through the coordinate u = 1/t instead (see
reduction.curve_at_infinity).
"""

from __future__ import annotations

from .algebra import ExtField, FieldElement, Poly, PrimeField, is_irreducible


class Place:
    """A closed point of P^1 over F_q: a monic irreducible, or infinity."""

    __slots__ = ("field", "pi", "degree")

    def __init__(self, field: PrimeField, pi: Poly | None):
        self.field = field
        if pi is None:
            self.pi = None
            self.degree = 1
        else:
            if pi.lead() != field.one:
                raise ValueError("finite place polynomial must be monic")
            if not is_irreducible(pi):
                raise ValueError("finite place polynomial must be irreducible")
            self.pi = pi
            self.degree = int(pi.degree)

    @classmethod
    def infinity(cls, field) -> "Place":
        return cls(field, None)

    @classmethod
    def finite(cls, field, pi: Poly) -> "Place":
        return cls(field, pi)

    @classmethod
    def rational(cls, field, a) -> "Place":
        """The degree-1 place t = a."""
        return cls(field, Poly(field, [-field(a), 1]))

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    def __eq__(self, other):
        return (isinstance(other, Place) and other.field == self.field
                and other.pi == self.pi)

    def __hash__(self):
        return hash((self.field, self.pi))

    def __repr__(self):
        if self.is_infinite:
            return "Place(oo)"
        return f"Place({self.pi})"


def residue_field(x: Place):
    """F_x = F_q[t]/(pi), of order q^(deg x)."""
    if x.is_infinite or x.degree == 1:
        return x.field
    return ExtField(x.field, list(x.pi.coeffs))


def reduce_at(f: Poly, x: Place) -> FieldElement:
    """Image of the polynomial f in the residue field of the finite place x:
    f mod pi, read in F_q[t]/(pi) (the image of t is the generator)."""
    r = (f % x.pi).coeffs
    r += (0,) * (x.degree - len(r))
    return FieldElement(residue_field(x), r[0] if x.degree == 1 else r)


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
    degree the lexicographic order of ascending coefficient vectors.
    """
    yield Place.infinity(field)
    q = field.p
    F = field
    for d in range(1, d_max + 1):
        if d == 1:
            for a in range(q):
                yield Place(F, Poly(F, [a, 1]))
            continue
        for n in range(q ** d):
            cs = []
            m = n
            for _ in range(d):
                cs.append(m % q)
                m //= q
            f = Poly._raw(F, cs + [1])
            if is_irreducible(f):
                yield Place(F, f)
