"""Local reduction data at a place: Kodaira symbol via the
(v(c4), v(c6), v(Delta)) specialization of Tate's algorithm (valid since the
residue characteristic is >= 5), table invariants, Tamagawa number,
split/non-split discrimination, a_x and the local root-number factor.

At a finite place pi every quantity the algorithm handles is a polynomial
divided by a power of pi: the minimal-model coefficients -c4/(48 pi^(4s))
and -c6/(864 pi^(6s)), and the shifted coefficients of the I_n*
subprocedure.  They are all kept as polynomials, divided by pi^k exactly
(a nonzero remainder raises ValueError) and reduced as f mod pi.

The place at infinity is handled by substituting t -> 1/u into an equivalent
model and reducing at u = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import FieldElement, Poly, legendre, roots
from .curves import WeierstrassCurve, count_points_cubic
from .places import Place, reduce_at, residue_field

INF = float("inf")


@dataclass(frozen=True)
class KodairaSymbol:
    """One of I_n, I_n*, II, III, IV, IV*, III*, II*."""

    base: str  # "I", "II", "III" or "IV"
    n: int = 0  # only meaningful for base "I"
    star: bool = False

    def __post_init__(self):
        if self.base not in ("I", "II", "III", "IV"):
            raise ValueError(f"bad Kodaira base {self.base!r}")
        if self.base != "I" and self.n:
            raise ValueError("only I_n carries an index")
        if self.n < 0:
            raise ValueError("negative index")

    def __str__(self):
        s = "*" if self.star else ""
        if self.base == "I":
            return f"I{self.n}{s}"
        return f"{self.base}{s}"

    @classmethod
    def parse(cls, s: str) -> "KodairaSymbol":
        s = s.strip()
        star = s.endswith("*")
        if star:
            s = s[:-1]
        if s.startswith("I") and not s.startswith(("II", "III", "IV")):
            return cls("I", int(s[1:]), star)
        return cls(s, 0, star)


def table_row(sym: KodairaSymbol) -> dict:
    """The (f, e, gamma, lambda, r, b) invariants attached to a symbol."""
    if sym.base == "I" and not sym.star:
        n = sym.n
        if n == 0:
            return dict(f=0, e=0, gamma=1, lam=1, r=1, b=0)
        return dict(f=1, e=n, gamma=n // math.gcd(2, n), lam=n, r=1, b=0)
    if sym.base == "I" and sym.star:
        n = sym.n
        if n == 0:
            return dict(f=2, e=6, gamma=1, lam=1, r=1, b=0)
        return dict(f=2, e=6 + n, gamma=2 // math.gcd(2, n), lam=n, r=1, b=1)
    plain = {"II": dict(f=2, e=2, gamma=1, lam=1, r=1, b=1),
             "III": dict(f=2, e=3, gamma=1, lam=1, r=2, b=1),
             "IV": dict(f=2, e=4, gamma=3, lam=1, r=3, b=1)}
    starred = {"II": dict(f=2, e=10, gamma=1, lam=1, r=1, b=1),
               "III": dict(f=2, e=9, gamma=1, lam=1, r=2, b=1),
               "IV": dict(f=2, e=8, gamma=3, lam=1, r=3, b=1)}
    return (starred if sym.star else plain)[sym.base]


@dataclass
class LocalReductionData:
    place: Place
    kodaira: KodairaSymbol
    f: int
    e: int
    gamma: int
    lam: int
    r: int
    b: int
    c: int
    reduction_type: str  # good | split_mult | nonsplit_mult | additive
    a_x: int
    v_min_delta: int
    minimal_fiber: tuple | None = None  # (A2, A4, A6) residues for good places

    @property
    def degree(self) -> int:
        return self.place.degree

    def to_json(self) -> dict:
        if self.place.is_infinite:
            place = "oo"
        else:
            place = [int(c) if isinstance(c, int) else list(c)
                     for c in self.place.pi.coeffs]
        return {
            "place": place,
            "degree": self.degree,
            "kodaira": str(self.kodaira),
            "f": self.f, "e": self.e, "gamma": self.gamma,
            "lambda": self.lam, "r": self.r, "b": self.b,
            "c": self.c,
            "reduction_type": self.reduction_type,
            "a": self.a_x,
            "v_min_delta": self.v_min_delta,
        }


def curve_at_infinity(curve: WeierstrassCurve) -> tuple[WeierstrassCurve, int]:
    """An equivalent model in the coordinate u = 1/t, so that the place at
    infinity becomes the finite place u = 0.  Returns (model, weight k)."""
    F = curve.field

    def degree_of(p):
        return 0 if not p else int(p.degree)

    k = max(1,
            math.ceil(degree_of(curve.a2) / 2),
            math.ceil(degree_of(curve.a4) / 4),
            math.ceil(degree_of(curve.a6) / 6))

    def rev(p: Poly, d: int) -> Poly:
        cs = [F.zero_raw] * (d + 1)
        for i, c in enumerate(p.coeffs):
            cs[d - i] = c
        return Poly._raw(F, cs)

    return WeierstrassCurve(rev(curve.a2, 2 * k), rev(curve.a4, 4 * k),
                            rev(curve.a6, 6 * k)), k


def _lift(x: Place, a: FieldElement) -> Poly:
    """A polynomial of degree < deg(x) reducing to a at x."""
    F = x.field
    if a.field == F:
        return Poly(F, [a.raw])
    return Poly._raw(F, list(a.raw))


def _val(p: Poly, pi: Poly):
    return INF if not p else p.valuation(pi)


def _div(f: Poly, pi: Poly, k: int) -> Poly:
    """f / pi^k, which must be a polynomial."""
    q, r = divmod(f, pi ** k)
    if r:
        raise ValueError(f"({pi})^{k} does not divide {f!r}")
    return q


def _classify(a, b, d) -> KodairaSymbol:
    """Kodaira symbol from minimal (v(c4), v(c6), v(Delta))."""
    if d == 0:
        return KodairaSymbol("I", 0)
    if a == 0:
        return KodairaSymbol("I", d)
    if b == 1:
        assert d == 2, (a, b, d)
        return KodairaSymbol("II")
    if a == 1:
        assert d == 3 and b >= 2, (a, b, d)
        return KodairaSymbol("III")
    if b == 2:
        assert d == 4 and a >= 2, (a, b, d)
        return KodairaSymbol("IV")
    if a == 2 and b == 3 and d >= 7:
        return KodairaSymbol("I", d - 6, star=True)
    if d == 6:
        assert a >= 2 and b >= 3, (a, b, d)
        return KodairaSymbol("I", 0, star=True)
    if b == 4:
        assert d == 8 and a >= 3, (a, b, d)
        return KodairaSymbol("IV", star=True)
    if a == 3:
        assert d == 9 and b >= 5, (a, b, d)
        return KodairaSymbol("III", star=True)
    if b == 5:
        assert d == 10 and a >= 4, (a, b, d)
        return KodairaSymbol("II", star=True)
    raise AssertionError(f"non-minimal valuations after rescaling: {(a, b, d)}")


def _tamagawa_in_star(A, B, pi: Poly, x: Place, n_expected: int) -> int:
    """Tate's subprocedure for I_n* (n >= 1), odd residue characteristic.

    A, B are the depressed-model coefficients (y^2 = x^3 + Ax + B) with
    v_x(A) = 2 and v_x(B) = 3.  Returns c in {2, 4}; asserts that the loop
    length matches n_expected = v(Delta_min) - 6.
    """
    A2bar = reduce_at(_div(A, pi, 2), x)
    B3bar = reduce_at(_div(B, pi, 3), x)
    T0 = -3 * B3bar / (2 * A2bar)  # double root of T^3 + A2bar T + B3bar
    r = pi * _lift(x, T0)
    a2 = 3 * r
    a4 = A + 3 * r ** 2
    a6 = B + A * r + r ** 3
    n = 1
    while True:
        if n % 2 == 1:
            k = (n + 1) // 2
            u = reduce_at(_div(a6, pi, 2 * k + 2), x)
            if u:
                c = 4 if legendre(u) == 1 else 2
                break
            # double root Y = 0 of Y^2 - u; no shift needed in odd characteristic
        else:
            m = n // 2
            abar = reduce_at(_div(a2, pi, 1), x)
            bbar = reduce_at(_div(a4, pi, m + 2), x)
            cbar = reduce_at(_div(a6, pi, 2 * m + 3), x)
            disc = bbar * bbar - 4 * abar * cbar
            if disc:
                c = 4 if legendre(disc) == 1 else 2
                break
            X0 = -bbar / (2 * abar)
            sh = pi ** (m + 1) * _lift(x, X0)
            a6 = a6 + a4 * sh + a2 * sh ** 2 + sh ** 3
            a4 = a4 + 2 * a2 * sh + 3 * sh ** 2
            a2 = a2 + 3 * sh
        n += 1
    assert n == n_expected, f"subprocedure found I_{n}*, table says I_{n_expected}*"
    return c


def _local_reduce_finite(curve: WeierstrassCurve, x: Place) -> LocalReductionData:
    F = curve.field
    pi = x.pi
    K = residue_field(x)
    vc4 = _val(curve.c4, pi)
    vc6 = _val(curve.c6, pi)
    vd = curve.delta.valuation(pi)
    s = min(vc4 // 4, vc6 // 6, vd // 12)
    s = int(s)
    a, b, d = vc4 - 4 * s, vc6 - 6 * s, vd - 12 * s
    sym = _classify(a, b, d)
    row = table_row(sym)

    inv48 = F(48).inverse()
    inv864 = F(864).inverse()
    A = _div(-inv48 * curve.c4, pi, 4 * s)
    B = _div(-inv864 * curve.c6, pi, 6 * s)

    minimal_fiber = None
    if sym.base == "I" and not sym.star and sym.n == 0:
        Abar = reduce_at(A, x)
        Bbar = reduce_at(B, x)
        minimal_fiber = (K.zero, Abar, Bbar)
        count = count_points_cubic(K, *minimal_fiber)
        a_x = K.order + 1 - count
        return LocalReductionData(x, sym, **row, c=1, reduction_type="good",
                                  a_x=a_x, v_min_delta=d,
                                  minimal_fiber=minimal_fiber)

    if sym.base == "I" and not sym.star:  # multiplicative I_n, n >= 1
        n = sym.n
        Abar = reduce_at(A, x)
        Bbar = reduce_at(B, x)
        x0 = -3 * Bbar / (2 * Abar)  # double root of the reduced cubic
        slope2 = 3 * x0  # tangent-cone quantity: split iff a square
        split = legendre(slope2) == 1
        if split:
            c, rtype, a_x = n, "split_mult", 1
        else:
            c, rtype, a_x = (2 if n % 2 == 0 else 1), "nonsplit_mult", -1
        return LocalReductionData(x, sym, **row, c=c, reduction_type=rtype,
                                  a_x=a_x, v_min_delta=d)

    # additive types
    if sym.base == "I" and sym.star and sym.n == 0:
        A2bar = reduce_at(_div(A, pi, 2), x)
        B3bar = reduce_at(_div(B, pi, 3), x)
        c = 1 + len(roots(Poly(K, [B3bar, A2bar, K.zero, K.one])))
    elif sym.base == "I" and sym.star:
        c = _tamagawa_in_star(A, B, pi, x, sym.n)
    elif sym.base == "II":
        c = 1
    elif sym.base == "III":
        c = 2
    elif sym.base == "IV" and not sym.star:
        B2bar = reduce_at(_div(B, pi, 2), x)
        c = 3 if legendre(B2bar) == 1 else 1
    elif sym.base == "IV" and sym.star:
        B4bar = reduce_at(_div(B, pi, 4), x)
        c = 3 if legendre(B4bar) == 1 else 1
    else:
        raise AssertionError(sym)
    return LocalReductionData(x, sym, **row, c=c, reduction_type="additive",
                              a_x=0, v_min_delta=d)


def local_reduce(curve: WeierstrassCurve, x: Place) -> LocalReductionData:
    """Tate's algorithm at x (finite or infinite)."""
    if x.is_infinite:
        model, _ = curve_at_infinity(curve)
        data = _local_reduce_finite(model, Place.rational(curve.field, 0))
        data.place = x
        return data
    return _local_reduce_finite(curve, x)


def tamagawa(curve: WeierstrassCurve, x: Place) -> int:
    return local_reduce(curve, x).c


def split_type(curve: WeierstrassCurve, x: Place) -> str:
    data = local_reduce(curve, x)
    if data.reduction_type not in ("split_mult", "nonsplit_mult"):
        raise ValueError(f"reduction at {x!r} is not multiplicative")
    return "split" if data.reduction_type == "split_mult" else "nonsplit"


def local_root_factor(data: LocalReductionData) -> int:
    """+1 / -1 contribution of the place to the root number."""
    if data.reduction_type == "good" or data.reduction_type == "nonsplit_mult":
        return 1
    if data.reduction_type == "split_mult":
        return -1
    K = residue_field(data.place) if not data.place.is_infinite else data.place.field
    return legendre(K(-data.r))
