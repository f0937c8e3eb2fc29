"""Local reduction data at a place: Kodaira symbol via the
(v(c4), v(c6), v(Delta)) specialization of Tate's algorithm (valid since the
residue characteristic is >= 5), table invariants, Tamagawa number,
split/non-split discrimination, a_x and the local root-number factor.

A Kodaira symbol is a plain string ("I0", "I5", "I0*", "I3*", "II", "III",
"IV", "IV*", "III*", "II*"), the form the family grammar, the verifier and
the JSON output read.  `_classify` returns it together with its table row.

The algorithm reads only the short model y^2 = x^3 + Ax + B, with
A = -c4/48 and B = -c6/864, and Delta; v(A) = v(c4) and v(B) = v(c6).
Infinity is an ordinary place with uniformizer pi = 1/t: there v(f) = -deg f
and the leading digit of f is its top coefficient.  At a finite place pi
the leading digit of f is f/pi^v(f) mod pi, and no power of pi is formed:
at pi = t - a it is the Taylor coefficient f^(v)(a)/v!, read by synthetic
division on plain ints, and at a place of higher degree the first nonzero
remainder of the division chain on raw coefficient lists.  Delta's pair
needs no chain of its own where 3 v(A) != 2 v(B): Delta = -64 A^3 -
432 B^2, so v(Delta) = min(3 v(A), 2 v(B)) and its digit is -64 r_A^3 or
-432 r_B^2, at infinity too and with v = INF for A = 0 or B = 0.  Only where
the two terms tie can they cancel, and there (multiplicative, I0, I0* and
I_n* places) Delta's own digit is read.  The minimal model is A/pi^(4s),
B/pi^(6s), Delta/pi^(12s), and each residue read, f/pi^e mod pi for a
minimal coefficient f, is 0 when v(f) > e and otherwise the leading digit of
A, B or Delta.  Every residue is a raw value of K = residue_field(x)
(F_q[t]/(pi), or F_q at infinity), with quadratic character chi_K, taken
once where its digit is read.  Tamagawa numbers and split types are then
closed forms:

- I_n, n >= 1: split iff 6B is a square in K.  The node is at the double
  root x0 = -3B/(2A), the tangent slopes there are +-sqrt(3 x0), and
  -A = 3 x0^2 puts 3 x0 in the square class of 6B.
- I_n*, n >= 1: c = 3 + chi_K(e), with e = Delta/pi^(6+n) for even n and
  e = (Delta/pi^(6+n)) (-6B/pi^3) for odd n.  Tate's subprocedure ends at a
  quadratic whose discriminant (n even) or constant term (n odd) has the
  square class of e.
- I0*: 1 + the roots of T^3 + (A/pi^2) T + (B/pi^3) in K.  IV and IV*:
  3 if B/pi^2, resp. B/pi^4, is a square in K, else 1.

A quadratic twist by d has A d^2, B d^3 and Delta d^6.  With (e, u) the
valuation and leading digit of d at x, its (v, r) pairs are its base's
shifted and scaled in K, (v + k e, r u^k) for k = 2, 3, 6, and (INF, 0)
stays (INF, 0); at infinity e = -deg d and u is d's top coefficient.  So
every valuation, and with them the symbol and s, are fixed by x and e, and
u enters the closed forms above only through chi_K(u): chi_K(6B u^3) at
I_n, chi_K(Delta u^6) or chi_K(Delta (-6B) u^9) at I_n*, chi_K(B u^3) at IV
and IV*, and the I0* cubic T^3 + A u^2 T + B u^3 is the base's with
T = u S, so it has the same number of roots; II, III, III* and II* read
no digit.  A twist's local data at x is
therefore memoised on its base under (x, e, chi_K(u)), and the base's pairs
under ("digits", x); only I0 is computed each time, as its minimal fiber
holds A u^2 and B u^3.  For a family member, the base model twisted by
t - h(w), the data at infinity (e = -1, u = 1) are shared by every member,
those at a base bad place, where d is a unit, by every member with the same
chi_K(u) there, and those at the twist place (e = 1, u = 1) by every member
with the same h(w).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import Poly, _poly_divmod, legendre
from .curves import WeierstrassCurve
from .fastcount import place_trace
from .places import Place, residue_field

INF = float("inf")


@dataclass
class LocalReductionData:
    place: Place
    kodaira: str  # "I0", "I5", "I0*", "I3*", "II", ..., "II*"
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
            place = list(self.place.pi.coeffs)
        return {
            "place": place,
            "degree": self.degree,
            "kodaira": self.kodaira,
            "f": self.f, "e": self.e, "gamma": self.gamma,
            "lambda": self.lam, "r": self.r, "b": self.b,
            "c": self.c,
            "reduction_type": self.reduction_type,
            "a": self.a_x,
            "v_min_delta": self.v_min_delta,
        }


def _leading(f: Poly, x: Place):
    """(v, r): the valuation of f at x and its leading digit, a raw value
    of residue_field(x); (INF, zero) for f = 0.  At a finite place r is
    f/pi^v mod pi.  At a place t - a that is the Taylor coefficient
    f^(v)(a)/v!, read by synthetic division on plain ints: pass k divides,
    in place, the quotient the passes before it left in cs[k:] by t - a
    and leaves its remainder, the k-th Taylor coefficient, in cs[k], so a
    unit takes one Horner pass and v(f) = v takes v + 1 shrinking ones.
    At a place of higher degree r is the first nonzero remainder of the
    division chain on raw coefficient lists.  At infinity v = -deg f
    (deg 0 = -inf) and r is f's top coefficient."""
    if x.is_infinite:
        return -f.degree, f.coeffs[-1] if f else 0
    p, cs = x.field.p, list(f.coeffs)
    if x.degree == 1:
        a = -x.pi.coeffs[0] % p
        for v in range(len(cs)):
            acc = 0
            for i in range(len(cs) - 1, v - 1, -1):
                cs[i] = acc = (cs[i] + a * acc) % p
            if acc:
                return v, acc
        return INF, 0
    pi, v = x.pi.coeffs, 0
    while cs:
        cs, r = _poly_divmod(p, cs, pi)
        if r:
            return v, tuple(r) + (0,) * (x.degree - len(r))
        v += 1
    return INF, (0,) * x.degree


def _classify(a, b, d):
    """(symbol, row) from the minimal (v(c4), v(c6), v(Delta)): the Kodaira
    symbol and its (f, e, gamma, lambda, r, b) invariants (Silverman,
    Advanced Topics, IV.9, Table 4.1)."""
    if d == 0:
        return "I0", dict(f=0, e=0, gamma=1, lam=1, r=1, b=0)
    if a == 0:
        return f"I{d}", dict(f=1, e=d, gamma=d // math.gcd(2, d), lam=d,
                             r=1, b=0)
    if b == 1:
        assert d == 2, (a, b, d)
        return "II", dict(f=2, e=2, gamma=1, lam=1, r=1, b=1)
    if a == 1:
        assert d == 3 and b >= 2, (a, b, d)
        return "III", dict(f=2, e=3, gamma=1, lam=1, r=2, b=1)
    if b == 2:
        assert d == 4 and a >= 2, (a, b, d)
        return "IV", dict(f=2, e=4, gamma=3, lam=1, r=3, b=1)
    if a == 2 and b == 3 and d >= 7:
        n = d - 6
        return f"I{n}*", dict(f=2, e=d, gamma=2 // math.gcd(2, n), lam=n,
                              r=1, b=1)
    if d == 6:
        assert a >= 2 and b >= 3, (a, b, d)
        return "I0*", dict(f=2, e=6, gamma=1, lam=1, r=1, b=0)
    if b == 4:
        assert d == 8 and a >= 3, (a, b, d)
        return "IV*", dict(f=2, e=8, gamma=3, lam=1, r=3, b=1)
    if a == 3:
        assert d == 9 and b >= 5, (a, b, d)
        return "III*", dict(f=2, e=9, gamma=1, lam=1, r=2, b=1)
    if b == 5:
        assert d == 10 and a >= 4, (a, b, d)
        return "II*", dict(f=2, e=10, gamma=1, lam=1, r=1, b=1)
    raise AssertionError(f"non-minimal valuations after rescaling: {(a, b, d)}")


def _cubic_roots(K, a, b) -> int:
    """Number of roots in the field K of T^3 + aT + b (a, b raw values of K),
    assumed separable.

    By Stickelberger's theorem the discriminant -4a^3 - 27b^2 is a nonsquare
    exactly when the cubic is a linear times an irreducible quadratic
    factor.  Otherwise it splits completely or is irreducible, and it splits
    iff T^|K| = T modulo the cubic.
    """
    mul, add, sub = K.mul, K.add, K.sub
    disc = add(mul(K.coerce(-4), mul(a, mul(a, a))),
               mul(K.coerce(-27), mul(b, b)))
    if K.legendre_raw(disc) == -1:
        return 1
    zero, one = K.zero_raw, K.one_raw
    # T^e mod the cubic, e running over the bits of |K|
    u0, u1, u2 = one, zero, zero
    for bit in bin(K.order)[2:]:
        d0 = add(u0, u0)
        c3, c4 = mul(add(u1, u1), u2), mul(u2, u2)  # square; T^3 = -aT - b
        u0, u1, u2 = (sub(mul(u0, u0), mul(b, c3)),
                      sub(sub(mul(d0, u1), mul(a, c3)), mul(b, c4)),
                      sub(add(mul(u1, u1), mul(d0, u2)), mul(a, c4)))
        if bit == "1":  # times T
            u0, u1, u2 = K.neg(mul(b, u2)), sub(u0, mul(a, u2)), u1
    return 3 if (u0, u1, u2) == (zero, one, zero) else 0


def _tate(x: Place, lead_A, lead_B, lead_delta):
    """Tate's algorithm at x on y^2 = x^3 + Ax + B from the (valuation,
    leading digit) pairs of A, B and Delta, digits raw values of
    K = residue_field(x)."""
    (vA, rA), (vB, rB), (vd, rd) = lead_A, lead_B, lead_delta
    # A or B = 0 (j = 0 or 1728) bounds nothing; inf // 4 would be nan
    s = min(v // w for v, w in ((vA, 4), (vB, 6), (vd, 12)) if v != INF)
    a, b, d = vA - 4 * s, vB - 6 * s, vd - 12 * s
    sym, row = _classify(a, b, d)
    K = residue_field(x)

    def digit(r, v, e):
        """f/pi^e mod pi for minimal f, v(f) = v >= e, leading digit r."""
        return r if v == e else K.zero_raw

    if sym == "I0":
        A0, B0 = digit(rA, a, 0), digit(rB, b, 0)
        # place_trace reads the residues as polynomials of degree < deg x at
        # a root of pi; at infinity K = F_q = F_q[t]/(t)
        F = x.field
        pi = Poly.t(F) if x.is_infinite else x.pi
        lifts = [Poly(F, r if x.degree > 1 else [r]) for r in (A0, B0)]
        return LocalReductionData(
            x, sym, **row, c=1, reduction_type="good",
            a_x=place_trace(pi, *lifts), v_min_delta=d,
            minimal_fiber=(K.zero_raw, A0, B0))

    # beyond I0 and I0* the symbol fixes v(B): 0 at I_n, 3 at I_n*, 2 at IV
    # and 4 at IV*, so rB (and rd, Delta's own) is the digit read
    chi, mul = K.legendre_raw, K.mul
    if row["f"] == 1:  # multiplicative I_n, n = d >= 1
        if chi(mul(K.coerce(6), rB)) == 1:
            c, rtype, a_x = d, "split_mult", 1
        else:
            c, rtype, a_x = (2 if d % 2 == 0 else 1), "nonsplit_mult", -1
        return LocalReductionData(x, sym, **row, c=c, reduction_type=rtype,
                                  a_x=a_x, v_min_delta=d)

    # additive types
    if sym == "I0*":
        c = 1 + _cubic_roots(K, digit(rA, a, 2), digit(rB, b, 3))
    elif sym[1].isdigit():  # I_n*, n = d - 6 >= 1
        c = 3 + chi(mul(rd, mul(K.coerce(-6), rB)) if d % 2 else rd)
    elif sym in ("IV", "IV*"):
        c = 3 if chi(rB) == 1 else 1
    else:
        c = {"II": 1, "III": 2, "III*": 2, "II*": 1}[sym]
    return LocalReductionData(x, sym, **row, c=c, reduction_type="additive",
                              a_x=0, v_min_delta=d)


def local_reduce(curve: WeierstrassCurve, x: Place) -> LocalReductionData:
    """Tate's algorithm at x (finite or infinite).  A twist by d, with
    (e, u) = _leading(d, x), reads its data off its base, memoised there
    under (x, e, chi_K(u)), unless it is I0: beyond I0, u enters only
    through chi_K(u), but the I0 minimal_fiber holds A u^2 and B u^3.  On
    a miss or at I0 it scales its base's pairs, memoised on the base under
    ("digits", x), to (v + k e, r u^k) in K for k = 2, 3, 6."""
    if curve.twist_of is None:
        return _tate(x, *_digits(curve, x))
    base, d = curve.twist_of
    e, u = _leading(d, x)
    K = residue_field(x)
    key = (x, e, K.legendre_raw(u))
    if (data := base._memo.get(key)) is None:
        pairs = base.memoised(("digits", x), lambda: _digits(base, x))
        data = _tate(x, *[(v + k * e, K.mul(r, K.pow(u, k))) if v != INF
                          else (v, r) for (v, r), k in zip(pairs, (2, 3, 6))])
        if data.kodaira != "I0":
            base._memo[key] = data
    return data


def _digits(curve: WeierstrassCurve, x: Place):
    """The (v, r) pairs of A, B and Delta at x, read off the curve's own
    polynomials (a twist's are its base's times d^k, multiplied out at
    first read).  As Delta = -64 A^3 - 432 B^2, Delta's pair is
    (3 v(A), -64 r_A^3) when 3 v(A) < 2 v(B) and (2 v(B), -432 r_B^2) when
    3 v(A) > 2 v(B), A = 0 and B = 0 included (v = INF); only where the two
    terms tie, at multiplicative, I0, I0* and I_n* places, can they cancel,
    and there Delta's own chain is walked."""
    lead_A, lead_B = _leading(curve.A, x), _leading(curve.B, x)
    (vA, rA), (vB, rB) = lead_A, lead_B
    if 3 * vA == 2 * vB:
        return [lead_A, lead_B, _leading(curve.delta, x)]
    K = residue_field(x)
    if 3 * vA < 2 * vB:
        lead_delta = 3 * vA, K.mul(K.coerce(-64), K.mul(rA, K.mul(rA, rA)))
    else:
        lead_delta = 2 * vB, K.mul(K.coerce(-432), K.mul(rB, rB))
    return [lead_A, lead_B, lead_delta]


def local_root_factor(data: LocalReductionData) -> int:
    """+1 / -1 contribution of the place to the root number."""
    if data.reduction_type == "good" or data.reduction_type == "nonsplit_mult":
        return 1
    if data.reduction_type == "split_mult":
        return -1
    # -r lies in F_p, so chi_K(-r) = chi_{F_p}(-r)^[K : F_p]
    return legendre(-data.r, data.place.field.p) ** data.degree
