"""Reference implementations that fast paths are tested against: scalar
point counts and Horner evaluation on the raw-value methods of the field
objects, the orbit-walking search for place representatives and the
per-place log-domain character sum (for the vectorised kernel and the
whole-field tables in ffell.fastcount), and Tate's I_n* subprocedure, the
tangent-slope split test, the rebuilt model at infinity, exact division
by powers of pi and residues as f mod pi (for the closed forms and the
leading pi-adic digits in ffell.reduction), a twist rebuilt as a curve
with no base (for everything a twist reads off its base), and a family's
base model multiplied out over Q (for the one ffell.families builds mod
p)."""

import math
from fractions import Fraction

import numpy as np

from ffell.algebra import Poly
from ffell.curves import WeierstrassCurve
from ffell.fastcount import place_trace
from ffell.places import Place, residue_field
from ffell.reduction import (LocalReductionData, _classify, _cubic_roots,
                             local_reduce)

INF = float("inf")


def rebuilt(E: WeierstrassCurve) -> WeierstrassCurve:
    """E's model as a curve that records no base."""
    return WeierstrassCurve(E.a2, E.a4, E.a6)


def count_points_cubic(K, A2, A4, A6, method: str = "charsum") -> int:
    """|E(K)| for y^2 = x^3 + A2 x^2 + A4 x + A6 over the finite field K,
    the coefficients raw values of K.

    'charsum' evaluates |E| = q + 1 + sum_u chi(f(u)); 'naive' counts the
    solutions of y^2 = f(u) against a table of square roots.
    """
    mul, add = K.mul, K.add

    def f(u):
        return add(mul(add(mul(add(u, A2), u), A4), u), A6)

    if method == "charsum":
        return K.order + 1 + sum(K.legendre_raw(f(u)) for u in K.elements())
    if method == "naive":
        nsols = {}
        for y in K.elements():
            sq = mul(y, y)
            nsols[sq] = nsols.get(sq, 0) + 1
        # 1 for the point at infinity
        return 1 + sum(nsols.get(f(u), 0) for u in K.elements())
    raise ValueError(f"unknown method {method!r}")


def horner(K, f: Poly, x):
    """f(x) for a polynomial f over F_p and a raw value x of the field K
    over F_p."""
    acc = K.zero_raw
    for c in reversed(f.coeffs):
        acc = K.add(K.mul(acc, x), K.coerce(c))
    return acc


def count_fiber_points(curve, x, method: str = "charsum") -> int:
    """a_x(E) = q^deg(x) + 1 - |E_x(F_x)| at a place of good reduction,
    counted by `method` on the minimal model at x; asserts that it equals
    the a_x that local_reduce gets from the vectorised kernel."""
    data = local_reduce(curve, x)
    if data.reduction_type != "good":
        raise ValueError(f"{x!r} is a place of bad reduction")
    K = residue_field(x)
    ax = K.order + 1 - count_points_cubic(K, *data.minimal_fiber,
                                          method=method)
    assert ax == data.a_x, "kernel and scalar point counts disagree"
    assert ax * ax <= 4 * K.order    # Hasse
    return ax


def orbit_representatives(T) -> np.ndarray:
    """Minimal codes of the Frobenius orbits of size T.d, ascending, found
    by walking every orbit."""
    frob = T.frobenius
    seen = np.zeros(T.q, dtype=bool)
    reps = []
    for c in range(T.q):
        if seen[c]:
            continue
        orbit = [c]
        x = int(frob[c])
        while x != c:
            orbit.append(x)
            x = int(frob[x])
        for y in orbit:
            seen[y] = True
        if len(orbit) == T.d:
            reps.append(c)
    return np.array(reps, dtype=np.int64)


def per_place_cubic_sum(T, A: int, B: int) -> int:
    """sum_u chi(u^3 + A u + B) over F_q for one pair of codes, on log
    arrays alone.  With logs a, b of A, B and v = log u: u^2 + A has log
    a + t, t = zech[2v - a + n], and w = u (u^2 + A) has log v + a + t, so
    chi(w + B) = chi(B) zchi[v + t + (a - b) mod n], where zchi[k] =
    chi(1 + g^k) repeats with period n below 3n and is chi(1 + 0) = 1 from
    3n on.  A zero u^2 + A (t = ZERO) reads chi(B); u = 0 contributes
    chi(B) too."""
    n, zero = T.n, T.ZERO
    zech = np.tile(T.zech, 2)                        # indexed on [0, 2n)
    sgn = np.zeros(4 * n, dtype=np.int64)            # (-1)^k below ZERO
    sgn[:zero] = 1 - 2 * (np.arange(zero) & 1)
    zchi = np.ones(5 * n, dtype=np.int64)
    zchi[:zero] = np.tile(sgn[T.zech], 3)
    lv = np.arange(n)
    lv2 = 2 * lv % n
    a, b = int(T.log[A]), int(T.log[B])
    if a == zero:
        a, t = 0, lv2
    else:
        t = zech[lv2 + (n - a)]
    if b == zero:          # sum chi(u) chi(u^2 + A)
        return int(sgn[a]) * int(sgn[lv + t].sum())
    return int(sgn[b]) * (1 + int(zchi[lv + t + (a - b) % n].sum()))


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
        cs = [0] * (d + 1)
        for i, c in enumerate(p.coeffs):
            cs[d - i] = c
        return Poly._raw(F, cs)

    return WeierstrassCurve(rev(curve.a2, 2 * k), rev(curve.a4, 4 * k),
                            rev(curve.a6, 6 * k)), k


def reduce_at(f: Poly, x: Place):
    """Image of the polynomial f in the residue field of x, as a raw value of
    residue_field(x): f mod pi, read in F_q[t]/(pi) (the image of t is the
    generator); f itself when deg f < deg x."""
    r = f.coeffs if f.degree < x.degree else (f % x.pi).coeffs
    r += (0,) * (x.degree - len(r))
    return r[0] if x.degree == 1 else r


def _val(p: Poly, pi: Poly):
    return INF if not p else p.valuation(pi)


def _div(f: Poly, pi: Poly, k: int) -> Poly:
    """f / pi^k, which must be a polynomial."""
    if k == 0:
        return f
    q, r = divmod(f, pi ** k)
    if r:
        raise ValueError(f"({pi})^{k} does not divide {f!r}")
    return q


def _lift(x: Place, a) -> Poly:
    """A polynomial of degree < deg(x) reducing to the residue a at x."""
    return Poly(x.field, [a] if x.degree == 1 else a)


def tamagawa_in_star(A, B, pi: Poly, x: Place, n_expected: int) -> int:
    """Tate's subprocedure for I_n* (n >= 1), odd residue characteristic.

    A, B are the depressed-model coefficients (y^2 = x^3 + Ax + B) with
    v_x(A) = 2 and v_x(B) = 3.  Returns c in {2, 4}; asserts that the loop
    length matches n_expected = v(Delta_min) - 6.
    """
    K = residue_field(x)
    mul, emb = K.mul, K.coerce
    A2bar = reduce_at(_div(A, pi, 2), x)
    B3bar = reduce_at(_div(B, pi, 3), x)
    # double root -3 B3bar / (2 A2bar) of T^3 + A2bar T + B3bar
    T0 = mul(mul(emb(-3), B3bar), K.inv(mul(emb(2), A2bar)))
    r = pi * _lift(x, T0)
    a2 = 3 * r
    a4 = A + 3 * r ** 2
    a6 = B + A * r + r ** 3
    n = 1
    while True:
        if n % 2 == 1:
            k = (n + 1) // 2
            u = reduce_at(_div(a6, pi, 2 * k + 2), x)
            if not K.is_zero(u):
                c = 4 if K.legendre_raw(u) == 1 else 2
                break
            # double root Y = 0 of Y^2 - u; no shift needed in odd characteristic
        else:
            m = n // 2
            abar = reduce_at(_div(a2, pi, 1), x)
            bbar = reduce_at(_div(a4, pi, m + 2), x)
            cbar = reduce_at(_div(a6, pi, 2 * m + 3), x)
            disc = K.sub(mul(bbar, bbar), mul(mul(emb(4), abar), cbar))
            if not K.is_zero(disc):
                c = 4 if K.legendre_raw(disc) == 1 else 2
                break
            X0 = mul(K.neg(bbar), K.inv(mul(emb(2), abar)))
            sh = pi ** (m + 1) * _lift(x, X0)
            a6 = a6 + a4 * sh + a2 * sh ** 2 + sh ** 3
            a4 = a4 + 2 * a2 * sh + 3 * sh ** 2
            a2 = a2 + 3 * sh
        n += 1
    assert n == n_expected, f"subprocedure found I_{n}*, table says I_{n_expected}*"
    return c


def tangent_split(K, Abar, Bbar) -> bool:
    """Whether the node of y^2 = x^3 + Abar x + Bbar (a singular cubic over
    K with Abar != 0, raw values) has tangent slopes in the field: 3 x0 is a
    square, x0 = -3 Bbar / (2 Abar) the double root."""
    mul, emb = K.mul, K.coerce
    x0 = mul(mul(emb(-3), Bbar), K.inv(mul(emb(2), Abar)))
    return K.legendre_raw(mul(emb(3), x0)) == 1


def reference_local_reduce(curve: WeierstrassCurve, x: Place) -> LocalReductionData:
    """Tate's algorithm with valuations of c4, c6 and Delta, the tangent-slope
    split test, the I_n* subprocedure and a rebuilt model at infinity."""
    if x.is_infinite:
        model, _ = curve_at_infinity(curve)
        data = reference_local_reduce(model, Place.rational(curve.field, 0))
        data.place = x
        return data
    pi = x.pi
    vc4, vc6 = _val(curve.c4, pi), _val(curve.c6, pi)
    vd = curve.delta.valuation(pi)
    s = min(v // w for v, w in ((vc4, 4), (vc6, 6), (vd, 12)) if v != INF)
    a, b, d = vc4 - 4 * s, vc6 - 6 * s, vd - 12 * s
    sym, row = _classify(a, b, d)
    A, B = _div(curve.A, pi, 4 * s), _div(curve.B, pi, 6 * s)
    K = residue_field(x)

    if sym == "I0":
        return LocalReductionData(
            x, sym, **row, c=1, reduction_type="good",
            a_x=place_trace(pi, A, B), v_min_delta=d,
            minimal_fiber=(K.zero_raw, reduce_at(A, x), reduce_at(B, x)))
    if row["f"] == 1:                                       # I_n, n = d
        if tangent_split(K, reduce_at(A, x), reduce_at(B, x)):
            c, rtype, a_x = d, "split_mult", 1
        else:
            c, rtype, a_x = 2 - d % 2, "nonsplit_mult", -1
        return LocalReductionData(x, sym, **row, c=c, reduction_type=rtype,
                                  a_x=a_x, v_min_delta=d)
    if sym == "I0*":
        c = 1 + _cubic_roots(K, reduce_at(_div(A, pi, 2), x),
                             reduce_at(_div(B, pi, 3), x))
    elif sym[1].isdigit():                                  # I_n*, n = d - 6
        c = tamagawa_in_star(A, B, pi, x, d - 6)
    elif sym in ("IV", "IV*"):
        Bbar = reduce_at(_div(B, pi, 4 if sym == "IV*" else 2), x)
        c = 3 if K.legendre_raw(Bbar) == 1 else 1
    else:                                                   # II, III, III*, II*
        c = 2 if sym.startswith("III") else 1
    return LocalReductionData(x, sym, **row, c=c, reduction_type="additive",
                              a_x=0, v_min_delta=d)


def _qmul(a, b):
    """The product of two polynomials over Q, as ascending Fraction tuples
    without trailing zeros."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while a and not a[-1]:
        a.pop()
    while b and not b[-1]:
        b.pop()
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def reference_base_coeffs(fam, n):
    """(a2 f, a4 f^2, a6 f^3) of a family's base model as exact Q-coefficient
    tuples, f the product of t - v over the roots v of f (for the base model
    a family builds mod p)."""
    f = (Fraction(1),)
    for v in fam.f_values(n):
        f = _qmul(f, (-v, 1))
    a2, a4, a6 = fam.abase
    return (_qmul(a2, f), _qmul(a4, _qmul(f, f)),
            _qmul(a6, _qmul(f, _qmul(f, f))))
