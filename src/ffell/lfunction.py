"""Global invariants of a non-isotrivial curve over F_p(t) and its exact
L-function: conductor degree N, chi, gamma, the prime product script_L, B,
Tamagawa product c_E, root number epsilon_E; Euler-product expansion of
L(T, E) as an integer polynomial of degree N; functional equation and
special-value square-class checks; companion matrix of L mod ell.

The L-polynomial is computed through the logarithmic power sums

    log L = sum_i s_i T^i / i,   n L_n = sum_{i<=n} s_i L_{n-i},

where a place of degree d contributes d * t_{i/d} to s_i (t_k the k-th power
sum of the inverse roots of its local factor).  Only coefficients 0..m with
m >= floor(N/2)+1 are expanded directly; the rest follow from the functional
equation, whose sign is computed independently from local root factors, and
the overlap coefficients (computed both ways) are cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import _prime_factors, check_prime, factor
from .fastcount import batch_traces, ntt_prime
from .orthogonal import det_mod, square_class_mod
from .places import Place
from .reduction import local_reduce, local_root_factor


@dataclass
class GlobalInvariants:
    N: int
    chi: int
    gamma: int
    script_L: int
    B: int
    c_E: int
    epsilon: int
    kod: dict            # Kodaira symbol string -> total degree
    local_data: list = field(repr=False)
    q: int = 0

    def to_json(self):
        return {
            "q": self.q, "N": self.N, "chi": self.chi, "gamma": self.gamma,
            "script_L": self.script_L, "B": self.B, "c_E": self.c_E,
            "epsilon": self.epsilon,
            "kodaira": dict(sorted(self.kod.items())),
        }


def bad_places(curve) -> list:
    """Places dividing the model discriminant, plus infinity (deterministic
    order: finite places by degree, then coefficients, as in factor(); then
    infinity).  As Delta = Delta_0 d^6, a twist by d joins its base's list,
    built once and memoised on the base, with the places of factor(d) it
    lacks, each also built once per base, and ends with the base's
    infinity place."""
    F = curve.field
    if curve.twist_of is None:
        return ([Place.finite(F, pi) for pi, _ in factor(curve.delta)[1]]
                + [Place.infinity(F)])
    base, d = curve.twist_of
    *finite, inf = base.memoised("places", lambda: bad_places(base))
    have = {x.pi for x in finite}
    finite += [base.memoised(("place", pi), lambda: Place.finite(F, pi))
               for pi, _ in factor(d)[1] if pi not in have]
    return sorted(finite, key=lambda x: (x.degree, x.pi.coeffs)) + [inf]


def global_invariants(curve) -> GlobalInvariants:
    curve.assert_nonisotrivial()
    data = [local_reduce(curve, x) for x in bad_places(curve)]
    N = -4
    e_total = 0
    gamma = 1
    lam_primes: set[int] = set()
    B = 0
    c_E = 1
    epsilon = 1
    kod: dict[str, int] = {}
    for d in data:
        deg = d.place.degree
        if d.kodaira != "I0":
            kod[d.kodaira] = kod.get(d.kodaira, 0) + deg
        N += d.f * deg
        e_total += d.e * deg
        gamma *= d.gamma ** deg
        lam_primes.update(_prime_factors(d.lam))
        if not d.place.is_infinite:
            B += d.b * deg
        c_E *= d.c
        epsilon *= local_root_factor(d)
    assert e_total % 12 == 0, "sum of e_x deg x must be divisible by 12"
    chi = e_total // 12
    script_L = math.prod(lam_primes - {2, 3})
    assert N >= 0 and epsilon in (1, -1)
    return GlobalInvariants(N=N, chi=chi, gamma=gamma, script_L=script_L,
                            B=B, c_E=c_E, epsilon=epsilon, kod=kod,
                            local_data=data, q=curve.field.p)


@dataclass
class LFunctionPoly:
    """L(T, E) as exact integer coefficients a_0..a_N (a_0 = 1)."""

    coefficients: tuple
    q: int
    epsilon: int
    direct_upto: int     # indices 0..direct_upto came from the Euler product

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, T: Fraction) -> Fraction:
        acc = Fraction(0)
        for a in reversed(self.coefficients):
            acc = acc * T + a
        return acc

    def value_at_inverse_q(self) -> Fraction:
        return self(Fraction(1, self.q))

    def to_json(self):
        return {"coefficients": list(self.coefficients), "q": self.q,
                "epsilon": self.epsilon, "degree": self.degree}


def _add_power_sums(s: list, traces, c: int, d: int):
    """Add d*t_k to s[d*k] for k >= 1, summed over places of degree d with
    local factors 1 - a T + c T^2, a in traces: t_k = a t_{k-1} - c t_{k-2}
    with t_0 = 2, t_1 = a is the k-th power sum of the inverse roots.  c is
    q^d at a good place and 0 at a multiplicative one (one root, a)."""
    a = [int(v) for v in traces]
    t_prev, t_cur = [2] * len(a), a
    for k in range(1, (len(s) - 1) // d + 1):
        if k > 1:
            t_prev, t_cur = t_cur, [x * y - c * z
                                    for x, y, z in zip(a, t_cur, t_prev)]
        s[d * k] += d * sum(t_cur)


def lfunction(curve, invariants: GlobalInvariants | None = None,
              direct_upto: int | None = None) -> LFunctionPoly:
    """Exact L(T, E); see the module docstring for the expansion strategy.

    direct_upto forces the number of directly expanded coefficients (defaults
    to floor(N/2)+1, capped at N); direct_upto=N disables the functional
    equation fill entirely.  Below N it must be at least N/2, so that one
    coefficient is computed both ways; a smaller one raises ValueError.
    """
    inv = invariants if invariants is not None else global_invariants(curve)
    q, N, eps = inv.q, inv.N, inv.epsilon
    if N == 0:
        return LFunctionPoly((1,), q, eps, 0)
    m = min(N, N // 2 + 1) if direct_upto is None else min(N, direct_upto)
    if m < N and 2 * m < N:
        raise ValueError("direct_upto too small for the functional-equation "
                         "fill: below N it must be at least N/2")
    try:                 # refuse a top degree beyond the exact tables early
        ntt_prime(q, m)
    except ValueError as exc:
        raise ValueError(f"top degree m = {m}: {exc}") from None

    s = [0] * (m + 1)
    for x in inv.local_data:              # additive places contribute 0
        if x.reduction_type != "additive":
            d = x.place.degree
            c = q ** d if x.reduction_type == "good" else 0
            _add_power_sums(s, [x.a_x], c, d)
    for d in range(1, m + 1):
        _add_power_sums(s, batch_traces(curve, d)[1], q ** d, d)

    L = [1]
    for n in range(1, m + 1):
        acc = sum(s[i] * L[n - i] for i in range(1, n + 1))
        assert acc % n == 0, "power-sum recurrence must divide exactly"
        L.append(acc // n)

    out = LFunctionPoly(tuple(L + [eps * q ** (2 * i - N) * L[N - i]
                                   for i in range(m + 1, N + 1)]), q, eps, m)
    # the filled coefficients hold by construction: this checks those
    # computed both directly and through the equation (and so epsilon)
    ok, j = check_functional_equation(out)
    assert ok, "functional-equation overlap mismatch at index %d" % j
    return out


def check_functional_equation(L: LFunctionPoly):
    """Verify a_{N-i} = epsilon q^{N-2i} a_i for all i.

    Returns (True, None) on pass, else (False, first mismatching index).
    """
    q, eps = L.q, L.epsilon
    N = L.degree
    a = L.coefficients
    if N == 0:
        return (True, None) if eps == 1 else (False, 0)
    for i in range(N // 2 + 1):
        if a[N - i] != eps * q ** (N - 2 * i) * a[i]:
            return False, N - i
    return True, None


def _square_class_mod_rational(r: Fraction, ell: int):
    """Square class mod ell of a positive rational a/b in lowest terms, as
    that of a b (the same ell-adic valuation parity) with even powers of
    ell stripped; None when the valuation is odd (no class)."""
    n, v = r.numerator * r.denominator, 0
    while n % ell == 0:
        n //= ell
        v += 1
    return None if v % 2 else square_class_mod(n, ell)


def check_ell(ell: int, inv: GlobalInvariants):
    """Raise ValueError unless ell, an ell of the square-class and
    companion-matrix checks, is a prime >= 5 prime to q script_L."""
    check_prime(ell, "ell")
    if (inv.q * inv.script_L) % ell == 0:
        raise ValueError(f"ell={ell} divides q script_L = "
                         f"{inv.q * inv.script_L}")


def bsd_square_class_check(curve, L: LFunctionPoly, ell: int,
                           invariants: GlobalInvariants | None = None) -> str:
    """Compare the square class of L(1/q) with that of q^{chi-1} c_E mod ell.

    Returns 'pass', 'fail', or 'inapplicable' (L(1/q) = 0).  Requires a prime
    ell >= 5 not dividing 6 q script_L (check_ell).
    """
    inv = invariants if invariants is not None else global_invariants(curve)
    check_ell(ell, inv)
    val = L.value_at_inverse_q()
    if val == 0:
        return "inapplicable"
    expected = Fraction(inv.q ** (inv.chi - 1) * inv.c_E)
    ratio = val / expected
    # the claim is that ratio is a rational square, so its class mod ell
    # (after stripping even powers of ell) must be trivial and positive
    if ratio < 0:
        return "fail"
    cls = _square_class_mod_rational(ratio, ell)
    if cls is None or not cls.trivial:
        return "fail"
    return "pass"


def frobenius_matrix_mod_ell(curve, ell: int, L: LFunctionPoly,
                             invariants: GlobalInvariants | None = None
                             ) -> np.ndarray:
    """Companion matrix over F_ell of the monic normalization of L(T/q).

    The leading coefficient of L(T/q) is epsilon, so the monic polynomial is
    epsilon * L(T/q); its reduction mod ell is realized by the standard
    companion matrix, whose characteristic polynomial is asserted pointwise.
    ell must pass check_ell.
    """
    inv = invariants if invariants is not None else global_invariants(curve)
    check_ell(ell, inv)
    N = L.degree
    qinv = pow(L.q, ell - 2, ell)
    c = [inv.epsilon * a % ell for a in L.coefficients]
    c = [c[i] * pow(qinv, i, ell) % ell for i in range(N + 1)]
    assert c[N] == 1
    C = np.zeros((N, N), dtype=np.int64)
    for i in range(1, N):
        C[i, i - 1] = 1
    for i in range(N):
        C[i, N - 1] = (-c[i]) % ell
    # pointwise characteristic-polynomial check: det(xI - C) == P(x)
    for x in range(min(ell, N + 2)):
        d = det_mod(x * np.eye(N, dtype=np.int64) - C, ell)
        px = 0
        for co in reversed(c):
            px = (px * x + co) % ell
        assert d == px, "companion characteristic polynomial mismatch"
    return C
