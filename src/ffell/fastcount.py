"""Batch trace-of-Frobenius computation over all places of a fixed degree.

For a curve y^2 = x^3 + a2(t) x^2 + a4(t) x + a6(t) over F_p(t), the places of
degree d away from the discriminant are the Frobenius orbits of the elements
beta in F_{p^d} of exact degree d with Delta(beta) != 0, and the fiber trace is
the character sum a_x = -sum_u chi(u^3 + a2(beta) u^2 + a4(beta) u + a6(beta)).
The translation u -> u - a2/3 (a bijection, the characteristic being >= 5)
turns the cubic into u^3 + A u + B with A = -c4/48 and B = -c6/864, so only
A and B are evaluated.  Minimal models at good places use the same sum.

Elements of F_q (q = p^d) are named by integer codes 0..q-1, the base-p
packing of the coefficient vector; representatives, Frobenius and chi are
tables over codes.  Arithmetic runs on discrete logarithms to a generator g:
with n = q - 1 the element g^k has log k in [0, n), zero has the sentinel
log ZERO = 3n in the tables, and every log at or above ZERO reads as zero.
Multiplication adds logs; addition is one gather from the Zech table,
log(g^i + g^j) = i + zech[j - i] with zech[k] = log(1 + g^k) (K. Huber,
"Some comments on Zech's logarithms", IEEE Trans. Inf. Theory 36, 1990).
The sentinel hits at k = n/2, where g^k = -1.  A sum of two logs is read
without reduction: a nonzero log stays below 2n and a zero one at 3n or
above, so a product of two nonzero values is exactly a sum below 3n, and
Horner's rule on logs reduces nothing after each step (see eval_poly).

The character sums S(A, B) = sum_u chi(u^3 + A u + B) come from one table per
field, built at first use.  Substituting u = lam v gives
S(lam^2 A', lam^3 B') = chi(lam) S(A', B') (the quadratic twist, Silverman,
The Arithmetic of Elliptic Curves, X.5), so with A' = g^(log A mod 2) every
A != 0 reads the row of A' = 1 or A' = g at B / lam^3, and A = 0 has a row of
its own.  For fixed A' the row S[B] = sum_v h[v] chi(v + B), with h the
histogram of the values of u^3 + A' u, is a correlation over the additive
group (Z/p)^d, which the code packing already is.  It is computed exactly by
number-theoretic transforms over F_P (J. M. Pollard, "The fast Fourier
transform in a finite field", Math. Comp. 25, 1971): P is the smallest prime
= 1 mod p above 2q, so |S| <= q is read back from its residue, and the p-point
DFT is one float64 matmul per axis, reduced mod P in int64 (np.fmod of these
large quotients is over ten times slower).  Every sum of p products of
residues stays an exact float64 integer while p (P - 1)^2 < 2^53; fields beyond
that bound (q above about 1.4e7 at p = 11) are refused before any table is
built.

Output order is deterministic: representatives are the minimal codes of their
orbits, listed in increasing order.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cached_property

import numpy as np

from .algebra import _prime_factors, build_extension, is_prime


def ntt_prime(p: int, d: int) -> int:
    """The prime P of the exact character-sum DFTs over F_{p^d}: the
    smallest P = 1 mod p above 2 p^d.  Raises ValueError, before anything
    is allocated, when p (P - 1)^2 >= 2^53."""
    q = p ** d
    P = 2 * q + 1                                # = 1 mod p, as p | q
    while not is_prime(P):
        P += p
    if p * (P - 1) ** 2 >= 2 ** 53:
        raise ValueError(
            f"q = {p}^{d} = {q} is beyond the exact character-sum tables, "
            f"which need p (P - 1)^2 < 2^53 for the prime P = {P} = 1 mod "
            f"{p} above 2q: q must stay below about "
            f"{(2 ** 53 / p) ** 0.5 / 2:.2g} at p = {p}")
    return P


class FieldTables:
    """Discrete log/exp, Zech, character and Frobenius tables for F_{p^d}."""

    def __init__(self, p: int, d: int):
        self.p = p
        self.d = d
        field = build_extension(p, d)
        self.field = field
        q = field.order
        self.q = q
        n = self.n = q - 1
        zero = self.ZERO = 3 * n
        raw_of = field.decode if d > 1 else int
        self.powers = p ** np.arange(d, dtype=np.int64)

        # exp[k] = code of g^k, by doubling: rows[k:2k] = rows[:k] g^k, where
        # x -> x h is the F_p-linear map M_h on coefficient rows (row j of
        # M_g is z^j g; z^j has code p^j)
        g = self._find_generator(raw_of)
        M = np.array([np.atleast_1d(field.mul(raw_of(p ** j), g))
                      for j in range(d)], dtype=np.int64)
        rows = np.zeros((n, d), dtype=np.int64)
        rows[0, 0] = 1
        k = 1
        while k < n:
            m = min(k, n - k)
            rows[k:k + m] = rows[:m] @ M % p
            M = M @ M % p
            k += m
        self.exp = rows @ self.powers
        del rows
        self.log = np.full(q, zero, dtype=np.int64)
        self.log[self.exp] = np.arange(n)
        assert (self.log[1:] < n).all(), "generator order mismatch"

        one_plus = self.exp - self.exp % p + (self.exp + 1) % p
        self.zech = self.log[one_plus]
        # chi(g^k) = (-1)^k, chi(0) = 0
        self.chi = np.where(self.log == zero, 0,
                            1 - 2 * (self.log & 1)).astype(np.int8)
        self.frobenius = self.power_codes(p)

    def _find_generator(self, raw_of):
        F = self.field
        n = self.q - 1
        primes = sorted(_prime_factors(n))
        for code in range(2, self.q):
            g = raw_of(code)
            if all(F.pow(g, n // r) != F.one_raw for r in primes):
                return g
        raise AssertionError("no multiplicative generator found")

    @cached_property
    def digits(self) -> np.ndarray:
        """(q, d) base-p digits of every code."""
        return np.arange(self.q)[:, None] // self.powers % self.p

    # -- log-domain arithmetic (a log at or above ZERO is zero) -------------
    def _codes(self, t):
        """Codes of the logs t: zero at or above ZERO, else exp[t mod n]."""
        return np.where(t >= self.ZERO, 0, self.exp[t % self.n])

    def add_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field addition on code arrays (Zech logarithms)."""
        la, lb = self.log[a], self.log[b]
        s = self._codes(la + self.zech[(lb - la) % self.n])
        return np.where(la == self.ZERO, b, np.where(lb == self.ZERO, a, s))

    def scale_codes(self, a: np.ndarray, c: int) -> np.ndarray:
        """Multiply every code in a by the constant code c."""
        return self._codes(self.log[a] + self.log[c])

    def power_codes(self, k: int) -> np.ndarray:
        """Array x -> x^k over all codes (0^0 = 1)."""
        return np.where(self.log == self.ZERO, int(k == 0),
                        self.exp[self.log * k % self.n])

    def eval_poly(self, poly, codes: np.ndarray) -> np.ndarray:
        """Evaluate a Poly over F_p at every code of the array (a coefficient
        c in F_p has code c): one Horner pass on logs, with one Zech gather
        and one select per nonzero coefficient.

        Invariant: after every step a nonzero value has a log below 2n and
        zero has a log of at least 3n (ZERO, or ZERO + log c where the Zech
        gather hits its sentinel).  So acc + log x < 3n exactly when both
        factors are nonzero, and the product needs no reduction before the
        next step; the c = 0 step reduces it mod n."""
        n, zero, log, zech = self.n, self.ZERO, self.log, self.zech
        lx = log[codes]
        *rest, lead = poly.coeffs or (0,)
        acc = np.full(lx.shape, log[lead])
        for c in reversed(rest):
            t = acc + lx
            if c:
                lc = log[c]
                acc = np.where(t >= zero, lc, zech[(t - lc) % n] + lc)
            else:
                acc = np.where(t >= zero, zero, t % n)
        return self._codes(acc)

    def degree_d_representatives(self) -> np.ndarray:
        """Minimal codes of the Frobenius orbits of exact size d, ascending
        and read-only: the codes below all their conjugates and fixed by no
        F^k, k | d, k < d.  Built at first use."""
        return self._representatives

    @cached_property
    def _representatives(self) -> np.ndarray:
        codes = np.arange(self.q)
        conj, least = codes, codes.copy()
        exact = np.ones(self.q, dtype=bool)
        for k in range(1, self.d):
            conj = self.frobenius[conj]
            np.minimum(least, conj, out=least)
            if self.d % k == 0:
                exact &= conj != codes
        reps = np.flatnonzero(exact & (least == codes))
        reps.flags.writeable = False
        return reps

    @cached_property
    def cubic_table(self) -> np.ndarray:
        """(3, q) int64: row r at code B is sum_u chi(u^3 + A_r u + B) for
        A_r = 0, 1, g; each row the correlation of the histogram of
        u^3 + A_r u with chi, by DFTs over F_P (see the module docstring)."""
        p, d, q = self.p, self.d, self.q
        P = ntt_prime(p, d)
        w = next(x for x in (pow(c, (P - 1) // p, P) for c in range(2, P))
                 if x != 1)                      # order p, as p is prime
        k = np.arange(p)
        w_pow = np.array([pow(w, e, P) for e in range(p)], dtype=np.float64)
        fwd, inv = w_pow[np.outer(k, k) % p], w_pow[np.outer(k, -k) % p]

        def dft(x, W):
            # transform the leading digit, which then moves to the end: after
            # d steps every digit is transformed and back in place
            for _ in range(d):
                x = (x.reshape(p, -1).T @ W).astype(np.int64) % P
            return x.reshape(-1)

        X = dft(self.chi.astype(np.int64) % P, fwd)
        cube, u = self.power_codes(3), np.arange(q)
        table = np.empty((3, q), dtype=np.int64)
        for row, a in enumerate((0, 1, int(self.exp[1]))):
            vals = self.add_codes(cube, self.scale_codes(u, a)) if a else cube
            H = dft(np.bincount(vals, minlength=q), inv)
            S = dft(H * X % P, inv) * pow(q, -1, P) % P
            table[row] = np.where(S > P // 2, S - P, S)
        return table

    def cubic_sums(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """sum_u chi(u^3 + A u + B) over F_q for each pair of codes: with
        A = lam^2 A' and log lam = floor(log A / 2), the sum is
        chi(lam) S[A', B / lam^3]; A = 0 reads its own row (lam = 1)."""
        n, zero = self.n, self.ZERO
        a, b = self.log[A], self.log[B]
        lam = np.where(a == zero, 0, a >> 1)
        row = np.where(a == zero, 0, 1 + (a & 1))
        col = self._codes(b + (-3 * lam) % n)
        return (1 - 2 * (lam & 1)) * self.cubic_table[row, col]


_TABLE_CACHE: dict[tuple[int, int], FieldTables] = {}


def field_tables(p: int, d: int) -> FieldTables:
    if (p, d) not in _TABLE_CACHE:
        _TABLE_CACHE[p, d] = FieldTables(p, d)
    return _TABLE_CACHE[p, d]


@contextmanager
def _naming_field(p: int, d: int):
    """Re-raise a MemoryError, from the tables' build or their cubic_table,
    with the field it was building."""
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"out of memory building the tables of F_{p}^{d}: "
                          f"p = {p}, degree {d}, q = {p ** d}") from exc


def place_trace(pi, A, B) -> int:
    """a_x of y^2 = x^3 + A x + B (polynomials over F_p) at the finite place
    pi of good reduction, read in field_tables(p, deg pi) at the smallest
    root of pi; ntt_prime refuses a degree beyond them before any build."""
    p, d = pi.field.p, pi.degree
    ntt_prime(p, d)
    with _naming_field(p, d):
        T = field_tables(p, d)
        beta = np.flatnonzero(T.eval_poly(pi, np.arange(T.q)) == 0)[:1]
        return -int(T.cubic_sums(T.eval_poly(A, beta),
                                 T.eval_poly(B, beta))[0])


def batch_traces(curve, d: int):
    """Traces a_x over all good finite places of degree d of the model.

    Returns (reps, traces): representative codes (ascending) of the places of
    degree d with Delta(beta) != 0, and the matching int64 trace array.
    Places dividing the model discriminant are skipped; handle them (and the
    place at infinity) through local reduction.  As Delta = -16 (4 A^3 +
    27 B^2) and p >= 5, Delta(beta) != 0 exactly when the logs of 4 A(beta)^3
    and -27 B(beta)^2 differ, so Delta itself is never evaluated.

    A twist by u has Delta u^6 and a_x = chi_x(u) a_x of its base (Silverman,
    The Arithmetic of Elliptic Curves, X.5): it reads its base's (reps,
    traces), memoised on the base, drops the beta with u(beta) = 0 and
    multiplies the rest by chi(u(beta)), so only u is evaluated.
    """
    with _naming_field(curve.field.p, d):
        return _traces(curve, field_tables(curve.field.p, d))


def _traces(curve, T):
    """batch_traces(curve, T.d) in T; a twist's base is read through this,
    so one request is one batch_traces call."""
    if curve.twist_of is not None:
        base, u = curve.twist_of
        reps, traces = base.memoised(("traces", T.d),
                                     lambda: _traces(base, T))
        chi = T.chi[T.eval_poly(u, reps)]
        keep = chi != 0
        return reps[keep], traces[keep] * chi[keep]
    p = T.p
    reps = T.degree_d_representatives()
    a, b = T.eval_poly(curve.A, reps), T.eval_poly(curve.B, reps)
    la, lb = T.log[a], T.log[b]
    n, zero = T.n, T.ZERO
    keep = (np.where(la == zero, zero, (T.log[4] + 3 * la) % n)
            != np.where(lb == zero, zero, (T.log[-27 % p] + 2 * lb) % n))
    return reps[keep], -T.cubic_sums(a[keep], b[keep])
