"""Batch trace-of-Frobenius computation over all places of a fixed degree.

For a curve y^2 = x^3 + a2(t) x^2 + a4(t) x + a6(t) over F_p(t), the places of
degree d away from the discriminant are the Frobenius orbits of the elements
beta in F_{p^d} of exact degree d with Delta(beta) != 0, and the fiber trace is
the character sum a_x = -sum_u chi(u^3 + a2(beta) u^2 + a4(beta) u + a6(beta)).
The translation u -> u - a2/3 (a bijection, the characteristic being >= 5)
turns the cubic into u^3 + A u + B with A = -c4/48 and B = -c6/864, so only
c4 and c6 are evaluated.  Minimal models at good places use the same sum.

Elements of F_q (q = p^d) are named by integer codes 0..q-1, the base-p
packing of the coefficient vector; representatives, Frobenius and chi are
tables over codes.  Arithmetic runs on discrete logarithms to a generator g:
with n = q - 1 the element g^k has log k in [0, n), and zero has the sentinel
log ZERO = 3n.  Multiplication adds logs; addition is one gather from the Zech
table, log(g^i + g^j) = i + zech[j - i] with zech[k] = log(1 + g^k)
(K. Huber, "Some comments on Zech's logarithms", IEEE Trans. Inf. Theory 36,
1990).  The sentinel hits at k = n/2, where g^k = -1.  The character sum
reads chi(1 + g^k) from zchi, stored over 5n indices: on [0, 3n) it repeats
with period n, so a sum of three logs indexes it without a reduction mod n,
and from 3n on it is 1, so an index pushed there by the sentinel of a zero
summand reads chi(1 + 0).

Output order is deterministic: representatives are the minimal codes of their
orbits, listed in increasing order.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .algebra import _prime_factors, build_extension


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
        zech = self.log[one_plus]
        self.zech = np.tile(zech, 2)                 # indexed on [0, 2n)
        # sgn[k] = (-1)^k for a log k < ZERO, 0 from ZERO on (a zero element)
        self.sgn = np.zeros(4 * n, dtype=np.int8)
        self.sgn[:zero] = 1 - 2 * (np.arange(zero) & 1)
        self.zchi = np.ones(5 * n, dtype=np.int8)
        self.zchi[:zero] = np.tile(self.sgn[zech], 3)
        self.chi = self.sgn[self.log]
        self.frobenius = self.power_codes(p)
        self._lv = np.arange(n)                      # log u over u != 0
        self._lv2 = 2 * self._lv % n                 # log u^2

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

    # -- log-domain arithmetic (logs in [0, n) or ZERO) ---------------------
    def _norm(self, s):
        return np.where(s >= self.ZERO, self.ZERO, s % self.n)

    def _add_logs(self, la, lb):
        s = self._norm(la + self.zech[(lb - la) % self.n])
        return np.where(la == self.ZERO, lb, np.where(lb == self.ZERO, la, s))

    def _codes(self, la):
        return np.where(la == self.ZERO, 0, self.exp[la % self.n])

    def add_codes(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Field addition on code arrays (Zech logarithms)."""
        return self._codes(self._add_logs(self.log[a], self.log[b]))

    def scale_codes(self, a: np.ndarray, c: int) -> np.ndarray:
        """Multiply every code in a by the constant code c."""
        return self._codes(self._norm(self.log[a] + self.log[c]))

    def power_codes(self, k: int) -> np.ndarray:
        """Array x -> x^k over all codes (0^0 = 1)."""
        return np.where(self.log == self.ZERO, int(k == 0),
                        self.exp[self.log * k % self.n])

    def eval_poly(self, poly, codes: np.ndarray) -> np.ndarray:
        """Evaluate a Poly over F_p at every code of the array: one Horner
        pass on logs (a coefficient c in F_p has code c)."""
        lx = self.log[codes]
        acc = np.full(lx.shape, self.ZERO)
        for cf in reversed(poly.coeffs):
            acc = self._add_logs(self._norm(acc + lx), self.log[cf])
        return self._codes(acc)

    def degree_d_representatives(self) -> np.ndarray:
        """Minimal codes of the Frobenius orbits of exact size d, ascending:
        the codes below all their conjugates and fixed by no F^k, k | d,
        k < d."""
        codes = np.arange(self.q)
        conj, least = codes, codes.copy()
        exact = np.ones(self.q, dtype=bool)
        for k in range(1, self.d):
            conj = self.frobenius[conj]
            np.minimum(least, conj, out=least)
            if self.d % k == 0:
                exact &= conj != codes
        return np.flatnonzero(exact & (least == codes))

    def cubic_sums(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """sum_u chi(u^3 + A u + B) over F_q for each pair of codes.

        With logs a, b of A, B and v = log u: u^2 + A has log a + t,
        t = zech[2v - a + n], and w = u (u^2 + A) has log v + a + t, so
        chi(w + B) = chi(B) zchi[v + t + (a - b) mod n].  A zero u^2 + A
        (t = ZERO) reads chi(B); u = 0 contributes chi(B) too."""
        n, zero, zech, sgn, zchi = (self.n, self.ZERO, self.zech, self.sgn,
                                    self.zchi)
        lv, lv2 = self._lv, self._lv2
        out = np.empty(len(A), dtype=np.int64)
        for i, (a, b) in enumerate(zip(self.log[A].tolist(),
                                       self.log[B].tolist())):
            if a == zero:
                a, t = 0, lv2
            else:
                t = zech[lv2 + (n - a)]
            if b == zero:      # sum chi(u) chi(u^2 + A)
                out[i] = int(sgn[a]) * int(sgn[lv + t].sum())
            else:
                out[i] = int(sgn[b]) * (1 + int(zchi[lv + t + (a - b) % n]
                                                .sum()))
        return out


_TABLE_CACHE: dict[tuple[int, int], FieldTables] = {}


def field_tables(p: int, d: int) -> FieldTables:
    key = (p, d)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = FieldTables(p, d)
    return _TABLE_CACHE[key]


def place_trace(pi, A, B) -> int:
    """a_x of y^2 = x^3 + A x + B (polynomials over F_p) at the finite place
    pi of good reduction, read in field_tables(p, deg pi) at the smallest
    root of pi."""
    T = field_tables(pi.field.p, pi.degree)
    beta = np.flatnonzero(T.eval_poly(pi, np.arange(T.q)) == 0)[:1]
    return -int(T.cubic_sums(T.eval_poly(A, beta), T.eval_poly(B, beta))[0])


def batch_traces(curve, d: int):
    """Traces a_x over all good finite places of degree d of the model.

    Returns (reps, traces): representative codes (ascending) of the places of
    degree d with Delta(beta) != 0, and the matching int64 trace array.
    Places dividing the model discriminant are skipped; handle them (and the
    place at infinity) through local reduction.
    """
    T = field_tables(curve.field.p, d)
    reps = T.degree_d_representatives()
    reps = reps[T.eval_poly(curve.delta, reps) != 0]
    A, B = curve.short_coefficients()
    return reps, -T.cubic_sums(T.eval_poly(A, reps), T.eval_poly(B, reps))
