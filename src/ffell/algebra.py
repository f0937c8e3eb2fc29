"""Exact arithmetic in F_p, F_{p^d} and the polynomial ring F_p[t].

Elements of a prime field are stored as ints in [0, p); elements of an
extension field F_{p^d} = F_p[z]/(m) as tuples of ints (coefficients of the
residue polynomial, ascending), multiplied and inverted with the same F_p[t]
helpers as Poly.  The field objects' methods (add, mul, inv, pow,
legendre_raw, ...) on these raw values are the one way to compute in a field.

Polynomials are over F_p only: ascending lists of ints with the reduction
mod p inline, no field object per coefficient.

factor runs three steps on such lists (von zur Gathen & Gerhard, Modern
Computer Algebra, ch. 14) and builds a Poly only for each factor it
returns: the squarefree decomposition (gcds with the derivative, and p-th
roots for the multiplicities divisible by p), the distinct-degree
factorization (gcds with t^(p^d) - t), and the equal-degree split (Cantor
& Zassenhaus, Math. Comp. 36, 1981).  The first distinct-degree pair is
also the irreducibility test.
"""

from __future__ import annotations

import random


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    # deterministic Miller-Rabin, valid far beyond any input used here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(n: int, name: str = "p") -> int:
    """n when it is a prime >= 5 (a characteristic p or a prime ell of
    the square-class checks), else ValueError naming it."""
    if n < 5 or not is_prime(n):
        raise ValueError(f"{name}={n} is not a prime >= 5")
    return n


def legendre(a: int, p: int) -> int:
    """The Legendre symbol (a/p), p an odd prime, by Euler's criterion: 1 for
    nonzero squares, -1 for nonsquares, 0 at 0."""
    s = pow(a, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


class PrimeField:
    """F_p for a prime p >= 5."""

    def __init__(self, p: int):
        self.p = check_prime(p)
        self.order = p
        self.degree = 1

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    # raw-value arithmetic -------------------------------------------------
    def coerce(self, v: int) -> int:
        return v % self.p

    zero_raw = 0
    one_raw = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            return pow(self.inv(a), -e, self.p)
        return pow(a, e, self.p)

    def is_zero(self, a):
        return a == 0

    def legendre_raw(self, a) -> int:
        return legendre(a, self.p)

    def elements(self):
        """Every element, as raw values in code order."""
        return range(self.p)


# -- polynomials over F_p: ascending lists of ints in [0, p) ----------------

def _strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _poly_add(p, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] = (out[i] + y) % p
    return _strip(out)


def _poly_sub(p, a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] = (out[i] - y) % p
    return _strip(out)


def _poly_mul(p, a, b):
    """Product with the raw sums reduced once, at the end."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return _strip([c % p for c in out])


def _poly_divmod(p, a, b):
    """Quotient and remainder; the working row is reduced only where read."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    n = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - n)
    for k in range(len(a) - n - 1, -1, -1):
        c = a[k + n] * inv_lead % p
        if c:
            q[k] = c
            for i in range(n):
                a[k + i] -= c * b[i]
    return _strip(q), _strip([c % p for c in a[:n]])


def _poly_mod(p, a, b):
    return _poly_divmod(p, a, b)[1]


def _poly_gcd(p, a, b):
    """Monic gcd (the zero list when both inputs are zero)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_mod(p, a, b)
    return _poly_monic(p, a)


def _poly_monic(p, a):
    inv = pow(a[-1], p - 2, p) if a else 0
    return [c * inv % p for c in a]


def _poly_powmod(p, a, e, m):
    r = [1]
    a = _poly_mod(p, a, m)
    while e > 0:
        if e & 1:
            r = _poly_mod(p, _poly_mul(p, r, a), m)
        a = _poly_mod(p, _poly_mul(p, a, a), m)
        e >>= 1
    return r


class ExtField:
    """F_{p^d} = base[z]/(modulus), modulus monic irreducible of degree d."""

    def __init__(self, base: PrimeField, modulus):
        # modulus: ascending raw coefficient list over base, monic
        self.base = base
        self.modulus = tuple(modulus)
        d = len(modulus) - 1
        if d < 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.degree = d
        self.order = base.p ** d

    def __repr__(self):
        return f"GF({self.base.p}^{self.degree})"

    def __eq__(self, other):
        return (isinstance(other, ExtField) and other.base == self.base
                and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ExtField", self.base.p, self.modulus))

    def coerce(self, v: int):
        """The image of the integer v (an element of F_p)."""
        return self._make([v])

    def _make(self, cs):
        p = self.base.p
        cs = _poly_mod(p, [c % p for c in cs], self.modulus)
        return tuple(cs) + (0,) * (self.degree - len(cs))

    @property
    def zero_raw(self):
        return (0,) * self.degree

    @property
    def one_raw(self):
        return (1,) + (0,) * (self.degree - 1)

    def add(self, a, b):
        p = self.base.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.base.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.base.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p = self.base.p
        prod = _poly_mod(p, _poly_mul(p, a, b), self.modulus)
        return tuple(prod) + (0,) * (self.degree - len(prod))

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def pow(self, a, e):
        if e < 0:
            a, e = self.inv(a), -e
        return self._make(_poly_powmod(self.base.p, a, e, self.modulus))

    def legendre_raw(self, a) -> int:
        if self.is_zero(a):
            return 0
        v = self.pow(a, (self.order - 1) // 2)
        return 1 if v == self.one_raw else -1

    def encode(self, a) -> int:
        """Index of an element in [0, order), base-p digits."""
        p = self.base.p
        n = 0
        for c in reversed(a):
            n = n * p + c
        return n

    def decode(self, n: int):
        p = self.base.p
        cs = []
        for _ in range(self.degree):
            cs.append(n % p)
            n //= p
        return tuple(cs)

    def elements(self):
        """Every element, as raw values in code order."""
        return map(self.decode, range(self.order))


class Poly:
    """Polynomial over a PrimeField F_p, dense ascending int coefficients.

    deg(0) is -infinity (float('-inf')).
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(_strip([field.coerce(c) for c in coeffs]))

    @classmethod
    def _raw(cls, field, raw_coeffs):
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(_strip(raw_coeffs))
        return p

    @classmethod
    def t(cls, field):
        return cls._raw(field, [0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self == Poly(self.field, [other])
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field == self.field:
                return other
            raise ValueError("polynomials over different fields")
        if isinstance(other, int):
            return Poly(self.field, [other])
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return Poly._raw(self.field, _poly_add(self.field.p, self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return Poly._raw(self.field, _poly_sub(self.field.p, self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._coerce(other)
        return Poly._raw(self.field, _poly_sub(self.field.p, o.coeffs, self.coeffs))

    def __neg__(self):
        p = self.field.p
        return Poly._raw(self.field, [-c % p for c in self.coeffs])

    def __mul__(self, other):
        o = self._coerce(other)
        return Poly._raw(self.field, _poly_mul(self.field.p, self.coeffs, o.coeffs))

    __rmul__ = __mul__

    def __pow__(self, e):
        r = Poly(self.field, [1])
        b = self
        while e > 0:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def __divmod__(self, other):
        o = self._coerce(other)
        q, r = _poly_divmod(self.field.p, self.coeffs, o.coeffs)
        return Poly._raw(self.field, q), Poly._raw(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def lead(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        return Poly._raw(self.field, _poly_monic(self.field.p, self.coeffs))

    def __call__(self, x: int) -> int:
        """The value at x in F_p."""
        p = self.field.p
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % p
        return acc

    def gcd(self, other) -> "Poly":
        o = self._coerce(other)
        return Poly._raw(self.field, _poly_gcd(self.field.p, self.coeffs, o.coeffs))

    def valuation(self, pi: "Poly") -> int:
        """Multiplicity of the irreducible pi in self (self nonzero), by
        repeated division.  Nothing in ffell calls it (reduction._leading
        reads valuations without a division chain); it stays as Poly API for
        the test oracles that check _leading against it."""
        if not self.coeffs:
            raise ValueError("valuation of the zero polynomial")
        v = 0
        f = self
        while True:
            q, r = divmod(f, pi)
            if r:
                return v
            f = q
            v += 1

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*t^{i}" for i, c in enumerate(self.coeffs)
                          if c)


def is_irreducible(f: Poly) -> bool:
    """f irreducible over F_p: its distinct-degree factorization finds no
    irreducible factor of degree below deg f.  Linear f, most places, skip
    the factorization."""
    d, p = f.degree, f.field.p
    return d == 1 or d > 1 and next(
        _distinct_degree(p, _poly_monic(p, f.coeffs)))[1] == d


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _squarefree_decomposition(p, f):
    """f monic -> [(g, m)] with f = prod g^m, each g monic squarefree of
    degree >= 1.  Gcds with f' split off the multiplicities prime to p; what
    is left, and an f with f' = 0, is h(t^p) = h^p, so the loop goes on with
    h = f[::p] (c^(1/p) = c in F_p) and multiplicities times p."""
    out = []
    outer = 1
    while len(f) > 1:
        df = _strip([i * f[i] % p for i in range(1, len(f))])
        if df:
            c = _poly_gcd(p, f, df)
            # w: the factors of multiplicity prime to p; fac: those of
            # multiplicity exactly i
            w = _poly_divmod(p, f, c)[0]
            i = 1
            while len(w) > 1:
                y = _poly_gcd(p, w, c)
                fac = _poly_divmod(p, w, y)[0]
                if len(fac) > 1:
                    out.append((fac, outer * i))
                c = _poly_divmod(p, c, y)[0]
                w = y
                i += 1
            f = c
        f = f[::p]
        outer *= p
    return out


def _distinct_degree(p, f):
    """f monic squarefree -> yield (product of its irreducibles of degree d, d).

    The first pair needs no squarefree f: its d is the least degree of an
    irreducible factor of f, and it is deg f exactly when f is irreducible.
    """
    t = [0, 1]
    h = t
    d = 0
    while len(f) > 1:
        d += 1
        if 2 * d > len(f) - 1:
            yield f, len(f) - 1
            return
        h = _poly_powmod(p, h, p, f)  # h = t^(p^d) mod f
        g = _poly_gcd(p, _poly_sub(p, h, t), f)
        if len(g) > 1:
            yield g, d
            f = _poly_divmod(p, f, g)[0]
            h = _poly_mod(p, h, f)


def _equal_degree_split(p, f, d: int, rng: random.Random):
    """Cantor-Zassenhaus: f monic squarefree, all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _strip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _poly_gcd(p, f, a)
        if 0 < len(g) - 1 < n:
            break
        b = _poly_powmod(p, a, (p ** d - 1) // 2, f)
        g = _poly_gcd(p, f, _poly_sub(p, b, [1]))
        if 0 < len(g) - 1 < n:
            break
    return [irr for piece in (g, _poly_divmod(p, f, g)[0])
            for irr in _equal_degree_split(p, piece, d, rng)]


def factor(f: Poly):
    """Factor a nonzero polynomial.

    Returns (leading coefficient, list of (monic irreducible, multiplicity))
    sorted by degree, then coefficients.  Randomness in the equal-degree
    step is seeded by f.  A polynomial of degree <= 1 is its own
    factorization.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    lead = f.lead()
    if f.degree <= 1:
        return lead, [(f.monic(), 1)] if f.degree == 1 else []
    F, p = f.field, f.field.p
    rng = random.Random(hash((p, f.coeffs)))
    out = sorted((len(irr), irr, mult) for g, mult in
                 _squarefree_decomposition(p, _poly_monic(p, f.coeffs))
                 for h, d in _distinct_degree(p, g)
                 for irr in _equal_degree_split(p, h, d, rng))
    return lead, [(Poly._raw(F, irr), mult) for _, irr, mult in out]


def monic_irreducibles(F: PrimeField, d: int):
    """Yield the monic irreducibles of degree d over F, in the lexicographic
    order of their coefficients read from t^(d-1) down to 1 (the order of
    n = c_0 + c_1 p + ... + c_(d-1) p^(d-1))."""
    p = F.p
    for n in range(p ** d):
        f = [n // p ** i % p for i in range(d)] + [1]
        if next(_distinct_degree(p, f))[1] == d:
            yield Poly._raw(F, f)


def build_extension(p: int, d: int) -> PrimeField | ExtField:
    """Deterministic field with p^d elements (modulus the first monic
    irreducible of monic_irreducibles)."""
    F = PrimeField(p)
    if d == 1:
        return F
    return ExtField(F, list(next(monic_irreducibles(F, d)).coeffs))


class SquareClass:
    """An element of F^x / (F^x)^2 for a field of odd order: two classes."""

    __slots__ = ("nontrivial",)

    def __init__(self, nontrivial: bool):
        self.nontrivial = bool(nontrivial)

    def __mul__(self, other):
        return SquareClass(self.nontrivial ^ other.nontrivial)

    def __eq__(self, other):
        return isinstance(other, SquareClass) and other.nontrivial == self.nontrivial

    def __hash__(self):
        return hash(("SquareClass", self.nontrivial))

    def __repr__(self):
        return "nontrivial" if self.nontrivial else "trivial"

    @property
    def trivial(self):
        return not self.nontrivial
