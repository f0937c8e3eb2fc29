"""Explicit twist families over F_p(t) and a mechanical profile verifier.

Each family is a Weierstrass model y^2 = x^3 + a2(t) f x^2 + a4(t) f^2 x +
a6(t) f^3 over Q, where f(t) is a separable auxiliary polynomial (a product
of t - v_i over explicitly listed rational values) and h = alpha/beta is a
rational map of degree <= 4 (alpha, beta coprime in Z[u], beta with positive
leading coefficient).  For a prime p and a parameter w in

    W(F_p) = {w : beta(w) != 0 and Delta(h(w)) != 0},

the member curve is the quadratic twist of the base model by t - h(w).

The verifier recomputes all local reduction data and global invariants for
every (p, w) grid cell and compares them with the family's expected profile:
per-place Kodaira symbols, Tamagawa values or value sets, the global tuple
(N, chi, gamma, script_L, B), the closed-form root-number law, the criterion
hypotheses (a multiplicative place on the affine line; the I_0* symbol at
more than one affine closed point; 6B <= N), the square-class conditions
(A)/(B)/(C) for every valid ell, and the independence of the Kodaira
multiset from the twist parameter.

Families are declared in a key = value grammar (see the README, "Family
files"); the built-ins are the declarations in FAMILY_DECLARATIONS, parsed
by the same function that reads user family files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Poly, PrimeField, is_prime, legendre
from .curves import WeierstrassCurve
from .lfunction import global_invariants


# ---------------------------------------------------------------------------
# exact polynomial helpers over Q (ascending coefficient tuples)

def _pstrip(c):
    c = [Fraction(x) for x in c]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmul(a, b):
    a, b = _pstrip(a), _pstrip(b)
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(_pstrip(a)):
        acc = acc * x + c
    return acc


def _h_of(pair):
    """Evaluation map of a rational function given as (num, den) coeffs."""
    num, den = pair

    def val(i):
        d = _peval(den, Fraction(i))
        if d == 0:
            raise ValueError("rational map undefined at the given argument")
        return _peval(num, Fraction(i)) / d

    return val


def _fp_scalar(F: PrimeField, x) -> int:
    """A rational constant reduced mod p (raises if the denominator dies)."""
    x = Fraction(x)
    den = x.denominator % F.p
    if den == 0:
        raise ValueError("denominator vanishes mod p")
    return x.numerator % F.p * pow(den, F.p - 2, F.p) % F.p


def _fp_poly(F: PrimeField, coeffs) -> Poly:
    return Poly(F, [_fp_scalar(F, c) for c in coeffs])


def _qr(a, ell) -> bool:
    return pow(a % ell, (ell - 1) // 2, ell) == 1


def _loc_key(F: PrimeField, loc):
    """A declared location ("inf" or a rational t-value) reduced mod p."""
    return "inf" if loc == "inf" else _fp_scalar(F, loc)


# ---------------------------------------------------------------------------
# family data

@dataclass
class Family:
    """A twist family as parsed from its declaration.

    `h` and `profile` hold one entry per parity of n (index n % 2).  A
    profile maps declared keys to parsed values: linear forms (a, b),
    meaning a n + b, for N/chi/gamma/script_L/B; "places", a list of
    (location, Kodaira symbols, Tamagawa set or None); "c_I0star";
    "c_E_power_of"; "equal_c", a pair of locations.  Only what is declared
    is checked."""
    fid: str
    condition: str                # "A", "B" or "C"
    nmin: int
    nmax: object                  # int or None
    exclude: int                  # primes dividing this are always excluded
    h: tuple                      # per parity: (alpha coeffs, beta coeffs)
    g: object                     # optional second rational map for f
    f: object                     # ("h"|"g"|"lit", shift, lo, hi) or None
    abase: tuple                  # (a2, a4, a6) Fraction coefficient tuples
    profile: tuple                # per parity: declared key -> parsed value
    # root-number law (sign, ((atoms, raised to the n-th power), ...)): the
    # sign times the Legendre symbols of products of atoms; None = no law
    eps: object
    ell_squares: tuple            # valid ell: these are squares mod ell
    ell_nonsquares: tuple         # ... and these are not
    waive_hypotheses: bool

    def _check_n(self, n):
        if n < self.nmin or (self.nmax is not None and n > self.nmax):
            raise ValueError(f"{self.fid}: parameter n={n} out of range")

    def h_pair(self, n):
        return self.h[n % 2]

    def f_values(self, n):
        """The roots v_i of f for the parameter n."""
        if self.f is None:
            return []
        which, shift, (a, b), (c, d) = self.f
        idx = range(a * n + b + shift, c * n + d + shift + 1)
        if which == "lit":
            return [Fraction(i) for i in idx]
        val = _h_of(self.h_pair(n) if which == "h" else self.g)
        return [val(i) for i in idx]

    def valid_ell(self, ell) -> bool:
        return (all(_qr(a, ell) for a in self.ell_squares)
                and not any(_qr(a, ell) for a in self.ell_nonsquares))

    def base_coeffs(self, n):
        """(a2 f, a4 f^2, a6 f^3) as exact Q-coefficient tuples."""
        self._check_n(n)
        f = (Fraction(1),)
        for v in self.f_values(n):
            f = _pmul(f, (-v, 1))
        a2, a4, a6 = self.abase
        return (_pmul(a2, f), _pmul(a4, _pmul(f, f)),
                _pmul(a6, _pmul(f, _pmul(f, f))))

    def base_curve(self, p: int, n: int) -> WeierstrassCurve:
        F = PrimeField(p)
        a2, a4, a6 = self.base_coeffs(n)
        return WeierstrassCurve(_fp_poly(F, a2), _fp_poly(F, a4),
                                _fp_poly(F, a6))

    def valid_prime(self, p: int, n: int) -> bool:
        """Whether p avoids the excluded set and all mod-p degeneracies."""
        self._check_n(n)
        if not is_prime(p) or p < 5 or self.exclude % p == 0:
            return False
        F = PrimeField(p)
        try:
            vals = [_fp_scalar(F, v) for v in self.f_values(n)]
            specials = [_fp_scalar(F, loc) for loc, _, _
                        in self.profile[n % 2]["places"] if loc != "inf"]
            num, den = self.h_pair(n)
            den_p = _fp_poly(F, den)
            E = self.base_curve(p, n)
        except ValueError:
            return False
        if len(set(vals)) != len(vals):
            return False            # f not separable mod p
        if any(v in specials for v in vals):
            return False            # f vanishes at a special place
        if not den_p:
            return False            # beta identically zero mod p
        return not E.is_isotrivial()

    def h_mod_p(self, p: int, n: int, w: int) -> int:
        F = PrimeField(p)
        num, den = self.h_pair(n)
        d = _fp_poly(F, den)(F(w))
        if not d:
            raise ValueError(f"{self.fid}: beta({w}) = 0 mod {p}")
        return int((_fp_poly(F, num)(F(w)) / d).raw)

    def _in_W(self, F: PrimeField, n: int, delta: Poly, w: int) -> bool:
        """Whether beta(w) != 0 and Delta(h(w)) != 0, for the discriminant
        delta of the base model mod p."""
        num, den = (_fp_poly(F, c) for c in self.h_pair(n))
        dw = den(F(w))
        return bool(dw) and bool(delta(num(F(w)) / dw))

    def W_set(self, p: int, n: int) -> list:
        """All w in F_p with beta(w) != 0 and Delta(h(w)) != 0."""
        F = PrimeField(p)
        delta = self.base_curve(p, n).delta
        return [w for w in range(p) if self._in_W(F, n, delta, w)]

    def instantiate(self, p: int, n: int, w: int) -> WeierstrassCurve:
        """The member curve at (p, w): the base model twisted by t - h(w)."""
        if not self.valid_prime(p, n):
            raise ValueError(f"{self.fid}: invalid prime {p} for n={n}")
        F = PrimeField(p)
        E = self.base_curve(p, n)
        if not self._in_W(F, n, E.delta, w):
            raise ValueError(f"{self.fid}: w={w} not in W(F_{p})")
        return E.twist_by(Poly.t(F) - self.h_mod_p(p, n, w))

    def eps_value(self, F: PrimeField, n: int, hw=None):
        """The root number the law predicts at a cell with h(w) = hw mod p
        (a law free of h needs no hw), or None when no law is stated."""
        if self.eps is None:
            return None
        law, factors = self.eps
        for atoms, to_n in factors:
            x = F(1)
            for kind, a in atoms:
                if kind == "c":
                    x = x * F(a)
                elif kind == "h":
                    x = x * F(hw)
                elif kind == "a-h":
                    x = x * (F(a) - hw)
                else:                                   # f(a)
                    for v in self.f_values(n):
                        x = x * (F(a) - _fp_scalar(F, v))
            law *= legendre(x) ** n if to_n else legendre(x)
        return law

    def _law_mentions_h(self) -> bool:
        return self.eps is not None and any(
            kind in ("h", "a-h") for atoms, _ in self.eps[1]
            for kind, _ in atoms)

    def eps_varies(self) -> bool:
        """Whether conditions (B)/(C), which demand eps = 1, meet a law that
        varies with w, so they hold only on part of the w-grid."""
        return self.condition != "A" and self._law_mentions_h()

    def eps_minus_one_at(self, p: int, n: int) -> bool:
        """Whether conditions (B)/(C) meet a law free of h that is -1 at p,
        so that no w at p can attain them."""
        return (self.condition != "A" and not self._law_mentions_h()
                and self.eps_value(PrimeField(p), n) == -1)


# ---------------------------------------------------------------------------
# the declaration grammar

_KEYS = {"condition", "nmin", "nmax", "exclude", "h", "g", "f", "a2", "a4",
         "a6", "N", "chi", "gamma", "script_L", "B", "place", "c_I0star",
         "c_E_power_of", "equal_c", "waive", "eps", "ell_squares",
         "ell_nonsquares"}
_PARITY_KEYS = {"h", "gamma", "place"}          # may take [even] / [odd]
_LINEAR_KEYS = ("N", "chi", "gamma", "script_L", "B")
_KEY = re.compile(r"(\w+)(?:\s+(\S+?))?(?:\[(even|odd)\])?")
_SYMBOL = re.compile(r"(I\d+|II|III|IV)\*?")
_LINEAR = re.compile(r"([+-]?\d*)n([+-]\d+)?|([+-]?\d+)")
_FACTOR = r"\(((?:[^()]|\([^()]*\))*)\)(\^n)?"
_ATOM = re.compile(r"(-?\d+)|(h)|f\((-?\d+)\)|\((-?\d+)-h\)")


def _parse_coeffs(s):
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"expected [c0,c1,...], got {s!r}")
    body = s[1:-1].strip()
    if not body:
        return ()
    return tuple(Fraction(x.strip()) for x in body.split(","))


def _parse_pair(s):
    """'[num] / [den]' (or '[num]') as coefficient tuples."""
    m = re.fullmatch(r"(\[[^]]*\])\s*(?:/\s*(\[[^]]*\]))?", s.strip())
    if m is None:
        raise ValueError(f"expected [num] / [den], got {s!r}")
    return _parse_coeffs(m[1]), _parse_coeffs(m[2] or "[1]")


def _linear(s):
    """A linear form in n like '8n+5', 'n-1' or '3', as (a, b)."""
    m = _LINEAR.fullmatch(s.replace(" ", ""))
    if m is None:
        raise ValueError(f"expected a linear form in n, got {s!r}")
    a, b, const = m.groups()
    if const is not None:
        return 0, int(const)
    return int(a + "1" if a in ("", "+", "-") else a), int(b or 0)


def _parse_f(s, g):
    head, _, rng = s.partition(":")
    m = re.fullmatch(r"(h|g|lit)\(i(\+\d+)?\)", head.replace(" ", ""))
    lo, _, hi = rng.partition("..")
    if m is None or not hi:
        raise ValueError(f"bad f specification {s!r}")
    if m[1] == "g" and g is None:
        raise ValueError("f uses g(i) but no g= was given")
    return m[1], int(m[2] or 0), _linear(lo), _linear(hi)


def _parse_loc(s):
    return "inf" if s == "inf" else Fraction(s)


def _parse_sets(s):
    """'{a, b} {c}' as [['a', 'b'], ['c']]."""
    if not re.fullmatch(r"(\s*\{[^{}]*\})+\s*", s):
        raise ValueError(f"expected sets like {{a, b}}, got {s!r}")
    return [[x.strip() for x in body.split(",") if x.strip()]
            for body in re.findall(r"\{([^{}]*)\}", s)]


def _parse_place(loc, s):
    sets = _parse_sets(s)
    if len(sets) > 2 or not all(_SYMBOL.fullmatch(x) for x in sets[0]):
        raise ValueError(f"place {loc}: expected {{Kodaira symbols}} and an "
                         f"optional {{Tamagawa values}}, got {s!r}")
    c_set = frozenset(int(c) for c in sets[1]) if len(sets) == 2 else None
    return _parse_loc(loc), frozenset(sets[0]), c_set


def _parse_eps(s):
    """An optional '-' and Legendre symbols '(x)' or '(x)^n', where x is a
    product of space-separated atoms: integers, h, f(a) and (a-h)."""
    body = s.strip()
    sign = -1 if body.startswith("-") else 1
    body = body[1:] if sign < 0 else body
    if not re.fullmatch(rf"(\s*{_FACTOR})+\s*", body):
        raise ValueError(f"bad eps law {s!r}")
    factors = []
    for inner, to_n in re.findall(_FACTOR, body):
        atoms = []
        for tok in inner.split():
            m = _ATOM.fullmatch(tok)
            if m is None:
                raise ValueError(f"bad factor {tok!r} in eps law {s!r}")
            atoms.append(("c", int(m[1])) if m[1] else ("h", None) if m[2]
                         else ("f", int(m[3])) if m[3] else ("a-h", int(m[4])))
        factors.append((tuple(atoms), bool(to_n)))
    return sign, tuple(factors)


def _parse_profile(kv):
    prof = {k: _linear(kv[k]) for k in _LINEAR_KEYS if k in kv}
    prof["places"] = [_parse_place(k.split()[1], v) for k, v in kv.items()
                      if k.startswith("place ")]
    if "c_I0star" in kv:
        sets = _parse_sets(kv["c_I0star"])
        if len(sets) != 1:
            raise ValueError(f"c_I0star: expected one set, got {sets}")
        prof["c_I0star"] = frozenset(int(c) for c in sets[0])
    if "c_E_power_of" in kv:
        prof["c_E_power_of"] = int(kv["c_E_power_of"])
        if prof["c_E_power_of"] < 2:
            raise ValueError("c_E_power_of must be at least 2")
    if "equal_c" in kv:
        prof["equal_c"] = tuple(_parse_loc(x.strip())
                                for x in kv["equal_c"].split(","))
        if len(prof["equal_c"]) != 2:
            raise ValueError("equal_c takes two locations")
    return prof


def _family(fid, items):
    # resolve [even] / [odd] variants: one key -> value dict per parity
    kvs = ({}, {})
    for (key, parity), value in items.items():
        for kv, par in zip(kvs, ("even", "odd")):
            if parity in (None, par):
                if key in kv:
                    raise ValueError(f"{fid}: {key!r} given both for all n "
                                     f"and for {par} n")
                kv[key] = value
    for req in ("condition", "h", "a2", "a4", "a6"):
        if not all(req in kv for kv in kvs):
            raise ValueError(f"family {fid!r} is missing key {req!r}")
    kv = kvs[0]                     # keys without variants are in both
    cond = kv["condition"].upper()
    if cond not in ("A", "B", "C"):
        raise ValueError(f"unknown condition {cond!r}")
    if kv.get("waive", "no") not in ("yes", "no"):
        raise ValueError(f"waive must be yes or no, got {kv['waive']!r}")
    g = _parse_pair(kv["g"]) if "g" in kv else None
    # conditions (B)/(C) demand eps = 1, which is their law unless stated
    eps = (_parse_eps(kv["eps"]) if "eps" in kv
           else None if cond == "A" else (1, ()))

    def ints(key):
        return tuple(int(x) for x in kv.get(key, "").split(",") if x.strip())

    return Family(
        fid=fid, condition=cond, nmin=int(kv.get("nmin", 0)),
        nmax=int(kv["nmax"]) if "nmax" in kv else None,
        exclude=int(kv.get("exclude", 6)),
        h=tuple(_parse_pair(d["h"]) for d in kvs), g=g,
        f=_parse_f(kv["f"], g) if "f" in kv else None,
        abase=tuple(_parse_coeffs(kv[k]) for k in ("a2", "a4", "a6")),
        profile=tuple(_parse_profile(d) for d in kvs), eps=eps,
        ell_squares=ints("ell_squares"),
        ell_nonsquares=ints("ell_nonsquares"),
        waive_hypotheses=kv.get("waive") == "yes")


def parse_families(text: str) -> dict:
    """Parse family declarations into {id: Family}.

    A declaration is a run of `key = value` items opened by `id = ...`;
    items are separated by newlines or ';', and '#' starts a comment.  The
    keys are listed in the README ("Family files")."""
    blocks, items = {}, None
    for line in text.splitlines():
        for item in line.split("#", 1)[0].split(";"):
            if not item.strip():
                continue
            key, sep, value = (s.strip() for s in item.partition("="))
            if not sep:
                raise ValueError(f"bad line in family file: {item.strip()!r}")
            if key == "id":
                if value in blocks:
                    raise ValueError(f"family {value!r} declared twice")
                items = blocks[value] = {}
                continue
            m = _KEY.fullmatch(key)     # name, location, parity
            # only `place` takes a location, and it needs one
            if (m is None or m[1] not in _KEYS
                    or (m[2] is None) == (m[1] == "place")
                    or (m[3] and m[1] not in _PARITY_KEYS)):
                raise ValueError(f"unknown key {key!r}")
            if items is None:
                raise ValueError("a family declaration starts with 'id = '")
            name = m[1] if m[2] is None else f"{m[1]} {m[2]}"
            if (name, m[3]) in items:
                raise ValueError(f"duplicate key {key!r}")
            items[name, m[3]] = value
    try:
        return {fid: _family(fid, items) for fid, items in blocks.items()}
    except ZeroDivisionError as exc:           # a rational like 1/0
        raise ValueError(f"zero denominator: {exc}") from None


def load_family_file(path) -> Family:
    """Load the one family declared in a text file (the grammar of
    FAMILY_DECLARATIONS)."""
    with open(path) as fh:
        fams = parse_families(fh.read())
    if len(fams) != 1:
        raise ValueError(f"a family file declares one family, not "
                         f"{len(fams)}")
    return next(iter(fams.values()))


# ---------------------------------------------------------------------------
# the built-in families
#
# a2/a4/a6 are the base coefficients before the factors f, f^2, f^3; the
# twist place and the roots of f carry I0* with c in c_I0star; every other
# special place is listed with its symbols and Tamagawa values.

FAMILY_DECLARATIONS = """
# ---- conductor degree 5 ----------------------------------------------------
# y^2 = x^3 + 3(t^2-1)^3 x - 2(t^2-1)^5.  Only ell with 2 a square are
# valid: 2 c_E runs through {16, 32, 64} depending on the member, and only
# the 16/64 cells satisfy condition (A) for general ell (the dichotomy itself
# is checked separately).
id = intro_N5;  condition = A;  nmax = 0;  waive = yes
h = [3, 0, -1] / [3, 0, 1]
a2 = [];  a4 = [-3, 0, 9, 0, -9, 0, 3]
a6 = [2, 0, -10, 0, 20, 0, -20, 0, 10, 0, -2]
N = 5;  chi = 3;  gamma = 1;  script_L = 1;  B = 2
place 0 = {I2} {2};  place 1 = {III*} {2};  place -1 = {III*} {2}
place inf = {II*} {1}
c_I0star = {1, 2, 4};  eps = -(-3 h);  ell_squares = 2

# ---- N odd -----------------------------------------------------------------
id = odd_1mod8;  condition = A;  nmin = 1
h = [0, 1] / [1];  f = lit(i+1) : 1 .. 4n
a2 = [-1, -1];  a4 = [0, 1];  a6 = []              # a2 = -(t + 1), a4 = t
N = 8n+1;  chi = 2n+1;  gamma = 1;  script_L = 1;  B = 0
place 0 = {I2} {2};  place 1 = {I2} {2};  place inf = {I2} {2}
c_I0star = {4}

id = odd_3mod8;  condition = A;  nmin = 1
h = [0, 0, 3] / [1, 0, 3];  f = h(i) : 1 .. 4n
a2 = [];  a4 = [0, -3];  a6 = [0, 0, 2]
N = 8n+3;  chi = 2n+1;  gamma = 1;  script_L = 1;  B = 1
place inf = {II} {1};  place 0 = {III} {2};  place 1 = {I1} {1}
c_I0star = {1, 4}

id = odd_5mod8;  condition = A;  nmin = 1     # the intro model, f != 1
h = [3, 0, -1] / [3, 0, 1];  f = h(i) : 1 .. 4n
a2 = [];  a4 = [-3, 0, 9, 0, -9, 0, 3]
a6 = [2, 0, -10, 0, 20, 0, -20, 0, 10, 0, -2]
N = 8n+5;  chi = 2n+3;  gamma = 1;  script_L = 1;  B = 2
place inf = {II*} {1};  place 0 = {I2} {2};  place 1 = {III*} {2}
place -1 = {III*} {2}
c_I0star = {1, 4}

id = odd_7mod8;  condition = A
h = [0, 1] / [1];  f = lit(i+1) : 1 .. 4n+2
a2 = [0, 1, 1];  a4 = [0, 0, 0, 1];  a6 = []       # a2 = t(t + 1), a4 = t^3
N = 8n+7;  chi = 2n+3;  gamma = 1;  script_L = 1;  B = 1
place inf = {I2*} {4};  place 0 = {I2*} {4};  place 1 = {I2} {2}
c_I0star = {4}

# ---- N even, trivial square class of the discriminant ----------------------
id = even_0mod8;  condition = C;  nmin = 1
h = [0, 0, 4] / [1, 0, 2, 0, 1];  f = h(i+1) : 1 .. 4n-1
a2 = [];  a4 = [-12, 39, -45, 21, -3]                # -3 (t-1)^3 (t-4)
a6 = [16, -78, 150, -140, 60, -6, -2]                # -2 (t-1)^5 (t+8)
N = 8n;  chi = 2n+1;  gamma = 1;  script_L = 1;  B = 1
place inf = {I1} {1};  place 0 = {I2} {2};  place 1 = {III*} {2}
c_I0star = {4};  c_E_power_of = 4

# a4 = -3 (t-1)(t-4), a6 = -2 (t-1)^2 (t+8)
id = even_2mod8;  condition = C;  nmin = 1
h = [-1, 0, 2, 0, -1] / [0, 0, 4];  f = h(i+1) : 1 .. 4n
a2 = [];  a4 = [-12, 15, -3];  a6 = [-16, 30, -12, -2]
N = 8n+2;  chi = 2n+1;  gamma = 1;  script_L = 1;  B = 1
place inf = {I1} {1};  place 0 = {I2} {2};  place 1 = {III} {2}
c_I0star = {4};  c_E_power_of = 4

# a4 = -3 (t-1)(t-9), a6 = -2 (t-1)(t-3)(t-9)
id = even_4mod8;  condition = C;  nmin = 1
h = [0, 0, -3] / [1];  f = h(i) : 1 .. 4n
a2 = [];  a4 = [-27, 30, -3];  a6 = [54, -78, 26, -2]
N = 8n+4;  chi = 2n+1;  gamma = 1;  script_L = 1;  B = 2
place inf = {I1} {1};  place 0 = {I1} {1};  place 1 = {II} {1}
place 9 = {II} {1}
c_I0star = {1, 4}

# The multiplicative places t = 1 and t = -1 contribute split predicates
# -3(1-h)f(1) and 3(-1-h)f(-1) whose product has square class
# -9 (1-h^2) f(1) f(-1) ~ -1, and the I0* places number 4n+2, so the root
# number is (-1/p) for every w.  Condition (C) therefore needs p = 1 (mod 4);
# the law itself is checked at every valid prime.  The t <-> 1/t symmetry
# forces equal Tamagawa numbers at 0 and infinity.
id = even_6mod8;  condition = C
h = [1, 0, 1] / [0, 2];  f = h(i+1) : 1 .. 4n+1
a2 = [];  a4 = [0, 0, -3, 0, 3, 0, -3]          # -3 t^2 (t^4 - t^2 + 1)
a6 = [0, 0, 0, 2, 0, -3, 0, -3, 0, 2]           # t^3 (2t^6-3t^4-3t^2+2)
N = 8n+6;  chi = 2n+3;  gamma = 1;  script_L = 1;  B = 1
place 1 = {I2} {2};  place -1 = {I2} {2};  place 0 = {I4*} {2, 4}
place inf = {I4*} {2, 4}
c_I0star = {4};  c_E_power_of = 4;  equal_c = 0, inf;  eps = (-1)

# ---- N even, nontrivial square class ---------------------------------------
# The multiplicative places sit at t = 0 (I4, split iff 3 h(w) f(0) is a
# square) and t = 2 (I2, split iff -6 (2-h(w)) f(2) is a square), which
# gives the law below; the factor (4w^2+1 / p) hidden in h(2-h) makes it
# vary with w, and condition (B) is only attainable on the eps = 1 part of
# the w-grid.
id = case1_2ns;  condition = B;  nmin = 2
h = [1] / [1, 0, 2];  g = [1] / [1, 0, 1];  f = g(i) : 1 .. n-1
a2 = [];  a4 = [-48, 96, -57, 9]            # 3 (t-1)(t-4)(3t-4)
a6 = [-128, 384, -420, 200, -36]            # -4 (t-1)^2 (9t^2-32t+32)
N = 2n+2;  gamma = 2;  script_L = 1;  B = 1
place inf = {III, III*} {2};  place 1 = {III} {2};  place 0 = {I4} {2, 4}
place 2 = {I2} {2}
c_I0star = {1, 2, 4};  eps = (3 h f(0)) (-6 (2-h) f(2)) (-1)^n
ell_nonsquares = 2

id = case2_3ns;  condition = B;  nmin = 2;  exclude = 42
h = [1] / [1, 0, 2];  g = [1] / [1, 0, 1];  f = g(i) : 1 .. n-1
a2 = [];  a4 = [-48, 1680, -8967, -12348]   # -3 (28t-1)(147t^2+112t-16)
a6 = [-128, 6720, -94668, 235298, -1210104]  # -2 (28t-1)(21609t^3-...)
N = 2n+2;  gamma = 6;  script_L = 1;  B = 1
place inf = {III, III*} {2};  place 1/28 = {II} {1};  place 0 = {I4} {2, 4}
place 1 = {I3} {1, 3}
c_I0star = {1, 2, 4};  ell_squares = 2;  ell_nonsquares = 3

# a4 = 3 (135t^2+96t-256), a6 = -2 (486t^4+621t^3-3024t^2-2304t+4096)
id = case3_5ns;  condition = B;  nmin = 2;  exclude = 30
h[even] = [-15] / [-15, 0, 1];  h[odd] = [-5] / [-5, 0, 1]
g = [1] / [1, 0, 1];  f = g(i) : 1 .. n-1
a2 = [];  a4 = [-768, 288, 405];  a6 = [-8192, 4608, 6048, -1242, -972]
N = 2n+2;  gamma[even] = 15;  gamma[odd] = 5;  script_L = 5;  B = 1
place inf[even] = {IV};  place inf[odd] = {II*}
place 0 = {I5} {1, 5};  place 1 = {I1} {1};  place -16/9 = {II} {1}
c_I0star = {1, 2, 4};  ell_squares = 2, 3;  ell_nonsquares = 5

# At infinity the twisted model has (v(c4), v(c6), v(Delta)) = (3, 4, 8) for
# even n (symbol IV*, gamma factor 3) and (1, 1, 2) for odd n (symbol II,
# gamma factor 1), forced by the coefficient degrees alone.  The twist map
# 189/4 (u^2-42)^{-1} must go with even n and 63/4 (u^2-14)^{-1} with odd n:
# that pairing makes the root number 1 at every cell, while the opposite
# pairing leaves a stray (3/p).
# a4 = -12 (9t+4)^2 (14t^3+42t^2+36t+9),
# a6 = -24 (9t+4)^3 (8t^5+87t^4+222t^3+234t^2+108t+18)
id = case4_7ns;  condition = B;  nmin = 2;  exclude = 42
h[even] = [189] / [-168, 0, 4];  h[odd] = [63] / [-56, 0, 4]
g = [-9/8] / [1, 0, 1];  f = g(i) : 1 .. n-1
a2 = [];  a4 = [-1728, -14688, -47916, -73968, -52920, -13608]
a6 = [-27648, -352512, -1899072, -5601456, -9783648, -10187184, -5996592, -1708776, -139968]
N = 2n+2;  gamma[even] = 42;  gamma[odd] = 14;  script_L = 7;  B = 1
place inf[even] = {IV*};  place inf[odd] = {II}
place -4/9 = {I1*} {2, 4};  place 0 = {I7} {1, 7};  place -9/8 = {I2} {2}
c_I0star = {1, 2, 4};  ell_squares = 2, 3, 5;  ell_nonsquares = 7
"""

FAMILIES = parse_families(FAMILY_DECLARATIONS)


# ---------------------------------------------------------------------------
# verification

@dataclass
class CriterionReport:
    family: str
    n: int
    condition: str
    waivers: list = field(default_factory=list)
    skipped_primes: list = field(default_factory=list)
    cells: list = field(default_factory=list)
    kodaira_mismatch: list = field(default_factory=list)
    unattained: list = field(default_factory=list)

    @property
    def verdict(self) -> bool:
        if not self.cells or self.kodaira_mismatch or self.unattained:
            return False
        return all(all(c["checks"].values()) for c in self.cells)

    def to_json(self):
        return {
            "family": self.family, "n": self.n, "condition": self.condition,
            "verdict": self.verdict, "waivers": self.waivers,
            "skipped_primes": self.skipped_primes,
            "kodaira_mismatch": self.kodaira_mismatch,
            "unattained": self.unattained,
            "cells": self.cells,
        }


def analyze_cell(fam: Family, p: int, n: int, w: int, ells=()):
    """Local/global data and per-claim check results for one grid cell."""
    E = fam.instantiate(p, n, w)
    hw = fam.h_mod_p(p, n, w)
    F = E.field
    inv = global_invariants(E)
    checks = {}
    notes = []

    by_loc = {}
    for d in inv.local_data:
        if d.place.is_infinite:
            by_loc["inf"] = d
        elif d.place.degree == 1:
            by_loc[(-d.place.pi.coeffs[0]) % p] = d

    prof = fam.profile[n % 2]
    for key in _LINEAR_KEYS:
        if key in prof:
            a, b = prof[key]
            checks[key] = getattr(inv, key) == a * n + b

    for loc, syms, c_set in prof["places"]:
        d = by_loc.get(_loc_key(F, loc))
        name = f"place_{loc}"
        if d is None:
            checks[name] = False
            notes.append(f"no bad place at t={loc}")
            continue
        ok = str(d.kodaira) in syms
        if c_set is not None:
            ok = ok and d.c in c_set
        checks[name] = ok
        if not ok:
            notes.append(f"at t={loc}: got {d.kodaira}, c={d.c}")

    if "c_I0star" in prof:
        # the twist place and every root of f carry I_0*
        star_ok = True
        for key in {hw} | {_fp_scalar(F, v) for v in fam.f_values(n)}:
            d = by_loc.get(key)
            if not (d is not None and str(d.kodaira) == "I0*"
                    and d.c in prof["c_I0star"]):
                star_ok = False
                notes.append(f"expected I0* at t={key}")
        checks["I0star_places"] = star_ok

    if "c_E_power_of" in prof:
        c = inv.c_E
        while c % prof["c_E_power_of"] == 0:
            c //= prof["c_E_power_of"]
        checks["c_E_power"] = c == 1

    if "equal_c" in prof:
        a, b = (by_loc.get(_loc_key(F, loc)) for loc in prof["equal_c"])
        name = "symmetry_{}_{}".format(*prof["equal_c"])
        checks[name] = a is not None and b is not None and a.c == b.c

    # criterion hypotheses
    finite = [d for d in inv.local_data if not d.place.is_infinite]
    checks["hyp_multiplicative"] = any(
        d.reduction_type in ("split_mult", "nonsplit_mult") for d in finite)
    if fam.waive_hypotheses:
        notes.append("waived: I0* at >1 affine point; 6B <= N")
    else:
        checks["hyp_two_I0star"] = sum(
            1 for d in finite if str(d.kodaira) == "I0*") > 1
        checks["hyp_6B_le_N"] = 6 * inv.B <= inv.N

    # closed-form root-number law
    law = fam.eps_value(F, n, hw)
    if law is not None:
        checks["epsilon_law"] = inv.epsilon == law

    # square-class conditions for every valid ell; when the root number
    # varies over the w-grid, the eps = 1 requirement in (B)/(C) is only
    # attainable on part of it, so those cells are noted instead of failed
    # (verify_profile still demands an attaining w for every prime)
    if fam.eps_varies() and inv.epsilon != 1:
        notes.append("root number -1: condition not attainable at this cell")
    else:
        for ell in ells:
            if not is_prime(ell) or ell < 5:
                continue
            if not fam.valid_ell(ell) or (6 * p * inv.script_L) % ell == 0:
                continue
            checks[f"condition_{fam.condition}_ell{ell}"] = _condition_holds(
                fam.condition, inv, ell)

    return E, inv, checks, notes


def _condition_holds(cond: str, inv, ell: int) -> bool:
    if cond == "A":
        return (inv.N % 2 == 1 and inv.chi % 2 == 1
                and _qr(inv.gamma, ell) and _qr(2 * inv.c_E, ell))
    if cond == "B":
        return (inv.N % 2 == 0 and not _qr(inv.gamma, ell)
                and inv.epsilon == 1)
    if cond == "C":
        return (inv.N % 2 == 0 and inv.chi % 2 == 1 and _qr(inv.gamma, ell)
                and inv.epsilon == 1 and _qr(inv.c_E, ell))
    raise ValueError(f"unknown condition {cond!r}")


def _cell_task(args):
    fam, n, p, w, ells = args
    _, inv, checks, notes = analyze_cell(fam, p, n, w, ells)
    return {"p": p, "w": w, "checks": checks, "notes": notes,
            "invariants": inv.to_json()}


def verify_profile(fam, n: int, primes, ells=(5, 7, 11, 13, 17, 19, 23),
                   max_w: int | None = None, jobs: int = 1) -> CriterionReport:
    """Run the full per-cell comparison over the (p, w) grid.

    Failures are recorded in the report, never raised.  Primes that hit the
    family's excluded set or a mod-p degeneracy are listed as skipped.  With
    jobs > 1 the cells are analyzed by a process pool and merged back in
    grid order, so reports are identical to a serial run."""
    if isinstance(fam, str):
        fam = FAMILIES[fam]
    rep = CriterionReport(family=fam.fid, n=n, condition=fam.condition)
    if fam.waive_hypotheses:
        rep.waivers = ["I0* at only one affine closed point", "6B > N"]
    grid = []
    for p in primes:
        if not fam.valid_prime(p, n):
            rep.skipped_primes.append([p, "excluded or degenerate mod p"])
            continue
        if fam.eps_minus_one_at(p, n):
            rep.skipped_primes.append(
                [p, "root number is -1 for every w at this prime"])
            continue
        ws = fam.W_set(p, n)
        if not ws:
            rep.skipped_primes.append([p, "empty twist-parameter set W(F_p)"])
            continue
        if max_w is not None:
            ws = ws[:max_w]
        grid.extend((p, w) for w in ws)

    tasks = [(fam, n, p, w, tuple(ells)) for p, w in grid]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_cell_task, tasks))
    else:
        cells = [_cell_task(t) for t in tasks]
    rep.cells.extend(cells)

    for p in dict.fromkeys(p for p, _ in grid):
        mine = [c for c in cells if c["p"] == p]
        kods = {c["w"]: tuple(sorted(c["invariants"]["kodaira"].items()))
                for c in mine}
        if len(set(kods.values())) > 1:
            rep.kodaira_mismatch.append([p, sorted(kods.items())])
        if fam.eps_varies() and all(c["invariants"]["epsilon"] != 1
                                    for c in mine):
            rep.unattained.append([p, "no w with root number 1"])
    return rep


def epsilon_law_check(fam, p: int, n: int, w: int):
    """Evaluate the family's closed-form root-number law at one grid cell.

    Returns True/False, or None when the family states no law."""
    if isinstance(fam, str):
        fam = FAMILIES[fam]
    if fam.eps is None:
        return None
    _, _, checks, _ = analyze_cell(fam, p, n, w, ells=())
    return checks["epsilon_law"]
