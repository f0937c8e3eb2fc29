import dataclasses
import hashlib
import json
import random

import pytest

from ffell.algebra import (Poly, PrimeField, build_extension, factor,
                           is_irreducible, is_prime, legendre)
from ffell.curves import WeierstrassCurve
from ffell.families import FAMILIES
from ffell import lfunction
from ffell.lfunction import global_invariants
from ffell.places import Place, enumerate_places, residue_field
from ffell.reduction import (INF, _classify, _cubic_roots, _digits,
                             _leading, local_reduce, local_root_factor)

from oracles import _div, rebuilt, reduce_at, reference_local_reduce
from test_acceptance import CORPUS_SPECS, PROFILE_GRIDS


def intro_base(p):
    F = PrimeField(p)
    t = Poly.t(F)
    u = t * t - 1
    return WeierstrassCurve(Poly(F, []), 3 * u ** 3, -2 * u ** 5)


def intro_Em(p, m):
    F = PrimeField(p)
    return intro_base(p).twist_by(Poly(F, [-m, 1]))


def bad_places(curve):
    """Finite places dividing Delta, plus infinity."""
    F = curve.field
    _, facs = factor(curve.delta)
    out = [Place.finite(F, pi) for pi, _ in facs]
    out.append(Place.infinity(F))
    return out


def kodaira_multiset(curve):
    out = {}
    for x in bad_places(curve):
        data = local_reduce(curve, x)
        if data.kodaira == "I0":
            continue
        key = data.kodaira
        out[key] = out.get(key, 0) + x.degree
    return out


class TestExactDivision:
    def test_pole_rejected(self):
        # pi^k must divide f: a remainder is an error, at degree 1 and 2
        F = PrimeField(5)
        t = Poly.t(F)
        for pi in (t, t ** 2 + 2):
            g = t ** 3 + t + 1          # coprime to both places
            f = pi ** 2 * g
            for k in range(3):
                assert _div(f, pi, k) == pi ** (2 - k) * g
            for k in (3, 4):
                with pytest.raises(ValueError):
                    _div(f, pi, k)
            with pytest.raises(ValueError):
                _div(g, pi, 1)

    @pytest.mark.parametrize("p", [5, 7])
    def test_leading_digit_against_division(self, p):
        # _leading reads Taylor coefficients by synthetic division at a
        # rational place t - a and walks the division chain at degree 2:
        # both against f / pi^v mod pi, for valuations up to p + 1, where
        # v! = 0 mod p, and for f = 0
        F = PrimeField(p)
        rng = random.Random(100 + p)
        places = [Place.rational(F, a) for a in range(p)]
        places += [random_place(F, rng, 2) for _ in range(3)]
        for x in places:
            assert _leading(Poly(F, []), x) == (INF, reduce_at(Poly(F, []), x))
        for _ in range(30):
            g = random_poly(F, rng, rng.randrange(-1, 4))
            for x in places:
                for k in (rng.randrange(3), p, p + 1):
                    f = x.pi ** k * g
                    v = INF if not f else f.valuation(x.pi)
                    ref = reduce_at(f if v == INF else _div(f, x.pi, v), x)
                    assert _leading(f, x) == (v, ref), (f, x)

    def test_cancellation_before_reduction(self):
        F = PrimeField(5)
        t = Poly.t(F)
        f = _div(t * (t - 1), t, 1)     # t(t-1)/t = t-1, integral at t=0
        assert reduce_at(f, Place.rational(F, 0)) == -1 % 5


class TestKodairaTable:
    """Silverman, Advanced Topics, IV.9, Table 4.1, in residue characteristic
    >= 5: minimal (v(c4), v(c6), v(Delta)) -> symbol and (f, e, gamma,
    lambda, r, b).  Written out literally: tests/oracles.py shares
    _classify, so this table is the one independent check of the rows."""

    TABLE = [
        ((0, 0, 0), "I0", (0, 0, 1, 1, 1, 0)),
        ((0, 0, 1), "I1", (1, 1, 1, 1, 1, 0)),
        ((0, 0, 2), "I2", (1, 2, 1, 2, 1, 0)),
        ((0, 0, 5), "I5", (1, 5, 5, 5, 1, 0)),
        ((1, 1, 2), "II", (2, 2, 1, 1, 1, 1)),
        ((1, 2, 3), "III", (2, 3, 1, 1, 2, 1)),
        ((2, 2, 4), "IV", (2, 4, 3, 1, 3, 1)),
        ((2, 3, 6), "I0*", (2, 6, 1, 1, 1, 0)),
        ((3, 3, 6), "I0*", (2, 6, 1, 1, 1, 0)),
        ((2, 3, 7), "I1*", (2, 7, 2, 1, 1, 1)),
        ((2, 3, 8), "I2*", (2, 8, 1, 2, 1, 1)),
        ((2, 3, 9), "I3*", (2, 9, 2, 3, 1, 1)),
        ((2, 3, 10), "I4*", (2, 10, 1, 4, 1, 1)),
        ((3, 4, 8), "IV*", (2, 8, 3, 1, 3, 1)),
        ((3, 5, 9), "III*", (2, 9, 1, 1, 2, 1)),
        ((4, 5, 10), "II*", (2, 10, 1, 1, 1, 1)),
    ]

    @pytest.mark.parametrize(
        "vals,symbol,row", TABLE,
        ids=[f"{sym}:{a},{b},{d}" for (a, b, d), sym, _ in TABLE])
    def test_row(self, vals, symbol, row):
        assert _classify(*vals) == (
            symbol, dict(zip(("f", "e", "gamma", "lam", "r", "b"), row)))

    @pytest.mark.parametrize("vals", [(1, 1, 3), (2, 3, 5), (4, 6, 12)])
    def test_impossible_valuations_rejected(self, vals):
        with pytest.raises(AssertionError):
            _classify(*vals)


class TestIntroFamily:
    @pytest.mark.parametrize("p,m", [(5, 2), (7, 3), (11, 2), (13, 5)])
    def test_symbols(self, p, m):
        E = intro_Em(p, m)
        F = E.field
        assert local_reduce(E, Place.rational(F, 0)).kodaira == "I2"
        assert local_reduce(E, Place.rational(F, 1)).kodaira == "III*"
        assert local_reduce(E, Place.rational(F, -1)).kodaira == "III*"
        assert local_reduce(E, Place.rational(F, m)).kodaira == "I0*"
        assert local_reduce(E, Place.infinity(F)).kodaira == "II*"

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_tamagawa_dichotomy(self, p):
        # 2 c_{E_m} in {16, 64} iff -3(m^2-1) is a square, else 32
        for m in range(p):
            if m * (m * m - 1) % p == 0:
                continue
            E = intro_Em(p, m)
            c = 1
            for x in bad_places(E):
                c *= local_reduce(E, x).c
            if legendre(-3 * (m * m - 1), p) == 1:
                assert 2 * c in (16, 64)
            else:
                assert 2 * c == 32

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_epsilon_dichotomy(self, p):
        # -eps_{E_m} = +1 iff -3m is a square
        for m in range(p):
            if m * (m * m - 1) % p == 0:
                continue
            E = intro_Em(p, m)
            eps = 1
            for x in bad_places(E):
                eps *= local_root_factor(local_reduce(E, x))
            assert (-eps == 1) == (legendre(-3 * m, p) == 1)


class TestGoodPlace:
    def test_good_row(self):
        E = intro_Em(5, 2)
        data = local_reduce(E, Place.rational(PrimeField(5), 3))
        assert data.kodaira == "I0"
        assert data.c == 1 and data.f == 0 and data.reduction_type == "good"
        assert local_root_factor(data) == 1

    def test_chi_integrality(self):
        # sum e_x deg x = 0 mod 12
        for p, m in [(5, 2), (7, 2), (11, 3)]:
            E = intro_Em(p, m)
            total = sum(local_reduce(E, x).e * x.degree for x in bad_places(E))
            assert total % 12 == 0


class TestMultiplicative:
    def test_split_node_by_construction(self):
        # y^2 = x^2 (x+1): node at origin with rational slopes +-1
        F = PrimeField(7)
        t = Poly.t(F)
        # family specializing to that cubic at t=0: y^2 = x^3 + x^2 + t*c
        E = WeierstrassCurve(Poly(F, [1]), Poly(F, []), t)
        data = local_reduce(E, Place.rational(F, 0))
        assert data.reduction_type == "split_mult"

    def test_split_vs_count(self):
        # at a multiplicative place the singular cubic has q - a_x affine
        # points with a_x = +-1 per split type; check sign via tangent test
        E = intro_Em(5, 2)
        F = PrimeField(5)
        data = local_reduce(E, Place.rational(F, 0))
        assert data.reduction_type in ("split_mult", "nonsplit_mult")
        assert data.a_x == (1 if data.reduction_type == "split_mult" else -1)


class TestInStarSubprocedure:
    def test_section54_n0(self):
        # base y^2 = x(x+tf)(x+t^2 f), f=(t-2)(t-3), twisted by (t-4):
        # I_2* at 0 and oo with c=4, I_2 at 1 with c=2, I_0* at 4 with c=4
        for p in (5, 11, 13):
            F = PrimeField(p)
            t = Poly.t(F)
            f = (t - 2) * (t - 3)
            base = WeierstrassCurve(t * (t + 1) * f, t ** 3 * f ** 2, Poly(F, []))
            assert local_reduce(base, Place.rational(F, 0)).kodaira == "I2*"
            assert local_reduce(base, Place.infinity(F)).kodaira == "I2"
            E = base.twist_by(t - 4)
            for x in (Place.rational(F, 0), Place.infinity(F)):
                data = local_reduce(E, x)
                assert data.kodaira == "I2*"
                assert data.c == 4
            d1 = local_reduce(E, Place.rational(F, 1))
            assert d1.kodaira == "I2"
            assert d1.c == 2
            d4 = local_reduce(E, Place.rational(F, 4))
            assert d4.kodaira == "I0*"
            assert d4.c == 4


class TestTwistLaws:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_constant_nonsquare_twist(self, p):
        beta = next(b for b in range(2, p) if legendre(b, p) == -1)
        E = intro_Em(p, 2 if p != 5 else 3)
        Et = E.twist_by(beta)
        prod = 1
        for x in bad_places(E):
            d1 = local_reduce(E, x)
            d2 = local_reduce(Et, x)
            assert d1.kodaira == d2.kodaira
            prod *= d1.c * d2.c * d1.gamma ** x.degree
        r = int(prod ** 0.5 + 0.5)
        assert r * r == prod

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_tm_twist_pairing(self, p):
        # twisting by t-m: one good place becomes I_0*, infinity pairs up
        pairing = [{"II", "IV*"}, {"IV", "II*"}, {"III", "III*"}]
        F = PrimeField(p)
        E = intro_base(p)
        k_inf = local_reduce(E, Place.infinity(F)).kodaira
        for m in range(p):
            if not E.delta(m):
                continue
            Em = E.twist_by(Poly(F, [-m, 1]))
            assert local_reduce(Em, Place.rational(F, m)).kodaira == "I0*"
            k_inf_m = local_reduce(Em, Place.infinity(F)).kodaira
            pair = {k_inf, k_inf_m}
            assert (pair in pairing
                    or (k_inf.startswith("I") and not k_inf.startswith(("II", "III", "IV"))
                        and k_inf_m == k_inf + "*"))
            # finite places other than m keep their symbols
            for a in range(p):
                if a == m or not E.delta(a):
                    continue
                x = Place.rational(F, a)
                assert local_reduce(E, x).kodaira == local_reduce(Em, x).kodaira


class TestDegreeTwoPlace:
    def test_deg2_reduction(self):
        # intro base over F_5: t^2+2 is irreducible and coprime to Delta
        F = PrimeField(5)
        pi = Poly(F, [2, 0, 1])
        E = intro_Em(5, 2)
        x = Place.finite(F, pi)
        data = local_reduce(E, x)
        assert data.kodaira == "I0"
        K = residue_field(x)
        assert abs(data.a_x) <= 2 * 5  # Hasse over F_25


def count_cubic_roots(K, a, b):
    """Roots of T^3 + aT + b (raw values of K), by trying every element of
    the field."""
    mul, add = K.mul, K.add
    return sum(1 for u in K.elements()
               if K.is_zero(add(mul(add(mul(u, u), a), u), b)))


def cubic_discriminant(K, a, b):
    """-4a^3 - 27b^2 in K."""
    return K.sub(K.mul(K.coerce(-4), K.pow(a, 3)),
                 K.mul(K.coerce(27), K.mul(b, b)))


class TestCubicRoots:
    @pytest.mark.parametrize("p", [5, 7, 11])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_brute_force(self, p, d):
        K = build_extension(p, d)
        elements = list(K.elements())
        rng = random.Random(p * 10 + d)
        cubics = []
        while len(cubics) < 40:
            a, b = rng.choice(elements), rng.choice(elements)
            if len(cubics) < 6:
                a = K.zero_raw        # T^3 + b
            elif len(cubics) < 12:
                b = K.zero_raw        # T (T^2 + a)
            if not K.is_zero(cubic_discriminant(K, a, b)):
                cubics.append((a, b))
        outcomes, disc_classes = set(), set()
        for a, b in cubics:
            n = count_cubic_roots(K, a, b)
            assert _cubic_roots(K, a, b) == n, (a, b)
            outcomes.add(n)
            disc_classes.add(K.legendre_raw(cubic_discriminant(K, a, b)))
        assert outcomes == {0, 1, 3}
        assert disc_classes == {1, -1}

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("deg", [2, 3])
    def test_I0star_tamagawa(self, p, deg):
        # twisting by pi puts I0* at a place of good reduction; c is 1 plus
        # the roots of the reduced cubic T^3 + (A/pi^2) T + (B/pi^3)
        F = PrimeField(p)
        t = Poly.t(F)
        E = WeierstrassCurve(Poly(F, []), t ** 2 + 2 * t - 1, t ** 3 + 3)
        seen = set()
        for x in enumerate_places(F, deg):
            if x.degree != deg or not E.delta % x.pi:
                continue
            Et = E.twist_by(x.pi)
            data = local_reduce(Et, x)
            assert data.kodaira == "I0*"
            A, B = Et.A, Et.B
            a = reduce_at(_div(A, x.pi, 2), x)
            b = reduce_at(_div(B, x.pi, 3), x)
            assert len(a) == len(b) == deg  # raw values of F_p[t]/(pi)
            assert data.c == 1 + count_cubic_roots(residue_field(x), a, b)
            seen.add(data.c)
        assert seen == {1, 2, 4}


def random_place(F, rng, d):
    while True:
        pi = Poly(F, [rng.randrange(F.p) for _ in range(d)] + [1])
        if is_irreducible(pi):
            return Place.finite(F, pi)


def random_poly(F, rng, deg):
    return Poly(F, [rng.randrange(F.p) for _ in range(deg + 1)])


def matches_reference(E, x):
    """local_reduce(E, x), after checking it against the reference."""
    got, ref = local_reduce(E, x), reference_local_reduce(E, x)
    assert got.to_json() == ref.to_json(), (E, x)
    assert got.minimal_fiber == ref.minimal_fiber, (E, x)
    return got


class TestClosedFormsAgainstReference:
    """The closed-form split test and I_n* Tamagawa numbers, and the
    reversed (A, B, Delta) at infinity, against Tate's subprocedure, the
    tangent slopes at the node and the rebuilt model (tests/oracles.py)."""

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_multiplicative_and_In_star(self, p):
        # y^2 = x^3 + a x^2 + pi^n (r x + g), a and g units at pi: I_n with
        # the node at 0 and tangents y^2 = a x^2; twisting by pi gives I_n*
        F = PrimeField(p)
        rng = random.Random(p)
        split_types, star_cases = set(), set()
        for d in (1, 2, 3):
            for n in range(1, 7):
                for _ in range(3):
                    x = random_place(F, rng, d)
                    a, g = (random_poly(F, rng, d) for _ in range(2))
                    if not (a % x.pi and g % x.pi):
                        continue
                    pin = x.pi ** n
                    E = WeierstrassCurve(a, pin * random_poly(F, rng, 2),
                                         pin * g)
                    data = matches_reference(E, x)
                    assert data.kodaira == f"I{n}"
                    split_types.add(data.reduction_type)
                    Et = E.twist_by(x.pi)
                    data = matches_reference(Et, x)
                    assert data.kodaira == f"I{n}*"
                    star_cases.add((n % 2, data.c))
                    for E1 in (E, Et):
                        matches_reference(E1, Place.infinity(F))
        assert split_types == {"split_mult", "nonsplit_mult"}
        assert star_cases == {(0, 2), (0, 4), (1, 2), (1, 4)}

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_infinity_on_random_models(self, p):
        F = PrimeField(p)
        rng = random.Random(100 + p)
        symbols = set()
        for _ in range(200):
            k = rng.randrange(1, 4)
            coeffs = [random_poly(F, rng, rng.randrange(-1, i * k + 1))
                      for i in (2, 4, 6)]
            try:
                E = WeierstrassCurve(*coeffs)
            except ValueError:          # zero discriminant
                continue
            symbols.add(matches_reference(E, Place.infinity(F)).kodaira)
        assert {"I0", "I0*", "II", "III", "IV", "IV*", "III*", "II*"} <= symbols
        # and I_n, I_n* with n >= 1
        assert any(s[1] in "123456789" for s in symbols)
        assert any(s[1] in "123456789" for s in symbols if "*" in s)

    def test_j_zero_and_1728(self):
        # A = 0 or B = 0 leaves v(A) or v(B) infinite; it must not bound s
        F = PrimeField(7)
        t = Poly.t(F)
        zero = Poly(F, [])
        E0 = WeierstrassCurve(zero, zero, t ** 7 * (t + 1))  # y^2 = x^3 + B
        E1 = WeierstrassCurve(zero, t ** 5, zero)            # y^2 = x^3 + Ax
        for E, at0, at_inf in ((E0, "II", "IV*"), (E1, "III", "III*")):
            assert matches_reference(E, Place.rational(F, 0)).kodaira == at0
            assert matches_reference(E, Place.infinity(F)).kodaira == at_inf

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_infinity_weight_from_short_model(self, p):
        # a2 = t^4, a4 = t^8/3, a6 = t^12/27 + c has A = 0 and B = c: the
        # weight at infinity is 2 from the a_i but 1 from A and B
        F = PrimeField(p)
        t = Poly.t(F)
        a2, a4 = t ** 4, t ** 8 * pow(3, p - 2, p)
        for c in range(1, p):
            E = WeierstrassCurve(a2, a4, t ** 12 * pow(27, p - 2, p) + c)
            assert not E.A and E.B == Poly(F, [c])
            data = matches_reference(E, Place.infinity(F))
            assert data.kodaira == "I0"

    def test_bad_places_of_family_cells(self):
        # the first W-cell of each built-in family at its first prime with
        # one: the I_n*, IV*, III* and II* places the grids verify
        symbols = set()
        for fam in FAMILIES.values():
            n = fam.nmin
            p, w = next((p, fam.W_set(p, n)[0]) for p in range(5, 100)
                        if is_prime(p) and fam.valid_prime(p, n)
                        and fam.W_set(p, n))
            E = fam.instantiate(p, n, w)
            for x in bad_places(E):
                symbols.add(matches_reference(E, x).kodaira)
        assert {"I1*", "I2*", "I4*", "IV", "IV*", "III", "III*", "II",
                "II*"} <= symbols


class TestDeltaDigit:
    """_digits reads Delta = -64 A^3 - 432 B^2's pair off A's and B's
    where 3 v(A) != 2 v(B), and walks Delta's own chain only where they
    tie."""

    @staticmethod
    def check(E, places, branches):
        for x in places:
            fresh = [_leading(f, x) for f in (E.A, E.B, E.delta)]
            assert _digits(E, x) == fresh, (E, x)
            (vA, _), (vB, _), _ = fresh
            branches.add((3 * vA > 2 * vB) - (3 * vA < 2 * vB))

    def test_corpus(self):
        branches = set()
        for fid, n in CORPUS_SPECS:
            fam = FAMILIES[fid]
            for p in (5, 7, 11, 13):
                if fam.valid_prime(p, n):
                    for w in fam.W_set(p, n):
                        E = rebuilt(fam.instantiate(p, n, w))
                        self.check(E, lfunction.bad_places(E), branches)
        assert branches == {-1, 0, 1}

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_random_curves(self, p):
        # bad places of degree 1 up to 12, A = 0 and B = 0 among them
        F = PrimeField(p)
        rng = random.Random(200 + p)
        branches, zeros = set(), set()
        for i in range(60):
            coeffs = [random_poly(F, rng, rng.randrange(-1, 2 * k + 1))
                      for k in (1, 2, 3)]
            if i % 10 == 0:             # a2 = 0 and a4 or a6 = 0
                coeffs[0] = coeffs[1 + i % 20 // 10] = Poly(F, [])
            try:
                E = WeierstrassCurve(*coeffs)
            except ValueError:          # zero discriminant
                continue
            self.check(E, bad_places(E), branches)
            zeros |= {k for k in "AB" if not getattr(E, k)}
        assert branches == {-1, 0, 1} and zeros == {"A", "B"}


def check_inherited(E):
    """A twist's bad places, digits and isotriviality, read off its base,
    against a fresh computation on its own A, B and Delta, at its bad places
    and at infinity; returns the factorization of its Delta."""
    facs = factor(E.delta)[1]
    F = E.field
    places = [Place.finite(F, pi) for pi, _ in facs] + [Place.infinity(F)]
    assert lfunction.bad_places(E) == places, E
    for x in places:
        fresh = [_leading(f, x) for f in (E.A, E.B, E.delta)]
        assert _digits(E, x) == fresh, (E, x)
    q, r = divmod(E.A ** 3, E.delta)
    assert E.is_isotrivial() == (not r and q.degree <= 0), E
    return facs


class TestTwistInheritance:
    """Twists read their bad places, leading digits and isotriviality off
    their base (lfunction.bad_places, reduction._digits)."""

    def test_every_grid_cell(self):
        cells = 0
        for (fid, n), primes in PROFILE_GRIDS.items():
            fam = FAMILIES[fid]
            for p in primes:
                if not fam.valid_prime(p, n):
                    continue
                for w in fam.W_set(p, n):
                    E = fam.instantiate(p, n, w)
                    assert E.twist_of[0] is fam.base_curve(p, n)
                    check_inherited(E)
                    cells += 1
        assert cells >= 307

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_small_twists(self, p):
        F = PrimeField(p)
        t = Poly.t(F)
        beta = next(b for b in range(2, p) if legendre(b, p) == -1)
        E = intro_base(p)            # Delta_0 = c t^2 (t - 1)^9 (t + 1)^9
        j0 = WeierstrassCurve(Poly(F, []), Poly(F, []), t * (t + 1))
        d2 = 2 * (t - 1) * (t - 3)          # shares t - 1 with Delta_0
        twists = [E.twist_by(beta), E.twist_by(d2),
                  E.twist_by(t - 2).twist_by(t * t - 2 * t + 1),
                  E.twist_by(d2).twist_by(beta * (t + 1)), j0.twist_by(t),
                  j0.twist_by(t + 2).twist_by(t + 2)]
        for Et in twists:
            facs = dict(check_inherited(Et))
            base, d = Et.twist_of
            base_facs = dict(factor(base.delta)[1])
            for pi, m in factor(d)[1]:
                assert facs[pi] == base_facs.get(pi, 0) + 6 * m
            plain = rebuilt(Et)
            places = [Place.finite(F, pi) for pi in facs]
            for x in places + [Place.infinity(F)]:
                got = local_reduce(Et, x)
                ref = local_reduce(plain, x)
                assert got.to_json() == ref.to_json(), (Et, x)
                assert got.minimal_fiber == ref.minimal_fiber, (Et, x)
        # e > 0 at a base place: v(Delta) at t - 1 is 9 + 6
        x = Place.rational(F, 1)
        assert _digits(E.twist_by(d2), x)[2][0] == 15

    def test_I0star_root_counts_shared_at_units(self):
        # where d is a unit u at a base I0* place, the twist reads the
        # base's local data there, memoised under (place, 0, chi(u)):
        # bases with two such places of different c catch a memo that
        # ignores the place
        checked, distinct = 0, 0
        for (fid, n), primes in PROFILE_GRIDS.items():
            fam = dataclasses.replace(FAMILIES[fid])        # empty memo
            for p in primes:
                if not fam.valid_prime(p, n):
                    continue
                base = fam.base_curve(p, n)
                star = [x for x in bad_places(base)
                        if local_reduce(base, x).kodaira == "I0*"]
                for w in fam.W_set(p, n):
                    E = fam.instantiate(p, n, w)
                    cs = set()
                    for x in star:
                        e, u = _leading(E.twist_of[1], x)
                        if e != 0:
                            continue
                        data = local_reduce(E, x)
                        c = data.c
                        assert c == local_reduce(rebuilt(E), x).c, (fid, x)
                        chi = residue_field(x).legendre_raw(u)
                        assert base._memo[x, 0, chi] is data, (fid, x)
                        cs.add(c)
                        checked += 1
                    distinct += len(cs) > 1
        assert checked == 652 and distinct > 0, (checked, distinct)

    def test_only_bases_of_twists_memoise(self):
        F = PrimeField(7)
        E = intro_base(7)
        global_invariants(E)
        assert E.twist_of is None and E._memo == {}
        Et = E.twist_by(Poly.t(F) - 2)
        inv = global_invariants(Et)
        assert Et._memo == {}
        assert {"places", "isotrivial"} <= set(E._memo)
        assert inv.to_json() == global_invariants(rebuilt(Et)).to_json()

    def test_twists_of_one_base_share_its_infinity(self):
        # the base's bad places, infinity included, are built once; a twist
        # copies the list rather than extending it
        F = PrimeField(7)
        t = Poly.t(F)
        E = intro_base(7)
        E1, E2 = E.twist_by(t - 2), E.twist_by(t * t + 1)
        x1, x2 = lfunction.bad_places(E1), lfunction.bad_places(E2)
        assert x1[-1] is x2[-1] and x1[-1].is_infinite
        assert E._memo["places"] == bad_places(E)
        assert x1 == bad_places(E1) and x2 == bad_places(E2)

    def test_twist_places_built_once_per_base(self, monkeypatch):
        # d = t - 2 and d = 3 (t - 2) (t - 3) share the place t - 2, which
        # the base lacks; it is built at the first twist only
        F = PrimeField(7)
        t = Poly.t(F)
        E = intro_base(7)
        built = []

        def counting(field, pi):
            built.append(pi)
            return make(field, pi)

        make = Place.finite
        monkeypatch.setattr(Place, "finite", staticmethod(counting))
        x1 = lfunction.bad_places(E.twist_by(t - 2))
        assert built == [pi for pi, _ in factor(E.delta)[1]] + [t - 2]
        built.clear()
        E2 = E.twist_by(3 * (t - 2) * (t - 3))
        x2 = lfunction.bad_places(E2)
        assert built == [t - 3]
        shared = [x for x in x1 + x2 if x.pi == t - 2]
        assert len(shared) == 2 and shared[0] is shared[1]
        monkeypatch.undo()
        assert x2 == bad_places(E2)


def assert_as_rebuilt(E):
    """E's local data at each of its bad places equals that of its model
    rebuilt with no base."""
    plain = rebuilt(E)
    for x in lfunction.bad_places(E):
        got, ref = local_reduce(E, x), local_reduce(plain, x)
        assert got.to_json() == ref.to_json(), (E, x)
        assert got.minimal_fiber == ref.minimal_fiber, (E, x)


class TestTwistLocalDataMemo:
    """A twist by d reads its local data at x off its base, memoised under
    (x, e, chi(u)) with (e, u) = _leading(d, x), except at I0."""

    def test_grid_cells_in_shuffled_order(self):
        # fresh family memos, so each cell reads base entries that cells
        # before it, of any w, filled
        cells = []
        for (fid, n), primes in PROFILE_GRIDS.items():
            fam = dataclasses.replace(FAMILIES[fid])        # empty memo
            cells += [(fam, p, n, w) for p in primes
                      if fam.valid_prime(p, n) for w in fam.W_set(p, n)]
        assert len(cells) == 307
        random.Random(19).shuffle(cells)
        for fam, p, n, w in cells:
            assert_as_rebuilt(fam.instantiate(p, n, w))

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_twists_of_one_base(self, p):
        F = PrimeField(p)
        t = Poly.t(F)
        beta = next(b for b in range(2, p) if legendre(b, p) == -1)
        pi = t - 2
        # non-minimal at t = 2 (A pi^4, B pi^6 with A(2) B(2) Delta(2) != 0):
        # I0 there, and a twist by c or 4c keeps e = 0 and chi(c) but not
        # the minimal fiber
        base = WeierstrassCurve(Poly(F, []), pi ** 4 * (t + 1), pi ** 6 * t)
        x = Place.rational(F, 2)
        assert local_reduce(base, x).kodaira == "I0"
        E0 = intro_base(p)       # Delta_0 = c t^2 (t - 1)^9 (t + 1)^9
        # constants (e = 0 everywhere) in both square classes; d sharing a
        # base place (t - 2 of base, t and t - 1 of E0: e = 1 there) with
        # leading digits of both classes; deg d odd and even (e = -deg d
        # at infinity)
        ds = ([Poly(F, [c]) for c in (1, 4, beta, 4 * beta)]
              + [pi, beta * pi, pi * (t - 3), t, beta * t * (t - 1),
                 t * t - 3, beta * (t - 3) ** 3, (t + 1) ** 4])
        for order in (ds, ds[::-1]):
            for d in order:
                assert_as_rebuilt(base.twist_by(d))
                assert_as_rebuilt(E0.twist_by(d))
        assert any(len(key) == 3 and key[0] == x and key[1] == 1
                   for key in base._memo)

    def test_miss_reads_d_once(self, monkeypatch):
        # on a memo miss (a fresh base) and at I0 the twist reads d's
        # valuation and leading digit once, for the key and the scaling
        from ffell import reduction
        reads = []

        def counting(f, x):
            if f is d:
                reads.append(x)
            return leading(f, x)

        leading = reduction._leading
        monkeypatch.setattr(reduction, "_leading", counting)
        F = PrimeField(7)
        t = Poly.t(F)
        d = t - 2
        E = intro_base(7).twist_by(d)
        places = lfunction.bad_places(E) + [Place.rational(F, 3)]
        for x in places:
            reads.clear()
            local_reduce(E, x)
            assert reads == [x], x
        assert local_reduce(E, places[-1]).kodaira == "I0"


# sha256 over every cell of PROFILE_GRIDS, in grid order, of
# json.dumps([d.to_json() for d in global_invariants(E).local_data],
# sort_keys=True): computed at commit f53baf5, before the residue-field
# arithmetic and its reference oracles moved to raw field values
GRID_LOCAL_DATA_SHA256 = (
    "6398437ab1c427051f8b5a58cfce58d4b332a7192371f7b759c01ae5d16212d1")


def test_grid_local_data_digest():
    """The local data of every grid cell, pinned independently of both the
    production code and the reference oracles."""
    h = hashlib.sha256()
    cells = places = 0
    for (fid, n), primes in PROFILE_GRIDS.items():
        fam = FAMILIES[fid]
        for p in primes:
            if not fam.valid_prime(p, n):
                continue
            for w in fam.W_set(p, n):
                data = global_invariants(fam.instantiate(p, n, w)).local_data
                h.update(json.dumps([d.to_json() for d in data],
                                    sort_keys=True).encode())
                cells += 1
                places += len(data)
    assert (cells, places) == (307, 2088)
    assert h.hexdigest() == GRID_LOCAL_DATA_SHA256


def seeded_short_models(p, count):
    """count seeded short models over F_p, each followed by one twist.
    Half are perturbed nodes y^2 = (x - u)^2 (x + 2u) + ..., which put
    I_n and, after the twist, I_n* at infinity too."""
    F = PrimeField(p)
    rng = random.Random(2000 + p)
    out = []
    while len(out) < 2 * count:
        h = random_place(F, rng, 1).pi
        A = h ** rng.randrange(5) * random_poly(F, rng, rng.randrange(-1, 4))
        B = h ** rng.randrange(7) * random_poly(F, rng, rng.randrange(-1, 4))
        if rng.randrange(2):
            u = random_poly(F, rng, rng.randrange(3))
            A, B = -3 * u * u + A, 2 * u ** 3 + B
        d = random_poly(F, rng, rng.randrange(3))
        try:
            E = WeierstrassCurve(Poly(F, []), A, B)
        except ValueError:          # zero discriminant
            continue
        if d:
            out += [E, E.twist_by(d)]
    return out


def off_grid_local_data():
    """(places, sha256) over seeded_short_models(p, 30), p = 5, 7, 11, 13,
    of json.dumps([[d.to_json(), d.minimal_fiber] for each place],
    sort_keys=True) per model; its places are its bad places, infinity and
    two seeded places of degree <= 2."""
    h = hashlib.sha256()
    places = 0
    for p in (5, 7, 11, 13):
        F = PrimeField(p)
        rng = random.Random(3000 + p)
        for E in seeded_short_models(p, 30):
            xs = [Place.finite(F, pi) for pi, _ in factor(E.delta)[1]]
            xs.append(Place.infinity(F))
            xs += [random_place(F, rng, rng.randrange(1, 3)) for _ in range(2)]
            rows = [[d.to_json(), d.minimal_fiber]
                    for d in (local_reduce(E, x) for x in xs)]
            h.update(json.dumps(rows, sort_keys=True).encode())
            places += len(rows)
    return places, h.hexdigest()


# off_grid_local_data(), computed at commit ec2d766, before Tate's algorithm
# read residue-field values and treated infinity as an ordinary place
OFF_GRID_LOCAL_DATA = (
    1532, "88673d545d2cfff5a98d94300f03cc3ccf1ef4e6ec54b63ca72c8c6cff36bf60")


def test_off_grid_local_data_digest():
    """Local data and minimal fibers off the family grid: every Kodaira
    type at finite places and at infinity, good places of degree 1 and 2
    through place_trace, and twists by non-monic d, which no family member
    is."""
    assert off_grid_local_data() == OFF_GRID_LOCAL_DATA
