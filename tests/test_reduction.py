import pytest

from ffell.algebra import Poly, PrimeField, factor, legendre
from ffell.curves import WeierstrassCurve
from ffell.places import Place, reduce_at, residue_field
from ffell.reduction import (KodairaSymbol, _div, local_reduce,
                             local_root_factor, split_type, table_row,
                             tamagawa)


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
        if str(data.kodaira) == "I0":
            continue
        key = str(data.kodaira)
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

    def test_cancellation_before_reduction(self):
        F = PrimeField(5)
        t = Poly.t(F)
        f = _div(t * (t - 1), t, 1)     # t(t-1)/t = t-1, integral at t=0
        assert reduce_at(f, Place.rational(F, 0)) == F(-1)


class TestKodairaSymbol:
    def test_str_and_parse_roundtrip(self):
        for s in ("I0", "I5", "I0*", "I3*", "II", "III", "IV", "IV*", "III*", "II*"):
            assert str(KodairaSymbol.parse(s)) == s

    def test_table_row_I2(self):
        row = table_row(KodairaSymbol.parse("I2"))
        assert row == dict(f=1, e=2, gamma=1, lam=2, r=1, b=0)

    def test_table_row_In_star_parity(self):
        assert table_row(KodairaSymbol.parse("I3*"))["gamma"] == 2
        assert table_row(KodairaSymbol.parse("I4*"))["gamma"] == 1


class TestIntroFamily:
    @pytest.mark.parametrize("p,m", [(5, 2), (7, 3), (11, 2), (13, 5)])
    def test_symbols(self, p, m):
        E = intro_Em(p, m)
        F = E.field
        assert str(local_reduce(E, Place.rational(F, 0)).kodaira) == "I2"
        assert str(local_reduce(E, Place.rational(F, 1)).kodaira) == "III*"
        assert str(local_reduce(E, Place.rational(F, -1)).kodaira) == "III*"
        assert str(local_reduce(E, Place.rational(F, m)).kodaira) == "I0*"
        assert str(local_reduce(E, Place.infinity(F)).kodaira) == "II*"

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_tamagawa_dichotomy(self, p):
        # 2 c_{E_m} in {16, 64} iff -3(m^2-1) is a square, else 32
        F = PrimeField(p)
        for m in range(p):
            if m * (m * m - 1) % p == 0:
                continue
            E = intro_Em(p, m)
            c = 1
            for x in bad_places(E):
                c *= tamagawa(E, x)
            if legendre(F(-3 * (m * m - 1))) == 1:
                assert 2 * c in (16, 64)
            else:
                assert 2 * c == 32

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_epsilon_dichotomy(self, p):
        # -eps_{E_m} = +1 iff -3m is a square
        F = PrimeField(p)
        for m in range(p):
            if m * (m * m - 1) % p == 0:
                continue
            E = intro_Em(p, m)
            eps = 1
            for x in bad_places(E):
                eps *= local_root_factor(local_reduce(E, x))
            assert (-eps == 1) == (legendre(F(-3 * m)) == 1)


class TestGoodPlace:
    def test_good_row(self):
        E = intro_Em(5, 2)
        data = local_reduce(E, Place.rational(PrimeField(5), 3))
        assert str(data.kodaira) == "I0"
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
        assert split_type(E, Place.rational(F, 0)) == "split"

    def test_split_vs_count(self):
        # at a multiplicative place the singular cubic has q - a_x affine
        # points with a_x = +-1 per split type; check sign via tangent test
        E = intro_Em(5, 2)
        F = PrimeField(5)
        data = local_reduce(E, Place.rational(F, 0))
        assert data.reduction_type in ("split_mult", "nonsplit_mult")
        assert data.a_x == (1 if data.reduction_type == "split_mult" else -1)

    def test_nonmultiplicative_rejected(self):
        E = intro_Em(5, 2)
        with pytest.raises(ValueError):
            split_type(E, Place.rational(PrimeField(5), 1))


class TestInStarSubprocedure:
    def test_section54_n0(self):
        # base y^2 = x(x+tf)(x+t^2 f), f=(t-2)(t-3), twisted by (t-4):
        # I_2* at 0 and oo with c=4, I_2 at 1 with c=2, I_0* at 4 with c=4
        for p in (5, 11, 13):
            F = PrimeField(p)
            t = Poly.t(F)
            f = (t - 2) * (t - 3)
            base = WeierstrassCurve(t * (t + 1) * f, t ** 3 * f ** 2, Poly(F, []))
            assert str(local_reduce(base, Place.rational(F, 0)).kodaira) == "I2*"
            assert str(local_reduce(base, Place.infinity(F)).kodaira) == "I2"
            E = base.twist_by(t - 4)
            for x in (Place.rational(F, 0), Place.infinity(F)):
                data = local_reduce(E, x)
                assert str(data.kodaira) == "I2*"
                assert data.c == 4
            d1 = local_reduce(E, Place.rational(F, 1))
            assert str(d1.kodaira) == "I2"
            assert d1.c == 2
            d4 = local_reduce(E, Place.rational(F, 4))
            assert str(d4.kodaira) == "I0*"
            assert d4.c == 4


class TestTwistLaws:
    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_constant_nonsquare_twist(self, p):
        F = PrimeField(p)
        beta = next(b for b in range(2, p) if legendre(F(b)) == -1)
        E = intro_Em(p, 2 if p != 5 else 3)
        Et = E.twist_by(beta)
        prod = 1
        for x in bad_places(E):
            d1 = local_reduce(E, x)
            d2 = local_reduce(Et, x)
            assert str(d1.kodaira) == str(d2.kodaira)
            prod *= d1.c * d2.c * d1.gamma ** x.degree
        r = int(prod ** 0.5 + 0.5)
        assert r * r == prod

    @pytest.mark.parametrize("p", [5, 7, 11])
    def test_tm_twist_pairing(self, p):
        # twisting by t-m: one good place becomes I_0*, infinity pairs up
        pairing = [{"II", "IV*"}, {"IV", "II*"}, {"III", "III*"}]
        F = PrimeField(p)
        E = intro_base(p)
        k_inf = str(local_reduce(E, Place.infinity(F)).kodaira)
        for m in range(p):
            if not E.delta(F(m)):
                continue
            Em = E.twist_by(Poly(F, [-m, 1]))
            assert str(local_reduce(Em, Place.rational(F, m)).kodaira) == "I0*"
            k_inf_m = str(local_reduce(Em, Place.infinity(F)).kodaira)
            pair = {k_inf, k_inf_m}
            assert (pair in pairing
                    or (k_inf.startswith("I") and not k_inf.startswith(("II", "III", "IV"))
                        and k_inf_m == k_inf + "*"))
            # finite places other than m keep their symbols
            for a in range(p):
                if a == m or not E.delta(F(a)):
                    continue
                x = Place.rational(F, a)
                assert str(local_reduce(E, x).kodaira) == str(local_reduce(Em, x).kodaira)


class TestDegreeTwoPlace:
    def test_deg2_reduction(self):
        # intro base over F_5: t^2+2 is irreducible and coprime to Delta
        F = PrimeField(5)
        pi = Poly(F, [2, 0, 1])
        E = intro_Em(5, 2)
        x = Place.finite(F, pi)
        data = local_reduce(E, x)
        assert str(data.kodaira) == "I0"
        K = residue_field(x)
        assert abs(data.a_x) <= 2 * 5  # Hasse over F_25
