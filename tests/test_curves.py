import pytest

from ffell.algebra import Poly, PrimeField, build_extension, legendre
from ffell.curves import WeierstrassCurve
from ffell.places import Place
from oracles import count_fiber_points, count_points_cubic


def intro_base(p):
    """y^2 = x^3 + 3(t^2-1)^3 x - 2(t^2-1)^5."""
    F = PrimeField(p)
    t = Poly.t(F)
    u = t * t - 1
    return WeierstrassCurve(Poly(F, []), 3 * u ** 3, -2 * u ** 5)


def same_j(E1, E2):
    """j(E1) = j(E2), i.e. c4'^3 Delta = c4^3 Delta'."""
    return E1.c4 ** 3 * E2.delta == E2.c4 ** 3 * E1.delta


class TestQuantities:
    def test_intro_discriminant(self):
        # Delta = -2^6 3^3 t^2 (t-1)^9 (t+1)^9
        for p in (5, 7, 11):
            E = intro_base(p)
            F = E.field
            t = Poly.t(F)
            expected = (-2 ** 6 * 3 ** 3) * t ** 2 * (t - 1) ** 9 * (t + 1) ** 9
            assert E.delta == expected

    def test_constant_curve_formulas(self):
        # y^2 = x^3 + x has Delta = -64, j = 1728
        F = PrimeField(7)
        E = WeierstrassCurve(Poly(F, []), Poly(F, [1]), Poly(F, []))
        assert E.delta == Poly(F, [-64])
        assert E.c4 ** 3 == 1728 * E.delta  # j = c4^3 / Delta = 1728
        assert E.is_isotrivial()

    def test_section52_discriminant(self):
        # y^2 = x^3 - 3 t f^2 x + 2 t^2 f^3 has Delta = -2^6 3^3 f^6 t^3 (t-1)
        p = 7
        F = PrimeField(p)
        t = Poly.t(F)
        f = (t - 3)  # any f; the identity is formal
        E = WeierstrassCurve(Poly(F, []), -3 * t * f ** 2, 2 * t ** 2 * f ** 3)
        assert E.delta == (-2 ** 6 * 3 ** 3) * f ** 6 * t ** 3 * (t - 1)

    def test_degenerate_rejected(self):
        F = PrimeField(5)
        with pytest.raises(ValueError):
            WeierstrassCurve(Poly(F, []), Poly(F, []), Poly(F, []))


class TestIsotrivial:
    def test_c4_zero(self):
        # y^2 = x^3 + t: c4 = 0, so j = 0 although Delta is not constant
        F = PrimeField(7)
        E = WeierstrassCurve(Poly(F, []), Poly(F, []), Poly.t(F))
        assert not E.c4 and E.delta.degree == 2
        assert E.is_isotrivial()

    def test_constant_j_with_moving_coefficients(self):
        # a twist of a constant curve by t - 1 keeps j(y^2 = x^3 + x + 1)
        F = PrimeField(7)
        E = WeierstrassCurve(Poly(F, []), Poly(F, [1]), Poly(F, [1]))
        Et = E.twist_by(Poly(F, [-1, 1]))
        assert Et.c4.degree == 2 and Et.delta.degree == 6
        assert Et.is_isotrivial()
        with pytest.raises(ValueError):
            Et.assert_nonisotrivial()

    def test_nonisotrivial(self):
        for p in (5, 7, 11):
            E = intro_base(p)
            assert not E.is_isotrivial()
            E.assert_nonisotrivial()
            assert not E.twist_by(Poly(E.field, [-2, 1])).is_isotrivial()


class TestTwist:
    def test_constant_twist_formula(self):
        E = intro_base(5)
        Et = E.twist_by(2)
        assert Et.a4 == 4 * E.a4
        assert Et.a6 == 8 * E.a6

    def test_double_twist_delta_ratio(self):
        E = intro_base(7)
        F = E.field
        d = Poly(F, [3, 1])
        Ett = E.twist_by(d).twist_by(d)
        assert Ett.delta == E.delta * d ** 12
        assert same_j(Ett, E)

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_scaled_short_model_matches_rebuilt(self, p):
        # twist_by scales A, B and Delta instead of recomputing them
        F = PrimeField(p)
        t = Poly.t(F)
        E = WeierstrassCurve(t + 2, t ** 3 + 1, 3 * t ** 2 + t)
        for d in (Poly(F, [3]), t - 2, t * t + t + 3):
            Et = E.twist_by(d)
            rebuilt = WeierstrassCurve(E.a2 * d, E.a4 * d * d, E.a6 * d ** 3)
            for name in ("a2", "a4", "a6", "A", "B", "delta", "c4", "c6"):
                assert getattr(Et, name) == getattr(rebuilt, name), (d, name)
        # a twist of a twist scales its base's lazily built model again
        for d, d2 in ((t - 2, Poly(F, [3])), (t * t + t + 3, t - 2)):
            Ett = E.twist_by(d).twist_by(d2)
            dd = d * d2
            rebuilt = WeierstrassCurve(E.a2 * dd, E.a4 * dd * dd,
                                       E.a6 * dd ** 3)
            for name in ("a2", "a4", "a6", "A", "B", "delta", "c4", "c6"):
                assert getattr(Ett, name) == getattr(rebuilt, name), (d, name)

    def test_twist_by_t_minus_1(self):
        E = intro_base(5)
        d = Poly(E.field, [-1, 1])
        Et = E.twist_by(d)
        assert Et.delta == E.delta * d ** 6
        assert same_j(Et, E)

    def test_twist_by_zero_rejected(self):
        with pytest.raises(ValueError):
            intro_base(5).twist_by(0)


class TestCounting:
    def test_constant_fiber_oracle(self):
        # y^2 = x^3 + x over F_5 has 4 points
        F = PrimeField(5)
        n = count_points_cubic(F, 0, 1, 0, method="naive")
        assert n == 4
        assert count_points_cubic(F, 0, 1, 0) == 4

    def test_methods_agree_extension(self):
        K = build_extension(5, 2)
        A2, A4, A6 = K.coerce(3), K.decode(7), K.decode(11)
        naive = count_points_cubic(K, A2, A4, A6, method="naive")
        chars = count_points_cubic(K, A2, A4, A6, method="charsum")
        assert naive == chars

    def test_fiber_at_good_place(self):
        E = intro_base(5).twist_by(Poly(PrimeField(5), [-1, 1]))  # m = 1
        x = Place.rational(PrimeField(5), 2)
        a = count_fiber_points(E, x, method="naive")
        # Hasse
        assert a * a <= 20

    def test_bad_place_rejected(self):
        E = intro_base(5)
        with pytest.raises(ValueError):
            count_fiber_points(E, Place.rational(PrimeField(5), 1))

    def test_constant_nonsquare_twist_flips_a(self):
        for p in (5, 7, 11):
            F = PrimeField(p)
            beta = next(b for b in range(2, p) if legendre(b, p) == -1)
            E = intro_base(p)
            Et = E.twist_by(beta)
            for a0 in range(p):
                x = Place.rational(F, a0)
                if not E.delta(a0):
                    continue
                assert (count_fiber_points(Et, x)
                        == -count_fiber_points(E, x))
