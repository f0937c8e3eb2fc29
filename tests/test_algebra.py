import hashlib
import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffell.algebra import (
    PrimeField, ExtField, Poly, SquareClass, build_extension, factor,
    is_irreducible, legendre, monic_irreducibles,
)
from ffell.lfunction import _square_class_mod_rational
from ffell.orthogonal import square_class_mod
from oracles import horner


F5 = PrimeField(5)
F7 = PrimeField(7)


def poly_from_ints(F, ints):
    return Poly(F, ints)


class TestLegendre:
    def test_square(self):
        assert legendre(4, 5) == 1

    def test_zero(self):
        assert legendre(0, 7) == legendre(14, 7) == legendre(-7, 7) == 0

    def test_nonsquare_exhaustive_oracle(self):
        # squares mod 5 are {0,1,4}
        squares = {(a * a) % 5 for a in range(5)}
        assert squares == {0, 1, 4}
        assert legendre(2, 5) == -1
        assert legendre(3, 5) == -1

    @given(st.sampled_from([5, 7, 11, 13]), st.data())
    def test_multiplicative(self, p, data):
        a = data.draw(st.integers(1, p - 1))
        b = data.draw(st.integers(1, p - 1))
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 97])
    def test_matches_table_of_squares(self, p):
        squares = {a * a % p for a in range(1, p)}
        F = PrimeField(p)
        for a in range(-2 * p, 2 * p):
            expected = 0 if a % p == 0 else 1 if a % p in squares else -1
            assert legendre(a, p) == F.legendre_raw(a % p) == expected

    @pytest.mark.parametrize("p,d", [(5, 2), (7, 3), (11, 2)])
    def test_extension_character_on_prime_field(self, p, d):
        # chi_K(a) = (a/p)^d for a in F_p: F_p^x lies in the squares of
        # K = F_{p^d} exactly when d is even
        K = build_extension(p, d)
        for a in range(p):
            assert K.legendre_raw(K.coerce(a)) == legendre(a, p) ** d
        assert sum(K.legendre_raw(x) for x in K.elements()) == 0


class TestFactor:
    def test_difference_of_squares(self):
        f = poly_from_ints(F5, [-1, 0, 1])  # t^2 - 1
        lead, facs = factor(f)
        assert lead == 1
        assert sorted(tuple(g.coeffs) for g, m in facs) == [(1, 1), (4, 1)]

    def test_t2_plus_1_mod5(self):
        # exhaustive root search: roots of t^2+1 mod 5 are 2, 3
        assert [a for a in range(5) if (a * a + 1) % 5 == 0] == [2, 3]
        f = poly_from_ints(F5, [1, 0, 1])
        _, facs = factor(f)
        assert sorted(tuple(g.coeffs) for g, m in facs) == [(2, 1), (3, 1)]

    def test_irreducible_quadratic(self):
        # t^2+2 has no roots mod 5, so it is irreducible of degree 2
        assert all((a * a + 2) % 5 != 0 for a in range(5))
        f = poly_from_ints(F5, [2, 0, 1])
        _, facs = factor(f)
        assert len(facs) == 1 and facs[0][0].degree == 2 and facs[0][1] == 1
        assert is_irreducible(f)

    def test_is_irreducible_against_trial_division(self):
        # every monic f of degree <= 4 over F_5: irreducible iff no monic
        # polynomial of degree 1 .. deg f / 2 divides it
        def monic(deg):
            for n in range(5 ** deg):
                yield Poly(F5, [n // 5 ** i % 5 for i in range(deg)] + [1])

        seen = 0
        for deg in range(5):
            divisors = [g for k in range(1, deg // 2 + 1) for g in monic(k)]
            for f in monic(deg):
                expected = deg >= 1 and all(f % g for g in divisors)
                assert is_irreducible(f) == expected, f
                seen += expected
        assert seen == 5 + 10 + 40 + 150    # monic irreducibles of degree 1..4

    def test_degree_at_most_one(self):
        # a nonzero constant has no factors; a linear f is its own monic
        # factor, once
        for c in range(1, 7):
            assert factor(Poly(F7, [c])) == (c, [])
            for a in range(7):
                f = Poly(F7, [a, c])
                assert factor(f) == (c, [(f.monic(), 1)])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(Poly(F5, []))

    def test_multiplicity_and_lead(self):
        f = poly_from_ints(F7, [0, 1]) ** 3 * poly_from_ints(F7, [1, 1]) ** 2 * 3
        lead, facs = factor(f)
        assert lead == 3
        assert sorted((tuple(g.coeffs), m) for g, m in facs) == [
            ((0, 1), 3), ((1, 1), 2)]

    def test_p_th_power(self):
        f = poly_from_ints(F5, [1, 1]) ** 5
        _, facs = factor(f)
        assert facs == [(poly_from_ints(F5, [1, 1]), 5)]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([5, 7, 11, 13]), st.data())
    def test_refactor_roundtrip(self, p, data):
        F = PrimeField(p)
        deg = data.draw(st.integers(1, 12))
        cs = [data.draw(st.integers(0, p - 1)) for _ in range(deg)] + [
            data.draw(st.integers(1, p - 1))]
        f = Poly(F, cs)
        lead, facs = factor(f)
        g = Poly(F, [lead])
        for irr, m in facs:
            assert is_irreducible(irr)
            assert irr.lead() == 1
            g = g * irr ** m
        assert g == f

    def test_irreducibility_certificate_via_subfield_roots(self):
        # a declared-irreducible factor of degree d has no roots in F_{p^e}, e<d
        f = poly_from_ints(F5, [2, 0, 0, 1, 1])
        _, facs = factor(f)
        for irr, _ in facs:
            d = int(irr.degree)
            for e in range(1, d):
                if d % e:
                    continue
                K = build_extension(5, e)
                for x in K.elements():
                    assert not K.is_zero(horner(K, irr, x))


def factor_pin_cases():
    """The seeded polynomials of the factoring pin, per p in {5, 7, 11, 13}:
    a random polynomial times a random monic g^m for each multiplicity m in
    1, 2, p, p + 1, 2p, p^2, p^2 + 1; products of random polynomials of
    degree up to 30; factors of the form g(t^p) times random polynomials and
    a p-th power; and (t^p + 1)(t + 2)^(p^2), whose squarefree step takes
    the p-th root twice."""
    for p in (5, 7, 11, 13):
        F = PrimeField(p)
        rng = random.Random(p)
        t = Poly.t(F)

        def rand(deg, monic=False):
            lead = 1 if monic else rng.randrange(1, p)
            return Poly(F, [rng.randrange(p) for _ in range(deg)] + [lead])

        for m in (1, 2, p, p + 1, 2 * p, p * p, p * p + 1):
            for _ in range(2):
                yield rand(rng.randrange(7)) * rand(rng.randrange(1, 4),
                                                    monic=True) ** m
        for _ in range(4):
            yield rand(rng.randrange(10, 31)) * rand(rng.randrange(1, 9))
        for _ in range(4):
            h = rand(rng.randrange(1, 4), monic=True)
            g_tp = Poly(F, [0 if i % p else h.coeffs[i // p]
                            for i in range(p * h.degree + 1)])
            yield (g_tp * rand(rng.randrange(6))
                   * rand(rng.randrange(1, 3), monic=True) ** p)
        yield (t ** p + 1) * (t + 2) ** (p * p)


# sha256 over json.dumps of [p, coeffs, lead, [[factor coeffs, mult], ...],
# is_irreducible] for each of factor_pin_cases(), then of [p, d, [coeffs of
# each monic irreducible]] for FACTOR_PIN_IRREDUCIBLES.  Computed at commit
# 039826f, where the squarefree step and the equal-degree split worked on
# Poly objects
FACTOR_PIN_IRREDUCIBLES = ((5, 1), (5, 2), (5, 3), (5, 4), (7, 1), (7, 2),
                           (7, 3), (11, 1), (11, 2), (13, 1), (13, 2))
FACTOR_SHA256 = (
    "5682093430b99746b1f289f8a304f51cfc6331fba352ea8185e681601ef31df6")


class TestFactorPin:
    def test_factor_and_irreducibles_pinned(self):
        h = hashlib.sha256()
        cases = 0
        for f in factor_pin_cases():
            lead, facs = factor(f)
            g = Poly(f.field, [lead])
            for irr, m in facs:
                g = g * irr ** m
            assert g == f
            h.update(json.dumps([f.field.p, f.coeffs, lead,
                                 [[irr.coeffs, m] for irr, m in facs],
                                 is_irreducible(f)]).encode())
            cases += 1
        for p, d in FACTOR_PIN_IRREDUCIBLES:
            irrs = [g.coeffs for g in monic_irreducibles(PrimeField(p), d)]
            h.update(json.dumps([p, d, irrs]).encode())
        assert cases == 4 * (14 + 4 + 4 + 1)
        assert h.hexdigest() == FACTOR_SHA256


class TestExtension:
    def test_prime_degree_one(self):
        assert build_extension(5, 1) is not None
        assert build_extension(5, 1).order == 5
        for p in (9, 3):
            with pytest.raises(ValueError, match=f"^p={p} is not a prime"):
                PrimeField(p)

    def test_frobenius_identity_25(self):
        K = build_extension(5, 2)
        assert K.order == 25
        for x in K.elements():
            assert K.pow(x, 25) == x

    def test_multiplicative_order_343(self):
        K = build_extension(7, 3)
        assert K.order == 343
        rng = random.Random(1)
        x = K.decode(rng.randrange(1, 343))
        assert K.pow(x, 342) == K.one_raw

    @pytest.mark.parametrize("p,d", [(5, 2), (7, 3), (11, 2)],
                             ids=["F_25", "F_343", "F_121"])
    def test_inverse(self, p, d):
        K = build_extension(p, d)
        zero, one = K.zero_raw, K.one_raw
        for n in range(1, min(K.order, 50)):
            x = K.decode(n)
            assert K.mul(x, K.inv(x)) == one
            assert K.pow(x, 0) == one
            power = one
            for k in range(1, 6):          # against repeated products
                power = K.mul(power, x)
                assert K.pow(x, k) == power
                assert K.pow(x, -k) == K.inv(power)
        for e in (1, 2, K.order - 1):
            assert K.pow(zero, e) == zero
        with pytest.raises(ZeroDivisionError):
            K.inv(zero)

    def test_deterministic(self):
        assert build_extension(13, 4).modulus == build_extension(13, 4).modulus

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_monic_irreducibles_by_brute_force(self, p, d):
        # every monic of degree d, coefficients t^(d-1) .. 1 in lexicographic
        # order, kept when factor finds it its own single factor
        F = PrimeField(p)
        monics = [Poly(F, list(top[::-1]) + [1])
                  for top in itertools.product(range(p), repeat=d)]
        brute = [f for f in monics if factor(f)[1] == [(f, 1)]]
        assert list(monic_irreducibles(F, d)) == brute
        if d > 1:
            assert build_extension(p, d).modulus == brute[0].coeffs

    def test_encode_decode_roundtrip(self):
        K = build_extension(5, 3)
        for n in range(K.order):
            assert K.encode(K.decode(n)) == n


class TestSquareClass:
    def test_trivial(self):
        assert square_class_mod(9, 11).trivial

    def test_rational_50_mod_7(self):
        # 50 = 1 mod 7
        assert _square_class_mod_rational(Fraction(50), 7).trivial

    def test_rational_2_mod_5(self):
        assert _square_class_mod_rational(Fraction(2), 5).nontrivial

    def test_rational_rejects_non_unit(self):
        # 0 has no class; 10 has odd 5-adic valuation, 50 = 5^2 * 2 has
        # the class of 2
        with pytest.raises(ValueError):
            square_class_mod(10, 5)
        assert _square_class_mod_rational(Fraction(10), 5) is None
        assert _square_class_mod_rational(Fraction(50), 5).nontrivial

    def test_multiplicative(self):
        a = SquareClass(True)
        b = SquareClass(True)
        assert (a * b).trivial

    @settings(max_examples=50, deadline=None)
    @given(st.fractions(min_value=-99, max_value=99), st.integers(1, 40),
           st.sampled_from([5, 7, 11, 13]))
    def test_square_scaling(self, r, s, ell):
        if r == 0:
            return
        c1 = _square_class_mod_rational(r, ell)
        assert _square_class_mod_rational(r * Fraction(s, 1) ** 2, ell) == c1
        if r.numerator % ell and r.denominator % ell:
            assert c1 == square_class_mod(r.numerator * r.denominator, ell)


class TestPoly:
    def test_degree_of_zero(self):
        assert Poly(F5, []).degree == float("-inf")

    def test_stripping(self):
        assert Poly(F5, [1, 2, 0, 0]).coeffs == (1, 2)

    def test_divmod(self):
        f = Poly(F7, [1, 2, 3, 4])
        g = Poly(F7, [5, 1])
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree

    def test_eval_in_extension(self):
        K = build_extension(5, 2)
        f = Poly(F5, list(K.modulus))
        # the generator z (code 5) is a root of the modulus
        assert K.is_zero(horner(K, f, K.decode(5)))

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_eval_at_int(self, p):
        F = PrimeField(p)
        f = Poly(F, [3, -1, 0, 2, 1])
        for a in range(-p, p):
            value = f(a)
            assert type(value) is int
            assert value == (3 - a + 2 * a ** 3 + a ** 4) % p

    def test_valuation(self):
        t = Poly.t(F5)
        f = t ** 2 * (t - 1) ** 9
        assert f.valuation(t) == 2
        assert f.valuation(t - 1) == 9
        assert f.valuation(t + 1) == 0


class TestIntHelpersOracle:
    """The F_p[t] helpers against identities checked independently."""

    @staticmethod
    def draw_poly(data, F, max_degree=40):
        n = data.draw(st.integers(0, max_degree + 1))
        return Poly(F, [data.draw(st.integers(0, F.p - 1)) for _ in range(n)])

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([5, 7, 11, 13]), st.data())
    def test_mul_is_convolution(self, p, data):
        F = PrimeField(p)
        a, b = self.draw_poly(data, F), self.draw_poly(data, F)
        expected = []
        if a and b:
            expected = list(np.convolve(a.coeffs, b.coeffs) % p)
            while expected and not expected[-1]:
                expected.pop()
        assert (a * b).coeffs == tuple(int(c) for c in expected)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([5, 7, 11, 13]), st.data())
    def test_divmod_identity(self, p, data):
        F = PrimeField(p)
        a, b = self.draw_poly(data, F), self.draw_poly(data, F)
        if not b:
            with pytest.raises(ZeroDivisionError):
                divmod(a, b)
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([5, 7, 11, 13]), st.data())
    def test_gcd_monic_common_divisor(self, p, data):
        F = PrimeField(p)
        c = self.draw_poly(data, F, 8)
        a = self.draw_poly(data, F, 32) * c
        b = self.draw_poly(data, F, 32) * c
        g = a.gcd(b)
        if not a and not b:
            assert not g
            return
        assert g.lead() == 1
        assert not a % g and not b % g
        if c:
            assert not g % c.monic()
