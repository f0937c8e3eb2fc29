import pytest
from hypothesis import given, settings, strategies as st

from ffell.algebra import Poly, PrimeField, factor
from ffell.places import (Place, count_places, enumerate_places, reduce_at,
                          residue_field)

F5 = PrimeField(5)
F7 = PrimeField(7)

# every finite place of degree 1..3 over F_5 and F_7
FINITE_PLACES = {p: [x for x in enumerate_places(PrimeField(p), 3)
                     if not x.is_infinite] for p in (5, 7)}


def t_poly(F):
    return Poly.t(F)


def random_poly(F, data, n):
    return Poly(F, [data.draw(st.integers(0, F.p - 1)) for _ in range(n)])


class TestValuation:
    def test_finite_multiplicity(self):
        t = t_poly(F5)
        f = t ** 2 * (t - 1) ** 9
        assert f.valuation(Place.rational(F5, 0).pi) == 2

    def test_degree_two_factors(self):
        t = t_poly(F7)
        _, facs = factor(t ** 2 + 1)
        for pi, _ in facs:
            x = Place.finite(F7, pi)
            assert (t ** 2 + 1).valuation(x.pi) == 1
            assert (t - 2).valuation(x.pi) == 0

    def test_zero(self):
        # v(0) is +infinity: no finite multiplicity exists
        with pytest.raises(ValueError):
            Poly(F5, []).valuation(Place.rational(F5, 1).pi)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([5, 7]), st.data())
    def test_valuation_is_a_valuation(self, p, data):
        F = PrimeField(p)
        f, g = random_poly(F, data, 4), random_poly(F, data, 3)
        if not f or not g:
            return
        for x in FINITE_PLACES[p]:
            v = x.pi
            assert (f * g).valuation(v) == f.valuation(v) + g.valuation(v)
            s = f + g
            if s:
                assert s.valuation(v) >= min(f.valuation(v), g.valuation(v))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([5, 7]), st.data())
    def test_product_formula(self, p, data):
        F = PrimeField(p)
        f = random_poly(F, data, 5)
        if not f:
            return
        # sum over finite places of v_x(f) deg x = deg f = -v_oo(f)
        _, facs = factor(f)
        assert sum(f.valuation(pi) * int(pi.degree)
                   for pi, _ in facs) == f.degree


class TestEnumeratePlaces:
    def test_q5_d1(self):
        ps = list(enumerate_places(F5, 1))
        assert len(ps) == 6
        assert ps[0].is_infinite

    def test_q5_d2(self):
        ps = list(enumerate_places(F5, 2))
        assert len(ps) == 6 + 10
        assert count_places(5, 2) == 10

    def test_q7_d1(self):
        assert len(list(enumerate_places(F7, 1))) == 8

    @pytest.mark.parametrize("q", [5, 7, 11])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_necklace_counts(self, q, d):
        F = PrimeField(q)
        got = sum(1 for x in enumerate_places(F, d) if x.degree == d
                  and not x.is_infinite)
        assert got == count_places(q, d)

    def test_no_duplicates(self):
        ps = list(enumerate_places(F5, 3))
        assert len(ps) == len(set(ps))


class TestResidue:
    def test_evaluate(self):
        x = Place.rational(F5, 3)
        assert reduce_at(t_poly(F5) ** 2, x) == F5(4)

    def test_degree_two_minimal_polynomial(self):
        _, facs = factor(Poly(F5, [2, 0, 1]))
        pi = facs[0][0]
        x = Place.finite(F5, pi)
        K = residue_field(x)
        assert K.order == 25
        a = reduce_at(t_poly(F5), x)
        # the image of t satisfies its own minimal polynomial t^2 + 2
        assert a == K.gen
        assert a * a + 2 == K.zero

    def test_ring_morphism(self):
        t = t_poly(F7)
        f = t ** 3 + 2 * t + 1
        g = t ** 2 + 3
        for x in FINITE_PLACES[7]:
            assert reduce_at(f * g, x) == reduce_at(f, x) * reduce_at(g, x)
            assert reduce_at(f + g, x) == reduce_at(f, x) + reduce_at(g, x)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([5, 7]), st.data())
    def test_residue_is_evaluation_at_image_of_t(self, p, data):
        """f mod pi read in F_q[t]/(pi) equals the evaluation of f at the
        image of t: f(a) at t = a, f(K.gen) in higher degree."""
        F = PrimeField(p)
        f = random_poly(F, data, data.draw(st.integers(0, 12)))
        x = data.draw(st.sampled_from(FINITE_PLACES[p]))
        if x.degree == 1:
            expected = f(-F(x.pi.coeffs[0]))
        else:
            expected = f(residue_field(x).gen)
        got = reduce_at(f, x)
        assert got.field == expected.field and got.raw == expected.raw
