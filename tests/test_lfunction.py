import dataclasses
from fractions import Fraction

import pytest

from ffell import fastcount
from ffell.algebra import Poly, PrimeField, legendre
from ffell.curves import WeierstrassCurve
from ffell.families import FAMILIES
from ffell.fastcount import batch_traces
from ffell.lfunction import (GlobalInvariants, LFunctionPoly,
                             bsd_square_class_check, check_ell,
                             check_functional_equation,
                             frobenius_matrix_mod_ell, global_invariants,
                             lfunction)
from ffell.orthogonal import order_excludes


def intro_Em(p, m):
    F = PrimeField(p)
    t = Poly.t(F)
    u = t * t - 1
    return WeierstrassCurve(Poly(F, []), 3 * u ** 3, -2 * u ** 5).twist_by(t - m)


class TestGlobalInvariants:
    @pytest.mark.parametrize("p,m", [(5, 2), (5, 3), (7, 2), (11, 4), (13, 2)])
    def test_intro_profile(self, p, m):
        inv = global_invariants(intro_Em(p, m))
        assert (inv.N, inv.chi, inv.script_L, inv.gamma, inv.B) == (5, 3, 1, 1, 2)
        assert inv.kod == {"I2": 1, "III*": 2, "I0*": 1, "II*": 1}

    def test_epsilon_matches_dichotomy(self):
        for p in (5, 7, 11, 13):
            for m in range(p):
                if m * (m * m - 1) % p == 0:
                    continue
                inv = global_invariants(intro_Em(p, m))
                assert (-inv.epsilon == 1) == (legendre(-3 * m, p) == 1)

    def test_isotrivial_rejected(self):
        F = PrimeField(7)
        E = WeierstrassCurve(Poly(F, []), Poly(F, [1]), Poly(F, []))
        with pytest.raises(ValueError):
            global_invariants(E)


class TestLFunction:
    def test_golden_f5(self):
        # the printed degree-5 polynomial over F_5 (the m=2 member)
        L = lfunction(intro_Em(5, 2))
        assert L.coefficients == (1, -2, 1, -5, 2 * 5 ** 3, -5 ** 5)

    def test_golden_f7(self):
        L = lfunction(intro_Em(7, 3))
        scaled = [Fraction(a, 7 ** i) for i, a in enumerate(L.coefficients)]
        assert scaled == [1, 0, Fraction(-33, 49), Fraction(-33, 49), 0, 1]

    def test_half_expansion_equals_full(self):
        # functional-equation fill reproduces the fully expanded polynomial
        for p, m in [(5, 2), (5, 3)]:
            E = intro_Em(p, m)
            inv = global_invariants(E)
            assert (lfunction(E, inv).coefficients
                    == lfunction(E, inv, direct_upto=inv.N).coefficients)

    def test_degree_is_N(self):
        for p, m in [(5, 2), (7, 5), (11, 3)]:
            E = intro_Em(p, m)
            inv = global_invariants(E)
            L = lfunction(E, inv)
            assert L.degree == inv.N and L.coefficients[0] == 1
            assert L.coefficients[-1] != 0

    def test_too_small_direct_upto_rejected(self):
        E = intro_Em(5, 2)
        with pytest.raises(ValueError):
            lfunction(E, direct_upto=1)

    @pytest.mark.parametrize("p,m", [(5, 2), (7, 3)])
    def test_direct_upto_without_overlap_rejected(self, p, m):
        # at odd N, direct_upto = (N - 1)/2 fills every other coefficient
        # but computes none both ways: refused, no longer an assertion
        E = intro_Em(p, m)
        inv = global_invariants(E)
        assert inv.N % 2 == 1
        with pytest.raises(ValueError, match="at least N/2"):
            lfunction(E, inv, direct_upto=(inv.N - 1) // 2)
        assert (lfunction(E, inv, direct_upto=(inv.N + 1) // 2).coefficients
                == lfunction(E, inv).coefficients)

    def test_frontier_odd_1mod8_p11(self):
        # N = 9 at p = 11: the top degree sums over F_{11^5}; the kernel
        # that summed place by place gave these in 34 s
        L = lfunction(FAMILIES["odd_1mod8"].instantiate(11, 1, 6))
        assert list(L.coefficients) == [
            1, 13, 164, 1540, -242, 2662, -2049740, -26412364, -253333223,
            -2357947691]
        assert L.epsilon == -1 and L.degree == 9
        assert check_functional_equation(L) == (True, None)

    def test_top_degree_beyond_tables_refused_first(self):
        # even_4mod8 n=1 p=11 has N = 12, so m = 7 and q^m = 11^7 breaks
        # the exact-DFT bound: refused before any table of degree <= 7
        E = FAMILIES["even_4mod8"].instantiate(11, 1, 5)
        inv = global_invariants(E)
        assert inv.N == 12
        before = set(fastcount._TABLE_CACHE)
        with pytest.raises(ValueError, match=r"m = 7: q = 11\^7 = 19487171"):
            lfunction(E, inv)
        assert set(fastcount._TABLE_CACHE) == before


class TestFunctionalEquation:
    def test_passes_on_golden(self):
        L = lfunction(intro_Em(5, 2))
        assert check_functional_equation(L) == (True, None)

    def test_degree_zero_edge(self):
        L1 = LFunctionPoly((1,), 5, 1, 0)
        assert check_functional_equation(L1) == (True, None)
        Lbad = LFunctionPoly((1,), 5, -1, 0)
        assert check_functional_equation(Lbad)[0] is False

    def test_perturbation_detected(self):
        L = lfunction(intro_Em(5, 2))
        cs = list(L.coefficients)
        cs[4] += 1
        bad = LFunctionPoly(tuple(cs), L.q, L.epsilon, L.direct_upto)
        ok, idx = check_functional_equation(bad)
        assert not ok and idx == 4


# (family, n, p, w): small members with N < 2m, so with an overlap
SMALL_MEMBERS = [("intro_N5", 0, 5, 2), ("intro_N5", 0, 7, 3),
                 ("odd_1mod8", 1, 7, 6), ("case2_3ns", 2, 5, 2)]


class TestOverlapCheck:
    """lfunction's overlap check, the coefficients it computes both
    directly and through the functional equation, is the one check of
    epsilon together with the top-degree character sums."""

    @pytest.mark.parametrize("fid,n,p,w", SMALL_MEMBERS)
    def test_top_degree_trace_error_caught(self, monkeypatch, fid, n, p, w):
        E = FAMILIES[fid].instantiate(p, n, w)
        inv = global_invariants(E)
        m = lfunction(E, inv).direct_upto
        assert m < inv.N

        def one_trace_off(curve, d):      # a copy: the memo stays intact
            reps, traces = batch_traces(curve, d)
            if d == m:
                traces = traces.copy()
                traces[0] += 1
            return reps, traces

        monkeypatch.setattr("ffell.lfunction.batch_traces", one_trace_off)
        with pytest.raises(AssertionError,
                           match=f"overlap mismatch at index {m}$"):
            lfunction(E, inv)

    @pytest.mark.parametrize("fid,n,p,w", SMALL_MEMBERS)
    def test_wrong_epsilon_caught(self, fid, n, p, w):
        E = FAMILIES[fid].instantiate(p, n, w)
        inv = global_invariants(E)
        L = lfunction(E, inv)
        N, m, a = L.degree, L.direct_upto, L.coefficients
        assert any(a[N - i] for i in range(N // 2 + 1) if N - i <= m)
        with pytest.raises(AssertionError, match="overlap mismatch"):
            lfunction(E, dataclasses.replace(inv, epsilon=-inv.epsilon))
        assert lfunction(E, inv).coefficients == a


class TestBSD:
    def test_zero_value_inapplicable(self):
        E = intro_Em(5, 2)
        L = lfunction(E)
        assert L.value_at_inverse_q() == 0
        assert bsd_square_class_check(E, L, 7) == "inapplicable"

    def test_nonzero_value_passes(self):
        found = 0
        for p, m in [(5, 3), (7, 2), (7, 3), (11, 2)]:
            E = intro_Em(p, m)
            inv = global_invariants(E)
            L = lfunction(E, inv)
            if L.value_at_inverse_q() == 0:
                continue
            found += 1
            for ell in (7, 11, 13, 17, 19, 23):
                if (6 * p) % ell == 0:
                    continue
                assert bsd_square_class_check(E, L, ell, inv) == "pass"
        assert found > 0

    def test_bad_ell_rejected(self):
        E = intro_Em(5, 3)
        inv = global_invariants(E)
        L = lfunction(E, inv)
        with pytest.raises(ValueError):
            bsd_square_class_check(E, L, 5)  # ell = q
        with pytest.raises(ValueError):
            bsd_square_class_check(E, L, 3)  # divides 6
        with pytest.raises(ValueError, match="^ell=9 is not a prime >= 5$"):
            check_ell(9, inv)


class TestCompanion:
    def test_char_poly_property(self):
        E = intro_Em(5, 2)
        inv = global_invariants(E)
        L = lfunction(E, inv)
        C = frobenius_matrix_mod_ell(E, 11, L, inv)
        assert C.shape == (5, 5)

    def test_det_matches_epsilon(self):
        # det(companion) = (-1)^N * constant coeff of monic poly
        # = (-1)^N * epsilon mod ell
        from ffell.orthogonal import det_mod
        for p, m, ell in [(5, 2, 7), (5, 3, 11), (7, 3, 13)]:
            E = intro_Em(p, m)
            inv = global_invariants(E)
            L = lfunction(E, inv)
            C = frobenius_matrix_mod_ell(E, ell, L, inv)
            d = det_mod(C, ell)
            expected = (-1) ** inv.N * inv.epsilon % ell
            assert d == expected

    def test_order_sweep_certified(self):
        E2, E3 = intro_Em(5, 2), intro_Em(7, 3)
        L2, L3 = lfunction(E2), lfunction(E3)
        i2, i3 = global_invariants(E2), global_invariants(E3)
        exps = {16, 20, 24, 28, 36}
        r17 = order_excludes(frobenius_matrix_mod_ell(E2, 17, L2, i2), exps, 17)
        assert r17["failures"] == [36]
        assert order_excludes(
            frobenius_matrix_mod_ell(E3, 17, L3, i3), exps, 17)["pass"]
