import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ffell.algebra import Poly, PrimeField
from ffell.curves import WeierstrassCurve
from ffell.fastcount import batch_traces, field_tables
from ffell.places import Place, count_places
from oracles import count_fiber_points, count_points_cubic, orbit_representatives


def intro_Em(p, m):
    F = PrimeField(p)
    t = Poly.t(F)
    u = t * t - 1
    return WeierstrassCurve(Poly(F, []), 3 * u ** 3, -2 * u ** 5).twist_by(t - m)


class TestFieldTables:
    @pytest.mark.parametrize("p,d", [(5, 1), (5, 2), (7, 2), (11, 2), (5, 3)])
    def test_log_exp_roundtrip(self, p, d):
        T = field_tables(p, d)
        q = p ** d
        assert sorted(T.exp.tolist()) == list(range(1, q))
        for c in range(1, q):
            assert T.exp[T.log[c]] == c

    def test_chi_counts(self):
        T = field_tables(7, 2)
        # exactly (q-1)/2 squares and nonsquares among the units
        assert int((T.chi == 1).sum()) == 24
        assert int((T.chi == -1).sum()) == 24
        assert T.chi[0] == 0

    def test_add_codes_matches_field(self):
        T = field_tables(5, 2)
        K = T.field
        a = np.arange(T.q, dtype=np.int64)
        b = (a * 7 + 3) % T.q
        out = T.add_codes(a, b)
        for i in range(T.q):
            s = K.add(K.decode(int(a[i])), K.decode(int(b[i])))
            assert int(out[i]) == K.encode(s)

    def test_frobenius_fixed_field(self):
        T = field_tables(5, 3)
        fixed = [c for c in range(T.q) if T.frobenius[c] == c]
        assert len(fixed) == 5  # the prime subfield

    def test_representative_count_matches_place_count(self):
        for p, d in [(5, 1), (5, 2), (5, 3), (7, 2), (11, 2)]:
            T = field_tables(p, d)
            assert len(T.degree_d_representatives()) == count_places(p, d)


class TestBatchTraces:
    def test_degree1_matches_fiber_counts(self):
        for p, m in [(5, 2), (7, 3), (11, 2)]:
            E = intro_Em(p, m)
            F = E.field
            reps, traces = batch_traces(E, 1)
            good = [a for a in range(p) if E.delta(F(a))]
            assert reps.tolist() == sorted(good)
            for c, a in zip(reps, traces):
                assert count_fiber_points(E, Place.rational(F, int(c))) == a

    def test_degree2_matches_fiber_counts(self):
        p = 5
        E = intro_Em(p, 2)
        F = E.field
        T = field_tables(p, 2)
        reps, traces = batch_traces(E, 2)
        K = T.field
        by_place = {}
        for c, a in zip(reps, traces):
            beta = K(K.decode(int(c)))
            conj = beta ** p
            s, pr = beta + conj, beta * conj
            assert s.raw[1] == 0 and pr.raw[1] == 0
            pi = Poly(F, [pr.raw[0], (-s).raw[0], 1])
            by_place[pi.coeffs] = (pi, a)
        assert len(by_place) == len(reps)
        for pi, a in by_place.values():
            assert count_fiber_points(E, Place.finite(F, pi)) == a

    def test_hasse_bound(self):
        E = intro_Em(7, 2)
        for d in (1, 2, 3):
            _, traces = batch_traces(E, d)
            qd = 7 ** d
            assert all(int(a) * int(a) <= 4 * qd for a in traces)

    def test_deterministic(self):
        E = intro_Em(5, 3)
        r1, t1 = batch_traces(E, 3)
        r2, t2 = batch_traces(E, 3)
        assert r1.tolist() == r2.tolist() and t1.tolist() == t2.tolist()


# every (p, d) with p in {5, 7, 11} and q = p^d <= 2500
FIELDS = [(p, d) for p in (5, 7, 11) for d in range(1, 5) if p ** d <= 2500]


def element(K, code):
    return K(K.decode(code)) if K.degree > 1 else K(code)


def horner(f, beta):
    acc = beta.field.zero
    for cf in reversed(f.coeffs):
        acc = acc * beta + beta.field(cf)
    return acc


class TestKernelAgainstScalarOracle:
    """batch_traces against a FieldElement character sum (at every place
    for q <= 125, at sampled places above), and the vectorised
    representatives against the orbit walk."""

    @pytest.mark.parametrize("shape", ["general", "a2=0", "a4=0", "a6=0",
                                       "a2=a6=0", "sentinel"])
    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(FIELDS), st.data())
    def test_traces_and_representatives(self, shape, field, data):
        p, d = field
        F = PrimeField(p)

        def poly(deg):
            return Poly(F, data.draw(st.lists(st.integers(0, p - 1),
                                              max_size=deg + 1)))

        a = {"a2": poly(2), "a4": poly(4), "a6": poly(6)}
        if shape == "sentinel":
            # a2 = 0 and a4 = -c^2: u^2 + a4(beta) = 0 at u = +-c(beta), so
            # the Zech lookup for u^2 + A hits its sentinel
            c = poly(2)
            assume(c)
            a["a2"], a["a4"] = Poly(F, []), -(c * c)
        for name in shape.split("="):
            if name in a:
                a[name] = Poly(F, [])
        try:
            E = WeierstrassCurve(a["a2"], a["a4"], a["a6"])
        except ValueError:          # zero discriminant
            assume(False)

        T = field_tables(p, d)
        K = T.field
        oracle = orbit_representatives(T)
        assert T.degree_d_representatives().tolist() == oracle.tolist()
        reps, traces = batch_traces(E, d)
        kept = set(reps.tolist())
        assert kept <= set(oracle.tolist())
        for c in set(oracle.tolist()) - kept:
            assert not horner(E.delta, element(K, c))
        if T.q <= 125 or not len(reps):
            picks = range(len(reps))
        else:
            picks = data.draw(st.lists(st.integers(0, len(reps) - 1),
                                       min_size=1, max_size=3))
        for i in picks:
            beta = element(K, int(reps[i]))
            assert horner(E.delta, beta)
            A2, A4, A6 = (horner(f, beta) for f in (E.a2, E.a4, E.a6))
            assert traces[i] == K.order + 1 - count_points_cubic(K, A2, A4,
                                                                A6)


class TestMinimalModelCount:
    def test_nonminimal_model_counts_through_kernel(self):
        # twisting by pi^2 rescales the model by pi: it is non-minimal at pi
        # and good on the minimal model there, of degree 1 and 2
        F = PrimeField(7)
        E = intro_Em(7, 2)
        for pi in (Poly(F, [3, 1]), Poly(F, [1, 0, 1])):
            x = Place.finite(F, pi)
            Et = E.twist_by(pi * pi)
            assert Et.delta.valuation(pi) == 12
            assert count_fiber_points(Et, x) == count_fiber_points(E, x)
