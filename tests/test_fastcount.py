import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ffell import fastcount
from ffell.algebra import Poly, PrimeField, is_prime, legendre
from ffell.curves import WeierstrassCurve
from ffell.families import FAMILIES
from ffell.fastcount import batch_traces, field_tables, ntt_prime
from ffell.lfunction import global_invariants
from ffell.places import Place, count_places
from oracles import (count_fiber_points, count_points_cubic, horner,
                     orbit_representatives, per_place_cubic_sum, rebuilt)
from test_acceptance import CORPUS_SPECS


def intro_Em(p, m):
    F = PrimeField(p)
    t = Poly.t(F)
    u = t * t - 1
    return WeierstrassCurve(Poly(F, []), 3 * u ** 3, -2 * u ** 5).twist_by(t - m)


def minimal_polynomial(T, code):
    """The minimal polynomial over F_p of the element with this code, for
    d <= 2."""
    F, K = PrimeField(T.p), T.field
    if code < T.p:
        return Poly(F, [-code, 1])
    beta = K.decode(code)
    conj = K.pow(beta, T.p)
    s, pr = K.add(beta, conj), K.mul(beta, conj)
    assert s[1] == 0 and pr[1] == 0
    return Poly(F, [pr[0], -s[0], 1])


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
            reps = T.degree_d_representatives()
            assert len(reps) == count_places(p, d)
            # built once per field and shared, so read-only
            assert reps is T.degree_d_representatives()
            assert not reps.flags.writeable


class TestBatchTraces:
    def test_degree1_matches_fiber_counts(self):
        for p, m in [(5, 2), (7, 3), (11, 2)]:
            E = intro_Em(p, m)
            F = E.field
            reps, traces = batch_traces(E, 1)
            good = [a for a in range(p) if E.delta(a)]
            assert reps.tolist() == sorted(good)
            for c, a in zip(reps, traces):
                assert count_fiber_points(E, Place.rational(F, int(c))) == a

    def test_degree2_matches_fiber_counts(self):
        p = 5
        E = intro_Em(p, 2)
        F = E.field
        T = field_tables(p, 2)
        reps, traces = batch_traces(E, 2)
        by_place = {}
        for c, a in zip(reps, traces):
            pi = minimal_polynomial(T, int(c))
            by_place[pi.coeffs] = (pi, a)
        assert len(by_place) == len(reps)
        for pi, a in by_place.values():
            assert count_fiber_points(E, Place.finite(F, pi)) == a

    @pytest.mark.parametrize("p,d", [(5, 1), (5, 2), (7, 2), (11, 1),
                                     (13, 2)])
    def test_skips_exactly_the_zeros_of_delta(self, p, d):
        # the mask from the logs of 4 A^3 and -27 B^2 against evaluating
        # Delta itself; the j = 0 (A = 0) and j = 1728 (B = 0) models read
        # the ZERO sentinel at every place, good ones included
        F = PrimeField(p)
        t = Poly.t(F)
        T = field_tables(p, d)
        reps = T.degree_d_representatives()
        for E in (intro_Em(p, 2),
                  WeierstrassCurve(Poly(F, []), Poly(F, []), t * (t + 1)),
                  WeierstrassCurve(Poly(F, []), t * (t - 1), Poly(F, [])),
                  WeierstrassCurve(t, t * t + 1, t ** 3 - 2)):
            kept, _ = batch_traces(E, d)
            assert (kept.tolist()
                    == reps[T.eval_poly(E.delta, reps) != 0].tolist())

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


def corpus_members():
    """(E, m) for every tier-1 corpus member (N <= 9) and its top degree."""
    out = []
    for fid, n in CORPUS_SPECS:
        fam = FAMILIES[fid]
        for p in (5, 7, 11, 13):
            if not fam.valid_prime(p, n):
                continue
            for w in fam.W_set(p, n):
                E = fam.instantiate(p, n, w)
                N = global_invariants(E).N
                if N <= 9:
                    out.append((E, min(N, N // 2 + 1)))
    return out


class TestTwistSharedTraces:
    def test_equal_to_rebuilt_model(self):
        # a twist by u reads its base's (reps, traces), drops the roots of
        # u and multiplies by chi(u) (Silverman, AEC X.5); against the same
        # model with no base, on the corpus and on a twist of each member by
        # a nonsquare constant or by a u with roots of degree 1 and 2
        members = corpus_members()
        assert len(members) == 141
        for i, (E, m) in enumerate(members):
            F = E.field
            t = Poly.t(F)
            beta = next(b for b in range(2, F.p) if legendre(b, F.p) == -1)
            u = (t - i % F.p) * (t * t - beta) if i % 2 else Poly(F, [beta])
            for curve in (E, E.twist_by(u)):
                plain = rebuilt(curve)
                for d in range(1, m + 1):
                    (reps, traces), (ref_reps, ref_traces) = (
                        batch_traces(curve, d), batch_traces(plain, d))
                    assert reps.tolist() == ref_reps.tolist(), (curve, d)
                    assert traces.tolist() == ref_traces.tolist(), (curve, d)


# every (p, d) with p in {5, 7, 11} and q = p^d <= 2500
FIELDS = [(p, d) for p in (5, 7, 11) for d in range(1, 5) if p ** d <= 2500]


def element(K, code):
    return K.decode(code) if K.degree > 1 else code


class TestKernelAgainstScalarOracle:
    """batch_traces against a scalar character sum (at every place
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
            assert K.is_zero(horner(K, E.delta, element(K, c)))
        if T.q <= 125 or not len(reps):
            picks = range(len(reps))
        else:
            picks = data.draw(st.lists(st.integers(0, len(reps) - 1),
                                       min_size=1, max_size=3))
        for i in picks:
            beta = element(K, int(reps[i]))
            assert not K.is_zero(horner(K, E.delta, beta))
            A2, A4, A6 = (horner(K, f, beta) for f in (E.a2, E.a4, E.a6))
            assert traces[i] == K.order + 1 - count_points_cubic(K, A2, A4,
                                                                A6)


# F_5, F_7, F_11, F_13, F_25 and F_49
EVAL_FIELDS = [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (7, 2)]


class TestEvalPolyAgainstHorner:
    """The log-domain Horner pass against scalar Horner on raw field values,
    at every code (beta = 0 included) in a drawn order."""

    @pytest.mark.parametrize("kind", ["general", "zero", "constant",
                                      "vanishing prefix"])
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(EVAL_FIELDS), st.data())
    def test_matches_scalar_horner(self, kind, field, data):
        p, d = field
        F = PrimeField(p)
        T = field_tables(p, d)
        K = T.field
        # zero coefficients are drawn often, so runs of them occur
        coeff = st.one_of(st.just(0), st.integers(0, p - 1))

        def poly(max_deg):
            return Poly(F, data.draw(st.lists(coeff, max_size=max_deg + 1)))

        if kind == "zero":
            f = Poly(F, [])
        elif kind == "constant":
            f = Poly(F, [data.draw(st.integers(1, p - 1))])
        elif kind == "general":
            f = poly(12)
        else:
            # (m h) t^k + c with m(beta_0) = 0: the partial Horner value
            # vanishes at beta_0 (the Zech sentinel), the zero steps then
            # carry a zero, and c = 0 makes f itself vanish there
            m = minimal_polynomial(T, data.draw(st.integers(0, T.q - 1)))
            h = poly(2) or Poly(F, [1])
            k = data.draw(st.integers(0, 4))
            c = data.draw(st.integers(0, p - 1))
            f = m * h * Poly.t(F) ** k + c
        codes = np.array(data.draw(st.permutations(range(T.q))),
                         dtype=np.int64)
        got = T.eval_poly(f, codes)
        assert got.dtype == np.int64 and got.shape == codes.shape
        code_of = K.encode if d > 1 else int
        assert got.tolist() == [code_of(horner(K, f, element(K, int(c))))
                                for c in codes]


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


# every (p, d) with p in {5, 7, 11, 13} and q = p^d <= 2500
TABLE_FIELDS = [(p, d) for p in (5, 7, 11, 13) for d in range(1, 5)
                if p ** d <= 2500]


def discriminant_codes(T, A, B):
    """Codes of 4 A^3 + 27 B^2 (the integers 4 and 27 have codes 4 mod p
    and 27 mod p)."""
    return T.add_codes(T.scale_codes(T.power_codes(3)[A], 4 % T.p),
                       T.scale_codes(T.power_codes(2)[B], 27 % T.p))


def draw_pairs(T, kind, data, size=8):
    """Codes (A, B) of one kind: A = 0, B = 0, log A odd or even, or a
    singular cubic A = -3 c^2, B = 2 c^3 (c = 0 included)."""
    code = st.integers(0, T.q - 1)
    logs = st.integers(0, T.n // 2 - 1)
    ints = st.lists(code, min_size=size, max_size=size)
    if kind == "singular":
        c = np.array(data.draw(ints))
        return (T.scale_codes(T.power_codes(2)[c], -3 % T.p),
                T.scale_codes(T.power_codes(3)[c], 2))
    B = np.array(data.draw(ints))
    if kind == "A=0":
        return np.zeros(size, dtype=np.int64), B
    if kind == "B=0":
        A = np.array(data.draw(st.lists(code.filter(bool), min_size=size,
                                        max_size=size)))
        return A, np.zeros(size, dtype=np.int64)
    k = np.array(data.draw(st.lists(logs, min_size=size, max_size=size)))
    return T.exp[2 * k + (kind == "log A odd")], B


class TestCubicTableAgainstPerPlaceSum:
    """The whole-field tables (the twist scaling and the exact DFT
    correlation) against the per-place log-domain sum they replaced."""

    @pytest.mark.parametrize("kind", ["A=0", "B=0", "log A odd",
                                      "log A even", "singular"])
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(TABLE_FIELDS), st.data())
    def test_lookup_matches_oracle(self, kind, field, data):
        T = field_tables(*field)
        A, B = draw_pairs(T, kind, data)
        if kind == "singular":
            assert not discriminant_codes(T, A, B).any()
        got = T.cubic_sums(A, B)
        assert got.dtype == np.int64
        assert got.tolist() == [per_place_cubic_sum(T, a, b)
                                for a, b in zip(A.tolist(), B.tolist())]

    @pytest.mark.parametrize("p,d", [(5, 1), (5, 2), (7, 1), (7, 2),
                                     (11, 1), (13, 1)])
    def test_every_pair_of_small_fields(self, p, d):
        T = field_tables(p, d)
        A, B = np.divmod(np.arange(T.q * T.q), T.q)
        assert T.cubic_sums(A, B).tolist() == [
            per_place_cubic_sum(T, a, b) for a, b in zip(A.tolist(),
                                                         B.tolist())]

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(TABLE_FIELDS), st.data())
    def test_hasse_bound_at_nonsingular_pairs(self, field, data):
        T = field_tables(*field)
        code = st.integers(0, T.q - 1)
        A = np.array(data.draw(st.lists(code, min_size=16, max_size=16)))
        B = np.array(data.draw(st.lists(code, min_size=16, max_size=16)))
        good = discriminant_codes(T, A, B) != 0
        S = T.cubic_sums(A[good], B[good])
        assert (S * S <= 4 * T.q).all()


class TestExactnessBound:
    def test_ntt_prime(self):
        for p, d in [(5, 1), (7, 5), (11, 5), (11, 6), (13, 5)]:
            q, P = p ** d, ntt_prime(p, d)
            assert P > 2 * q and P % p == 1 and is_prime(P)
            assert not any(is_prime(c) for c in range(2 * q + 1, P, p))
            assert p * (P - 1) ** 2 < 2 ** 53

    def test_beyond_bound_refused_without_tables(self):
        # q = 11^7: the check is integer arithmetic, no table is built
        before = set(fastcount._TABLE_CACHE)
        with pytest.raises(ValueError) as exc:
            ntt_prime(11, 7)
        msg = str(exc.value)
        assert "11^7 = 19487171" in msg and "2^53" in msg
        assert set(fastcount._TABLE_CACHE) == before

    def test_place_trace_beyond_bound_refused_without_tables(self):
        # y^2 = x^3 + t x + 1 at a good place of degree 11 over F_5: the
        # tables for 5^11 would take gigabytes, so nothing may be built
        F = PrimeField(5)
        x = Place.finite(F, Poly(F, [3, 3, 2, 3, 2, 0, 4, 4, 4, 4, 2, 1]))
        before = set(fastcount._TABLE_CACHE)
        with pytest.raises(ValueError, match="2\\^53"):
            fastcount.place_trace(x.pi, Poly.t(F), Poly(F, [1]))
        assert set(fastcount._TABLE_CACHE) == before
