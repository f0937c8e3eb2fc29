import dataclasses
import hashlib
import json
import re

import pytest
from click.testing import CliRunner

from ffell.algebra import Poly, PrimeField, is_prime
from ffell.cli import main
from ffell.curves import WeierstrassCurve
from ffell.families import (FAMILIES, FAMILY_DECLARATIONS, analyze_cell,
                            load_family_file, parse_families, verify_profile)
from ffell.lfunction import global_invariants
from oracles import rebuilt, reference_base_coeffs
from test_acceptance import PROFILE_GRIDS

ALL_IDS = {"intro_N5", "odd_1mod8", "odd_3mod8", "odd_5mod8", "odd_7mod8",
           "even_0mod8", "even_2mod8", "even_4mod8", "even_6mod8",
           "case1_2ns", "case2_3ns", "case3_5ns", "case4_7ns"}


def declaration(fid):
    """The built-in declaration of one family, as family-file text."""
    blocks = re.split(r"(?m)^(?=id = )", FAMILY_DECLARATIONS)
    return next(b for b in blocks if re.match(rf"id = {fid}\b", b))


def variant(fid, old, new):
    """A built-in family with one piece of its declaration replaced."""
    text = declaration(fid)
    assert old in text
    return parse_families(text.replace(old, new))[fid]


class TestRegistry:
    def test_all_families_present(self):
        assert set(FAMILIES) == ALL_IDS

    def test_conditions(self):
        assert {FAMILIES[f].condition for f in ALL_IDS} == {"A", "B", "C"}
        assert FAMILIES["case1_2ns"].condition == "B"
        assert FAMILIES["even_6mod8"].condition == "C"
        assert FAMILIES["odd_7mod8"].condition == "A"

    def test_h_degrees_bounded(self):
        for fid, fam in FAMILIES.items():
            for n in (fam.nmin, fam.nmin + 1):
                if fam.nmax is not None and n > fam.nmax:
                    continue
                num, den = fam.h[n % 2]
                assert len(num) - 1 <= 4 and len(den) - 1 <= 4, fid

    def test_n_out_of_range(self):
        for fid in ("case1_2ns", "intro_N5"):       # n below nmin, above nmax
            for ask in (FAMILIES[fid].valid_prime, FAMILIES[fid].base_curve):
                with pytest.raises(ValueError, match="n=1 out of range"):
                    ask(11, 1)


class TestBaseModels:
    def test_case1_discriminant_factors(self):
        # Delta = -2^6 3^6 f^6 t^4 (t-1)^3 (t-2)^2
        p, n = 13, 3
        fam = FAMILIES["case1_2ns"]
        E = fam.base_curve(p, n)
        F = PrimeField(p)
        t = Poly.t(F)
        f = Poly(F, [1])
        for v in fam.f_values(n):
            f = f * (t - v.numerator * pow(v.denominator, p - 2, p))
        expect = ((-2 ** 6 * 3 ** 6) * f ** 6 * t ** 4
                  * (t - 1) ** 3 * (t - 2) ** 2)
        assert E.delta.coeffs == expect.coeffs

    def test_even_6_discriminant_factors(self):
        # Delta = 2^4 3^6 f^6 t^10 (t-1)^2 (t+1)^2
        p, n = 13, 0
        fam = FAMILIES["even_6mod8"]
        E = fam.base_curve(p, n)
        F = PrimeField(p)
        t = Poly.t(F)
        f = Poly(F, [1])
        for v in fam.f_values(n):
            f = f * (t - v.numerator * pow(v.denominator, p - 2, p))
        expect = (2 ** 4 * 3 ** 6 * f ** 6 * t ** 10
                  * (t - 1) ** 2 * (t + 1) ** 2)
        assert E.delta.coeffs == expect.coeffs

    def test_base_curves_nonisotrivial(self):
        for fid, fam in FAMILIES.items():
            p = next(p for p in (11, 13, 17, 19, 23, 29, 31, 37, 41)
                     if fam.valid_prime(p, fam.nmin))
            fam.base_curve(p, fam.nmin).assert_nonisotrivial()


class TestGrid:
    def test_valid_prime_rejects_excluded(self):
        assert not FAMILIES["case2_3ns"].valid_prime(7, 2)   # 7 | 42
        assert not FAMILIES["intro_N5"].valid_prime(3, 0)
        assert not FAMILIES["intro_N5"].valid_prime(9, 0)    # not prime

    def test_valid_prime_rejects_f_collision(self):
        # h0(3) = h0(4) mod 11 for the N=0 mod 8 family
        assert not FAMILIES["even_0mod8"].valid_prime(11, 1)
        assert FAMILIES["even_0mod8"].valid_prime(19, 1)

    def test_valid_prime_rejects_dead_denominator(self):
        # h(2) = -1/7 for the N=5 mod 8 family dies mod 7
        assert not FAMILIES["odd_5mod8"].valid_prime(7, 1)

    def test_even6_prime_filter_gates_grid_not_instantiation(self):
        fam = FAMILIES["even_6mod8"]
        # members at p = 3 (mod 4) are perfectly good curves (the FE corpus
        # uses them); only the condition-(C) grid excludes such primes
        assert fam.valid_prime(13, 0) and fam.valid_prime(7, 0)
        w = fam.W_set(7, 0)[0]
        assert global_invariants(fam.instantiate(7, 0, w)).epsilon == -1

    def test_W_set_membership(self):
        fam = FAMILIES["intro_N5"]
        p = 11
        W = fam.W_set(p, 0)
        delta = fam.base_curve(p, 0).delta
        for w in range(p):
            # h(w) = (3 - w^2)/(3 + w^2)
            beta = (3 + w * w) % p
            ok = bool(beta) and bool(delta((3 - w * w) * pow(beta, -1, p)))
            assert (w in W) == ok

    def test_odd5_W_empty_at_11(self):
        # h is even in u, so every w in F_11 collides with an f-root,
        # a discriminant zero, or the dead denominator
        assert FAMILIES["odd_5mod8"].W_set(11, 1) == []

    def test_instantiate_errors(self):
        fam = FAMILIES["case1_2ns"]
        with pytest.raises(ValueError):
            fam.instantiate(3, 2, 1)        # excluded prime
        p = 7
        bad_w = next(w for w in range(p) if w not in fam.W_set(p, 2))
        with pytest.raises(ValueError):
            fam.instantiate(p, 2, bad_w)

    def test_invalid_prime_raises(self):
        # 7 | 42; h(2) = -1/7 is a root of f; 9 is not prime
        for fid, p, n in (("case2_3ns", 7, 2), ("odd_5mod8", 7, 1),
                          ("intro_N5", 9, 0)):
            fam = FAMILIES[fid]
            for ask in (fam.base_curve, fam.h_on_W):
                with pytest.raises(ValueError, match=f"invalid prime {p} "):
                    ask(p, n)
            with pytest.raises(ValueError, match=f"invalid prime {p} "):
                fam.instantiate(p, n, 1)

    def test_instantiate_is_twist_of_base(self):
        fam = FAMILIES["odd_3mod8"]
        p, n = 11, 1
        w = fam.W_set(p, n)[0]
        E = fam.instantiate(p, n, w)
        F = PrimeField(p)
        tw = Poly.t(F) - fam.h_on_W(p, n)[w]
        B = fam.base_curve(p, n)
        assert E.a4.coeffs == (B.a4 * tw ** 2).coeffs
        assert E.a6.coeffs == (B.a6 * tw ** 3).coeffs

    def test_grid_cells_build_no_twisted_model(self):
        # a cell reads its base's digits, factors and I0* root counts, so
        # its own lazily scaled model is never multiplied out
        names = ("a2", "a4", "a6", "A", "B", "delta")
        fam, n = FAMILIES["odd_1mod8"], 1
        cells = 0
        for p in (7, 11, 13):
            for w in fam.W_set(p, n):
                E = analyze_cell(fam, p, n, w)[0]
                assert not set(names) & set(vars(E)), (p, w)
                plain = rebuilt(E)
                assert all(getattr(E, k) == getattr(plain, k) for k in names)
                cells += 1
        assert cells == 13


class TestVerifyProfile:
    @pytest.mark.parametrize("max_w", [-1, 0])
    def test_nonpositive_max_w_rejected(self, max_w):
        with pytest.raises(ValueError, match="max_w"):
            verify_profile("intro_N5", 0, [13], max_w=max_w)

    @pytest.mark.parametrize("jobs", [-1, 0])
    def test_nonpositive_jobs_rejected(self, jobs):
        # 0 divided by zero, and -1 returned a report of no cells
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            verify_profile("intro_N5", 0, [13], jobs=jobs)

    @pytest.mark.parametrize("primes,ells,match", [
        ([17, 17], (5, 7), "p=17 is repeated"),
        ([11, 17, 11], (5,), "p=11 is repeated"),
        ([17], (5, 7, 5), "ell=5 is repeated"),
        ([17], (5, 9), "ell=9 is not a prime >= 5")])
    def test_repeated_prime_rejected(self, primes, ells, match):
        # accepted, [17, 17] would report each of the 11 (p, w) cells
        # twice
        with pytest.raises(ValueError, match=match):
            verify_profile("odd_1mod8", 1, primes, ells=ells)

    def test_intro_passes_with_waivers(self):
        rep = verify_profile("intro_N5", 0, [5, 7], max_w=2)
        assert rep.verdict and rep.waivers

    def test_odd_family_passes(self):
        rep = verify_profile("odd_3mod8", 1, [11, 17], max_w=2)
        assert rep.verdict and not rep.skipped_primes

    def test_case4_parity_profiles(self):
        for n, sym, gamma in ((2, "IV*", 42), (3, "II", 14)):
            rep = verify_profile("case4_7ns", n, [11, 13], max_w=2)
            assert rep.verdict
            for c in rep.cells:
                assert c["invariants"]["gamma"] == gamma
                assert sym in c["invariants"]["kodaira"]

    def test_even6_root_number_skip_reason(self):
        rep = verify_profile("even_6mod8", 0, [7, 13], max_w=2)
        assert rep.verdict
        assert rep.skipped_primes == [
            [7, "root number is -1 for every w at this prime"]]
        assert all(c["checks"]["symmetry_0_inf"] for c in rep.cells)

    def test_case1_unattained_prime_fails(self):
        # the whole W(F_5) has root number -1, so condition (B) has no
        # attaining twist parameter there
        rep = verify_profile("case1_2ns", 2, [5])
        assert not rep.verdict
        assert rep.unattained == [[5, "no w with root number 1"]]
        assert all(all(c["checks"].values()) for c in rep.cells)

    def test_case1_passes_where_attained(self):
        rep = verify_profile("case1_2ns", 2, [7, 11], max_w=4)
        assert rep.verdict

    def test_skipped_primes_reported(self):
        rep = verify_profile("odd_5mod8", 1, [7, 11], max_w=1)
        reasons = dict((p, r) for p, r in rep.skipped_primes)
        assert "degenerate" in reasons[7]
        assert reasons[11] == "empty twist-parameter set W(F_p)"

    def test_parallel_matches_serial(self):
        a = verify_profile("even_4mod8", 1, [11, 17], max_w=2, jobs=1)
        b = verify_profile("even_4mod8", 1, [11, 17], max_w=2, jobs=2)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("fid,n,primes", [("intro_N5", 0, [5, 7, 11]),
                                              ("case2_3ns", 2, [5, 11]),
                                              ("odd_1mod8", 1, [13])])
    def test_pooled_tasks_match_serial(self, fid, n, primes):
        # two workers, each task a run of one prime's cells (each prime split
        # in two), merged in grid order
        serial = verify_profile(fid, n, primes, jobs=1).to_json()
        assert verify_profile(fid, n, primes, jobs=2).to_json() == serial
        assert [c["p"] for c in serial["cells"]] == sorted(
            c["p"] for c in serial["cells"])
        assert len({c["p"] for c in serial["cells"]}) == len(primes)

    def test_base_model_built_once_per_prime(self, monkeypatch):
        from ffell import families
        built = []

        def counting(a2, a4, a6):
            built.append(a2.field.p)
            return make(a2, a4, a6)

        make = families.WeierstrassCurve
        monkeypatch.setattr(families, "WeierstrassCurve", counting)
        fam = dataclasses.replace(FAMILIES["intro_N5"])    # empty memo
        rep = verify_profile(fam, 0, [5, 7], max_w=2)
        assert rep.verdict and len(rep.cells) == 4
        assert built == [5, 7]

    def test_isotriviality_computed_once_per_base(self, monkeypatch):
        # the validity pass leaves its answer in the base's memo, where
        # every twist reads it: over the acceptance grids, cold, one
        # divmod(A^3, Delta) per base model
        computed = []

        def counting(E):
            if E.twist_of is None:
                computed.append(E)
            return check(E)

        check = WeierstrassCurve.is_isotrivial
        monkeypatch.setattr(WeierstrassCurve, "is_isotrivial", counting)
        bases = cells = 0
        for (fid, n), primes in PROFILE_GRIDS.items():
            fam = dataclasses.replace(FAMILIES[fid])        # empty memo
            cells += len(verify_profile(fam, n, primes).cells)
            bases += sum(rec is not None for rec in fam._memo.values())
        assert cells == 307
        assert len(computed) == bases == 44
        assert len(set(map(id, computed))) == 44

    def test_valid_ells_filtered_once(self, monkeypatch):
        # case1_2ns declares 2 a nonsquare mod ell, so 7 is not valid; the
        # cells are handed the valid ells only
        from ffell import families
        seen = []

        def recording(fam, p, n, w, ells=()):
            seen.append(ells)
            return analyze(fam, p, n, w, ells)

        analyze = families.analyze_cell
        monkeypatch.setattr(families, "analyze_cell", recording)
        rep = verify_profile("case1_2ns", 2, [7, 11], ells=(5, 7, 11, 13),
                             max_w=2)
        assert len(rep.cells) == 4
        assert seen == [[5, 11, 13]] * 4
        assert not any(k.endswith("_ell7") for c in rep.cells
                       for k in c["checks"])

    def test_kodaira_multiset_constant_over_w(self):
        rep = verify_profile("case2_3ns", 2, [11], max_w=None)
        assert rep.verdict and not rep.kodaira_mismatch


def epsilon_law(fam, p, n, w):
    """The closed-form root-number check at one cell, or None when the family
    states no law."""
    return analyze_cell(fam, p, n, w)[2].get("epsilon_law")


class TestEpsilonLaws:
    def test_intro_dichotomy(self):
        fam = FAMILIES["intro_N5"]
        for p in (5, 7, 11):
            for w in fam.W_set(p, 0)[:3]:
                assert epsilon_law(fam, p, 0, w) is True

    def test_case1_closed_form(self):
        fam = FAMILIES["case1_2ns"]
        for p in (7, 11):
            for w in fam.W_set(p, 2):
                assert epsilon_law(fam, p, 2, w) is True

    def test_even6_legendre_law(self):
        fam = FAMILIES["even_6mod8"]
        for w in fam.W_set(13, 0)[:4]:
            assert epsilon_law(fam, 13, 0, w) is True

    def test_no_law_returns_none(self):
        fam = FAMILIES["odd_1mod8"]
        w = fam.W_set(7, 1)[0]
        assert epsilon_law(fam, 7, 1, w) is None

    def test_negative_control_h_replaced_by_u(self):
        # replacing the twist map by h(u) = u destroys the square-class
        # telescoping, so the eps = 1 law must fail somewhere (the roots of
        # f stay those of the original map, now declared as g)
        h0 = "[0, 0, 4] / [1, 0, 2, 0, 1]"
        fam = variant("even_0mod8", f"h = {h0};  f = h(i+1)",
                      f"h = [0, 1] / [1];  g = {h0};  f = g(i+1)")
        results = [epsilon_law(fam, 19, 1, w)
                   for w in fam.W_set(19, 1)[:8]]
        assert False in results

    def test_case4_swapped_h_breaks_law(self):
        # the opposite twist-map parity pairing leaves a stray (3/p),
        # which is -1 at p = 19
        fam = variant("case4_7ns",
                      "h[even] = [189] / [-168, 0, 4];  h[odd] = [63]",
                      "h[odd] = [189] / [-168, 0, 4];  h[even] = [63]")
        w = fam.W_set(19, 2)[0]
        E = fam.instantiate(19, 2, w)
        assert global_invariants(E).epsilon == -1
        assert epsilon_law(FAMILIES["case4_7ns"], 19, 2,
                                 FAMILIES["case4_7ns"].W_set(19, 2)[0])


EVEN4_FILE = """\
# N = 4 mod 8 family
id = even_4_from_file
condition = C
nmin = 1
exclude = 6
h = [0, 0, -3] / [1]
f = h(i) : 1 .. 4n
a2 = []
a4 = [-27, 30, -3]
a6 = [54, -78, 26, -2]
"""


class TestFamilyFiles:
    def test_round_trip_matches_registered(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(EVEN4_FILE)
        fam = load_family_file(path)
        ref = FAMILIES["even_4mod8"]
        E, R = fam.base_curve(11, 1), ref.base_curve(11, 1)
        assert (E.a2, E.a4, E.a6) == (R.a2, R.a4, R.a6)
        assert fam.W_set(11, 1) == ref.W_set(11, 1)
        assert fam.f_values(2) == ref.f_values(2)

    def test_loaded_family_verifies(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(EVEN4_FILE)
        fam = load_family_file(path)
        rep = verify_profile(fam, 1, [11], max_w=2)
        # no expected profile in the file: only the recomputed hypotheses,
        # eps law and conditions are checked
        assert rep.verdict

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("id = x\ncondition = B\nh = [1]/[1]\n")
        with pytest.raises(ValueError):
            load_family_file(path)

    def test_bad_f_spec_rejected(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(EVEN4_FILE.replace("f = h(i) : 1 .. 4n",
                                           "f = q(i) : 1 .. 4n"))
        with pytest.raises(ValueError):
            load_family_file(path)

    def test_g_required_when_used(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(EVEN4_FILE.replace("f = h(i) : 1 .. 4n",
                                           "f = g(i) : 1 .. 4n"))
        with pytest.raises(ValueError):
            load_family_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        # a misspelled profile key must not silently check nothing
        path = tmp_path / "fam.txt"
        path.write_text(EVEN4_FILE + "gama = 1\n")
        with pytest.raises(ValueError, match="gama"):
            load_family_file(path)

    def test_zero_denominator_rejected(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(EVEN4_FILE.replace("[0, 0, -3] / [1]",
                                           "[0, 0, -3] / [1/0]"))
        with pytest.raises(ValueError):
            load_family_file(path)

    @pytest.mark.parametrize("fid,old,new,match", [
        ("odd_1mod8", "h = [0, 1] / [1]", "h = [0, 1] [1]",
         "expected \\[num\\] / \\[den\\]"),
        ("odd_1mod8", "place 0 = {I2} {2}", "place 0 = I2",
         "expected sets like"),
        ("odd_1mod8", "place 0 = {I2} {2}", "place 0 = {I2, V} {2}",
         "place 0: expected {Kodaira symbols}"),
        ("even_6mod8", "eps = (-1)", "eps = (-1 k)", "bad factor 'k'"),
        ("odd_1mod8", "c_I0star = {4}", "c_I0star = {1} {2}",
         "c_I0star: expected one set"),
        ("even_0mod8", "c_E_power_of = 4", "c_E_power_of = 1",
         "c_E_power_of must be at least 2"),
        ("even_6mod8", "equal_c = 0, inf", "equal_c = 0",
         "equal_c takes two locations"),
        ("intro_N5", "waive = yes", "waive = maybe",
         "waive must be yes or no")])
    def test_bad_value_rejected(self, fid, old, new, match):
        with pytest.raises(ValueError, match=match):
            variant(fid, old, new)

    def test_two_families_in_one_file_rejected(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(declaration("odd_1mod8") + declaration("even_4mod8"))
        res = CliRunner().invoke(main, ["verify-family", str(path),
                                        "--primes", "11", "--jobs", "1"])
        assert res.exit_code == 2
        assert "declares one family, not 2" in res.stderr

    def test_parity_variant_only_where_allowed(self):
        with pytest.raises(ValueError):
            variant("case3_5ns", "N = 2n+2", "N[even] = 2n+2")
        with pytest.raises(ValueError):       # both for all n and for even n
            variant("case3_5ns", "gamma[odd] = 5", "gamma = 5")

    def test_builtin_declaration_round_trip(self, tmp_path):
        # even_4mod8's declaration, profile included, read back from a file
        # verifies exactly like the built-in
        path = tmp_path / "fam.txt"
        path.write_text(declaration("even_4mod8").replace(
            "id = even_4mod8", "id = even_4_from_file"))
        got = verify_profile(load_family_file(path), 1, [11, 17],
                             max_w=3).to_json()
        ref = verify_profile("even_4mod8", 1, [11, 17], max_w=3).to_json()
        assert got.pop("family") == "even_4_from_file"
        assert ref.pop("family") == "even_4mod8"
        assert got == ref and got["verdict"]
        assert all("place_9" in c["checks"] and "I0star_places" in c["checks"]
                   for c in got["cells"])

    def test_wrong_profile_entry_fails(self, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text(declaration("even_4mod8").replace("B = 2", "B = 3"))
        res = CliRunner().invoke(main, ["verify-family", str(path), "--n",
                                        "1", "--primes", "11", "--max-w",
                                        "2", "--jobs", "1"])
        assert res.exit_code == 1
        assert "verdict: FAIL" in res.stderr
        assert all(c["checks"]["B"] is False
                   for c in json.loads(res.stdout)["cells"])

    @pytest.mark.parametrize("old,new,exit_code", [
        # a numerator coefficient of h whose denominator dies mod 7
        ("h = [0, 1] / [1]", "h = [1/7, 1] / [1]", 0),
        # an equal_c location that dies mod 7 and is no declared place; at
        # p = 11 there is no bad place at t = 1/7, so the check fails
        ("c_I0star = {4}", "c_I0star = {4};  equal_c = 1/7, inf", 1)])
    def test_dead_declared_value_skips_prime(self, tmp_path, old, new,
                                             exit_code):
        path = tmp_path / "fam.txt"
        text = declaration("odd_1mod8")
        assert old in text
        path.write_text(text.replace(old, new))
        res = CliRunner().invoke(main, ["verify-family", str(path), "--n",
                                        "1", "--primes", "7,11", "--jobs",
                                        "1"])
        assert res.exit_code == exit_code, res.output
        rec = json.loads(res.stdout)
        assert rec["skipped_primes"] == [[7, "excluded or degenerate mod p"]]
        assert {c["p"] for c in rec["cells"]} == {11}
        if "equal_c" in new:
            assert all(c["checks"]["symmetry_1/7_inf"] is False
                       for c in rec["cells"])


# A family file with rational a_i, h, g, f-roots and place locations, whose
# denominators 7, 11 and 13 make some primes of the grid degenerate
RATIONAL_FILE = """\
id = rational_file;  condition = A;  nmin = 1
h = [1, 0, 2] / [1, 1/13];  g = [1/2] / [1, 0, 3];  f = g(i) : 1 .. n+1
a2 = [1/2];  a4 = [0, -3/7];  a6 = [1/3, 0, 2]
place 0 = {I2} {2};  place 2/11 = {II} {1};  place inf = {I2}
c_I0star = {4};  equal_c = 0, inf;  eps = (3 h f(0))
"""

# the primes below 80, and 9, 15 and 25, which are not
MOD_P_PRIMES = sorted([p for p in range(80) if is_prime(p)] + [9, 15, 25])


def mod_p_grid():
    """(family, n) for the built-ins at n = nmin and nmin + 1, where in
    range, and for RATIONAL_FILE at n = 1 and 2."""
    fams = list(FAMILIES.values()) + list(
        parse_families(RATIONAL_FILE).values())
    return [(fam, n) for fam in fams for n in (fam.nmin, fam.nmin + 1)
            if fam.nmax is None or n <= fam.nmax]


# sha256 over mod_p_grid(), in order, of json.dumps([fid, n, report, rows],
# sort_keys=True): the verify_profile(max_w=3) report over MOD_P_PRIMES and,
# per prime, the valid_prime verdict and at a valid prime the base model's
# coefficients and W_set.  Computed at commit 58a6040, where each base model
# was multiplied out over Q and then reduced mod p
MOD_P_SHA256 = (
    "17c417e249f788289c432e3d6ea18ca07520f55cbee02bf7225bc9a806d0a43f")


class TestModPRecord:
    def test_pinned_and_equal_to_Q_model_reduced(self):
        """The grid's reports, verdicts, base models and W_sets against the
        pin, and each base model against the Q product reduced mod p."""
        h = hashlib.sha256()
        cells = 0
        for fam, n in mod_p_grid():
            rep = verify_profile(fam, n, MOD_P_PRIMES, max_w=3).to_json()
            rows = []
            for p in MOD_P_PRIMES:
                if not fam.valid_prime(p, n):
                    rows.append([p, False])
                    continue
                E = fam.base_curve(p, n)
                rows.append([p, True, [list(c.coeffs) for c in
                                       (E.a2, E.a4, E.a6)],
                             fam.W_set(p, n)])
                ref = reference_base_coeffs(fam, n)
                assert [c.coeffs for c in (E.a2, E.a4, E.a6)] == [
                    Poly(E.field, [x.numerator * pow(x.denominator, -1, p)
                                   for x in c]).coeffs for c in ref], (
                    fam.fid, n, p)
            h.update(json.dumps([fam.fid, n, rep, rows],
                                sort_keys=True).encode())
            cells += len(rep["cells"])
        assert cells == 1198
        assert h.hexdigest() == MOD_P_SHA256
