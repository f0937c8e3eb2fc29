"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line for its criterion (kept visible through
pytest's capture).  The L-dependent corpora are feasibility-bounded to
members with q^(N//2+1) small enough for exact expansion in seconds: N <= 9
at p in {5, 7, 11, 13}.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ffell.algebra import Poly, PrimeField, is_prime, legendre
from ffell.curves import WeierstrassCurve
from ffell.families import FAMILIES, verify_profile
from ffell.lfunction import (bsd_square_class_check, check_functional_equation,
                             frobenius_matrix_mod_ell, global_invariants,
                             lfunction)
from ffell.orthogonal import (OrthogonalSpace, OrthMatrix, order_excludes,
                              random_orthogonal, spinor_norm,
                              spinor_zassenhaus, square_class_mod)


def _report(capsys, num, title, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {num:2d} [{title}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({title}) failed"


def intro_Em(p, m):
    F = PrimeField(p)
    t = Poly.t(F)
    u = t * t - 1
    return WeierstrassCurve(Poly(F, []), 3 * u ** 3,
                            -2 * u ** 5).twist_by(t - m)


# ---------------------------------------------------------------------------
# shared corpora

CORPUS_SPECS = [("intro_N5", 0), ("odd_7mod8", 0), ("odd_1mod8", 1),
                ("even_6mod8", 0), ("case1_2ns", 2), ("case2_3ns", 2),
                ("case3_5ns", 2), ("case4_7ns", 2)]

PROFILE_GRIDS = {
    ("intro_N5", 0): [5, 7, 11, 13],
    ("odd_1mod8", 1): [7, 11, 13],
    ("odd_3mod8", 1): [11, 17, 19],
    ("odd_5mod8", 1): [17, 23],
    ("odd_7mod8", 0): [5, 7, 11, 13],
    ("even_0mod8", 1): [19, 23, 29],
    ("even_2mod8", 1): [23, 29, 31],
    ("even_4mod8", 1): [11, 17],
    ("even_6mod8", 0): [13, 17],
    ("case1_2ns", 2): [7, 11, 13],
    ("case2_3ns", 2): [5, 11, 17],
    ("case3_5ns", 2): [7, 11, 13],
    ("case3_5ns", 3): [7, 11, 13],
    ("case4_7ns", 2): [11, 13, 19],
    ("case4_7ns", 3): [11, 13, 19],
}


@pytest.fixture(scope="module")
def corpus():
    cells = []
    for fid, n in CORPUS_SPECS:
        fam = FAMILIES[fid]
        for p in (5, 7, 11, 13):
            if not fam.valid_prime(p, n):
                continue
            for w in fam.W_set(p, n):
                E = fam.instantiate(p, n, w)
                inv = global_invariants(E)
                if inv.N > 9:
                    continue
                cells.append({"fid": fid, "n": n, "p": p, "w": w,
                              "E": E, "inv": inv,
                              "L": lfunction(E, inv)})
    assert len(cells) >= 40
    return cells


@pytest.fixture(scope="module")
def profile_reports():
    return {(fid, n): verify_profile(fid, n, primes, ells=(), max_w=None)
            for (fid, n), primes in PROFILE_GRIDS.items()}


# ---------------------------------------------------------------------------

def test_01_golden_lfunction(capsys):
    # the documented golden member of the degree-5 family over F_5 (the
    # printed example's label m=1 lies outside the twist domain; the stated
    # polynomial is the m=2 member's)
    L = lfunction(intro_Em(5, 2))
    ok = L.coefficients == (1, -2, 1, -5, 250, -3125)
    _report(capsys, 1, "golden L over F_5", ok)


def test_02_witness_polynomials(capsys):
    L2 = lfunction(intro_Em(5, 2))
    L3 = lfunction(intro_Em(7, 3))
    s2 = [Fraction(a, 5 ** i) for i, a in enumerate(L2.coefficients)]
    s3 = [Fraction(a, 7 ** i) for i, a in enumerate(L3.coefficients)]
    ok = (s2 == [1, Fraction(-2, 5), Fraction(1, 25), Fraction(-1, 25),
                 Fraction(2, 5), -1]
          and s3 == [1, 0, Fraction(-33, 49), Fraction(-33, 49), 0, 1])
    _report(capsys, 2, "witness polynomials L(T/5), L(T/7)", ok)


def test_03_order_sweep(capsys):
    exponents = {16, 20, 24, 28, 36}
    witnesses = []
    for p, m in ((5, 2), (7, 3)):
        E = intro_Em(p, m)
        inv = global_invariants(E)
        witnesses.append((p, E, lfunction(E, inv), inv))
    ok = True
    first_witness_failures = {}
    for ell in range(5, 101):
        if not is_prime(ell):
            continue
        certified = False
        for p, E, L, inv in witnesses:
            if (6 * p) % ell == 0:
                continue
            res = order_excludes(frobenius_matrix_mod_ell(E, ell, L, inv),
                                 exponents, ell)
            if p == 5 and res["failures"]:
                first_witness_failures[ell] = res["failures"]
            if res["pass"]:
                certified = True
                break
        ok = ok and certified
    ok = ok and first_witness_failures == {17: [36]}
    _report(capsys, 3, "order sweep ell in [5,100]", ok)


def test_04_functional_equation(capsys, corpus):
    ok = all(check_functional_equation(c["L"]) == (True, None)
             for c in corpus)
    _report(capsys, 4, f"functional equation ({len(corpus)} curves)", ok)


def test_05_bsd_square_class(capsys, corpus):
    ok = True
    checked = 0
    for c in corpus:
        L, inv = c["L"], c["inv"]
        if L.value_at_inverse_q() == 0:
            continue
        for ell in range(5, 51):
            if not is_prime(ell) or (6 * inv.q * inv.script_L) % ell == 0:
                continue
            checked += 1
            ok = ok and bsd_square_class_check(c["E"], L, ell, inv) == "pass"
    ok = ok and checked > 100
    _report(capsys, 5, f"BSD square class ({checked} checks)", ok)


def test_06_family_profiles(capsys, profile_reports):
    ok = True
    for (fid, n), rep in profile_reports.items():
        good = rep.verdict and rep.cells
        if not good:
            with capsys.disabled():
                print(f"  profile failure: {fid} n={n}: "
                      f"{rep.kodaira_mismatch or rep.unattained or 'cells'}")
        ok = ok and good
    _report(capsys, 6, "family profiles and root-number laws", ok)


def test_07_intro_dichotomies(capsys):
    ok = True
    for p in (5, 7, 11, 13, 17, 19):
        for m in range(p):
            if m * (m * m - 1) % p == 0:
                continue
            inv = global_invariants(intro_Em(p, m))
            two_c = 2 * inv.c_E
            if legendre(-3 * (m * m - 1), p) == 1:
                ok = ok and two_c in (16, 64)
            else:
                ok = ok and two_c == 32
            ok = ok and (-inv.epsilon == 1) == (legendre(-3 * m, p) == 1)
    _report(capsys, 7, "intro twist dichotomies", ok)


def test_08_spinor_oracles(capsys):
    rng = random.Random(20260825)
    ok = True
    for ell in (5, 7, 11, 13):
        for dim in range(2, 7):
            space = OrthogonalSpace(
                ell, np.diag([rng.randrange(1, ell) for _ in range(dim)]))
            pairs = []
            for _ in range(1000):
                A = random_orthogonal(space, rng)
                s = spinor_norm(A)
                try:
                    ok = ok and spinor_zassenhaus(A) == s
                except ValueError:
                    pass      # det(I + A) = 0: formula inapplicable
                pairs.append((A, s))
            for i in range(100):
                (A, sa), (B, sb) = pairs[2 * i], pairs[2 * i + 1]
                ok = ok and spinor_norm(A @ B) == sa * sb
            negI = OrthMatrix(space, -np.eye(dim, dtype=np.int64))
            ok = ok and spinor_norm(negI) == space.disc()
    _report(capsys, 8, "spinor-norm oracle equivalence", ok)


def test_09_twist_reflection(capsys, corpus):
    ok = True
    for c in corpus:
        E, inv, L = c["E"], c["inv"], c["L"]
        p = E.field.p
        nonsquare = next(a for a in range(2, p) if legendre(a, p) == -1)
        Et = E.twist_by(nonsquare)
        invt = global_invariants(Et)
        ok = ok and invt.kod == inv.kod
        Lt = lfunction(Et, invt)
        ok = ok and Lt.coefficients == tuple(
            (-1) ** i * a for i, a in enumerate(L.coefficients))
        prod = 1
        for d, dt in zip(inv.local_data, invt.local_data):
            ok = ok and str(d.place) == str(dt.place)
            prod *= d.c * dt.c * d.gamma ** d.place.degree
        ok = ok and math.isqrt(prod) ** 2 == prod
    _report(capsys, 9, "constant-twist reflection", ok)


def test_10_kodaira_independence(capsys, profile_reports):
    ok = all(not rep.kodaira_mismatch and rep.cells
             for rep in profile_reports.values())
    _report(capsys, 10, "Kodaira multiset independent of twist", ok)
