import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ffell import orthogonal
from ffell.algebra import SquareClass, is_prime
from ffell.orthogonal import (OrthMatrix, OrthogonalSpace, det_mod, identity,
                              mat_pow_mod, omega_membership, order_excludes,
                              random_orthogonal, reflection, spinor_norm,
                              spinor_zassenhaus, square_class_mod)


def spaces(seed=0):
    rng = random.Random(seed)
    out = []
    for ell in (5, 7, 11, 13):
        for dim in range(2, 7):
            g = np.diag([rng.randrange(1, ell) for _ in range(dim)])
            out.append((OrthogonalSpace(ell, g), rng))
            M = np.array([[rng.randrange(ell) for _ in range(dim)]
                          for _ in range(dim)])
            G = (M + M.T) % ell
            if det_mod(G, ell):
                out.append((OrthogonalSpace(ell, G), rng))
    return out


def fraction_det(M) -> int:
    """Integer determinant by exact elimination over Q."""
    A = [[Fraction(int(v)) for v in row] for row in M]
    n = len(A)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            det = -det
        det *= A[c][c]
        for r in range(c + 1, n):
            m = A[r][c] / A[c][c]
            A[r] = [a - m * b for a, b in zip(A[r], A[c])]
    assert det.denominator == 1
    return int(det)


class TestRowReduction:
    @pytest.mark.parametrize("ell", [5, 7, 11, 13])
    def test_det_inverse_rank(self, ell):
        rng = random.Random(ell)
        singular = 0
        for n in range(1, 7):
            for _ in range(25):
                M = np.array([[rng.randrange(-30, 31) for _ in range(n)]
                              for _ in range(n)], dtype=np.int64)
                d = det_mod(M, ell)
                assert d == fraction_det(M) % ell
                singular += d == 0
                if n >= 2:
                    R = M.copy()
                    R[-1] = R[0]                # a repeated row
                    assert det_mod(R, ell) == 0
        assert singular                         # both branches were met


class TestSpace:
    def test_rejects_bad_gram(self):
        with pytest.raises(ValueError):
            OrthogonalSpace(7, [[1, 2], [3, 4]])  # not symmetric
        with pytest.raises(ValueError):
            OrthogonalSpace(7, [[1, 2], [2, 4]])  # degenerate
        with pytest.raises(ValueError):
            OrthogonalSpace(4, np.eye(2, dtype=int))  # ell not prime
        with pytest.raises(ValueError, match="^ell=9 is not a prime >= 5$"):
            OrthogonalSpace(9, np.eye(2, dtype=int))

    def test_rejects_non_orthogonal_matrix(self):
        sp = OrthogonalSpace.standard(7, 3)
        with pytest.raises(ValueError):
            OrthMatrix(sp, 2 * np.eye(3, dtype=int))

    def test_disc_is_gram_det_class(self):
        sp = OrthogonalSpace(11, np.diag([2, 1, 1]))
        assert sp.disc() == square_class_mod(2, 11)


def int_pairing(G, u, v, ell) -> int:
    """<u, v> with Python ints."""
    return sum(int(u[i]) * int(G[i][j]) * int(v[j]) for i in range(len(u))
               for j in range(len(v))) % ell


HYPERBOLIC = [
    [[0, 1, 0], [1, 0, 0], [0, 0, 1]],                  # H + <1>
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],  # H + H
]


class TestOrthogonalBasis:
    @staticmethod
    def assert_orthogonal_basis(sp):
        B = sp.basis
        D = B.T @ sp.gram @ B % sp.ell
        assert np.array_equal(D, np.diag(np.diag(D)))
        assert all(np.diag(D)) and det_mod(B, sp.ell)

    def test_diagonalizes_every_space(self):
        for sp, _ in spaces(7):
            self.assert_orthogonal_basis(sp)

    @pytest.mark.parametrize("ell", [5, 7, 11, 13])
    @pytest.mark.parametrize("gram", HYPERBOLIC, ids=["H+<1>", "H+H"])
    def test_hyperbolic(self, ell, gram):
        # every standard basis vector of H is isotropic, so the basis needs
        # sums w_i + w_j
        sp = OrthogonalSpace(ell, gram)
        self.assert_orthogonal_basis(sp)
        rng = random.Random(ell)
        compared = 0
        for _ in range(40):
            A = random_orthogonal(sp, rng)
            assert spinor_norm(A @ A).trivial
            try:
                z = spinor_zassenhaus(A)
            except ValueError:
                continue
            assert z == spinor_norm(A)
            compared += 1
        assert compared

    def test_built_once_per_space(self, monkeypatch):
        built = []
        build = orthogonal._orthogonal_basis
        monkeypatch.setattr(orthogonal, "_orthogonal_basis",
                            lambda sp: built.append(sp) or build(sp))
        rng = random.Random(8)
        sps = [OrthogonalSpace(11, g) for g in HYPERBOLIC]
        for sp in sps:
            for _ in range(5):
                spinor_norm(random_orthogonal(sp, rng))
                omega_membership(random_orthogonal(sp, rng))
        assert built == sps

    def test_gram_is_read_only(self):
        sp = OrthogonalSpace.standard(7, 3)
        with pytest.raises(ValueError):
            sp.gram[0, 0] = 2
        with pytest.raises(AttributeError):
            sp.gram = np.eye(3, dtype=np.int64)
        with pytest.raises(ValueError):
            sp.basis[0, 0] = 2


class TestInt64Bound:
    """Pairings and reflections are exact in int64 while
    dim (ell-1)^2 < 2^63; the constructor refuses larger ell."""

    @staticmethod
    def primes_around_bound(n):
        lo = math.isqrt((2 ** 63 - 1) // n) + 1     # n (lo-1)^2 < 2^63
        assert n * (lo - 1) ** 2 < 2 ** 63 <= n * lo ** 2
        below = next(p for p in range(lo, 0, -1) if is_prime(p))
        above = next(p for p in range(lo + 1, 2 * lo) if is_prime(p))
        return below, above

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pairing_exact_below_and_refused_above(self, n):
        below, above = self.primes_around_bound(n)
        rng = random.Random(n)
        gram = np.diag([1, 3, 5, 7][:n]).astype(np.int64)
        gram[0, 1] = gram[1, 0] = below - 2
        sp = OrthogonalSpace(below, gram)
        for _ in range(10):
            u, v = ([below - 1 - rng.randrange(3) for _ in range(n)]
                    for _ in range(2))
            assert sp.pairing(u, v) == int_pairing(sp.gram, u, v, below)
            if sp.pairing(v, v):
                r = reflection(sp, v)             # checks r^T G r = G
                assert np.array_equal(r.entries @ v % below,
                                      (-np.array(v)) % below)
        with pytest.raises(ValueError, match="too large for exact int64"):
            OrthogonalSpace(above, gram)

    def test_former_overflow_is_refused(self):
        # at ell = 2^31 - 1, v = (ell-6, ell-6, ell-6) and diag(1, 3, 5), the
        # unreduced int64 pairing <v, v> came out as 316, not 324
        with pytest.raises(ValueError):
            OrthogonalSpace(2 ** 31 - 1, np.diag([1, 3, 5]))


class TestReflection:
    def test_standard_basis(self):
        sp = OrthogonalSpace.standard(7, 4)
        r = reflection(sp, [1, 0, 0, 0])
        assert r.entries.tolist() == np.diag([6, 1, 1, 1]).tolist()

    def test_involution_and_negation(self):
        for sp, rng in spaces(1):
            for _ in range(5):
                v = np.array([rng.randrange(sp.ell) for _ in range(sp.dim)])
                if not np.any(v) or sp.pairing(v, v) == 0:
                    continue
                r = reflection(sp, v)
                assert (r @ r) == identity(sp)
                assert r.det() == -1
                assert np.array_equal(r.entries @ v % sp.ell,
                                      (-v) % sp.ell)

    def test_isotropic_rejected(self):
        sp = OrthogonalSpace(5, np.diag([1, 4]))  # x^2 + 4 y^2; (1,1) isotropic
        with pytest.raises(ValueError):
            reflection(sp, [1, 1])


class TestSpinorNorm:
    def test_identity_trivial(self):
        for sp, _ in spaces(2):
            assert spinor_norm(identity(sp)).trivial

    def test_reflection_class(self):
        for sp, rng in spaces(3):
            for _ in range(5):
                v = np.array([rng.randrange(sp.ell) for _ in range(sp.dim)])
                c = sp.pairing(v, v) if np.any(v) else 0
                if c == 0:
                    continue
                assert spinor_norm(reflection(sp, v)) == \
                    square_class_mod(c, sp.ell)

    def test_minus_identity_is_disc(self):
        for sp, _ in spaces(4):
            negI = OrthMatrix(sp, -np.eye(sp.dim, dtype=np.int64))
            assert spinor_norm(negI) == sp.disc()

    def test_multiplicative(self):
        for sp, rng in spaces(5):
            for _ in range(10):
                A = random_orthogonal(sp, rng)
                B = random_orthogonal(sp, rng)
                assert spinor_norm(A @ B) == spinor_norm(A) * spinor_norm(B)

    def test_zassenhaus_agrees(self):
        for sp, rng in spaces(6):
            for _ in range(20):
                A = random_orthogonal(sp, rng)
                try:
                    z = spinor_zassenhaus(A)
                except ValueError:
                    continue
                assert z == spinor_norm(A)

    def test_zassenhaus_rejects_minus_identity(self):
        sp = OrthogonalSpace.standard(7, 3)
        negI = OrthMatrix(sp, -np.eye(3, dtype=np.int64))
        with pytest.raises(ValueError):
            spinor_zassenhaus(negI)


class TestOmega:
    def test_identity_in_omega(self):
        sp = OrthogonalSpace.standard(11, 4)
        assert omega_membership(identity(sp)) == "Omega"

    def test_reflection_outside_so(self):
        sp = OrthogonalSpace.standard(11, 4)
        assert omega_membership(reflection(sp, [0, 1, 0, 0])) == "O-minus-SO"

    def test_two_equal_class_reflections_in_omega(self):
        sp = OrthogonalSpace.standard(11, 3)
        r1 = reflection(sp, [1, 0, 0])
        r2 = reflection(sp, [0, 1, 0])
        assert omega_membership(r1 @ r2) == "Omega"


class TestOrderExcludes:
    def test_identity_fails_everything(self):
        I = np.eye(3, dtype=np.int64)
        res = order_excludes(I, {2, 5}, 7)
        assert not res["pass"] and res["failures"] == [2, 5]

    def test_element_of_known_order(self):
        # companion of T^2 - g T + 1 has eigenvalues of full order sometimes;
        # use a scalar of order (ell-1) instead for a clean statement
        ell = 11
        A = np.array([[2]], dtype=np.int64)  # 2 has order 10 mod 11
        res = order_excludes(A, {5, 10, 20}, ell)
        assert res["failures"] == [10, 20]

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            order_excludes(np.zeros((2, 2), dtype=np.int64), {2}, 7)

    def test_pow_mod(self):
        A = np.array([[1, 1], [0, 1]], dtype=np.int64)
        P = mat_pow_mod(A, 12, 5)
        assert P.tolist() == [[1, 2], [0, 1]]

    def test_pow_mod_exact_up_to_int64_bound(self):
        ell = 2 ** 31          # 2 (ell-1)^2 < 2^63: the largest ell allowed
        A = [[ell - 1, ell - 2], [3, ell - 1]]
        want = [[1, 0], [0, 1]]
        for _ in range(5):
            want = [[sum(want[i][k] * A[k][j] for k in range(2)) % ell
                     for j in range(2)] for i in range(2)]
        A = np.array(A, dtype=np.int64)
        assert mat_pow_mod(A, 5, ell).tolist() == want
        with pytest.raises(ValueError):
            mat_pow_mod(A, 5, ell + 1)
