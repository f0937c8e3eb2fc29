import random
from fractions import Fraction

import numpy as np
import pytest

from ffell.algebra import SquareClass
from ffell.orthogonal import (OrthMatrix, OrthogonalSpace, _inverse_mod,
                              _rank_mod, det_mod, identity,
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
            I = np.eye(n, dtype=np.int64)
            for _ in range(25):
                M = np.array([[rng.randrange(-30, 31) for _ in range(n)]
                              for _ in range(n)], dtype=np.int64)
                d = det_mod(M, ell)
                assert d == fraction_det(M) % ell
                assert (_rank_mod(M, ell) == n) == (d != 0)
                if d:
                    assert np.array_equal(M @ _inverse_mod(M, ell) % ell, I)
                else:
                    singular += 1
                    with pytest.raises(ValueError):
                        _inverse_mod(M, ell)
                if n >= 2:
                    R = M.copy()
                    R[-1] = R[0]                # a repeated row
                    assert det_mod(R, ell) == 0
                    assert _rank_mod(R, ell) == _rank_mod(M[:-1], ell) < n
        assert singular                         # both branches were met


class TestSpace:
    def test_rejects_bad_gram(self):
        with pytest.raises(ValueError):
            OrthogonalSpace(7, [[1, 2], [3, 4]])  # not symmetric
        with pytest.raises(ValueError):
            OrthogonalSpace(7, [[1, 2], [2, 4]])  # degenerate
        with pytest.raises(ValueError):
            OrthogonalSpace(4, np.eye(2, dtype=int))  # ell not prime

    def test_rejects_non_orthogonal_matrix(self):
        sp = OrthogonalSpace.standard(7, 3)
        with pytest.raises(ValueError):
            OrthMatrix(sp, 2 * np.eye(3, dtype=int))

    def test_disc_is_gram_det_class(self):
        sp = OrthogonalSpace(11, np.diag([2, 1, 1]))
        assert sp.disc() == square_class_mod(2, 11)


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
