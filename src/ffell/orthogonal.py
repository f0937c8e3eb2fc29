"""Orthogonal spaces over F_ell (ell >= 5): reflections, determinant, spinor
norm by two independent algorithms, Omega/SO membership, and order exclusion
tests for invertible matrices mod ell."""

from __future__ import annotations

import random

import numpy as np

from .algebra import SquareClass, is_prime


def _as_mod_array(entries, ell: int) -> np.ndarray:
    M = np.asarray(entries, dtype=np.int64) % ell
    return M


def mat_pow_mod(A: np.ndarray, e: int, ell: int) -> np.ndarray:
    n = A.shape[0]
    R = np.eye(n, dtype=np.int64)
    B = A % ell
    while e:
        if e & 1:
            R = (R @ B) % ell
        B = (B @ B) % ell
        e >>= 1
    return R


def _row_reduce(M, ell: int, reduced: bool = False):
    """Row echelon form of M mod ell (ell prime) by Gaussian elimination,
    with every pivot scaled to 1; the reduced form (zeros above the pivots
    too) when `reduced`.

    Returns (rows, pivot columns, d), where d is the product of the pivots
    met, times -1 per row swap: det(M) mod ell when M is square and
    invertible."""
    A = [[int(v) % ell for v in row] for row in M]
    n_rows = len(A)
    pivots = []
    d = 1
    for c in range(len(A[0]) if A else 0):
        r = len(pivots)
        piv = next((i for i in range(r, n_rows) if A[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            A[r], A[piv] = A[piv], A[r]
            d = -d
        d = d * A[r][c] % ell
        inv = pow(A[r][c], ell - 2, ell)
        A[r] = [v * inv % ell for v in A[r]]
        for i in range(0 if reduced else r + 1, n_rows):
            if i != r and A[i][c]:
                m = A[i][c]
                A[i] = [(v - m * w) % ell for v, w in zip(A[i], A[r])]
        pivots.append(c)
        if len(pivots) == n_rows:
            break
    return A, pivots, d


def det_mod(M: np.ndarray, ell: int) -> int:
    """Determinant mod ell by Gaussian elimination (ell prime)."""
    A, pivots, d = _row_reduce(M, ell)
    return d if len(pivots) == len(A) else 0


def square_class_mod(a: int, ell: int) -> SquareClass:
    a %= ell
    if a == 0:
        raise ValueError("zero has no square class")
    return SquareClass(pow(a, (ell - 1) // 2, ell) != 1)


class OrthogonalSpace:
    """F_ell^dim with a non-degenerate symmetric bilinear pairing."""

    def __init__(self, ell: int, gram):
        if not is_prime(ell) or ell < 5:
            raise ValueError("ell must be a prime >= 5")
        self.ell = ell
        G = _as_mod_array(gram, ell)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("gram matrix must be square")
        if not np.array_equal(G, G.T):
            raise ValueError("gram matrix must be symmetric")
        if det_mod(G, ell) == 0:
            raise ValueError("gram matrix must be non-degenerate")
        self.gram = G
        self.dim = G.shape[0]

    @classmethod
    def standard(cls, ell: int, dim: int) -> "OrthogonalSpace":
        return cls(ell, np.eye(dim, dtype=np.int64))

    def pairing(self, u, v) -> int:
        u = _as_mod_array(u, self.ell)
        v = _as_mod_array(v, self.ell)
        return int(u @ self.gram @ v % self.ell)

    def disc(self) -> SquareClass:
        """Discriminant class: the square class of det(gram)."""
        return square_class_mod(det_mod(self.gram, self.ell), self.ell)

    def __repr__(self):
        return f"OrthogonalSpace(ell={self.ell}, dim={self.dim})"


class OrthMatrix:
    """A matrix preserving the pairing of an OrthogonalSpace."""

    def __init__(self, space: OrthogonalSpace, entries):
        self.space = space
        A = _as_mod_array(entries, space.ell)
        if A.shape != space.gram.shape:
            raise ValueError("matrix/space dimension mismatch")
        if not np.array_equal(A.T @ space.gram @ A % space.ell, space.gram):
            raise ValueError("matrix does not preserve the pairing")
        self.entries = A

    def __matmul__(self, other: "OrthMatrix") -> "OrthMatrix":
        if other.space is not self.space and (
                other.space.ell != self.space.ell
                or not np.array_equal(other.space.gram, self.space.gram)):
            raise ValueError("matrices from different spaces")
        return OrthMatrix(self.space,
                          self.entries @ other.entries % self.space.ell)

    def __eq__(self, other):
        return (isinstance(other, OrthMatrix)
                and np.array_equal(self.entries, other.entries))

    def det(self) -> int:
        """Determinant, normalized to +-1."""
        d = det_mod(self.entries, self.space.ell)
        return 1 if d == 1 else -1  # orthogonal matrices have det = +-1

    def __repr__(self):
        return f"OrthMatrix({self.entries.tolist()})"


def identity(space: OrthogonalSpace) -> OrthMatrix:
    return OrthMatrix(space, np.eye(space.dim, dtype=np.int64))


def reflection(space: OrthogonalSpace, v) -> OrthMatrix:
    """r_v: x -> x - 2<x,v>/<v,v> v, for anisotropic v."""
    ell = space.ell
    v = _as_mod_array(v, ell)
    c = space.pairing(v, v)
    if c == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    coef = 2 * pow(c, ell - 2, ell) % ell
    R = (np.eye(space.dim, dtype=np.int64)
         - coef * np.outer(v, space.gram @ v % ell)) % ell
    return OrthMatrix(space, R)


def _orthogonal_basis(space: OrthogonalSpace) -> np.ndarray:
    """Columns form a basis in which the pairing is diagonal (char != 2)."""
    ell = space.ell
    n = space.dim
    basis = []
    work = [np.eye(n, dtype=np.int64)[i] for i in range(n)]
    while work:
        # find a vector with <v,v> != 0; if all are isotropic, some v+w works
        v = None
        for cand in work:
            if int(cand @ space.gram @ cand % ell):
                v = cand
                break
        if v is None:
            for i in range(len(work)):
                for j in range(i + 1, len(work)):
                    cand = (work[i] + work[j]) % ell
                    if int(cand @ space.gram @ cand % ell):
                        v = cand
                        break
                if v is not None:
                    break
        if v is None:
            raise AssertionError("degenerate pairing on complement")
        basis.append(v)
        c = int(v @ space.gram @ v % ell)
        cinv = pow(c, ell - 2, ell)
        new_work = []
        for w in work:
            proj = int(w @ space.gram @ v % ell) * cinv % ell
            w2 = (w - proj * v) % ell
            if np.any(w2):
                new_work.append(w2)
        # keep an independent spanning subset of the projections
        pruned = []
        seen_rows = np.zeros((0, n), dtype=np.int64)
        for w in new_work:
            trial = np.vstack([seen_rows, w])
            if _rank_mod(trial, ell) > seen_rows.shape[0]:
                seen_rows = trial
                pruned.append(w)
        work = pruned
    M = np.stack(basis, axis=1) % ell
    assert _rank_mod(M.T, ell) == n
    return M


def _rank_mod(M: np.ndarray, ell: int) -> int:
    return len(_row_reduce(M, ell)[1])


def _inverse_mod(M: np.ndarray, ell: int) -> np.ndarray:
    n = M.shape[0]
    A, pivots, _ = _row_reduce(np.concatenate(
        [M % ell, np.eye(n, dtype=np.int64)], axis=1), ell, reduced=True)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix not invertible")
    return np.array([row[n:] for row in A], dtype=np.int64)


def spinor_norm(A: OrthMatrix) -> SquareClass:
    """Spinor norm via Cartan-Dieudonne reflection decomposition.

    Works in an orthogonalized basis; peels off one basis vector at a time,
    using the vector w = Ae - e when anisotropic and the two-reflection step
    through Ae + e otherwise (one of the two is always anisotropic because
    <w,w> + <Ae+e,Ae+e> = 4<e,e> != 0).
    """
    space = A.space
    ell = space.ell
    B = _orthogonal_basis(space)
    Binv = _inverse_mod(B, ell)
    M = Binv @ A.entries @ B % ell
    D = B.T @ space.gram @ B % ell
    diag = OrthogonalSpace(ell, D)
    n = space.dim
    spin = SquareClass(False)

    work = OrthMatrix(diag, M)
    for i in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[i] = 1
        img = work.entries @ e % ell
        if np.array_equal(img, e):
            continue
        w = (img - e) % ell
        if diag.pairing(w, w):
            r = reflection(diag, w)
            spin = spin * square_class_mod(diag.pairing(w, w), ell)
            work = r @ work
        else:
            u = (img + e) % ell
            spin = (spin * square_class_mod(diag.pairing(u, u), ell)
                    * square_class_mod(diag.pairing(e, e), ell))
            work = reflection(diag, e) @ (reflection(diag, u) @ work)
        assert np.array_equal(work.entries @ e % ell, e)
    assert np.array_equal(work.entries, np.eye(n, dtype=np.int64))
    return spin


def spinor_zassenhaus(A: OrthMatrix) -> SquareClass:
    """Spinor norm as the class of 2^N det(I + A); needs det(I + A) != 0."""
    ell = A.space.ell
    n = A.space.dim
    d = det_mod(np.eye(n, dtype=np.int64) + A.entries, ell)
    if d == 0:
        raise ValueError("det(I + A) = 0: formula inapplicable")
    return square_class_mod(pow(2, n, ell) * d % ell, ell)


def omega_membership(A: OrthMatrix) -> str:
    """Classify A as 'Omega', 'SO-minus-Omega', or 'O-minus-SO'."""
    if A.det() == -1:
        return "O-minus-SO"
    return "Omega" if spinor_norm(A).trivial else "SO-minus-Omega"


def order_excludes(A: np.ndarray, exponents, ell: int) -> dict:
    """For invertible A mod ell: check A^e != I for every listed exponent.

    Returns {'pass': bool, 'failures': [e, ...]} with the exponents (if any)
    where A^e = I.
    """
    A = _as_mod_array(A, ell)
    n = A.shape[0]
    if det_mod(A, ell) == 0:
        raise ValueError("matrix not invertible mod ell")
    I = np.eye(n, dtype=np.int64)
    failures = [e for e in sorted(exponents)
                if np.array_equal(mat_pow_mod(A, e, ell), I)]
    return {"pass": not failures, "failures": failures}


def random_orthogonal(space: OrthogonalSpace, rng: random.Random,
                      max_reflections: int | None = None) -> OrthMatrix:
    """Random product of reflections (for property tests)."""
    n = space.dim
    k = rng.randrange(0, max_reflections or 2 * n + 1)
    out = identity(space)
    made = 0
    while made < k:
        v = np.array([rng.randrange(space.ell) for _ in range(n)],
                     dtype=np.int64)
        if not np.any(v) or space.pairing(v, v) == 0:
            continue
        out = reflection(space, v) @ out
        made += 1
    return out
