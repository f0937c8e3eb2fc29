"""Orthogonal spaces over F_ell (ell >= 5): reflections, determinant, spinor
norm by two independent algorithms, Omega/SO membership, and order exclusion
tests for invertible matrices mod ell."""

from __future__ import annotations

import random
from functools import cached_property
from itertools import chain

import numpy as np

from .algebra import SquareClass, check_prime, legendre


def _as_mod_array(entries, ell: int) -> np.ndarray:
    return np.asarray(entries, dtype=np.int64) % ell


def _check_int64(n: int, ell: int, what: str):
    """Raise ValueError unless n (ell-1)^2 < 2^63 (exact int64 products)."""
    if n * (ell - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"ell={ell} is too large for exact int64 {what} "
                         f"in dimension {n}: n (ell-1)^2 >= 2^63")


def mat_pow_mod(A: np.ndarray, e: int, ell: int) -> np.ndarray:
    """A^e mod ell by int64 products; larger ell raises (_check_int64)."""
    _check_int64(A.shape[0], ell, "matrix powers")
    R = np.eye(A.shape[0], dtype=np.int64)
    B = A % ell
    while e:
        if e & 1:
            R = (R @ B) % ell
        B = (B @ B) % ell
        e >>= 1
    return R


def det_mod(M: np.ndarray, ell: int) -> int:
    """Determinant mod ell (ell prime) by Gaussian elimination on ints."""
    A = [[int(v) % ell for v in row] for row in M]
    n = len(A)
    d = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if A[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            A[c], A[piv] = A[piv], A[c]
            d = -d
        d = d * A[c][c] % ell
        inv = pow(A[c][c], ell - 2, ell)
        for i in range(c + 1, n):
            if A[i][c]:
                m = A[i][c] * inv % ell
                A[i] = [(v - m * w) % ell for v, w in zip(A[i], A[c])]
    return d


def square_class_mod(a: int, ell: int) -> SquareClass:
    s = legendre(a, ell)
    if s == 0:
        raise ValueError("zero has no square class")
    return SquareClass(s == -1)


class OrthogonalSpace:
    """F_ell^dim with a non-degenerate symmetric bilinear pairing; its int64
    products are exact while dim (ell-1)^2 < 2^63, and larger ell raises."""

    def __init__(self, ell: int, gram):
        self.ell = check_prime(ell, "ell")
        G = _as_mod_array(gram, ell)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("gram matrix must be square")
        _check_int64(G.shape[0], ell, "pairings")
        if not np.array_equal(G, G.T):
            raise ValueError("gram matrix must be symmetric")
        if det_mod(G, ell) == 0:
            raise ValueError("gram matrix must be non-degenerate")
        G.flags.writeable = False   # read-only: `basis` is cached
        self._gram = G
        self.dim = G.shape[0]

    @property
    def gram(self) -> np.ndarray:
        return self._gram

    @cached_property
    def basis(self) -> np.ndarray:
        """Columns: an orthogonal basis of the space, built at first use."""
        return _orthogonal_basis(self)

    @classmethod
    def standard(cls, ell: int, dim: int) -> "OrthogonalSpace":
        return cls(ell, np.eye(dim, dtype=np.int64))

    def pairing(self, u, v) -> int:
        u, v = _as_mod_array(u, self.ell), _as_mod_array(v, self.ell)
        return int((u @ self.gram % self.ell) @ v % self.ell)

    def disc(self) -> SquareClass:
        """Discriminant class: the square class of det(gram)."""
        return square_class_mod(det_mod(self.gram, self.ell), self.ell)

    def __repr__(self):
        return f"OrthogonalSpace(ell={self.ell}, dim={self.dim})"


class OrthMatrix:
    """A matrix preserving the pairing of an OrthogonalSpace."""

    def __init__(self, space: OrthogonalSpace, entries):
        self.space = space
        ell = space.ell
        A = _as_mod_array(entries, ell)
        if A.shape != space.gram.shape:
            raise ValueError("matrix/space dimension mismatch")
        if not np.array_equal(A.T @ space.gram % ell @ A % ell, space.gram):
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
    P = coef * (np.outer(v, space.gram @ v % ell) % ell) % ell
    return OrthMatrix(space, np.eye(space.dim, dtype=np.int64) - P)


def _orthogonal_basis(space: OrthogonalSpace) -> np.ndarray:
    """Columns form a basis in which the pairing is diagonal (char != 2).

    `work` is a basis of a non-degenerate subspace.  Each step takes an
    anisotropic v = w_i, or else v = w_i + w_j (<v,v> = 2<w_i,w_j> != 0 for
    some pair), drops w_i and projects the rest onto v^perp, a basis of it."""
    ell = space.ell
    work = list(np.eye(space.dim, dtype=np.int64))
    basis = []
    while work:
        sums = ((i, (work[i] + work[j]) % ell) for i in range(len(work))
                for j in range(i + 1, len(work)))
        i, v = next((i, v) for i, v in chain(enumerate(work), sums)
                    if space.pairing(v, v))
        del work[i]
        cinv = pow(space.pairing(v, v), ell - 2, ell)
        work = [(w - space.pairing(w, v) * cinv % ell * v) % ell
                for w in work]
        basis.append(v)
    B = np.stack(basis, axis=1)
    D = B.T @ space.gram % ell @ B % ell
    assert np.array_equal(D, np.diag(np.diag(D))) and np.all(np.diag(D))
    B.flags.writeable = False
    return B


def spinor_norm(A: OrthMatrix) -> SquareClass:
    """Spinor norm via Cartan-Dieudonne reflection decomposition.

    Peels off the vectors e of `space.basis` in turn, in the original
    coordinates, by the reflection in w = Ae - e when anisotropic and the
    two-reflection step through Ae + e otherwise (<w,w> + <Ae+e,Ae+e> =
    4<e,e> != 0); both fix the basis vectors already peeled."""
    space = A.space
    ell = space.ell
    spin = SquareClass(False)
    work = A
    for e in space.basis.T:
        img = work.entries @ e % ell
        if np.array_equal(img, e):
            continue
        w = (img - e) % ell
        c = space.pairing(w, w)
        if c:
            spin = spin * square_class_mod(c, ell)
            work = reflection(space, w) @ work
        else:
            u = (img + e) % ell
            spin = (spin * square_class_mod(space.pairing(u, u), ell)
                    * square_class_mod(space.pairing(e, e), ell))
            work = reflection(space, e) @ (reflection(space, u) @ work)
        assert np.array_equal(work.entries @ e % ell, e)
    assert np.array_equal(work.entries, np.eye(space.dim, dtype=np.int64))
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
    if det_mod(A, ell) == 0:
        raise ValueError("matrix not invertible mod ell")
    I = np.eye(A.shape[0], dtype=np.int64)
    failures = [e for e in sorted(exponents)
                if np.array_equal(mat_pow_mod(A, e, ell), I)]
    return {"pass": not failures, "failures": failures}


def random_orthogonal(space: OrthogonalSpace, rng: random.Random) -> OrthMatrix:
    """Random product of reflections (for property tests)."""
    n = space.dim
    k = rng.randrange(0, 2 * n + 1)
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
