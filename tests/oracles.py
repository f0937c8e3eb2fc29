"""Scalar oracles for the vectorised kernel in ffell.fastcount: point counts
over FieldElement and the orbit-walking search for place representatives."""

import numpy as np

from ffell.algebra import legendre
from ffell.places import residue_field
from ffell.reduction import local_reduce


def count_points_cubic(K, A2, A4, A6, method: str = "charsum") -> int:
    """|E(K)| for y^2 = x^3 + A2 x^2 + A4 x + A6 over the finite field K.

    'charsum' evaluates |E| = q + 1 + sum_u chi(f(u)); 'naive' counts the
    solutions of y^2 = f(u) against a table of square roots.
    """
    q = K.order
    if method == "charsum":
        s = 0
        for u in K.elements():
            s += legendre(((u + A2) * u + A4) * u + A6)
        return q + 1 + s
    if method == "naive":
        nsols = {}
        for y in K.elements():
            sq = (y * y).raw
            nsols[sq] = nsols.get(sq, 0) + 1
        total = 1  # point at infinity
        for u in K.elements():
            f = ((u + A2) * u + A4) * u + A6
            total += nsols.get(f.raw, 0)
        return total
    raise ValueError(f"unknown method {method!r}")


def count_fiber_points(curve, x, method: str = "charsum") -> int:
    """a_x(E) = q^deg(x) + 1 - |E_x(F_x)| at a place of good reduction,
    counted by `method` on the minimal model at x; asserts that it equals
    the a_x that local_reduce gets from the vectorised kernel."""
    data = local_reduce(curve, x)
    if data.reduction_type != "good":
        raise ValueError(f"{x!r} is a place of bad reduction")
    K = residue_field(x)
    ax = K.order + 1 - count_points_cubic(K, *data.minimal_fiber,
                                          method=method)
    assert ax == data.a_x, "kernel and scalar point counts disagree"
    assert ax * ax <= 4 * K.order    # Hasse
    return ax


def orbit_representatives(T) -> np.ndarray:
    """Minimal codes of the Frobenius orbits of size T.d, ascending, found
    by walking every orbit."""
    frob = T.frobenius
    seen = np.zeros(T.q, dtype=bool)
    reps = []
    for c in range(T.q):
        if seen[c]:
            continue
        orbit = [c]
        x = int(frob[c])
        while x != c:
            orbit.append(x)
            x = int(frob[x])
        for y in orbit:
            seen[y] = True
        if len(orbit) == T.d:
            reps.append(c)
    return np.array(reps, dtype=np.int64)
