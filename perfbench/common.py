"""Paths, program loading and input generators shared by the benchmark files.

Nothing here imports ffell at module import time: `load_program()` puts the
checkout's own `src/` first on the import path and refuses to run when the
package is missing or would be imported from anywhere else.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"            # run outputs; ignored by git
GOLDEN = HERE / "golden.json"

# orth inputs: one fixed orthogonal space per (ell, dim); a pool of seeded
# matrices per space, of which each run draws ORTH_PICK
ORTH_ELLS = (11, 13)
ORTH_DIMS = (4, 6, 8)
ORTH_POOL = 1000
ORTH_PICK = 500
LEMMA92_ELL_MAX = 997

# the frontier member: N = 9, p = 7, m = 5, q^m = 16807
TOP_MEMBER = ("odd_1mod8", 1, 7, 6)
TOP_ELLS = "11,13"


class SetupError(Exception):
    """The checkout cannot run the benchmark (exit code 2)."""


def load_program():
    """Import ffell from this checkout's src/ and return the package."""
    if not (SRC / "ffell" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'ffell'}")
    sys.path.insert(0, str(SRC))
    import ffell
    if Path(ffell.__file__).resolve().parent != SRC / "ffell":
        raise SetupError(f"ffell imported from {ffell.__file__}, "
                         f"not from {SRC}")
    return ffell


def child_env() -> dict:
    """Environment for program subprocesses: the checkout's src/ first."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def load_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def digest(payload) -> str:
    """sha256 of the canonical JSON text of a payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def orth_gram(ell: int, dim: int) -> list:
    """Diagonal of the fixed Gram matrix of the (ell, dim) space."""
    rng = random.Random(f"gram-{ell}-{dim}")
    return [rng.randrange(1, ell) for _ in range(dim)]


def orth_matrix(ell: int, diag: list, index: int):
    """Pool matrix `index` of the space diag(diag) over F_ell.

    A product of k seeded reflections r_v (k uniform in 0..2 dim).  Returns
    the entries and the parity of reflections whose <v, v> is a non-square,
    which is the spinor class of the product.
    """
    import numpy as np
    n = len(diag)
    rng = random.Random(f"orth-{ell}-{n}-{index}")
    g = np.array(diag, dtype=np.int64)
    M = np.eye(n, dtype=np.int64)
    k = rng.randrange(0, 2 * n + 1)
    nonsquare = 0
    made = 0
    while made < k:
        v = np.array([rng.randrange(ell) for _ in range(n)], dtype=np.int64)
        c = int(v @ (g * v)) % ell
        if c == 0:
            continue
        coef = 2 * pow(c, ell - 2, ell) % ell
        # r_v M = M - coef v (v^T G M)
        M = (M - coef * np.outer(v, (g * v) @ M % ell)) % ell
        nonsquare ^= pow(c, (ell - 1) // 2, ell) != 1
        made += 1
    return M, int(nonsquare)


def curve_text(curve: dict) -> str:
    """A curve file in the CLI's key=value format."""
    return "".join(f"{k}={curve[k]}\n" for k in ("p", "a2", "a4", "a6"))
