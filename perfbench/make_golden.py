"""Write perfbench/golden.json: the reference outputs every run is checked
against.

Run once, from the repository root, on the commit whose outputs are the
reference (the golden records that commit):

    python3 perfbench/make_golden.py

The member lists below are the acceptance corpus and profile grids of
tests/test_acceptance.py, copied so that the benchmark reads no test file.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys

import common

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


def curve_dict(E) -> dict:
    return {"p": E.field.p, "a2": list(E.a2.coeffs), "a4": list(E.a4.coeffs),
            "a6": list(E.a6.coeffs)}


def cli_json(cli, args) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(args, standalone_mode=False)
    return json.loads(out.getvalue())


def lfunction_cli_output(cli, curve: dict) -> dict:
    common.OUT.mkdir(exist_ok=True)
    path = common.OUT / "golden-curve.txt"
    path.write_text(common.curve_text(curve))
    return cli_json(cli, ["lfunction", "--check-fe", "--ell", common.TOP_ELLS,
                          str(path)])


def main():
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=common.ROOT,
                            check=True, capture_output=True,
                            text=True).stdout.strip()

    common.load_program()
    import numpy as np
    from ffell import cli
    from ffell.families import FAMILIES, verify_profile
    from ffell.lfunction import global_invariants, lfunction
    from ffell.orthogonal import OrthMatrix, OrthogonalSpace, spinor_norm

    corpus = []
    top = None
    for fid, n in CORPUS_SPECS:
        fam = FAMILIES[fid]
        for p in (5, 7, 11, 13):
            if not fam.valid_prime(p, n):
                continue
            for w in fam.W_set(p, n):
                E = fam.instantiate(p, n, w)
                inv = global_invariants(E)
                if inv.N > (9 if p <= 7 else 5):
                    continue
                member = {"member": [fid, n, p, w], "curve": curve_dict(E),
                          "N": inv.N}
                if (fid, n, p, w) == common.TOP_MEMBER:
                    top = member
                    continue
                member["invariants"] = inv.to_json()
                member["L"] = lfunction(E, inv).to_json()
                corpus.append(member)
    assert top is not None and len(corpus) == 42, len(corpus)
    print(f"corpus: {len(corpus)} members", file=sys.stderr)

    # the smoke slice of lfun_top: the first intro_N5 member over F_5
    smoke = corpus[0]
    assert smoke["member"][:3] == ["intro_N5", 0, 5]
    top["output"] = lfunction_cli_output(cli, top["curve"])
    smoke_top = {"member": smoke["member"], "curve": smoke["curve"],
                 "output": lfunction_cli_output(cli, smoke["curve"])}
    print("lfun_top: done", file=sys.stderr)

    grid = []
    for (fid, n), primes in PROFILE_GRIDS.items():
        for p in primes:
            rep = verify_profile(fid, n, [p], jobs=1)
            assert rep.verdict, (fid, n, p)
            grid.append({"family": fid, "n": n, "p": p,
                         "cells": len(rep.cells),
                         "digest": common.digest(rep.to_json())})
    print(f"family_grid: {len(grid)} rows, "
          f"{sum(r['cells'] for r in grid)} cells", file=sys.stderr)

    spaces = {}
    for ell in common.ORTH_ELLS:
        for dim in common.ORTH_DIMS:
            diag = common.orth_gram(ell, dim)
            space = OrthogonalSpace(ell, np.diag(diag))
            bits = []
            for i in range(common.ORTH_POOL):
                M, expected = common.orth_matrix(ell, diag, i)
                got = int(not spinor_norm(OrthMatrix(space, M)).trivial)
                assert got == expected, (ell, dim, i)
                bits.append(str(got))
            spaces[f"{ell}x{dim}"] = {"ell": ell, "dim": dim, "gram": diag,
                                      "classes": "".join(bits)}
    lemma92 = cli_json(cli, ["lemma92", "--ell-max",
                             str(common.LEMMA92_ELL_MAX)])
    assert all(r["certified"] for r in lemma92["results"])
    print("orth: done", file=sys.stderr)

    golden = {"source_commit": commit, "lfun_top": top,
              "lfun_top_smoke": smoke_top, "lfun_corpus": corpus,
              "family_grid": grid,
              "orth": {"spaces": spaces, "lemma92": lemma92}}
    with open(common.GOLDEN, "w") as fh:
        json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {common.GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    try:
        main()
    except common.SetupError as exc:
        sys.exit(f"make_golden: {exc}")
