"""The four workloads.  Each builds its inputs from the golden file and the
seed (set-up), lists the ops of one pass, runs one op and checks its output:
`check` returns (units failed, message), (0, None) when all is well.

Ops call the program through module attributes looked up at call time, so
a tracer installed after set-up sees them.  Checks use functions bound
during set-up, before any tracer is installed, so they are never traced.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import common


@dataclass
class Op:
    key: object
    units: int = 1            # ops it counts for (cells, ells)
    sample: bool = True       # timed on its own (a latency sample)


OK = (0, None)


def failed(op, message):
    return op.units, message


class LfunTop:
    """`ffell lfunction --check-fe --ell 11,13` on the N = 9 member, as a
    fresh CLI process with cold field tables."""

    name = "lfun_top"
    traced_in_child = True

    def __init__(self, golden, seed, smoke):
        common.load_program()
        import ffell.cli  # noqa: F401  (set-up checks the CLI imports)
        ref = golden["lfun_top_smoke" if smoke else "lfun_top"]
        self.expected = ref["output"]
        common.OUT.mkdir(exist_ok=True)
        self.curve_path = common.OUT / f"curve-{os.getpid()}.txt"
        self.curve_path.write_text(common.curve_text(ref["curve"]))
        self.args = ["lfunction", "--check-fe", "--ell", common.TOP_ELLS,
                     str(self.curve_path)]
        self.trace_path = None    # set by the runner for a traced run
        self.child_rss_kb = 0

    def ops(self):
        return [Op("cli")]

    def run(self, op):
        if self.trace_path is None:
            cmd = [sys.executable, "-m", "ffell.cli"] + self.args
        else:
            cmd = [sys.executable, str(common.HERE / "tracecli.py"),
                   str(self.trace_path)] + self.args
        err_path = common.OUT / f"cli-stderr-{os.getpid()}.txt"
        with open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=common.child_env(), cwd=common.ROOT)
            with proc.stdout:
                out = proc.stdout.read()
            # wait4 gives this child's own peak memory
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out, err_path.read_text()

    def check(self, op, value):
        code, out, err = value
        if code != 0:
            return failed(op, f"exit code {code}: {err.strip()[-300:]}")
        try:
            payload = json.loads(out)
        except ValueError:
            return failed(op, "stdout is not JSON")
        if payload.get("functional_equation", {}).get("pass") is not True:
            return failed(op, "functional equation check did not pass")
        if payload != self.expected:
            return failed(op, "output differs from the golden")
        return OK

    def close(self):
        self.curve_path.unlink(missing_ok=True)
        (common.OUT / f"cli-stderr-{os.getpid()}.txt").unlink(missing_ok=True)


class LfunCorpus:
    """global_invariants + lfunction on the 42 other corpus members, in
    process, with field tables warmed during set-up."""

    name = "lfun_corpus"

    def __init__(self, golden, seed, smoke):
        common.load_program()
        from ffell import fastcount, lfunction
        from ffell.curves import WeierstrassCurve
        self.lf = lfunction
        self.check_fe = lfunction.check_functional_equation
        members = golden["lfun_corpus"][:2] if smoke \
            else golden["lfun_corpus"]
        self.members = []
        for ref in members:
            c = ref["curve"]
            E = WeierstrassCurve.from_int_coeffs(c["p"], c["a2"], c["a4"],
                                                 c["a6"])
            self.members.append((ref, E))
            N = ref["N"]
            for d in range(1, min(N, N // 2 + 1) + 1):
                fastcount.field_tables(c["p"], d)
        self.order = list(range(len(self.members)))
        random.Random(seed).shuffle(self.order)

    def ops(self):
        return [Op(i) for i in self.order]

    def run(self, op):
        _, E = self.members[op.key]
        inv = self.lf.global_invariants(E)
        return inv, self.lf.lfunction(E, inv)

    def check(self, op, value):
        ref, _ = self.members[op.key]
        inv, L = value
        if self.check_fe(L) != (True, None):
            return failed(op, f"{ref['member']}: functional equation fails")
        if inv.to_json() != ref["invariants"]:
            return failed(op, f"{ref['member']}: invariants differ from "
                              f"the golden")
        if L.to_json() != ref["L"]:
            return failed(op, f"{ref['member']}: L-polynomial differs from "
                              f"the golden")
        return OK

    def close(self):
        pass


class FamilyGrid:
    """verify_profile (default ells, jobs=1) over the acceptance profile
    grids, one prime of one grid entry per timed call."""

    name = "family_grid"

    def __init__(self, golden, seed, smoke):
        common.load_program()
        from ffell import families
        self.families = families
        self.rows = golden["family_grid"][:1] if smoke \
            else golden["family_grid"]
        self.order = list(range(len(self.rows)))
        random.Random(seed).shuffle(self.order)

    def ops(self):
        return [Op(i, units=self.rows[i]["cells"]) for i in self.order]

    def run(self, op):
        row = self.rows[op.key]
        return self.families.verify_profile(row["family"], row["n"],
                                            [row["p"]], jobs=1)

    def check(self, op, rep):
        row = self.rows[op.key]
        where = f"{row['family']} n={row['n']} p={row['p']}"
        if not rep.verdict:
            return failed(op, f"{where}: verdict FAIL")
        if len(rep.cells) != row["cells"]:
            return failed(op, f"{where}: {len(rep.cells)} cells, expected "
                              f"{row['cells']}")
        if common.digest(rep.to_json()) != row["digest"]:
            return failed(op, f"{where}: report differs from the golden")
        return OK

    def close(self):
        pass


class Orth:
    """spinor_norm and spinor_zassenhaus on seeded orthogonal matrices, then
    the `lemma92` sweep through the CLI entry point, in process."""

    name = "orth"
    SWEEP = "lemma92"

    def __init__(self, golden, seed, smoke):
        common.load_program()
        import numpy as np
        from ffell import cli, orthogonal
        self.orth = orthogonal
        self.cli = cli
        rng = random.Random(seed)
        pick = 4 if smoke else common.ORTH_PICK
        self.matrices = []
        for ref in golden["orth"]["spaces"].values():
            ell, gram = ref["ell"], ref["gram"]
            space = orthogonal.OrthogonalSpace(ell, np.diag(gram))
            for i in rng.sample(range(common.ORTH_POOL), pick):
                M, _ = common.orth_matrix(ell, gram, i)
                self.matrices.append((orthogonal.OrthMatrix(space, M),
                                      ref["classes"][i] == "1"))
        rng.shuffle(self.matrices)
        ell_max = 50 if smoke else common.LEMMA92_ELL_MAX
        sweep = golden["orth"]["lemma92"]
        self.sweep_expected = [r for r in sweep["results"]
                               if r["ell"] <= ell_max]
        self.exponents = sweep["exponents"]
        self.sweep_args = ["lemma92", "--ell-max", str(ell_max)]
        self.tracer = None        # set by the runner for a traced run

    def ops(self):
        return ([Op(i) for i in range(len(self.matrices))]
                + [Op(self.SWEEP, units=len(self.sweep_expected),
                      sample=False)])

    def run(self, op):
        if op.key == self.SWEEP:
            return self.sweep()
        A, _ = self.matrices[op.key]
        s = self.orth.spinor_norm(A)
        try:
            z = self.orth.spinor_zassenhaus(A)
        except ValueError:
            z = None          # det(I + A) = 0: the formula does not apply
        return s, z

    def sweep(self):
        out = io.StringIO()
        code = 0
        span = (self.tracer.span("cli.main") if self.tracer
                else contextlib.nullcontext())
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()), span:
            try:
                self.cli.main(self.sweep_args, standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, op, value):
        if op.key == self.SWEEP:
            return self.check_sweep(op, value)
        _, nonsquare = self.matrices[op.key]
        s, z = value
        if z is not None and z != s:
            return failed(op, f"matrix {op.key}: spinor_norm != "
                              f"spinor_zassenhaus")
        if s.trivial == nonsquare:
            return failed(op, f"matrix {op.key}: spinor class differs from "
                              f"the golden")
        return OK

    def check_sweep(self, op, value):
        """Each ell whose row differs from the golden counts as failed."""
        code, out = value
        try:
            payload = json.loads(out)
        except ValueError:
            return failed(op, "lemma92: stdout is not JSON")
        if code != 0 or payload.get("exponents") != self.exponents:
            return failed(op, f"lemma92: exit code {code}")
        got = {r["ell"]: r for r in payload.get("results", [])}
        bad = [r["ell"] for r in self.sweep_expected if got.get(r["ell"]) != r]
        return (len(bad), f"lemma92: ells {bad} differ from the golden") \
            if bad else OK

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (LfunTop, LfunCorpus, FamilyGrid, Orth)}
