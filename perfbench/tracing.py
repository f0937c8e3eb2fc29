"""Spans and counters around the program's public functions.

`Tracer.install()` wraps each function in SPANS (timed) and COUNTS (counted
only) and rebinds every name under which an ffell module holds it (the
defining module and each module that imported it), so calls between modules
go through the wrapper too.  Methods are wrapped on their class.  No program
file changes.

Spans are kept in memory as (name, start, end, parent, op) tuples; a
layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

MODULES = ("algebra", "places", "curves", "reduction", "fastcount",
           "lfunction", "orthogonal", "families", "cli")

# (span name, module, attribute); "Class.method" wraps a method
SPANS = [
    ("fastcount.batch_traces", "fastcount", "batch_traces"),
    ("fastcount.field_tables", "fastcount", "field_tables"),
    ("fastcount.eval_poly", "fastcount", "FieldTables.eval_poly"),
    ("fastcount.add_codes", "fastcount", "FieldTables.add_codes"),
    ("fastcount.scale_codes", "fastcount", "FieldTables.scale_codes"),
    ("fastcount.power_codes", "fastcount", "FieldTables.power_codes"),
    ("fastcount.degree_d_representatives", "fastcount",
     "FieldTables.degree_d_representatives"),
    ("lfunction.lfunction", "lfunction", "lfunction"),
    ("lfunction.global_invariants", "lfunction", "global_invariants"),
    ("lfunction.bad_places", "lfunction", "bad_places"),
    ("lfunction.check_functional_equation", "lfunction",
     "check_functional_equation"),
    ("lfunction.bsd_square_class_check", "lfunction",
     "bsd_square_class_check"),
    ("lfunction.frobenius_matrix_mod_ell", "lfunction",
     "frobenius_matrix_mod_ell"),
    ("reduction.local_reduce", "reduction", "local_reduce"),
    ("algebra.factor", "algebra", "factor"),
    ("curves.WeierstrassCurve.init", "curves", "WeierstrassCurve.__init__"),
    ("places.Place.init", "places", "Place.__init__"),
    ("families.instantiate", "families", "Family.instantiate"),
    ("families.W_set", "families", "Family.W_set"),
    ("families.valid_prime", "families", "Family.valid_prime"),
    ("families.analyze_cell", "families", "analyze_cell"),
    ("orthogonal.spinor_norm", "orthogonal", "spinor_norm"),
    ("orthogonal.spinor_zassenhaus", "orthogonal", "spinor_zassenhaus"),
    ("orthogonal.det_mod", "orthogonal", "det_mod"),
    ("orthogonal.order_excludes", "orthogonal", "order_excludes"),
    ("orthogonal.mat_pow_mod", "orthogonal", "mat_pow_mod"),
]

# (call counter, failure counter, module, attribute): counted, not timed,
# because they are called too often for a span each
COUNTS = [
    ("algebra.Poly.mul.calls", "algebra.Poly.mul.failed",
     "algebra", "Poly.__mul__"),
    ("algebra.Poly.mul.calls", "algebra.Poly.mul.failed",
     "algebra", "Poly.__rmul__"),
    ("algebra.Poly.divmod.calls", "algebra.Poly.divmod.failed",
     "algebra", "Poly.__divmod__"),
    ("fastcount.field_tables.builds", "fastcount.FieldTables.init.failed",
     "fastcount", "FieldTables.__init__"),
]

MAX_DEGREE = 5

# counters that must repeat exactly from pass to pass and run to run
EXACT = ([f"fastcount.places.d{k}" for k in range(1, MAX_DEGREE + 1)]
         + [f"fastcount.qd.d{k}" for k in range(1, MAX_DEGREE + 1)]
         + ["fastcount.charsum_elem_ops", "fastcount.table_bytes",
            "reduction.local_reduce.calls", "families.cells",
            "orthogonal.spinor_norm.calls"])


def _per_layer():
    """(name, unit, better) of every per-layer metric, in report order."""
    s, n = "s", "count"
    out = [("fastcount.batch_traces.s", s, "lower"),
           ("fastcount.batch_traces.top.s", s, "lower")]
    out += [(f"fastcount.batch_traces.d{k}.s", s, "lower")
            for k in range(1, MAX_DEGREE + 1)]
    out += [("fastcount.eval_poly.s", s, "lower"),
            ("fastcount.eval_poly.calls", n, "lower"),
            ("fastcount.add_codes.s", s, "lower"),
            ("fastcount.scale_codes.s", s, "lower"),
            ("fastcount.power_codes.s", s, "lower"),
            ("fastcount.field_tables.s", s, "lower"),
            ("fastcount.field_tables.builds", n, "lower"),
            ("fastcount.degree_d_representatives.s", s, "lower")]
    out += [(f"fastcount.places.d{k}", n, "higher")
            for k in range(1, MAX_DEGREE + 1)]
    out += [(f"fastcount.qd.d{k}", n, "higher")
            for k in range(1, MAX_DEGREE + 1)]
    out += [("fastcount.charsum_elem_ops", n, "lower"),
            ("fastcount.table_bytes", "bytes", "lower"),
            ("lfunction.lfunction.self_s", s, "lower"),
            ("lfunction.global_invariants.s", s, "lower"),
            ("lfunction.bad_places.s", s, "lower"),
            ("lfunction.check_functional_equation.s", s, "lower"),
            ("lfunction.bsd_square_class_check.s", s, "lower"),
            ("lfunction.frobenius_matrix_mod_ell.s", s, "lower"),
            ("lfunction.overlap_checked", n, "higher"),
            ("reduction.local_reduce.s", s, "lower"),
            ("reduction.local_reduce.calls", n, "lower"),
            ("algebra.factor.s", s, "lower"),
            ("algebra.factor.calls", n, "lower"),
            ("algebra.Poly.mul.calls", n, "lower"),
            ("algebra.Poly.divmod.calls", n, "lower"),
            ("curves.WeierstrassCurve.init.s", s, "lower"),
            ("curves.WeierstrassCurve.init.calls", n, "lower"),
            ("places.Place.init.s", s, "lower"),
            ("places.Place.init.calls", n, "lower"),
            ("families.instantiate.s", s, "lower"),
            ("families.W_set.s", s, "lower"),
            ("families.valid_prime.s", s, "lower"),
            ("families.analyze_cell.self_s", s, "lower"),
            ("families.cells", n, "higher"),
            ("orthogonal.spinor_norm.s", s, "lower"),
            ("orthogonal.spinor_norm.calls", n, "higher"),
            ("orthogonal.spinor_zassenhaus.s", s, "lower"),
            ("orthogonal.det_mod.s", s, "lower"),
            ("orthogonal.det_mod.calls", n, "lower"),
            ("orthogonal.order_excludes.s", s, "lower"),
            ("orthogonal.mat_pow_mod.s", s, "lower"),
            ("cli.import_s", s, "lower")]
    out += [(f"{layer}.self_s", s, "lower") for layer in MODULES]
    out += [("trace.unwrapped_s", s, "lower"),
            ("trace.wall_s", s, "lower"),
            ("trace.overhead_s", s, "lower")]
    out += [(f"{name}.failed", n, "lower") for name, _, _ in SPANS]
    out += [(failed, n, "lower")
            for failed in dict.fromkeys(f for _, f, _, _ in COUNTS)]
    out += [("cli.main.failed", n, "lower")]
    return out


PER_LAYER = _per_layer()


class Tracer:
    """Collects spans and counters; one pass of a workload at a time."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, op, nested)
        self.counts = Counter()
        self.tables = {}         # id -> bytes of FieldTables used this pass
        self.degree = {}         # batch_traces span index -> degree
        self.op = -1
        self.op_pass = []        # op id -> pass number
        self._stack = []         # indices of open spans
        self._open = Counter()   # span name -> open depth
        self._pass_start = 0
        self.pass_no = -1

    # -- recording ---------------------------------------------------------
    def _enter(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        nested = self._open[name] > 0
        self._open[name] += 1
        return idx, parent, nested

    def _exit(self, name, idx, parent, nested, t0, failed):
        t1 = time.perf_counter()
        self._stack.pop()
        self._open[name] -= 1
        self.spans[idx] = (name, t0, t1, parent, self.op, nested)
        if failed:
            self.counts[name + ".failed"] += 1

    @contextmanager
    def span(self, name):
        idx, parent, nested = self._enter(name)
        failed = True
        t0 = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            self._exit(name, idx, parent, nested, t0, failed)

    @contextmanager
    def op_span(self):
        self.op = len(self.op_pass)
        self.op_pass.append(self.pass_no)
        with self.span("op"):
            yield

    def _timed(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent, nested = self._enter(name)
            failed = True
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                self._exit(name, idx, parent, nested, t0, failed)
            if after is not None:
                after(args, result, idx)
            return result
        return wrapper

    def _counted(self, calls, failed, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                counts[failed] += 1
                raise
        return wrapper

    # -- result hooks for the exact counters ------------------------------
    def _after_batch_traces(self, args, result, idx):
        curve, d = args[0], args[1]
        reps, _ = result
        qd = curve.field.p ** d
        c = self.counts
        c[f"fastcount.places.d{d}"] += len(reps)
        c[f"fastcount.qd.d{d}"] = max(c[f"fastcount.qd.d{d}"], qd)
        c["fastcount.charsum_elem_ops"] += len(reps) * qd
        self.degree[idx] = d

    def _after_field_tables(self, args, table, idx):
        self.tables[id(table)] = sum(
            a.nbytes for a in (table.exp, table.log, table.digits,
                               table.powers, table.chi, table.frobenius))

    def _after_analyze_cell(self, args, result, idx):
        self.counts["families.cells"] += 1

    def _after_lfunction(self, args, L, idx):
        # the indices lfunction() verified both directly and through the
        # functional equation
        N, m = L.degree, L.direct_upto
        if N:
            self.counts["lfunction.overlap_checked"] += sum(
                1 for i in range(min(m, N // 2) + 1) if N - i <= m)

    # -- installation ------------------------------------------------------
    def install(self):
        mods = {m: importlib.import_module(f"ffell.{m}") for m in MODULES}
        hooks = {"fastcount.batch_traces": self._after_batch_traces,
                 "fastcount.field_tables": self._after_field_tables,
                 "lfunction.lfunction": self._after_lfunction,
                 "families.analyze_cell": self._after_analyze_cell}
        for name, mod, attr in SPANS:
            self._rebind(mods, mod, attr,
                         lambda fn, n=name: self._timed(n, fn, hooks.get(n)))
        for calls, failed, mod, attr in COUNTS:
            self._rebind(mods, mod, attr,
                         lambda fn, c=calls, f=failed:
                         self._counted(c, f, fn))

    @staticmethod
    def _rebind(mods, mod, attr, make):
        owner_name, _, meth = attr.rpartition(".")
        if owner_name:
            owner = getattr(mods[mod], owner_name)
            setattr(owner, meth, make(owner.__dict__[meth]))
            return
        orig = getattr(mods[mod], attr)
        wrapped = make(orig)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").startswith("ffell"):
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    # -- passes ------------------------------------------------------------
    def begin_pass(self):
        self.pass_no += 1
        self.counts.clear()
        self.tables.clear()
        self.degree.clear()
        self._pass_start = len(self.spans)

    def end_pass(self) -> dict:
        """Per-layer metrics of the pass just run."""
        start = self._pass_start
        spans = self.spans[start:]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= start:
                child[s[3] - start] += s[2] - s[1]
        out = Counter()
        top = {}                  # parent -> (degree, duration)
        for i, s in enumerate(spans):
            name, t0, t1, parent, _, nested = s
            dur = t1 - t0
            own = dur - child[i]
            if name == "op":
                out["trace.unwrapped_s"] += own
                continue
            out[name + ".calls"] += 1
            out[name + ".self_s"] += own
            out[name.split(".", 1)[0] + ".self_s"] += own
            if not nested:
                out[name + ".s"] += dur
            if name == "fastcount.batch_traces":
                d = self.degree[start + i]
                out[f"fastcount.batch_traces.d{d}.s"] += dur
                if d > top.get(parent, (0, 0.0))[0]:
                    top[parent] = (d, dur)
        out["fastcount.batch_traces.top.s"] = sum(
            dur for _, dur in top.values())
        out.update(self.counts)
        out["fastcount.table_bytes"] = sum(self.tables.values())
        return dict(out)

    def dump(self, path):
        """Write every span, gzipped JSON: names plus
        [name, start, end, parent, op] rows (parent/op are indices)."""
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                for s in self.spans if s is not None]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": names, "op_pass": self.op_pass,
                       "spans": rows}, fh)
