"""Command-line front end: local reduction, L-functions, family
verification, and the excluded-order certification sweep.

Exit codes: 0 = all checks pass, 1 = a mathematical check failed,
2 = usage or parse error, or a verify-family grid with every prime skipped
(nothing verified).  All commands are deterministic; JSON is the
machine interface (written to --out when given, printed otherwise) and a
short human-readable summary goes to the terminal alongside.
"""

from __future__ import annotations

import json
import os
import sys

import click

from .algebra import Poly, PrimeField, is_prime
from .curves import WeierstrassCurve
from .families import FAMILIES, load_family_file, verify_profile
from .lfunction import (bsd_square_class_check, check_functional_equation,
                        frobenius_matrix_mod_ell, global_invariants,
                        lfunction)
from .orthogonal import order_excludes
from .places import Place
from .reduction import local_reduce


def _parse_int_list(text):
    try:
        return [int(x) for x in text.replace(" ", "").split(",") if x]
    except ValueError:
        raise click.UsageError(f"expected a comma-separated integer list, "
                               f"got {text!r}")


def load_curve_file(path):
    """Parse a curve file: line 1 'p=<prime>', then a2=/a4=/a6= as dense
    ascending integer coefficient lists like [0, -3, 0, 1]."""
    kv = {}
    try:
        with open(path) as fh:
            lines = [ln.split("#", 1)[0].strip() for ln in fh]
    except OSError as exc:
        raise click.UsageError(f"cannot read curve file: {exc}")
    for ln in lines:
        if not ln:
            continue
        key, sep, val = ln.partition("=")
        if not sep:
            raise click.UsageError(f"bad line in curve file: {ln!r}")
        kv[key.strip()] = val.strip()
    for req in ("p", "a2", "a4", "a6"):
        if req not in kv:
            raise click.UsageError(f"curve file missing key {req!r}")
    try:
        p = int(kv["p"])
    except ValueError:
        raise click.UsageError(f"bad prime {kv['p']!r}")
    if not is_prime(p) or p < 5:
        raise click.UsageError(f"p={p} is not a prime >= 5")

    def coeffs(key):
        s = kv[key]
        if not (s.startswith("[") and s.endswith("]")):
            raise click.UsageError(f"{key} must be a list [c0, c1, ...]")
        body = s[1:-1].strip()
        try:
            return [int(x) for x in body.split(",")] if body else []
        except ValueError:
            raise click.UsageError(f"non-integer coefficient in {key}")

    try:
        return WeierstrassCurve.from_int_coeffs(
            p, coeffs("a2"), coeffs("a4"), coeffs("a6"))
    except ValueError as exc:
        raise click.UsageError(f"invalid curve: {exc}")


def _parse_place(curve, spec):
    F = curve.field
    spec = spec.strip()
    if spec in ("inf", "oo", "infinity"):
        return Place.infinity(F)
    try:
        if "," in spec:
            pi = Poly(F, [int(x) for x in spec.split(",")])
            return Place.finite(F, pi)
        return Place.rational(F, F(int(spec)))
    except ValueError as exc:
        raise click.UsageError(f"bad place spec {spec!r}: {exc}")


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


@click.group()
def main():
    """Elliptic curves over F_p(t): reduction data, L-functions and
    quadratic-twist family verification."""


@main.command()
@click.argument("curve_file", type=click.Path())
@click.option("--place", required=True,
              help="'inf', an integer a (the place t - a), or monic "
                   "ascending coefficients 'c0,c1,...,1'.")
@click.option("--out", type=click.Path(), default=None)
def reduce(curve_file, place, out):
    """Kodaira symbol and local invariants of a curve at one place."""
    E = load_curve_file(curve_file)
    x = _parse_place(E, place)
    data = local_reduce(E, x)
    click.echo(f"place {x}: {data.kodaira}  ({data.reduction_type}, "
               f"c = {data.c})", err=True)
    _emit(data.to_json(), out)


@main.command("lfunction")
@click.option("--check-fe", is_flag=True,
              help="Verify the functional equation on the result.")
@click.option("--ell", "ells", default="",
              help="Comma-separated primes for the special-value "
                   "square-class checks.")
@click.option("--out", type=click.Path(), default=None)
@click.argument("curve_file", type=click.Path())
def lfunction_cmd(curve_file, check_fe, ells, out):
    """Global invariants and the exact L-polynomial of a curve."""
    E = load_curve_file(curve_file)
    try:
        inv = global_invariants(E)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    L = lfunction(E, inv)
    payload = {"invariants": inv.to_json(), "L": L.to_json()}
    failed = False
    click.echo(f"N = {inv.N}  chi = {inv.chi}  gamma = {inv.gamma}  "
               f"script_L = {inv.script_L}  B = {inv.B}  c_E = {inv.c_E}  "
               f"epsilon = {inv.epsilon:+d}", err=True)
    click.echo("L coefficients: " + str(list(L.coefficients)), err=True)
    if check_fe:
        ok, idx = check_functional_equation(L)
        payload["functional_equation"] = {"pass": ok, "first_mismatch": idx}
        sign = "+1" if L.epsilon == 1 else "-1"
        click.echo(f"FE: {'pass' if ok else 'FAIL'}, epsilon = {sign}",
                   err=True)
        failed = failed or not ok
    bsd = {}
    for ell in _parse_int_list(ells):
        try:
            verdict = bsd_square_class_check(E, L, ell, inv)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        bsd[str(ell)] = verdict
        click.echo(f"BSD class mod {ell}: {verdict}", err=True)
        failed = failed or verdict == "fail"
    if bsd:
        payload["bsd"] = bsd
    _emit(payload, out)
    if failed:
        sys.exit(1)


@main.command("verify-family")
@click.argument("family")
@click.option("--n", type=int, default=None,
              help="Family parameter (defaults to the family's minimum).")
@click.option("--primes", required=True, help="Comma-separated primes.")
@click.option("--ell", "ells", default="5,7,11,13,17,19,23",
              show_default=True, help="Primes ell for the condition checks.")
@click.option("--max-w", type=int, default=None,
              help="Cap the number of twist parameters per prime.")
@click.option("--jobs", type=int, default=None,
              help="Worker processes (default: all cores).")
@click.option("--out", type=click.Path(), default=None)
def verify_family(family, n, primes, ells, max_w, jobs, out):
    """Check a family's expected profile over a (p, w) grid."""
    if family in FAMILIES:
        fam = FAMILIES[family]
    elif os.path.exists(family):
        try:
            fam = load_family_file(family)
        except OSError as exc:
            raise click.UsageError(f"cannot read family file: {exc}")
        except ValueError as exc:
            raise click.UsageError(f"bad family file: {exc}")
    else:
        known = ", ".join(sorted(FAMILIES))
        raise click.UsageError(
            f"unknown family {family!r} (known: {known})")
    if n is None:
        n = fam.nmin
    prime_list = _parse_int_list(primes)
    ell_list = _parse_int_list(ells)
    jobs = jobs if jobs is not None else (os.cpu_count() or 1)
    try:
        rep = verify_profile(fam, n, prime_list, ells=ell_list,
                             max_w=max_w, jobs=jobs)
    except ValueError as exc:
        raise click.UsageError(str(exc))

    header = f"{fam.fid}  n={n}  condition ({fam.condition})"
    click.echo(header, err=True)
    for p, reason in rep.skipped_primes:
        click.echo(f"  p={p:<4} skipped: {reason}", err=True)
    by_p = {}
    for c in rep.cells:
        by_p.setdefault(c["p"], []).append(c)
    for p, cells in by_p.items():
        bad = sum(1 for c in cells if not all(c["checks"].values()))
        click.echo(f"  p={p:<4} cells={len(cells):<3} failing={bad}",
                   err=True)
    for p, reason in rep.unattained:
        click.echo(f"  p={p:<4} UNATTAINED: {reason}", err=True)
    for w in rep.waivers:
        click.echo(f"  waived: {w}", err=True)
    if rep.cells:
        click.echo(f"  verdict: {'PASS' if rep.verdict else 'FAIL'}",
                   err=True)
    else:
        click.echo("  no cells verified", err=True)
    _emit(rep.to_json(), out)
    if not rep.verdict:
        sys.exit(1 if rep.cells else 2)


def _witnesses():
    out = []
    for p, m in ((5, 2), (7, 3)):
        F = PrimeField(p)
        t = Poly.t(F)
        u = t * t - 1
        E = WeierstrassCurve(Poly(F, []), 3 * u ** 3,
                             -2 * u ** 5).twist_by(t - m)
        out.append((f"m={m}/F_{p}", p, E))
    return out


@main.command("lemma92")
@click.option("--ell-max", type=int, default=97, show_default=True,
              help="Certify every prime ell with 5 <= ell <= ell-max.")
@click.option("--ell", "ells", default="",
              help="Explicit comma-separated list instead of a sweep.")
@click.option("--out", type=click.Path(), default=None)
def lemma92(ell_max, ells, out):
    """Certify that no Frobenius companion matrix has order dividing any
    e in {16, 20, 24, 28, 36}, for each ell, using the two witness twists."""
    exponents = {16, 20, 24, 28, 36}
    targets = (_parse_int_list(ells) if ells
               else [q for q in range(5, ell_max + 1) if is_prime(q)])
    for q in targets:
        if not is_prime(q) or q < 5:
            raise click.UsageError(f"ell={q} is not a prime >= 5")
    witnesses = [(name, p, E, global_invariants(E)) for name, p, E
                 in _witnesses()]
    cache = {}
    rows = []
    all_ok = True
    for q in targets:
        row = {"ell": q, "witness": None, "attempts": [],
               "certified": False}
        for name, p, E, inv in witnesses:
            if (6 * p) % q == 0:
                continue
            if name not in cache:
                cache[name] = lfunction(E, inv)
            C = frobenius_matrix_mod_ell(E, q, cache[name], inv)
            res = order_excludes(C, exponents, q)
            row["attempts"].append({"witness": name,
                                    "failures": res["failures"]})
            if res["pass"]:
                row["witness"] = name
                row["certified"] = True
                break
        rows.append(row)
        all_ok = all_ok and row["certified"]
        tail = ("certified" if row["certified"]
                else f"NOT certified ({row['attempts']})")
        click.echo(f"  ell={q:<4} witness {row['witness']}: {tail}",
                   err=True)
    _emit({"exponents": sorted(exponents), "results": rows}, out)
    if not all_ok:
        sys.exit(1)


if __name__ == "__main__":
    main()
