"""Command-line front end: local reduction, L-functions, family
verification, and the excluded-order certification sweep.

Exit codes: 0 = all checks pass, 1 = a mathematical check failed, 2 = usage
or parse error (a curve-file p or an --ell that is not a prime >= 5, an
lfunction --ell dividing q script_L, a prime repeated in an --ell or
--primes list, a lemma92 --ell-max below 5, a curve-file key other than p,
a2, a4, a6 or one given twice, an --out that cannot be written, refused
before any work if it is a directory or its directory is missing or not
writable), a field beyond the character-sum tables or one whose tables ran
out of memory in `reduce` or `lfunction` (the message names p, the degree
and q), or a verify-family grid with every prime skipped (nothing verified).
All commands are deterministic; JSON is the machine interface (written to
--out when given, printed otherwise) and a short summary goes to stderr.
"""

from __future__ import annotations

import json
import os
import sys

import click

from .algebra import Poly, PrimeField, check_prime, is_prime
from .curves import WeierstrassCurve
from .lfunction import (bsd_square_class_check, check_ell,
                        check_functional_equation, frobenius_matrix_mod_ell,
                        global_invariants, lfunction)
from .orthogonal import order_excludes
from .places import Place
from .reduction import local_reduce


def _parse_int_list(text, name):
    """A comma-separated --ell or --primes list of integers named name; a
    repeat is a usage error, as it would run and print the same checks
    twice."""
    try:
        values = [int(x) for x in text.replace(" ", "").split(",") if x]
    except ValueError:
        raise click.UsageError(f"expected a comma-separated integer list, "
                               f"got {text!r}")
    for i, v in enumerate(values):
        if v in values[:i]:
            raise click.UsageError(f"{name}={v} is repeated")
    return values


CURVE_KEYS = ("p", "a2", "a4", "a6")


def load_curve_file(path):
    """Parse a curve file: the keys p (a prime >= 5), a2, a4 and a6, each
    once and in any order, the a_i as dense ascending integer coefficient
    lists like [0, -3, 0, 1].  Any other key is an error: an a1 or a3 line
    would otherwise be dropped and the file read as a different curve."""
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
        key = key.strip()
        if key not in CURVE_KEYS:
            raise click.UsageError(f"unknown key {key!r} in curve file "
                                   f"(expected {', '.join(CURVE_KEYS)})")
        if key in kv:
            raise click.UsageError(f"duplicate key {key!r} in curve file")
        kv[key] = val.strip()
    for req in CURVE_KEYS:
        if req not in kv:
            raise click.UsageError(f"curve file missing key {req!r}")
    try:
        p = int(kv["p"])
    except ValueError:
        raise click.UsageError(f"bad prime {kv['p']!r}")

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
        return Place.rational(F, int(spec))
    except ValueError as exc:
        raise click.UsageError(f"bad place spec {spec!r}: {exc}")


def _check_out(ctx, param, out):
    """Refuse before any work, creating nothing, an --out that is a
    directory or whose directory is missing or not writable."""
    if out:
        folder = os.path.dirname(os.path.abspath(out))
        reason = ("Is a directory" if os.path.isdir(out) else
                  "No such directory" if not os.path.isdir(folder)
                  else "Permission denied" if not os.access(folder, os.W_OK)
                  else None)
        if reason:
            raise click.UsageError(f"cannot write --out {out}: {reason}")
    return out


out_option = click.option("--out", type=click.Path(), callback=_check_out)


def _emit(payload, out):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise click.UsageError(f"cannot write --out {out}: "
                                   f"{exc.strerror or exc}")
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
@out_option
def reduce(curve_file, place, out):
    """Kodaira symbol and local invariants of a curve at one place."""
    E = load_curve_file(curve_file)
    x = _parse_place(E, place)
    try:
        data = local_reduce(E, x)
    except (ValueError, MemoryError) as exc:
        raise click.UsageError(str(exc))
    click.echo(f"place {x}: {data.kodaira}  ({data.reduction_type}, "
               f"c = {data.c})", err=True)
    _emit(data.to_json(), out)


@main.command("lfunction")
@click.option("--check-fe", is_flag=True,
              help="Verify the functional equation on the result.")
@click.option("--ell", "ells", default="",
              help="Comma-separated primes for the special-value "
                   "square-class checks.")
@out_option
@click.argument("curve_file", type=click.Path())
def lfunction_cmd(curve_file, check_fe, ells, out):
    """Global invariants and the exact L-polynomial of a curve."""
    E = load_curve_file(curve_file)
    ell_list = _parse_int_list(ells, "ell")
    try:
        inv = global_invariants(E)
        for ell in ell_list:           # before L, the costly part
            check_ell(ell, inv)
        L = lfunction(E, inv)
    except (ValueError, MemoryError) as exc:
        raise click.UsageError(str(exc))
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
    for ell in ell_list:
        verdict = bsd_square_class_check(E, L, ell, inv)
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
@click.option("--max-w", type=click.IntRange(min=1), default=None,
              help="Cap the number of twist parameters per prime.")
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="Worker processes (default: all cores).")
@out_option
def verify_family(family, n, primes, ells, max_w, jobs, out):
    """Check a family's expected profile over a (p, w) grid."""
    # imported here: loading it parses every built-in family declaration
    from .families import FAMILIES, load_family_file, verify_profile
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
    prime_list = _parse_int_list(primes, "p")
    ell_list = _parse_int_list(ells, "ell")
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
@click.option("--ell-max", type=click.IntRange(min=5), default=97,
              show_default=True,
              help="Certify every prime ell with 5 <= ell <= ell-max.")
@click.option("--ell", "ells", default="",
              help="Explicit comma-separated list instead of a sweep.")
@out_option
def lemma92(ell_max, ells, out):
    """Certify that no Frobenius companion matrix has order dividing any
    e in {16, 20, 24, 28, 36}, for each ell, using the two witness twists."""
    exponents = {16, 20, 24, 28, 36}
    targets = (_parse_int_list(ells, "ell") if ells
               else [q for q in range(5, ell_max + 1) if is_prime(q)])
    try:
        targets = [check_prime(q, "ell") for q in targets]
    except ValueError as exc:
        raise click.UsageError(str(exc))
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
            try:
                res = order_excludes(C, exponents, q)
            except ValueError as exc:
                raise click.UsageError(str(exc))
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
