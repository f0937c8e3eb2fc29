import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import ffell
from ffell import cli, fastcount
from ffell.algebra import Poly, PrimeField
from ffell.cli import main
from ffell.families import FAMILIES, FAMILY_DECLARATIONS


@pytest.fixture
def runner():
    return CliRunner()


def intro_curve_file(tmp_path, p=5, m=2):
    F = PrimeField(p)
    t = Poly.t(F)
    u = t * t - 1
    tw = t - m
    a4 = 3 * u ** 3 * tw ** 2
    a6 = -2 * u ** 5 * tw ** 3
    path = tmp_path / f"intro_{p}_{m}.txt"
    path.write_text(
        "p=%d\na2=[]\na4=%s\na6=%s\n"
        % (p, [int(c) for c in a4.coeffs], [int(c) for c in a6.coeffs]))
    return str(path)


def tables_fail_above(d_max):
    """A field_tables that runs out of memory beyond degree d_max, before
    allocating anything."""
    def tables(p, d):
        if d > d_max:
            raise MemoryError
        return build(p, d)

    build = fastcount.field_tables
    return tables


def assert_unwritable_out_exits_2(runner, args, out):
    """An --out that cannot be written is a usage error naming the path,
    not a traceback with exit 1, which reads as a failed check."""
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    assert f"cannot write --out {out}" in res.stderr
    assert "Traceback" not in res.output


def assert_out_refused_before_work(runner, monkeypatch, work, args, out):
    """The same refusal, before the work: work, the dotted name of the
    command's costly step, raises if it runs."""
    def no_work(*args, **kwargs):
        raise AssertionError("work done for an --out that cannot be written")

    monkeypatch.setattr(work, no_work)
    assert_unwritable_out_exits_2(runner, args, out)


class TestReduce:
    def test_intro_at_one_is_III_star(self, runner, tmp_path):
        res = runner.invoke(main, ["reduce", intro_curve_file(tmp_path),
                                   "--place", "1"])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)
        assert rec["kodaira"] == "III*" and rec["c"] == 2

    def test_good_place_is_I0(self, runner, tmp_path):
        res = runner.invoke(main, ["reduce", intro_curve_file(tmp_path),
                                   "--place", "3"])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)
        assert rec["kodaira"] == "I0" and rec["reduction_type"] == "good"

    def test_infinite_place(self, runner, tmp_path):
        res = runner.invoke(main, ["reduce", intro_curve_file(tmp_path),
                                   "--place", "inf"])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["kodaira"] == "II*"

    def test_malformed_file_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        res = runner.invoke(main, ["reduce", str(bad), "--place", "1"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("line,message", [
        ("p=x", "bad prime 'x'"),
        ("p=9", "p=9 is not a prime >= 5"),
        ("p=3", "invalid curve: p=3 is not a prime >= 5"),
        ("a2=1", "a2 must be a list"),
        ("a2=[1.5]", "non-integer coefficient in a2")])
    def test_bad_value_exits_2(self, runner, tmp_path, line, message):
        path = intro_curve_file(tmp_path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        key = line.partition("=")[0]
        with open(path, "w") as fh:
            fh.write("\n".join(line if ln.startswith(key + "=") else ln
                               for ln in lines) + "\n")
        res = runner.invoke(main, ["reduce", path, "--place", "1"])
        assert res.exit_code == 2
        assert message in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("extra,message", [
        ("a1=[1]", "unknown key 'a1'"),
        ("a3 = []", "unknown key 'a3'"),
        ("p=7", "duplicate key 'p'"),
        ("a4=[1]", "duplicate key 'a4'")])
    def test_unknown_or_repeated_key_exits_2(self, runner, tmp_path, extra,
                                             message):
        # an ignored a1 line, or a second p overriding the first, would
        # reduce a different curve and exit 0
        path = intro_curve_file(tmp_path)
        with open(path, "a") as fh:
            fh.write(extra + "\n")
        res = runner.invoke(main, ["reduce", path, "--place", "1"])
        assert res.exit_code == 2
        assert message in res.stderr
        assert res.stdout == ""

    def test_keys_in_any_order_with_comments(self, runner, tmp_path):
        path = intro_curve_file(tmp_path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("# the intro curve\n" + "\n".join(lines[::-1]) + "\n")
        res = runner.invoke(main, ["reduce", path, "--place", "1"])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["kodaira"] == "III*"

    def test_missing_file_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["reduce", str(tmp_path / "none.txt"),
                                   "--place", "1"])
        assert res.exit_code == 2

    def test_place_beyond_tables_exits_2(self, runner, tmp_path):
        # a good place of degree 11 over F_5: refused before any table
        path = tmp_path / "curve.txt"
        path.write_text("p=5\na2=[]\na4=[0, 1]\na6=[1]\n")
        before = set(fastcount._TABLE_CACHE)
        res = runner.invoke(main, ["reduce", str(path), "--place",
                                   "3,3,2,3,2,0,4,4,4,4,2,1"])
        assert res.exit_code == 2
        assert "2^53" in res.output and "Traceback" not in res.output
        assert set(fastcount._TABLE_CACHE) == before

    def test_out_of_memory_exits_2(self, runner, tmp_path, monkeypatch):
        # a good place of degree 2, whose tables run out of memory
        monkeypatch.setattr(fastcount, "field_tables", tables_fail_above(1))
        res = runner.invoke(main, ["reduce", intro_curve_file(tmp_path),
                                   "--place", "2,0,1"])
        assert res.exit_code == 2 and not res.stdout
        assert "p = 5, degree 2, q = 25" in res.stderr

    def test_bad_place_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["reduce", intro_curve_file(tmp_path),
                                   "--place", "zzz"])
        assert res.exit_code == 2

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        assert_unwritable_out_exits_2(
            runner, ["reduce", intro_curve_file(tmp_path), "--place", "1"],
            tmp_path)

    def test_unwritable_out_refused_before_work(self, runner, tmp_path,
                                                monkeypatch):
        assert_out_refused_before_work(
            runner, monkeypatch, "ffell.cli.local_reduce",
            ["reduce", intro_curve_file(tmp_path), "--place", "1"],
            tmp_path / "none" / "r.json")
        assert not (tmp_path / "none").exists()


class TestLFunction:
    def test_golden_polynomial(self, runner, tmp_path):
        res = runner.invoke(main, ["lfunction", "--check-fe",
                                   intro_curve_file(tmp_path)])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)
        assert rec["L"]["coefficients"] == [1, -2, 1, -5, 250, -3125]
        assert rec["functional_equation"]["pass"] is True

    def test_bsd_checks(self, runner, tmp_path):
        # the m=3/F_7 twist has nonvanishing special value
        res = runner.invoke(main, ["lfunction", "--ell", "11,13",
                                   intro_curve_file(tmp_path, 7, 3)])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)
        assert rec["bsd"] == {"11": "pass", "13": "pass"}

    def test_bad_ell_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["lfunction", "--ell", "5",
                                   intro_curve_file(tmp_path)])
        assert res.exit_code == 2

    @pytest.mark.parametrize("ell", ["9", "5"])
    def test_bad_ell_refused_before_L(self, runner, tmp_path, monkeypatch,
                                      ell):
        # 9 is no prime, and 5 = q divides q script_L at p = 5: both are
        # refused after the invariants, before the costly L-polynomial
        def no_lfunction(*args, **kwargs):
            raise AssertionError("L computed for a refused ell")

        monkeypatch.setattr(cli, "lfunction", no_lfunction)
        res = runner.invoke(main, ["lfunction", "--ell", ell,
                                   intro_curve_file(tmp_path)])
        assert res.exit_code == 2
        assert {"9": "ell=9 is not a prime >= 5",
                "5": "ell=5 divides q script_L = 5"}[ell] in res.stderr
        assert "N = " not in res.stderr and res.stdout == ""

    def test_repeated_ell_exits_2(self, runner, tmp_path):
        # accepted, it would run and print the check at ell = 11 twice
        res = runner.invoke(main, ["lfunction", "--ell", "11,13,11",
                                   intro_curve_file(tmp_path)])
        assert res.exit_code == 2
        assert "ell=11 is repeated" in res.stderr
        assert res.stdout == ""

    def test_top_degree_beyond_tables_exits_2(self, runner, tmp_path):
        E = FAMILIES["even_4mod8"].instantiate(11, 1, 5)     # N = 12, m = 7
        path = tmp_path / "even_4mod8.txt"
        path.write_text("p=11\n" + "".join(
            "%s=%s\n" % (k, [int(c) for c in getattr(E, k).coeffs])
            for k in ("a2", "a4", "a6")))
        res = runner.invoke(main, ["lfunction", str(path)])
        assert res.exit_code == 2
        assert "m = 7: q = 11^7 = 19487171" in res.stderr
        assert "p (P - 1)^2 < 2^53" in res.stderr and not res.stdout

    def test_out_of_memory_exits_2(self, runner, tmp_path, monkeypatch):
        # exit 1 would read as a failed check
        monkeypatch.setattr(fastcount, "field_tables", tables_fail_above(2))
        res = runner.invoke(main, ["lfunction", "--check-fe",
                                   intro_curve_file(tmp_path, 7, 3)])
        assert res.exit_code == 2 and not res.stdout
        assert "p = 7, degree 3, q = 343" in res.stderr

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "L.json"
        res = runner.invoke(main, ["lfunction", "--out", str(out),
                                   intro_curve_file(tmp_path)])
        assert res.exit_code == 0
        assert json.loads(out.read_text())["invariants"]["N"] == 5

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        assert_unwritable_out_exits_2(
            runner, ["lfunction", intro_curve_file(tmp_path)],
            tmp_path / "none" / "L.json")

    def test_unwritable_out_refused_before_work(self, runner, tmp_path,
                                                monkeypatch):
        assert_out_refused_before_work(
            runner, monkeypatch, "ffell.cli.lfunction",
            ["lfunction", intro_curve_file(tmp_path)], tmp_path)


class TestVerifyFamily:
    def test_odd5(self, runner):
        res = runner.invoke(main, ["verify-family", "odd_5mod8", "--n", "1",
                                   "--primes", "17,23", "--max-w", "2",
                                   "--jobs", "1"])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)
        assert rec["verdict"] is True

    def test_intro_waivers(self, runner):
        res = runner.invoke(main, ["verify-family", "intro_N5",
                                   "--primes", "5,7", "--max-w", "2",
                                   "--jobs", "1"])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)
        assert rec["verdict"] is True and rec["waivers"]

    @pytest.mark.parametrize("fid,n", [("case1_2ns", "1"), ("intro_N5", "1")])
    def test_n_out_of_range_exits_2(self, runner, fid, n):
        res = runner.invoke(main, ["verify-family", fid, "--n", n,
                                   "--primes", "11", "--jobs", "1"])
        assert res.exit_code == 2
        assert f"n={n} out of range" in res.stderr
        assert res.stdout == ""

    def test_unknown_family_exits_2(self, runner):
        res = runner.invoke(main, ["verify-family", "nope", "--primes", "5"])
        assert res.exit_code == 2
        assert all(fid in res.output for fid in FAMILIES)

    def test_families_imported_only_by_verify_family(self):
        # loading ffell.families parses every built-in declaration
        code = "import sys, ffell.cli; print('ffell.families' in sys.modules)"
        src = os.path.dirname(os.path.dirname(ffell.__file__))
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src)).stdout
        assert out.strip() == "False"

    def test_unattained_prime_exits_1(self, runner):
        res = runner.invoke(main, ["verify-family", "case1_2ns",
                                   "--primes", "5", "--jobs", "1"])
        assert res.exit_code == 1
        assert json.loads(res.stdout)["unattained"]

    def test_all_primes_skipped_exits_2(self, runner):
        # W(F_11) is empty for odd_5mod8: nothing was verified, which is
        # neither a pass nor a failed check
        res = runner.invoke(main, ["verify-family", "odd_5mod8", "--n", "1",
                                   "--primes", "11", "--jobs", "1"])
        assert res.exit_code == 2
        assert "no cells verified" in res.stderr
        assert "verdict" not in res.stderr
        rec = json.loads(res.stdout)
        assert rec["cells"] == [] and rec["verdict"] is False
        assert rec["skipped_primes"] == [
            [11, "empty twist-parameter set W(F_p)"]]

    def test_unknown_family_key_exits_2(self, runner, tmp_path):
        path = tmp_path / "fam.txt"
        path.write_text("id = x\ncondition = C\nh = [0, 1]\na2 = []\n"
                        "a4 = [1]\na6 = [1]\ngama = 2\n")
        res = runner.invoke(main, ["verify-family", str(path),
                                   "--primes", "11", "--jobs", "1"])
        assert res.exit_code == 2
        assert "gama" in res.output

    def test_directory_as_family_file_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["verify-family", str(tmp_path),
                                   "--primes", "11", "--jobs", "1"])
        assert res.exit_code == 2
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert "cannot read family file" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("option", ["--max-w", "--jobs"])
    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_nonpositive_count_exits_2(self, runner, option, value):
        # --max-w -1 would slice ws[:-1]: the last w of every prime dropped
        args = ["verify-family", "intro_N5", "--primes", "13", "--max-w",
                "2", "--jobs", "1", option, value]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert option in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("ell", ["9", "3", "-5"])
    def test_bad_ell_exits_2(self, runner, ell):
        # skipping it would pass the grid with that ell unchecked
        res = runner.invoke(main, ["verify-family", "intro_N5", "--primes",
                                   "5", "--ell", f"5,{ell}", "--max-w", "1",
                                   "--jobs", "1"])
        assert res.exit_code == 2
        assert f"ell={ell} is not a prime >= 5" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("option,value,message", [
        ("--primes", "17,17", "p=17 is repeated"),
        ("--ell", "5,7,5", "ell=5 is repeated")])
    def test_repeated_prime_exits_2(self, runner, option, value, message):
        args = ["verify-family", "odd_1mod8", "--n", "1", "--primes", "17",
                "--max-w", "1", "--jobs", "1", option, value]
        res = runner.invoke(main, args)
        assert res.exit_code == 2
        assert message in res.stderr
        assert res.stdout == ""

    def test_bad_prime_list_exits_2(self, runner):
        res = runner.invoke(main, ["verify-family", "intro_N5", "--primes",
                                   "5,x", "--jobs", "1"])
        assert res.exit_code == 2
        assert "expected a comma-separated integer list, got '5,x'" \
            in res.stderr
        assert res.stdout == ""

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        assert_unwritable_out_exits_2(
            runner, ["verify-family", "intro_N5", "--primes", "5",
                     "--max-w", "1", "--jobs", "1"],
            tmp_path / "none" / "report.json")

    def test_unwritable_out_refused_before_work(self, runner, tmp_path,
                                                monkeypatch):
        assert_out_refused_before_work(
            runner, monkeypatch, "ffell.families.verify_profile",
            ["verify-family", "intro_N5", "--primes", "5", "--jobs", "1"],
            tmp_path / "none" / "report.json")

    def test_deterministic_json(self, runner):
        args = ["verify-family", "even_4mod8", "--n", "1", "--primes", "11",
                "--max-w", "2", "--jobs", "1"]
        a = runner.invoke(main, args)
        b = runner.invoke(main, args)
        assert a.stdout == b.stdout


class TestLemma92:
    def test_17_needs_second_witness(self, runner):
        res = runner.invoke(main, ["lemma92", "--ell", "17"])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)["results"][0]
        assert rec["certified"] and rec["witness"] == "m=3/F_7"
        assert rec["attempts"][0] == {"witness": "m=2/F_5",
                                      "failures": [36]}

    def test_5_handled_by_f7_witness(self, runner):
        res = runner.invoke(main, ["lemma92", "--ell", "5"])
        rec = json.loads(res.stdout)["results"][0]
        assert rec["certified"] and rec["witness"] == "m=3/F_7"

    def test_sweep_certifies_everything(self, runner):
        res = runner.invoke(main, ["lemma92", "--ell-max", "97"])
        assert res.exit_code == 0
        rec = json.loads(res.stdout)
        assert rec["exponents"] == [16, 20, 24, 28, 36]
        assert all(r["certified"] for r in rec["results"])

    def test_bad_ell_exits_2(self, runner):
        for ell in ("4", "9"):
            res = runner.invoke(main, ["lemma92", "--ell", ell])
            assert res.exit_code == 2
            assert f"ell={ell} is not a prime >= 5" in res.stderr

    def test_repeated_ell_exits_2(self, runner):
        # accepted, it would certify and print ell = 5 twice
        res = runner.invoke(main, ["lemma92", "--ell", "5,5"])
        assert res.exit_code == 2
        assert "ell=5 is repeated" in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize("ell_max", ["3", "-1"])
    def test_ell_max_below_5_exits_2(self, runner, ell_max):
        # an empty sweep would certify nothing and exit 0
        res = runner.invoke(main, ["lemma92", "--ell-max", ell_max])
        assert res.exit_code == 2
        assert "--ell-max" in res.stderr
        assert res.stdout == ""

    def test_unwritable_out_exits_2(self, runner, tmp_path):
        assert_unwritable_out_exits_2(runner, ["lemma92", "--ell", "5"],
                                      tmp_path)

    def test_unwritable_out_refused_before_work(self, runner, tmp_path,
                                                monkeypatch):
        assert_out_refused_before_work(
            runner, monkeypatch, "ffell.cli.global_invariants",
            ["lemma92", "--ell", "5"], tmp_path / "none" / "lemma92.json")

    def test_ell_beyond_int64_exits_2(self, runner):
        # a prime above 2^32: int64 matrix powers mod ell would overflow
        res = runner.invoke(main, ["lemma92", "--ell", "4294967311"])
        assert res.exit_code == 2
        assert "too large for exact int64" in res.output
        assert "Traceback" not in res.output


# -- parser fuzzing: whatever the input, an exit code 0, 1 or 2 and never a
# traceback (the small coefficient lists keep every curve's N <= 10)

_INTS = st.integers(-12, 12) | st.just(10 ** 20)
_JUNK = st.text(alphabet="pa2468=[], -0123456789x#\n;./e", max_size=12)


def _coeff_list(max_size):
    return st.lists(_INTS, max_size=max_size).map(
        lambda cs: "[" + ", ".join(map(str, cs)) + "]")


_CURVE_LINE = st.one_of(
    st.tuples(st.just("p"), st.sampled_from(
        ["5", "7", "4", "3", "-5", "x", "", "5.0", "1000003"]) | _JUNK),
    st.tuples(st.sampled_from(["a2", "a4", "a6"]), _coeff_list(2) | _JUNK),
    st.tuples(_JUNK, _JUNK)).map(lambda kv: f"{kv[0]}={kv[1]}")


@st.composite
def _curve_text(draw):
    """A well-formed curve file over F_5 or F_7 with extra or broken lines
    mixed in, or lines alone."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(_CURVE_LINE | _JUNK, max_size=6)))
    lines = [f"p={draw(st.sampled_from(['5', '7', ' 5 ']))}"]
    lines += [f"{k} = {draw(_coeff_list(2))}" for k in ("a2", "a4", "a6")]
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(_CURVE_LINE | _JUNK | st.just("# note")))
    return "\n".join(lines)


def _declaration_items():
    out = []
    for block in FAMILY_DECLARATIONS.split("\nid = ")[1:]:
        items = []
        for line in ("id = " + block).splitlines():
            line = line.split("#", 1)[0]
            items += [it.strip() for it in line.split(";") if it.strip()]
        out.append(items)
    return out


_FAMILY_KEYS = ["nmin", "nmax", "exclude", "h", "g", "f", "a2", "a4", "N",
                "gamma", "B", "place 0", "place inf", "place 1/0",
                "c_I0star", "c_E_power_of", "equal_c", "eps", "ell_squares",
                "waive", "condition", "h[even]", "place", "id"]
_FAMILY_VALUES = st.sampled_from([
    "[]", "[1]", "[0, 1]", "[1] / [0]", "[1/0]", "1", "0", "-1", "2n+1",
    "{I2} {2}", "{}", "{I0*}", "{X}", "h(i) : 1 .. 4n", "lit(i+1) : 0 .. 0",
    "g(i) : 1 .. n", "(h)", "(f(0))", "-(3 h)", "((", "yes", "maybe", "inf",
    "1/0", "x", "", "0, inf", "A", "C", "D", "2, 3"])


@st.composite
def _family_text(draw):
    """A built-in declaration with items dropped, rewritten or added."""
    items = list(draw(st.sampled_from(_declaration_items())))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(items) - 1))
        op = draw(st.integers(0, 3))
        if op == 0 and len(items) > 1:
            del items[i]
        elif op == 1:
            key = items[i].partition("=")[0]
            items[i] = f"{key}= {draw(_FAMILY_VALUES)}"
        elif op == 2:
            items.insert(i, draw(_JUNK))
        else:
            items.insert(i, f"{draw(st.sampled_from(_FAMILY_KEYS))} = "
                            f"{draw(_FAMILY_VALUES)}")
    return "\n".join(items)


_PLACE_SPEC = (st.text(alphabet="0123456789,-+ infoa.x", max_size=14)
               | st.lists(_INTS, min_size=1, max_size=6).map(
                   lambda cs: ",".join(map(str, cs))))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _invoke_clean(args, path=None, text=None):
    if path is not None:
        path.write_text(text)
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 1, 2), (args, text, res.output)
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        (args, text, res.exc_info)


class TestParserFuzz:
    @settings(max_examples=60, deadline=None)
    @given(text=_curve_text())
    def test_curve_file(self, fuzz_dir, text):
        path = fuzz_dir / "curve.txt"
        _invoke_clean(["lfunction", str(path)], path, text)

    @settings(max_examples=80, deadline=None)
    @given(text=_family_text())
    def test_family_file(self, fuzz_dir, text):
        path = fuzz_dir / "family.txt"
        _invoke_clean(["verify-family", str(path), "--primes", "5",
                       "--max-w", "1", "--jobs", "1"], path, text)

    @settings(max_examples=100, deadline=None)
    @given(spec=_PLACE_SPEC)
    def test_place_spec(self, fuzz_dir, spec):
        path = fuzz_dir / "place_curve.txt"
        _invoke_clean(["reduce", str(path), "--place", spec], path,
                      "p=5\na2=[]\na4=[2, 0, 3]\na6=[1, 1]\n")
