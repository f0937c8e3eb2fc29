import json

import pytest
from click.testing import CliRunner

from ffell.algebra import Poly, PrimeField
from ffell.cli import main


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

    def test_missing_file_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["reduce", str(tmp_path / "none.txt"),
                                   "--place", "1"])
        assert res.exit_code == 2

    def test_bad_place_exits_2(self, runner, tmp_path):
        res = runner.invoke(main, ["reduce", intro_curve_file(tmp_path),
                                   "--place", "zzz"])
        assert res.exit_code == 2


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

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "L.json"
        res = runner.invoke(main, ["lfunction", "--out", str(out),
                                   intro_curve_file(tmp_path)])
        assert res.exit_code == 0
        assert json.loads(out.read_text())["invariants"]["N"] == 5


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

    def test_unknown_family_exits_2(self, runner):
        res = runner.invoke(main, ["verify-family", "nope", "--primes", "5"])
        assert res.exit_code == 2

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
        res = runner.invoke(main, ["lemma92", "--ell", "4"])
        assert res.exit_code == 2
