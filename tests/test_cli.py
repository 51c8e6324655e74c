"""End-to-end command line tests (in-process via main(argv))."""

import json
from pathlib import Path

import pytest

from turanstab import harness, sequences
from turanstab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGen:
    def test_bell_text(self, capsys):
        code, out = run(capsys, "gen", "--family", "bell", "--k", "3")
        assert code == 0
        assert "[0,1,3,1]" in out

    def test_json(self, capsys):
        code, out = run(capsys, "gen", "--family", "hermite", "--k", "2",
                        "--format", "json")
        assert code == 0
        assert json.loads(out) == ["1", "0,2", "-2,0,4"]

    def test_jensen_requires_gamma(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "--family", "jensen", "--k", "2"])

    def test_type_a_params(self, capsys):
        code, out = run(capsys, "gen", "--family", "type_a",
                        "--params", "1,0,1,1,1", "--k", "3",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)[-1] == "0,1,3,1"

    def test_type_h_params(self, capsys):
        code, out = run(capsys, "gen", "--family", "type_h",
                        "--params", "2,0,-1", "--k", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["1", "0,2", "-2,0,4"]


class TestTuran:
    def test_plain(self, capsys):
        code, out = run(capsys, "turan", "--family", "bell", "--k", "0",
                        "--format", "json")
        assert code == 0
        assert json.loads(out)["coeffs"] == "0,-1"

    def test_extended_reflect_shift(self, capsys):
        code, out = run(capsys, "turan", "--family", "laguerre", "--k", "1",
                        "--n", "2", "--reflect", "--shift", "1/2",
                        "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and payload["k"] == 1

    # exact outputs, so that the normalised denominators of --format json
    # are pinned
    @pytest.mark.parametrize("argv, want", [
        (("--family", "laguerre", "--k", "3", "--n", "2", "--reflect",
          "--shift", "1/3"),
         {"family": "laguerre", "k": 3, "n": 2, "coeffs":
          "6804113/35712835200,2983811/1190427840,2300413/176359680,"
          "746299/22044960,4795/104976,2311/72900,5887/466560,793/272160,"
          "47/120960,1/36288,1/1209600"}),
        (("--family", "jensen", "--params", "1/2,2/3,3/4,4/5,5/6,6/7",
          "--k", "1", "--n", "2"),
         {"family": "jensen", "k": 1, "n": 2,
          "coeffs": "0,0,0,0,-7/2880,-1/315,-1/1400"}),
    ])
    def test_golden_json(self, capsys, argv, want):
        code, out = run(capsys, "turan", *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(want) + "\n"


class TestStability:
    def test_stable(self, capsys):
        code, out = run(capsys, "stability", "--poly", "2,3,1")
        assert code == 0
        assert out.strip() == "weakly-hurwitz-stable"

    def test_unstable(self, capsys):
        code, out = run(capsys, "stability", "--poly", "0,-8,-2,0,1")
        assert code == 0
        assert out.strip() == "unstable"

    def test_certificate(self, capsys):
        code, out = run(capsys, "stability", "--poly", "1,0,1", "--certificate")
        assert code == 0
        cert = json.loads(out)
        assert cert["verdict"] is True
        assert cert["gcd_degree"] == 2

    def test_zero_rejected(self):
        with pytest.raises(SystemExit):
            main(["stability", "--poly", "0"])


class TestCampaign:
    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "rep.jsonl"
        code, out = run(capsys, "campaign", "--family", "bell",
                        "--k-max", "3", "--n-max", "2", "--out", str(out_path))
        assert code == 0
        assert "0 flagged" in out
        lines = out_path.read_text().splitlines()
        assert len(lines) == 4 * 2
        assert all(json.loads(l)["verdict"] for l in lines)

    def test_flagged_cells_exit_nonzero(self, capsys, tmp_path):
        # reflecting the Bell expressions moves zeros into the right half-plane
        out_path = tmp_path / "rep.jsonl"
        code, out = run(capsys, "campaign", "--family", "bell", "--reflect",
                        "--k-max", "2", "--n-max", "1", "--out", str(out_path))
        assert code == 1
        assert "COUNTEREXAMPLE CANDIDATE" in out

    def test_tier_guard(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--family", "bell", "--k-max", "40",
                  "--out", str(tmp_path / "r.jsonl")])
        assert exc.value.code == 2


class TestVerify:
    def test_fisk(self, capsys):
        code, out = run(capsys, "verify", "--suite", "fisk")
        assert code == 0
        assert "fisk: PASS" in out

    def test_legendre(self, capsys):
        code, out = run(capsys, "verify", "--suite", "legendre")
        assert code == 0
        assert "legendre: PASS" in out

    def test_jensen_probe_lines(self, capsys):
        code, out = run(capsys, "verify", "--suite", "jensen")
        assert code == 0
        assert "jensen: PASS" in out
        assert "jensen probe (open question)" in out

    def test_seed_flag_accepted(self, capsys):
        code, out = run(capsys, "--seed", "123", "verify", "--suite", "wronskian")
        assert code == 0
        assert "wronskian: PASS" in out

    def test_all_matches_golden(self, capsys):
        # the golden file holds each command line after "$ " and its stdout
        text = ""
        for argv in (["verify", "--suite", "all"],
                     ["--seed", "1", "verify", "--suite", "all"]):
            code, out = run(capsys, *argv)
            assert code == 0
            text += f"$ turanstab {' '.join(argv)}\n{out}"
        assert text == (GOLDEN / "verify-all.txt").read_text(encoding="utf-8")


class TestBadInput:
    """Bad input ends in one stderr line and exit code 2, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["stability", "--poly", "1,x"],
        ["turan", "--family", "bell", "--k", "1", "--shift", "abc"],
        ["gen", "--family", "bell", "--k", "-1"],
        ["gen", "--family", "type_a", "--params", "1,0,1", "--k", "3"],
        ["campaign", "--family", "bell", "--k-max", "2",
         "--out", "/nonexistent/x.jsonl"],
        ["campaign", "--family", "bell", "--k-max", "2", "--out", "."],
        ["stability", "--poly", "1/0"],
        ["turan", "--family", "bell", "--k", "1", "--shift", "1/0"],
        ["gen", "--family", "jensen", "--params", "1/0", "--k", "0"],
        ["gen", "--family", "type_h", "--params", "2,0,1/0", "--k", "1"],
        ["gen", "--family", "type_h", "--params", "2,0", "--k", "1"],
        ["gen", "--family", "type_a", "--params", "1,0,-1", "--k", "1"],
        ["gen", "--family", "bell", "--params", "1,2", "--k", "1"],
        ["gen", "--family", "jensen", "--params", "1,x", "--k", "1"],
        ["turan", "--family", "jensen", "--params", "1,1", "--k", "0"],
        ["campaign", "--family", "bell", "--k-max", "30", "--out", "r.jsonl"],
        ["campaign", "--family", "bell", "--k-max", "2", "--jobs", "0",
         "--out", "r.jsonl"],
        # too large to index: Bell's c list of length k overflows at once
        ["gen", "--family", "bell", "--k", str(10 ** 20)],
        ["turan", "--family", "bell", "--k", "1", "--n", str(10 ** 20)],
    ])
    def test_one_line_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("turanstab: error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["gen", "turan"])
    def test_negative_k_names_the_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--family", "bell", "--k", "-1"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "turanstab: error: --k must be >= 0\n"

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_nonpositive_n_names_the_flag(self, capsys, monkeypatch, n):
        def fail(*args, **kwargs):
            raise AssertionError("the sequence was generated")

        monkeypatch.setattr(sequences, "generate", fail)
        with pytest.raises(SystemExit) as exc:
            main(["turan", "--family", "bell", "--k", "1", "--n", n])
        assert exc.value.code == 2
        assert capsys.readouterr().err == "turanstab: error: --n must be >= 1\n"

    @pytest.mark.parametrize("argv, message", [
        (["gen", "--family", "bell", "--params", "1,2", "--k", "1"],
         "bell takes no parameters; got 2"),
        (["gen", "--family", "jensen", "--k", "0"],
         "jensen takes parameters gamma0,...; got 0"),
        (["gen", "--family", "type_a", "--params", "0,0,1", "--k", "1"],
         "type_a requires a != 0"),
        (["gen", "--family", "type_h", "--params", "2,0", "--k", "1"],
         "type_h takes parameters a,b,c; got 2"),
        (["gen", "--family", "type_h", "--params", "2,0,0", "--k", "1"],
         "type_h requires c != 0"),
    ])
    def test_family_parameters(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"turanstab: error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--k-max", "30"], "--k-max must be in 0..25 at --tier desk; got 30"),
        (["--k-max", "-1"], "--k-max must be in 0..25 at --tier desk; got -1"),
        (["--k-max", "2", "--n-max", "0"],
         "--n-max must be in 1..3 at --tier desk; got 0"),
        (["--k-max", "2", "--n-max", "6", "--tier", "full"],
         "--n-max must be in 1..5 at --tier full; got 6"),
        (["--k-max", "2", "--jobs", "0"], "--jobs must be >= 1; got 0"),
    ])
    def test_grid_flags_name_the_flag_and_range(
        self, capsys, monkeypatch, tmp_path, flags, message
    ):
        def fail(*args, **kwargs):
            raise AssertionError("the grid was computed")

        monkeypatch.setattr(harness, "run_campaign", fail)
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--family", "bell", *flags,
                  "--out", str(tmp_path / "r.jsonl")])
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"turanstab: error: {message}\n"

    @pytest.mark.parametrize("argv, flag, entry", [
        (["stability", "--poly", "1,x"], "--poly", "x"),
        (["stability", "--poly", "1,0,1/0"], "--poly", "1/0"),
        (["turan", "--family", "bell", "--k", "1", "--shift", "abc"],
         "--shift", "abc"),
        (["campaign", "--family", "bell", "--k-max", "2", "--shift", "1/0"],
         "--shift", "1/0"),
        (["gen", "--family", "jensen", "--params", "1,x", "--k", "1"],
         "--params", "x"),
        (["campaign", "--family", "type_a", "--params", "1,0,1/0", "--k-max",
          "0"], "--params", "1/0"),
    ])
    def test_unparsable_rational_names_flag_and_entry(
        self, capsys, monkeypatch, tmp_path, argv, flag, entry
    ):
        def fail(*args, **kwargs):
            raise AssertionError("the grid was computed")

        monkeypatch.setattr(harness, "run_campaign", fail)
        if argv[0] == "campaign":
            argv = [*argv, "--out", str(tmp_path / "r.jsonl")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            f"turanstab: error: {flag}: {entry!r} is not a rational number\n"
        )

    def test_short_gamma_says_how_many(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "jensen", "--params", "1,2", "--k", "5"])
        assert exc.value.code == 2
        assert capsys.readouterr().err == (
            "turanstab: error: jensen needs 6 gamma values (gamma0..gamma5); got 2\n"
        )

    def test_campaign_checks_out_dir_before_computing(self, monkeypatch, tmp_path):
        def fail(*args, **kwargs):
            raise AssertionError("the grid was computed")

        monkeypatch.setattr(harness, "run_campaign", fail)
        for out in (tmp_path / "missing" / "r.jsonl", tmp_path):
            with pytest.raises(SystemExit) as exc:
                main(["campaign", "--family", "bell", "--k-max", "2",
                      "--out", str(out)])
            assert exc.value.code == 2
