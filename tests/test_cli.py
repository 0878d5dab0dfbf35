"""Command-line interface: JSON/CSV output shapes, determinism, config
precedence, exit codes, and the built-in invariant suite."""

import hashlib
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sphelim import __version__, cli, sphere
from sphelim.cli import fmt_float, fmt_fraction, main, to_jsonable
from sphelim.rootdata import build_space, rho


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str):
    return json.loads(out.strip().splitlines()[-1])


class TestFormatting:
    def test_fraction_always_slash(self):
        assert fmt_fraction(Fraction(3, 8)) == "3/8"
        assert fmt_fraction(Fraction(2)) == "2/1"
        assert fmt_fraction(Fraction(-1, 3)) == "-1/3"

    def test_fraction_beyond_the_int_str_digit_limit(self):
        # more digits than str(int) accepts by default (4,300)
        assert fmt_fraction(Fraction(1, 10 ** 5000)) == "1/1" + "0" * 5000

    def test_float_seventeen_digits(self):
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(1.0) == "1"

    def test_to_jsonable(self):
        blob = to_jsonable({"a": Fraction(1, 2), "b": [Fraction(3), (1, 2)],
                            "c": {"d": None}})
        assert blob == {"a": "1/2", "b": ["3/1", [1, 2]], "c": {"d": None}}


class TestCatalog:
    def test_rows_round_trip(self, capsys):
        code, out, err = run_cli(capsys, "catalog")
        assert code == 0 and err == ""
        rows = json.loads(out)
        assert len(rows) == 13
        for row in rows:
            example = row["example"]
            params = {k: example[k] for k in ("p", "q", "n") if k in example}
            datum = build_space(row["family"], **params)
            assert datum.rank == example["rank"]
            assert datum.mult_middle == example["mult_middle"]
            assert [fmt_fraction(c) for c in rho(datum)] == example["rho"]

    def test_pinned_bytes(self, capsys):
        # taken while each catalog row still carried its own callables for
        # the rank and the multiplicities; the rows as data must not move it
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "04dbb9a0b4c664c58a1fed81e83458827f8a36fa6b4b9d7e428fbb32a4f588e6")


class TestCEval:
    def test_exact_values(self, capsys):
        code, out, err = run_cli(capsys, "c-eval", "--family", "rank1-real",
                                 "--q", "2", "--mu", "1", "--mu", "0")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0]["c_exact"] == "3/8"
        assert lines[0]["c_float"] == fmt_float(3 / 8)
        assert lines[1]["c_exact"] == "1/1"

    def test_short_mu_is_padded(self, capsys):
        code, out, _ = run_cli(capsys, "c-eval", "--family", "group-sp",
                               "--n", "4", "--mu", "1")
        assert code == 0
        line = json.loads(out)
        assert line["mu_xi"] == [1]
        full_code, full_out, _ = run_cli(capsys, "c-eval", "--family", "group-sp",
                                         "--n", "4", "--mu", "1,0,0,0")
        assert json.loads(full_out)["c_exact"] == line["c_exact"]

    def test_oracle_field_agrees(self, capsys):
        code, out, _ = run_cli(capsys, "c-eval", "--family", "grass-complex",
                               "--p", "2", "--q", "5", "--mu", "2,1", "--oracle")
        line = json.loads(out)
        exact = float(Fraction(line["c_exact"]))
        oracle = float(line["c_oracle_float"])
        assert abs(oracle - exact) / exact < 1e-9

    def test_log10_where_the_float_underflows(self, capsys):
        code, out, _ = run_cli(capsys, "c-eval", "--family", "group-sp",
                               "--n", "30", "--mu", ",".join(["12"] * 30))
        assert code == 0
        line = json.loads(out)
        value = Fraction(line["c_exact"])
        assert value.denominator.bit_length() == 3331
        assert line["c_float"] == "0"
        assert abs(float(line["c_log10"]) - -1002.549) < 1e-3

    def test_log10_field_matches_the_value(self, capsys):
        code, out, _ = run_cli(capsys, "c-eval", "--family", "rank1-real",
                               "--q", "2", "--mu", "1", "--mu", "0")
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert float(lines[0]["c_log10"]) == pytest.approx(math.log10(3 / 8), rel=1e-15)
        assert lines[1]["c_log10"] == "0"

    def test_rejected_weight_sets_error_and_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "c-eval", "--family", "rank1-real",
                               "--q", "3", "--mu", "-1")
        assert code == 1
        assert "not in the spherical dominant lattice" in json.loads(out)["error"]

    def test_empty_field_in_a_weight_exits_two(self, capsys):
        # "1,,0,1" is not read as the weight 1,0,1
        with pytest.raises(SystemExit) as exc:
            main(["c-eval", "--family", "group-sp", "--n", "3", "--mu", "1,,0,1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "error: argument --mu: bad integer list '1,,0,1'" in captured.err

    def test_bad_space_parameters_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "c-eval", "--family", "group-su",
                               "--p", "1", "--q", "2", "--mu", "1")
        assert code == 2
        assert "error:" in err


class TestLimitScan:
    def test_scan_report_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "seq.csv"
        code, out, _ = run_cli(capsys, "limit-scan", "--family", "rank1-real",
                               "--coeffs", "1", "--max-level", "150",
                               "--csv", str(csv_path))
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "PositiveLimit"
        assert abs(float(report["limit_estimate"]) - 0.25) < 1e-3
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "level,c_num,c_den,c_float"
        assert lines[1] == "1,1,1,1"
        assert lines[2] == f"2,3,8,{fmt_float(3 / 8)}"

    def test_zero_limit_scan(self, capsys):
        code, out, _ = run_cli(capsys, "limit-scan", "--family", "group-su",
                               "--coeffs", "1", "--max-level", "40")
        assert code == 0
        assert "level,c_num,c_den,c_float" in out
        report = last_json(out)
        assert report["verdict"] == "ZeroLimit"
        # c(n+1)/c(n) = (n+1)/(n+2): the step ratio tends to 1 with kappa 1
        assert report["evidence"]["certificate"]["ratio_limit"] == "1/1"
        assert report["evidence"]["certificate"]["kappa"] == "1/1"

    def test_constant_one_reads_the_weight(self, capsys):
        # c = 1 at the first level of sp-over-u, but the weight is not zero,
        # so one level decides ZeroLimit; c then falls to 3/8, 1/8, 5/128
        code, out, _ = run_cli(capsys, "limit-scan", "--family", "sp-over-u",
                               "--coeffs", "1", "--batch", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,1,1,1"
        report = last_json(out)
        assert report["verdict"] == "ZeroLimit"
        assert report["limit_estimate"] == 0.0
        assert "constant_one" not in report["evidence"]

    def test_byte_deterministic_reruns(self, capsys):
        argv = ["limit-scan", "--family", "grass-real", "--coeffs", "1,1",
                "--p", "2", "--max-level", "120"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        # a finite-rank scan decides at its first verdict, so the override
        # shows as the last level of the table
        cfg = tmp_path / "scan.cfg"
        cfg.write_text(
            "# chain under test\n"
            "family = rank1-real\n"
            "coeffs = 1\n"
            "max-level = 4\n"
        )
        code, out, _ = run_cli(capsys, "limit-scan", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[-2] == f"4,5,16,{fmt_float(5 / 16)}"
        assert last_json(out)["verdict"] == "PositiveLimit"
        code, out, _ = run_cli(capsys, "limit-scan", "--config", str(cfg),
                               "--max-level", "2")
        assert code == 0
        assert out.splitlines()[-2] == f"2,3,8,{fmt_float(3 / 8)}"
        assert last_json(out)["verdict"] == "PositiveLimit"

    def test_config_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for line in ("familly = rank1-real", "workers = 2", "positive_floor = 0",
                     "window = 5", "rtol = 1e-4", "zero_floor = 1/100"):
            cfg.write_text(f"family = rank1-real\ncoeffs = 1\n{line}\n")
            code, _, err = run_cli(capsys, "limit-scan", "--config", str(cfg))
            assert code == 2
            assert "unknown key" in err

    def test_config_line_without_equals(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("family = rank1-real\n\n# comment\ncoeffs 1\n")
        code, out, err = run_cli(capsys, "limit-scan", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err == f"error: {cfg}:4: expected key=value\n"

    @pytest.mark.parametrize("line", ["coeffs = a,b", "coeffs = ,", "coeffs = 1,,2",
                                      "coeffs = 1,"])
    def test_config_bad_value(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"family = group-su\n{line}\n")
        code, out, err = run_cli(capsys, "limit-scan", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {cfg}:2: bad ")

    @pytest.mark.parametrize("flags", [["--coeffs", "a,b"], ["--coeffs", ","],
                                       ["--coeffs", "1,,2"], ["--coeffs", "1,"]])
    def test_bad_flag_value(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["limit-scan", "--family", "group-su", *flags])
        assert exc.value.code == 2
        assert f"error: argument {flags[-2]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--workers", "--positive-floor", "--window", "--rtol",
                                      "--zero-floor"])
    def test_removed_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["limit-scan", "--family", "rank1-real", "--coeffs", "1", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_batch_below_one_exits_two(self, capsys, batch):
        code, out, err = run_cli(capsys, "limit-scan", "--family", "rank1-real",
                                 "--coeffs", "1", "--batch", batch)
        assert code == 2 and out == ""
        assert "batch must be at least 1" in err

    def test_no_default_cap_above_level_200(self, capsys):
        # without --max-level the scan is not capped: a base level of 201
        # scans its batch of 25 levels, and a batch of 300 prints 300 levels
        code, out, _ = run_cli(capsys, "limit-scan", "--family", "group-su",
                               "--coeffs", ",".join(["1"] * 201))
        assert code == 0
        levels = [int(line.split(",")[0]) for line in out.splitlines()[1:-1]]
        assert levels == list(range(201, 226))
        code, out, _ = run_cli(capsys, "limit-scan", "--family", "group-su",
                               "--coeffs", "1", "--batch", "300")
        assert code == 0
        levels = [int(line.split(",")[0]) for line in out.splitlines()[1:-1]]
        assert levels == list(range(1, 301))
        assert last_json(out)["verdict"] == "ZeroLimit"

    @pytest.mark.parametrize("argv, digest", [
        ("rank1-real --coeffs 1 --max-level 150 --batch 7",
         "6247e459018d1a22f3c772ff925fc6c63c27e19742e326ccc1352b17650870c6"),
        ("group-sp --coeffs 1,1 --max-level 60",
         "ce54ef25a6c7835fd1c6c79a1f5f2be184072a04f379778454790fc439171fda"),
        ("grass-quaternion --p 3 --coeffs 1,1,1 --max-level 2000",
         "ed43336be53db0398d11704d5da95c520f99e448dca19d80a821716cc1ef11d8"),
    ])
    def test_pinned_bytes(self, capsys, argv, digest):
        # stdout is documented as byte-deterministic.  The two finite-rank
        # digests were taken when the verdict came to read the exact limit
        # and so to decide at the first batch (levels 1..7 and 3..27,
        # evidence["limit"] 1/4 and 5/172032).  The group-sp digest was
        # re-pinned when the certificate came to read the step-ratio table:
        # its table and verdict are unchanged, and its evidence carries that
        # certificate (limit 1/16, bound 17/32 from level 44) and no floor.
        # None of them may move
        code, out, _ = run_cli(capsys, "limit-scan", "--family", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_limit_below_the_float_range(self, capsys):
        # the exact limit 4^-600 underflows to 0.0 as a float; the verdict
        # and the exact evidence still stand
        code, out, _ = run_cli(capsys, "limit-scan", "--family", "rank1-real",
                               "--coeffs", "600")
        assert code == 0
        report = last_json(out)
        assert report["verdict"] == "PositiveLimit"
        assert report["limit_estimate"] == 0.0
        assert report["evidence"]["limit"] == fmt_fraction(Fraction(1, 4 ** 600))

    def test_unwritable_csv_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "limit-scan", "--family", "rank1-real",
                                 "--coeffs", "1", "--max-level", "5",
                                 "--csv", str(tmp_path / "missing" / "seq.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_missing_required_options(self, capsys):
        code, _, err = run_cli(capsys, "limit-scan", "--family", "group-su")
        assert code == 2
        assert "needs family and coeffs" in err

    def test_invalid_system_reported(self, capsys):
        code, _, err = run_cli(capsys, "limit-scan", "--family", "grass-real",
                               "--coeffs", "1,1")
        assert code == 2
        assert "needs fixed_p" in err


class TestSphereVerify:
    def test_report_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "grid.csv"
        code, out, _ = run_cli(capsys, "sphere-verify", "--n", "5", "--k", "2",
                               "--samples", "2000", "--csv", str(csv_path))
        assert code == 0
        report = json.loads(out)
        assert report["max_abs_ode_residual"] < 1e-8
        assert report["mc"]["zscore"] <= 4.0
        assert report["mc"]["samples"] == 2000
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,p,t_pow_k,residual"
        assert len(lines) == 102  # header + 101 grid points

    def test_unwritable_csv_exits_two(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "sphere-verify", "--n", "5", "--k", "2",
                                 "--samples", "200",
                                 "--csv", str(tmp_path / "missing" / "grid.csv"))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    def test_bad_arguments(self, capsys):
        code, _, err = run_cli(capsys, "sphere-verify", "--n", "1", "--k", "2")
        assert code == 2
        assert "at least 2" in err

    @pytest.mark.parametrize("flags, message", [
        (["--samples", "0"], "at least one sample"),
        (["--samples", "1"], "one sample has no standard error"),
        (["--grid", "0"], "grid must be at least 1"),
        (["--theta", "nan"], "not orthogonal"),
        (["--theta-y", "nan"], "not orthogonal"),
    ])
    def test_rejected_before_any_output(self, capsys, tmp_path, flags, message):
        csv_path = tmp_path / "grid.csv"
        code, out, err = run_cli(capsys, "sphere-verify", "--n", "5", "--k", "2",
                                 "--csv", str(csv_path), *flags)
        assert code == 2 and out == "" and not csv_path.exists()
        assert err.startswith("error: ") and message in err


class TestMCCheck:
    def test_pass_and_fail_exit_codes(self, capsys):
        code, out, _ = run_cli(capsys, "mc-check", "--n", "3", "--k", "0",
                               "--samples", "500")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True and report["zscore"] == 0.0
        code, out, _ = run_cli(capsys, "mc-check", "--n", "3", "--k", "1",
                               "--samples", "500", "--max-z", "-1")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_constant_sample_is_exact(self, capsys):
        # --theta-y 0 makes y the identity, so every sample equals the target
        code, out, _ = run_cli(capsys, "mc-check", "--n", "3", "--k", "3", "--theta-y", "0")
        assert code == 0
        report = json.loads(out)
        assert report["estimate"] == report["target"]
        assert report["std_error"] == 0.0 and report["zscore"] == 0.0

    def test_full_turn_passes(self, capsys):
        # y is the identity up to rounding: the samples agree to rounding
        code, out, _ = run_cli(capsys, "mc-check", "--n", "3", "--k", "2",
                               "--theta-y", "6.283185307179586")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True and report["zscore"] == 0.0

    @pytest.mark.parametrize("argv, message", [
        (["--n", "-3", "--k", "1", "--haar-xy"], "need dim >= 1"),
        (["--n", "3", "--k", "2", "--theta", "nan"], "not orthogonal"),
        (["--n", "3", "--k", "2", "--samples", "0"], "at least one sample"),
        (["--n", "3", "--k", "2", "--samples", "1"], "one sample has no standard error"),
        (["--n", "3", "--k", "2", "--max-z", "nan"], "max-z must be a finite number"),
        (["--n", "3", "--k", "2", "--max-z", "inf"], "max-z must be a finite number"),
        (["--n", "3", "--k", "1", "--samples", "100", "--seed", "-1"],
         "seed must be a nonnegative integer, got -1"),
        (["--n", "3", "--k", "1", "--samples", "100", "--seed", "-1", "--haar-xy"],
         "seed must be a nonnegative integer, got -1"),
    ])
    def test_bad_input_exits_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "mc-check", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_haar_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, "mc-check", "--n", "4", "--k", "2",
                               "--samples", "20000", "--haar-xy")
        assert code == 0
        assert json.loads(out)["zscore"] <= 4.0


class TestTopLevel:
    def test_self_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "--check")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("ok - ") >= 10

    def test_self_check_reports_every_failure(self, capsys, monkeypatch):
        ran = []

        def check(name, error=None):
            def run():
                ran.append(name)
                if error is not None:
                    raise error
            return name, run

        monkeypatch.setattr(cli, "_self_checks", lambda: [
            check("first"), check("broken", AssertionError("5/128 != 1/2")),
            check("last"), check("also broken", ArithmeticError("overflow"))])
        code, out, _ = run_cli(capsys, "--check")
        assert code == 1
        assert ran == ["first", "broken", "last", "also broken"]
        assert out.splitlines() == [
            "ok - first",
            "FAIL - broken: AssertionError('5/128 != 1/2')",
            "ok - last",
            "FAIL - also broken: ArithmeticError('overflow')",
            "self-check: FAIL (2 failures)",
        ]

    @pytest.mark.parametrize("error", [ArithmeticError("overflow in the sampler"),
                                       OSError("sampler state lost")],
                             ids=["ArithmeticError", "OSError"])
    @pytest.mark.parametrize("command", ["sphere-verify", "mc-check"])
    def test_handler_error_exits_two(self, capsys, monkeypatch, command, error):
        # main is the one exit for a handler's error, whatever the command
        def sampler(*args):
            raise error

        monkeypatch.setattr(sphere, "mc_functional_equation", sampler)
        code, out, err = run_cli(capsys, command, "--n", "3", "--k", "2",
                                 "--samples", "200")
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_no_subcommand_prints_help(self, capsys):
        code, out, _ = run_cli(capsys)
        assert code == 2
        assert "usage:" in out

    @pytest.mark.skipif(shutil.which("sphelim") is None,
                        reason="no sphelim executable on PATH: the package is not installed")
    def test_console_script_installed(self):
        proc = subprocess.run(["sphelim", "--version"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert __version__ in proc.stdout

    def test_declared_console_script_resolves(self, capsys):
        """The pyproject.toml script entry point runs --version, installed or not."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["sphelim"]
        module_name, _, attr = target.partition(":")
        entry = getattr(importlib.import_module(module_name), attr)
        with pytest.raises(SystemExit) as exc:
            entry(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out


# Runs each step in one fresh interpreter and prints, per step, the exit
# code and whether NumPy has been imported by then.
_BOUNDARY_SCRIPT = """
import contextlib, io, json, sys
steps = []
import sphelim
steps.append(("import sphelim", None, "numpy" in sys.modules))
from sphelim import cli
for argv in ARGVS:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    steps.append((" ".join(argv), code, "numpy" in sys.modules))
print(json.dumps(steps))
"""


def _fresh_steps(*argvs):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = _BOUNDARY_SCRIPT.replace("ARGVS", repr([list(argv) for argv in argvs]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestNumpyBoundary:
    """NumPy is loaded by ``sphelim.sphere`` alone, so only the sphere
    commands load it; ``import sphelim`` and the exact commands do not."""

    def test_exact_commands_do_not_load_numpy(self):
        steps = _fresh_steps(["catalog"],
                             ["c-eval", "--family", "group-sp", "--n", "3", "--mu", "1,0,1",
                              "--oracle"],
                             ["limit-scan", "--family", "group-su", "--coeffs", "1",
                              "--max-level", "20"],
                             ["--version"])
        assert [(code, loaded) for _, code, loaded in steps] == [(None, False)] + [(0, False)] * 4

    def test_mc_check_loads_numpy(self):
        steps = _fresh_steps(["mc-check", "--n", "3", "--k", "2", "--samples", "200"])
        assert [(code, loaded) for _, code, loaded in steps] == [(None, False), (0, True)]
