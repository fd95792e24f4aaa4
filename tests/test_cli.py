"""CLI behavior: tables, formats, exit codes, validation messages."""

import atexit
import contextlib
import csv
import gc
import io
import json
import math
import os
import shlex
import struct
import subprocess
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import bihilfer
from bihilfer import KilbasSaigoParams, kilbas_saigo
from bihilfer.cli import _linspace, _open_out, _write_table, cli, main


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    stdout: str
    stderr: str
    exception: "SystemExit | None"  # how the command ended, None if it returned


class _Capture(io.StringIO):
    """One captured stream; each write also goes to the shared `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


class CliRunner:
    """Runs the CLI in this process with stdout and stderr captured. Any
    exception but SystemExit propagates, so a traceback fails the test."""

    def invoke(self, command, args):
        both = io.StringIO()
        out, err = _Capture(both), _Capture(both)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                command.main(args)
            except SystemExit as exc:
                exception = exc
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        return Result(code, both.getvalue(), out.getvalue(), err.getvalue(), exception)


@pytest.fixture
def runner():
    return CliRunner()


def parse_csv(text):
    """Returns (meta, header, rows) from CSV output with # metadata lines."""
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line.strip():
            data_lines.append(line)
    reader = csv.reader(io.StringIO("\n".join(data_lines)))
    header = next(reader)
    return meta, header, list(reader)


class TestEvalKs:
    def test_exponential_point(self, runner):
        result = runner.invoke(cli, ["eval-ks", "--alpha", "1", "--m", "1", "--l", "0", "--z", "1"])
        assert result.exit_code == 0
        _, header, rows = parse_csv(result.output)
        assert header == ["z", "re_value", "im_value", "terms_used", "converged"]
        assert abs(float(rows[0][1]) - 2.718281828459045) < 1e-9
        assert float(rows[0][2]) == 0.0
        assert rows[0][4] == "True"

    def test_zero_point(self, runner):
        result = runner.invoke(cli, ["eval-ks", "--alpha", "1", "--m", "1", "--l", "0", "--z", "0"])
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert float(rows[0][1]) == 1.0
        assert int(rows[0][3]) == 1

    def test_erfc_point(self, runner):
        result = runner.invoke(
            cli, ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z", "-1"]
        )
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert abs(float(rows[0][1]) - 0.4275836) < 1e-6

    def test_grid(self, runner):
        result = runner.invoke(
            cli,
            ["eval-ks", "--alpha", "0.8", "--m", "1.5", "--l", "0.2",
             "--z-min", "-1", "--z-max", "1", "--z-points", "5"],
        )
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert len(rows) == 5
        assert [float(r[0]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]

    def test_gamma_past_the_double_range(self, runner):
        # lnGamma(alpha + 1) overflows at alpha = 1e308: c_1 is zero, and the
        # row is c_0 = 1, converged, not an OverflowError traceback.
        result = runner.invoke(cli, ["eval-ks", "--alpha", "1e308", "--m", "1", "--l", "0",
                                     "--z", "-1"])
        assert result.exit_code == 0, result.output
        _, _, rows = parse_csv(result.output)
        assert rows == [["-1.0", "1.0", "0.0", "4", "True"]]

    def test_invalid_params_exit_1(self, runner):
        result = runner.invoke(cli, ["eval-ks", "--alpha", "-1", "--m", "1", "--l", "0", "--z", "1"])
        assert result.exit_code == 1
        assert "alpha > 0" in result.output

    def test_missing_grid_exit_1(self, runner):
        result = runner.invoke(cli, ["eval-ks", "--alpha", "1", "--m", "1", "--l", "0"])
        assert result.exit_code == 1

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_out_of_range_option_exit_1(self, runner, points):
        result = runner.invoke(
            cli, ["eval-ks", "--alpha", "1", "--m", "1", "--l", "0",
                  "--z-min", "-1", "--z-max", "1", "--z-points", points],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "error: --z-points must be >= 1" in result.output

    @pytest.mark.parametrize(
        "args,message",
        [
            (["--alpha", "inf", "--m", "1", "--l", "1", "--z", "1"], "must be finite"),
            (["--alpha", "1", "--m", "inf", "--l", "1", "--z", "1"], "must be finite"),
            (["--alpha", "1", "--m", "1", "--l", "inf", "--z", "1"], "must be finite"),
            (["--alpha", "1", "--m", "1", "--l", "0", "--z", "nan"], "--z must be finite"),
            (["--alpha", "1", "--m", "1", "--l", "0", "--z", "1", "--z", "-inf"],
             "--z must be finite"),
            (["--alpha", "1", "--m", "1", "--l", "0", "--z-min", "nan", "--z-max", "1"],
             "--z-min must be finite"),
            (["--alpha", "1", "--m", "1", "--l", "0", "--z-min", "0", "--z-max", "inf"],
             "--z-max must be finite"),
        ],
        ids=["alpha-inf", "m-inf", "l-inf", "z-nan", "z-minus-inf", "z-min-nan", "z-max-inf"],
    )
    def test_non_finite_input_exit_1(self, runner, args, message):
        result = runner.invoke(cli, ["eval-ks", *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "error: " in result.output and message in result.output

    def test_nonconvergence_exit_3(self, runner):
        result = runner.invoke(
            cli, ["eval-ks", "--alpha", "0.3", "--m", "1", "--l", "0", "--z", "50"]
        )
        assert result.exit_code == 3
        assert "converge" in result.output

    @pytest.mark.parametrize(
        "grid", [["--z-min", "-2"], ["--z-max", "2"], ["--z-min", "-2", "--z-max", "2"]],
        ids=["z-min", "z-max", "both"],
    )
    def test_points_and_grid_together_exit_1(self, runner, grid):
        # The --z rows alone must not stand in silently for the requested grid.
        result = runner.invoke(
            cli, ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z", "1", *grid]
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "error: give --z values or a --z-min/--z-max grid, not both" in result.output

    @pytest.mark.parametrize(
        "start,stop,num",
        [(2.5, -1.0, 1), (-3.0, 1.0, 2), (3.0, -2.0, 7), (2.0, 2.0, 5), (-0.0, 0.0, 3),
         (0.0, -0.0, 3), (-0.0, -0.0, 1), (0.0, 5e-324, 3), (0.0, 1e-322, 401), (-8.0, 4.0, 401)],
        ids=["one", "two", "descending", "equal", "zeros", "zeros-reversed", "minus-zero",
             "subnormal-step-to-zero", "subnormal-step", "benchmark"],
    )
    def test_z_grid_is_numpy_linspace(self, start, stop, num):
        # Built in Python, so that eval-ks loads no numpy; bit for bit.
        def bits(zs):
            return [struct.pack("<d", z) for z in zs]

        assert bits(_linspace(start, stop, num)) == bits(np.linspace(start, stop, num).tolist())

    @pytest.mark.parametrize("span", [("-1.7e308", "1.7e308"), ("1e308", "-1e308")])
    def test_overflowing_span_exit_1(self, runner, span):
        # numpy.linspace warned twice and gave the rows z = nan and inf, and
        # the command exited 3.
        args = ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z-min", span[0],
                "--z-max", span[1], "--z-points", "3"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stdout == ""
        assert result.stderr.startswith("error: the span from --z-min to --z-max must be finite")

    # (alpha, l, arguments for the z column, the z column); m = 1 throughout.
    TABLES = {
        # The benchmark's table.
        "benchmark": (0.5, 0.0, ["--z-min", "-8", "--z-max", "4", "--z-points", "401"],
                      np.linspace(-8.0, 4.0, 401).tolist()),
        # Where the series cancels and stops unconverged: the contour rule.
        "contour-negative": (0.3, 0.0, ["--z-min", "-50", "--z-max", "-0.25", "--z-points", "201"],
                             np.linspace(-50.0, -0.25, 201).tolist()),
        # Off the rule's pole-free sector, where the series took up to 594
        # terms: the rule with the pole's correction.
        "contour-positive": (0.3, 0.0, ["--z-min", "0.25", "--z-max", "4", "--z-points", "201"],
                             np.linspace(0.25, 4.0, 201).tolist()),
        # Every kind of row: the rule in the sector at -3, off it at 3, 0.5
        # and 4, the series at both zeros.
        "every-path": (0.3, 0.0, [arg for z in ("-3", "0", "3", "0.5", "-0.0", "4")
                                  for arg in ("--z", z)], [-3.0, 0.0, 3.0, 0.5, -0.0, 4.0]),
        # Past the rule on the positive axis: 1,500-1,750 same-signed terms
        # of the series (test_special_functions holds them to mpmath).
        "positive-axis": (0.5, 0.0, ["--z", "24", "--z", "26"], [24.0, 26.0]),
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", list(TABLES))
    def test_grid_table_equals_scalar_evaluation(self, runner, name, fmt):
        # An eval-ks table against kilbas_saigo one point at a time: the same
        # bits, terms and flags, with warnings as errors.
        alpha, l, grid, zs = self.TABLES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(
                cli, ["eval-ks", "--alpha", str(alpha), "--m", "1", "--l", str(l), *grid,
                      "--format", fmt],
            )
        assert result.exit_code == 0, result.output
        if fmt == "csv":
            _, _, rows = parse_csv(result.output)
            table = [(float(z), complex(float(re), float(im)), int(terms), conv == "True")
                     for z, re, im, terms, conv in rows]
        else:
            table = [(r["z"], complex(r["re_value"], r["im_value"]), r["terms_used"],
                      r["converged"]) for r in json.loads(result.output)["rows"]]
        assert [row[0] for row in table] == zs
        params = KilbasSaigoParams(alpha, 1.0, l)
        expected = []
        for z in zs:
            report = kilbas_saigo(params, z)
            expected.append((z, report.value, report.terms_used, report.converged))
        assert [(repr(z), repr(v), n, c) for z, v, n, c in table] == [
            (repr(z), repr(v), n, c) for z, v, n, c in expected
        ]


class TestFundamental:
    ARGS = ["fundamental", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1",
            "--m", "0", "--lambda-re", "1", "--points", "4"]

    def test_caputo_values_and_header(self, runner):
        result = runner.invoke(cli, self.ARGS)
        assert result.exit_code == 0
        meta, header, rows = parse_csv(result.output)
        assert header == ["y", "re_u", "im_u"]
        assert float(meta["gamma"]) == 0.5
        assert float(meta["a"]) == 0.5
        assert float(meta["b_s"]) == 0.0
        assert float(meta["ks_alpha"]) == 0.5
        assert float(meta["ks_m"]) == 1.0
        assert float(meta["ks_l"]) == 0.0
        assert float(rows[-1][0]) == 1.0
        assert abs(float(rows[-1][1]) - 5.0089800) < 1e-6

    def test_lambda_zero_gives_pure_power(self, runner):
        args = ["fundamental", "--alpha", "0.5", "--beta", "0.5", "--mu", "0", "--i", "1",
                "--m", "0", "--lambda-re", "0", "--points", "4"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        meta, _, rows = parse_csv(result.output)
        assert float(meta["b_s"]) == -0.5
        for row in rows:
            y, re_u = float(row[0]), float(row[1])
            assert y > 0.0
            assert abs(re_u - y**-0.5) < 1e-12

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--s", "1"], "branch s must lie in 0..0"),
            (["--points", "0"], "--points must be >= 1"),
            (["--y-max", "-1"], "--y-max must be positive"),
            (["--tol", "inf"], "--tol must lie in (0, 1)"),
            (["--tol", "0"], "--tol must lie in (0, 1)"),
            (["--tol", "-1"], "--tol must lie in (0, 1)"),
            (["--tol", "nan"], "--tol must lie in (0, 1)"),
            (["--lambda-re", "inf"], "lambda must be finite"),
            (["--m", "inf"], "m >= 0 and finite violated"),
        ],
        ids=["branch", "points", "y-max", "tol-inf", "tol-0", "tol-negative", "tol-nan",
             "lambda-inf", "m-inf"],
    )
    def test_out_of_range_option_exit_1(self, runner, extra, message):
        result = runner.invoke(cli, self.ARGS + extra)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"error: {message}" in result.output

    @pytest.mark.parametrize(
        "extra",
        [["--format", "xml"], ["--points", "abc"], ["--bogus", "1"]],
        ids=["format", "points", "unknown-option"],
    )
    def test_usage_error_exit_1(self, runner, extra):
        result = runner.invoke(cli, self.ARGS + extra)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "lam,y_max,points",
        # The benchmark's table; E_{1/2}(-50 sqrt y) on the contour rule, where
        # the summed series read 232.8 at y = 0.0156 and did not converge.
        [("-1", "4", 4096), ("-50", "1", 64)],
        ids=["benchmark", "contour"],
    )
    def test_real_lambda_table_is_exactly_real(self, runner, lam, y_max, points):
        args = ["fundamental", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1",
                "--m", "0", "--lambda-re", lam, "--y-max", y_max, "--points", str(points)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert len(rows) == points
        assert all(float(row[2]) == 0.0 for row in rows)

    def test_json_format(self, runner):
        result = runner.invoke(cli, self.ARGS + ["--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema_version"] == 1
        assert doc["command"] == "fundamental"
        assert len(doc["rows"]) == 4
        assert abs(doc["rows"][-1]["re_u"] - 5.0089800) < 1e-6


class TestSolve:
    def test_single_branch_negative_lambda(self, runner):
        args = ["solve", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1",
                "--m", "0", "--lambda-re", "-1", "--phis", "1", "--points", "4"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert abs(float(rows[-1][1]) - 0.4275836) < 1e-6

    def test_zero_data_gives_zero_column(self, runner):
        args = ["solve", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2",
                "--m", "0", "--lambda-re", "1", "--phis", "0,0", "--points", "8"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert all(float(r[1]) == 0.0 and float(r[2]) == 0.0 for r in rows)

    def test_branch_selection_near_origin(self, runner):
        base = ["solve", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2",
                "--m", "0", "--lambda-re", "1", "--points", "512"]
        first = runner.invoke(cli, base + ["--phis", "1,0"])
        second = runner.invoke(cli, base + ["--phis", "0,1"])
        assert first.exit_code == 0 and second.exit_code == 0
        _, _, rows1 = parse_csv(first.output)
        _, _, rows2 = parse_csv(second.output)
        # b_0 < b_1, so the phi_0 branch dominates at the smallest y
        assert abs(float(rows1[0][1])) > 10.0 * abs(float(rows2[0][1]))

    def test_wrong_phis_length_exit_1(self, runner):
        args = ["solve", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1",
                "--m", "0", "--phis", "1,2"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert "phis" in result.output

    def test_non_finite_phis_exit_1(self, runner):
        args = ["solve", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--phis", "nan"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: phis must be finite" in result.output


class TestVerify:
    GOOD = ["verify", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1",
            "--m", "0", "--lambda-re", "1", "--points", "256", "--k", "100"]

    def test_passes(self, runner):
        result = runner.invoke(cli, self.GOOD)
        assert result.exit_code == 0, result.output
        meta, header, rows = parse_csv(result.output)
        assert meta["passed"] == "True"
        names = {r[0] for r in rows}
        assert names == {"coefficient_identity", "numeric_residual", "initial_condition"}
        assert all(r[4] == "pass" for r in rows)

    def test_coarse_grid_fails_with_named_metric(self, runner):
        # At 16 points the residual is 1.05e-2, above the 5e-3 threshold.
        result = runner.invoke(cli, self.GOOD + ["--points", "16"])
        assert result.exit_code == 2
        assert "numeric_residual" in result.output

    def test_overflowing_tail_exits_3_with_its_table(self, runner):
        # At m = 1 and lambda = -50 the residual's series tail (k_start >= 1)
        # cancels and overflows; the residual is unmeasured, not a traceback.
        # With warnings as errors, the tail driver's overflowing and nan
        # exponents stay silent.
        args = self.GOOD[:10] + ["1", "--lambda-re", "-50", "--points", "256"]
        assert args[9] == "--m"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, args)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)
        meta, _, rows = parse_csv(result.output.split("error: ")[0])
        assert meta["passed"] == "False"
        residual = [r for r in rows if r[0] == "numeric_residual"]
        assert residual == [["numeric_residual", "0", "inf", "0.005", "fail"]]
        assert "did not converge" in result.output

    @pytest.mark.parametrize(
        "args",
        [["--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--m", "1", "--lambda-re", "1e160"],
         ["--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
          "--lambda-re", "1e200"],
         ["--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--lambda-re", "1e60"]],
        ids=["lambda-power", "lambda-power-window-2", "rhs-product"],
    )
    def test_overflow_past_the_double_range_exits_3_with_its_table(self, runner, args):
        # lambda^k raised OverflowError (exit 1 with a traceback); at 1e60
        # numpy warned and the residual read nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, ["verify", *args, "--points", "8"])
        assert result.exit_code == 3, result.output
        _, _, rows = parse_csv(result.stdout)
        residuals = [r for r in rows if r[0] == "numeric_residual"]
        assert residuals and all(r[2:] == ["inf", "0.005", "fail"] for r in residuals)
        assert result.stderr == "error: series evaluation did not converge during the residual check\n"

    HIGH_WINDOWS = {
        3: ["--alpha", "2.5", "--beta", "2.3", "--mu", "0.4", "--i", "3", "--m", "0.5",
            "--lambda-re", "-1.5"],
        4: ["--alpha", "3.5", "--beta", "3.25", "--mu", "0.5", "--i", "4", "--m", "0.5",
            "--lambda-re", "-2", "--lambda-im", "1"],
    }
    VERIFY_FINE = ["--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
                   "--lambda-re", "-2", "--phis", "1,0.5", "--y-max", "2", "--points", "32768"]
    # Its one branch is the triple (0.5, 1, 0), on the contour rule.
    CONTOUR = ["--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1", "--m", "0"]

    @pytest.mark.parametrize(
        "args",
        [
            HIGH_WINDOWS[3],
            HIGH_WINDOWS[4],
            # The benchmark's verify-fine command: the FFT quadrature at full
            # size; at real lambda the residual's tails are summed in real
            # arithmetic.
            [*VERIFY_FINE, "--lambda-im", "1"],
            VERIFY_FINE,
            # E_{1/2}(-50 sqrt y), on the contour rule: its tail from k_start
            # = 4 is the table's value minus its four head terms.
            [*CONTOUR, "--lambda-re", "-50", "--points", "256"],
            # The contour branch at complex lambda.
            [*CONTOUR, "--lambda-re", "-2", "--lambda-im", "3", "--y-max", "4", "--points", "1024"],
        ],
        ids=["window-3", "window-4", "verify-fine", "verify-fine-real-lambda", "contour-real",
             "contour-complex"],
    )
    def test_runs_every_check(self, runner, args):
        result = runner.invoke(cli, ["verify", *args])
        assert result.exit_code == 0, result.output
        meta, _, rows = parse_csv(result.output)
        assert meta["passed"] == "True"
        names = [r[0] for r in rows]
        for name in ("coefficient_identity", "numeric_residual", "initial_condition"):
            assert names.count(name) == int(args[args.index("--i") + 1])
        assert all(r[4] == "pass" for r in rows)

    @pytest.mark.parametrize(
        "args",
        [
            # At 16 points the residuals of branches 0 and 2 are 1.1e-1 and
            # 3.9e-2, above 5e-3.
            [*HIGH_WINDOWS[3], "--points", "16"],
            [*HIGH_WINDOWS[4], "--points", "16"],
            # At 16 points the residual is 1.05e-2.
            [*CONTOUR, "--lambda-re", "1", "--points", "16"],
            # The m = 1 series branch cancels at lambda = -20 without
            # overflowing, and its residual reads 1.5e28.
            ["--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1", "--m", "1",
             "--lambda-re", "-20"],
        ],
        ids=["window-3", "window-4", "coarse-grid", "cancelling-series"],
    )
    def test_fails_with_named_metric(self, runner, args):
        result = runner.invoke(cli, ["verify", *args])
        assert result.exit_code == 2
        assert "numeric_residual" in result.output

    def test_minimum_grid_grows_with_window(self, runner):
        args = ["verify", "--alpha", "8.5", "--beta", "8.25", "--mu", "0.5", "--i", "9",
                "--m", "0.5", "--lambda-re", "-1", "--points", "8"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: --points must be >= 24, got 8" in result.output

    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--k", "0"], "--k must be >= 1"),
            (["--points", "4"], "--points must be >= 8"),
            (["--tol", "nan"], "--tol must lie in (0, 1)"),
            (["--phis", "nan"], "phis must be finite"),
            (["--phis", "1,2"], "phis must have exactly i=1 entries"),
        ],
        ids=["k", "points", "tol-nan", "phis-nan", "phis-length"],
    )
    def test_out_of_range_option_exit_1(self, runner, extra, message):
        result = runner.invoke(cli, self.GOOD + extra)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert f"error: {message}" in result.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_metrics_are_numbers(self, runner, fmt):
        args = ["verify", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2",
                "--m", "0.5", "--lambda-re", "-2", "--lambda-im", "1", "--phis", "1,0.5",
                "--y-max", "2", "--points", "64", "--format", fmt]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        if fmt == "csv":
            _, header, rows = parse_csv(result.output)
            rows = [dict(zip(header, row)) for row in rows]
            # float raises on anything that is not a plain number.
            metrics = [(row["name"], float(row["metric"])) for row in rows if row["metric"]]
        else:
            rows = strict_json(result.output)["rows"]
            assert all(type(row["metric"]) is float for row in rows)
            metrics = [(row["name"], row["metric"]) for row in rows]
        assert len(metrics) == 6
        # The coefficient identity reads the cached term ratios that the
        # tables sum; checked against exp of a running sum of ln c_k it read
        # 5.6e-14.
        identity = [metric for name, metric in metrics if name == "coefficient_identity"]
        assert len(identity) == 2 and all(metric <= 2e-14 for metric in identity)

    def test_inadmissible_problem_names_inequality(self, runner):
        args = ["verify", "--alpha", "0.1", "--beta", "0.9", "--mu", "1", "--i", "1", "--m", "0"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert "m + mu*(alpha-beta) >= 0" in result.output

    def test_window_mismatch_names_inequality(self, runner):
        args = ["verify", "--alpha", "0.5", "--beta", "1.5", "--mu", "0.5", "--i", "1", "--m", "0"]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert "beta" in result.output


    @pytest.mark.parametrize(
        "args",
        [["--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--lambda-re", "1e60", "--points", "16"],
         ["--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--lambda-re", "1e60", "--points", "8"],
         ["--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
          "--lambda-re", "1e100", "--points", "16"],
         ["--alpha", "2.5", "--beta", "2.3", "--mu", "0.4", "--i", "3", "--m", "0.5",
          "--lambda-re", "1e110", "--points", "16"]],
        ids=["window-1", "window-1-8-points", "window-2", "window-3"],
    )
    def test_overflowed_initial_condition_reads_inf(self, runner, args):
        # An initial-condition row whose sums overflow read nan; at i = 3 the
        # extrapolation raised OverflowError (exit 1 with a traceback).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, ["verify", *args])
        assert result.exit_code == 3, result.output
        _, _, rows = parse_csv(result.stdout)
        ic = [r for r in rows if r[0] == "initial_condition"]
        assert ic and all(r[2:] == ["inf", "1e-06", "fail"] for r in ic)


class TestOverflowedValue:
    """A row whose value passes the double range is not converged, so the
    table is written and the command exits 3. Each read inf (inf, nan in
    fundamental) and exited 0; eval-ks printed True."""

    PROBLEM = ["--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--y-max", "1", "--points", "4"]

    @pytest.mark.parametrize(
        "args,last",
        [(["eval-ks", "--alpha", "1", "--m", "1", "--l", "0", "--z", "710"], ["710.0", "inf", "0.0"]),
         (["fundamental", *PROBLEM, "--lambda-re", "26.7"], ["1.0", "inf", "nan"]),
         (["solve", *PROBLEM, "--lambda-re", "26.5", "--phis", "1e10"], ["1.0", "inf", "0.0"])],
        ids=["eval-ks", "fundamental", "solve"],
    )
    def test_exit_3(self, runner, args, last):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(cli, args)
        assert result.exit_code == 3, result.output
        _, header, rows = parse_csv(result.stdout)
        assert rows[-1][:3] == last
        assert all(math.isfinite(float(row[1])) for row in rows[:-1])
        if header[-1] == "converged":
            assert rows[-1][-1] == "False"
        assert result.stderr == "error: series did not converge at every point\n"


class TestUnderflowingStep:
    """A grid step y_max / points that underflows to 0, or whose power -i
    overflows for verify's order-i grid derivative, is a validation error,
    refused before --out is opened."""

    PROBLEM = ["--alpha", "0.5", "--beta", "0.5", "--mu", "1"]

    @pytest.mark.parametrize(
        "command,extra",
        [("fundamental", []), ("solve", ["--phis", "1"]), ("verify", [])],
        ids=["fundamental", "solve", "verify"],
    )
    def test_zero_step_exit_1(self, runner, tmp_path, command, extra):
        # fundamental and solve raised DomainError at y = 0, verify
        # ValueError in the quadrature: exit 1 with a traceback, after
        # fundamental and solve had opened --out.
        out = tmp_path / "table.csv"
        args = [command, *self.PROBLEM, *extra, "--y-max", "1e-320", "--points", "100000",
                "--out", str(out)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == ("error: the grid step --y-max / --points underflows to 0 "
                                 "(--y-max 1e-320, --points 100000)\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "problem,y_max,order",
        [(PROBLEM, "1e-320", 1),
         (["--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
           "--lambda-re", "-2", "--lambda-im", "1", "--phis", "1,0.5"], "1e-160", 2)],
        ids=["i-1", "i-2"],
    )
    def test_step_past_the_derivative_exit_1(self, runner, tmp_path, problem, y_max, order):
        # A subnormal step (1.25e-321), or one whose square underflows
        # (1.25e-161): the grid derivative's division by step**i overflowed
        # and verify ended in a ValueError traceback from the quadrature.
        out = tmp_path / "report.csv"
        args = ["verify", *problem, "--y-max", y_max, "--points", "8", "--out", str(out)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == (f"error: the grid step --y-max / --points is too small for a "
                                 f"derivative of order {order}: step**-{order} overflows "
                                 f"(--y-max {y_max}, --points 8)\n")
        assert not out.exists()


class TestJsonRoundTrip:
    def test_verify_report_round_trips_bitwise(self, runner, tmp_path):
        out = tmp_path / "report.json"
        args = ["verify", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1",
                "--m", "0", "--lambda-re", "1", "--points", "256", "--k", "50",
                "--format", "json", "--out", str(out)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        text = out.read_text().rstrip("\n")
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        assert json.dumps(doc, indent=2) == text

    def test_eval_ks_table_round_trips(self, runner, tmp_path):
        out = tmp_path / "table.json"
        args = ["eval-ks", "--alpha", "0.7", "--m", "1.3", "--l", "0.4",
                "--z-min", "-2", "--z-max", "2", "--z-points", "11",
                "--format", "json", "--out", str(out)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        text = out.read_text().rstrip("\n")
        assert json.dumps(json.loads(text), indent=2) == text


def strict_json(text):
    """json.loads refusing the NaN and Infinity tokens, as RFC 8259 parsers do."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestJsonNonFinite:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "args,row,column,text",
        [
            (["fundamental", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2",
              "--m", "0.5", "--lambda-re", "-1", "--y-max", "1e200", "--points", "4"], 0, "re_u",
             "nan"),
            (["verify", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1", "--m", "1",
              "--lambda-re", "-50", "--points", "256"], 1, "metric", "inf"),
        ],
        ids=["fundamental-overflow", "verify-overflow"],
    )
    def test_non_finite_cells_are_strings(self, runner, args, row, column, text, fmt):
        # Both commands print their table with the unconverged points and
        # exit 3; the CSV cell is the same text.
        result = runner.invoke(cli, [*args, "--format", fmt])
        assert result.exit_code == 3, result.output
        if fmt == "csv":
            _, header, rows = parse_csv(result.stdout)
            assert rows[row][header.index(column)] == text
        else:
            assert strict_json(result.stdout)["rows"][row][column] == text

    def test_cells_read_back(self, tmp_path):
        out = tmp_path / "table.json"
        _write_table("t", {"n": 1}, ["v"], [[-math.inf], [math.nan], [math.inf], [1.5]], "json",
                     _open_out(str(out)))
        cells = [row["v"] for row in strict_json(out.read_text())["rows"]]
        assert cells == ["-inf", "nan", "inf", 1.5]
        assert [float(c) for c in cells[::2]] == [-math.inf, math.inf] and math.isnan(float(cells[1]))

    def test_non_finite_meta_raises(self, tmp_path):
        # Metadata is validated problem data, always finite; a value that is
        # not raises rather than write an invalid document.
        with pytest.raises(ValueError, match="not JSON compliant"):
            _write_table("t", {"x": math.nan}, ["v"], [[1.5]], "json", _open_out(str(tmp_path / "t")))


class TestOutPath:
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    def test_unwritable_out_is_a_validation_error(self, runner, tmp_path, where):
        out = tmp_path / "no" / "such" / "x.csv" if where == "missing-dir" else tmp_path
        args = ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z", "1", "--out", str(out)]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "module,name,args",
        [
            ("special_functions", "kilbas_saigo", ["eval-ks", "--alpha", "0.5", "--m", "1", "--l",
                                                   "0", "--z", "1"]),
            ("solver", "_kilbas_saigo_ray", ["fundamental", "--alpha", "0.5", "--beta", "0.5",
                                             "--mu", "1"]),
            ("solver", "_kilbas_saigo_ray", ["solve", "--alpha", "0.5", "--beta", "0.5", "--mu",
                                             "1", "--phis", "1"]),
            ("verification", "residual_coefficient_identity",
             ["verify", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--points", "32768"]),
        ],
        ids=["eval-ks", "fundamental", "solve", "verify"],
    )
    def test_unwritable_out_fails_before_computing(self, runner, tmp_path, monkeypatch, module,
                                                  name, args):
        # The path is opened after validation and before the engine runs, so
        # a 32768-point verify no longer computes its table to exit 1.
        calls = []
        monkeypatch.setattr(f"bihilfer.{module}.{name}", lambda *a, **k: calls.append(a))
        out = tmp_path / "no" / "such" / "x.csv"
        result = runner.invoke(cli, [*args, "--out", str(out)])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert calls == []


class TestPipeline:
    """Every command checks its options before Cli.main opens --out and
    computes the table: a bad --tol (whose message comes first) or a domain
    error exits 1 with one error line, no file and no engine call."""

    ENGINE = [("special_functions", "kilbas_saigo"), ("solver", "_kilbas_saigo_ray"),
              ("verification", "residual_coefficient_identity"),
              ("verification", "residual_numeric"), ("verification", "initial_condition_check")]
    TOL = "--tol must lie in (0, 1), got 0.0"

    @pytest.mark.parametrize(
        "command,valid,bad,domain",
        [
            ("eval-ks", ["--alpha", "0.5"], ["--alpha", "0"], "alpha > 0 violated (alpha=0.0)"),
            *[(command, ["--mu", "1"], ["--mu", "2"], "0 <= mu <= 1 violated (mu=2.0)")
              for command in ("fundamental", "solve", "verify")],
        ],
    )
    @pytest.mark.parametrize("error", ["tol", "domain", "both"])
    def test_bad_option_exits_1_before_out_and_engine(self, runner, tmp_path, monkeypatch,
                                                      command, valid, bad, domain, error):
        calls = []
        for module, name in self.ENGINE:
            monkeypatch.setattr(f"bihilfer.{module}.{name}", lambda *a, **k: calls.append(a))
        rest = (["--m", "1", "--l", "0", "--z", "1"] if command == "eval-ks"
                else ["--alpha", "0.5", "--beta", "0.5", *(["--phis", "1"] * (command == "solve"))])
        out = tmp_path / "table.csv"
        args = [command, *(valid if error == "tol" else bad), *rest, "--out", str(out),
                *(["--tol", "0"] if error != "domain" else [])]
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {domain if error == 'domain' else self.TOL}\n"
        assert result.stdout == ""
        assert not out.exists()
        assert calls == []


# One command per exit code. A failed command writes its table, if any,
# before the error line.
EXITS = {
    0: ["eval-ks", "--alpha", "1", "--m", "1", "--l", "0", "--z", "-1", "--z", "0.5"],
    1: ["eval-ks", "--alpha", "1", "--m", "1", "--l", "0", "--z", "1", "--tol", "0"],
    2: ["verify", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--lambda-re", "-0.001"],
    3: ["eval-ks", "--alpha", "1", "--m", "1", "--l", "0", "--z", "710"],
}

MODULE = [sys.executable, "-m", "bihilfer.cli"]


def _child_env():
    """This environment with the tested package's parent first on
    PYTHONPATH, so that a child process imports the same bihilfer."""
    src = str(Path(bihilfer.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _run(argv, closed=None):
    """(exit code, stdout, stderr) of a child process. The stream named by
    closed, "stdout" or "stderr", is a pipe whose reader has already closed,
    so that every write to it fails; it reads as b""."""
    read, write = os.pipe()
    os.close(read)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    if closed is not None:
        streams[closed] = write
    try:
        run = subprocess.run(argv, env=_child_env(), timeout=120, **streams)
    finally:
        os.close(write)
    return run.returncode, run.stdout or b"", run.stderr or b""


class TestClosedPipe:
    """A reader that closes stdout early, as `| head -c 600` does, ends the
    command with exit 141 and nothing on stderr, not a BrokenPipeError
    traceback."""

    # 2,000 rows are about 300 kB of JSON, more than a pipe holds, so the
    # write still runs when a reader of 600 bytes closes.
    ARGS = ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z-min", "-8", "--z-max", "4",
            "--z-points", "2000", "--format", "json"]

    @pytest.mark.parametrize("read", [0, 600])
    def test_reader_that_closes_early(self, read):
        with subprocess.Popen([*MODULE, *self.ARGS], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=_child_env()) as proc:
            head = proc.stdout.read(read)
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert stderr == b""
        assert len(head) == read

    @pytest.mark.parametrize("args", [["--help"], ["--version"], ["eval-ks", "--help"]])
    def test_help_and_version(self, args):
        # argparse swallows the failed write on some Pythons and raises it
        # from its own print on others; both end here as a table does.
        assert _run([*MODULE, *args], closed="stdout") == (141, b"", b"")


class TestClosedStderr:
    """A reader that closes stderr, as `2>&1 | head -c 10` does once a small
    table fits in the pipe, drops the error line but not the exit code: the
    failed write is not a BrokenPipeError exit 1."""

    @pytest.mark.parametrize("code", [1, 2, 3])
    def test_exit_code_survives(self, code):
        plain = _run([*MODULE, *EXITS[code]])
        assert plain[0] == code and plain[2].startswith(b"error: ")
        assert _run([*MODULE, *EXITS[code]], closed="stderr") == (code, plain[1], b"")


class TestExitContract:
    """main(), the process entry, freezes the heap in an atexit handler so
    that the interpreter's shutdown collections walk nothing; Cli.main, the
    in-process entry, neither freezes nor registers anything."""

    # The console script's body, as pip writes it for `bihilfer.cli:main`.
    SCRIPT = ("import sys\nfrom bihilfer.cli import main\n"
              "if __name__ == '__main__':\n    sys.exit(main())\n")

    @pytest.mark.parametrize("code", [0, 1, 2, 3, 141])
    def test_console_script_matches_the_module(self, tmp_path, code):
        script = tmp_path / "bihilfer"
        script.write_text(self.SCRIPT)
        args, closed = (EXITS[0], "stdout") if code == 141 else (EXITS[code], None)
        ran = _run([sys.executable, str(script), *args], closed)
        assert ran == _run([*MODULE, *args], closed)
        assert ran[0] == code

    @pytest.mark.parametrize("code", [0, 3, 141])
    def test_earlier_atexit_handler_still_runs(self, code):
        # The handler is registered before the CLI runs, so it runs after
        # the freeze; `python -m` runs the module as run_module does here.
        args, closed = (EXITS[0], "stdout") if code == 141 else (EXITS[code], None)
        script = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('handler', gc.get_freeze_count() > 0,\n"
            "                              file=sys.stderr))\n"
            f"sys.argv = ['bihilfer', *{args!r}]\n"
            "runpy.run_module('bihilfer.cli', run_name='__main__', alter_sys=True)\n"
        )
        ran, plain = _run([sys.executable, "-c", script], closed), _run([*MODULE, *args], closed)
        assert ran == (code, plain[1], plain[2] + b"handler True\n")

    @pytest.fixture
    def registered(self, monkeypatch):
        """The calls made to atexit.register, which meanwhile registers nothing."""
        calls = []
        monkeypatch.setattr(atexit, "register", lambda *call: calls.append(call))
        return calls

    def test_cli_main_registers_and_freezes_nothing(self, runner, registered):
        frozen = gc.get_freeze_count()
        codes = [runner.invoke(cli, args).exit_code for args in EXITS.values()]
        assert codes == list(EXITS)
        assert (registered, gc.get_freeze_count()) == ([], frozen)

    def test_main_registers_the_freeze_once(self, capsys, monkeypatch, registered):
        monkeypatch.setattr(sys, "argv", ["bihilfer", *EXITS[0]])
        frozen = gc.get_freeze_count()
        main()
        assert registered == [(gc.freeze,)]
        assert gc.get_freeze_count() == frozen
        assert capsys.readouterr().out.startswith("# alpha=1.0")


class TestCsvFloats:
    @pytest.mark.parametrize("value", [0.1, 1 / 3, 5e-324, -0.0, 1e300, -2.5e-310, 12345.678])
    def test_float_cells_read_back_bit_exact(self, tmp_path, value):
        out = tmp_path / "table.csv"
        _write_table("t", {"n": 1}, ["x", "y"], [[value, 7], [-value, True]], "csv",
                     _open_out(str(out)))
        text = out.read_text()
        # Each float is its repr, the shortest string with the same bits.
        assert text == f"# n=1\nx,y\n{value!r},7\n{-value!r},True\n"
        _, _, rows = parse_csv(text)
        cells = [float(rows[0][0]), float(rows[1][0])]
        assert [struct.pack("<d", c) for c in cells] == [
            struct.pack("<d", value), struct.pack("<d", -value)
        ]


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "alpha": 0.5, "beta": 0.5, "mu": 1.0, "i": 1, "m": 0.0,
            "lambda_re": 1.0, "points": 4,
        }))
        result = runner.invoke(cli, ["fundamental", "--config", str(config)])
        assert result.exit_code == 0
        _, _, rows = parse_csv(result.output)
        assert abs(float(rows[-1][1]) - 5.0089800) < 1e-6
        # flag overrides the config value
        result2 = runner.invoke(
            cli, ["fundamental", "--config", str(config), "--lambda-re", "-1"]
        )
        _, _, rows2 = parse_csv(result2.output)
        assert abs(float(rows2[-1][1]) - 0.4275836) < 1e-6

    def test_list_phis_feeds_solve_and_verify(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "alpha": 0.5, "beta": 0.5, "mu": 1.0, "lambda_re": -1.0,
            "phis": [1.0], "points": 16, "k": 50,
        }))
        solved = runner.invoke(cli, ["solve", "--config", str(config)])
        assert solved.exit_code == 0, solved.output
        _, _, rows = parse_csv(solved.output)
        assert abs(float(rows[-1][1]) - 0.4275836) < 1e-6
        verified = runner.invoke(cli, ["verify", "--config", str(config), "--points", "256"])
        assert verified.exit_code == 0, verified.output
        meta, _, _ = parse_csv(verified.output)
        assert meta["passed"] == "True"

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"alpha": 0.5, "beta": 0.5, "mu": 1.0, "points": "abc"}),
            json.dumps({"alpha": 0.5, "beta": 0.5, "mu": 1.0, "format": "xml"}),
            json.dumps([0.5, 0.5, 1.0]),
            '{"alpha": 0.5,',
            json.dumps({"alpha": 0.5, "beta": 0.5, "mu": 1.0, "points": 4, "lambda-re": -50}),
        ],
        ids=["wrong-type", "bad-choice", "json-array", "malformed-json", "unknown-key"],
    )
    def test_bad_config_exit_1(self, runner, tmp_path, text):
        config = tmp_path / "run.json"
        config.write_text(text)
        result = runner.invoke(cli, ["fundamental", "--config", str(config)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "error: argument --" in result.output

    FUNDAMENTAL = ["fundamental", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--m", "0.5",
                   "--lambda-re", "-1"]
    EVAL_KS = ["eval-ks", "--l", "0", "--z", "1"]

    @pytest.mark.parametrize(
        "args,values,message",
        [
            (FUNDAMENTAL, {"i": 2.9, "points": 8.7}, "invalid int value: '2.9'"),
            (FUNDAMENTAL, {"points": 8.7}, "invalid int value: '8.7'"),
            (FUNDAMENTAL, {"i": True}, "invalid int value: 'true'"),
            (EVAL_KS, {"alpha": 0.5, "m": True}, "invalid float value: 'true'"),
            (EVAL_KS, {"alpha": False, "m": 1}, "invalid float value: 'false'"),
            # Only --phis and the repeatable --z take a list.
            (EVAL_KS, {"alpha": [1], "m": 1}, "'alpha' takes one value, not a list"),
            (FUNDAMENTAL, {"points": [4]}, "'points' takes one value, not a list"),
        ],
        ids=["float-for-ints", "float-for-int", "bool-for-int", "bool-for-float",
             "false-for-float", "list-for-float", "list-for-int"],
    )
    def test_value_refused_as_its_flag_is(self, runner, tmp_path, args, values, message):
        # On the command line, --points 8.7 and --m true exit 1 the same way.
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        result = runner.invoke(cli, [*args, "--config", str(config)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "Traceback" not in result.output
        assert message in result.output

    @pytest.mark.parametrize(
        "args,values,line",
        [
            (EVAL_KS, {"alpha": 1, "m": 1}, "# alpha=1.0"),
            (FUNDAMENTAL, {"i": "2", "points": "4", "alpha": "1.5"}, "# ks_alpha=1.375"),
        ],
        ids=["integer-for-float", "numeric-strings"],
    )
    def test_numbers_a_flag_takes_still_work(self, runner, tmp_path, args, values, line):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(values))
        result = runner.invoke(cli, [*args, "--config", str(config)])
        assert result.exit_code == 0, result.output
        assert line in result.output.splitlines()

    @pytest.mark.parametrize("args", [["--bogus"], []], ids=["unknown-option", "no-command"])
    def test_group_usage_error_exit_1(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)

    def test_version(self, runner):
        result = runner.invoke(cli, ["--version"])
        assert result.exit_code == 0
        assert "bihilfer" in result.output


def _readme_cli_examples():
    """The argument lists of the `bihilfer ...` lines in README.md's sh
    block under `## CLI`."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bihilfer ")]


class TestReadmeExamples:
    def test_every_command_has_an_example(self):
        assert {args[0] for args in _readme_cli_examples()} == {
            "eval-ks", "fundamental", "solve", "verify"}

    @pytest.mark.parametrize("args", _readme_cli_examples())
    def test_example_exits_0(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
