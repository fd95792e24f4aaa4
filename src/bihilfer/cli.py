"""Command-line front end.

Subcommands: ``eval-ks`` (Kilbas-Saigo function tables), ``fundamental``
(one branch of the fundamental system), ``solve`` (Cauchy-type problem) and
``verify`` (coefficient identity, numeric residual, initial conditions).

Tables are written as CSV (RFC-4180-style quoting, ``#``-prefixed metadata
lines before the header row) or schema-versioned JSON. Complex values are
always split into real/imaginary columns. Exit codes: 0 success,
1 validation error, 2 verification failure, 3 non-convergence.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .errors import DomainError

# The engine modules are imported inside the commands that run them: each
# process compiles what it imports unless bytecode caches are written, so
# --version and --help load none of them and eval-ks only special_functions
# and series_grid.

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_NONCONVERGENCE = 3

COEFF_IDENTITY_THRESHOLD = 1e-12
RESIDUAL_THRESHOLD = 5e-3
IC_THRESHOLD = 1e-6


class PhisType(click.ParamType):
    """Initial data phi_0..phi_{i-1}: a comma-separated string on the command
    line, or a JSON list of numbers in a config file."""

    name = "phis"

    def convert(self, value, param, ctx):
        parts = value.split(",") if isinstance(value, str) else value
        try:
            return [complex(float(part)) for part in parts]
        except (TypeError, ValueError):
            self.fail(f"must be comma-separated numbers or a list of numbers, got {value!r}",
                      param, ctx)


class CliGroup(click.Group):
    """Click's usage errors (missing or malformed options, bad config files,
    unknown or missing subcommands) are validation errors, so they exit 1,
    not 2, whether the group or a subcommand raises them."""

    def parse_args(self, ctx, args):
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            exc.exit_code = EXIT_VALIDATION
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_VALIDATION
            raise


def _apply_config(ctx: click.Context, param: click.Parameter, path: "str | None") -> None:
    """Load a flat JSON object into the defaults of every option; explicit
    flags still win, and click type-checks the values as it does flags. A key
    of another subcommand is accepted, so one file can feed several; a key
    that no subcommand takes is refused."""
    if path is None:
        return
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON or text that is not UTF-8
            raise click.BadParameter(f"not valid JSON: {exc}", ctx, param)
    if not isinstance(data, dict):
        raise click.BadParameter("config file must contain a JSON object", ctx, param)
    taken = {p.name for cmd in ctx.find_root().command.commands.values() for p in cmd.params}
    unknown = [key for key in data if key not in taken]
    if unknown:
        raise click.BadParameter(f"no subcommand takes {', '.join(map(repr, unknown))}", ctx, param)
    ctx.default_map = data


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _check_tol(ctx: click.Context, param: click.Parameter, tol: float) -> float:
    """The series engine needs 0 < tol < 1; nan and inf are rejected too."""
    if not 0.0 < tol < 1.0:
        _fail(f"--tol must lie in (0, 1), got {tol}", EXIT_VALIDATION)
    return tol


def _open_out(out: "str | None") -> "io.TextIOBase | None":
    """The --out file opened for writing, or None for stdout: opened after
    validation and before computing, so a bad path fails at once."""
    try:
        return open(out, "w", encoding="utf-8", newline="") if out else None
    except OSError as exc:
        _fail(f"cannot write {out}: {exc.strerror}", EXIT_VALIDATION)


def _write_table(command: str, meta: dict, columns: list[str], rows: list[list], fmt: str,
                 out: "io.TextIOBase | None") -> None:
    if fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            **meta,
            "columns": columns,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        text = json.dumps(doc, indent=2)
    else:
        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        # csv writes a float as its repr, the shortest string that reads back
        # to the same bits.
        writer.writerows(rows)
        text = buf.getvalue()
    click.echo(text, file=out, nl=not text.endswith("\n"))
    if out is not None:
        out.close()


def _exit_if_nonconverged(converged: bool) -> None:
    if not converged:
        _fail("series did not converge at every point", EXIT_NONCONVERGENCE)


def _build_problem(alpha, beta, mu, i, m, lambda_re, lambda_im) -> "DegenerateProblem":
    from .fractional_ops import OrderTriple
    from .solver import DegenerateProblem

    orders = OrderTriple(alpha=alpha, beta=beta, mu=mu, i=i)
    return DegenerateProblem(orders=orders, m=m, lam=complex(lambda_re, lambda_im))


def _at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{flag} must be >= {minimum}, got {value}")


def _check_grid(y_max: float, points: int, min_points: int = 1) -> None:
    if not 0.0 < y_max < math.inf:
        raise ValueError(f"--y-max must be positive and finite, got {y_max}")
    _at_least("--points", points, min_points)


def _grid(y_max: float, points: int) -> np.ndarray:
    """Uniform grid on (0, y_max], origin excluded."""
    h = y_max / points
    return h * np.arange(1, points + 1)


def _tabulate(sol, ys: np.ndarray, tol: float) -> "tuple[list[list], bool]":
    """Rows [y, re_u, im_u] of a solution on the grid, and whether every
    point converged."""
    report = sol.grid_report(ys, tol)
    rows = [[y, u.real, u.imag] for y, u in zip(ys.tolist(), report.value.tolist())]
    return rows, bool(report.converged.all())


def problem_options(fn):
    fn = click.option("--alpha", type=float, required=True, help="Left order alpha.")(fn)
    fn = click.option("--beta", type=float, required=True, help="Right order beta.")(fn)
    fn = click.option("--mu", type=float, required=True, help="Interpolation weight in [0, 1].")(fn)
    fn = click.option("--i", type=int, default=1, help="Integer order window index.")(fn)
    fn = click.option("--m", type=float, default=0.0, help="Degeneracy exponent m >= 0.")(fn)
    fn = click.option("--lambda-re", type=float, default=0.0, help="Re(lambda).")(fn)
    fn = click.option("--lambda-im", type=float, default=0.0, help="Im(lambda).")(fn)
    return fn


def grid_options(fn):
    fn = click.option("--y-max", type=float, default=1.0, help="Grid endpoint.")(fn)
    fn = click.option("--points", type=int, default=512, help="Grid size.")(fn)
    return fn


def common_options(fn):
    """Options every subcommand takes."""
    fn = click.option("--tol", type=float, default=1e-12, callback=_check_tol,
                      help="Truncation tolerance, 0 < tol < 1.")(fn)
    fn = click.option(
        "--format", type=click.Choice(["csv", "json"]), default="csv", help="Output format."
    )(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")(fn)
    fn = click.option(
        "--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
        expose_value=False, callback=_apply_config,
        help="JSON file with defaults for any option; explicit flags win.",
    )(fn)
    return fn


@click.group(cls=CliGroup, context_settings={"show_default": True})
@click.version_option(version=__version__, prog_name="bihilfer")
def cli() -> None:
    """Degenerate fractional equations with the bi-ordinal Hilfer derivative:
    evaluate Kilbas-Saigo functions, build fundamental and Cauchy-type
    solutions, and verify them independently."""


@cli.command("eval-ks")
@click.option("--alpha", type=float, required=True, help="Series order alpha > 0.")
@click.option("--m", type=float, required=True, help="Series step m > 0.")
@click.option("--l", type=float, required=True, help="Series shift l (alpha*l > -1).")
@click.option("--z", type=float, multiple=True, help="Evaluation point; repeatable.")
@click.option("--z-min", type=float, default=None, help="Grid start (with --z-max/--z-points).")
@click.option("--z-max", type=float, default=None, help="Grid end.")
@click.option("--z-points", type=int, default=41, help="Grid size.")
@common_options
def cmd_eval_ks(alpha, m, l, z, z_min, z_max, z_points, tol, format, out):
    """Tabulate the Kilbas-Saigo function E_{alpha,m,l}(z)."""
    from .series_grid import kilbas_saigo_grid
    from .special_functions import KilbasSaigoParams

    zs = list(z)
    try:
        for flag, value in [("--z-min", z_min), ("--z-max", z_max)] + [("--z", v) for v in zs]:
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
        if zs and (z_min is not None or z_max is not None):
            raise ValueError("give --z values or a --z-min/--z-max grid, not both")
        if not zs:
            if z_min is None or z_max is None:
                raise ValueError("give --z values or a --z-min/--z-max grid")
            _at_least("--z-points", z_points, 1)
            zs = np.linspace(z_min, z_max, z_points).tolist()
        params = KilbasSaigoParams(alpha=alpha, m=m, l=l)
    except (DomainError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
    out = _open_out(out)
    report = kilbas_saigo_grid(params, zs, tol)
    rows = [
        [point, value.real, value.imag, terms, converged]
        for point, value, terms, converged in zip(
            zs, report.value.tolist(), report.terms_used.tolist(), report.converged.tolist()
        )
    ]
    meta = {"alpha": alpha, "m": m, "l": l, "tol": tol}
    columns = ["z", "re_value", "im_value", "terms_used", "converged"]
    _write_table("eval-ks", meta, columns, rows, format, out)
    _exit_if_nonconverged(bool(report.converged.all()))


@cli.command("fundamental")
@problem_options
@click.option("--s", type=int, default=0, help="Branch index 0..i-1.")
@grid_options
@common_options
def cmd_fundamental(alpha, beta, mu, i, m, lambda_re, lambda_im, s, y_max, points, tol,
                    format, out):
    """Tabulate one fundamental solution u_s on (0, y_max]."""
    from .solver import fundamental_solution

    try:
        _check_grid(y_max, points)
        problem = _build_problem(alpha, beta, mu, i, m, lambda_re, lambda_im)
        sol = fundamental_solution(problem, s)
    except (DomainError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
    out = _open_out(out)
    ks = sol.kilbas_saigo_params()
    rows, converged = _tabulate(sol, _grid(y_max, points), tol)
    meta = {
        "gamma": ks.alpha,
        "a": sol.a,
        "b_s": sol.b,
        "ks_alpha": ks.alpha,
        "ks_m": ks.m,
        "ks_l": ks.l,
    }
    _write_table("fundamental", meta, ["y", "re_u", "im_u"], rows, format, out)
    _exit_if_nonconverged(converged)


@cli.command("solve")
@problem_options
@click.option("--phis", type=PhisType(), required=True, help="Initial data, i entries.")
@grid_options
@common_options
def cmd_solve(alpha, beta, mu, i, m, lambda_re, lambda_im, phis, y_max, points, tol,
              format, out):
    """Tabulate the Cauchy-type solution with data phi_0..phi_{i-1}."""
    from .solver import cauchy_solution, derive_params

    try:
        _check_grid(y_max, points)
        problem = _build_problem(alpha, beta, mu, i, m, lambda_re, lambda_im)
        sol = cauchy_solution(problem, phis)
    except (DomainError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
    out = _open_out(out)
    derived = derive_params(problem)
    rows, converged = _tabulate(sol, _grid(y_max, points), tol)
    meta = {
        "gamma": derived.gamma,
        "a": derived.a,
        "b": ",".join(repr(b) for b in derived.b),
        "phis": ",".join(repr(p.real) if p.imag == 0 else str(p) for p in sol.phis),
    }
    _write_table("solve", meta, ["y", "re_u", "im_u"], rows, format, out)
    _exit_if_nonconverged(converged)


def _check(name: str, branch, metric, threshold: float) -> dict:
    """One row of the verification report."""
    return {"name": name, "branch": branch, "metric": metric, "threshold": threshold,
            "status": "pass" if metric <= threshold else "fail"}


@cli.command("verify")
@problem_options
@click.option("--s", type=int, default=None, help="Single branch (default: all).")
@click.option("--k", type=int, default=200, help="Coefficient identity depth.")
@click.option("--phis", type=PhisType(), default=None,
              help="Initial data for the IC check (default 1,2,..).")
@grid_options
@common_options
def cmd_verify(alpha, beta, mu, i, m, lambda_re, lambda_im, s, k, phis, y_max,
               points, tol, format, out):
    """Run the verification suite; exit 0 only if every check passes."""
    from .solver import cauchy_solution, fundamental_solution
    from .verification import (
        initial_condition_check,
        residual_coefficient_identity,
        residual_min_points,
        residual_numeric,
    )

    try:
        _check_grid(y_max, points, residual_min_points(i))
        _at_least("--k", k, 1)
        problem = _build_problem(alpha, beta, mu, i, m, lambda_re, lambda_im)
        if s is not None:
            fundamental_solution(problem, s)  # rejects a branch outside 0..i-1
        branches = [s] if s is not None else list(range(i))
        if phis is None:
            phis = [complex(j + 1) for j in range(i)]
        cauchy_solution(problem, phis)  # rejects phis of the wrong length or not finite
    except (DomainError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
    out = _open_out(out)

    checks = []
    nonconverged = False
    for branch in branches:
        err = residual_coefficient_identity(problem, branch, k)
        checks.append(_check("coefficient_identity", branch, err, COEFF_IDENTITY_THRESHOLD))
        report = residual_numeric(problem, branch, y_max=y_max, n_points=points, tol=tol)
        nonconverged = nonconverged or not report.converged
        checks.append(_check("numeric_residual", branch, report.max_rel_error, RESIDUAL_THRESHOLD))
    ic_errors = initial_condition_check(problem, phis, tol=tol)
    checks.extend(_check("initial_condition", j, err, IC_THRESHOLD)
                  for j, err in enumerate(ic_errors))

    failed = [c for c in checks if c["status"] == "fail"]
    meta = {
        "alpha": alpha, "beta": beta, "mu": mu, "i": i, "m": m,
        "lambda_re": lambda_re, "lambda_im": lambda_im,
        "passed": not failed,
    }
    columns = ["name", "branch", "metric", "threshold", "status"]
    rows = [[c[col] for col in columns] for c in checks]
    _write_table("verify", meta, columns, rows, format, out)
    if nonconverged:
        _fail("series evaluation did not converge during the residual check",
              EXIT_NONCONVERGENCE)
    if failed:
        names = ", ".join(f"{c['name']}(branch {c['branch']}): {c['metric']:.3e} "
                          f"> {c['threshold']:.0e}" for c in failed)
        _fail(f"verification failed: {names}", EXIT_VERIFICATION)


def main() -> None:
    cli()


if __name__ == "__main__":
    main()
