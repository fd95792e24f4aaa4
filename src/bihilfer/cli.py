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
from dataclasses import dataclass, field

import click
import numpy as np

from . import __version__
from .errors import DomainError
from .fractional_ops import OrderTriple
from .solver import (
    DegenerateProblem,
    cauchy_solution,
    coefficient_sequence,
    derive_params,
    fundamental_solution,
)
from .special_functions import KilbasSaigoParams, kilbas_saigo
from .verification import (
    RESIDUAL_MIN_POINTS,
    initial_condition_check,
    residual_coefficient_identity,
    residual_numeric,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_NONCONVERGENCE = 3

COEFF_IDENTITY_THRESHOLD = 1e-12
RESIDUAL_THRESHOLD = 5e-3
IC_THRESHOLD = 1e-6


@dataclass
class RunConfig:
    """Resolved options for one command invocation: the echoed parameters
    plus output format and destination."""

    params: dict = field(default_factory=dict)
    fmt: str = "csv"
    out: "str | None" = None

    def __post_init__(self) -> None:
        if self.fmt not in ("csv", "json"):
            raise click.ClickException(f"format must be csv or json, got {self.fmt!r}")


def _load_config(path: "str | None") -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise click.ClickException("config file must contain a JSON object")
    return data


def _pick(flag, config: dict, key: str, default):
    """Explicit flag wins over config file entry wins over default."""
    if flag is not None:
        return flag
    if key in config:
        return config[key]
    return default


def _fail(message: str, code: int) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_table(
    config: RunConfig,
    command: str,
    columns: list[str],
    rows: list[list],
) -> None:
    if config.fmt == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            **config.params,
            "columns": columns,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        text = json.dumps(doc, indent=2)
    else:
        buf = io.StringIO()
        for key, value in config.params.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
        text = buf.getvalue()
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text, nl=not text.endswith("\n"))


def _build_problem(alpha, beta, mu, i, m, lam_re, lam_im) -> DegenerateProblem:
    orders = OrderTriple(alpha=alpha, beta=beta, mu=mu, i=i)
    return DegenerateProblem(orders=orders, m=m, lam=complex(lam_re, lam_im))


def _parse_phis(text: str, i: int) -> list[complex]:
    try:
        values = [complex(float(part)) for part in text.split(",")]
    except ValueError:
        raise click.ClickException(f"--phis must be comma-separated numbers, got {text!r}")
    if len(values) != i:
        raise click.ClickException(f"--phis needs exactly i={i} entries, got {len(values)}")
    return values


def problem_options(fn):
    fn = click.option("--alpha", type=float, default=None, help="Left order alpha.")(fn)
    fn = click.option("--beta", type=float, default=None, help="Right order beta.")(fn)
    fn = click.option("--mu", type=float, default=None, help="Interpolation weight in [0, 1].")(fn)
    fn = click.option("--i", "i_", type=int, default=None, help="Integer order window index.")(fn)
    fn = click.option("--m", type=float, default=None, help="Degeneracy exponent m >= 0.")(fn)
    fn = click.option("--lambda-re", type=float, default=None, help="Re(lambda).")(fn)
    fn = click.option("--lambda-im", type=float, default=None, help="Im(lambda).")(fn)
    return fn


def output_options(fn):
    fn = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default=None,
        help="Output format (default csv).",
    )(fn)
    fn = click.option("--out", type=click.Path(), default=None, help="Output path (default stdout).")(fn)
    fn = click.option(
        "--config", "config_path", type=click.Path(exists=True), default=None,
        help="JSON file with defaults for any option; explicit flags win.",
    )(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="bihilfer")
def cli() -> None:
    """Degenerate fractional equations with the bi-ordinal Hilfer derivative:
    evaluate Kilbas-Saigo functions, build fundamental and Cauchy-type
    solutions, and verify them independently."""


@cli.command("eval-ks")
@click.option("--alpha", type=float, default=None, help="Series order alpha > 0.")
@click.option("--m", type=float, default=None, help="Series step m > 0.")
@click.option("--l", "l_", type=float, default=None, help="Series shift l (alpha*l > -1).")
@click.option("--z", "z_values", type=float, multiple=True, help="Evaluation point; repeatable.")
@click.option("--z-min", type=float, default=None, help="Grid start (with --z-max/--z-points).")
@click.option("--z-max", type=float, default=None, help="Grid end.")
@click.option("--z-points", type=int, default=None, help="Grid size (default 41).")
@click.option("--tol", type=float, default=None, help="Truncation tolerance (default 1e-12).")
@output_options
def cmd_eval_ks(alpha, m, l_, z_values, z_min, z_max, z_points, tol, fmt, out, config_path):
    """Tabulate the Kilbas-Saigo function E_{alpha,m,l}(z)."""
    config = _load_config(config_path)
    alpha = _pick(alpha, config, "alpha", None)
    m = _pick(m, config, "m", None)
    l_ = _pick(l_, config, "l", None)
    tol = _pick(tol, config, "tol", 1e-12)
    fmt = _pick(fmt, config, "format", "csv")
    out = _pick(out, config, "out", None)
    if alpha is None or m is None or l_ is None:
        _fail("--alpha, --m and --l are required", EXIT_VALIDATION)
    zs = list(z_values) or list(config.get("z", []))
    if not zs:
        z_min = _pick(z_min, config, "z_min", None)
        z_max = _pick(z_max, config, "z_max", None)
        if z_min is None or z_max is None:
            _fail("give --z values or a --z-min/--z-max grid", EXIT_VALIDATION)
        z_points = _pick(z_points, config, "z_points", 41)
        zs = list(np.linspace(z_min, z_max, z_points))
    try:
        params = KilbasSaigoParams(alpha=alpha, m=m, l=l_)
    except DomainError as exc:
        _fail(str(exc), EXIT_VALIDATION)
    rows = []
    all_converged = True
    for z in zs:
        report = kilbas_saigo(params, complex(z), tol=tol)
        all_converged = all_converged and report.converged
        rows.append(
            [float(z), report.value.real, report.value.imag, report.terms_used, report.converged]
        )
    meta = {"alpha": alpha, "m": m, "l": l_, "tol": tol}
    config = RunConfig(params=meta, fmt=fmt, out=out)
    _write_table(config, "eval-ks", ["z", "re_value", "im_value", "terms_used", "converged"], rows)
    if not all_converged:
        _fail("series did not converge at every point", EXIT_NONCONVERGENCE)


def _check_grid(y_max: float, points: int, min_points: int = 1) -> None:
    if not 0.0 < y_max < math.inf:
        raise ValueError(f"--y-max must be positive and finite, got {y_max}")
    if points < min_points:
        raise ValueError(f"--points must be >= {min_points}, got {points}")


def _grid(y_max: float, points: int) -> np.ndarray:
    """Uniform grid on (0, y_max], origin excluded."""
    h = y_max / points
    return h * np.arange(1, points + 1)


@cli.command("fundamental")
@problem_options
@click.option("--s", "s_", type=int, default=None, help="Branch index 0..i-1 (default 0).")
@click.option("--y-max", type=float, default=None, help="Grid endpoint (default 1).")
@click.option("--points", type=int, default=None, help="Grid size (default 512).")
@click.option("--tol", type=float, default=None, help="Truncation tolerance.")
@output_options
def cmd_fundamental(alpha, beta, mu, i_, m, lambda_re, lambda_im, s_, y_max, points, tol,
                    fmt, out, config_path):
    """Tabulate one fundamental solution u_s on (0, y_max]."""
    config = _load_config(config_path)
    alpha = _pick(alpha, config, "alpha", None)
    beta = _pick(beta, config, "beta", None)
    mu = _pick(mu, config, "mu", None)
    i_ = _pick(i_, config, "i", 1)
    m = _pick(m, config, "m", 0.0)
    lambda_re = _pick(lambda_re, config, "lambda_re", 0.0)
    lambda_im = _pick(lambda_im, config, "lambda_im", 0.0)
    s_ = _pick(s_, config, "s", 0)
    y_max = _pick(y_max, config, "y_max", 1.0)
    points = _pick(points, config, "points", 512)
    tol = _pick(tol, config, "tol", 1e-12)
    fmt = _pick(fmt, config, "format", "csv")
    out = _pick(out, config, "out", None)
    if alpha is None or beta is None or mu is None:
        _fail("--alpha, --beta and --mu are required", EXIT_VALIDATION)
    try:
        _check_grid(y_max, points)
        problem = _build_problem(alpha, beta, mu, i_, m, lambda_re, lambda_im)
        if not 0 <= s_ <= i_ - 1:
            raise DomainError(f"branch s must lie in 0..{i_ - 1}, got s={s_}")
        sol = fundamental_solution(problem, s_)
    except (DomainError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
    derived = derive_params(problem)
    ks = sol.kilbas_saigo_params()
    ys = _grid(y_max, points)
    rows = []
    all_converged = True
    for y in ys:
        report = sol.evaluate_report(float(y), tol=tol)
        all_converged = all_converged and report.converged
        rows.append([float(y), report.value.real, report.value.imag])
    meta = {
        "gamma": derived.gamma,
        "a": derived.a,
        "b_s": derived.b[s_],
        "ks_alpha": ks.alpha,
        "ks_m": ks.m,
        "ks_l": ks.l,
    }
    config = RunConfig(params=meta, fmt=fmt, out=out)
    _write_table(config, "fundamental", ["y", "re_u", "im_u"], rows)
    if not all_converged:
        _fail("series did not converge at every point", EXIT_NONCONVERGENCE)


@cli.command("solve")
@problem_options
@click.option("--phis", type=str, default=None, help="Initial data, comma-separated, i entries.")
@click.option("--y-max", type=float, default=None, help="Grid endpoint (default 1).")
@click.option("--points", type=int, default=None, help="Grid size (default 512).")
@click.option("--tol", type=float, default=None, help="Truncation tolerance.")
@output_options
def cmd_solve(alpha, beta, mu, i_, m, lambda_re, lambda_im, phis, y_max, points, tol,
              fmt, out, config_path):
    """Tabulate the Cauchy-type solution with data phi_0..phi_{i-1}."""
    config = _load_config(config_path)
    alpha = _pick(alpha, config, "alpha", None)
    beta = _pick(beta, config, "beta", None)
    mu = _pick(mu, config, "mu", None)
    i_ = _pick(i_, config, "i", 1)
    m = _pick(m, config, "m", 0.0)
    lambda_re = _pick(lambda_re, config, "lambda_re", 0.0)
    lambda_im = _pick(lambda_im, config, "lambda_im", 0.0)
    phis = _pick(phis, config, "phis", None)
    y_max = _pick(y_max, config, "y_max", 1.0)
    points = _pick(points, config, "points", 512)
    tol = _pick(tol, config, "tol", 1e-12)
    fmt = _pick(fmt, config, "format", "csv")
    out = _pick(out, config, "out", None)
    if alpha is None or beta is None or mu is None or phis is None:
        _fail("--alpha, --beta, --mu and --phis are required", EXIT_VALIDATION)
    try:
        _check_grid(y_max, points)
        problem = _build_problem(alpha, beta, mu, i_, m, lambda_re, lambda_im)
        phi_values = _parse_phis(phis, i_) if isinstance(phis, str) else [complex(p) for p in phis]
        sol = cauchy_solution(problem, phi_values)
    except (DomainError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)
    derived = derive_params(problem)
    ys = _grid(y_max, points)
    rows = []
    all_converged = True
    for y in ys:
        report = sol.evaluate_report(float(y), tol=tol)
        all_converged = all_converged and report.converged
        rows.append([float(y), report.value.real, report.value.imag])
    meta = {
        "gamma": derived.gamma,
        "a": derived.a,
        "b": ",".join(repr(b) for b in derived.b),
        "phis": ",".join(repr(p.real) if p.imag == 0 else str(p) for p in sol.phis),
    }
    config = RunConfig(params=meta, fmt=fmt, out=out)
    _write_table(config, "solve", ["y", "re_u", "im_u"], rows)
    if not all_converged:
        _fail("series did not converge at every point", EXIT_NONCONVERGENCE)


@cli.command("verify")
@problem_options
@click.option("--s", "s_", type=int, default=None, help="Single branch (default: all).")
@click.option("--k", "k_depth", type=int, default=None, help="Coefficient identity depth (default 200).")
@click.option("--phis", type=str, default=None, help="Initial data for the IC check (default 1,2,..).")
@click.option("--y-max", type=float, default=None, help="Residual grid endpoint (default 1).")
@click.option("--points", type=int, default=None, help="Residual grid size (default 512).")
@click.option("--tol", type=float, default=None, help="Truncation tolerance.")
@click.option("--corrupt-k", type=int, default=None, hidden=True,
              help="Test hook: corrupt coefficient c_k by a factor (1 + 1e-6).")
@output_options
def cmd_verify(alpha, beta, mu, i_, m, lambda_re, lambda_im, s_, k_depth, phis, y_max,
               points, tol, corrupt_k, fmt, out, config_path):
    """Run the verification suite; exit 0 only if every check passes."""
    config = _load_config(config_path)
    alpha = _pick(alpha, config, "alpha", None)
    beta = _pick(beta, config, "beta", None)
    mu = _pick(mu, config, "mu", None)
    i_ = _pick(i_, config, "i", 1)
    m = _pick(m, config, "m", 0.0)
    lambda_re = _pick(lambda_re, config, "lambda_re", 0.0)
    lambda_im = _pick(lambda_im, config, "lambda_im", 0.0)
    s_ = _pick(s_, config, "s", None)
    k_depth = _pick(k_depth, config, "k", 200)
    phis = _pick(phis, config, "phis", None)
    y_max = _pick(y_max, config, "y_max", 1.0)
    points = _pick(points, config, "points", 512)
    tol = _pick(tol, config, "tol", 1e-12)
    fmt = _pick(fmt, config, "format", "csv")
    out = _pick(out, config, "out", None)
    if alpha is None or beta is None or mu is None:
        _fail("--alpha, --beta and --mu are required", EXIT_VALIDATION)
    try:
        _check_grid(y_max, points, RESIDUAL_MIN_POINTS)
        if k_depth < 1:
            raise ValueError(f"--k must be >= 1, got {k_depth}")
        problem = _build_problem(alpha, beta, mu, i_, m, lambda_re, lambda_im)
        branches = [s_] if s_ is not None else list(range(i_))
        for s in branches:
            if not 0 <= s <= i_ - 1:
                raise DomainError(f"branch s must lie in 0..{i_ - 1}, got s={s}")
        phi_values = _parse_phis(phis, i_) if phis is not None else [
            complex(j + 1) for j in range(i_)
        ]
    except (DomainError, ValueError) as exc:
        _fail(str(exc), EXIT_VALIDATION)

    checks = []
    nonconverged = False
    for s in branches:
        coeffs = None
        if corrupt_k is not None:
            coeffs = coefficient_sequence(problem, s, k_depth)
            if not 0 < corrupt_k <= k_depth:
                _fail(f"--corrupt-k must lie in 1..{k_depth}", EXIT_VALIDATION)
            coeffs[corrupt_k] *= 1.0 + 1e-6
        err = residual_coefficient_identity(problem, s, k_depth, coeffs=coeffs)
        checks.append(
            {
                "name": "coefficient_identity",
                "branch": s,
                "metric": err,
                "threshold": COEFF_IDENTITY_THRESHOLD,
                "status": "pass" if err <= COEFF_IDENTITY_THRESHOLD else "fail",
            }
        )
        if i_ <= 2:
            report = residual_numeric(problem, s, y_max=y_max, n_points=points, tol=tol)
            nonconverged = nonconverged or not report.converged
            checks.append(
                {
                    "name": "numeric_residual",
                    "branch": s,
                    "metric": report.max_rel_error,
                    "threshold": RESIDUAL_THRESHOLD,
                    "status": "pass" if report.max_rel_error <= RESIDUAL_THRESHOLD else "fail",
                }
            )
        else:
            checks.append(
                {
                    "name": "numeric_residual",
                    "branch": s,
                    "metric": None,
                    "threshold": RESIDUAL_THRESHOLD,
                    "status": "skipped",
                }
            )
    if i_ <= 2:
        ic_errors = initial_condition_check(problem, phi_values, tol=tol)
        for j, err in enumerate(ic_errors):
            checks.append(
                {
                    "name": "initial_condition",
                    "branch": j,
                    "metric": err,
                    "threshold": IC_THRESHOLD,
                    "status": "pass" if err <= IC_THRESHOLD else "fail",
                }
            )
    else:
        checks.append(
            {
                "name": "initial_condition",
                "branch": None,
                "metric": None,
                "threshold": IC_THRESHOLD,
                "status": "skipped",
            }
        )

    failed = [c for c in checks if c["status"] == "fail"]
    meta = {
        "alpha": alpha, "beta": beta, "mu": mu, "i": i_, "m": m,
        "lambda_re": lambda_re, "lambda_im": lambda_im,
        "passed": not failed,
    }
    columns = ["name", "branch", "metric", "threshold", "status"]
    rows = [[c["name"], c["branch"], c["metric"], c["threshold"], c["status"]] for c in checks]
    config = RunConfig(params=meta, fmt=fmt, out=out)
    _write_table(config, "verify", columns, rows)
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
