"""Command-line front end.

Subcommands: ``eval-ks`` (Kilbas-Saigo function tables), ``fundamental``
(one branch of the fundamental system), ``solve`` (Cauchy-type problem) and
``verify`` (coefficient identity, numeric residual, initial conditions).

Tables are written as CSV (RFC-4180-style quoting, ``#``-prefixed metadata
lines before the header row) or schema-versioned JSON. Complex values are
always split into real/imaginary columns. Exit codes: 0 success,
1 validation error, 2 verification failure, 3 non-convergence, 141 the
reader closed stdout before the table was written.

Each command checks its options and returns a table() giving (meta,
columns, rows, failure); Cli.main alone turns a bad option into exit 1,
opens --out, writes the table and exits with the failure's code.

The command line is parsed by the standard library's argparse: each table
is a fresh process, and start-up is most of what a small one costs.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys

from . import __version__
from .errors import DomainError

# The engine modules, and numpy with them, are imported inside the commands
# that run them: each process compiles what it imports unless bytecode caches
# are written, so --version and --help load none of them, eval-ks only
# special_functions, and fundamental and solve the solver; only verify loads
# numpy. json and csv are imported by the helpers that read a config file or
# write a table, for the same reason.

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VERIFICATION = 2
EXIT_NONCONVERGENCE = 3
# A shell's status for a process that SIGPIPE ends, 128 + 13.
EXIT_BROKEN_PIPE = 141

COEFF_IDENTITY_THRESHOLD = 1e-12
RESIDUAL_THRESHOLD = 5e-3
IC_THRESHOLD = 1e-6

NONCONVERGED = ("series did not converge at every point", EXIT_NONCONVERGENCE)


class _Parser(argparse.ArgumentParser):
    """argparse's usage errors (a missing or malformed option, a bad config
    file, an unknown or missing subcommand) are validation errors, so they
    exit 1, not argparse's 2, which is EXIT_VERIFICATION here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _phis(text: str) -> list[complex]:
    """Initial data phi_0..phi_{i-1}, comma-separated."""
    try:
        return [complex(float(part)) for part in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}")


def _check_tol(tol: float) -> None:
    """The series engine needs 0 < tol < 1; nan and inf are rejected too."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"--tol must lie in (0, 1), got {tol}")


def _open_out(out: "str | None") -> "io.TextIOBase | None":
    """The --out file opened for writing, or None for stdout: opened after
    validation and before computing, so a bad path fails at once."""
    try:
        return open(out, "w", encoding="utf-8", newline="") if out else None
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}")


def _write_table(command: str, meta: dict, columns: list[str], rows: list[list], fmt: str,
                 out: "io.TextIOBase | None") -> None:
    if fmt == "json":
        import json

        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            **meta,
            "columns": columns,
            "rows": [{col: _json_value(value) for col, value in zip(columns, row)} for row in rows],
        }
        text = json.dumps(doc, indent=2, allow_nan=False)
    else:
        import csv

        buf = io.StringIO()
        for key, value in meta.items():
            buf.write(f"# {key}={value}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        # csv writes a float as its repr, the shortest string that reads back
        # to the same bits.
        writer.writerows(rows)
        text = buf.getvalue()
    # Flushed, so that the table comes before an error line in a stream that
    # carries both.
    print(text, end="" if text.endswith("\n") else "\n", file=out, flush=True)
    if out is not None:
        out.close()


def _json_value(value):
    """A non-finite float as the text the CSV carries ("nan", "inf" or
    "-inf"), which float() reads back: JSON has no number for it."""
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


def _build_problem(alpha, beta, mu, i, m, lambda_re, lambda_im) -> "DegenerateProblem":
    from .solver import DegenerateProblem, OrderTriple

    orders = OrderTriple(alpha=alpha, beta=beta, mu=mu, i=i)
    return DegenerateProblem(orders=orders, m=m, lam=complex(lambda_re, lambda_im))


def _at_least(flag: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{flag} must be >= {minimum}, got {value}")


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num).tolist() in Python floats: k*step +
    start (k/div*delta where the step underflows to 0), the last point set to
    stop. A span past the double range is refused."""
    delta = stop - start
    if not math.isfinite(delta):
        raise ValueError(f"the span from --z-min to --z-max must be finite, got {delta}")
    div = num - 1
    if div == 0:
        return [0.0 * delta + start]
    step = delta / div
    zs = [(k / div * delta if step == 0 else k * step) + start for k in range(num)]
    zs[-1] = stop
    return zs


def _check_grid(y_max: float, points: int, min_points: int = 1, order: int = 0) -> None:
    """A grid of `points` steps up to y_max, on which a grid derivative of
    `order` divides by step**order."""
    if not 0.0 < y_max < math.inf:
        raise ValueError(f"--y-max must be positive and finite, got {y_max}")
    _at_least("--points", points, min_points)
    step = y_max / points
    if step == 0.0:
        raise ValueError(f"the grid step --y-max / --points underflows to 0 "
                         f"(--y-max {y_max}, --points {points})")
    try:
        step**-order
    except OverflowError:
        raise ValueError(f"the grid step --y-max / --points is too small for a derivative "
                         f"of order {order}: step**-{order} overflows "
                         f"(--y-max {y_max}, --points {points})") from None


def cmd_eval_ks(alpha, m, l, z, z_min, z_max, z_points, tol):
    """Tabulate the Kilbas-Saigo function E_{alpha,m,l}(z)."""
    from .special_functions import KilbasSaigoParams, kilbas_saigo

    zs = z or []
    for flag, value in [("--z-min", z_min), ("--z-max", z_max)] + [("--z", v) for v in zs]:
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if zs and (z_min is not None or z_max is not None):
        raise ValueError("give --z values or a --z-min/--z-max grid, not both")
    if not zs:
        if z_min is None or z_max is None:
            raise ValueError("give --z values or a --z-min/--z-max grid")
        _at_least("--z-points", z_points, 1)
        zs = _linspace(z_min, z_max, z_points)
    params = KilbasSaigoParams(alpha=alpha, m=m, l=l)

    def table():
        reports = [kilbas_saigo(params, point, tol) for point in zs]
        rows = [[point, r.value.real, r.value.imag, r.terms_used, r.converged]
                for point, r in zip(zs, reports)]
        meta = {"alpha": alpha, "m": m, "l": l, "tol": tol}
        columns = ["z", "re_value", "im_value", "terms_used", "converged"]
        return meta, columns, rows, None if all(r.converged for r in reports) else NONCONVERGED

    return table


def _solution_table(sol, meta: dict, y_max: float, points: int, tol: float):
    """The table() of a solution: rows [y, re_u, im_u] on the uniform grid of
    (0, y_max], origin excluded; it fails unless every point converged."""

    def table():
        h = y_max / points
        ys = [h * k for k in range(1, points + 1)]
        reports = sol.evaluate(ys, tol)
        rows = [[y, r.value.real, r.value.imag] for y, r in zip(ys, reports)]
        failure = None if all(r.converged for r in reports) else NONCONVERGED
        return meta, ["y", "re_u", "im_u"], rows, failure

    return table


def cmd_fundamental(alpha, beta, mu, i, m, lambda_re, lambda_im, s, y_max, points, tol):
    """Tabulate one fundamental solution u_s on (0, y_max]."""
    from .solver import fundamental_solution

    _check_grid(y_max, points)
    problem = _build_problem(alpha, beta, mu, i, m, lambda_re, lambda_im)
    sol = fundamental_solution(problem, s)
    ks = sol.kilbas_saigo_params()
    meta = {
        "gamma": ks.alpha,
        "a": sol.a,
        "b_s": sol.b,
        "ks_alpha": ks.alpha,
        "ks_m": ks.m,
        "ks_l": ks.l,
    }
    return _solution_table(sol, meta, y_max, points, tol)


def cmd_solve(alpha, beta, mu, i, m, lambda_re, lambda_im, phis, y_max, points, tol):
    """Tabulate the Cauchy-type solution with data phi_0..phi_{i-1}."""
    from .solver import cauchy_solution, derive_params

    _check_grid(y_max, points)
    problem = _build_problem(alpha, beta, mu, i, m, lambda_re, lambda_im)
    sol = cauchy_solution(problem, phis)
    derived = derive_params(problem)
    meta = {
        "gamma": derived.gamma,
        "a": derived.a,
        "b": ",".join(repr(b) for b in derived.b),
        "phis": ",".join(repr(p.real) if p.imag == 0 else str(p) for p in sol.phis),
    }
    return _solution_table(sol, meta, y_max, points, tol)


def cmd_verify(alpha, beta, mu, i, m, lambda_re, lambda_im, s, k, phis, y_max, points, tol):
    """Run the verification suite; exit 0 only if every check passes."""
    from .solver import cauchy_solution, fundamental_solution
    from .verification import (
        initial_condition_check,
        residual_coefficient_identity,
        residual_min_points,
        residual_numeric,
    )

    _check_grid(y_max, points, residual_min_points(i), i)
    _at_least("--k", k, 1)
    problem = _build_problem(alpha, beta, mu, i, m, lambda_re, lambda_im)
    if s is not None:
        fundamental_solution(problem, s)  # rejects a branch outside 0..i-1
    branches = [s] if s is not None else list(range(i))
    if phis is None:
        phis = [complex(j + 1) for j in range(i)]
    cauchy_solution(problem, phis)  # rejects phis of the wrong length or not finite

    def table():
        checks, nonconverged = [], False  # checks as (name, branch, metric, threshold)
        for branch in branches:
            err = residual_coefficient_identity(problem, branch, k)
            checks.append(("coefficient_identity", branch, err, COEFF_IDENTITY_THRESHOLD))
            report = residual_numeric(problem, branch, y_max=y_max, n_points=points, tol=tol)
            nonconverged = nonconverged or not report.converged
            checks.append(("numeric_residual", branch, report.max_rel_error, RESIDUAL_THRESHOLD))
        ic_errors = initial_condition_check(problem, phis, tol=tol)
        checks.extend(("initial_condition", j, err, IC_THRESHOLD) for j, err in enumerate(ic_errors))
        rows = [[*check, "pass" if check[2] <= check[3] else "fail"] for check in checks]
        failed = [row for row in rows if row[4] == "fail"]
        meta = {"alpha": alpha, "beta": beta, "mu": mu, "i": i, "m": m, "lambda_re": lambda_re,
                "lambda_im": lambda_im, "passed": not failed}
        columns = ["name", "branch", "metric", "threshold", "status"]
        failure = None
        if nonconverged:
            failure = ("series evaluation did not converge during the residual check",
                       EXIT_NONCONVERGENCE)
        elif failed:
            names = ", ".join(f"{name}(branch {branch}): {metric:.3e} > {threshold:.0e}"
                              for name, branch, metric, threshold, _ in failed)
            failure = (f"verification failed: {names}", EXIT_VERIFICATION)
        return meta, columns, rows, failure

    return table


DESCRIPTION = ("Degenerate fractional equations with the bi-ordinal Hilfer derivative: evaluate "
               "Kilbas-Saigo functions, build fundamental and Cauchy-type solutions, and verify "
               "them independently.")

# Each option as (flag, type, default, help). REQUIRED marks an option that
# must be given, and a tuple of strings as the type lists its choices.
REQUIRED = object()

PROBLEM_OPTIONS = [
    ("--alpha", float, REQUIRED, "Left order alpha."),
    ("--beta", float, REQUIRED, "Right order beta."),
    ("--mu", float, REQUIRED, "Interpolation weight in [0, 1]."),
    ("--i", int, 1, "Integer order window index."),
    ("--m", float, 0.0, "Degeneracy exponent m >= 0."),
    ("--lambda-re", float, 0.0, "Re(lambda)."),
    ("--lambda-im", float, 0.0, "Im(lambda)."),
]
GRID_OPTIONS = [
    ("--y-max", float, 1.0, "Grid endpoint."),
    ("--points", int, 512, "Grid size."),
]
COMMON_OPTIONS = [
    ("--tol", float, 1e-12, "Truncation tolerance, 0 < tol < 1."),
    ("--format", ("csv", "json"), "csv", "Output format."),
    ("--out", str, None, "Output path (default stdout)."),
    ("--config", str, None, "JSON file with defaults for any option; explicit flags win."),
]

COMMANDS = {
    "eval-ks": (cmd_eval_ks, [
        ("--alpha", float, REQUIRED, "Series order alpha > 0."),
        ("--m", float, REQUIRED, "Series step m > 0."),
        ("--l", float, REQUIRED, "Series shift l (alpha*l > -1)."),
        ("--z", float, None, "Evaluation point; repeatable."),
        ("--z-min", float, None, "Grid start (with --z-max/--z-points)."),
        ("--z-max", float, None, "Grid end."),
        ("--z-points", int, 41, "Grid size."),
        *COMMON_OPTIONS,
    ]),
    "fundamental": (cmd_fundamental, [
        *PROBLEM_OPTIONS,
        ("--s", int, 0, "Branch index 0..i-1."),
        *GRID_OPTIONS,
        *COMMON_OPTIONS,
    ]),
    "solve": (cmd_solve, [
        *PROBLEM_OPTIONS,
        ("--phis", _phis, REQUIRED, "Initial data, i entries."),
        *GRID_OPTIONS,
        *COMMON_OPTIONS,
    ]),
    "verify": (cmd_verify, [
        *PROBLEM_OPTIONS,
        ("--s", int, None, "Single branch (default: all)."),
        ("--k", int, 200, "Coefficient identity depth."),
        ("--phis", _phis, None, "Initial data for the IC check (default 1,2,..)."),
        *GRID_OPTIONS,
        *COMMON_OPTIONS,
    ]),
}
# Every option takes a value. A config file names an option by its flag
# without the leading -- and with - turned into _ (lambda_re), and only --z
# and --phis take a list there.
VALUE_FLAGS = {flag for _, options in COMMANDS.values() for flag, *_ in options}
CONFIG_KEYS = {flag[2:].replace("-", "_"): flag for flag in VALUE_FLAGS}
LIST_FLAGS = ("--z", "--phis")


def _parser(command: str) -> tuple[_Parser, dict[str, _Parser]]:
    """The bihilfer parser and its subcommand parsers by name. Only the
    parser of `command`, the one the command line names, gets its options:
    no other parses anything, and the others would cost a process more
    than its parse does. No flag is abbreviated, there is no -h, and --help
    shows each default."""
    parser = _Parser(prog="bihilfer", description=DESCRIPTION, add_help=False, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"bihilfer, version {__version__}",
                        help="Show the version and exit.")
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (run, options) in COMMANDS.items():
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, add_help=False,
                                  allow_abbrev=False)
        for flag, kind, default, help in options if name == command else []:
            required = default is REQUIRED
            if required:
                default, help = None, help + "  [required]"
            elif default is not None:
                help += "  [default: %(default)s]"
            sub.add_argument(flag, default=default, required=required, help=help,
                             action="append" if flag == "--z" else "store",
                             **({"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
        sub.add_argument("--help", action="help", help="Show this message and exit.")
    return parser, commands.choices


def _joined(tokens: list[str]) -> list[str]:
    """tokens with each option and the value after it joined into one
    `--flag=value`, so that argparse takes a value such as -inf or -1.7e308
    as the value and not as an option."""
    joined: list[str] = []
    for token in tokens:
        if joined and joined[-1] in VALUE_FLAGS:
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def _with_config(tokens: list[str], commands: dict[str, _Parser]) -> list[str]:
    """tokens with the values of the (last) --config file put in after the
    subcommand name as the `--flag=value` tokens they stand for, so that
    argparse checks them as it checks flags. A key whose flag is on the
    command line is left out, so explicit flags win; a key of another
    subcommand is accepted and left out, so one file can feed several; a
    key that no subcommand takes, or a list for an option but --z and
    --phis, is refused."""
    parser = commands.get(tokens[0]) if tokens else None
    paths = [token[len("--config="):] for token in tokens if token.startswith("--config=")]
    if parser is None or not paths:
        return tokens
    import json

    def refuse(message: str) -> None:
        parser.error(f"argument --config: {message}")

    try:
        with open(paths[-1], "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        refuse(f"cannot read {paths[-1]}: {exc.strerror}")
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        refuse(f"not valid JSON: {exc}")
    if not isinstance(data, dict):
        refuse("config file must contain a JSON object")
    unknown = [key for key in data if key not in CONFIG_KEYS]
    if unknown:
        refuse(f"no subcommand takes {', '.join(map(repr, unknown))}")
    scalar = [key for key, value in data.items()
              if isinstance(value, list) and CONFIG_KEYS[key] not in LIST_FLAGS]
    if scalar:
        refuse(f"{', '.join(map(repr, scalar))} takes one value, not a list")
    given = {token.partition("=")[0] for token in tokens}
    takes = {flag for flag, *_ in COMMANDS[tokens[0]][1]}
    added = []
    for key, value in data.items():
        flag = CONFIG_KEYS[key]
        if value is None or flag in given or flag not in takes:
            continue
        # A number or boolean as its JSON text, so that it is refused where
        # its flag is: 2.9 or true for an integer, true for a number.
        texts = [item if isinstance(item, str) else json.dumps(item)
                 for item in (value if isinstance(value, list) else [value])]
        # --z repeats; a list of phis is one comma-separated --phis.
        added += [f"--z={text}" for text in texts] if flag == "--z" else [f"{flag}={','.join(texts)}"]
    return [tokens[0], *added, *tokens[1:]]


class Cli:
    """The bihilfer command line."""

    def main(self, args: "list[str] | None" = None, standalone_mode: bool = True) -> None:
        """Parse args (sys.argv[1:] by default) and run the command. The
        command returns when it succeeds; --help, --version, a usage error and
        a failed command raise SystemExit with the exit code.
        standalone_mode, click's flag, changes nothing: bench/child.py runs
        commands in-process as main(args, standalone_mode=False). A bad
        --tol, a bad option and an --out that cannot be opened exit 1, in
        that order, before the table is computed. Where the reader closes
        stdout before the table is written, the command ends quietly with
        exit 141, stdout pointed at os.devnull so that no later flush
        raises."""
        tokens = _joined(sys.argv[1:] if args is None else list(args))
        parser, commands = _parser(tokens[0] if tokens else "")
        options = vars(parser.parse_args(_with_config(tokens, commands)))
        command = options.pop("command")
        fmt, out = options.pop("format"), options.pop("out")
        del options["config"]
        try:
            _check_tol(options["tol"])
            table = COMMANDS[command][0](**options)
            out = _open_out(out)
        except (DomainError, ValueError) as exc:
            failure = (str(exc), EXIT_VALIDATION)
        else:
            meta, columns, rows, failure = table()
            try:
                _write_table(command, meta, columns, rows, fmt, out)
            except BrokenPipeError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                sys.exit(EXIT_BROKEN_PIPE)
        if failure is not None:
            message, code = failure
            print(f"error: {message}", file=sys.stderr)
            sys.exit(code)


cli = Cli()


def main() -> None:
    cli.main()


if __name__ == "__main__":
    main()
