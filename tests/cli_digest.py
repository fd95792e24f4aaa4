"""One SHA-256 over the output bytes and exit codes of a fixed list of CLI commands.

Run on two trees, it tells whether a change moved any byte the command line
writes:

    PYTHONPATH=src python tests/cli_digest.py

Each command runs as `python -m bihilfer.cli ...` in a child process, with
the bihilfer package this script imports. The commands, in this order:
- the cli-session and verify-fine commands of bench/workloads.py, at both
  sizes, each as CSV and as JSON;
- every `bihilfer ...` line of README.md's `sh` blocks;
- the four known-limit commands of README.md;
- table commands on every route of a branch: the contour rule at a complex
  lambda, its series fallback below the rule's floor, and powers of y that
  overflow;
- --help, --version and a subcommand's --help;
- one command each for exits 1 (a bad --tol, and a usage error), 2 and 3.

Each command is hashed as its arguments, its exit code, then its stdout and
stderr bytes, each preceded by its length. The script prints the digest and
the number of commands; with -v it also prints each command's exit code and
a digest of its own.
pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import hashlib
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

import bihilfer  # noqa: E402

_I1 = ["--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1"]

KNOWN_LIMITS = [
    ["fundamental", *_I1, "--m", "1", "--lambda-re", "-20"],
    ["eval-ks", "--alpha", "0.3", "--m", "1", "--l", "1", "--z", "-3"],
    ["verify", *_I1[:6], "--lambda-re", "-0.001"],
    ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z", "-8", "--tol", "1e-15"],
]

ROUTES = [
    ["fundamental", *_I1, "--lambda-re", "-2", "--lambda-im", "3", "--y-max", "4",
     "--points", "256"],
    ["solve", *_I1[:6], "--lambda-re", "-50", "--phis", "1", "--y-max", "2", "--points", "103",
     "--tol", "1e-15"],
    ["fundamental", *_I1, "--lambda-re", "-1", "--y-max", "1e300", "--points", "64"],
    ["fundamental", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
     "--lambda-re", "-2", "--lambda-im", "1", "--s", "1", "--y-max", "1e300", "--points", "64"],
    ["solve", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
     "--lambda-re", "-2", "--lambda-im", "1", "--phis", "0,0", "--points", "8"],
]

OTHERS = [
    ["--help"],
    ["--version"],
    ["fundamental", "--help"],
    ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z", "1", "--tol", "5"],
    ["eval-ks", "--alpha", "0.5"],
    ["verify", *_I1, "--m", "0", "--lambda-re", "1", "--points", "16", "--k", "100"],
    ["eval-ks", "--alpha", "0.3", "--m", "1", "--l", "0", "--z", "50"],
]


def readme_commands() -> list[list[str]]:
    """The arguments of every `bihilfer ...` line in README.md's sh blocks."""
    commands, in_sh = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("bihilfer "):
            commands.append(shlex.split(line)[1:])
    return commands


def commands() -> list[list[str]]:
    out = []
    for workload in ("cli-session", "verify-fine"):
        for smoke in (True, False):
            for cmd in workloads.cli_commands(workload, smoke):
                out += [cmd["args"], [*cmd["args"], "--format", "json"]]
    return out + readme_commands() + KNOWN_LIMITS + ROUTES + OTHERS


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(bihilfer.__file__).resolve().parents[1]))
    verbose = "-v" in sys.argv[1:]
    digest, count = hashlib.sha256(), 0
    for args in commands():
        run = subprocess.run([sys.executable, "-m", "bihilfer.cli", *args], env=env,
                             capture_output=True, check=False)
        one = hashlib.sha256()
        for chunk in (shlex.join(args).encode(), struct.pack("<q", run.returncode)):
            one.update(chunk)
        for stream in (run.stdout, run.stderr):
            one.update(struct.pack("<q", len(stream)) + stream)
        digest.update(one.digest())
        count += 1
        if verbose:
            print(f"{run.returncode:4d} {one.hexdigest()[:16]} {shlex.join(args)}")
    print(f"{digest.hexdigest()}  {count} commands")


if __name__ == "__main__":
    main()
