"""Benchmark of bihilfer: one entry point for every workload.

    python3 bench/run.py --workload {cli-session,verify-fine,ks-sweep}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the package is taken from ./src.
One closed-loop client issues one call or child process at a time.

A run makes a fixed number of sessions, as many as fit in --seconds at the
reference machine speed of bench/speed.py (workloads.session_count), so its
work depends on the seed and --seconds alone. --trace 0 measures the
end-to-end metrics with nothing wrapped: the CLI workloads run
`python -m bihilfer.cli` child processes, ks-sweep runs kilbas_saigo in
child sessions (bench/child.py). Timings are scaled to the reference speed
by the loop timed around each command (bench/speed.py); the unscaled
figures are printed too. --trace 1 runs the same work in-process, in
alternating untraced children and children with every public layer function
wrapped, and reports the per-layer metrics. Every output is
checked against an mpmath reference (bench/oracle.py). --smoke shrinks every
input so that all workloads, the oracle check and the trace run in seconds.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. `correct` is false when
a command or session that reported success left output that is missing,
malformed or incomplete, so that it could not be checked. `failed` counts operations (table rows, verify checks, evaluations)
that crashed, exited 1 or 2, were flagged non-converged or fall outside the
oracle tolerance.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
import workloads
from oracle import Oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLE_CACHE = BENCH_DIR / ".oracle_cache.json"

# A value passes when |got - ref| <= RTOL*|ref| + ATOL: eight correct digits,
# far looser than the 1e-12 truncation tolerance the program reports.
RTOL = 1e-8
ATOL = 1e-12
SETUP_REPS = 10
# verify on an i=2 problem: coefficient identity, numeric residual and
# initial condition, once per branch.
VERIFY_CHECKS = 6
TAIL_BEYOND = 10

# Metric names and units, and the workloads with their reasons, are
# declared once, in BENCHMARK.json.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
WHY = {w["name"]: w["why"] for w in DECLARED["workloads"]}


class Tally:
    """Checked operations of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.silent_wrong = 0
        self.malformed: list[str] = []

    def add(self, *, wrong: bool, flagged: bool, exit_code: int) -> None:
        """One operation: `wrong` is outside the oracle tolerance, `flagged`
        is reported non-converged."""
        self.attempted += 1
        if wrong or flagged or exit_code != 0:
            self.failed += 1
            if wrong and not flagged and exit_code == 0:
                self.silent_wrong += 1

    def lost(self, count: int, why: str) -> None:
        """Operations whose output could not be checked at all."""
        self.attempted += count
        self.failed += count
        self.malformed.append(why)


# ---------------------------------------------------------------- processes

def spawn(argv: list[str], env: dict, stderr: str,
          samples: "list[float] | None" = None) -> tuple[float, int, float]:
    """Run a child to completion, stdout discarded and stderr to a file:
    (wall seconds, exit code, peak RSS in MB). With `samples`, the reference
    loop is timed into it every speed.SAMPLE_EVERY_S while the child runs.

    The RSS is this child's own ru_maxrss from wait4; RUSAGE_CHILDREN would
    give the largest of all children waited for so far."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr, flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        if samples is not None:
            # The pidfd turns readable when the child exits, so the wait
            # below ends the wall time without polling delay.
            with open(os.pidfd_open(pid), "rb", buffering=0) as pidfd:
                while not select.select([pidfd], [], [], speed.SAMPLE_EVERY_S)[0]:
                    samples.append(speed.sample_s())
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return time.perf_counter() - t0, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---------------------------------------------------------------- checking

# verify writes some metrics as the repr of a numpy scalar, np.float64(...).
_NUMBER = re.compile(r"^(?:np\.float64\()?([^()]*)\)?$")


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("# ") and ln.strip()]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def is_wrong(got: complex, ref: complex) -> bool:
    return not abs(got - ref) <= RTOL * abs(ref) + ATOL


def check_command(cmd: dict, path: Path, code: int, ref: dict, tally: Tally) -> None:
    """Check one command's table against its reference values."""
    expected = {"eval-ks": len(cmd.get("z", ())), "table": len(ref.get("rows", ())),
                "verify": VERIFY_CHECKS}[cmd["kind"]]
    if code not in (0, 3):
        for _ in range(expected):
            tally.add(wrong=False, flagged=False, exit_code=code)
        return
    try:
        header, rows = read_table(path)
    except (OSError, IndexError, csv.Error) as exc:
        tally.lost(expected, f"{cmd['args'][0]}: unreadable output ({exc})")
        return
    outcomes = []  # (wrong, flagged) per checked row
    try:
        if cmd["kind"] == "eval-ks":
            if header != ["z", "re_value", "im_value", "terms_used", "converged"] or len(rows) != expected:
                raise ValueError("wrong shape")
            for row, z in zip(rows, cmd["z"]):
                if float(row[0]) != z:
                    raise ValueError(f"z grid differs at {row[0]}")
                got = complex(float(row[1]), float(row[2]))
                outcomes.append((is_wrong(got, ref[(cmd["triple"], complex(z))]), row[4] != "True"))
        elif cmd["kind"] == "table":
            h = cmd["y_max"] / cmd["points"]
            if header != ["y", "re_u", "im_u"] or len(rows) != cmd["points"]:
                raise ValueError("wrong shape")
            for r, value in zip(ref["rows"], ref["values"]):
                row = rows[r]
                if float(row[0]) != h * (r + 1):
                    raise ValueError(f"y grid differs at row {r}")
                outcomes.append((is_wrong(complex(float(row[1]), float(row[2])), value), code == 3))
        else:
            if header != ["name", "branch", "metric", "threshold", "status"] or len(rows) != expected:
                raise ValueError("wrong shape")
            for row in rows:
                float(_NUMBER.match(row[2]).group(1))
                outcomes.append((row[4] != "pass", code == 3))
    except (ValueError, IndexError, AttributeError) as exc:
        tally.lost(expected, f"{cmd['args'][0]}: malformed output ({exc})")
        return
    for wrong, flagged in outcomes:
        tally.add(wrong=wrong, flagged=flagged, exit_code=0)


def cli_references(commands: list[dict], seed: int, oracle: Oracle) -> list[dict]:
    """Reference values for every eval-ks row and a seeded subsample of the
    fundamental/solve rows, one dict per command."""
    out = []
    for cmd in commands:
        if cmd["kind"] == "eval-ks":
            out.append(oracle.lookup({cmd["triple"]: [complex(z) for z in cmd["z"]]}))
        elif cmd["kind"] == "table":
            rows = workloads.table_rows(cmd, seed)
            ref = oracle.lookup(workloads.table_reference_requests(cmd, rows))
            out.append({"rows": rows, "values": workloads.table_reference(cmd, rows, ref)})
        else:
            out.append({})
    return out


# ---------------------------------------------------------------- statistics

def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and
    its label; the maximum when there are too few samples for one."""
    xs = sorted(samples)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], f"max of n={n}, too few samples for a percentile with {TAIL_BEYOND} beyond"
    return xs[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.3f} of n={n}"


def metadata(args) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                             timeout=30).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git unavailable)"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "why": WHY[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke, "git_sha": sha,
        "python": platform.python_version(), "numpy": np.__version__,
        "click": importlib.metadata.version("click"), "mpmath": importlib.metadata.version("mpmath"),
        "nproc": os.cpu_count(), "cpu_model": cpu, "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "client": "closed loop, 1 client",
    }


# ---------------------------------------------------------------- workloads

def version_wall(work: Path, env: dict, reference: Reference) -> tuple[float, float]:
    """Scaled and unscaled wall time of `python -m bihilfer.cli --version`:
    interpreter start plus package import."""
    err = work / "version.err"
    scaled, wall, code, _ = reference.spawn([sys.executable, "-m", "bihilfer.cli", "--version"], env, str(err))
    if code != 0:
        raise RuntimeError(f"--version exited {code}: {err.read_text()}")
    return scaled, wall


class Reference:
    """Reference-loop timings (bench/speed.py) around and during measured
    child commands."""

    def __init__(self, share: float) -> None:
        self.share = share
        self.times = [speed.reference_s()]

    def spawn(self, argv: list[str], env: dict, stderr: str) -> tuple[float, float, int, float]:
        """spawn() with reference timings: (scaled wall, wall, exit code,
        peak RSS in MB)."""
        before, during = self.times[-1], []
        wall, code, peak = spawn(argv, env, stderr, during)
        self.times.append(speed.reference_s())
        return speed.scale(wall, [before, *during, self.times[-1]], self.share), wall, code, peak


def timings(setups: list[float], walls: list[float], per_session: int, rows_per_session: int) -> dict:
    """The timing metrics of a run whose sessions are `per_session` commands
    (sweep passes on ks-sweep) each, in order in `walls`.

    command_s_p50 is the median over sessions of the mean command time: a
    median over the commands themselves falls in the gap between two of a
    CLI session's four commands, and jumps between them from run to run."""
    sessions = [walls[i:i + per_session] for i in range(0, len(walls), per_session)]
    return {
        "setup_s": statistics.median(setups),
        "command_s_p50": statistics.median(statistics.fmean(s) for s in sessions),
        "command_s_tail": tail(walls)[0],
        "rows_per_s": statistics.median(rows_per_session / sum(s) for s in sessions),
    }


def report_speed(report, ref_times: list[float], share: float, raw: dict) -> None:
    ref = statistics.median(ref_times)
    report(f"reference loop median {1e3 * ref:.4f} ms over n={len(ref_times)} "
           f"(nominal {1e3 * speed.REFERENCE_NOMINAL_S:.4f} ms): machine at "
           f"{speed.REFERENCE_NOMINAL_S / ref:.3f}x the reference speed; timings scaled with share {share}")
    for name, value in raw.items():
        report(f"  unscaled {name} = {value:.6g}")


def run_cli(args, work: Path, oracle: Oracle, report) -> tuple[Tally, dict]:
    env = child_env()
    commands = workloads.cli_commands(args.workload, args.smoke)
    refs = cli_references(commands, args.seed, oracle)
    sessions = workloads.session_count(args.workload, args.seconds, False)
    tally = Tally()
    setups, raw_setups, walls, raw_walls, rss, by_cmd = [], [], [], [], [], {}
    rows_per_session = 0
    reference = Reference(workloads.SPEED_SHARE[args.workload])
    for session in range(sessions):
        # One set-up sample per session spreads them over the run, so that
        # drift in machine speed reaches set-up and commands alike.
        scaled, wall = version_wall(work, env, reference)
        setups.append(scaled)
        raw_setups.append(wall)
        for i, (cmd, ref) in enumerate(zip(commands, refs)):
            out, err = work / f"cmd{i}.csv", work / f"cmd{i}.err"
            argv = [sys.executable, "-m", "bihilfer.cli", *cmd["args"], "--out", str(out)]
            scaled, wall, code, peak = reference.spawn(argv, env, str(err))
            raw_walls.append(wall)
            walls.append(scaled)
            rss.append(peak)
            by_cmd.setdefault(cmd["args"][0], []).append(walls[-1])
            before = tally.attempted
            check_command(cmd, out, code, ref, tally)
            if session == 0:
                rows_per_session += cmd["points"] if cmd["kind"] == "table" else tally.attempted - before
            if code not in (0, 3):
                report(f"{cmd['args'][0]} exited {code}: {err.read_text().strip()[-400:]}")
            out.unlink(missing_ok=True)
    while len(setups) < (2 if args.smoke else SETUP_REPS):
        scaled, wall = version_wall(work, env, reference)
        setups.append(scaled)
        raw_setups.append(wall)
    metrics = timings(setups, walls, len(commands), rows_per_session)
    metrics["peak_rss_mb"] = max(rss)
    report(f"sessions={sessions} commands={len(walls)} rows/session={rows_per_session} "
           f"setup samples={len(setups)}")
    report(f"command_s_tail is the {tail(walls)[1]}")
    for name, ws in by_cmd.items():
        report(f"  {name}: median {statistics.median(ws):.4f} s over n={len(ws)}")
    report_speed(report, reference.times, reference.share, timings(raw_setups, raw_walls, len(commands), rows_per_session))
    return tally, metrics


def ks_spec(args) -> tuple[dict, list]:
    inputs = workloads.ks_inputs(args.seed, args.smoke)

    def as_json(entries):
        return [[triple, [[z.real, z.imag] for z in zs]] for triple, zs in entries]

    spec = {"mode": "ks", "src": str(SRC), "trace": False, "passes": inputs["passes"],
            "pool": as_json(inputs["pool"]), "fresh": as_json(inputs["fresh"])}
    return spec, workloads.ks_sequence(inputs)


def ks_references(seq: list, oracle: Oracle) -> np.ndarray:
    requests: dict = {}
    for triple, z, _ in seq:
        requests.setdefault(triple, set()).add(z)
    ref = oracle.lookup({t: list(zs) for t, zs in requests.items()})
    return np.array([ref[(triple, z)] for triple, z, _ in seq])


def check_ks(result_prefix: Path, code: int, ref: np.ndarray, tally: Tally) -> "dict | None":
    if code != 0:
        tally.lost(ref.size, f"ks session exited {code}")
        return None
    try:
        data = np.load(str(result_prefix) + ".npz")
        values, converged, dt = data["values"], data["converged"], data["dt"]
        if values.shape != ref.shape:
            raise ValueError(f"{values.size} values for {ref.size} evaluations")
    except (OSError, ValueError, KeyError) as exc:
        tally.lost(ref.size, f"ks session output unreadable ({exc})")
        return None
    wrong = ~(np.abs(values - ref) <= RTOL * np.abs(ref) + ATOL)
    failed = wrong | ~converged
    tally.attempted += ref.size
    tally.failed += int(failed.sum())
    tally.silent_wrong += int((wrong & converged).sum())
    return dt


def run_ks(args, work: Path, oracle: Oracle, report) -> tuple[Tally, dict]:
    spec, seq = ks_spec(args)
    ref = ks_references(seq, oracle)
    spec_path = work / "ks_spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = child_env()
    tally = Tally()
    setups, raw_setups, passes, raw_passes, dts, rss, ref_times = [], [], [], [], [], [], []
    share = workloads.SPEED_SHARE[args.workload]
    for session in range(workloads.session_count(args.workload, args.seconds, False)):
        prefix = work / f"ks{session}"
        argv = [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), str(prefix)]
        _, code, peak = spawn(argv, env, str(prefix) + ".err")
        rss.append(peak)
        dt = check_ks(prefix, code, ref, tally)
        if dt is None:
            report(f"ks session failed: {Path(str(prefix) + '.err').read_text().strip()[-400:]}")
            break
        info = json.loads(Path(str(prefix) + ".json").read_text(encoding="utf-8"))
        raw_setups.append(info["setup_s"])
        setups.append(speed.scale(info["setup_s"], info["setup_ref_s"], share))
        raw_passes.extend(info["pass_s"])
        passes.extend(speed.scale(wall, info["ref_s"][i:i + 2], share) for i, wall in enumerate(info["pass_s"]))
        ref_times.extend(info["ref_s"])
        dts.append(dt)
    if not dts:
        raise RuntimeError("no ks session completed")
    dt = np.concatenate(dts)
    metrics = timings(setups, passes, spec["passes"], ref.size)
    metrics["peak_rss_mb"] = max(rss)
    eval_tail, eval_tail_label = tail(dt.tolist())
    fresh = sum(1 for _, _, f in seq if f) / len(seq)
    negative = sum(1 for _, z, _ in seq if z.imag == 0 and z.real < 0) / len(seq)
    report(f"sessions={len(setups)} evaluations={dt.size} passes/session={spec['passes']} "
           f"pool_triples={len(spec['pool'])} fresh_triples/session={len(spec['fresh'])}")
    report(f"share of evaluations on fresh triples={fresh:.4f}, on z<0 real={negative:.4f}")
    report(f"a command is one pass of {dt.size // len(passes)} kilbas_saigo calls; "
           f"command_s_tail is the {tail(passes)[1]}")
    report(f"evals_per_s = {metrics['rows_per_s']:.6g} 1/s")
    report(f"eval_us_p50 = {1e6 * float(np.median(dt)):.6g} us (unscaled)")
    report(f"eval_us_tail = {1e6 * eval_tail:.6g} us ({eval_tail_label}, unscaled)")
    report_speed(report, ref_times, share, timings(raw_setups, raw_passes, spec["passes"], ref.size))
    return tally, metrics


# ---------------------------------------------------------------- trace

def aggregate(spans: list) -> dict:
    """calls, s and self_s per span name; self time is the span's duration
    minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1 in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    agg: dict = {}
    for sid, (name, parent, t0, t1) in enumerate(spans):
        a = agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "root_s": 0.0, "root_self_s": 0.0})
        a["calls"] += 1
        a["s"] += t1 - t0
        a["self_s"] += t1 - t0 - child[sid]
        if parent < 0:
            a["root_s"] += t1 - t0
            a["root_self_s"] += t1 - t0 - child[sid]
    return agg


def run_trace(args, work: Path, oracle: Oracle, report) -> tuple[Tally, dict]:
    """The workload's commands in-process, in alternating untraced and traced
    children, one pair per session."""
    tally = Tally()
    env = child_env()
    if args.workload == "ks-sweep":
        spec, seq = ks_spec(args)
        ref = ks_references(seq, oracle)
    else:
        commands = workloads.cli_commands(args.workload, args.smoke)
        refs = cli_references(commands, args.seed, oracle)
        spec = {"mode": "cli", "src": str(SRC),
                "commands": [[*c["args"], "--out", str(work / f"inproc{i}.csv")] for i, c in enumerate(commands)]}
    runs: dict = {False: [], True: []}
    for _ in range(workloads.session_count(args.workload, args.seconds, True)):
        for traced in (False, True):
            spec["trace"] = traced
            prefix = work / ("traced" if traced else "untraced")
            spec_path = work / f"{prefix.name}_spec.json"
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            _, code, _ = spawn([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path), str(prefix)],
                               env, str(prefix) + ".err")
            if code != 0:
                raise RuntimeError(f"trace child exited {code}: {Path(str(prefix) + '.err').read_text()[-800:]}")
            runs[traced].append(json.loads(Path(str(prefix) + ".json").read_text(encoding="utf-8")))
            if traced and args.workload == "ks-sweep":
                check_ks(prefix, 0, ref, tally)
            elif traced:
                for i, (cmd, c_ref, res) in enumerate(zip(commands, refs, runs[True][-1]["commands"])):
                    if res["exit"] not in (0, 3):
                        report(f"{cmd['args'][0]} exited {res['exit']} in-process: {res['error'][-400:]}")
                    check_command(cmd, work / f"inproc{i}.csv", res["exit"], c_ref, tally)
    # Per-layer numbers come from the traced run of median work time.
    work_s = {t: [r["work_s"] for r in runs[t]] for t in runs}
    traced = next(r for r in runs[True] if r["work_s"] == statistics.median_low(work_s[True]))
    agg = aggregate(traced["spans"])
    counters = traced["counters"]
    metrics = {}
    for name in PER_LAYER:
        fn, _, stat = name.rpartition(".")
        if name in counters:
            metrics[name] = counters[name]
        elif fn in agg and stat in ("calls", "s", "self_s"):
            metrics[name] = agg[fn][stat]
        else:
            metrics[name] = 0
    metrics["cli.import_s"] = traced.get("import_s", 0.0)
    roots = [a for a in agg.values() if a["root_s"] > 0]
    root_s = sum(a["root_s"] for a in roots)
    metrics["trace.overhead_s"] = statistics.median(work_s[True]) - statistics.median(work_s[False])
    metrics["trace.unaccounted_frac"] = sum(a["root_self_s"] for a in roots) / root_s if root_s else 0.0
    report(f"pairs={len(runs[True])} spans={len(traced['spans'])} median work traced="
           f"{statistics.median(work_s[True]):.4f} s, untraced={statistics.median(work_s[False]):.4f} s")
    report("trace.unaccounted_frac is the share of root-span time (cli.main per command, "
           "ks-sweep.pass per pass) not covered by a layer span; madds_computed is n^2/2-style "
           "arithmetic from array sizes, not a measurement")
    for name in sorted(agg):
        a = agg[name]
        report(f"  span {name}: calls={a['calls']} s={a['s']:.6f} self_s={a['self_s']:.6f}")
    return tally, metrics


# ---------------------------------------------------------------- main

def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, in-memory oracle")
    args = parser.parse_args(argv)
    if not (SRC / "bihilfer" / "cli.py").is_file():
        print(f"error: no bihilfer sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    def report(line: str) -> None:
        print(f"# {args.workload} {line}", flush=True)

    # The cores of a shared host run at different and changing speeds. On one
    # core, with every child inheriting the mask, the reference loop of
    # speed.py times the same core the measured commands run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("# meta " + json.dumps(metadata(args)), flush=True)
    oracle = Oracle(None if args.smoke else ORACLE_CACHE)
    work = BENCH_DIR / ".work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics = run_trace(args, work, oracle, report)
            units = PER_LAYER
        elif args.workload == "ks-sweep":
            tally, metrics = run_ks(args, work, oracle, report)
            units = END_TO_END
        else:
            tally, metrics = run_cli(args, work, oracle, report)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}")
    for why in tally.malformed:
        report(f"unchecked output: {why}")
    for name, value in metrics.items():
        report(f"{name} = {value:.6g} {units[name]}")
    report(f"failed_frac = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted} operations)")
    report(f"silent_wrong_frac = {tally.silent_wrong / tally.attempted:.6g} "
           f"({tally.silent_wrong}/{tally.attempted} outside rtol={RTOL:g}, atol={ATOL:g} "
           "while reported converged with exit 0)")
    print(json.dumps({
        "correct": not tally.malformed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
