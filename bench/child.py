"""Child process of the benchmark, started by run.py with its own interpreter.

    python3 child.py SPEC_JSON OUT_PREFIX

Runs, in this process and through public calls, either one ks-sweep session
(mode "ks") or a list of CLI commands through
``bihilfer.cli.cli.main(args, standalone_mode=False)`` (mode "cli"). With
"trace" set, the public functions of every layer are wrapped before the
work starts, and the spans are written out at the end. A ks-sweep session
times the reference loop of speed.py around its set-up and after every pass.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from collections import Counter

import speed


class Tracer:
    """Spans (name, parent id, start, end) kept in memory; the span id is
    its index. Counters are summed per name."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name, fn, count=None):
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, t0, t1)
            if count is not None:
                count(counters, name, args, result)
            return result

        return traced


def _count_terms(counters, name, args, report):
    counters[name + ".terms"] += report.terms_used
    if not report.converged:
        counters[name + ".nonconverged"] += 1


def _count_quadrature(counters, name, args, result):
    n = len(args[0])
    counters[name + ".points"] += n
    # Multiply-adds of the direct convolution for n samples: output j >= 2
    # needs j - 1 products. Computed from n, not measured.
    counters[name + ".madds_computed"] += (n - 2) * (n - 1) // 2


def install(tracer: Tracer) -> None:
    """Replace every public layer function, under every name any bihilfer
    module bound it to, by a traced wrapper."""
    import bihilfer
    from bihilfer import cli, fractional_ops, solver, special_functions, verification

    modules = [bihilfer, cli, solver, verification, fractional_ops, special_functions]
    functions = [
        ("solver.fundamental_solution", solver.fundamental_solution, None),
        ("solver.cauchy_solution", solver.cauchy_solution, None),
        ("solver.coefficient_sequence", solver.coefficient_sequence, None),
        ("fractional_ops.rl_integral_numeric", fractional_ops.rl_integral_numeric, _count_quadrature),
        ("fractional_ops.hilfer_numeric", fractional_ops.hilfer_numeric, None),
        ("special_functions.kilbas_saigo", special_functions.kilbas_saigo, _count_terms),
        ("special_functions.kilbas_saigo_coefficients", special_functions.kilbas_saigo_coefficients, None),
        ("verification.residual_numeric", verification.residual_numeric, None),
        ("verification.initial_condition_check", verification.initial_condition_check, None),
        ("verification.residual_coefficient_identity", verification.residual_coefficient_identity, None),
    ]
    for name, fn, count in functions:
        traced = tracer.wrap(name, fn, count)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is fn]:
                setattr(module, attr, traced)
    methods = [
        ("solver.SeriesSolution.evaluate_report", solver.SeriesSolution, "evaluate_report"),
        ("solver.SeriesSolution.evaluate_tail_report", solver.SeriesSolution, "evaluate_tail_report"),
        ("solver.CauchySolution.evaluate_report", solver.CauchySolution, "evaluate_report"),
    ]
    for name, cls, attr in methods:
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), _count_terms))


def run_cli(spec: dict, tracer: "Tracer | None") -> dict:
    t0 = time.perf_counter()
    from bihilfer import cli
    import_s = time.perf_counter() - t0
    if tracer is not None:
        install(tracer)
    main = cli.cli.main
    if tracer is not None:
        main = tracer.wrap("cli.main", main)
    commands = []
    for args in spec["commands"]:
        code, error = 0, ""
        t0 = time.perf_counter()
        try:
            main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the command under test is a result, not a harness error
            code, error = -1, traceback.format_exc()
        commands.append({"exit": code, "wall_s": time.perf_counter() - t0, "error": error})
    return {"import_s": import_s, "commands": commands,
            "work_s": sum(c["wall_s"] for c in commands)}


def run_ks(spec: dict, tracer: "Tracer | None", out_prefix: str) -> dict:
    setup_ref_s = [speed.reference_s()]
    t0 = time.perf_counter()
    from bihilfer import special_functions
    from bihilfer.special_functions import KilbasSaigoParams

    def build(entry):
        (alpha, m, l), zs = entry
        return KilbasSaigoParams(alpha, m, l), [complex(re, im) for re, im in zs]

    pool = [build(e) for e in spec["pool"]]
    fresh = [build(e) for e in spec["fresh"]]
    setup_s = time.perf_counter() - t0
    setup_ref_s.append(speed.reference_s())
    if tracer is not None:
        install(tracer)
    ks = special_functions.kilbas_saigo
    values, converged, dt = [], [], []
    clock = time.perf_counter

    def run_pass(p):
        if tracer is not None:
            # The fill kilbas_saigo does on a triple's first call, issued
            # through the public call so that the trace can time it.
            special_functions.kilbas_saigo_coefficients(fresh[p][0], 64)
            tracer.counters["special_functions.fresh_triples"] += 1
        for params, zs in pool + [fresh[p]]:
            for z in zs:
                t = clock()
                report = ks(params, z)
                dt.append(clock() - t)
                values.append(report.value)
                converged.append(report.converged)

    if tracer is not None:
        run_pass = tracer.wrap("ks-sweep.pass", run_pass)
    pass_s, ref_s = [], [setup_ref_s[-1]]
    for p in range(spec["passes"]):
        t0 = clock()
        run_pass(p)
        pass_s.append(clock() - t0)
        ref_s.append(speed.reference_s())
    import numpy as np

    np.savez(out_prefix + ".npz", values=np.array(values, dtype=complex),
             converged=np.array(converged, dtype=bool), dt=np.array(dt))
    return {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "pass_s": pass_s, "ref_s": ref_s,
            "work_s": sum(pass_s)}


def main() -> int:
    spec_path, out_prefix = sys.argv[1], sys.argv[2]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    tracer = Tracer() if spec["trace"] else None
    if spec["mode"] == "ks":
        result = run_ks(spec, tracer, out_prefix)
    else:
        result = run_cli(spec, tracer)
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counters"] = tracer.counters
    with open(out_prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
