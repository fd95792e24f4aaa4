"""The package namespace: what `import bihilfer` and each command load, and
the lazily bound public names."""

import importlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import bihilfer
from test_special_functions import _reference_contour_pole, _reference_in_sector

ENGINE = ["bihilfer.fractional_ops", "bihilfer.series_grid", "bihilfer.solver",
          "bihilfer.special_functions", "bihilfer.verification"]

# Every scalar path of special_functions, each checked by the path it
# reports: the series at real and complex z, the contour rule in the sector
# and off it with the pole's correction (the pole as the reference copies in
# test_special_functions define it), a point the rule refuses, the last
# call through the lazy namespace.
SCALAR_CALLS = """
import cmath, math
import bihilfer
import bihilfer.special_functions as sf
from bihilfer.special_functions import KilbasSaigoParams as P
from bihilfer.special_functions import _CONTOUR_H, _CONTOUR_MU, _CONTOUR_N, _EPS
""" + "".join(map(inspect.getsource, (_reference_in_sector, _reference_contour_pole))) + """
paths = [
    sf.kilbas_saigo(P(0.6, 2.0, 1.0), -3.0).path,
    sf.kilbas_saigo(P(0.6, 2.0, 1.0), 0.5 + 1.5j).path,
    sf.kilbas_saigo(P(0.5, 1.0, 0.0), -8.0).path,
    sf.kilbas_saigo(P(0.3, 1.0, 0.0), 3.0).path,
    sf.kilbas_saigo(P(0.5, 1.0, 0.0), -1.0, tol=1e-16).path,
    bihilfer.kilbas_saigo(P(0.5, 1.0, 0.0), -1.0 + 2.0j).path,
]
assert paths == ['series', 'series', 'contour', 'contour', 'series', 'contour'], paths
assert not _reference_in_sector(0.3, 3.0) and _reference_contour_pole(0.3, 1.0, 3.0)[0] != 0
assert sf.kilbas_saigo_coefficients(P(0.5, 1.0, 0.0), 4)[0] == 1.0
assert sf.gamma_ratio(3.5, 2.0) > 0 and sf.log_gamma_ratio(3.5, 2.0) > 0
assert 'numpy' not in sys.modules, 'numpy is loaded'
"""


def _loaded(script):
    """The sorted bihilfer.* modules a fresh interpreter holds after script.
    json is imported only to print them, so the script can check it too."""
    src = os.path.dirname(os.path.dirname(bihilfer.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = ("\nimport json"
              "\nprint(json.dumps(sorted(k for k in sys.modules if k.startswith('bihilfer'))))")
    run = subprocess.run([sys.executable, "-c", "import sys\n" + script + report],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(run.stdout.splitlines()[-1])


def _adds_none_of(modules, script):
    """script, then a check that it loaded none of `modules`: taken against
    what the interpreter held before it, so a site hook that imports one of
    them cannot fail the check."""
    return (f"_before = set(sys.modules)\n{script}"
            f"_added = sorted({set(modules)!r} & set(sys.modules).difference(_before))\n"
            "assert not _added, f'loaded {_added}'\n")


def _command(*args):
    """The CLI run as `python -m bihilfer.cli ARGS`, in this interpreter."""
    return (
        "import runpy\n"
        f"sys.argv = ['bihilfer', *{list(args)!r}]\n"
        "try:\n"
        "    runpy.run_module('bihilfer.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code in (0, None), exc.code\n"
    )


class TestImportFootprint:
    def test_import_loads_no_submodule(self):
        assert _loaded("import bihilfer\nassert bihilfer.__version__ == '0.1.0'") == ["bihilfer"]

    @pytest.mark.parametrize("args", [["--version"], ["--help"], ["eval-ks", "--help"]])
    def test_startup_loads_no_engine_module(self, args):
        # run_module executes the CLI as __main__, not as bihilfer.cli.
        assert _loaded(_command(*args)) == ["bihilfer"]

    @pytest.mark.parametrize("args", [["--version"], ["--help"], ["eval-ks", "--help"]])
    def test_startup_loads_no_numpy(self, args):
        # The script asserts it after the command exits; a failed assert
        # fails the child. json and csv are imported by the config reader
        # and the table writer; argparse parses the command line, not click,
        # which imports inspect.
        _loaded(_adds_none_of(["numpy", "json", "csv", "click", "inspect"], _command(*args)))

    def test_eval_ks_loads_special_functions_only(self):
        # The scalar kernel alone: each row is one kilbas_saigo call.
        loaded = _loaded(_command("eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0",
                                  "--z-min", "-8", "--z-max", "4", "--z-points", "9"))
        assert [m for m in ENGINE if m in loaded] == ["bihilfer.special_functions"]

    def test_fundamental_loads_the_solver_but_not_verification(self):
        loaded = _loaded(_command("fundamental", "--alpha", "0.5", "--beta", "0.5", "--mu", "1",
                                  "--points", "4"))
        assert [m for m in ENGINE if m in loaded] == ["bihilfer.solver",
                                                      "bihilfer.special_functions"]

    @pytest.mark.parametrize(
        "args",
        [
            ["eval-ks", "--alpha", "0.5", "--m", "1", "--l", "0", "--z-min", "-8", "--z-max", "4",
             "--z-points", "9"],
            ["fundamental", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--lambda-re", "-50",
             "--points", "4"],
            ["fundamental", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--points", "4"],
            ["solve", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
             "--lambda-re", "-2", "--lambda-im", "1", "--phis", "1,0.5", "--points", "4"],
            # The benchmark's solve table, and a contour branch on complex z.
            ["solve", "--alpha", "1.5", "--beta", "1.25", "--mu", "0.5", "--i", "2", "--m", "0.5",
             "--lambda-re", "-2", "--lambda-im", "1", "--phis", "1,0.5", "--y-max", "2",
             "--points", "4096"],
            ["fundamental", "--alpha", "0.5", "--beta", "0.5", "--mu", "1", "--i", "1", "--m", "0",
             "--lambda-re", "-2", "--lambda-im", "3", "--y-max", "4", "--points", "1024"],
        ],
        ids=["eval-ks", "fundamental", "fundamental-lambda-0", "solve", "solve-benchmark",
             "fundamental-contour-complex"],
    )
    def test_table_commands_load_no_numpy(self, args):
        # Each row is kilbas_saigo at one point; only verify's tails and
        # quadrature use numpy. A CSV row is joined by hand, without csv.
        # The command must exit 0.
        _loaded(_adds_none_of(["numpy", "click", "inspect", "csv"], _command(*args)))

    def test_verify_loads_every_engine_module(self):
        loaded = _loaded(_command("verify", "--alpha", "0.5", "--beta", "0.5", "--mu", "1",
                                  "--points", "64"))
        assert [m for m in ENGINE if m in loaded] == ENGINE

    def test_scalar_api_loads_no_code_generator(self):
        # dataclasses, and the inspect it imports, would add to the module's
        # import time; KilbasSaigoParams is a named tuple instead.
        _loaded(_adds_none_of(["dataclasses", "inspect", "numpy"],
                              "import bihilfer.special_functions\n"))

    def test_engine_loads_no_code_generator(self):
        # No engine module imports dataclasses, whose decorator compiles
        # generated methods for every class at every start; the records are
        # named tuples or plain classes. numpy, imported first, loads
        # inspect itself.
        assert "bihilfer.verification" in _loaded(
            "import numpy\n" + _adds_none_of(["dataclasses"], "import bihilfer.verification\n"))

    def test_scalar_calls_load_no_numpy(self):
        # The script itself asserts that numpy stays unloaded.
        assert _loaded(SCALAR_CALLS) == ["bihilfer", "bihilfer.errors",
                                         "bihilfer.special_functions"]


def _records():
    """One instance of every record class that was a frozen dataclass, by
    name."""
    import numpy as np

    from bihilfer.series_grid import SeriesGridReport

    orders = bihilfer.OrderTriple(1.5, 1.25, 0.5, 2)
    problem = bihilfer.DegenerateProblem(orders, 0.5, -2.0)
    ones = np.ones(3)
    return {
        "OrderTriple": orders,
        "DegenerateProblem": problem,
        "DerivedParams": bihilfer.derive_params(problem),
        "PowerTerm": bihilfer.rl_integral_monomial(0.5, 1.0),
        "SampledFunction": bihilfer.SampledFunction(0.5, ones),
        "SeriesGridReport": SeriesGridReport(ones, ones, ones, ones),
        "ResidualReport": bihilfer.residual_numeric(problem, 0, n_points=64),
    }


class TestRecords:
    FIELDS = {
        "OrderTriple": ["alpha", "beta", "mu", "i"],
        "DegenerateProblem": ["orders", "m", "lam"],
        "DerivedParams": ["gamma", "a", "b"],
        "PowerTerm": ["coef", "exponent"],
        "SampledFunction": ["h", "values"],
        "SeriesGridReport": ["value", "terms_used", "last_term_magnitude", "converged", "path"],
        "ResidualReport": ["grid", "lhs", "rhs", "max_abs_error", "max_rel_error",
                           "excluded_boundary_points", "tail_start", "converged"],
    }

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_attributes_are_read_only(self, name):
        record = _records()[name]
        for field in (self.FIELDS[name][0], "other"):
            with pytest.raises(AttributeError):
                setattr(record, field, 2.0)
        with pytest.raises(AttributeError):
            delattr(record, self.FIELDS[name][0])

    @pytest.mark.parametrize("name", list(FIELDS))
    def test_fields_in_order(self, name):
        # series_grid._put and the tests' row helpers read a report's
        # fields through vars() in this order.
        record = _records()[name]
        fields = list(getattr(record, "_fields", None) or vars(record))
        assert fields == self.FIELDS[name]

    def test_equality(self):
        # The named tuples compare by value, the array records by identity.
        first, again = _records(), _records()
        for name in self.FIELDS:
            assert (first[name] == again[name]) == hasattr(first[name], "_fields"), name
            assert first[name] == first[name]
            if hasattr(first[name], "_fields"):
                assert pickle.loads(pickle.dumps(first[name])) == first[name], name
        orders = bihilfer.OrderTriple(1.5, 1.25, 0.5, 2)
        assert orders._replace(mu=0.25) == bihilfer.OrderTriple(1.5, 1.25, 0.25, 2)
        with pytest.raises(bihilfer.DomainError, match="0 <= mu <= 1"):
            orders._replace(mu=2.0)


class TestNamespace:
    def test_names_are_the_submodules_objects(self):
        for name in bihilfer.__all__:
            if name == "__version__":
                continue
            module = importlib.import_module(f"bihilfer.{bihilfer._MODULE_OF[name]}")
            assert getattr(bihilfer, name) is getattr(module, name), name

    def test_module_all_is_its_export_entry(self):
        # A name in a module's __all__ that the package does not export
        # is public in one place and not the other.
        for module, names in bihilfer._EXPORTS.items():
            found = importlib.import_module(f"bihilfer.{module}").__all__
            assert sorted(found) == sorted(names), module

    def test_dir_lists_every_public_name(self):
        assert set(bihilfer.__all__) <= set(dir(bihilfer))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from bihilfer import *", namespace)
        assert set(bihilfer.__all__) <= set(namespace)
        assert namespace["kilbas_saigo"] is bihilfer.special_functions.kilbas_saigo

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="bihilfer"):
            bihilfer.no_such_name

    def test_submodules_import_as_before(self):
        from bihilfer import cli, solver

        assert solver.fundamental_solution is bihilfer.fundamental_solution
        assert callable(cli.cli.main)


class TestEvaluationSurface:
    # evaluate returns a report per point now, not values.
    RETIRED = [("SeriesSolution", "evaluate_tail"), ("SeriesSolution", "evaluate_grid"),
               ("CauchySolution", "evaluate_grid"), ("SeriesSolution", "series_report"),
               ("SeriesSolution", "grid_report"), ("CauchySolution", "grid_report")]
    # bench/child.py:install wraps these three by name for its trace, so
    # they stay until that trace wraps the grid methods instead.
    TRACED = [("SeriesSolution", "evaluate_report"), ("SeriesSolution", "evaluate_tail_report"),
              ("CauchySolution", "evaluate_report")]

    def test_value_only_wrappers_are_retired(self):
        for cls, name in self.RETIRED:
            assert not hasattr(getattr(bihilfer, cls), name), (cls, name)

    def test_traced_reports_remain(self):
        for cls, name in self.TRACED:
            assert callable(getattr(getattr(bihilfer, cls), name, None)), (cls, name)

    def test_readme_quick_start_runs(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## Library quick start\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
        exec(compile(block, str(readme), "exec"), {})
