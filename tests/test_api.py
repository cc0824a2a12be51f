"""The public names and the names the benchmark tracer wraps all resolve.

A refactor that deletes or renames one of them fails here rather than
inside a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import pytest
import scipy.linalg

import degengate

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
SRC = os.path.dirname(degengate.__file__)
TRACER_PATH = os.path.join(PERFBENCH, "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", degengate.__all__)
def test_public_name_resolves(name):
    assert getattr(degengate, name) is not None


@pytest.mark.parametrize("label, module_name, path", tracer.TARGETS,
                         ids=[label for label, _, _ in tracer.TARGETS])
def test_traced_target_resolves(label, module_name, path):
    importlib.import_module(module_name)
    _, attr, fn = tracer._resolve(module_name, path)
    assert attr == path.split(".")[-1]
    assert callable(fn)


def fresh_python_stdout(code):
    """Standard output of ``code`` run by a new interpreter on this source tree."""
    src = os.path.join(os.path.dirname(degengate.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_import_leaves_out(module):
    # scipy.stats (about 0.7 s) and scipy.optimize (about 0.3 s) are imported
    # only by the searches and constructions that call them.
    code = f"import sys, degengate, degengate.cli; print({module!r} in sys.modules)"
    assert fresh_python_stdout(code).strip() == "False"


def test_calibrate_leaves_out_scipy_optimize(tmp_path):
    # calibrate evaluates the CNOT-class loss at the closed-form couplings;
    # it runs no class-time scan, so it never needs scipy.optimize.
    argv = ["calibrate", "--experiment", "paper:calibration", "--out", str(tmp_path)]
    code = (f"import sys; from degengate import cli; cli.main({argv!r}); "
            "print('scipy.optimize' in sys.modules)")
    assert fresh_python_stdout(code).splitlines()[-1] == "False"


def unused_imports(path):
    """Names a module's top-level imports bind that its code never reads."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


@pytest.mark.parametrize("module", sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py"))
def test_no_unused_module_imports(module):
    # __init__.py imports to re-export; every other module imports to use.
    assert unused_imports(os.path.join(SRC, module)) == []


def test_pulse_unitary_is_the_only_closed_system_expm():
    # Gate unitaries go through hamiltonian.pulse_unitary; redfield keeps
    # its own expm for the Liouvillian.
    binders = set()
    for info in pkgutil.iter_modules(degengate.__path__):
        module = importlib.import_module(f"degengate.{info.name}")
        if any(value is scipy.linalg.expm for value in vars(module).values()):
            binders.add(info.name)
    assert binders == {"hamiltonian", "redfield"}


def test_benchmark_selftest_passes():
    # The harness binds to src/ (traced names, trace transparency, the
    # output checker); a refactor that breaks it fails here.
    out = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]


@pytest.mark.parametrize("workload", ["landscape", "purity"])
def test_traced_benchmark_run_is_correct(workload):
    # A traced run wraps every TARGETS name and checks each op's output
    # against the benchmark's references, so a refactor that changes what a
    # traced function returns fails here.
    out = subprocess.run([sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload",
                          workload, "--seed", "1", "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
