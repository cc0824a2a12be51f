"""The public names and the names the benchmark tracer wraps all resolve.

A refactor that deletes or renames one of them fails here rather than
inside a traced benchmark run.
"""

import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

import degengate

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


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


def test_pipeline_cache_info():
    info = degengate.redfield._pipeline.cache_info()
    assert info.maxsize > 0


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize"])
def test_import_leaves_out(module):
    # scipy.stats (about 0.7 s) and scipy.optimize (about 0.3 s) are imported
    # only by the searches and constructions that call them.
    code = f"import sys, degengate, degengate.cli; print({module!r} in sys.modules)"
    src = os.path.join(os.path.dirname(degengate.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
