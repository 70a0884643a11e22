"""The benchmark's tracer wraps library functions by name; they must resolve.

`perfbench/tracer.py` patches a fixed list of functions (for example
`redbun.canonicalize`) in the modules that bind them.  Installing it here
makes a renamed or no longer bound function fail the test suite, not only
the benchmark run.
"""

import importlib.util
from pathlib import Path

import resolvedk
from resolvedk import redbun

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_on_the_library():
    tracer = _load_tracer().Tracer(resolvedk)
    original = redbun.canonicalize
    tracer.install()
    try:
        assert redbun.canonicalize is not original
    finally:
        tracer.uninstall()
    assert redbun.canonicalize is original
