"""The benchmark tracer's layer boundaries still exist in the library.

``benchmarks/perf/tracer.py`` attributes time to layers by wrapping
library functions it finds by dotted name, and reports a name that no
longer resolves as an absent layer instead of failing.  A refactor that
moves one of them (say ``LocalRecurrentEncoder.attend``) would silently
drop that layer from every traced run; this test makes it fail here
instead.  The tracer module is only imported and its lookup called; no
wrapper is installed.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = (Path(__file__).resolve().parents[2]
          / "benchmarks" / "perf" / "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perf_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("layer,dotted", tracer.TARGETS,
                         ids=[dotted for _, dotted in tracer.TARGETS])
def test_target_resolves(layer, dotted):
    owner, attribute, value = tracer._resolve(dotted)
    assert callable(value), f"{layer}: {dotted} is not callable"
    assert getattr(owner, attribute) is value
