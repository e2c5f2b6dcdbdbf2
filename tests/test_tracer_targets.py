"""The benchmark tracer's hooks still name real cqdw entry points.

perfbench/tracer.py wraps the layer entry points listed in its TARGETS by
module and attribute path. A renamed function would only surface when a
traced benchmark run tries to install the wrappers; this test catches it in
the ordinary suite. The tracer module is imported read-only and never
installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("span, module_name, path, hot", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(span, module_name, path, hot):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, attr = path.split(".")
        # install() replaces the attribute in the class's own namespace
        assert callable(vars(getattr(module, cls_name)).get(attr)), path
    else:
        assert callable(getattr(module, path, None)), path
