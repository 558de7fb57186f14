"""The benchmark's tracer wraps leavitt's public functions by name
("module:attribute" or "module:Class.method" in perfbench/tracing.py), so a
rename or a move of one of them blinds the traced run.  This test pins the
names; it skips in a copy of the package without perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict[str, tuple[str, ...]]:
    if not TRACING.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the standard library only
    return module.LAYERS


def test_every_target_resolves():
    targets = [target for names in _layers().values() for target in names]
    assert len(targets) == 25
    for target in targets:
        module_name, _, path = target.partition(":")
        obj = importlib.import_module(f"leavitt.{module_name}")
        for attr in path.split("."):
            assert hasattr(obj, attr), target
            obj = getattr(obj, attr)
        assert callable(obj), target
