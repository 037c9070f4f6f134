"""Smoke tests: every example imports cleanly and exposes main().

Running the examples end-to-end takes minutes (they train agents); CI
verifies their imports, argument-free entry points, and that the
quickstart's scenario construction is valid — the full runs are
documented in the README.
"""

import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
EXAMPLES = ["quickstart", "incast_deep_dive", "packet_level_demo",
            "gym_training", "pattern_switching", "multiqueue_tuning"]


def _load(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports_and_has_main(name):
    module = _load(name)
    assert callable(getattr(module, "main", None)), \
        f"example {name} must define main()"


def test_all_examples_present_on_disk():
    files = {f for f in os.listdir(EXAMPLES_DIR) if f.endswith(".py")}
    assert files == {f"{n}.py" for n in EXAMPLES}


def test_quickstart_scenario_is_valid():
    module = _load("quickstart")
    # the example's scenario must construct without touching the network
    import inspect
    src = inspect.getsource(module.main)
    assert "ScenarioConfig" in src and "run_scenario" in src
