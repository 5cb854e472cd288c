"""Smoke tests: the example scripts run end-to-end.

The fast examples run verbatim (their ``main()`` is imported and called);
the slow simulation examples are covered by unit tests of the same APIs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("name", [
    "quickstart", "portal_language", "custom_kernel", "sliding_window_kde",
])
def test_fast_examples_run(name, capsys):
    mod = load_example(name)
    mod.main()
    out = capsys.readouterr().out
    assert out.strip()


def test_examples_all_have_main():
    for path in EXAMPLES.glob("*.py"):
        source = path.read_text()
        assert "def main()" in source, f"{path.name} lacks main()"
        assert '__name__ == "__main__"' in source, path.name
        assert '"""' in source.split("\n", 1)[0] + source.split("\n", 2)[1], (
            f"{path.name} lacks a module docstring"
        )
