"""docs/observability.md names every counter the source contributes.

A counter key is a string literal in a ``contribute({...})`` dict under
``src/repro/`` (keys built at run time, such as
``f"cache.compile.{state}"``, are documented by their expansions and are
not collected here).  Every such key must be named in the document, and
every ``policy.*`` name the document lists must be such a key, so a
counter that leaves the code leaves the document too.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "observability.md"


def _contributed_keys() -> dict[str, str]:
    """Counter key → the source file that contributes it."""
    keys = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name != "contribute" or not isinstance(node.args[0], ast.Dict):
                continue
            for key in node.args[0].keys:
                if isinstance(key, ast.Constant) and isinstance(key.value,
                                                                str):
                    keys.setdefault(key.value,
                                    str(path.relative_to(ROOT)))
    return keys


def test_the_walk_finds_the_counters():
    keys = _contributed_keys()
    assert len(keys) >= 40
    assert {"policy.hit", "policy.miss", "cache.tree.refit"} <= set(keys)


def test_every_contributed_key_is_documented():
    doc = DOC.read_text()
    missing = {key: path for key, path in _contributed_keys().items()
               if f"`{key}`" not in doc}
    assert not missing, missing


def test_every_documented_policy_counter_is_contributed():
    listed = set(re.findall(r"`(policy\.[a-z_.]*[a-z_])`", DOC.read_text()))
    assert listed
    assert not listed - set(_contributed_keys())
