"""The package ships no public function or class that only the tests use."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hssfl"

# Public names the tests call on purpose although the program does not.
TEST_ONLY_ALLOWED = {
    "standalone_training": "local-only training, the mu = 0 oracle of acceptance c03",
    "set_params": "copies a vector into the online weights, for the gradient oracles",
    "collab_report": "collaboration-benefit report of acceptance c08",
    "eta_max_lemma1": "the paper's step-size threshold, checked by acceptance c10",
    "lipschitz_ratio_max": "the paper's Lipschitz estimator, checked by acceptance c10",
}


def _public_definitions():
    """(module, name) of every public top-level function and class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.stem, node.name


def _referenced_names(paths):
    """Every identifier the files use: names, attributes, imported names,
    and ``"module:attribute"`` strings, as the benchmark's tracer names
    what it patches."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                target = re.fullmatch(r"\w+:([\w.]+)", node.value)
                if target:
                    names.update(target.group(1).split("."))
    return names


def test_no_public_name_is_used_only_by_tests():
    program = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    used = _referenced_names(program)
    tested = _referenced_names(sorted((ROOT / "tests").glob("*.py")))
    test_only = [f"{module}.{name}" for module, name in _public_definitions()
                 if name in tested and name not in used and name not in TEST_ONLY_ALLOWED]
    assert test_only == []


def test_allowed_names_still_exist():
    defined = {name for _, name in _public_definitions()}
    assert set(TEST_ONLY_ALLOWED) <= defined
