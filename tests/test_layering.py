"""The package's layering: which modules may import the Carleman layer, and
where the limits of a run live."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import carlgd
from carlgd import util

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "carlgd"


def imported_modules(path):
    """The carlgd modules a source file imports, by their last name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            if node.level and not node.module:  # from . import a, b
                names.update(alias.name for alias in node.names)
            else:
                names.add(module)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_models_and_diagnostics_do_not_import_carleman():
    """Nor does the field: its terms are plain arrays, which the lift reads."""
    for name in ("models.py", "diagnostics.py", "polyfield.py"):
        assert "carleman" not in imported_modules(SRC / name), name


def capacity_budgets():
    """The upper-case names in the README's capacity paragraph."""
    text = (ROOT / "README.md").read_text()
    paragraph = text.split("**Capacity.**", 1)[1].split("\n\n", 1)[0]
    return set(re.findall(r"`(?:util\.)?([A-Z][A-Z_]+)`", paragraph))


def test_every_budget_lives_in_util_alone():
    """Each limit the README's capacity paragraph names is a constant of
    util and of no other carlgd module, and the paragraph names them all,
    so a budget changed in util changes it everywhere."""
    names = capacity_budgets()
    constants = {name for name, value in vars(util).items()
                 if name.isupper() and isinstance(value, (int, float))}
    assert names == constants
    modules = [carlgd] + [importlib.import_module(f"carlgd.{m.name}")
                          for m in pkgutil.iter_modules(carlgd.__path__)]
    for module in modules:
        if module is not util:
            assert not names & set(vars(module)), module.__name__


def names_in(path):
    """Every identifier, attribute, parameter and keyword a source file
    names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
    return names


def test_only_the_lift_knows_where_theta_sits():
    """The pipeline and the CLI find theta in a lifted state through the
    CarlemanMatrix, never from a flag of their own, and `readout` takes the
    lift, not a flag."""
    for name in ("cli.py", "pipeline.py"):
        assert not {"include_constant", "has_constant"} & names_in(SRC / name), name
    readout, = (node for node in ast.walk(ast.parse((SRC / "carleman.py").read_text()))
                if isinstance(node, ast.FunctionDef) and node.name == "readout")
    params = [a.arg for a in readout.args.args + readout.args.kwonlyargs]
    assert params == ["M", "y", "shots", "seed"]
