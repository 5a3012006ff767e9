"""The package's layering: which modules may import the Carleman layer,
where the limits of a run live, and the README's contract held to the
tables in the code."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import carlgd
from carlgd import cli, pipeline, util

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


README = (ROOT / "README.md").read_text()


def paragraph(marker):
    """The README's paragraph that starts with `marker`."""
    return README.split(marker, 1)[1].split("\n\n", 1)[0]


def capacity_budgets():
    """The upper-case names in the README's capacity paragraph."""
    return set(re.findall(r"`(?:util\.)?([A-Z][A-Z_]+)`",
                          paragraph("**Capacity.**")))


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


def schema_bullets():
    """The bullets of the README's CSV schema section, each on one line."""
    section = README.split("## CSV schemas", 1)[1].split("\n## ", 1)[0]
    return [" ".join(item.split()) for item in re.split(r"\n(?=- )", section)
            if item.startswith("- ")]


def schema_columns(name):
    """The columns the README gives for the CSV `name`: the last code span
    of the bullet that opens with it."""
    bullet, = (b for b in schema_bullets() if b.startswith(f"- `{name}`"))
    return tuple(re.findall(r"`([^`]*)`", bullet)[-1].split(", "))


def test_readme_schemas_are_the_tables_columns():
    """The trajectory and segment tables' keys are the CSV headers."""
    assert schema_columns("trajectory.csv") == pipeline.STEP_COLUMNS
    assert schema_columns("segments.csv") == pipeline.SEGMENT_COLUMNS


def test_readme_names_every_csv_the_cli_writes():
    """Every "*.csv" literal of cli.py is named in the schema section."""
    names = {node.value for node in ast.walk(ast.parse((SRC / "cli.py").read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value.endswith(".csv")}
    named = set(re.findall(r"`(\w+\.csv)`", " ".join(schema_bullets())))
    assert names
    assert names - named == set()


def test_readme_lists_the_commands_in_order():
    """With each one's help line, as `--help` gives it."""
    listed = re.findall(r"^- `(\w+)`: (.*)$", paragraph("**Commands.**"), re.M)
    assert listed == [(name, cli.SUBCOMMANDS[name][1]) for name in cli.COMMANDS]


def test_every_name_the_readme_cites_resolves():
    """A backticked dotted name that starts at carlgd or one of its modules,
    with an optional trailing (), is an attribute of that module."""
    modules = {m.name for m in pkgutil.iter_modules(carlgd.__path__)}
    for module in modules:
        importlib.import_module(f"carlgd.{module}")
    cited = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", README)
    paths = [name.split(".") for name in cited]
    paths = [p[1:] if p[0] == "carlgd" else p for p in paths
             if p[0] == "carlgd" or p[0] in modules]
    assert paths
    for path in paths:
        obj = carlgd
        for attr in path:
            assert hasattr(obj, attr), ".".join(path)
            obj = getattr(obj, attr)
