"""Every module parses as Python 3.10, the oldest version pyproject.toml admits,
builds the series form of an element only where it may, keeps no arithmetic on it,
and imports nothing that would slow the package's start-up."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "qsteenrod").glob("*.py"))


def test_there_are_sources():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


# The series form of an element, Monomial keys in SeriesElements, is built only by
# series.py and by the one view that rebuilds it from an element's pieces.
SERIES_FORM = {"Monomial", "SeriesElement", "_trusted_series"}
SERIES_FORM_ALLOWED = {("ring.py", "CohomologyElement.components")}


def _calls(path, names):
    """(file, enclosing qualified name) of each call to a function in names."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = where + (child.name,)
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append((path.name, ".".join(inner)))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_the_components_view_builds_the_series_form_outside_series_py():
    calls = [call for path in SOURCES if path.name != "series.py"
             for call in _calls(path, SERIES_FORM)]
    assert set(calls) <= SERIES_FORM_ALLOWED, calls
    assert calls  # the view itself is found, so the walk sees the calls it guards


# The package computes on rows: of the series form, series.py keeps SeriesElement's
# constructor and its checks and, of its public functions, series_mul alone.
SERIES_ELEMENT_BODY = {"_fields", "__init__", "__post_init__", "is_zero", "_check"}


def test_series_py_keeps_no_arithmetic_on_the_series_form():
    tree = ast.parse(SOURCES[0].with_name("series.py").read_text(encoding="utf-8"))
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {name for name in functions if not name.startswith("_")} == {"series_mul"}
    (cls,) = [node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "SeriesElement"]
    body = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
    body |= {target.id for node in cls.body if isinstance(node, ast.Assign)
             for target in node.targets}
    assert body == SERIES_ELEMENT_BODY, body


# Importing the package loads neither dataclasses nor typing, and fractions only
# when a function of the rational pipeline runs.
NEVER_IMPORTED = {"dataclasses", "typing"}
IMPORTED_IN_FUNCTIONS_ONLY = {"fractions"}


def _imports(path):
    """(top-level module name, whether the import sits in a function body) of each import."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.extend((alias.name.split(".")[0], in_function) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and not child.level:
                found.append((child.module.split(".")[0], in_function))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(path.read_text(encoding="utf-8")), False)
    return found


def test_no_module_imports_dataclasses_or_typing_or_fractions_at_import_time():
    imports = [(path.name, name, in_function) for path in SOURCES
               for name, in_function in _imports(path)]
    assert not [i for i in imports if i[1] in NEVER_IMPORTED], imports
    assert not [i for i in imports if i[1] in IMPORTED_IN_FUNCTIONS_ONLY and not i[2]], imports
    # the walk sees imports in function bodies, where the rational pipeline loads fractions
    assert ("oracles.py", "fractions", True) in imports


# The generator route reads a * e_i through ring._class_product, like the rest of
# the package; the solver's cached map of a divisor serves only the sweep and the
# re-check.
DIVISOR_MAP_CALLERS = {"_recurrence", "verify_covariant_constancy", "_divisor_map"}


def test_only_the_sweep_and_the_re_check_read_the_divisor_map():
    calls = {call for path in SOURCES for call in _calls(path, {"_divisor_map"})}
    assert calls <= {("solver.py", name) for name in DIVISOR_MAP_CALLERS}, calls
    assert ("solver.py", "verify_covariant_constancy") in calls  # the walk sees the calls


# The generator strategy evaluates divisor words one way: _word_sum is the only
# caller of qsigma_apply, and both generator routes go through it.
def test_only_the_word_evaluator_applies_qsigma():
    calls = {call for path in SOURCES for call in _calls(path, {"qsigma_apply"})}
    assert calls == {("solver.py", "_word_sum")}, calls
    routes = {call for path in SOURCES for call in _calls(path, {"_word_sum"})}
    assert routes == {("solver.py", "qst_auto"), ("solver.py", "qst_via_generators")}, routes


# Each invertible q-order is solved by one step compiled from the divisor map's
# commutator lists: only the recurrence builds and calls it, and code is compiled
# with exec only there and in the records' constructors.
def test_only_the_solver_calls_the_step_and_only_two_places_exec():
    steps = {call for path in SOURCES for call in _calls(path, {"_compile_step"})}
    assert steps == {("solver.py", "_recurrence")}, steps
    solver_steps = set(_calls(SOURCES[0].with_name("solver.py"), {"step"}))
    assert solver_steps == {("solver.py", "_recurrence")}, solver_steps
    execs = {call for path in SOURCES for call in _calls(path, {"exec"})}
    assert execs == {("errors.py", "Record.__init_subclass__"), ("solver.py", "_compile_step")}, execs
