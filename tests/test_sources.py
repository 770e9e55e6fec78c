"""Every module parses as Python 3.10, the oldest version pyproject.toml admits, and
builds the series form of an element only where it may."""

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


def _series_form_calls(path):
    """(file, enclosing qualified name) of each call that builds the series form."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = where + (child.name,)
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in SERIES_FORM:
                    found.append((path.name, ".".join(inner)))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_only_the_components_view_builds_the_series_form_outside_series_py():
    calls = [call for path in SOURCES if path.name != "series.py"
             for call in _series_form_calls(path)]
    assert set(calls) <= SERIES_FORM_ALLOWED, calls
    assert calls  # the view itself is found, so the walk sees the calls it guards
