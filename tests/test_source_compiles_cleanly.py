"""Every package module compiles without a ``SyntaxWarning`` or
``DeprecationWarning``: an invalid escape such as ``'\\s'`` in a non-raw
string prints a warning on every import today and is a syntax error in a
future Python."""

import pathlib
import warnings

import pytest

import pdf_extractors_ray

PACKAGE = pathlib.Path(pdf_extractors_ray.__file__).parent
SOURCES = sorted(PACKAGE.rglob("*.py"))


def test_package_has_sources():
    assert len(SOURCES) > 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_compiles_without_warnings(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", SyntaxWarning)
        warnings.simplefilter("error", DeprecationWarning)
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
