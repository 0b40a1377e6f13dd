"""The package's exports and README's Library section name the same API."""

import builtins
import contextlib
import importlib
import inspect
import re
from pathlib import Path

import pytest

import kdcheck

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", kdcheck.__all__)
def test_export_resolves(name):
    assert hasattr(kdcheck, name)


@pytest.mark.parametrize("name", kdcheck.__all__)
def test_export_documented(name):
    # Backticked alone or as the head of a call, as in `CqKeyState(q, k, ...)`.
    assert re.search(r"`%s[`(]" % re.escape(name), README)


def _library_names():
    """``(module, name)`` for each backticked name in a Library bullet.

    A name is an identifier or dotted path, alone in backticks or as the
    head of a call such as `Alphabet(q, m)`.  One-letter names such as
    `q` or `D` are symbols of the prose, not names.
    """
    section = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    for module, body in re.findall(r"^- `(\w+)`: (.*?)(?=^- |\n\n|\Z)", section, re.M | re.S):
        for name in re.findall(r"`([A-Za-z_]\w+(?:\.\w+)*)(?:\([^`]*\))?`", body):
            yield module, name


LIBRARY_NAMES = sorted(set(_library_names()))


def _resolve(path, scopes):
    """The object a dotted path names in the first scope that has it, else None."""
    for scope in scopes:
        with contextlib.suppress(AttributeError):
            for part in path.split("."):
                scope = getattr(scope, part)
            return scope
    return None


def _members(obj):
    """Attributes, dataclass fields and parameters of a class or function."""
    names = set(dir(obj)) | set(getattr(obj, "__dataclass_fields__", ()))
    try:
        names |= set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        pass
    return names


def test_library_section_lists_every_module():
    modules = {m for m, _ in LIBRARY_NAMES}
    assert modules == {"core", "entropy", "hashing", "quantum", "markov",
                       "semigroup", "treeproc", "verify"}


@pytest.mark.parametrize("module,name", LIBRARY_NAMES,
                         ids=["%s-%s" % pair for pair in LIBRARY_NAMES])
def test_documented_name_resolves(module, name):
    # A name resolves in `kdcheck`, in its bullet's module or among the
    # builtins; an attribute, field or parameter name resolves on a class
    # or function that its bullet names.
    scopes = (kdcheck, importlib.import_module("kdcheck." + module), builtins)
    if _resolve(name, scopes) is not None:
        return
    owners = [obj for m, other in LIBRARY_NAMES if m == module
              for obj in [_resolve(other, scopes)]
              if inspect.isclass(obj) or inspect.isfunction(obj)]
    assert any(name in _members(obj) for obj in owners), name
