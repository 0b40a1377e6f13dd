"""The package's exports and README's Library section name the same API."""

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
