"""The rows of scripts/mutants.py stay applicable: a row whose old text
no longer occurs would drop out silently.  A renamed killing test is caught
by the script's own run of the rows' tests on the unchanged tree."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MUTANTS = load_script().MUTANTS


@pytest.mark.parametrize("row", MUTANTS, ids=[row.name for row in MUTANTS])
def test_old_text_occurs_exactly_once(row):
    assert row.new != row.old
    assert (ROOT / row.path).read_text().count(row.old) == 1

