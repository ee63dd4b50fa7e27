"""The traced bench run patches popgcn by name; every name must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("home, attr", [(home, attr)
                                        for home, attr, _, _ in spans.TRACED])
def test_traced_name_resolves_in_its_home_module(home, attr):
    owner = importlib.import_module(home)
    for part in attr.split("."):  # "Adam.update" resolves on the class
        owner = getattr(owner, part)
    assert callable(owner)


def test_traced_modules_import():
    for name in spans.MODULES:
        importlib.import_module(name)
