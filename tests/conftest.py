"""Fixtures shared by the test modules."""

import pytest

import popgcn.train


@pytest.fixture
def serial_folds(monkeypatch):
    """Train every fold in the test's own process.

    Spies that count calls inside training see only this process, and the
    folds of a run under a one-thread BLAS may train in forked workers.
    """
    monkeypatch.setattr(popgcn.train, "_fold_workers", lambda n_folds: 1)
