"""Fixtures shared by the test modules."""

import pytest

import popgcn.graph
import popgcn.train


@pytest.fixture
def serial_folds(monkeypatch):
    """Train every fold in the test's own process.

    Spies that count calls inside training see only this process, and the
    folds of a run under a one-thread BLAS may train in forked workers.
    """
    monkeypatch.setattr(popgcn.train, "_fold_workers", lambda n_folds: 1)


@pytest.fixture
def threaded_build(monkeypatch):
    """Build the element graphs in 2 threads, whatever the CPU count, so
    that a 1-CPU host still runs the threaded build."""
    monkeypatch.setattr(popgcn.graph, "_build_threads", lambda n_elements: 2)
