"""Shared fixtures."""

import faulthandler
import os

import pytest

from conelab import operators

_TERMINAL = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended while plugins configure: fd 2 is still the terminal
    config.stash[_TERMINAL] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL])


@pytest.fixture
def hang_guard(pytestconfig):
    """Ends the run with every thread's traceback on the terminal if the test runs 60 s.

    For tests that fork: a deadlocked process fails the run instead of stalling it.
    """
    faulthandler.dump_traceback_later(60, exit=True, file=pytestconfig.stash[_TERMINAL])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def spectra(monkeypatch):
    """The dimension of each eigenvalue computation conelab.operators runs, in order.

    Counts the symmetric tridiagonal eigensolver itself, the one spectrum
    path, not calls of OperatorMatrix.eigenvalues, which returns a kept
    spectrum after the first.
    """
    calls = []
    routine = operators.eigvalsh_tridiagonal

    def counted(d, *rest, **kw):
        calls.append(len(d))
        return routine(d, *rest, **kw)

    monkeypatch.setattr(operators, "eigvalsh_tridiagonal", counted)
    return calls
