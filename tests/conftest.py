"""Shared fixtures."""

import pytest

from conelab import operators


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
