"""Shared fixtures."""

import pytest

from conelab import operators


@pytest.fixture
def spectra(monkeypatch):
    """The dimension of each eigenvalue computation conelab.operators runs, in order.

    Counts the LAPACK routines themselves (symmetric tridiagonal and
    general), not calls of OperatorMatrix.eigenvalues, which returns a kept
    spectrum after the first.
    """
    calls = []
    for name in ("eigvalsh_tridiagonal", "eigvals"):
        def counted(a, *rest, _routine=getattr(operators, name), **kw):
            calls.append(len(a))
            return _routine(a, *rest, **kw)
        monkeypatch.setattr(operators, name, counted)
    return calls
