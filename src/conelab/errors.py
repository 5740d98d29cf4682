"""Exception hierarchy shared across the package."""


class ConelabError(Exception):
    """Base class for all package errors."""


class ConfigError(ConelabError):
    """Invalid or missing configuration / input data (CLI exit code 2)."""


class NumericalError(ConelabError):
    """A numerical procedure failed (CLI exit code 3)."""


class UnsupportedError(ConelabError):
    """Requested combination of parameters is outside the supported scope (CLI exit code 2)."""


class DegenerateSymbolError(ConelabError):
    """Conormal symbol identically zero; no meromorphic inverse exists (CLI exit code 2)."""


class NotSectorialError(NumericalError):
    """Spectrum meets the requested sector; resolvent bound undefined there."""


class IllConditionedFitError(NumericalError):
    """Least-squares design matrix too ill-conditioned; change the fit window."""
