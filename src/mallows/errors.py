"""Exception types shared across the package.

Every exception carries a short machine-readable ``code`` so the CLI can map
failures onto exit codes without string matching.
"""
from __future__ import annotations


class MallowsError(Exception):
    """Base class for all package-specific errors."""

    code = "ERROR"


class DomainError(MallowsError):
    """A parameter is outside its mathematical domain (e.g. q not in (0,1))."""

    code = "DOMAIN"


class RejectSupportError(MallowsError):
    """An inversion-count sequence leaves the support of its encoding."""

    code = "REJECT_SUPPORT"


class NotInjectiveError(MallowsError):
    """Rebuilt window values collide; the r-sequence is not realizable."""

    code = "NOT_INJECTIVE"


class NotSelfContainedError(MallowsError):
    """The window's values leave its interval, so the request is undecidable."""

    code = "NOT_SELF_CONTAINED"


class TooLargeError(MallowsError):
    """Brute-force enumeration was requested beyond its budget."""

    code = "TOO_LARGE"


class UnknownSuiteError(MallowsError):
    """An unrecognized verification suite name."""

    code = "UNKNOWN_SUITE"
