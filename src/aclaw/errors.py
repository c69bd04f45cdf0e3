"""The common base of the package's typed refusals."""

from __future__ import annotations

__all__ = ["AclawError"]


class AclawError(RuntimeError):
    """A computation refused because a precondition or numerical guard
    failed.  The CLI reports it as one stderr line with the usage exit code,
    never as a failed verification."""
