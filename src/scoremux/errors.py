"""Exception hierarchy shared across the engine."""

from __future__ import annotations


class ScoreMuxError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(ScoreMuxError, ValueError):
    """Operand dimensions do not conform."""


class ContractError(ScoreMuxError, ValueError):
    """A documented precondition was violated."""


class RankError(ContractError):
    """Requested low-rank factorization rank exceeds a target dimension."""


class FrozenViolationError(ContractError):
    """An operation attempted to train or mutate a frozen backbone."""


class UnknownTaskError(ScoreMuxError):
    """Task id is not present in the registry manifest."""


class DuplicateTaskError(ScoreMuxError):
    """Task id is already registered."""


class BackboneMismatchError(ScoreMuxError):
    """Task module was trained against a different backbone than the one scoring it."""


class RegistrationError(ScoreMuxError):
    """Module file cannot be registered (unreadable or bad header)."""


class FileFormatError(ScoreMuxError):
    """Base class for serialized-artifact load failures."""


class BadMagicError(FileFormatError):
    """File does not start with the expected magic bytes."""


class VersionMismatchError(FileFormatError):
    """File format version is not supported."""


class ChecksumError(FileFormatError):
    """CRC32 trailer does not match the file payload."""


class TruncatedFileError(FileFormatError):
    """File ends before the declared payload is complete."""


class BenchError(ScoreMuxError):
    """Benchmark could not run (e.g. a module file is missing)."""
