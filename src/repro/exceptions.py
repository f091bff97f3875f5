"""Exception hierarchy for the chase-termination library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class.  More specific subclasses communicate *which*
subsystem rejected the input (parsing, rule validation, storage, chase
execution, experiment configuration).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ParseError(ReproError):
    """Raised when a rule file or a database file cannot be parsed.

    Attributes
    ----------
    line_number:
        1-based line number of the offending line, or ``None`` when the
        error is not tied to a specific line.
    line:
        The raw text of the offending line, or ``None``.
    """

    def __init__(self, message, line_number=None, line=None):
        location = "" if line_number is None else f" (line {line_number})"
        super().__init__(f"{message}{location}")
        self.line_number = line_number
        self.line = line


class ValidationError(ReproError):
    """Raised when a TGD, atom, or schema object violates an invariant."""


class NotLinearError(ValidationError):
    """Raised when a linear-only operation receives a non-linear TGD."""


class NotSimpleLinearError(ValidationError):
    """Raised when a simple-linear-only operation receives another TGD."""


class StorageError(ReproError):
    """Raised by the relational storage substrate (missing relation, bad arity, ...)."""


class UnknownRelationError(StorageError):
    """Raised when a query references a relation that does not exist."""


class ChaseLimitExceeded(ReproError):
    """Raised when a chase run exceeds its configured atom or round budget.

    The chase engines normally *return* a non-terminated result instead of
    raising; this exception is only used when the caller explicitly asks for
    ``on_limit="raise"``.
    """

    def __init__(self, message, atoms_created=None, rounds=None):
        super().__init__(message)
        self.atoms_created = atoms_created
        self.rounds = rounds


class ParallelWorkerError(ReproError, RuntimeError):
    """Raised when a parallel chase worker reports an error or dies mid-run.
    The message's first line names the worker and what ended it; the
    worker's own traceback, when it sent one, follows."""


class ExperimentConfigError(ReproError):
    """Raised when an experiment or generator is configured inconsistently."""
