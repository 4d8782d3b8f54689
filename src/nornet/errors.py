"""Exception hierarchy shared across the toolkit.

Every error carries a short machine-readable ``code`` that the CLI turns
into its ``error:<code>:`` prefix.
"""


class NornetError(Exception):
    """Base class for all toolkit errors."""

    code = "internal"


class DomainError(NornetError, ValueError):
    """An argument is outside its legal domain (range, kind, shape)."""

    code = "domain"


class IncompleteAssignmentError(DomainError):
    """An assignment is missing a value that the operation requires."""

    code = "assignment"


class DegenerateVarianceError(DomainError):
    """Paired differences have zero variance but a nonzero mean."""

    code = "stats"


class ValidationError(NornetError):
    """A network violates structural invariants.

    ``violations`` holds the full list produced by :func:`nornet.model.validate`.
    """

    code = "validation"

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = tuple(violations)


class ParseError(NornetError):
    """A network file could not be parsed; ``line`` is 1-based. ``args``
    holds ``(line, message)``, so the error survives pickling."""

    code = "parse"

    def __init__(self, line, message):
        super().__init__(line, message)
        self.line = line

    def __str__(self) -> str:
        return f"line {self.line}: {self.args[1]}"


class EvidenceError(NornetError):
    """Evidence has zero probability under the network."""

    code = "evidence"


class ConfigError(NornetError):
    """A generator or experiment configuration is infeasible."""

    code = "config"


class ExhaustionError(NornetError):
    """Bounded rejection sampling ran out of retries."""

    code = "exhaustion"


class FileError(NornetError):
    """A file could not be read or written."""

    code = "io"
