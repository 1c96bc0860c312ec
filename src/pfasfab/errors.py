"""Exception types shared across the package."""

from .value import shown


class PfasfabError(Exception):
    """Base class for all library errors. An error that gathers several
    problems lists one line per problem in ``details``."""

    details: tuple[str, ...] = ()


class UnknownProcessError(PfasfabError):
    """A process id did not resolve in the catalog."""

    def __init__(self, process_id, known_ids):
        self.process_id = process_id
        self.known_ids = tuple(known_ids)
        super().__init__(
            f"unknown process {shown(process_id)}; known processes: "
            + ", ".join(self.known_ids)
        )


class ProcessCollisionError(PfasfabError):
    """Attempt to register a process under an id that already exists."""


class DomainError(PfasfabError, ValueError):
    """A numeric input is outside its valid domain. ``fields`` holds a
    (field name, message) pair per failing field; it is empty for a rule
    that names no single field."""

    def __init__(self, message: str, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)

    @classmethod
    def check(cls, failed):
        """Raise one error for the (field, message) pairs of ``failed``, if any."""
        if failed:
            raise cls("; ".join(message for _, message in failed), failed)


def check_type(ok: bool, field: str, what: str, value):
    """A DomainError at ``field`` unless ``ok``: an argument of the wrong type,
    checked once per call, before it is read."""
    if not ok:
        DomainError.check([(field, f"{field} must be {what}, got {shown(value)}")])


class InvalidProcessError(DomainError):
    """A process record violates a field invariant."""


class StackValidationError(DomainError):
    """One or more stack invariants are violated.

    Carries the complete list of violations, each naming the offending
    layer and the rule it broke; ``fields`` holds one ``("layers", message)``
    pair per violation.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        self.details = tuple(str(v) for v in self.violations)
        super().__init__(
            f"{len(self.violations)} stack violation(s): " + "; ".join(self.details),
            [("layers", detail) for detail in self.details],
        )


class UnknownTargetError(PfasfabError):
    """A sweep or SoC target does not name a routing BEOL layer of the stack."""


class DuplicateTargetError(PfasfabError):
    """A sweep lists the same target layer more than once."""


class MissingOverheadError(PfasfabError):
    """A block is constrained below its table of area-overhead factors."""


class TrendReferenceError(PfasfabError):
    """The reference node of a trend series is missing or has value zero."""


class ConfigError(PfasfabError):
    """A config document failed to parse or validate.

    ``entries`` is a list of (location, message) pairs, where location is a
    field path such as ``design.yield`` or a line/column for syntax errors.
    """

    def __init__(self, entries):
        self.entries = tuple(entries)
        self.details = tuple(f"{loc}: {msg}" for loc, msg in self.entries)
        super().__init__("invalid config: " + "; ".join(self.details))
