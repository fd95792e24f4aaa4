"""Exception types shared across the package, and the read-only record
base of its result classes."""

__all__ = ["DomainError"]


class DomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain of an
    operation, e.g. a Gamma argument at or below a pole, or order parameters
    violating their admissibility inequalities. The message names the
    violated condition."""


class _ReadOnly:
    """A record whose attributes its __init__ sets through __dict__, in
    field order, and nothing sets or deletes afterwards. A plain class
    rather than a frozen dataclass, whose decorator compiles generated
    methods for every class at every start."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
