"""Exception types shared across the package."""

__all__ = ["DomainError"]


class DomainError(ValueError):
    """Raised when an argument lies outside the mathematical domain of an
    operation, e.g. a Gamma argument at or below a pole, or order parameters
    violating their admissibility inequalities. The message names the
    violated condition."""
