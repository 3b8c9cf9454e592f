"""The package's two exception families, one per failing exit code of the
CLI: DomainError (exit 2) and NumericsError (exit 3).  The message says
which precondition or which procedure failed."""


class DomainError(ValueError):
    """An argument violates a mathematical precondition."""


class NumericsError(RuntimeError):
    """A numerical procedure failed at runtime."""
