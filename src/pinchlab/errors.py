"""Exception types shared by all pinchlab modules."""


class ValidationError(ValueError):
    """Input violates a documented precondition (bad value, bad config key)."""


class StructureError(ValidationError):
    """Combinatorial structure is unusable (disconnected graph, bad indices)."""


class ConvergenceError(RuntimeError):
    """A numerical routine failed to converge; carries its diagnostics.

    Prints as the message followed by the diagnostics as ``key=value``.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        self.message = message
        self.diagnostics = dict(diagnostics or {})
        super().__init__(message, self.diagnostics)

    def __str__(self) -> str:
        return " ".join([self.message, *(f"{k}={v!r}" for k, v in self.diagnostics.items())])
