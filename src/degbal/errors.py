"""Exception vocabulary shared across the package.

Refusals that no caller tells apart by class raise DegbalError itself."""


class DegbalError(Exception):
    """Base class for all degbal errors."""


# -- graph construction / validation ----------------------------------------

class NotRegular(DegbalError):
    """The graph is not regular of the required degree."""


class SizeMismatch(DegbalError):
    """An edge subset does not match its host graph's edge count."""


# -- serialization -----------------------------------------------------------

class ParseError(DegbalError):
    """Malformed graph6 or edge-list input."""


# -- decomposition -----------------------------------------------------------

class ParityMismatch(DegbalError):
    """Statement requires n = 4t (I, II) or n = 4t+2 (III, IV)."""


class ExceptionGraph(DegbalError):
    """The graph provably has no decomposition for this statement."""

    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"exception graph: {kind.name}")

    def __reduce__(self):  # rebuilt from its kind, not from its message
        return ExceptionGraph, (self.kind,)


class InternalStuck(DegbalError):
    """A stage reached a state the underlying argument rules out (a bug)."""


class PreconditionViolated(DegbalError):
    """A construction was invoked on a graph lacking its structural pattern."""


# -- oracle ------------------------------------------------------------------

class CapExceeded(DegbalError):
    """Edge count, or the oracle's state count, exceeds its cap."""
