"""Exception vocabulary shared across the package."""


class DegbalError(Exception):
    """Base class for all degbal errors."""


# -- graph construction / validation ----------------------------------------

class LoopEdge(DegbalError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(DegbalError):
    """The same unordered pair appears twice in an edge list."""


class VertexOutOfRange(DegbalError):
    """An edge endpoint is not in [0, n)."""


class NotRegular(DegbalError):
    """The graph is not regular of the required degree."""


class NotConnected(DegbalError):
    """The graph has more than one connected component."""


class SizeMismatch(DegbalError):
    """An edge subset does not match its host graph's edge count."""


# -- serialization -----------------------------------------------------------

class ParseError(DegbalError):
    """Malformed graph6 or edge-list input."""


class UnsupportedOrder(DegbalError):
    """Graph order outside the supported graph6 range (n > 258047)."""


# -- decomposition -----------------------------------------------------------

class ParityMismatch(DegbalError):
    """Statement requires n = 4t (I, II) or n = 4t+2 (III, IV)."""


class ExceptionGraph(DegbalError):
    """The graph provably has no decomposition for this statement."""

    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"exception graph: {kind.name}")


class InternalStuck(DegbalError):
    """A stage reached a state the underlying argument rules out (a bug)."""


class SpecialCaseNeeded(DegbalError):
    """Stage 2 blocked; the oracle's witness search for the target takes over."""


class PreconditionViolated(DegbalError):
    """A construction was invoked on a graph lacking its structural pattern."""


class NoSuchTuple(DegbalError):
    """Requested profile is not in the stored decomposition table."""


# -- oracle ------------------------------------------------------------------

class CapExceeded(DegbalError):
    """Edge count, or the oracle's state count, exceeds its cap."""


# -- generators --------------------------------------------------------------

class UnknownName(DegbalError):
    """Name not present in the named-graph catalog."""


class OddOrder(DegbalError):
    """Cubic graphs require an even number of vertices."""


class RetriesExhausted(DegbalError):
    """Configuration model failed to produce a simple graph in time."""


class PartTooSmall(DegbalError):
    """Cycle lengths must be at least 3."""
