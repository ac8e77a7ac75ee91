"""Exception types shared across the package."""


class HcpackError(Exception):
    """Base class for all package errors."""


class CollinearOverlap(HcpackError):
    """Two segments overlap along a common line (degenerate input)."""


class SharedEndpoint(HcpackError):
    """Combinatorial crossing test called on edges sharing a vertex."""


class ConfigMismatch(HcpackError):
    """Operation requires a different point-set configuration."""


class DegenerateInput(HcpackError):
    """Input violates general position or is too small."""


class InvalidN(HcpackError):
    """Point count outside the valid range for the requested operation."""


class ConstructionFailed(HcpackError):
    """A generated packing candidate failed verification."""


class NonHamiltonian(HcpackError):
    """An index schedule revisited a vertex."""


class MarchFailed(HcpackError):
    """The ladder march exhausted its move space."""


class StillCrossing(HcpackError):
    """Raised by no code; perfbench/tracer.py counts it as an `uncross` failure."""


class NoJoinFound(HcpackError):
    """Exhaustive join search failed for two cycles."""


class NotSeparable(HcpackError):
    """No line separates the given pair from the rest of the subset."""


class TooLarge(HcpackError):
    """Instance exceeds the exhaustive-search cap."""


class PackingIncomplete(HcpackError):
    """The recursive packer could not reach the guaranteed cycle count.

    Carries the cycles found so far and the level that failed.
    """

    def __init__(self, message, level, cycles):
        super().__init__(message)
        self.level = level
        self.cycles = cycles
