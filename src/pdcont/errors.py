"""Exception hierarchy and warning categories shared by all modules."""


class PdcontError(Exception):
    """Base class for all errors raised by this package."""


class GaugeViolation(PdcontError):
    """A coordinate pinned by the rigid-motion gauge is nonzero."""


class DegenerateSimplex(PdcontError):
    """Simplex too flat for a circumsphere: its content is below the scale-aware threshold."""


class DegenerateInput(PdcontError):
    """Point cloud too degenerate to triangulate (e.g. all coplanar)."""


class GeneralPositionViolation(PdcontError):
    """Exact degeneracy (e.g. cospherical 5-tuple) detected.

    ``indices`` holds the offending point indices when known.
    """

    def __init__(self, message, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class EmptyDiagram(PdcontError):
    """An operation requiring a nonempty diagram got an empty one."""


class InfinityMismatch(PdcontError):
    """Bottleneck distance between diagrams with different essential counts."""


class NotAcute(PdcontError):
    """A triangle operation requires an acute triangle."""


class DimensionMismatch(PdcontError):
    """Vector/matrix dimensions inconsistent with the diagram layout."""


class MatchingAmbiguous(PdcontError):
    """Two diagram-coordinate assignments have indistinguishable cost."""


class NearDegenerateJacobian(UserWarning):
    """Two attaching radii coincide within tolerance; Df selection is arbitrary."""
