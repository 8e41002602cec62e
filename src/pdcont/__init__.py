"""Deform point clouds so their persistence diagrams track a prescribed path.

The package computes persistence diagrams of 3D point clouds via Vietoris-Rips
and alpha filtrations, differentiates the diagram coordinates with respect to
the points, and runs a pseudo-inverse Newton continuation that carries a cloud
from its current diagram to a target diagram.
"""

from .errors import (
    DegenerateInput,
    DegenerateSimplex,
    DimensionMismatch,
    GaugeViolation,
    GeneralPositionViolation,
    InfinityMismatch,
    MatchingAmbiguous,
    NearDegenerateJacobian,
    NotAcute,
    PdcontError,
)
from .geometry import (
    Configuration,
    check_general_position,
    circumspheres,
    to_gauge_frame,
)
from .delaunay import delaunay3
from .filtration import FilteredComplex, build_alpha, build_rips
from .persistence import (
    PersistenceData,
    boundary_matrix,
    diagram,
    persistence_data,
    reduce_boundary,
)
from .metrics import (
    bottleneck,
    hausdorff,
    triangle_ratio_check,
)
from .diffmap import PersistenceJacobian, jacobian
from .solver import (
    ContinuationTrace,
    NewtonReport,
    NewtonStatus,
    continue_cloud,
    pinv_apply,
    pinv_matrix,
    svd,
)

__version__ = "0.1.0"
