"""unital-lab: exact finite geometry of orthogonal-Buekenhout-Metz unitals
in PG(2, q^2) -- construction, pedals of external points, and exhaustive
desk-scale verification of their structure.
"""

__version__ = "0.1.0"

from .elations import (
    ElationGroup,
    OrbitSet,
    orbit_incidence_stats,
    orbit_line_census,
    orbit_of_pedal,
    partition_lines_for_orbit,
)
from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    InternalConsistencyError,
    InvalidUnitalParameters,
    ParameterError,
    StructuralViolation,
    TheoremViolation,
)
from .fields import FieldCtx, build_field_ctx
from .pedals import (
    Conic,
    ConicFitResult,
    IntersectionCensus,
    PedalSet,
    arc_in_conic,
    canonical_base_point,
    conic_through,
    feet_closed_form,
    feet_of,
    feet_of_many,
    foot_parameters,
    foot_unital_r,
    is_single_arc,
    line_pedal_census,
    same_trace_solutions,
    secant_partition,
    secant_partitions,
    trace_level_line,
    trace_value,
    two_arc_partition,
)
from .plane import LineId, PointId, ProjectivePlane
from .unitals import (
    BlockingReport,
    UnitalModel,
    UnitalParams,
    build_hermitian,
    build_obm_unital,
    discriminant,
    valid_parameter_pairs,
    validate_params,
)

__all__ = [name for name in dir() if not name.startswith("_")]
