"""The library's public surface, pinned: a name is public when a command,
other library code, a demo or the benchmark uses it.  Test oracles (the
brute-force tangent and feet, the Hermitian control, the trace-level line and
a foot's r) live in ``tests/conftest.py``, not in the package."""

import unital_lab
from unital_lab import Conic, ProjectivePlane, UnitalModel

PACKAGE = {
    # modules
    "elations", "errors", "fields", "pedals", "plane", "unitals",
    # errors
    "DegenerateConfiguration", "DegenerateInput", "InternalConsistencyError",
    "InvalidUnitalParameters", "ParameterError", "StructuralViolation", "TheoremViolation",
    # fields and plane
    "FieldCtx", "build_field_ctx", "LineId", "PointId", "ProjectivePlane",
    # unitals
    "BlockingReport", "UnitalModel", "UnitalParams", "build_obm_unital", "discriminant",
    "obm_point_ids", "unital_label", "valid_parameter_pairs", "validate_params",
    # pedals
    "Conic", "ConicFitResult", "IntersectionCensus", "PedalSet", "arc_in_conic",
    "canonical_base_point", "conic_through", "feet_closed_form", "feet_of", "feet_of_many",
    "foot_parameters", "is_single_arc", "line_pedal_census", "same_trace_solutions",
    "secant_partitions", "trace_value", "two_arc_partition",
    # elations
    "ElationGroup", "OrbitSet", "orbit_incidence_stats", "orbit_line_census",
    "orbit_of_pedal", "partition_lines_for_orbit",
}


def _public_members(cls) -> set[str]:
    return {name for name in vars(cls) if not name.startswith("_")}


def test_package_exports_exactly_the_public_names():
    assert set(unital_lab.__all__) == PACKAGE


def test_classes_carry_no_test_only_members():
    assert _public_members(UnitalModel) == {
        "classify_line", "generating_pair", "line_counts", "record", "size",
        "tangent_lines_closed_form", "touch_points", "verify_minimal_blocking_set",
        "verify_unital_axiom",
    }
    assert _public_members(Conic) == {"contains_points"}
    assert _public_members(ProjectivePlane) == {
        "collinear", "coords", "format_line", "format_point", "has_three_collinear",
        "incidence", "incident", "infinity_line", "infinity_point", "join", "line_counts",
        "line_id", "lines_through", "max_collinear", "meet", "normalize", "parse_point",
        "point_id", "point_ids_vec", "points_on", "vcross", "vdot",
    }
