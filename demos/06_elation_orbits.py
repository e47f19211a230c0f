"""Orbits of pedals under the elation group.

E_t : (x, y, z) -> (x, y + t z, z) fixes the unital and the infinity line,
so the q translates of a canonical pedal are pairwise disjoint, and q lines
through [1, 0, 0] partition their union.
"""

from unital_lab import (
    ElationGroup,
    ProjectivePlane,
    build_field_ctx,
    build_obm_unital,
    feet_closed_form,
    orbit_incidence_stats,
    orbit_line_census,
    orbit_of_pedal,
    partition_lines_for_orbit,
    validate_params,
)

ctx = build_field_ctx(3, 1)
plane = ProjectivePlane(ctx)
U = build_obm_unital(ctx, plane, validate_params(ctx, ctx.parse_fq2("1+e"), 0))
group = ElationGroup(U)

base = feet_closed_form(U, 1)
print(f"base pedal of {plane.format_point(base.base)}: "
      + ", ".join(plane.format_point(f) for f in base.feet))

# The group shifts the affine y-coordinate; the unital is carried to itself.
moved = group.apply_points(1, [base.base])[0]
print(f"E_1 moves the base to {plane.format_point(moved)}; the unital itself is fixed setwise")

orbit = orbit_of_pedal(U, base)  # verifies image feet and disjointness
print(f"\norbit: {len(orbit.pedals)} disjoint pedals, {orbit.size} = q(q+1) points")
for t, feet in orbit.pedals:
    print(f"  t={t}: " + ", ".join(plane.format_point(f) for f in feet))

lines = partition_lines_for_orbit(U, orbit)
print("\npartition lines through [1,0,0]:",
      ", ".join(plane.format_line(l, human=True) for l in lines))
print("each meets the orbit in q+1 points and their unital points all sit in the orbit")

census = orbit_line_census(U, orbit)
print(f"\norbit line census: {census.histogram}")
print("(the infinity line contributes to size 0; the partition lines to size q+1;"
      " the rest is the open territory)")

stats = orbit_incidence_stats(U, orbit)
print("\nincidence structure of (orbit points, lines meeting it twice or more):")
print(f"  line sizes {stats['line_size_distribution']}, "
      f"point degrees {stats['point_degree_distribution']}, tactical: {stats['tactical']}")
