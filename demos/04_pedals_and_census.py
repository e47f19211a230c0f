"""Feet of external points and how lines cut them.

The pedal of an external point P is the set of q+1 unital points touched by
the tangent lines through P.  Pedals of points on the infinity line are
collinear; all the others split between 2-point and 4-point chords, with
every line meeting them in 0, 1, 2, or 4 points.
"""

from unital_lab import (
    ProjectivePlane,
    build_field_ctx,
    build_obm_unital,
    feet_closed_form,
    feet_of,
    line_pedal_census,
    same_trace_solutions,
    validate_params,
)

ctx = build_field_ctx(5, 1)
plane = ProjectivePlane(ctx)
U = build_obm_unital(ctx, plane, validate_params(ctx, 1, ctx.eps))  # beta = e, not real
print(f"{U} over GF(25), discriminant {U.params.discriminant}, beta real: {U.params.beta_real}")

# Brute force vs closed form at the canonical base [0, e, 1].
pedal = feet_closed_form(U, 1)
brute = feet_of(U, pedal.base)
print(f"\nbase {plane.format_point(pedal.base)}; closed form == brute force: "
      f"{pedal.feet == brute.feet}")
print("feet:", ", ".join(plane.format_point(f) for f in pedal.feet))
print("foot parameters:", ", ".join(ctx.format_fq2(x) for x in pedal.foot_params),
      " (closed under x -> -x)")

# A point of the infinity line has a collinear pedal instead.
on_inf = next(int(P) for P in plane.points_on(plane.infinity_line) if P not in U)
print(f"\npedal of {plane.format_point(on_inf)} on the infinity line: "
      f"collinear = {plane.collinear(feet_of(U, on_inf).feet)}")

# The census over all q^4+q^2+1 lines.
census = line_pedal_census(U, pedal)
print(f"\ncensus of |line ∩ pedal| over {plane.size} lines: {census.histogram}")
for size in (4, 2):
    for lid, pts in census.witnesses.get(size, [])[:1]:
        print(f"  size-{size} witness {plane.format_line(lid, human=True)}: "
              + ", ".join(plane.format_point(p) for p in pts))

# Feet sharing the value T(alpha x^2) sit together on a line through [1,0,0];
# the pedal carries these classes, and a pair of quadratics over GF(q)
# confirms each one.
classes = pedal.trace_classes
print("\ntrace classes:", {t: [ctx.format_fq2(x) for x in cls] for t, cls in classes.items()})
same_trace_solutions(U, pedal)  # raises unless the system gives every class exactly
for t, cls in classes.items():
    print(f"  trace {t}: quadratic system confirms {len(cls)} solutions")
