"""Two-arc partitions of pedals, and the conic question.

Every pedal of a point off the infinity line splits into two arcs: 4-point
chords contribute one sign pair to each part, 2-point chords go whole into
the first part.  When beta is real the pedal is a single arc outright.
For each arc one can ask whether some conic contains it.
"""

import numpy as np

from unital_lab import (
    ProjectivePlane,
    arc_in_conic,
    build_field_ctx,
    build_obm_unital,
    conic_through,
    feet_closed_form,
    is_single_arc,
    line_pedal_census,
    two_arc_partition,
    valid_parameter_pairs,
    validate_params,
)

# beta real: the census has no 4-point lines and the pedal is one arc.
ctx3 = build_field_ctx(3, 1)
plane3 = ProjectivePlane(ctx3)
U3 = build_obm_unital(ctx3, plane3, validate_params(ctx3, ctx3.parse_fq2("1+e"), 0))
ped3 = feet_closed_form(U3, 1)
a1, a2 = two_arc_partition(U3, ped3)
print(f"q=3, beta = 0 (real): census {line_pedal_census(U3, ped3).histogram}")
print(f"  parts {len(a1)}/{len(a2)}; whole pedal is an arc: {is_single_arc(U3, ped3)}")

# beta not real at q=5: a 4-point chord appears and forces a genuine split.
ctx5 = build_field_ctx(5, 1)
plane5 = ProjectivePlane(ctx5)
U5 = build_obm_unital(ctx5, plane5, validate_params(ctx5, 1, ctx5.eps))
ped5 = feet_closed_form(U5, 1)
a1, a2 = two_arc_partition(U5, ped5)
print(f"\nq=5, beta = e: census {line_pedal_census(U5, ped5).histogram}")
print(f"  parts {len(a1)}/{len(a2)} -- the size-4 chord splits into two sign pairs")
for label, part in (("first", a1), ("second", a2)):
    if not part:
        continue
    fit = arc_in_conic(plane5, part)
    verdict = fit.contained if fit.status == "ok" else fit.status
    print(f"  {label} arc ({len(part)} points) inside a conic: {verdict}")

# Conic fitting itself: five points of the parabola y = x^2 pin down y*z = x^2,
# an oval of q^2+1 points with no three collinear.
pts = [plane5.point_id(t, ctx5.mul(t, t), 1) for t in range(5)]
conic = conic_through(plane5, pts)
on_conic = np.flatnonzero(conic.contains_points(plane5, np.arange(plane5.size)))
print(f"\nconic through five parabola points: coefficients {conic.coeffs} "
      f"(x^2 - y z), {on_conic.size} points, "
      f"three collinear: {plane5.has_three_collinear(on_conic)}")

# Sweep all valid nonclassical tuples at q=3: every pedal is a single arc.
single = all(
    is_single_arc(U, feet_closed_form(U, lam))
    for params in valid_parameter_pairs(ctx3, nonclassical_only=True)
    for U in [build_obm_unital(ctx3, plane3, params)]
    for lam in (1, ctx3.w)
)
print(f"\nall canonical pedals at q=3 are single arcs: {single} "
      "(every valid nonclassical tuple there has beta real)")
