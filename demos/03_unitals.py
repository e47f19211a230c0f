"""Building unitals: parameter validation, the q^3+1 point sets, tangent
lines, and the minimal-blocking-set verification.
"""

from unital_lab import (
    InvalidUnitalParameters,
    ProjectivePlane,
    build_field_ctx,
    build_obm_unital,
    valid_parameter_pairs,
    validate_params,
)

ctx = build_field_ctx(3, 1)
plane = ProjectivePlane(ctx)

# (alpha, beta) works exactly when 4 N(alpha) + (conj(beta) - beta)^2 is a
# non-square of GF(q).
alpha = ctx.parse_fq2("1+e")
params = validate_params(ctx, alpha, 0)
print(f"alpha = 1+e, beta = 0: discriminant {params.discriminant} (non-square) -> valid")
try:
    validate_params(ctx, 1, 0)
except InvalidUnitalParameters as err:
    print(f"alpha = 1,   beta = 0: discriminant {err.discriminant} (square)     -> rejected")

U = build_obm_unital(ctx, plane, params)
print(f"\n{U}: q^3+1 = {U.size} points; classical = {params.classical}")
print("line census:", U.verify_unital_axiom(), " (1 = tangent, q+1 = secant)")
print("blocking-set report:", U.verify_minimal_blocking_set())

# Tangent lines come from a closed formula, one per unital point; the line
# census confirms that each meets the unital in its point alone.
pid = plane.point_id(0, 1, 1)  # the point [0, 1, 1] = x=0, r=1
points, tangents = U.tangent_lines_closed_form()
formula = int(tangents[points == pid][0])
print(f"\ntangent at {plane.format_point(pid)}: formula {plane.format_line(formula, human=True)},"
      f" census says {U.classify_line(formula)}")

ext = plane.point_id(1, 1, 1)
through = U.line_counts[plane.lines_through(ext)]
t, s = int((through == 1).sum()), int((through == ctx.q + 1).sum())
print(f"through external {plane.format_point(ext)}: {t} tangents, {s} secants  (q+1, q^2-q)")

tuples = valid_parameter_pairs(ctx)
nonclassical = [t for t in tuples if not t.classical]
print(f"\nvalid (alpha, beta) pairs at q=3: {len(tuples)} total, {len(nonclassical)} with alpha != 0")
print("every nonclassical tuple at q=3 has beta = conj(beta):",
      all(t.beta_real for t in nonclassical))
