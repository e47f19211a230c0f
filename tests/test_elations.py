from itertools import combinations

import numpy as np
import pytest

from unital_lab import (
    ElationGroup,
    PedalSet,
    StructuralViolation,
    TheoremViolation,
    UnitalModel,
    build_obm_unital,
    feet_closed_form,
    feet_of,
    orbit_incidence_stats,
    orbit_line_census,
    orbit_of_pedal,
    partition_lines_for_orbit,
    trace_value,
    valid_parameter_pairs,
    validate_params,
)

from conftest import get_geometry


@pytest.fixture(scope="module")
def setup():
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    return ctx, plane, model, ElationGroup(model)


def test_group_laws_on_every_point(setup):
    ctx, plane, model, group = setup
    all_points = np.arange(plane.size, dtype=np.int32)
    # composition is addition in GF(q), the inverse is negation
    for t in range(group.order):
        for s in range(group.order):
            lhs = group.apply_points(t, group.apply_points(s, all_points))
            rhs = group.apply_points(ctx.qadd(t, s), all_points)
            assert np.array_equal(lhs, rhs)
    assert np.array_equal(group.apply_points(0, all_points), all_points)
    for t in range(group.order):
        undone = group.apply_points(ctx.qneg(t), group.apply_points(t, all_points))
        assert np.array_equal(undone, all_points)


def test_axis_fixed_pointwise_and_semiregular(setup):
    ctx, plane, model, group = setup
    axis = plane.points_on(plane.infinity_line)
    off_axis = np.setdiff1d(np.arange(plane.size, dtype=np.int32), axis)
    for t in range(group.order):
        assert np.array_equal(group.apply_points(t, axis), axis)
        moved = group.apply_points(t, off_axis)
        if t == 0:
            assert np.array_equal(moved, off_axis)
        else:
            assert not np.any(moved == off_axis)  # no fixed point off the axis


def test_unital_invariance_all_tuples(setup):
    ctx, plane, _, _ = setup
    for params in valid_parameter_pairs(ctx):
        model = build_obm_unital(ctx, plane, params)
        group = ElationGroup(model)
        for t in range(group.order):
            image = np.sort(group.apply_points(t, model.points))
            assert np.array_equal(image, model.points)


def test_generator_check_covers_a_gf_p_basis_of_gf_q():
    # at q = 9 the generators are t = 1 and t = 3; a set that is a union of
    # orbits of {E_t : t in GF(3)} is fixed by E_1 but moved by E_3
    ctx, plane = get_geometry(3, 2)
    model = build_obm_unital(ctx, plane, valid_parameter_pairs(ctx, nonclassical_only=True)[0])
    group = ElationGroup(model)
    group.check_fixes_unital()
    prime = np.arange(ctx.p, dtype=np.int32)[:, None]
    outside = np.flatnonzero(~model.mask & (plane._coords[:, 2] != 0))
    dropped = group.apply_points(prime, model.points[:1]).ravel()
    added = group.apply_points(prime, outside[:1]).ravel()
    points = np.union1d(np.setdiff1d(model.points, dropped), added)
    moved = UnitalModel(ctx, plane, points)
    assert moved.size == model.size
    for t in range(ctx.p):
        assert np.array_equal(np.sort(group.apply_points(t, points)), points)
    message = r"^the elation t=3 moves \[.*\] off UnitalModel\[730 points\]$"
    with pytest.raises(StructuralViolation, match=message):
        ElationGroup(moved).check_fixes_unital()


def test_affine_action_and_translates(setup):
    ctx, plane, model, group = setup
    # [x, y, 1] -> [x, y + t, 1], staying in the unital (r -> r + t)
    ids = model.generators
    xs, rs = np.divmod(np.arange(ids.size), ctx.q)  # entry i is (x, r) = divmod(i, q)
    for t in range(group.order):
        for image, x, r in zip(group.apply_points(t, ids[:10]).tolist(), xs[:10], rs[:10]):
            xx, rr = model.generating_pair(image)
            assert xx == int(x) and rr == ctx.qadd(int(r), t)
    # canonical base translates: [0, lam*e + t, 1]
    for lam in (1, ctx.w):
        base = plane.point_id(0, ctx.pack(0, lam), 1)
        for t in range(group.order):
            assert group.apply_points(t, [base])[0] == plane.point_id(
                0, ctx.add_t[ctx.pack(0, lam), t], 1
            )


def test_elations_map_the_points_of_a_line_onto_a_line(setup):
    # E_t is a collineation: the q^2+1 points of a line go onto the points of
    # the join of the images of two of them
    ctx, plane, model, group = setup
    rng = np.random.default_rng(4)
    ts = np.arange(group.order, dtype=np.int32)[:, None]
    for line in rng.integers(0, plane.size, size=40).tolist():
        on = plane.points_on(line)
        moved = group.apply_points(ts, on)
        for t in range(group.order):
            assert np.array_equal(moved[t], group.apply_points(t, on))  # broadcast = one t
            image = plane.join(int(moved[t, 0]), int(moved[t, 1]))
            assert np.array_equal(np.sort(moved[t]), plane.points_on(image))


def test_joining_point_to_image_passes_through_center(setup):
    ctx, plane, model, group = setup
    ped = feet_closed_form(model, 1)
    for t in range(1, ctx.q):
        for A, B in zip(ped.feet, group.apply_points(t, ped.feet).tolist()):
            assert plane.incident(model.infinity_point, plane.join(A, B))


def test_only_identity_stabilizes_a_pedal(setup):
    ctx, plane, model, group = setup
    ped = feet_closed_form(model, 1)
    for t in range(1, ctx.q):
        image = set(int(x) for x in group.apply_points(t, np.asarray(ped.feet)))
        assert image != set(ped.feet)


def test_orbit_structure_q3(setup):
    ctx, plane, model, group = setup
    for lam in (1, ctx.w):
        ped = feet_closed_form(model, lam)
        orbit = orbit_of_pedal(model, ped)  # verifies images and disjointness
        assert orbit.size == ctx.q * (ctx.q + 1) == 12
        assert len(orbit.pedals) == ctx.q
        for t, feet in orbit.pedals:
            moved = group.apply_points(t, [ped.base])[0]
            assert feet_of(model, moved).feet == feet


def test_pedal_image_preserves_chord_intersections(setup):
    # |AC ∩ pedal| = |E_t(A)E_t(C) ∩ image pedal| for every foot pair
    ctx, plane, model, group = setup
    ped = feet_closed_form(model, 1)
    base_feet = set(ped.feet)
    for t in range(group.order):
        image = dict(zip(ped.feet, group.apply_points(t, ped.feet).tolist()))
        img_feet = set(image.values())
        for A, C in combinations(ped.feet, 2):
            before = base_feet & {int(x) for x in plane.points_on(plane.join(A, C))}
            lid = plane.join(image[A], image[C])
            after = img_feet & {int(x) for x in plane.points_on(lid)}
            assert len(before) == len(after)


def test_partition_lines(setup):
    ctx, plane, model, group = setup
    corner = plane.point_id(1, 0, 0)
    for lam in (1, ctx.w):
        orbit = orbit_of_pedal(model, feet_closed_form(model, lam))
        lines = partition_lines_for_orbit(model, orbit)
        assert len(lines) == ctx.q
        in_orbit = np.zeros(plane.size, dtype=bool)
        in_orbit[np.asarray(orbit.points)] = True
        covered = set()
        for lid in lines:
            assert plane.incident(corner, lid)
            row = plane.points_on(lid)
            hits = {int(x) for x in row[in_orbit[row]]}
            assert len(hits) == ctx.q + 1
            unital_hits = {int(x) for x in row[model.mask[row]]}
            assert unital_hits <= set(orbit.points)  # line ∩ U inside the orbit
            covered |= hits
        assert covered == set(orbit.points)
        # any other line through [1,0,0] (the gamma without the lam*e shape)
        # misses the orbit entirely
        partition_set = {int(l) for l in lines}
        for lid in plane.lines_through(corner):
            lid = int(lid)
            if lid in partition_set or lid == model.infinity_line:
                continue
            row = plane.points_on(lid)
            assert not np.any(in_orbit[row])


def test_partition_line_parameter_equation(setup):
    # for gamma = s - lam*e, each foot parameter y meets the line inside the
    # pedal moved by t = gamma + lam*e - T(alpha y^2)
    ctx, plane, model, group = setup
    lam = 1
    ped = feet_closed_form(model, lam)
    lam_eps = ctx.pack(0, lam)
    for s in range(ctx.q):
        gamma = ctx.sub(s, lam_eps)
        lid = plane.line_id(0, ctx.neg(1), gamma)
        for y in ped.foot_params:
            t_val = ctx.add_t[ctx.sub(gamma, lam_eps), ctx.neg(trace_value(model, y))]
            t_re, t_im = ctx.unpack(ctx.add_t[gamma, ctx.sub(lam_eps, trace_value(model, y))])
            # gamma + lam*e - T(alpha y^2) lands in GF(q)
            assert t_im == 0
            moved = group.apply_points(t_re, [ped.param_point[y]])[0]
            assert plane.incident(moved, lid)


def test_orbit_census(setup):
    ctx, plane, model, group = setup
    for lam in (1, ctx.w):
        orbit = orbit_of_pedal(model, feet_closed_form(model, lam))
        census = orbit_line_census(model, orbit)
        assert sum(census.histogram.values()) == plane.size
        # the infinity line misses the orbit
        in_orbit = set(orbit.points)
        assert not (in_orbit & {int(x) for x in plane.points_on(plane.infinity_line)})
        # the q partition lines appear with size q+1
        assert census.histogram.get(ctx.q + 1, 0) >= ctx.q
        stats = orbit_incidence_stats(model, orbit)
        assert stats["points"] == orbit.size
        assert set(stats["line_size_distribution"]) == set(census.histogram) - {0, 1}


def test_orbit_rejects_non_canonical_partition(setup):
    ctx, plane, model, group = setup
    ped = feet_of(model, plane.point_id(1, 1, 1)) if plane.point_id(1, 1, 1) not in model else None
    if ped is None:
        pytest.skip("sample point happens to lie on the unital")
    orbit = orbit_of_pedal(model, ped)
    with pytest.raises(ValueError):
        partition_lines_for_orbit(model, orbit)


def test_orbit_rejects_feet_of_another_base(setup):
    ctx, plane, model, group = setup
    ped = feet_closed_form(model, 1)
    other = feet_closed_form(model, ctx.w)
    assert set(ped.feet) != set(other.feet)
    forged = PedalSet(base=ped.base, feet=other.feet, lam=1)
    with pytest.raises(TheoremViolation, match=r"elation t=0 image"):
        orbit_of_pedal(model, forged)
