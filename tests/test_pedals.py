import dataclasses
import hashlib
from itertools import combinations

import numpy as np
import pytest

from unital_lab import (
    DegenerateConfiguration,
    DegenerateInput,
    InternalConsistencyError,
    TheoremViolation,
    arc_in_conic,
    build_obm_unital,
    canonical_base_point,
    conic_through,
    feet_closed_form,
    feet_of,
    feet_of_many,
    foot_parameters,
    is_single_arc,
    line_pedal_census,
    same_trace_solutions,
    secant_partitions,
    trace_value,
    two_arc_partition,
    valid_parameter_pairs,
    validate_params,
)

from conftest import (
    brute_feet,
    build_hermitian,
    foot_unital_r,
    get_geometry,
    tangent_line_brute,
    trace_level_line,
)


@pytest.fixture(scope="module")
def q3_model():
    ctx, plane = get_geometry(3, 1)
    return ctx, plane, build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))


@pytest.fixture(scope="module")
def q5_model():
    # beta != conj(beta): the interesting side of the four-lines question
    ctx, plane = get_geometry(5, 1)
    return ctx, plane, build_obm_unital(ctx, plane, validate_params(ctx, 1, ctx.eps))


def externals(plane, model):
    return [p for p in range(plane.size) if p not in model]


# -- feet: brute force ---------------------------------------------------------


def test_feet_counts_and_dichotomy_q3(q3_model):
    ctx, plane, model = q3_model
    for P in externals(plane, model):
        ped = feet_of(model, P)
        assert ped.size == ctx.q + 1
        assert plane.collinear(ped.feet) == plane.incident(P, plane.infinity_line)


def test_feet_rejects_unital_points(q3_model):
    ctx, plane, model = q3_model
    with pytest.raises(ValueError):
        feet_of(model, int(model.points[0]))


def test_feet_of_many_matches_scalar(q3_model):
    # every row against the incidence-and-membership oracle and feet_of
    ctx, plane, model = q3_model
    ext = externals(plane, model)
    feet = feet_of_many(model, ext)
    coll = plane.max_collinear(feet) == ctx.q + 1
    for i, P in enumerate(ext):
        ped = feet_of(model, P)
        assert tuple(feet[i].tolist()) == ped.feet == brute_feet(model, P)
        assert bool(coll[i]) == plane.collinear(ped.feet)
    with pytest.raises(ValueError, match="lies on the unital"):
        feet_of_many(model, [ext[0], int(model.points[3])])


def test_classical_pedals_always_collinear():
    ctx, plane = get_geometry(3, 1)
    H = build_hermitian(ctx, plane)
    for P in externals(plane, H):
        assert plane.collinear(feet_of(H, P).feet)
    # alpha = 0 OBM controls
    for params in valid_parameter_pairs(ctx):
        if not params.classical:
            continue
        model = build_obm_unital(ctx, plane, params)
        ext = externals(plane, model)
        coll = plane.max_collinear(feet_of_many(model, ext)) == ctx.q + 1
        assert bool(np.all(coll))


def test_every_line_through_infinity_contains_a_pedal(q3_model):
    ctx, plane, model = q3_model
    # pedals of external points on the infinity line are collinear, and the
    # carrier lines run over all lines != l_inf through the infinity point
    carriers = set()
    for P in plane.points_on(plane.infinity_line):
        P = int(P)
        if P in model:
            continue
        ped = feet_of(model, P)
        assert plane.collinear(ped.feet)
        carriers.add(plane.join(ped.feet[0], ped.feet[1]))
    through_pinf = {
        int(l) for l in plane.lines_through(model.infinity_point) if int(l) != model.infinity_line
    }
    assert carriers == through_pinf


# -- canonical frame ------------------------------------------------------------


def all_lambda_pedals(q):
    from conftest import PN_BY_Q

    ctx, plane = get_geometry(*PN_BY_Q[q])
    for params in valid_parameter_pairs(ctx, nonclassical_only=True):
        model = build_obm_unital(ctx, plane, params)
        for lam in (1, ctx.w):
            yield ctx, plane, model, lam


@pytest.mark.parametrize("q", [3, 5])
def test_closed_form_equals_brute_force(q):
    for ctx, plane, model, lam in all_lambda_pedals(q):
        closed = feet_closed_form(model, lam)
        brute = feet_of(model, closed.base)
        assert closed.feet == brute.feet
        assert closed.base == canonical_base_point(model, lam)


def test_parameter_set_properties(q3_model):
    ctx, plane, model = q3_model
    for lam in (1, ctx.w):
        xs = foot_parameters(model, lam)
        assert xs.size == ctx.q + 1
        assert 0 not in xs
        assert {int(x) for x in xs} == {ctx.neg(int(x)) for x in xs}


def test_foot_parameters_are_the_x_of_the_brute_force_feet(q5_model):
    # the x of each oracle foot [x, y, 1] is a/c for its stored coordinates [a, b, c]
    ctx, plane, model = q5_model
    for lam in (1, ctx.w):
        feet = brute_feet(model, canonical_base_point(model, lam))
        xs = sorted(ctx.mul(a, ctx.inv(c)) for a, _, c in map(plane.coords, feet))
        assert foot_parameters(model, lam).tolist() == xs


def test_lambda_restricted_to_1_and_w(q3_model):
    ctx, plane, model = q3_model
    with pytest.raises(ValueError):
        foot_parameters(model, 0)
    with pytest.raises(ValueError):
        canonical_base_point(model, 2 if ctx.w != 2 else 1 + ctx.w)


def test_foot_r_values(q3_model):
    ctx, plane, model = q3_model
    params = model.params
    for lam in (1, ctx.w):
        closed = feet_closed_form(model, lam)
        for x in closed.foot_params:
            r = foot_unital_r(model, lam, x)
            assert r == foot_unital_r(model, lam, ctx.neg(x))  # same r for x and -x
            s = ctx.add_t[ctx.mul(params.alpha, ctx.mul(x, x)), ctx.mul(params.beta, ctx.norm(x))]
            y = ctx.add_t[s, r]
            assert plane.point_id(x, y, 1) == closed.param_point[x]


# -- census -----------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
def test_census_support_and_corner_structure(q):
    for ctx, plane, model, lam in all_lambda_pedals(q):
        closed = feet_closed_form(model, lam)
        census = line_pedal_census(model, closed)
        assert sum(census.histogram.values()) == plane.size
        assert set(census.histogram) <= {0, 1, 2, 4}
        corner = plane.point_id(1, 0, 0)
        feet_set = set(closed.feet)
        for lid, pts in census.witnesses.get(4, []):
            assert plane.incident(corner, lid)
            assert set(pts) <= feet_set and len(pts) == 4
        # lines through [1,0,0] meet the pedal evenly
        for lid in plane.lines_through(corner):
            row = plane.points_on(int(lid))
            assert len(feet_set & {int(x) for x in row}) % 2 == 0


def test_census_rejects_bad_bases(q3_model):
    ctx, plane, model = q3_model
    on_inf = next(
        int(P) for P in plane.points_on(plane.infinity_line) if int(P) not in model
    )
    with pytest.raises(ValueError):
        line_pedal_census(model, feet_of(model, on_inf))
    classical = build_obm_unital(ctx, plane, validate_params(ctx, 0, ctx.eps))
    base = canonical_base_point(classical, 1)
    with pytest.raises(ValueError, match="requires an OBM unital with alpha != 0"):
        line_pedal_census(classical, feet_of(classical, base))


def test_beta_real_census_support_012(q3_model):
    ctx, plane, model = q3_model
    assert model.params.beta_real
    for lam in (1, ctx.w):
        census = line_pedal_census(model, feet_closed_form(model, lam))
        assert set(census.histogram) <= {0, 1, 2}


@pytest.mark.parametrize("q", [3, 5])
def test_beta_real_pedals_are_arcs_everywhere(q):
    # beta = conj(beta): every pedal of a point off the infinity line is an
    # arc, i.e. no line meets it in more than 2 points -- full base sweep
    from conftest import PN_BY_Q

    ctx, plane = get_geometry(*PN_BY_Q[q])
    on_inf = np.zeros(plane.size, dtype=bool)
    on_inf[plane.points_on(plane.infinity_line)] = True
    for params in valid_parameter_pairs(ctx, nonclassical_only=True):
        if not params.beta_real:
            continue
        model = build_obm_unital(ctx, plane, params)
        bases = np.nonzero(~model.mask & ~on_inf)[0].astype(np.int32)
        feet = feet_of_many(model, bases)
        for row in feet:
            counts = np.bincount(plane.incidence[row].ravel())
            assert int(counts.max()) <= 2


def test_size4_lines_exist_at_q5_beta_complex(q5_model):
    ctx, plane, model = q5_model
    hit = False
    for lam in (1, ctx.w):
        census = line_pedal_census(model, feet_closed_form(model, lam))
        hit = hit or 4 in census.histogram
    assert hit  # evidence row for the four-lines question


# -- trace classes -------------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
def test_trace_class_structure(q):
    for ctx, plane, model, lam in all_lambda_pedals(q):
        closed = feet_closed_form(model, lam)
        classes = closed.trace_classes
        assert sorted(x for c in classes.values() for x in c) == list(closed.foot_params)
        assert list(classes) == sorted(classes)
        feet_set = set(closed.feet)
        for t, cls in classes.items():
            assert len(cls) in (2, 4)
            assert list(cls) == sorted(cls)
            assert all(int(trace_value(model, x)) == t for x in cls)
            # the joining line of the class carries exactly its feet
            lid = trace_level_line(model, lam, cls[0])
            on_line = {int(x) for x in plane.points_on(lid)}
            assert {closed.param_point[x] for x in cls} == on_line & feet_set
            # negation closure inside the class (same trace for x and -x)
            assert {ctx.neg(x) for x in cls} == set(cls)
            # join of Q_x and Q_{-x} is that very line
            x = cls[0]
            assert plane.join(closed.param_point[x], closed.param_point[ctx.neg(x)]) == lid
        # distinct-trace pairs span 2-point lines
        counts = np.bincount(
            plane.incidence[np.asarray(closed.feet)].ravel(), minlength=plane.size
        )
        for (t1, c1), (t2, c2) in combinations(classes.items(), 2):
            for x in c1:
                for y in c2:
                    lid = plane.join(closed.param_point[x], closed.param_point[y])
                    assert counts[lid] == 2


def test_general_chord_formula(q5_model):
    # chord through Q_x, Q_y:
    # [T(a x^2)-T(a y^2), y-x, x T(a y^2) - y T(a x^2) + (y-x) lam e]^t
    ctx, plane, model = q5_model
    for lam in (1, ctx.w):
        closed = feet_closed_form(model, lam)
        lam_eps = ctx.pack(0, lam)
        for x, y in combinations(closed.foot_params, 2):
            tx, ty = trace_value(model, x), trace_value(model, y)
            coeffs = (
                ctx.qsub(tx, ty),
                ctx.sub(y, x),
                ctx.add_t[
                    ctx.sub(ctx.mul(x, ty), ctx.mul(y, tx)), ctx.mul(ctx.sub(y, x), lam_eps)
                ],
            )
            assert plane.line_id(*coeffs) == plane.join(
                closed.param_point[x], closed.param_point[y]
            )


def test_same_trace_closure_under_negation(q5_model):
    # Q_y on the line through Q_x and Q_{-x} forces Q_{-y} onto it
    ctx, plane, model = q5_model
    for lam in (1, ctx.w):
        closed = feet_closed_form(model, lam)
        for x in closed.foot_params:
            lid = trace_level_line(model, lam, x)
            for y in closed.foot_params:
                if plane.incident(closed.param_point[y], lid):
                    assert plane.incident(closed.param_point[ctx.neg(y)], lid)


def test_norm_imaginary_equivalence_beta_complex(q5_model):
    # for beta != conj(beta): N(x) = N(y) <=> Im(alpha x^2) = Im(alpha y^2)
    ctx, plane, model = q5_model
    assert not model.params.beta_real
    for lam in (1, ctx.w):
        xs = foot_parameters(model, lam)
        for x in xs:
            for y in xs:
                nx, ny = ctx.norm(int(x)), ctx.norm(int(y))
                ix = ctx.im(ctx.mul(model.params.alpha, ctx.mul(int(x), int(x))))
                iy = ctx.im(ctx.mul(model.params.alpha, ctx.mul(int(y), int(y))))
                assert (nx == ny) == (ix == iy)


@pytest.mark.parametrize("q", [3, 5])
def test_same_trace_solutions_dual_route(q):
    for ctx, plane, model, lam in all_lambda_pedals(q):
        closed = feet_closed_form(model, lam)
        counts = np.bincount(
            plane.incidence[np.asarray(closed.feet)].ravel(), minlength=plane.size
        )
        classes = same_trace_solutions(model, closed)  # raises if routes disagree
        assert classes == closed.trace_classes
        for cls in classes.values():
            assert {ctx.neg(x) for x in cls} == set(cls)
            assert len(cls) in (2, 4)
            assert len(cls) == int(counts[trace_level_line(model, lam, cls[0])])


def _one_parameter_moved(pedal):
    """The pedal with the largest x of its first trace class moved into its
    second class."""
    (t1, c1), (t2, c2) = list(pedal.trace_classes.items())[:2]
    classes = {**pedal.trace_classes, t1: c1[:-1], t2: tuple(sorted(c2 + c1[-1:]))}
    return dataclasses.replace(pedal, trace_classes=classes)


def test_a_corrupted_trace_class_is_caught(q5_model):
    ctx, plane, model = q5_model
    for lam in (1, ctx.w):
        corrupted = _one_parameter_moved(feet_closed_form(model, lam))
        with pytest.raises(InternalConsistencyError, match="quadratic system"):
            same_trace_solutions(model, corrupted)
        with pytest.raises(TheoremViolation, match="trace class of size"):
            two_arc_partition(model, corrupted)


def test_same_trace_solutions_needs_a_canonical_pedal(q5_model):
    ctx, plane, model = q5_model
    brute = feet_of(model, canonical_base_point(model, 1))
    with pytest.raises(ValueError, match="canonical pedal"):
        same_trace_solutions(model, brute)


# -- two-arc partition -----------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
def test_two_arc_partition_canonical(q):
    for ctx, plane, model, lam in all_lambda_pedals(q):
        closed = feet_closed_form(model, lam)
        a1, a2 = two_arc_partition(model, closed)
        assert set(a1) | set(a2) == set(closed.feet)
        assert not set(a1) & set(a2)
        assert not plane.has_three_collinear(a1)
        assert not plane.has_three_collinear(a2)
        census = line_pedal_census(model, closed)
        if 4 not in census.histogram:
            assert a2 == ()
            assert is_single_arc(model, closed)
        else:
            assert len(a2) >= 2
        if model.params.beta_real:
            assert is_single_arc(model, closed)  # the whole pedal is one arc


def test_two_arc_partition_generic_path(q5_model):
    # strip the canonical data and use the brute-force construction
    ctx, plane, model = q5_model
    from unital_lab import PedalSet

    for lam in (1, ctx.w):
        closed = feet_closed_form(model, lam)
        bare = PedalSet(base=closed.base, feet=closed.feet)
        a1, a2 = two_arc_partition(model, bare)
        assert set(a1) | set(a2) == set(closed.feet)
        assert not plane.has_three_collinear(a1)
        assert not plane.has_three_collinear(a2)


def _generic_partitions(model, step=1):
    """(base, part1, part2) of two_arc_partition on brute-force pedals of
    every step-th external point off the line at infinity."""
    plane = model.plane
    on_linf = np.zeros(plane.size, dtype=bool)
    on_linf[plane.points_on(plane.infinity_line)] = True
    bases = np.flatnonzero(~model.mask & ~on_linf)[::step]
    return [(int(b), *two_arc_partition(model, feet_of(model, int(b)))) for b in bases]


def test_two_arc_partition_generic_path_golden():
    # digest recorded with the pairwise join/points_on search this branch
    # used before it read the 4-point lines from the census witnesses
    ctx3, plane3 = get_geometry(3, 1)
    rows = [
        row
        for params in valid_parameter_pairs(ctx3, nonclassical_only=True)
        for row in _generic_partitions(build_obm_unital(ctx3, plane3, params))
    ]
    ctx5, plane5 = get_geometry(5, 1)
    rows += _generic_partitions(build_obm_unital(ctx5, plane5, validate_params(ctx5, 1, ctx5.eps)), 7)
    assert len(rows) == 720
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()
    assert digest == "3a39c65446136046640ea44c534b496fe3003821d7de6cf463d9fa3ab38102a8"


# -- conics ------------------------------------------------------------------------


def test_conic_through_parabola_points():
    ctx, plane = get_geometry(5, 1)
    pts = [plane.point_id(t, ctx.mul(t, t), 1) for t in range(5)]
    conic = conic_through(plane, pts)
    # y*z = x^2, canonicalized with leading coefficient 1
    assert conic.coeffs == (1, 0, 0, 0, 0, ctx.neg(1))
    parabola = [plane.point_id(t, ctx.mul(t, t), 1) for t in range(ctx.q2)]
    parabola.append(plane.point_id(0, 1, 0))
    on_conic = np.flatnonzero(conic.contains_points(plane, np.arange(plane.size)))
    # non-degenerate: exactly the q^2+1 parabola points, no three collinear
    assert on_conic.tolist() == sorted(parabola)
    assert not plane.has_three_collinear(on_conic)


def test_conic_through_degenerate_configurations():
    ctx, plane = get_geometry(5, 1)
    # three collinear among five: unique but reducible conic (line pair)
    pts = [plane.point_id(t, 0, 1) for t in range(3)]
    pts += [plane.point_id(0, 1, 1), plane.point_id(1, 1, 1)]
    conic = conic_through(plane, pts)
    # reducible: the conic contains the whole line through the collinear three
    line = plane.join(pts[0], pts[1])
    assert plane.incident(pts[2], line)
    assert conic.contains_points(plane, plane.points_on(line)).all()
    # four collinear: a pencil, no unique conic
    pts4 = [plane.point_id(t, 0, 1) for t in range(4)] + [plane.point_id(0, 1, 1)]
    with pytest.raises(DegenerateConfiguration):
        conic_through(plane, pts4)
    with pytest.raises(DegenerateInput):
        conic_through(plane, pts[:4] + [pts[0]])


def _quintuples(plane, rng, count):
    """``count`` quintuples of distinct points, in turn random and with 3, 4
    and 5 of their points drawn from one random line."""
    out = []
    for i in range(count):
        pts = []
        if i % 4:
            line = plane.points_on(int(rng.integers(plane.size)))
            pts = [int(p) for p in rng.choice(line, i % 4 + 2, replace=False)]
        while len(pts) < 5:
            p = int(rng.integers(plane.size))
            if p not in pts:
                pts.append(p)
        out.append([pts[j] for j in rng.permutation(5)])
    return out


def _form_at(ctx, coeffs, point):
    """c0 x^2 + c1 y^2 + c2 z^2 + c3 xy + c4 xz + c5 yz, one scalar at a time."""
    x, y, z = point
    total = 0
    for c, (u, v) in zip(coeffs, ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))):
        total = ctx.add_t[total, ctx.mul(c, ctx.mul(u, v))]
    return total


@pytest.mark.parametrize("p, n", [(3, 1), (5, 1), (3, 2)])
def test_conic_through_against_scalar_oracle(p, n):
    """Refused exactly when four of the five points are collinear (by the
    incidence table); otherwise a form with leading coefficient 1 that
    vanishes at all five points."""
    ctx, plane = get_geometry(p, n)
    rng = np.random.default_rng(p * 10 + n)
    seen = {"refused": 0, "three collinear": 0, "fitted": 0}
    for pts in _quintuples(plane, rng, 400):
        if any(plane.collinear(four) for four in combinations(pts, 4)):
            with pytest.raises(DegenerateConfiguration):
                conic_through(plane, pts)
            seen["refused"] += 1
            continue
        coeffs = conic_through(plane, pts).coeffs
        assert next(c for c in coeffs if c != 0) == 1
        assert [_form_at(ctx, coeffs, plane.coords(pt)) for pt in pts] == [0] * 5
        seen["three collinear" if plane.has_three_collinear(pts) else "fitted"] += 1
    assert min(seen.values()) >= 20, seen


def test_conic_through_is_the_one_conic_of_a_brute_force_search():
    """At q = 3, of all 9^6 forms exactly 8 nonzero ones (the scalar
    multiples of one conic) vanish at the five points, and the one with
    leading coefficient 1 is conic_through's."""
    ctx, plane = get_geometry(3, 1)
    add, mul = ctx.add_t, ctx.mul_t
    every_form = np.indices((ctx.q2,) * 6, dtype=np.int32).reshape(6, -1).T[1:]  # all but 0
    rng = np.random.default_rng(7)
    quintuples = [rng.choice(plane.size, 5, replace=False).tolist() for _ in range(40)]
    quintuples = [q for q in quintuples
                  if not any(plane.collinear(four) for four in combinations(q, 4))]
    collinear3 = [q for q in quintuples if plane.has_three_collinear(q)]
    chosen = [q for q in quintuples if not plane.has_three_collinear(q)][:3] + collinear3[:1]
    assert len(chosen) == 4
    for pts in chosen:
        forms = every_form
        for pt in pts:
            x, y, z = plane.coords(pt)
            monomials = [mul[u, v] for u, v in ((x, x), (y, y), (z, z), (x, y), (x, z), (y, z))]
            value = mul[forms[:, 0], monomials[0]]
            for col in range(1, 6):
                value = add[value, mul[forms[:, col], monomials[col]]]
            forms = forms[value == 0]
        assert len(forms) == ctx.q2 - 1
        leads = forms[np.arange(len(forms)), (forms != 0).argmax(axis=1)]
        (canonical,) = forms[leads == 1]
        assert tuple(canonical.tolist()) == conic_through(plane, pts).coeffs


def test_arc_in_conic():
    ctx, plane = get_geometry(5, 1)
    parabola = [plane.point_id(t, ctx.mul(t, t), 1) for t in range(ctx.q2)]
    fit = arc_in_conic(plane, parabola)
    assert fit.contained and fit.status == "ok"
    # spoil one point
    spoiled = parabola[:6] + [plane.point_id(1, 2, 1)]
    fit2 = arc_in_conic(plane, sorted(set(spoiled)))
    assert not fit2.contained and fit2.off_point is not None
    # tiny arcs are trivially inside a conic
    assert arc_in_conic(plane, parabola[:4]).status == "small"


def test_arc_in_conic_refuses_four_collinear_points():
    # no unique conic passes through five points with four on one line; an
    # arc never has three collinear points
    ctx, plane = get_geometry(5, 1)
    pts4 = [plane.point_id(t, 0, 1) for t in range(4)] + [plane.point_id(0, 1, 1)]
    with pytest.raises(DegenerateConfiguration):
        arc_in_conic(plane, pts4)


def test_arc_in_conic_on_pedal_arcs(q5_model):
    ctx, plane, model = q5_model
    for lam in (1, ctx.w):
        closed = feet_closed_form(model, lam)
        for part in two_arc_partition(model, closed):
            if part:
                fit = arc_in_conic(plane, part)
                assert fit.status in ("ok", "small")


# -- pedal interaction lemmas -----------------------------------------------------------


def test_two_pedals_share_at_most_one_point(q3_model):
    ctx, plane, model = q3_model
    ext = externals(plane, model)
    feet = feet_of_many(model, ext)
    sets = [set(int(x) for x in row) for row in feet]
    tangent_at = dict(zip(*(a.tolist() for a in model.tangent_lines_closed_form())))
    for i, j in combinations(range(len(ext)), 2):
        common = sets[i] & sets[j]
        assert len(common) <= 1
        if common:
            # they intersect exactly when both bases sit on the tangent at
            # the shared foot
            foot = common.pop()
            tangent = tangent_at[foot]
            assert plane.incident(ext[i], tangent) and plane.incident(ext[j], tangent)


def test_lines_through_infinity_tangent_or_exterior_to_pedals(q3_model):
    ctx, plane, model = q3_model
    ext = externals(plane, model)
    feet = feet_of_many(model, ext)
    sets = [set(int(x) for x in row) for row in feet]
    for lid in plane.lines_through(model.infinity_point):
        lid = int(lid)
        if lid == model.infinity_line:
            continue
        on_line = {int(x) for x in plane.points_on(lid)}
        for s in sets:
            if s <= on_line:
                continue  # pedal contained in the line
            assert len(s & on_line) <= 1


# -- secant partition ------------------------------------------------------------------


def test_secant_partition_exhaustive_q3(q3_model):
    ctx, plane, model = q3_model
    secants = np.nonzero(model.line_counts == ctx.q + 1)[0]
    assert secants.size == 63
    for lid in secants:
        bases, feet = secant_partitions(model, [lid])
        pairs = list(zip(bases[0].tolist(), feet[0].tolist()))
        assert len(pairs) == ctx.q + 1
        bases = [b for b, _ in pairs]
        feet = [f for _, f in pairs]
        assert len(set(bases)) == ctx.q + 1
        on_line = plane.points_on(int(lid))
        line_unital = {int(x) for x in on_line[model.mask[on_line]]}
        assert set(feet) == line_unital  # the singletons partition l ∩ U
        for base, foot in pairs:
            pedal = set(feet_of(model, base).feet)
            assert pedal & line_unital == {foot}


def test_secant_partition_rejects_tangents(q3_model):
    ctx, plane, model = q3_model
    with pytest.raises(ValueError, match="secant_partitions requires secant lines"):
        secant_partitions(model, [model.infinity_line])


def _check_secant_pairs(model, line, pairs):
    """Oracle for one secant's (base, foot) pairs from incidence rows,
    membership, the brute-force tangent and brute-force feet only."""
    plane = model.plane
    on_line = plane.points_on(line)
    line_unital = {int(x) for x in on_line[model.mask[on_line]]}
    assert sorted(foot for _, foot in pairs) == sorted(line_unital)
    assert len({base for base, _ in pairs}) == len(pairs)

    def singles_out(point, foot):
        return set(feet_of(model, point).feet) & line_unital == {foot}

    for base, foot in pairs:
        on_tangent = [int(x) for x in plane.points_on(tangent_line_brute(model, foot))]
        assert base in on_tangent and base != foot
        assert singles_out(base, foot)
        # the base is the first such point of the tangent in id order
        assert not any(singles_out(p, foot) for p in on_tangent if p < base and p != foot)


@pytest.mark.parametrize("fixture", ["q3_model", "q5_model"])
def test_secant_partitions_match_independent_oracle(fixture, request):
    ctx, plane, model = request.getfixturevalue(fixture)
    secants = np.nonzero(model.line_counts == ctx.q + 1)[0]
    if ctx.q == 3:
        assert secants.size == 63
    else:
        secants = secants[:: secants.size // 20][:20]
        assert secants.size == 20
    bases, feet = secant_partitions(model, secants)
    assert bases.shape == feet.shape == (secants.size, ctx.q + 1)
    for line, row_bases, row_feet in zip(secants, bases, feet):
        _check_secant_pairs(model, int(line), list(zip(row_bases.tolist(), row_feet.tolist())))


def test_secant_partitions_batch_equals_single_lines(q5_model):
    ctx, plane, model = q5_model
    secants = np.nonzero(model.line_counts == ctx.q + 1)[0]
    mixed = np.concatenate([secants[-3:], secants[:2], secants[secants.size // 2 :][:1], secants[:1]])
    bases, feet = secant_partitions(model, mixed)
    for line, row_bases, row_feet in zip(mixed, bases, feet):
        one_bases, one_feet = secant_partitions(model, [line])
        assert one_bases.tolist() == [row_bases.tolist()]
        assert one_feet.tolist() == [row_feet.tolist()]
    tangent = np.nonzero(model.line_counts == 1)[0][0]
    with pytest.raises(ValueError, match="secant"):
        secant_partitions(model, np.insert(mixed, 2, tangent))
