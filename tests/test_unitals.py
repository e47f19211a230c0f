import re

import numpy as np
import pytest

from unital_lab import (
    InvalidUnitalParameters,
    StructuralViolation,
    UnitalModel,
    build_hermitian,
    build_obm_unital,
    discriminant,
    valid_parameter_pairs,
    validate_params,
)

from conftest import PN_BY_Q, get_ctx, get_geometry, swapped_for_external


def brute_force_valid_pairs(ctx):
    """Oracle: validity decided per pair with the exhaustive square table."""
    squares = {ctx.qmul(a, a) for a in ctx.subfield_elements()}
    out = []
    for alpha in ctx.elements():
        for beta in ctx.elements():
            if discriminant(ctx, alpha, beta) not in squares:
                out.append((alpha, beta))
    return out


# -- parameter validation ------------------------------------------------------


def test_validation_examples():
    ctx = get_ctx(3, 1)
    good = validate_params(ctx, ctx.pack(1, 1), 0)
    assert good.discriminant == 2 and not ctx.is_square(2)
    assert not good.classical and good.beta_real

    with pytest.raises(InvalidUnitalParameters) as err:
        validate_params(ctx, 1, 0)
    assert err.value.discriminant == 1

    ctx5 = get_ctx(5, 1)
    good5 = validate_params(ctx5, 1, ctx5.eps)
    assert good5.discriminant == 2 and not good5.beta_real


def test_zero_discriminant_is_invalid():
    ctx = get_ctx(3, 1)
    with pytest.raises(InvalidUnitalParameters) as err:
        validate_params(ctx, 0, 0)
    assert err.value.discriminant == 0


def test_beta_conjugate_difference_square_identity():
    # (conj(beta) - beta)^2 = 4*w*b2^2 lies in GF(q) for every beta
    for q in (3, 9):
        ctx = get_ctx(*PN_BY_Q[q])
        four_w = ctx.qmul(ctx.scalar(4), ctx.w)
        for beta in ctx.elements():
            d = ctx.sub(ctx.conj(beta), beta)
            dsq = ctx.mul(d, d)
            b2 = ctx.im(beta)
            assert ctx.im(dsq) == 0
            assert ctx.unpack(dsq)[0] == ctx.qmul(four_w, ctx.qmul(b2, b2))


@pytest.mark.parametrize("q", [3, 5])
def test_valid_pairs_match_brute_force_oracle(q):
    ctx = get_ctx(*PN_BY_Q[q])
    expected = brute_force_valid_pairs(ctx)
    got = [(t.alpha, t.beta) for t in valid_parameter_pairs(ctx)]
    assert got == expected
    for t in valid_parameter_pairs(ctx):
        assert t.classical == (t.alpha == 0)
        assert t.beta_real == (ctx.conj(t.beta) == t.beta)


# -- construction -----------------------------------------------------------------


@pytest.mark.parametrize("q", [3, 5])
def test_obm_size(q):
    ctx, plane = get_geometry(*PN_BY_Q[q])
    params = valid_parameter_pairs(ctx, nonclassical_only=True)[0]
    model = build_obm_unital(ctx, plane, params)
    assert model.size == q**3 + 1
    assert plane.point_id(0, 0, 1) in model  # x = 0, r = 0
    assert model.infinity_point in model


def test_infinity_line_meets_only_infinity_point():
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    on_inf = plane.points_on(plane.infinity_line)
    assert [int(x) for x in on_inf[model.mask[on_inf]]] == [model.infinity_point]


@pytest.mark.parametrize("q", [3, 9])
def test_generating_pairs_roundtrip(q):
    ctx, plane = get_geometry(*PN_BY_Q[q])
    tuples = valid_parameter_pairs(ctx, nonclassical_only=True)
    for params in tuples[:: len(tuples) // 3]:  # three or four alpha rows
        model = build_obm_unital(ctx, plane, params)
        pairs = set()
        for pid in model.points:
            pid = int(pid)
            if pid == model.infinity_point:
                continue
            x, r = model.generating_pair(pid)
            assert ctx.im(r) == 0  # r lies in GF(q)
            y = ctx.add(
                ctx.add(ctx.mul(params.alpha, ctx.mul(x, x)), ctx.mul(params.beta, ctx.norm(x))),
                r,
            )
            assert plane.point_id(x, y, 1) == pid
            pairs.add((x, r))
        assert len(pairs) == q**3  # every affine point has its own pair


def test_generating_pair_raises_key_error_for_a_point_without_one():
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    off = next(
        plane.point_id(1, y, 1) for y in ctx.elements() if plane.point_id(1, y, 1) not in model
    )
    hermitian = build_hermitian(ctx, plane)
    affine_on_h = next(int(p) for p in hermitian.points if plane.coords(int(p))[2] == 1)
    for unital, point in ((model, model.infinity_point), (model, off), (hermitian, affine_on_h)):
        with pytest.raises(KeyError):
            unital.generating_pair(point)


def test_non_injective_generating_map_is_a_structural_violation(monkeypatch):
    ctx, plane = get_geometry(3, 1)
    real = plane.point_ids_vec

    def collide(*coords):  # two generators land on one point
        ids = real(*coords).copy()
        ids[1] = ids[0]
        return ids

    monkeypatch.setattr(plane, "point_ids_vec", collide)
    with pytest.raises(StructuralViolation, match="not injective"):
        build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))


def test_hermitian_model():
    ctx, plane = get_geometry(3, 1)
    H = build_hermitian(ctx, plane)
    assert H.size == 28 and H.classical
    assert H.verify_unital_axiom() == {1: 28, 4: 63}
    # [1, y, 0] in H iff 1 + N(y) = 0, giving q+1 points on that line
    solutions = [y for y in ctx.elements() if ctx.qadd(1, ctx.norm(y)) == 0]
    assert len(solutions) == ctx.q + 1
    for y in solutions:
        assert plane.point_id(1, y, 0) in H


# -- line classification -------------------------------------------------------------


def test_classify_lines():
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    assert model.classify_line(model.infinity_line) == ("tangent", 1)
    pts = model.points
    kind, count = model.classify_line(plane.join(int(pts[0]), int(pts[5])))
    assert (kind, count) == ("secant", ctx.q + 1)
    hist = model.verify_unital_axiom()
    assert hist == {1: 28, 4: 63}
    assert hist[1] == model.size  # one tangent per unital point


def test_structural_violation_on_corrupted_set():
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    broken = UnitalModel(ctx, plane, model.points[:-1], kind="corrupted")
    with pytest.raises(StructuralViolation):
        broken.verify_unital_axiom()


# -- tangents --------------------------------------------------------------------


def test_tangent_formula_vs_oracle_all_tuples_q3():
    ctx, plane = get_geometry(3, 1)
    for params in valid_parameter_pairs(ctx):
        model = build_obm_unital(ctx, plane, params)
        pts, lids = model.tangent_lines_closed_form()
        for pt, lid in zip(pts, lids):
            assert model.tangent_line_brute(int(pt)) == int(lid)
            assert model.classify_line(int(lid)) == ("tangent", 1)


def test_tangent_formula_vs_oracle_q5_spot():
    ctx, plane = get_geometry(5, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, 1, ctx.eps))
    pts, lids = model.tangent_lines_closed_form()
    rows = plane.incidence[pts]
    flags = model.line_counts[rows] == 1
    assert np.all(flags.sum(axis=1) == 1)
    assert np.array_equal(rows[flags], lids)


def test_hermitian_polar_tangents_vs_oracle():
    ctx, plane = get_geometry(3, 1)
    H = build_hermitian(ctx, plane)
    pts, lids = H.tangent_lines_closed_form()
    for pt, lid in zip(pts, lids):
        assert H.tangent_line_brute(int(pt)) == int(lid)


def test_tangent_at_vertical_fiber_base():
    # x = 0 specializes the tangent to [0, 1, -r]^t
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    for r in range(ctx.q):
        assert model.tangent_line_at(plane.point_id(0, r, 1)) == plane.line_id(
            0, 1, ctx.qneg(r)
        )
    assert model.tangent_line_at(model.infinity_point) == model.infinity_line
    with pytest.raises(ValueError):
        model.tangent_line_at(plane.point_id(1, 0, 0))


def test_tangent_counts_full_sweep_q3():
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    q = ctx.q
    for pid in plane.points():
        tangents, secants = model.tangent_count_through(pid)
        assert tangents + secants == q**2 + 1
        if pid in model:
            assert (tangents, secants) == (1, q**2)
        else:
            assert (tangents, secants) == (q + 1, q**2 - q)


def test_vertical_fibers():
    # the affine part splits into q^2 fibers {[x, y0 + r, 1]}, each inside a
    # line through the point at infinity
    ctx, plane = get_geometry(3, 1)
    params = validate_params(ctx, ctx.pack(1, 1), 0)
    model = build_obm_unital(ctx, plane, params)
    fibers = {}
    ids, xs, rs = model.generators
    for pid, x in zip(ids, xs):
        fibers.setdefault(int(x), []).append(int(pid))
    assert len(fibers) == ctx.q2
    for x, pids in fibers.items():
        assert len(pids) == ctx.q
        line = plane.join(pids[0], pids[1])
        assert plane.incident(model.infinity_point, line)
        assert all(plane.incident(p, line) for p in pids)


# -- blocking set ---------------------------------------------------------------


def test_blocking_report_and_negative_control():
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    report = model.verify_minimal_blocking_set()
    assert report.blocking and report.minimal and report.attains_bound
    assert report.size == report.bound == 28

    # remove the point at infinity: the infinity line becomes unblocked
    affine = model.points[model.points != model.infinity_point]
    broken = UnitalModel(ctx, plane, affine, kind="corrupted")
    rep = broken.verify_minimal_blocking_set()
    assert not rep.blocking
    assert int(broken.line_counts[model.infinity_line]) == 0


# -- the shared line pass against per-point arithmetic -----------------------------


def _oracle_line_stats(model):
    """Line sizes, tangents per point and the tangent at each point, from
    incidence rows and the membership mask alone, one point at a time."""
    plane, mask = model.plane, model.mask
    sizes = np.array([int(mask[plane.points_on(line)].sum()) for line in plane.lines()])
    tangents = {}
    for point in model.points.tolist():
        lines = plane.lines_through(point)
        tangents[point] = [int(line) for line in lines if mask[plane.points_on(line)].sum() == 1]
    return sizes, tangents


def _corrupted(name):
    ctx, plane = get_geometry(3, 1)
    model = build_obm_unital(ctx, plane, validate_params(ctx, ctx.pack(1, 1), 0))
    if name == "minus_infinity":
        affine = model.points[model.points != model.infinity_point]
        return UnitalModel(ctx, plane, affine, kind="corrupted")
    if name == "swapped":
        return swapped_for_external(model)
    if name == "plus_external":  # still blocking, but the added point has no tangent
        added = int(np.flatnonzero(~model.mask)[0])
        return UnitalModel(ctx, plane, np.append(model.points, added), kind="corrupted")
    return model


@pytest.mark.parametrize("name", ["intact", "minus_infinity", "swapped", "plus_external"])
@pytest.mark.parametrize("touch_first", [False, True], ids=["blocking_first", "touch_first"])
def test_line_pass_matches_per_point_oracle(name, touch_first):
    model = _corrupted(name)
    q = model.ctx.q
    sizes, tangents = _oracle_line_stats(model)
    blocking = bool(np.all(sizes >= 1))
    expected = {
        "blocking": blocking,
        "minimal": blocking and all(len(t) >= 1 for t in tangents.values()),
        "attains_bound": model.size == q**3 + 1,
        "size": model.size,
        "bound": q**3 + 1,
    }
    one_tangent_each = all(len(t) == 1 for t in tangents.values())

    def touch():
        if not one_tangent_each:
            with pytest.raises(StructuralViolation, match="exactly one tangent line"):
                model.touch_points
            return
        expected_touch = np.full(model.plane.size, -1)
        for point, (line,) in tangents.items():
            expected_touch[line] = point
        assert np.array_equal(model.touch_points, expected_touch)

    def blocking_report():
        assert vars(model.verify_minimal_blocking_set()) == expected

    for step in (touch, blocking_report) if touch_first else (blocking_report, touch):
        step()
    assert np.array_equal(model.line_counts, sizes)
    values, freq = np.unique(sizes, return_counts=True)
    if set(values.tolist()) <= {1, q + 1}:
        assert model.verify_unital_axiom() == dict(zip(values.tolist(), freq.tolist()))
    else:
        bad = sorted(set(values.tolist()) - {1, q + 1})
        with pytest.raises(StructuralViolation, match=rf"sizes {re.escape(str(bad))} violate"):
            model.verify_unital_axiom()


def test_corrupted_models_reach_every_outcome():
    # the oracle test above covers a set whose touch array exists although it
    # is no unital, one where some point has no single tangent, and a
    # blocking set that is not minimal
    sizes, minus_infinity = _oracle_line_stats(_corrupted("minus_infinity"))
    assert all(len(t) == 1 for t in minus_infinity.values()) and sizes.min() == 0
    _, swapped = _oracle_line_stats(_corrupted("swapped"))
    assert not all(len(t) == 1 for t in swapped.values())
    sizes, plus_external = _oracle_line_stats(_corrupted("plus_external"))
    assert sizes.min() >= 1 and min(len(t) for t in plus_external.values()) == 0
