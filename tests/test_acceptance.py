"""Acceptance suite: exhaustive desk-scale verification at q in {3, 5, 7, 9, 13}.

Each test covers one numbered criterion at its stated tolerance (exact unless
noted) and prints one PASS/FAIL line; run with ``pytest -s`` to see the lines
live.  Scope choices where a criterion leaves the parameter-tuple set open
are stated in the test docstrings.
"""

import time

import numpy as np
import pytest

from unital_lab import (
    ElationGroup,
    build_hermitian,
    build_obm_unital,
    canonical_base_point,
    cli,
    feet_closed_form,
    feet_of,
    feet_of_many,
    line_pedal_census,
    orbit_of_pedal,
    partition_lines_for_orbit,
    same_trace_solutions,
    secant_partition,
    two_arc_partition,
    valid_parameter_pairs,
    validate_params,
)

from conftest import PN_BY_Q, brute_feet, get_ctx, get_geometry

ALL_Q = (3, 5, 7, 9, 13)
SMALL_Q = (3, 5)
MID_Q = (3, 5, 7, 9)


def _report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:2d}: {description}", flush=True)
    assert ok, f"criterion {number}: {description}"


def _nonclassical(ctx):
    return valid_parameter_pairs(ctx, nonclassical_only=True)


def test_criterion_01_construction_counts():
    """|U| = q^3+1 for every valid tuple and |plane| = q^4+q^2+1, exact;
    representative build times < 1 s (q <= 9) and < 30 s (q = 13)."""
    plane_sizes = {3: 91, 5: 651, 7: 2451, 9: 6643, 13: 28731}
    unital_sizes = {3: 28, 5: 126, 7: 344, 9: 730, 13: 2198}
    ok = True
    for q in ALL_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        ok = ok and plane.size == plane_sizes[q] == q**4 + q**2 + 1
        tuples = valid_parameter_pairs(ctx)
        started = time.perf_counter()
        for params in tuples:
            model = build_obm_unital(ctx, plane, params)
            ok = ok and model.size == unital_sizes[q] == q**3 + 1
        per_tuple = (time.perf_counter() - started) / len(tuples)
        ok = ok and per_tuple < (30.0 if q == 13 else 1.0)
    _report(1, "construction counts exact for every valid tuple, q in {3,5,7,9,13}", ok)


def test_criterion_02_unital_axiom():
    """Every line meets U in 1 or q+1 points; all lines, every valid tuple, q <= 9."""
    ok = True
    for q in MID_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        for params in valid_parameter_pairs(ctx):
            model = build_obm_unital(ctx, plane, params)
            hist = model.verify_unital_axiom()  # raises on any other count
            ok = ok and set(hist) <= {1, q + 1} and hist[1] == q**3 + 1
    _report(2, "unital axiom holds on all lines for every valid tuple, q <= 9", ok)


def test_criterion_03_tangent_formula_vs_oracle():
    """Closed-form tangent equals the brute-force unique-1-point-line oracle
    on 100% of unital points, every valid tuple, q <= 9."""
    ok = True
    for q in MID_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        for params in valid_parameter_pairs(ctx):
            model = build_obm_unital(ctx, plane, params)
            pts, formula = model.tangent_lines_closed_form()
            rows = plane.incidence[pts]
            flags = model.line_counts[rows] == 1
            ok = ok and bool(np.all(flags.sum(axis=1) == 1))
            ok = ok and bool(np.array_equal(rows[flags], formula))
    _report(3, "tangent formula matches brute-force oracle on all points, q <= 9", ok)


def test_criterion_04_tangent_counts():
    """(1, q^2) through unital points, (q+1, q^2-q) through external points;
    full point sweep q <= 5, >= 1000 evenly sampled points for q in {7, 9};
    every valid tuple."""
    ok = True
    for q in MID_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        if q <= 5:
            sample = np.arange(plane.size, dtype=np.int32)
        else:
            step = max(1, plane.size // 1000)
            sample = np.arange(plane.size, dtype=np.int32)[::step]
            ok = ok and sample.size >= 1000
        for params in valid_parameter_pairs(ctx):
            model = build_obm_unital(ctx, plane, params)
            tangents = (model.line_counts[plane.incidence[sample]] == 1).sum(axis=1)
            expected = np.where(model.mask[sample], 1, q + 1)
            ok = ok and bool(np.array_equal(tangents, expected))
    _report(4, "tangent/secant counts through unital and external points", ok)


def test_criterion_05_collinearity_dichotomy():
    """alpha != 0: pedal collinear <=> base on the infinity line -- all external
    points for q <= 5 (every nonclassical tuple); all infinity-line points plus
    all elation translates of the canonical bases for q in {7, 9, 13} (every
    nonclassical tuple at 7 and 9, a deterministic ~200-tuple sample at 13).
    Hermitian control (alpha = 0): every pedal collinear, full sweep q <= 5."""
    ok = True
    for q in SMALL_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        on_inf = np.zeros(plane.size, dtype=bool)
        on_inf[plane.points_on(plane.infinity_line)] = True
        for params in _nonclassical(ctx):
            model = build_obm_unital(ctx, plane, params)
            ext = np.nonzero(~model.mask)[0].astype(np.int32)
            coll = plane.max_collinear(feet_of_many(model, ext)) == ctx.q + 1
            ok = ok and bool(np.array_equal(coll, on_inf[ext]))
        # classical controls: the hermitian model and every alpha = 0 tuple
        for model in [build_hermitian(ctx, plane)] + [
            build_obm_unital(ctx, plane, t) for t in valid_parameter_pairs(ctx) if t.classical
        ]:
            ext = np.nonzero(~model.mask)[0].astype(np.int32)
            coll = plane.max_collinear(feet_of_many(model, ext)) == ctx.q + 1
            ok = ok and bool(np.all(coll))
    for q in (7, 9, 13):
        ctx, plane = get_geometry(*PN_BY_Q[q])
        on_inf = np.zeros(plane.size, dtype=bool)
        on_inf[plane.points_on(plane.infinity_line)] = True
        tuples = _nonclassical(ctx)
        if q == 13:
            tuples = tuples[:: max(1, len(tuples) // 200)]
        for params in tuples:
            model = build_obm_unital(ctx, plane, params)
            group = ElationGroup(model)
            inf_ext = np.asarray(
                [int(P) for P in plane.points_on(plane.infinity_line) if P not in model],
                dtype=np.int32,
            )
            canonical = [canonical_base_point(model, lam) for lam in (1, ctx.w)]
            ts = np.arange(group.order, dtype=np.int32)[:, None]
            translates = np.sort(group.apply_points(ts, canonical).ravel())
            bases = np.concatenate([inf_ext, translates])
            coll = plane.max_collinear(feet_of_many(model, bases)) == ctx.q + 1
            ok = ok and bool(np.array_equal(coll, on_inf[bases]))
    _report(5, "pedal collinearity dichotomy and hermitian control", ok)


def test_criterion_06_census_theorem():
    """For P_lam (lam in {1, w}), every nonclassical valid tuple, q <= 9:
    census support within {0,1,2,4}; size-4 lines pass through [1,0,0]; lines
    through [1,0,0] meet the pedal evenly; distinct-trace foot pairs span
    2-point lines.  Exact, zero exceptions."""
    ok = True
    for q in MID_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        corner = plane.point_id(1, 0, 0)
        through_corner = np.zeros(plane.size, dtype=bool)
        through_corner[plane.lines_through(corner)] = True
        for params in _nonclassical(ctx):
            model = build_obm_unital(ctx, plane, params)
            for lam in (1, ctx.w):
                pedal = feet_closed_form(model, lam)
                feet = np.asarray(pedal.feet, dtype=np.int32)
                counts = np.bincount(plane.incidence[feet].ravel(), minlength=plane.size)
                support = set(np.unique(counts[counts > 0]).tolist()) | {0}
                ok = ok and support <= {0, 1, 2, 4}
                ok = ok and bool(np.all(through_corner[np.nonzero(counts == 4)[0]]))
                ok = ok and bool(np.all(counts[plane.lines_through(corner)] % 2 == 0))
                # distinct-trace pairs
                xs = np.asarray(pedal.foot_params, dtype=np.int32)
                tv = ctx.trace_t[ctx.mul_t[params.alpha, ctx.mul_t[xs, xs]]]
                pts = np.asarray([pedal.param_point[int(x)] for x in xs], dtype=np.int32)
                ii, jj = np.triu_indices(xs.size, k=1)
                diff = tv[ii] != tv[jj]
                chords = plane.vcross(plane._coords[pts[ii[diff]]], plane._coords[pts[jj[diff]]])
                lids = plane.point_ids_vec(chords[:, 0], chords[:, 1], chords[:, 2])
                ok = ok and bool(np.all(counts[lids] == 2))
    _report(6, "census support {0,1,2,4} with the [1,0,0] line structure, q <= 9", ok)


def _membership_forms(ctx, params, lam) -> dict[str, np.ndarray]:
    """The foot-parameter condition evaluated three ways on every x in
    GF(q^2), each an array whose zeros are the parameters:

    * direct: 2*lam*e + alpha*x^2 - conj(alpha)*conj(x)^2 + (beta - conj(beta))*N(x);
    * matrix: 2*lam*e + (x, conj(x)) M (x, conj(x))^t with
      M = [[alpha, h], [h, -conj(alpha)]] and h = (beta - conj(beta))/2;
    * imnorm: 2*lam*e + 2*e*Im(alpha*x^2) + (beta - conj(beta))*N(x).
    """
    add, mul, neg = ctx.add_t, ctx.mul_t, ctx.neg_t
    x = np.arange(ctx.q2, dtype=np.int32)
    xbar = ctx.conj_t[x]
    two_lam_eps = ctx.pack(0, ctx.qmul(ctx.scalar(2), lam))
    b_minus_bbar = ctx.sub(params.beta, ctx.conj(params.beta))
    ax2 = mul[params.alpha, mul[x, x]]
    direct = add[
        add[add[two_lam_eps, ax2], neg[mul[ctx.conj(params.alpha), mul[xbar, xbar]]]],
        mul[b_minus_bbar, ctx.norm_t[x]],
    ]
    h = ctx.div(b_minus_bbar, ctx.scalar(2))
    m_top = add[mul[params.alpha, x], mul[h, xbar]]
    m_bot = add[mul[h, x], mul[ctx.neg(ctx.conj(params.alpha)), xbar]]
    matrix = add[two_lam_eps, add[mul[x, m_top], mul[xbar, m_bot]]]
    im_term = ctx.q * ctx.qmul_t[ctx.scalar(2), ax2 // ctx.q]  # pack(0, 2*Im(alpha x^2))
    imnorm = add[add[two_lam_eps, im_term], mul[b_minus_bbar, ctx.norm_t[x]]]
    return {"direct": direct, "matrix": matrix, "imnorm": imnorm}


def _second_representation(ctx, plane, params, lam, xs) -> np.ndarray:
    """Point ids of [x, 2*alpha*x^2 + (beta - conj(beta))*N(x) + lam*e, 1]."""
    add, mul = ctx.add_t, ctx.mul_t
    b_minus_bbar = ctx.sub(params.beta, ctx.conj(params.beta))
    y = add[
        add[mul[ctx.scalar(2), mul[params.alpha, mul[xs, xs]]], mul[b_minus_bbar, ctx.norm_t[xs]]],
        ctx.pack(0, lam),
    ]
    return plane.point_ids_vec(xs, y, np.ones_like(xs))


def test_criterion_07_closed_form_equals_brute_force():
    """The three membership forms agree on all of GF(q^2) and their zero set
    is the parameter set T, with |T| = q+1 and T closed under negation; the
    closed-form feet equal the second representation
    [x, 2*alpha*x^2 + (beta-conj(beta))*N(x) + lam*e, 1]; the canonical feet,
    feet_of and the incidence-and-membership oracle give the same set.
    Exact, every nonclassical valid tuple, both lam, q <= 13.

    feet_of reads only the model's point set, so it runs on the last model
    whose point set equals this tuple's, compared on every tuple.  The q
    tuples (alpha, beta + c), c in GF(q), share one set and come in a run,
    so this saves a line pass per tuple (about 45 s at q = 13)."""
    ok = True
    for q in ALL_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        same_set = None
        for params in _nonclassical(ctx):
            model = build_obm_unital(ctx, plane, params)
            if same_set is None or not np.array_equal(same_set.points, model.points):
                same_set = model
            for lam in (1, ctx.w):
                forms = _membership_forms(ctx, params, lam)
                ok = ok and bool(np.array_equal(forms["direct"], forms["matrix"]))
                ok = ok and bool(np.array_equal(forms["direct"], forms["imnorm"]))
                closed = feet_closed_form(model, lam)
                xs = np.asarray(closed.foot_params, dtype=np.int32)
                ok = ok and bool(np.array_equal(xs, np.flatnonzero(forms["direct"] == 0)))
                ok = ok and xs.size == q + 1 and 0 not in xs
                ok = ok and set(ctx.neg_t[xs].tolist()) == set(xs.tolist())
                ids = [closed.param_point[x] for x in closed.foot_params]
                second = _second_representation(ctx, plane, params, lam, xs)
                ok = ok and bool(np.array_equal(ids, second))
                oracle = brute_feet(model, closed.base)
                ok = ok and closed.feet == feet_of(same_set, closed.base).feet == oracle
    _report(7, "3 forms and 2 foot forms agree; closed form = feet_of = oracle, q <= 13", ok)


def test_criterion_08_two_arc_theorem():
    """two_arc_partition succeeds with exhaustive no-3-collinear checks for
    every nonclassical valid tuple and both lam, q <= 9; beta real implies
    census support {0,1,2} and a single arc."""
    ok = True
    for q in MID_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        for params in _nonclassical(ctx):
            model = build_obm_unital(ctx, plane, params)
            for lam in (1, ctx.w):
                pedal = feet_closed_form(model, lam)
                part1, part2 = two_arc_partition(model, pedal)  # raises when not arcs
                ok = ok and set(part1) | set(part2) == set(pedal.feet)
                ok = ok and not (set(part1) & set(part2))
                ok = ok and not plane.has_three_collinear(part1)
                ok = ok and not plane.has_three_collinear(part2)
                if params.beta_real:
                    census = line_pedal_census(model, pedal)
                    ok = ok and set(census.histogram) <= {0, 1, 2}
                    ok = ok and not plane.has_three_collinear(pedal.feet)
    _report(8, "two-arc partition (and single arc when beta is real), q <= 9", ok)


def test_criterion_09_quadratic_system_consistency():
    """For every nonclassical valid tuple, both lam, q <= 9: the GF(q)-coordinate
    quadratic system, solved once per trace value, gives exactly each trace
    class of the canonical pedal; every class has 2 or 4 members; and the
    classes, mapped to their feet, are the brute-force oracle's feet grouped
    by their line through [1, 0, 0]."""
    ok = True
    for q in MID_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        corner = plane.point_id(1, 0, 0)
        for params in _nonclassical(ctx):
            model = build_obm_unital(ctx, plane, params)
            for lam in (1, ctx.w):
                pedal = feet_closed_form(model, lam)
                classes = same_trace_solutions(model, pedal)  # raises on mismatch
                ok = ok and all(len(cls) in (2, 4) for cls in classes.values())
                by_line = {}
                for foot in brute_feet(model, pedal.base):
                    by_line.setdefault(plane.join(corner, foot), set()).add(foot)
                mapped = {frozenset(pedal.param_point[x] for x in cls) for cls in classes.values()}
                ok = ok and mapped == {frozenset(feet) for feet in by_line.values()}
    _report(9, "quadratic system = trace classes = oracle feet per line via [1,0,0], q <= 9", ok)


def test_criterion_10_secant_partition():
    """A (q+1)-pedal singleton partition exists: every secant exhaustively at
    q <= 5 (all valid tuples at q = 3; three representative tuples at q = 5),
    200 evenly sampled secants for q in {7, 9} (first nonclassical tuple)."""
    ok = True

    def check(model, lids):
        nonlocal ok
        plane = model.plane
        for lid in lids:
            pairs = secant_partition(model, int(lid))
            bases = {b for b, _ in pairs}
            on_line = plane.points_on(int(lid))
            line_unital = {int(x) for x in on_line[model.mask[on_line]]}
            ok = ok and len(bases) == model.ctx.q + 1
            ok = ok and {f for _, f in pairs} == line_unital

    ctx, plane = get_geometry(3, 1)
    for params in valid_parameter_pairs(ctx):
        model = build_obm_unital(ctx, plane, params)
        check(model, np.nonzero(model.line_counts == 4)[0])

    ctx, plane = get_geometry(5, 1)
    tuples = valid_parameter_pairs(ctx)
    picks = [next(t for t in tuples if not t.classical)]
    picks.append(next(t for t in tuples if not t.classical and not t.beta_real))
    picks.append(next(t for t in tuples if t.classical))
    for params in picks:
        model = build_obm_unital(ctx, plane, params)
        check(model, np.nonzero(model.line_counts == 6)[0])

    for q in (7, 9):
        ctx, plane = get_geometry(*PN_BY_Q[q])
        model = build_obm_unital(ctx, plane, _nonclassical(ctx)[0])
        secants = np.nonzero(model.line_counts == q + 1)[0]
        secants = secants[:: max(1, secants.size // 200)][:200]
        ok = ok and secants.size == 200
        check(model, secants)
    _report(10, "secant partition into pedal singletons", ok)


def test_criterion_11_elation_suite():
    """Group laws, unital invariance, pedal-image equality, orbit disjointness
    with |orbit| = q(q+1), and exactly q partition lines through [1,0,0] each
    meeting the orbit in q+1 points with line ∩ U inside the orbit; every
    nonclassical valid tuple, q <= 9 (group laws checked on all plane points)."""
    ok = True
    for q in MID_Q:
        ctx, plane = get_geometry(*PN_BY_Q[q])
        all_points = np.arange(plane.size, dtype=np.int32)
        probe = build_obm_unital(ctx, plane, _nonclassical(ctx)[0])
        group = ElationGroup(probe)
        for t in range(group.order):
            for s in range(group.order):
                lhs = group.apply_points(t, group.apply_points(s, all_points))
                ok = ok and bool(np.array_equal(lhs, group.apply_points(ctx.qadd(t, s), all_points)))
        corner = plane.point_id(1, 0, 0)
        for params in _nonclassical(ctx):
            model = build_obm_unital(ctx, plane, params)
            group = ElationGroup(model)
            for t in range(group.order):
                ok = ok and bool(
                    np.array_equal(np.sort(group.apply_points(t, model.points)), model.points)
                )
            for lam in (1, ctx.w):
                # orbit_of_pedal re-derives every translated pedal and raises
                # on image mismatch or overlap
                orbit = orbit_of_pedal(model, feet_closed_form(model, lam))
                ok = ok and orbit.size == q * (q + 1)
                lines = partition_lines_for_orbit(model, orbit)  # raises on any failure
                ok = ok and len(lines) == q
                ok = ok and all(plane.incident(corner, lid) for lid in lines)
    _report(11, "elation suite: laws, invariance, orbits, partition lines, q <= 9", ok)


def test_criterion_12_known_answer_scan_facts():
    """q=3: every valid nonclassical tuple has beta real (the classical
    alpha=0 tuples are the only beta-complex valid pairs), so no pedal meets
    a line in 4 points anywhere at q=3; q=5: (alpha, beta) = (1, e) with w=2
    is valid with discriminant 2.  Both confirmed against the exhaustive
    square-table oracle."""
    ok = True
    ctx, plane = get_geometry(3, 1)
    squares = {ctx.qmul(a, a) for a in ctx.subfield_elements()}
    tuples = _nonclassical(ctx)
    ok = ok and all(t.beta_real for t in tuples)
    ok = ok and all(t.discriminant not in squares for t in tuples)
    on_inf = np.zeros(plane.size, dtype=bool)
    on_inf[plane.points_on(plane.infinity_line)] = True
    for params in tuples:
        model = build_obm_unital(ctx, plane, params)
        bases = np.nonzero(~model.mask & ~on_inf)[0].astype(np.int32)
        feet = feet_of_many(model, bases)
        for row in feet:
            counts = np.bincount(plane.incidence[row].ravel())
            ok = ok and int(counts.max()) <= 2
    ctx5 = get_ctx(5, 1)
    squares5 = {ctx5.qmul(a, a) for a in ctx5.subfield_elements()}
    params5 = validate_params(ctx5, 1, ctx5.eps)
    ok = ok and ctx5.w == 2 and params5.discriminant == 2 and 2 not in squares5
    _report(12, "known-answer facts at q=3 (beta real, no 4-lines) and q=5 (1, e)", ok)


def test_criterion_13_determinism(tmp_path, capsys):
    """Reports are byte-identical between --jobs 1 and --jobs 8."""
    ok = True
    for cmd in (
        ["verify", "--p", "3", "--n", "1"],
        ["scan", "--p", "3", "--n", "1", "--problem", "four-lines"],
    ):
        outputs = []
        for jobs in ("1", "8"):
            target = tmp_path / f"{cmd[0]}-{jobs}.out"
            code = cli.main([*cmd, "--jobs", jobs, "--out", str(target)])
            capsys.readouterr()
            ok = ok and code == 0
            outputs.append(target.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    _report(13, "byte-identical reports across --jobs 1 and --jobs 8", ok)
