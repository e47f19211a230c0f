import numpy as np
import pytest

from unital_lab import (
    InternalConsistencyError,
    InvalidUnitalParameters,
    ProjectivePlane,
    StructuralViolation,
    UnitalModel,
    __version__,
    build_field_ctx,
    build_obm_unital,
    canonical_base_point,
    cli,
    feet_of,
    feet_of_many,
    line_pedal_census,
    validate_params,
)

_CTX_CACHE = {}
_PLANE_CACHE = {}


def get_ctx(p, n=1):
    key = (p, n)
    if key not in _CTX_CACHE:
        _CTX_CACHE[key] = build_field_ctx(p, n)
    return _CTX_CACHE[key]


def get_geometry(p, n=1):
    """(ctx, plane) with the incidence array built, cached for the session."""
    key = (p, n)
    if key not in _PLANE_CACHE:
        ctx = get_ctx(p, n)
        plane = ProjectivePlane(ctx)
        plane.incidence
        _PLANE_CACHE[key] = (ctx, plane)
    return _PLANE_CACHE[key]


def external_swap(model) -> tuple[int, int]:
    """(dropped, added): the model's first affine point and the first external
    point off that point's tangent line."""
    plane = model.plane
    dropped = int(model.points[0])
    tangent = tangent_line_brute(model, dropped)
    outside = ~model.mask
    outside[plane.points_on(tangent)] = False
    return dropped, int(np.flatnonzero(outside)[0])


def swapped_for_external(model) -> UnitalModel:
    """A corrupted copy of an OBM model: its ``external_swap`` is applied, so
    the set keeps its size but the old tangent line meets it in no point.
    Parameters and generators are kept, so the closed-form tangents still
    describe the old set."""
    dropped, added = external_swap(model)
    points = np.append(model.points[model.points != dropped], added)
    params, generators = model.params, model.generators
    return UnitalModel(model.ctx, model.plane, points, params=params, generators=generators)


# -- oracles: incidence, membership and field arithmetic only ----------------------


def tangent_line_brute(model, point) -> int:
    """Oracle for the tangent line at a point of the set: scan the q^2+1
    lines through it for the unique 1-point line."""
    plane = model.plane
    if point not in model:
        raise ValueError(f"{plane.format_point(point)} is not on the unital")
    lines = plane.lines_through(point)
    counts = model.mask[plane.incidence[lines]].sum(axis=1)
    hits = lines[counts == 1]
    if hits.size != 1:
        raise StructuralViolation(f"{hits.size} tangent lines through {plane.format_point(point)}")
    return int(hits[0])


def brute_feet(model, point) -> tuple[int, ...]:
    """Oracle for the feet of an external point from incidence and membership
    only: classify the q^2+1 lines through the point by counting the set's
    points on each, and take the one set point of every 1-point line, in id
    order."""
    plane = model.plane
    on_lines = plane.incidence[plane.lines_through(point)]
    members = model.mask[on_lines]
    tangent = members.sum(axis=1) == 1
    return tuple(sorted(on_lines[tangent][members[tangent]].tolist()))


def foot_unital_r(model, lam, x) -> int:
    """The r with Q_x = [x, alpha*x^2 + beta*N(x) + r, 1] for a canonical
    foot: r = lam*e + alpha*x^2 - conj(beta)*N(x), which must land in GF(q)."""
    ctx, p = model.ctx, model.params
    val = ctx.sub(
        ctx.add_t[ctx.pack(0, lam), ctx.mul(p.alpha, ctx.mul(x, x))],
        ctx.mul(ctx.conj(p.beta), ctx.norm(x)),
    )
    re, im = ctx.unpack(val)
    if im != 0:
        raise InternalConsistencyError(f"r parameter of foot x={x} is not in GF(q)")
    return re


def trace_level_line(model, lam, x) -> int:
    """The line [0, -1, T(alpha*x^2) - lam*e]^t joining the canonical feet
    Q_x and Q_{-x}; every such line passes through [1, 0, 0]."""
    ctx = model.ctx
    t = ctx.trace(ctx.mul(model.params.alpha, ctx.mul(x, x)))
    return int(model.plane.line_id(0, ctx.neg(1), ctx.sub(t, ctx.pack(0, lam))))


def _record_base(ctx, alpha, beta) -> dict:
    """The fields every sweep record opens with: the tool version and the pair."""
    return {
        "tool_version": __version__,
        "p": ctx.p,
        "n": ctx.n,
        "w": ctx.w,
        "alpha": ctx.format_fq2(alpha),
        "beta": ctx.format_fq2(beta),
    }


def verify_records_per_pair(ctx, plane, pairs) -> list:
    """Oracle for the records of ``verify``: each pair is validated, built and
    line-passed on its own, sharing nothing with any other pair."""
    records = []
    for alpha, beta in pairs:
        rec = _record_base(ctx, alpha, beta)
        records.append(rec)
        try:
            params = validate_params(ctx, alpha, beta)
        except InvalidUnitalParameters as exc:
            rec.update(status="skipped: invalid (discriminant square)", discriminant=exc.discriminant)
            continue
        model = build_obm_unital(ctx, plane, params)
        rec.update(model.record())
        counts = model.mask[plane.incidence].sum(axis=1)
        sizes = set(counts.tolist())
        checks = {"size": model.size == ctx.q**3 + 1, "unital_axiom": sizes <= {1, ctx.q + 1}}
        if checks["unital_axiom"]:
            rec.update(tangent_lines=int(np.sum(counts == 1)), secant_lines=int(np.sum(counts > 1)))
        tangent = (counts == 1)[plane.incidence[model.points]]  # per point, per line through it
        checks["blocking"] = bool(np.all(counts >= 1))
        checks["minimal"] = checks["blocking"] and bool(np.all(tangent.any(axis=1)))
        checks["attains_bound"] = checks["size"]
        pts, lids = model.tangent_lines_closed_form()
        lines = plane.incidence[pts]
        flags = (counts == 1)[lines]
        checks["tangent_formula_matches_oracle"] = bool(
            np.all(flags.sum(axis=1) == 1)
            and np.array_equal(lines[np.arange(pts.size), flags.argmax(axis=1)], lids)
        )
        rec.update(checks=checks, status="pass" if all(checks.values()) else "fail")
    return records


def scan_records_per_pair(problem, ctx, plane, pairs) -> list:
    """Oracle for the records of ``scan --problem problem``: every valid
    nonclassical pair is built on its own and the problem's kernel runs on
    that model alone, sharing nothing with any other pair."""
    records = []
    for alpha, beta in pairs:
        try:
            params = validate_params(ctx, alpha, beta)
        except InvalidUnitalParameters:
            continue
        if params.classical:
            continue
        rec = {**_record_base(ctx, alpha, beta), "beta_real": params.beta_real}
        model = build_obm_unital(ctx, plane, params)
        records += [{**rec, **fields} for fields in cli._SCANS[problem](model)]
    return records


def four_lines_bases(model) -> np.ndarray:
    """The sorted bases a four-lines record stands for, listed without the
    elation orbits: every external point off the line at infinity (z != 0)
    at q <= ``cli.FULL_POINT_SWEEP_MAX_Q``, otherwise the q translates
    [0, t + lam*e, 1], t in GF(q), of each canonical base."""
    ctx, plane = model.ctx, model.plane
    if ctx.q <= cli.FULL_POINT_SWEEP_MAX_Q:
        return np.flatnonzero(~model.mask & (plane._coords[:, 2] != 0))
    translates = [plane.point_id(0, ctx.pack(t, lam), 1) for lam in (1, ctx.w) for t in range(ctx.q)]
    return np.sort(translates)


def four_lines_record_of_every_base(model) -> dict:
    """Oracle for a four-lines record: the feet of every base of
    ``four_lines_bases`` and their largest collinear subsets, and the
    censuses of the two canonical pedals, each from its own feet."""
    bases = four_lines_bases(model)
    max_line_size = int(model.plane.max_collinear(feet_of_many(model, bases)).max())
    censuses = [
        line_pedal_census(model, feet_of(model, canonical_base_point(model, lam))).histogram
        for lam in (1, model.ctx.w)
    ]
    return {
        "scanned_bases": bases.size,
        "max_line_size": max_line_size,
        "size4_lines_exist": max_line_size >= 4,
        "lambda_censuses_equal": censuses[0] == censuses[1],
    }


def build_hermitian(ctx, plane) -> UnitalModel:
    """The classical control: the absolute points N(x) + N(y) + N(z) = 0 of
    the standard unitary polarity, a unital with no OBM parameters."""
    pc = plane._coords
    s = ctx.qadd_t[ctx.qadd_t[ctx.norm_t[pc[:, 0]], ctx.norm_t[pc[:, 1]]], ctx.norm_t[pc[:, 2]]]
    model = UnitalModel(ctx, plane, np.flatnonzero(s == 0))
    if model.size != ctx.q**3 + 1:
        raise StructuralViolation(f"built {model.size} points, expected {ctx.q**3 + 1}")
    return model


def hermitian_tangents(model) -> np.ndarray:
    """The tangent line ids at a Hermitian model's points, in point order,
    from its unitary polarity: the tangent at an absolute point [x, y, z] is
    its polar [conj(x), conj(y), conj(z)]^t."""
    cc = model.ctx.conj_t[model.plane._coords[model.points]]
    return model.plane.point_ids_vec(cc[:, 0], cc[:, 1], cc[:, 2])


# q in {3, 5, 7, 9, 13} <-> (p, n) pairs used across the suite
PN_BY_Q = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1)}


@pytest.fixture(scope="session")
def geometry():
    return get_geometry


@pytest.fixture(scope="session")
def tower():
    return get_ctx
