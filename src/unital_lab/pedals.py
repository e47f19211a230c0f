"""Feet of external points: brute-force and closed-form pedals, line censuses,
trace classes, two-arc partitions, conics, and secant partitions.

For an external point P, the pedal is the set of q+1 unital points touched by
the tangent lines through P.  In the canonical frame the base point is
[0, lam*e, 1] with lam in {1, w}; its feet admit the closed form

    Q_x = [x, T(alpha*x^2) - lam*e, 1]

where x runs over the parameter set

    { x : 2*lam*e + alpha*x^2 - conj(alpha)*conj(x)^2
          + (beta - conj(beta)) * N(x)  =  0 }.

Each closed-form foot is checked against the unital's membership mask, which
is built from the generators and not from this formula.  The pedal also
carries its trace classes: the x grouped by T(alpha*x^2), one class per line
through [1, 0, 0], read by the two-arc split and the quadratic cross-check.
The equivalent matrix and imaginary-part forms of the condition, and the
second foot representation, are compared with the closed form once,
exhaustively, in the acceptance suite (criterion 07).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    InternalConsistencyError,
    TheoremViolation,
)
from .plane import LineId, PointId
from .unitals import UnitalModel


@dataclass(frozen=True)
class PedalSet:
    """An external base point with its q+1 feet.

    ``lam``, ``foot_params``, ``param_point`` and ``trace_classes`` are
    populated only on the canonical-frame path: ``param_point`` maps each
    parameter x to its foot Q_x, and ``trace_classes`` is {T(alpha*x^2):
    ascending x codes} in ascending T.
    """

    base: PointId
    feet: tuple[int, ...]
    lam: int | None = None
    foot_params: tuple[int, ...] | None = None
    param_point: dict[int, int] | None = field(default=None, repr=False)
    trace_classes: dict[int, tuple[int, ...]] | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return len(self.feet)


class IntersectionCensus:
    """Histogram of |line ∩ S| over every line of the plane, from the plane's
    per-line counts.  The witnesses (every line meeting S in two or more
    points, with those points) are listed when first read."""

    def __init__(self, plane, points):
        self.plane = plane
        self.points = np.asarray(points, dtype=np.int32)
        self.counts = plane.line_counts(self.points)
        freq = np.bincount(self.counts)
        self.histogram: dict[int, int] = {int(s): int(c) for s, c in enumerate(freq) if c}
        self._witnesses: dict[int, list[tuple[int, tuple[int, ...]]]] | None = None

    @property
    def witnesses(self) -> dict[int, list[tuple[int, tuple[int, ...]]]]:
        """{size: [(line, points of S on it), ...]} for sizes >= 2, lines in
        id order and points in id order."""
        if self._witnesses is None:
            in_set = np.zeros(self.plane.size, dtype=bool)
            in_set[self.points] = True
            self._witnesses = {}
            for size in sorted(s for s in self.histogram if s >= 2):
                lines = np.nonzero(self.counts == size)[0]
                rows = self.plane.incidence[lines]
                pts = rows[in_set[rows]].reshape(lines.size, size)
                self._witnesses[size] = list(zip(lines.tolist(), map(tuple, pts.tolist())))
        return self._witnesses

    def as_json_dict(self, base: PointId | None = None) -> dict:
        plane = self.plane
        out = {
            "histogram": {str(size): count for size, count in sorted(self.histogram.items())},
            "witnesses": [
                [plane.format_line(LineId(line)), [plane.format_point(PointId(p)) for p in pts]]
                for size in sorted(self.witnesses)
                for line, pts in self.witnesses[size]
            ],
        }
        if base is not None:
            out = {"base_point": plane.format_point(base), **out}
        return out


def _require_external(U: UnitalModel, points) -> None:
    points = np.atleast_1d(np.asarray(points, dtype=np.int32))
    on_unital = points[U.mask[points]]
    if on_unital.size:
        raise ValueError(
            f"{U.plane.format_point(int(on_unital[0]))} lies on the unital; feet are "
            "defined for external points only"
        )


def feet_of(U: UnitalModel, point: PointId) -> PedalSet:
    """Brute-force pedal of one external point: :func:`feet_of_many` on a
    one-row batch."""
    return PedalSet(base=point, feet=tuple(feet_of_many(U, [point])[0].tolist()))


def feet_of_many(U: UnitalModel, bases) -> np.ndarray:
    """Brute-force pedals for an array of external base points: the touch
    points of the tangent lines through each base, as a feet matrix of shape
    (len(bases), q+1), each row in id order.  Row i is collinear exactly
    when ``U.plane.max_collinear(feet)[i] == q + 1``.
    """
    plane, q = U.plane, U.ctx.q
    bases = np.asarray(bases, dtype=np.int32)
    _require_external(U, bases)
    lines = plane.incidence[bases]
    tangent = U.line_counts[lines] == 1
    per_base = tangent.sum(axis=1)
    bad = np.flatnonzero(per_base != q + 1)
    if bad.size:
        raise TheoremViolation(
            f"{plane.format_point(int(bases[bad[0]]))} lies on {per_base[bad[0]]} tangent "
            f"lines; expected {q + 1}"
        )
    feet = U.touch_points[lines[tangent]].reshape(bases.size, q + 1)
    feet.sort(axis=1)
    return feet


# -- canonical frame -----------------------------------------------------------


def canonical_base_point(U: UnitalModel, lam: int) -> PointId:
    """[0, lam*e, 1]; always external and off the line at infinity."""
    _check_lambda(U, lam)
    return U.plane.point_id(0, U.ctx.pack(0, lam), 1)


def _check_lambda(U: UnitalModel, lam: int) -> None:
    if lam not in (1, U.ctx.w):
        raise ValueError(f"lambda must be 1 or w = {U.ctx.w}, got {lam}")


def _require_nonclassical(U: UnitalModel) -> None:
    if U.params is None or U.params.classical:
        raise ValueError("this operation requires an OBM unital with alpha != 0")


def foot_parameters(U: UnitalModel, lam: int) -> np.ndarray:
    """Sorted parameter codes x of the canonical-frame feet: the zeros of
    2*lam*e + alpha*x^2 - conj(alpha)*conj(x)^2 + (beta - conj(beta))*N(x)
    over all of GF(q^2)."""
    _check_lambda(U, lam)
    ctx, p = U.ctx, U.params
    add, mul, neg = ctx.add_t, ctx.mul_t, ctx.neg_t
    x = np.arange(ctx.q2, dtype=np.int32)
    xbar = ctx.conj_t[x]
    two_lam_eps = ctx.pack(0, ctx.qmul(ctx.scalar(2), lam))
    b_minus_bbar = ctx.sub(p.beta, ctx.conj(p.beta))
    ax2 = mul[p.alpha, mul[x, x]]
    value = add[
        add[add[two_lam_eps, ax2], neg[mul[ctx.conj(p.alpha), mul[xbar, xbar]]]],
        mul[b_minus_bbar, ctx.norm_t[x]],
    ]
    params = np.nonzero(value == 0)[0].astype(np.int32)
    expected = ctx.q + 1
    if params.size != expected:
        raise TheoremViolation(f"|parameter set| = {params.size}, expected {expected}")
    return params


def foot_unital_r(U: UnitalModel, lam: int, x: int) -> int:
    """The r with Q_x = [x, alpha*x^2 + beta*N(x) + r, 1]:
    r = lam*e + alpha*x^2 - conj(beta)*N(x), which lands in GF(q)."""
    ctx = U.ctx
    val = ctx.sub(
        ctx.add(ctx.pack(0, lam), ctx.mul(U.params.alpha, ctx.mul(x, x))),
        ctx.mul(ctx.conj(U.params.beta), ctx.norm(x)),
    )
    re, im = ctx.unpack(val)
    if im != 0:
        raise InternalConsistencyError(f"r parameter of foot x={x} is not in GF(q)")
    return re


def feet_closed_form(U: UnitalModel, lam: int) -> PedalSet:
    """Canonical-frame pedal via the closed form Q_x = [x, T(alpha*x^2) - lam*e, 1],
    with its parameters grouped into trace classes; every foot must be a
    unital point."""
    _require_nonclassical(U)
    ctx, plane = U.ctx, U.plane
    xs = foot_parameters(U, lam)
    traces = trace_value(U, xs)
    y = ctx.add_t[traces, ctx.neg(ctx.pack(0, lam))]
    ids = plane.point_ids_vec(xs, y, np.ones_like(xs))
    if not bool(np.all(U.mask[ids])):
        raise InternalConsistencyError("closed-form feet are not all unital points")
    return PedalSet(
        base=canonical_base_point(U, lam),
        feet=tuple(np.sort(ids).tolist()),
        lam=lam,
        foot_params=tuple(xs.tolist()),
        param_point=dict(zip(xs.tolist(), ids.tolist())),
        trace_classes={int(t): tuple(xs[traces == t].tolist()) for t in np.unique(traces)},
    )


# -- censuses -----------------------------------------------------------------


def line_pedal_census(U: UnitalModel, pedal: PedalSet) -> IntersectionCensus:
    """|line ∩ pedal| for every line of the plane.  Requires alpha != 0 and a
    base off the line at infinity; any size outside {0, 1, 2, 4} raises."""
    _require_nonclassical(U)
    _require_external(U, pedal.base)
    if U.plane.incident(pedal.base, U.infinity_line):
        raise ValueError("census base point must not lie on the line at infinity")
    census = IntersectionCensus(U.plane, pedal.feet)
    bad = sorted(set(census.histogram) - {0, 1, 2, 4})
    if bad:
        raise TheoremViolation(f"pedal census support contains {bad}; expected within 0,1,2,4")
    return census


# -- trace classes and the quadratic cross-check ----------------------------------


def trace_value(U: UnitalModel, x):
    """T(alpha * x^2) as GF(q) codes, for a code or an array of codes."""
    ctx = U.ctx
    return ctx.trace_t[ctx.mul_t[U.params.alpha, ctx.mul_t[x, x]]]


def trace_level_line(U: UnitalModel, lam: int, x: int) -> LineId:
    """The line [0, -1, T(alpha*x^2) - lam*e]^t joining Q_x and Q_{-x}; every
    such line passes through [1, 0, 0]."""
    ctx = U.ctx
    c = ctx.sub(trace_value(U, x), ctx.pack(0, lam))
    return U.plane.line_id(0, ctx.neg(1), c)


def same_trace_solutions(U: UnitalModel, pedal: PedalSet) -> dict[int, tuple[int, ...]]:
    """Check every trace class of a canonical pedal against the pair of
    GF(q)-coefficient quadratics in (z1, z2) obtained by splitting
    z = z1 + e*z2:

        A z1^2 + B z2^2 + C z1 z2 + D = 0
        E z1^2 + F z2^2 + G z1 z2 + H = 0

    with A = a1, B = a1 w, C = 2 a2 w, D = -t/2 for the class's trace value t,
    E = a2 + b2, F = w (a2 - b2), G = 2 a1, H = lam,
    for alpha = a1 + e*a2 and beta = b1 + e*b2.  (F follows from dividing
    2 lam e + 2 e Im(alpha z^2) + (beta - conj(beta)) N(z) = 0 by 2e.)

    The solutions for each t must be exactly that class; returns the classes.
    """
    if pedal.trace_classes is None:
        raise ValueError("same_trace_solutions needs a canonical pedal, with its trace classes")
    _require_nonclassical(U)
    ctx = U.ctx
    qa, qm = ctx.qadd_t, ctx.qmul_t
    a1, a2 = ctx.unpack(U.params.alpha)
    b2 = ctx.im(U.params.beta)
    w, two = ctx.w, ctx.scalar(2)
    A = a1
    B = ctx.qmul(a1, w)
    C = ctx.qmul(two, ctx.qmul(a2, w))
    E = ctx.qadd(a2, b2)
    F = ctx.qmul(w, ctx.qsub(a2, b2))
    G = ctx.qmul(two, a1)
    H = pedal.lam
    z1 = np.arange(ctx.q, dtype=np.int32)[:, None]
    z2 = np.arange(ctx.q, dtype=np.int32)[None, :]
    sq1, sq2, cross = qm[z1, z1], qm[z2, z2], qm[z1, z2]
    quad1 = qa[qa[qm[A, sq1], qm[B, sq2]], qm[C, cross]]
    on2 = qa[qa[qa[qm[E, sq1], qm[F, sq2]], qm[G, cross]], H] == 0
    for t, cls in pedal.trace_classes.items():
        D = ctx.qneg(ctx.qdiv(t, two))
        hit1, hit2 = np.nonzero((qa[quad1, D] == 0) & on2)
        if not np.array_equal(cls, np.sort(hit1 + ctx.q * hit2)):
            raise InternalConsistencyError(
                f"GF(q)-coordinate quadratic system disagrees with the trace class of {t}"
            )
    return pedal.trace_classes


# -- two-arc partition ----------------------------------------------------------


def two_arc_partition(U: UnitalModel, pedal: PedalSet) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split the feet into two arcs.

    Canonical frame: each line through [1,0,0] meets the pedal in the feet of
    one trace class (2 or 4 of them, closed under x -> -x).  Classes of size
    two go wholly into the first part; a size-four class {u, -u, v, -v}
    contributes the sign pair of its smallest code to the first part and the
    other pair to the second.  Both parts are then re-checked for
    three collinear points exhaustively.

    A pedal without canonical data takes its 4-point lines from the census
    witnesses; any 2+2 split of each such line works, and the points are
    paired by sorted id.
    """
    plane = U.plane
    part1: list[int] = []
    part2: list[int] = []
    if pedal.trace_classes is not None:
        neg, point = U.ctx.neg, pedal.param_point
        for cls in pedal.trace_classes.values():
            if len(cls) == 2:
                part1.extend(point[x] for x in cls)
            elif len(cls) == 4:
                first = {cls[0], neg(cls[0])}
                second = set(cls) - first
                if len(second) != 2 or {neg(x) for x in second} != second:
                    raise TheoremViolation("size-4 trace class is not two sign pairs")
                part1.extend(point[x] for x in first)
                part2.extend(point[x] for x in second)
            else:
                raise TheoremViolation(f"trace class of size {len(cls)}; expected 2 or 4")
    else:
        census = IntersectionCensus(plane, pedal.feet)
        bad = sorted(size for size in census.histogram if size == 3 or size > 4)
        if bad:
            raise TheoremViolation(f"line meets pedal in {bad[0]} points")
        covered: set[int] = set()
        for _, on in census.witnesses.get(4, []):
            if covered & set(on):
                raise TheoremViolation("4-point lines overlap on the pedal")
            covered.update(on)
            part2.extend(on[2:])
        part1.extend(set(pedal.feet).difference(part2))

    a1, a2 = tuple(sorted(part1)), tuple(sorted(part2))
    if set(a1) | set(a2) != set(pedal.feet) or set(a1) & set(a2):
        raise TheoremViolation("arc parts do not partition the feet")
    for part in (a1, a2):
        if plane.has_three_collinear(part):
            raise TheoremViolation("arc part contains three collinear points")
    return a1, a2


def is_single_arc(U: UnitalModel, pedal: PedalSet) -> bool:
    """True when the whole pedal has no three collinear points."""
    return not U.plane.has_three_collinear(pedal.feet)


# -- conics -------------------------------------------------------------------


@dataclass(frozen=True)
class Conic:
    """A ternary quadratic form c0 x^2 + c1 y^2 + c2 z^2 + c3 xy + c4 xz + c5 yz,
    canonicalized like line coordinates (first non-zero coefficient 1)."""

    coeffs: tuple[int, int, int, int, int, int]

    def contains_points(self, plane, points) -> np.ndarray:
        """Per point, whether the form vanishes at its coordinates."""
        add, mul = plane.ctx.add_t, plane.ctx.mul_t
        terms = mul[np.asarray(self.coeffs, dtype=np.int32), _monomials(plane, points)]
        total = terms[:, 0]
        for col in range(1, 6):
            total = add[total, terms[:, col]]
        return total == 0

    def contains(self, plane, point: PointId) -> bool:
        return bool(self.contains_points(plane, [point])[0])

    def matrix(self, ctx) -> list[list[int]]:
        """The symmetric Gram matrix (valid since p is odd)."""
        c0, c1, c2, c3, c4, c5 = self.coeffs
        half = ctx.inv(ctx.scalar(2))
        h3, h4, h5 = (ctx.mul(half, c) for c in (c3, c4, c5))
        return [[c0, h3, h4], [h3, c1, h5], [h4, h5, c2]]

    def rank(self, ctx) -> int:
        return 3 - len(_gf_nullspace(ctx, self.matrix(ctx)))

    def is_degenerate(self, ctx) -> bool:
        """Rank < 3: the zero set contains a line (over the closure)."""
        return self.rank(ctx) < 3


def _gf_nullspace(ctx, rows) -> list[list[int]]:
    """Basis of the right nullspace of a small matrix over GF(q^2)."""
    rows = [list(r) for r in rows]
    n_cols = len(rows[0])
    pivots: list[int] = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = ctx.inv(rows[rank][col])
        rows[rank] = [ctx.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [ctx.sub(v, ctx.mul(f, w)) for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    basis = []
    free = [c for c in range(n_cols) if c not in pivots]
    for fc in free:
        vec = [0] * n_cols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = ctx.neg(rows[r][fc])
        basis.append(vec)
    return basis


def _monomials(plane, points) -> np.ndarray:
    """(k, 6) codes of x^2, y^2, z^2, xy, xz, yz at the points' coordinates."""
    c = plane._coords[np.asarray(points, dtype=np.int32)]
    return plane.ctx.mul_t[c[:, [0, 1, 2, 0, 0, 1]], c[:, [0, 1, 2, 1, 2, 2]]]


def conic_through(plane, points) -> Conic:
    """The unique conic through five points (no four collinear); the 5x6
    homogeneous system must have nullity exactly one."""
    pts = [PointId(int(p)) for p in points]
    if len(pts) != 5 or len(set(pts)) != 5:
        raise DegenerateInput("conic_through expects five distinct points")
    ctx = plane.ctx
    basis = _gf_nullspace(ctx, _monomials(plane, pts).tolist())
    if len(basis) != 1:
        raise DegenerateConfiguration(
            f"five points determine a conic pencil of dimension {len(basis)}; "
            "configuration is degenerate"
        )
    coeffs = basis[0]
    lead = next(v for v in coeffs if v != 0)
    inv = ctx.inv(lead)
    return Conic(tuple(ctx.mul(inv, v) for v in coeffs))


@dataclass(frozen=True)
class ConicFitResult:
    contained: bool
    conic: Conic | None
    status: str  # "ok" | "degenerate" | "small"
    off_point: int | None = None


def arc_in_conic(plane, arc) -> ConicFitResult:
    """Fit a conic to the first five arc points (encoding order), sliding the
    window past degenerate quintuples, then test the remaining points.

    Arcs with fewer than five points lie on some conic trivially.
    """
    ids = sorted(set(int(a) for a in arc))
    if len(ids) < 5:
        return ConicFitResult(contained=True, conic=None, status="small")
    conic = None
    for start in range(len(ids) - 4):
        try:
            conic = conic_through(plane, ids[start : start + 5])
            break
        except DegenerateConfiguration:
            continue
    if conic is None:
        return ConicFitResult(contained=False, conic=None, status="degenerate")
    off = np.flatnonzero(~conic.contains_points(plane, ids))
    if off.size:
        return ConicFitResult(contained=False, conic=conic, status="ok", off_point=ids[off[0]])
    return ConicFitResult(contained=True, conic=conic, status="ok")


# -- secant partition ------------------------------------------------------------


def secant_partitions(U: UnitalModel, lines) -> tuple[np.ndarray, np.ndarray]:
    """Secant partitions of a batch of secant lines, in one vectorised pass.

    Row i of both (len(lines), q+1) arrays belongs to lines[i]: ``feet`` are
    the line's unital points in id order, and ``bases[i, j]`` is the pedal
    base for ``feet[i, j]``: the first point, in id order, on the tangent at
    that foot that lies on no other tangent at the line's unital points and
    is not the foot itself.  Each base is then the only foot on the line of
    its pedal; a counting argument guarantees one exists for q >= 3, and the
    q+1 bases of a line must be distinct.
    """
    plane, q = U.plane, U.ctx.q
    lines = np.asarray(lines, dtype=np.int32)
    not_secant = lines[U.line_counts[lines] != q + 1]
    if not_secant.size:
        U.classify_line(LineId(int(not_secant[0])))  # StructuralViolation unless a tangent
        raise ValueError("secant_partition requires a secant line")
    n = lines.size
    on_line = plane.incidence[lines]
    feet = on_line[U.mask[on_line]].reshape(n, q + 1)
    # point -> its tangent line, inverted from the touch-point table
    tangent_lines = np.nonzero(U.touch_points >= 0)[0].astype(np.int32)
    tangent_at = np.full(plane.size, -1, dtype=np.int32)
    tangent_at[U.touch_points[tangent_lines]] = tangent_lines
    candidates = plane.incidence[tangent_at[feet]]  # (n, q+1, q^2+1), rows in id order
    # Key each candidate by its line's row in the batch; a key met twice is a
    # point on two or more of that line's tangents.
    offset = np.arange(n, dtype=np.int64)[:, None] * plane.size
    keys = (np.sort(candidates.reshape(n, -1), axis=1) + offset).ravel()
    shared = np.concatenate(([-1], keys[1:][keys[1:] == keys[:-1]]))  # -1 is no key
    # The first admissible candidate is among the first q+2 of its tangent:
    # only the foot and the tangent's meets with the q others are excluded,
    # unless two tangents coincide, and then no point is admissible.
    head = candidates[:, :, : q + 2]
    head_keys = head + offset[:, :, None]
    pos = np.searchsorted(shared, head_keys).clip(max=shared.size - 1)
    admissible = (shared[pos] != head_keys) & (head != feet[:, :, None])
    found = admissible.any(axis=2)
    if not bool(found.all()):
        row, col = np.argwhere(~found)[0]
        raise TheoremViolation(
            f"no admissible pedal base for foot {plane.format_point(int(feet[row, col]))}"
        )
    bases = np.take_along_axis(head, admissible.argmax(axis=2)[:, :, None], axis=2)[:, :, 0]
    ordered = np.sort(bases, axis=1)
    if bool(np.any(ordered[:, 1:] == ordered[:, :-1])):
        raise TheoremViolation("pedal bases in a secant partition must be distinct")
    return bases, feet


def secant_partition(U: UnitalModel, line: LineId) -> list[tuple[PointId, PointId]]:
    """For a secant line, q+1 distinct pedals each meeting the line's unital
    points in exactly one foot, partitioning them: :func:`secant_partitions`
    on a one-line batch.  Returns (external point, foot) pairs in foot order.
    """
    bases, feet = secant_partitions(U, [line])
    return [(PointId(int(b)), PointId(int(f))) for b, f in zip(bases[0], feet[0])]
