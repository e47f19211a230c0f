"""Orthogonal-Buekenhout-Metz unitals and the classical Hermitian unital.

An OBM unital with parameters (alpha, beta) is the point set

    { [x, alpha*x^2 + beta*N(x) + r, 1] : x in GF(q^2), r in GF(q) }
    together with the point at infinity [0, 1, 0],

valid exactly when the discriminant 4*N(alpha) + (conj(beta) - beta)^2 is a
non-square of GF(q).  alpha = 0 gives a classical unital; beta = conj(beta)
marks the union-of-conics case.

Models keep their points as sorted ids plus a boolean membership mask, so
censuses reduce to numpy gathers over the plane's incidence array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidUnitalParameters, StructuralViolation
from .fields import FieldCtx
from .plane import LineId, PointId, ProjectivePlane


@dataclass(frozen=True)
class UnitalParams:
    alpha: int
    beta: int
    discriminant: int  # GF(q) code, guaranteed non-square
    classical: bool  # alpha == 0
    beta_real: bool  # beta == conj(beta)


def discriminant(ctx: FieldCtx, alpha, beta):
    """4*N(alpha) + (conj(beta) - beta)^2 as GF(q) codes, for codes or
    broadcastable arrays of codes."""
    d = ctx.add_t[ctx.conj_t[beta], ctx.neg_t[beta]]
    # d^2 = 4*w*b2^2 lies in GF(q), so its GF(q^2) code is its GF(q) code
    return ctx.qadd_t[ctx.qmul_t[ctx.scalar(4), ctx.norm_t[alpha]], ctx.mul_t[d, d]]


def validate_params(ctx: FieldCtx, alpha: int, beta: int) -> UnitalParams:
    disc = int(discriminant(ctx, alpha, beta))
    if ctx.is_square(disc):
        raise InvalidUnitalParameters(
            f"discriminant {disc} is a square in GF({ctx.q}); "
            f"(alpha, beta) = ({ctx.format_fq2(alpha)}, {ctx.format_fq2(beta)}) "
            "does not define a unital",
            discriminant=disc,
        )
    return UnitalParams(
        alpha=alpha,
        beta=beta,
        discriminant=disc,
        classical=(alpha == 0),
        beta_real=(ctx.conj(beta) == beta),
    )


def valid_parameter_pairs(
    ctx: FieldCtx, nonclassical_only: bool = False, alpha: int | None = None, beta: int | None = None
) -> list[UnitalParams]:
    """Every valid (alpha, beta), in ascending (alpha, beta) code order;
    ``alpha``/``beta`` restrict the listing to that alpha row / beta column.

    The listing is exhaustive on purpose: no quotient by equivalences is
    attempted, so a sweep cannot miss a case.
    """
    codes = np.arange(ctx.q2, dtype=np.int32)
    disc = discriminant(ctx, codes[:, None], codes[None, :])
    valid = ~ctx.square_mask[disc]
    if nonclassical_only:
        valid[0, :] = False
    if alpha is not None:
        valid[codes != alpha, :] = False
    if beta is not None:
        valid[:, codes != beta] = False
    beta_real = ctx.conj_t[codes] == codes
    return [
        UnitalParams(
            alpha=a,
            beta=b,
            discriminant=int(disc[a, b]),
            classical=(a == 0),
            beta_real=bool(beta_real[b]),
        )
        for a, b in np.argwhere(valid).tolist()
    ]


@dataclass(frozen=True)
class BlockingReport:
    blocking: bool  # every line of the plane meets the set
    minimal: bool  # every point lies on some tangent line
    attains_bound: bool  # |U| equals the q^3 + 1 maximum for minimal blocking sets
    size: int
    bound: int


class UnitalModel:
    """A unital point set with O(1) membership and cached line statistics.

    Construct through :func:`build_obm_unital` or :func:`build_hermitian`;
    the raw constructor exists so tests can fabricate corrupted sets.
    Immutable after construction (caches excepted).
    """

    def __init__(self, ctx, plane, points, params=None, kind="obm", generators=None):
        self.ctx: FieldCtx = ctx
        self.plane: ProjectivePlane = plane
        self.mask = np.zeros(plane.size, dtype=bool)
        self.mask[np.asarray(points, dtype=np.int32)] = True
        self.points = np.flatnonzero(self.mask).astype(np.int32)  # sorted, distinct
        self.params: UnitalParams | None = params
        self.kind = kind
        self.infinity_point: PointId = plane.infinity_point
        self.infinity_line: LineId = plane.infinity_line
        # (point ids, x codes, r codes), aligned; affine points only
        self.generators: tuple[np.ndarray, np.ndarray, np.ndarray] | None = generators
        # (line counts, tangents per point, touch array or None)
        self._line_stats: tuple[np.ndarray, np.ndarray, np.ndarray | None] | None = None

    # -- basics ------------------------------------------------------------

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def classical(self) -> bool:
        return self.kind == "hermitian" or (self.params is not None and self.params.classical)

    def __contains__(self, point) -> bool:
        return bool(self.mask[int(point)])

    def generating_pair(self, point: PointId) -> tuple[int, int]:
        """(x, r) with point = [x, alpha*x^2 + beta*N(x) + r, 1]; KeyError if none."""
        if self.generators is not None:
            ids, xs, rs = self.generators
            at = np.flatnonzero(ids == int(point))
            if at.size:
                return int(xs[at[0]]), int(rs[at[0]])
        raise KeyError(int(point))

    # -- line statistics ------------------------------------------------------

    def _lines_pass(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One gather of the points' incidence rows feeds the line counts and
        one tangent pass over them: how many tangent lines pass through each
        point, and the touch array when that is 1 for every point."""
        if self._line_stats is None:
            rows = self.plane.incidence[self.points]
            counts = self.plane.line_counts(self.points, rows=rows)
            flags = np.take(counts == 1, rows)
            tangents = np.count_nonzero(flags, axis=1)
            touch = None
            if bool(np.all(tangents == 1)):
                touch = np.full(self.plane.size, -1, dtype=np.int32)
                touch[rows[np.arange(rows.shape[0]), flags.argmax(axis=1)]] = self.points
            self._line_stats = (counts, tangents, touch)
        return self._line_stats

    @property
    def line_counts(self) -> np.ndarray:
        """|l ∩ U| for every line id."""
        return self._lines_pass()[0]

    @property
    def touch_points(self) -> np.ndarray:
        """touch_points[l] = the unital point of tangent line l, else -1."""
        touch = self._lines_pass()[2]
        if touch is None:
            raise StructuralViolation(
                "some point does not lie on exactly one tangent line; "
                "the set is not a unital"
            )
        return touch

    def classify_line(self, line: LineId) -> tuple[str, int]:
        count = int(self.line_counts[line])
        if count == 1:
            return "tangent", 1
        if count == self.ctx.q + 1:
            return "secant", count
        raise StructuralViolation(
            f"line {self.plane.format_line(line)} meets the set in {count} points; "
            f"expected 1 or {self.ctx.q + 1}"
        )

    def verify_unital_axiom(self) -> dict[int, int]:
        """Histogram {1: tangents, q+1: secants}; raises on any other count."""
        freq = np.bincount(self.line_counts)
        support = np.flatnonzero(freq).tolist()
        bad = sorted(set(support) - {1, self.ctx.q + 1})
        if bad:
            raise StructuralViolation(f"line intersection sizes {bad} violate the unital axiom")
        return {v: int(freq[v]) for v in support}

    def tangent_count_through(self, point: PointId) -> tuple[int, int]:
        """(tangent, secant) line counts through an arbitrary plane point."""
        counts = self.line_counts[self.plane.lines_through(point)]
        tangents = int(np.count_nonzero(counts == 1))
        return tangents, int(counts.size - tangents)

    # -- tangent lines ------------------------------------------------------

    def tangent_line_at(self, point: PointId) -> LineId:
        """Closed-form tangent line at a unital point: its entry in
        :meth:`tangent_lines_closed_form`."""
        if point not in self:
            raise ValueError(f"{self.plane.format_point(point)} is not on the unital")
        pts, lids = self.tangent_lines_closed_form()
        return LineId(int(lids[np.flatnonzero(pts == point)[0]]))

    def tangent_line_brute(self, point: PointId) -> LineId:
        """Oracle: scan the q^2+1 lines through the point for the unique
        1-point line (uses only incidence and membership)."""
        if point not in self:
            raise ValueError(f"{self.plane.format_point(point)} is not on the unital")
        lines = self.plane.lines_through(point)
        counts = self.mask[self.plane.incidence[lines]].sum(axis=1)
        hits = lines[counts == 1]
        if hits.size != 1:
            raise StructuralViolation(
                f"{hits.size} tangent lines through {self.plane.format_point(point)}"
            )
        return LineId(int(hits[0]))

    def tangent_lines_closed_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(point ids, tangent line ids) for every unital point, vectorized
        through the closed form (the brute scan lives in the tests).

        OBM at [x, alpha*x^2 + beta*N(x) + r, 1]:
            [-2*alpha*x + (conj(beta) - beta)*conj(x), 1,
             alpha*x^2 - conj(beta)*N(x) - r]^t,
        and the line at infinity at [0,1,0].  The Hermitian model uses its
        unitary polarity: the tangent at an absolute point is its polar.
        """
        ctx, plane = self.ctx, self.plane
        if self.kind == "hermitian":
            pts = self.points
            cc = ctx.conj_t[plane._coords[pts]]
            lids = plane.point_ids_vec(cc[:, 0], cc[:, 1], cc[:, 2])
            return pts.copy(), lids
        p = self.params
        pts, X, R = self.generators
        add, mul, neg, conj = ctx.add_t, ctx.mul_t, ctx.neg_t, ctx.conj_t
        two = ctx.scalar(2)
        bbar_minus_b = ctx.sub(ctx.conj(p.beta), p.beta)
        U = add[neg[mul[two, mul[p.alpha, X]]], mul[bbar_minus_b, conj[X]]]
        Zc = add[
            add[mul[p.alpha, mul[X, X]], neg[mul[ctx.conj(p.beta), ctx.norm_t[X]]]], neg[R]
        ]
        lids = plane.point_ids_vec(U, np.ones_like(U), Zc)
        pts = np.concatenate([pts, [self.infinity_point]])
        lids = np.concatenate([lids, [np.int32(self.infinity_line)]])
        return pts, lids

    # -- blocking-set verification ------------------------------------------------

    def verify_minimal_blocking_set(self) -> BlockingReport:
        counts, tangents, _ = self._lines_pass()
        blocking = bool(np.all(counts >= 1))
        # removing a point only breaks blocking if some line meets the set
        # exactly in that point, i.e. every point needs a tangent
        minimal = bool(np.all(tangents >= 1))
        bound = self.ctx.q**3 + 1
        return BlockingReport(
            blocking=blocking,
            minimal=blocking and minimal,
            attains_bound=self.size == bound,
            size=self.size,
            bound=bound,
        )

    # -- reporting ------------------------------------------------------------

    def record(self) -> dict:
        """The model's own report fields; the caller's record names p, n, w, alpha, beta."""
        rec = {"kind": self.kind, "unital_size": self.size}
        if self.params is not None:
            rec.update(
                discriminant=self.params.discriminant,
                classical=self.params.classical,
                beta_real=self.params.beta_real,
            )
        return rec

    def __repr__(self):
        tag = self.kind
        if self.params is not None:
            tag += (
                f"(alpha={self.ctx.format_fq2(self.params.alpha)},"
                f" beta={self.ctx.format_fq2(self.params.beta)})"
            )
        return f"UnitalModel[{tag}, {self.size} points]"


def build_obm_unital(ctx: FieldCtx, plane: ProjectivePlane, params: UnitalParams) -> UnitalModel:
    """All q^3 affine points [x, alpha*x^2 + beta*N(x) + r, 1] plus [0,1,0]."""
    q, q2 = ctx.q, ctx.q2
    X = np.repeat(np.arange(q2, dtype=np.int32), q)
    R = np.tile(np.arange(q, dtype=np.int32), q2)
    add, mul = ctx.add_t, ctx.mul_t
    Y = add[add[mul[params.alpha, mul[X, X]], mul[params.beta, ctx.norm_t[X]]], R]
    ids = plane.point_ids_vec(X, Y, np.ones_like(X))
    points = np.concatenate([ids, [plane.infinity_point]])
    model = UnitalModel(ctx, plane, points, params=params, kind="obm", generators=(ids, X, R))
    # [0,1,0] is no image of an affine (x, r), so only a collision loses points
    expected = q**3 + 1
    if model.size != expected:
        raise StructuralViolation(
            f"generating map (x, r) -> point is not injective: built {model.size} "
            f"points, expected {expected}"
        )
    return model


def build_hermitian(ctx: FieldCtx, plane: ProjectivePlane) -> UnitalModel:
    """Absolute points of the standard unitary polarity: N(x)+N(y)+N(z) = 0."""
    pc = plane._coords
    s = ctx.qadd_t[
        ctx.qadd_t[ctx.norm_t[pc[:, 0]], ctx.norm_t[pc[:, 1]]], ctx.norm_t[pc[:, 2]]
    ]
    points = np.nonzero(s == 0)[0].astype(np.int32)
    model = UnitalModel(ctx, plane, points, params=None, kind="hermitian")
    expected = ctx.q**3 + 1
    if model.size != expected:
        raise StructuralViolation(f"built {model.size} points, expected {expected}")
    return model
