"""Orthogonal-Buekenhout-Metz unitals.

An OBM unital with parameters (alpha, beta) is the point set

    { [x, alpha*x^2 + beta*N(x) + r, 1] : x in GF(q^2), r in GF(q) }
    together with the point at infinity [0, 1, 0],

valid exactly when the discriminant 4*N(alpha) + (conj(beta) - beta)^2 is a
non-square of GF(q).  alpha = 0 gives a classical unital; beta = conj(beta)
marks the union-of-conics case.  U_{alpha,beta} = U_{alpha,beta+c} for every
c in GF(q), since c*N(x) lies in GF(q) and is absorbed by r; the
discriminant reads beta only through conj(beta) - beta, so it agrees too.

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


def valid_parameter_pairs(ctx: FieldCtx, nonclassical_only: bool = False) -> list[UnitalParams]:
    """Every valid (alpha, beta), in ascending (alpha, beta) code order.

    The listing is exhaustive on purpose: no quotient by equivalences is
    attempted, so a caller cannot miss a case.  ``verify`` and the scans list
    their pairs the same way, and do their shared work once for the pairs
    (alpha, beta + c), c in GF(q), which are one point set with one
    beta - conj(beta), but every pair's points are still generated and
    compared, and it gets its own record.
    """
    codes = np.arange(ctx.q2, dtype=np.int32)
    disc = discriminant(ctx, codes[:, None], codes[None, :])
    valid = ~ctx.square_mask[disc]
    if nonclassical_only:
        valid[0, :] = False
    return [validate_params(ctx, a, b) for a, b in np.argwhere(valid).tolist()]


@dataclass(frozen=True)
class BlockingReport:
    blocking: bool  # every line of the plane meets the set
    minimal: bool  # every point lies on some tangent line
    attains_bound: bool  # |U| equals the q^3 + 1 maximum for minimal blocking sets
    size: int
    bound: int


class UnitalModel:
    """A unital point set with O(1) membership and cached line statistics.

    Construct through :func:`build_obm_unital`; the raw constructor exists
    so tests can fabricate other sets, corrupted ones among them.
    Immutable after construction, but for its own line pass, filled on
    first read.
    """

    def __init__(self, ctx, plane, points, params=None, generators=None):
        self.ctx: FieldCtx = ctx
        self.plane: ProjectivePlane = plane
        self.mask = np.zeros(plane.size, dtype=bool)
        self.mask[np.asarray(points, dtype=np.int32)] = True
        self.points = np.flatnonzero(self.mask).astype(np.int32)  # sorted, distinct
        self.params: UnitalParams | None = params
        self.infinity_point: PointId = plane.infinity_point
        self.infinity_line: LineId = plane.infinity_line
        # the affine point ids in x-major (x, r) order: entry i is (x, r) = divmod(i, q)
        self.generators: np.ndarray | None = generators
        # (line counts, tangents per point, touch array or None)
        self._line_stats: tuple[np.ndarray, np.ndarray, np.ndarray | None] | None = None

    # -- basics ------------------------------------------------------------

    @property
    def size(self) -> int:
        return int(self.points.size)

    def __contains__(self, point) -> bool:
        return bool(self.mask[int(point)])

    def generating_pair(self, point: PointId) -> tuple[int, int]:
        """(x, r) with point = [x, alpha*x^2 + beta*N(x) + r, 1]; KeyError if none."""
        if self.generators is not None:
            at = np.flatnonzero(self.generators == int(point))
            if at.size:
                return divmod(int(at[0]), self.ctx.q)
        raise KeyError(int(point))

    # -- line statistics ------------------------------------------------------

    def _lines_pass(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One gather of the points' incidence rows feeds the line counts and
        one tangent pass over them: how many tangent lines pass through each
        point, and the touch array when that is 1 for every point."""
        if self._line_stats is None:
            rows = self.plane.incidence[self.points]
            counts = self.plane.line_counts(self.points, rows=rows)
            hits = np.flatnonzero(np.take(counts == 1, rows))  # the (point, tangent) pairs
            at = hits // rows.shape[1]
            tangents = np.bincount(at, minlength=rows.shape[0])
            touch = None
            if bool(np.all(tangents == 1)):
                touch = np.full(self.plane.size, -1, dtype=np.int32)
                touch[rows.ravel()[hits]] = self.points[at]
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

    def tangent_lines_closed_form(self) -> tuple[np.ndarray, np.ndarray]:
        """(point ids, tangent line ids) for every unital point, vectorized
        through the closed form (the brute scan lives in the tests).

        OBM at [x, y, 1], y = alpha*x^2 + beta*N(x) + r:
            [-2*alpha*x + (conj(beta) - beta)*conj(x), 1,
             2*alpha*x^2 + (beta - conj(beta))*N(x) - y]^t,
        whose third entry is alpha*x^2 - conj(beta)*N(x) - r; it reads beta
        only through beta - conj(beta).  The line at infinity at [0,1,0].

        The ids come from per-x terms, in the x-major (x, r) order of the
        generators: the tangent [u, 1, c] has u = u(x) and c = c(x) - r, with
        c(x) = alpha*x^2 - conj(beta)*N(x).  With k = q^2, its id is
        k*(1/u) + c(x)/u + (-r)/u for u != 0, and k^2 + c for u = 0 (at
        x = 0 only, for valid parameters).
        """
        ctx, p = self.ctx, self.params
        k, add, mul, neg, conj = ctx.q2, ctx.add_t, ctx.mul_t, ctx.neg_t, ctx.conj_t
        xs, minus_r = np.arange(k, dtype=np.int32), neg[np.arange(ctx.q, dtype=np.int32)]
        two = ctx.scalar(2)
        bbar_minus_b = ctx.sub(ctx.conj(p.beta), p.beta)
        u = add[neg[mul[two, mul[p.alpha, xs]]], mul[bbar_minus_b, conj[xs]]]
        c_x = add[mul[p.alpha, mul[xs, xs]], neg[mul[ctx.conj(p.beta), ctx.norm_t[xs]]]]
        inv_u = ctx.inv_t[u][:, None]
        lids = np.where(
            u[:, None] != 0,
            add[mul[c_x[:, None], inv_u], mul[minus_r, inv_u]] + k * inv_u,
            k * k + add[c_x[:, None], minus_r],
        )
        pts = np.append(self.generators, self.infinity_point)
        lids = np.append(lids.ravel(), np.int32(self.infinity_line))
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
        rec = {"kind": "obm", "unital_size": self.size}
        if self.params is not None:
            rec.update(
                discriminant=self.params.discriminant,
                classical=self.params.classical,
                beta_real=self.params.beta_real,
            )
        return rec

    def __repr__(self):
        return unital_label(self.ctx, self.params, self.size)


def unital_label(ctx: FieldCtx, params: UnitalParams | None, size: int) -> str:
    """How a set of ``size`` points with these parameters is named in messages."""
    if params is None:
        return f"UnitalModel[{size} points]"
    alpha, beta = (ctx.format_fq2(c) for c in (params.alpha, params.beta))
    return f"UnitalModel[obm(alpha={alpha}, beta={beta}), {size} points]"


def obm_point_ids(ctx: FieldCtx, alpha: int, betas) -> np.ndarray:
    """The ids of [x, alpha*x^2 + beta*N(x) + r, 1], one row of q^3 per beta,
    each in the x-major (x, r) order of a model's generators.

    The ids come from per-x terms, without normalizing q^3 triples: with
    k = q^2 and s(x) = alpha*x^2 + beta*N(x), a point with x != 0 is
    [1, s(x)/x + r/x, 1/x], of id k*(s(x)/x + r/x) + 1/x, so s(x)/x is formed
    q^2 times per beta and r/x once per call, as one (q^2, q) array.  At
    x = 0 the point is [0, r, 1]: id k^2 + 1/r for r != 0, k^2 + k for r = 0.
    """
    k, add, mul, inv = ctx.q2, ctx.add_t, ctx.mul_t, ctx.inv_t
    xs, y0 = np.arange(k, dtype=np.int32), np.arange(ctx.q, dtype=np.int32)
    inv_x = inv[xs]  # inv[0] reads 0; the x = 0 column is set below
    B = np.asarray(betas, dtype=np.int32)[:, None]
    s_over_x = mul[add[mul[alpha, mul[xs, xs]], mul[B, ctx.norm_t[xs]]], inv_x]
    ids = add[s_over_x[:, :, None], mul[inv_x[:, None], y0]] * k + inv_x[:, None]
    ids[:, 0] = np.where(y0 != 0, k * k + inv[y0], k * k + k)  # y = r at x = 0
    return ids.reshape(B.shape[0], k * ctx.q)


def build_obm_unital(ctx: FieldCtx, plane: ProjectivePlane, params: UnitalParams) -> UnitalModel:
    """The q^3 affine points of :func:`obm_point_ids`, its one-row case, plus [0,1,0]."""
    ids = obm_point_ids(ctx, params.alpha, [params.beta])[0]
    points = np.append(ids, plane.infinity_point)
    model = UnitalModel(ctx, plane, points, params=params, generators=ids)
    # [0,1,0] is no image of an affine (x, r), so only a collision loses points
    expected = ctx.q**3 + 1
    if model.size != expected:
        raise StructuralViolation(
            f"generating map (x, r) -> point is not injective: built {model.size} "
            f"points, expected {expected}"
        )
    return model
