"""The Desarguesian plane PG(2, q^2) over a :class:`~unital_lab.fields.FieldCtx`.

Points and lines are handles: integers 0..q^4+q^2 indexing the canonical
normalized coordinate triples (leftmost non-zero coordinate scaled to 1).
Point i and line i carry the same triple, and because the incidence form
``a*x + b*y + c*z = 0`` is symmetric in the two triples, a single incidence
array serves both directions: row i lists the lines through point i and,
read dually, the points on line i.

Enumeration order: [1, y, z] for (y, z) ascending in code order (y major),
then [0, 1, z], then [0, 0, 1].  Every id computation normalizes first, so
ids are exact set/hash keys.

Points and lines share the representation but not the role; the NewType
aliases below keep the two argument kinds apart in signatures.
"""

from __future__ import annotations

from typing import NewType

import numpy as np

from .errors import DegenerateInput, ParameterError
from .fields import FieldCtx

PointId = NewType("PointId", int)
LineId = NewType("LineId", int)

# Most entries the incidence table's build fills per block.  Every q <= 9
# fits one block; at q = 13 each of a block's temporaries is about 4 MiB,
# still well above the 0.2-1.3 MB arrays a sweep allocates per call (finer
# blocks were measured to lengthen the scan tails).
_BLOCK_ENTRIES = 1 << 20


class ProjectivePlane:
    """PG(2, q^2): q^4 + q^2 + 1 points and as many lines, all immutable."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.order = ctx.q2  # the plane's order is q^2
        k = ctx.q2
        self.size = k * k + k + 1
        ids = np.arange(self.size, dtype=np.int32)
        coords = np.zeros((self.size, 3), dtype=np.int32)
        affine = ids < k * k
        coords[affine, 0] = 1
        coords[affine, 1] = ids[affine] // k
        coords[affine, 2] = ids[affine] % k
        mid = (ids >= k * k) & (ids < k * k + k)
        coords[mid, 1] = 1
        coords[mid, 2] = ids[mid] - k * k
        coords[-1, 2] = 1
        self._coords = coords
        self._incidence: np.ndarray | None = None

    # distinguished elements: [1,0,0] has id 0, [0,1,0] is the point at
    # infinity of the unital constructions, [0,0,1] the line at infinity.
    @property
    def infinity_point(self) -> PointId:
        return PointId(self.ctx.q2**2)

    @property
    def infinity_line(self) -> LineId:
        return LineId(self.size - 1)

    # -- coordinates and ids -------------------------------------------------

    def coords(self, i) -> tuple[int, int, int]:
        a, b, c = self._coords[i]
        return int(a), int(b), int(c)

    def normalize(self, triple) -> tuple[int, int, int]:
        a, b, c = triple
        if a != 0:
            ia = self.ctx.inv(a)
            return 1, self.ctx.mul(ia, b), self.ctx.mul(ia, c)
        if b != 0:
            return 0, 1, self.ctx.mul(self.ctx.inv(b), c)
        if c != 0:
            return 0, 0, 1
        raise ParameterError("the zero triple is not a projective point/line")

    def point_id(self, a, b, c) -> PointId:
        k = self.ctx.q2
        a, b, c = self.normalize((a, b, c))
        if a == 1:
            return PointId(b * k + c)
        if b == 1:
            return PointId(k * k + c)
        return PointId(k * k + k)

    def line_id(self, x, y, z) -> LineId:
        return LineId(int(self.point_id(x, y, z)))

    def point_ids_vec(self, A, B, C) -> np.ndarray:
        """Vectorized normalize-and-encode for arrays of coordinate codes."""
        ctx = self.ctx
        k = ctx.q2
        A = np.asarray(A, dtype=np.int32)
        B = np.asarray(B, dtype=np.int32)
        C = np.asarray(C, dtype=np.int32)
        A, B, C = np.broadcast_arrays(A, B, C)
        fa = A != 0
        fb = ~fa & (B != 0)
        fc = ~fa & ~fb & (C != 0)
        if not bool(np.all(fa | fb | fc)):
            raise ParameterError("zero triple in vectorized id computation")
        inva = ctx.inv_t[np.where(fa, A, 1)]
        invb = ctx.inv_t[np.where(fb, B, 1)]
        ids = np.where(
            fa,
            ctx.mul_t[inva, B] * k + ctx.mul_t[inva, C],
            np.where(fb, k * k + ctx.mul_t[invb, C], k * k + k),
        )
        return ids.astype(np.int32)

    # -- incidence -----------------------------------------------------------

    def incident(self, point: PointId, line: LineId) -> bool:
        return bool(self.vdot(self._coords[point], self._coords[line]) == 0)

    @property
    def incidence(self) -> np.ndarray:
        """(size, q^2+1) int32; row i = sorted lines through point i = sorted
        points on line i.  Built lazily, in vectorized batches."""
        if self._incidence is None:
            self._incidence = self._build_incidence()
        return self._incidence

    def _build_incidence(self) -> np.ndarray:
        """The table, filled by :meth:`_rows` over consecutive id ranges of at
        most ``_BLOCK_ENTRIES`` entries, so no temporary grows with the plane."""
        k = self.ctx.q2
        inc = np.empty((self.size, k + 1), dtype=np.int32)
        step = max(1, _BLOCK_ENTRIES // (k + 1))
        for start in range(0, self.size, step):
            stop = min(start + step, self.size)
            inc[start:stop] = self._rows(np.arange(start, stop, dtype=np.int32))
        return inc

    def _rows(self, ids) -> np.ndarray:
        """(len(ids), q^2+1) int32: the sorted incidence rows of the given ids,
        from the row formulas alone; one call may mix the three families."""
        ctx = self.ctx
        k = ctx.q2
        add, mul, neg, inv = ctx.add_t, ctx.mul_t, ctx.neg_t, ctx.inv_t
        ids = np.asarray(ids, dtype=np.int32)
        rows = np.empty((ids.size, k + 1), dtype=np.int32)
        t = np.arange(k, dtype=np.int32)[None, :]

        # rows [1, y, z]: points (a, 1, t) with a = -(y + t z), plus (-z, 0, 1)
        at = np.flatnonzero(ids < k * k)
        Y, Z = np.divmod(ids[at, None], k)
        a = neg[add[Y, mul[t, Z]]]
        inva = inv[np.where(a != 0, a, 1)]
        rows[at, :k] = np.where(a != 0, mul[inva, 1] * k + mul[inva, t], k * k + t)
        zcol = Z[:, 0]
        rows[at, k] = np.where(zcol != 0, inv[neg[zcol]], k * k + k)

        # rows [0, 1, z]: points (1, -t z, t), plus (0, -z, 1)
        at = np.flatnonzero((ids >= k * k) & (ids < k * k + k))
        z = ids[at, None] - k * k
        rows[at, :k] = neg[mul[t, z]] * k + t
        z = z[:, 0]
        rows[at, k] = np.where(z != 0, k * k + inv[neg[z]], k * k + k)

        # row [0, 0, 1]: points (1, t, 0) and (0, 1, 0)
        at = np.flatnonzero(ids == k * k + k)
        rows[at, :k] = t * k
        rows[at, k] = k * k

        rows.sort(axis=1)
        return rows

    def line_counts(self, points, rows=None) -> np.ndarray:
        """|l ∩ S| for every line id l, S the given (distinct) points: one
        bincount over their incidence rows.  The table is self-dual, so for a
        set of lines the same call counts how many of them pass through each
        point.  A caller that has already gathered ``incidence[points]``
        passes it as ``rows``."""
        if rows is None:
            rows = self.incidence[np.asarray(points, dtype=np.int32)]
        return np.bincount(rows.ravel(), minlength=self.size).astype(np.int32)

    def lines_through(self, point: PointId) -> np.ndarray:
        return self.incidence[point]

    def points_on(self, line: LineId) -> np.ndarray:
        return self.incidence[line]

    # -- join / meet -----------------------------------------------------------

    def join(self, p: PointId, q: PointId) -> LineId:
        if p == q:
            raise DegenerateInput("join of a point with itself")
        return self.line_id(*self.vcross(self._coords[p], self._coords[q]))

    def meet(self, l: LineId, m: LineId) -> PointId:
        if l == m:
            raise DegenerateInput("meet of a line with itself")
        return self.point_id(*self.vcross(self._coords[l], self._coords[m]))

    def vcross(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Cross products of (..., 3) coordinate-code arrays."""
        ctx = self.ctx
        mul, add, neg = ctx.mul_t, ctx.add_t, ctx.neg_t
        out = np.empty(np.broadcast_shapes(U.shape, V.shape), dtype=np.int32)
        for i, (j, l) in enumerate(((1, 2), (2, 0), (0, 1))):
            out[..., i] = add[mul[U[..., j], V[..., l]], neg[mul[U[..., l], V[..., j]]]]
        return out

    def vdot(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        ctx = self.ctx
        mul, add = ctx.mul_t, ctx.add_t
        s = add[mul[U[..., 0], V[..., 0]], mul[U[..., 1], V[..., 1]]]
        return add[s, mul[U[..., 2], V[..., 2]]]

    # -- bulk geometry helpers ---------------------------------------------------

    def max_collinear(self, point_sets) -> np.ndarray:
        """For an (m, k) array of point ids, distinct within each row: per row,
        the largest number of the row's points on one line.

        A line meets a row's points in as many of them as it occurs among
        their incidence rows.  Each row's k(q^2+1) line ids are sorted; a run
        of j equal ids shows as equal entries j-1 apart, so the gap grows
        while some row still has such a pair."""
        sets = np.asarray(point_sets, dtype=np.int32)
        m, k = sets.shape
        lines = self.incidence[sets].reshape(m, -1)
        lines.sort(axis=1)
        best = np.full(m, min(k, 1), dtype=np.int32)
        gap = 1
        while True:
            hit = np.any(lines[:, gap:] == lines[:, :-gap], axis=1)
            if not hit.any():
                return best
            gap += 1
            best[hit] = gap

    def collinear(self, point_ids) -> bool:
        """True when the given points all lie on one line."""
        ids = np.unique(np.asarray(point_ids, dtype=np.int32))
        return ids.size <= 2 or int(self.max_collinear(ids[None, :])[0]) == ids.size

    def has_three_collinear(self, point_ids) -> bool:
        """True when some line holds three or more of the given points."""
        ids = np.unique(np.asarray(point_ids, dtype=np.int32))
        return int(self.max_collinear(ids[None, :])[0]) >= 3

    # -- text ------------------------------------------------------------------------

    def format_point(self, point: PointId) -> str:
        a, b, c = self.coords(point)
        f = self.ctx.format_fq2
        return f"[{f(a)},{f(b)},{f(c)}]"

    def format_line(self, line: LineId, human: bool = False) -> str:
        text = self.format_point(PointId(int(line)))
        return text + "^t" if human else text

    def parse_point(self, text: str) -> PointId:
        body = text.strip()
        if body.startswith("["):
            if not body.endswith("]"):
                raise ParameterError(f"bad point syntax {text!r}")
            body = body[1:-1]
        parts = body.split(",")
        if len(parts) != 3:
            raise ParameterError(f"bad point syntax {text!r}; expected X,Y,Z")
        a, b, c = (self.ctx.parse_fq2(part) for part in parts)
        return self.point_id(a, b, c)

    def __repr__(self):
        return f"ProjectivePlane(order={self.order}, size={self.size})"
