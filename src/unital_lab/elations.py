"""The elation group of an OBM unital: E_t : (x, y, z) -> (x, y + t*z, z)
for t in GF(q), with center [0,1,0] and axis the line at infinity.

Every E_t fixes the unital setwise (it shifts the generator r to r + t), so
orbits of pedals under the group are unions of q pairwise disjoint pedals,
and in the canonical frame the q lines [0, -1, s - lam*e]^t through [1,0,0]
partition the orbit of the pedal of [0, lam*e, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TheoremViolation
from .pedals import IntersectionCensus, PedalSet, feet_of_many
from .plane import LineId, PointId
from .unitals import UnitalModel


class ElationGroup:
    """The group {E_t : t in GF(q)} acting on the plane; order q, composition
    is addition of parameters, and the action is semi-regular off the axis."""

    def __init__(self, U: UnitalModel):
        self.ctx = U.ctx
        self.plane = U.plane

    @property
    def order(self) -> int:
        return self.ctx.q

    def apply_points(self, t, points) -> np.ndarray:
        """Point ids moved by E_t: [x, y, z] -> [x, y + t*z, z]; t and points
        broadcast against each other."""
        ctx = self.ctx
        pc = self.plane._coords[np.asarray(points, dtype=np.int32)]
        b = ctx.add_t[pc[..., 1], ctx.mul_t[t, pc[..., 2]]]
        return self.plane.point_ids_vec(pc[..., 0], b, pc[..., 2])

    def apply_lines(self, t, lines) -> np.ndarray:
        """Line ids moved by E_t, the inverse-transpose action
        [x, y, z]^t -> [x, y, z - t*y]^t; broadcasts like :meth:`apply_points`."""
        ctx = self.ctx
        lc = self.plane._coords[np.asarray(lines, dtype=np.int32)]
        c = ctx.add_t[lc[..., 2], ctx.neg_t[ctx.mul_t[t, lc[..., 1]]]]
        return self.plane.point_ids_vec(lc[..., 0], lc[..., 1], c)


@dataclass(frozen=True)
class OrbitSet:
    """The orbit of a pedal under the elation group: q disjoint pedals keyed
    by the elation parameter t, with their union."""

    base: PointId
    lam: int | None
    pedals: tuple[tuple[int, tuple[int, ...]], ...]  # (t, feet) in t order
    points: tuple[int, ...]  # sorted union

    @property
    def size(self) -> int:
        return len(self.points)


def orbit_of_pedal(U: UnitalModel, pedal: PedalSet) -> OrbitSet:
    """Build the orbit, verifying along the way that translating the feet
    matches the feet of the translated base and that the pedals are disjoint.
    All q elations are applied in one broadcast over a column of t values."""
    group = ElationGroup(U)
    ts = np.arange(group.order, dtype=np.int32)[:, None]
    moved_bases = group.apply_points(ts, [pedal.base])[:, 0]
    fresh = feet_of_many(U, moved_bases)
    images = np.sort(group.apply_points(ts, pedal.feet), axis=1)
    differs = np.nonzero(np.any(images != fresh, axis=1))[0]
    if differs.size:
        raise TheoremViolation(
            f"elation t={int(differs[0])} image of the feet differs from the feet of the image point"
        )
    union = np.unique(fresh)
    expected = U.ctx.q * (U.ctx.q + 1)
    if union.size != expected:
        raise TheoremViolation(f"orbit has {union.size} points; expected {expected}")
    return OrbitSet(
        base=pedal.base,
        lam=pedal.lam,
        pedals=tuple(enumerate(map(tuple, fresh.tolist()))),
        points=tuple(union.tolist()),
    )


def partition_lines_for_orbit(U: UnitalModel, orbit: OrbitSet) -> list[LineId]:
    """The q lines [0, -1, s - lam*e]^t, s in GF(q), listed in s order.

    Each passes through [1, 0, 0], meets the orbit in exactly q+1 points,
    the q lines partition the orbit, and each line's unital points all lie
    in the orbit.  The checks run in that order, each over the rows of all
    q lines at once.
    """
    if orbit.lam is None:
        raise ValueError("partition lines are defined for canonical-frame orbits")
    ctx, plane = U.ctx, U.plane
    s = np.arange(ctx.q, dtype=np.int32)
    offsets = ctx.add_t[s, ctx.neg(ctx.pack(0, orbit.lam))]
    lines = plane.point_ids_vec(0, ctx.neg(1), offsets)
    rows = plane.incidence[lines]
    corner = plane.point_id(1, 0, 0)
    if not bool(np.all(np.any(rows == corner, axis=1))):
        raise TheoremViolation("partition line misses [1,0,0]")
    orbit_points = np.asarray(orbit.points, dtype=np.int32)
    in_orbit = np.zeros(plane.size, dtype=bool)
    in_orbit[orbit_points] = True
    on_orbit = in_orbit[rows]
    sizes = on_orbit.sum(axis=1)
    if not bool(np.all(sizes == ctx.q + 1)):
        bad = int(sizes[sizes != ctx.q + 1][0])
        raise TheoremViolation(
            f"partition line meets the orbit in {bad} points; expected {ctx.q + 1}"
        )
    hits = rows[on_orbit]
    covered = np.unique(hits)
    if covered.size != hits.size:
        raise TheoremViolation("partition lines overlap on the orbit")
    if bool(np.any(U.mask[rows] & ~on_orbit)):
        raise TheoremViolation("a partition line meets the unital outside the orbit")
    if not np.array_equal(covered, np.unique(orbit_points)):
        raise TheoremViolation("partition lines do not cover the orbit")
    return [LineId(int(line)) for line in lines]


def orbit_line_census(U: UnitalModel, orbit: OrbitSet) -> IntersectionCensus:
    """Histogram of |line ∩ orbit| over every line of the plane."""
    return IntersectionCensus(U.plane, orbit.points)


def orbit_incidence_stats(U: UnitalModel, orbit: OrbitSet) -> dict:
    """Incidence statistics of the structure (orbit points, lines meeting the
    orbit in at least two points): line-size and point-degree distributions
    plus regularity flags (a tactical configuration needs both)."""
    plane = U.plane
    pts = np.asarray(orbit.points, dtype=np.int32)
    counts = plane.line_counts(pts)
    sizes = counts[counts >= 2]
    degrees = (counts[plane.incidence[pts]] >= 2).sum(axis=1)
    size_dist = {int(s): int(c) for s, c in zip(*np.unique(sizes, return_counts=True))}
    degree_dist = {int(d): int(c) for d, c in zip(*np.unique(degrees, return_counts=True))}
    return {
        "points": int(pts.size),
        "lines": int(sizes.size),
        "line_size_distribution": size_dist,
        "point_degree_distribution": degree_dist,
        "line_regular": len(size_dist) == 1,
        "point_regular": len(degree_dist) == 1,
        "tactical": len(size_dist) == 1 and len(degree_dist) == 1,
    }
