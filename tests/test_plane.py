import tracemalloc

import numpy as np
import pytest

import unital_lab.plane as plane_mod
from unital_lab import DegenerateInput, ParameterError, ProjectivePlane

from conftest import PN_BY_Q, get_ctx, get_geometry


def dot_product_rows(plane, ids) -> np.ndarray:
    """Oracle: row i lists, ascending, the ids whose triples have dot product
    0 with triple i."""
    coords = plane._coords
    return np.array([np.flatnonzero(plane.vdot(coords, coords[i][None, :]) == 0) for i in ids])


def test_point_and_line_counts():
    for q in (3, 5):
        ctx, plane = get_geometry(*PN_BY_Q[q])
        expected = q**4 + q**2 + 1
        assert plane.size == expected
        assert plane.incidence.shape == (expected, q**2 + 1)
        # all coordinate triples distinct (normalization is a bijection onto ids)
        assert np.unique(plane._coords, axis=0).shape[0] == expected


def test_every_line_has_order_plus_one_points():
    ctx, plane = get_geometry(3, 1)
    assert plane.incidence.shape == (91, 10)
    for i in range(plane.size):
        row = plane.incidence[i]
        assert len(set(row.tolist())) == ctx.q2 + 1
        assert np.all(np.diff(row) > 0)  # sorted, deterministic


def test_incidence_rows_match_dot_product_oracle():
    ctx, plane = get_geometry(3, 1)
    assert np.array_equal(plane.incidence, dot_product_rows(plane, range(plane.size)))


@pytest.mark.parametrize("q, entries", [(3, 1), (3, 39), (5, 130)])
def test_block_edges_inside_and_between_the_row_families(q, entries, monkeypatch):
    # blocks of entries // (q^2+1) rows, at least one: at q = 3 one row and 3
    # rows (39 entries is not a whole number of 10-entry rows), at q = 5 five
    # rows; each puts edges inside the [1, y, z] rows, inside the [0, 1, z]
    # rows, and at k^2 or k^2 + k, between two families
    ctx = get_ctx(*PN_BY_Q[q])
    k = ctx.q2
    monkeypatch.setattr(plane_mod, "_BLOCK_ENTRIES", entries)
    plane = ProjectivePlane(ctx)
    edges = set(range(0, plane.size, max(1, entries // (k + 1)))) - {0}
    assert edges & set(range(1, k * k)) and edges & set(range(k * k + 1, k * k + k))
    assert edges & {k * k, k * k + k}
    assert np.array_equal(plane.incidence, dot_product_rows(plane, range(plane.size)))


def test_rows_on_both_sides_of_every_block_edge_q13():
    # q = 13 fills its table in five blocks, every edge inside the [1, y, z]
    # rows; the last k + 2 rows are the last affine row and the other families
    ctx, plane = get_geometry(13, 1)
    k = ctx.q2
    edges = range(0, plane.size, plane_mod._BLOCK_ENTRIES // (k + 1))[1:]
    assert len(edges) == 4 and edges[-1] < k * k
    ids = sorted({edge + d for edge in edges for d in (-1, 0)} | set(range(k * k - 1, plane.size)))
    assert np.array_equal(plane.incidence[ids], dot_product_rows(plane, ids))


def test_building_the_q13_table_stays_within_table_bytes_plus_32_mib():
    # the build's temporaries are bounded by its block, not by the plane
    plane = ProjectivePlane(get_ctx(13, 1))
    tracemalloc.start()
    try:
        table = plane.incidence
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + (32 << 20)


def test_incident_scalar():
    ctx, plane = get_geometry(3, 1)
    assert plane.incident(plane.point_id(0, 1, 0), plane.line_id(0, 0, 1))
    assert not plane.incident(plane.point_id(1, 0, 0), plane.line_id(1, 0, 0))


def test_duality_under_coordinate_swap():
    # point i on line j  <=>  point j on line i, since the form is symmetric
    ctx, plane = get_geometry(3, 1)
    rng = np.random.default_rng(0)
    for i in rng.integers(0, plane.size, 40):
        for j in rng.integers(0, plane.size, 10):
            assert plane.incident(int(i), int(j)) == plane.incident(int(j), int(i))


def test_join_meet_postconditions_exhaustive_q3():
    ctx, plane = get_geometry(3, 1)
    for p in range(plane.size):
        for q in range(p + 1, plane.size):
            l = plane.join(p, q)
            assert plane.incident(p, l) and plane.incident(q, l)
            assert plane.join(q, p) == l


def test_join_meet_named_examples():
    ctx, plane = get_geometry(3, 1)
    assert plane.join(plane.point_id(1, 0, 0), plane.point_id(0, 1, 0)) == plane.line_id(0, 0, 1)
    assert plane.meet(plane.line_id(0, 0, 1), plane.line_id(0, 1, 0)) == plane.point_id(1, 0, 0)


def test_join_meet_degenerate_inputs():
    ctx, plane = get_geometry(3, 1)
    with pytest.raises(DegenerateInput):
        plane.join(5, 5)
    with pytest.raises(DegenerateInput):
        plane.meet(7, 7)


def test_meet_of_joins_recovers_apex():
    ctx, plane = get_geometry(3, 1)
    rng = np.random.default_rng(1)
    done = 0
    while done < 200:
        p, q, r = (int(x) for x in rng.integers(0, plane.size, 3))
        if len({p, q, r}) < 3 or plane.collinear([p, q, r]):
            continue
        assert plane.meet(plane.join(p, q), plane.join(p, r)) == p
        done += 1


def test_normalization_idempotent_and_scale_invariant():
    ctx, plane = get_geometry(3, 1)
    for i in (0, 1, 40, 81, 85, 90):
        a, b, c = plane.coords(i)
        assert plane.normalize((a, b, c)) == (a, b, c)
        for s in range(1, ctx.q2):
            scaled = (ctx.mul(s, a), ctx.mul(s, b), ctx.mul(s, c))
            assert plane.point_id(*scaled) == i
    with pytest.raises(ParameterError):
        plane.normalize((0, 0, 0))


def test_enumeration_order():
    ctx, plane = get_geometry(3, 1)
    k = ctx.q2
    assert plane.coords(0) == (1, 0, 0)
    assert plane.coords(1) == (1, 0, 1)
    assert plane.coords(k) == (1, 1, 0)
    assert plane.coords(k * k) == (0, 1, 0)
    assert plane.coords(k * k + 2) == (0, 1, 2)
    assert plane.coords(k * k + k) == (0, 0, 1)
    assert plane.infinity_point == k * k
    assert plane.infinity_line == k * k + k


def test_point_text_roundtrip():
    ctx, plane = get_geometry(3, 1)
    for i in (0, 3, 80, 81, 90):
        assert plane.parse_point(plane.format_point(i)) == i
    assert plane.parse_point("0,e,1") == plane.point_id(0, ctx.eps, 1)
    assert plane.format_line(plane.infinity_line, human=True).endswith("^t")
    with pytest.raises(ParameterError):
        plane.parse_point("1,2")
    with pytest.raises(ParameterError):
        plane.parse_point("[1,2,3,4]")


def test_has_three_collinear_matches_brute_force():
    ctx, plane = get_geometry(3, 1)
    rng = np.random.default_rng(2)

    def brute(ids):
        # three points are collinear when their coordinate determinant vanishes
        from itertools import combinations

        for a, b, c in combinations(ids, 3):
            u, v, w = (plane._coords[i] for i in (a, b, c))
            if plane.vdot(u, plane.vcross(v, w)) == 0:
                return True
        return False

    for _ in range(30):
        ids = sorted(set(int(x) for x in rng.integers(0, plane.size, 6)))
        assert plane.has_three_collinear(ids) == brute(ids)


def test_vectorized_ids_agree_with_scalar():
    ctx, plane = get_geometry(3, 2)
    rng = np.random.default_rng(3)
    A = rng.integers(0, ctx.q2, 300).astype(np.int32)
    B = rng.integers(0, ctx.q2, 300).astype(np.int32)
    C = rng.integers(0, ctx.q2, 300).astype(np.int32)
    keep = ~((A == 0) & (B == 0) & (C == 0))
    A, B, C = A[keep], B[keep], C[keep]
    ids = plane.point_ids_vec(A, B, C)
    for a, b, c, i in zip(A, B, C, ids):
        assert plane.point_id(int(a), int(b), int(c)) == int(i)
