import numpy as np
import pytest

from unital_lab import DegenerateInput, ParameterError

from conftest import PN_BY_Q, get_geometry


def test_point_and_line_counts():
    for q in (3, 5):
        ctx, plane = get_geometry(*PN_BY_Q[q])
        expected = q**4 + q**2 + 1
        assert plane.size == expected
        assert len(plane.points()) == len(plane.lines()) == expected
        # all coordinate triples distinct (normalization is a bijection onto ids)
        assert np.unique(plane._coords, axis=0).shape[0] == expected


def test_every_line_has_order_plus_one_points():
    ctx, plane = get_geometry(3, 1)
    assert plane.incidence.shape == (91, 10)
    for i in plane.lines():
        row = plane.incidence[i]
        assert len(set(row.tolist())) == ctx.q2 + 1
        assert np.all(np.diff(row) > 0)  # sorted, deterministic


def test_incidence_rows_match_dot_product_oracle():
    ctx, plane = get_geometry(3, 1)
    for i in plane.lines():
        v = plane._coords[i]
        zero_dots = np.nonzero(plane.vdot(plane._coords, v[None, :]) == 0)[0]
        assert np.array_equal(zero_dots, plane.incidence[i])


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
    for p in plane.points():
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
