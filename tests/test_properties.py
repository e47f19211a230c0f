"""Property tests over randomly drawn elements, points, lines and unitals at
q in {3, 5, 9}: the GF(q^2) field axioms, the conjugation/trace/norm
identities, join/meet duality, the elation invariance of OBM unitals, and
the largest line size of random point sets against a coordinate-only count.

The others are identities the operations must satisfy, so they need no
second implementation to compare against."""

from functools import lru_cache
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from unital_lab import ElationGroup, build_obm_unital, valid_parameter_pairs

from conftest import PN_BY_Q, get_ctx, get_geometry

QS = (3, 5, 9)
PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def field_elements(draw, count):
    """(ctx, [x1, ..., x_count]) with each x drawn from GF(q^2)."""
    ctx = get_ctx(*PN_BY_Q[draw(st.sampled_from(QS))])
    return ctx, [draw(st.integers(0, ctx.q2 - 1)) for _ in range(count)]


@st.composite
def plane_ids(draw, count):
    """(plane, [id1, ..., id_count]), distinct ids of points (or lines)."""
    _, plane = get_geometry(*PN_BY_Q[draw(st.sampled_from(QS))])
    ids = draw(st.lists(st.integers(0, plane.size - 1), min_size=count, max_size=count, unique=True))
    return plane, ids


@lru_cache(maxsize=None)
def _models(q):
    ctx, plane = get_geometry(*PN_BY_Q[q])
    return ctx, plane, valid_parameter_pairs(ctx)


# -- GF(q^2) ------------------------------------------------------------------------


@PROPERTY
@given(field_elements(3))
def test_field_axioms(drawn):
    ctx, (x, y, z) = drawn
    add, mul = ctx.add, ctx.mul
    assert add(x, y) == add(y, x) and mul(x, y) == mul(y, x)
    assert add(add(x, y), z) == add(x, add(y, z))
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
    assert add(x, 0) == x and mul(x, 1) == x and mul(x, 0) == 0
    assert add(x, ctx.neg(x)) == 0 and ctx.sub(add(x, y), y) == x
    if x:
        assert mul(x, ctx.inv(x)) == 1 and ctx.div(mul(y, x), x) == y
        assert ctx.pow(x, ctx.q2 - 1) == 1
    if mul(x, y) == 0:
        assert x == 0 or y == 0


@PROPERTY
@given(field_elements(2))
def test_conj_trace_norm_identities(drawn):
    ctx, (x, y) = drawn
    conj, trace, norm = ctx.conj, ctx.trace, ctx.norm
    assert conj(x) == ctx.pow(x, ctx.q)
    assert conj(conj(x)) == x
    assert conj(ctx.add(x, y)) == ctx.add(conj(x), conj(y))
    assert conj(ctx.mul(x, y)) == ctx.mul(conj(x), conj(y))
    # GF(q) codes are GF(q^2) codes with no e part, so trace and norm compare directly
    assert trace(x) == ctx.add(x, conj(x)) and trace(x) < ctx.q
    assert norm(x) == ctx.mul(x, conj(x)) and norm(x) < ctx.q
    assert trace(ctx.add(x, y)) == ctx.qadd(trace(x), trace(y))
    assert norm(ctx.mul(x, y)) == ctx.qmul(norm(x), norm(y))
    assert (norm(x) == 0) == (x == 0)


# -- PG(2, q^2) ---------------------------------------------------------------------


@PROPERTY
@given(plane_ids(3))
def test_join_meet_duality(drawn):
    plane, (a, b, c) = drawn
    # one id space serves points and lines, and incidence is symmetric in them
    assert plane.incident(a, b) == plane.incident(b, a)
    assert (b in plane.incidence[a]) == plane.incident(a, b)
    line = plane.join(a, b)
    assert line == plane.meet(a, b)  # the dual statement, read on the same ids
    assert plane.incident(a, line) and plane.incident(b, line)
    point = plane.meet(a, b)
    assert plane.incident(point, a) and plane.incident(point, b)
    if not plane.incident(c, line):  # a, b, c not collinear
        assert plane.meet(plane.join(a, b), plane.join(a, c)) == a
        assert plane.join(plane.meet(a, b), plane.meet(a, c)) == a
        assert not plane.collinear([a, b, c])
    else:
        assert plane.collinear([a, b, c])


@PROPERTY
@given(st.sampled_from(QS), st.data())
def test_max_collinear_matches_coordinate_count(q, data):
    _, plane = get_geometry(*PN_BY_Q[q])
    k = data.draw(st.integers(1, 8))
    rows = []
    for _ in range(data.draw(st.integers(1, 4))):
        # some points of one line, so rows with three or more collinear occur
        line = plane.incidence[data.draw(st.integers(0, plane.size - 1))].tolist()
        row = data.draw(st.lists(st.sampled_from(line), max_size=k, unique=True))
        others = st.integers(0, plane.size - 1).filter(lambda p: p not in row)
        n = k - len(row)
        rows.append(row + data.draw(st.lists(others, min_size=n, max_size=n, unique=True)))
    # coordinates only: the most points with zero dot product against the
    # cross product of some pair of them, which is the pair's joining line
    expected = []
    for row in rows:
        pts = plane._coords[np.asarray(row)]
        best = min(k, 2)
        for i, j in combinations(range(k), 2):
            line = plane.vcross(pts[i], pts[j])
            best = max(best, int(np.count_nonzero(plane.vdot(pts, line[None, :]) == 0)))
        expected.append(best)
    assert plane.max_collinear(rows).tolist() == expected


# -- elations -----------------------------------------------------------------------


@PROPERTY
@given(st.sampled_from(QS), st.data())
def test_elations_fix_every_obm_unital(q, data):
    ctx, plane, pairs = _models(q)
    model = build_obm_unital(ctx, plane, data.draw(st.sampled_from(pairs)))
    group = ElationGroup(model)
    t = data.draw(st.integers(0, ctx.q - 1))
    image = group.apply_points(t, model.points)
    assert np.array_equal(np.sort(image), model.points)
    point = data.draw(st.integers(0, plane.size - 1))
    moved = int(group.apply_points(t, [point])[0])
    assert (moved in model) == (point in model)
    line = data.draw(st.integers(0, plane.size - 1))
    moved_line = int(group.apply_lines(t, [line])[0])
    assert plane.incident(point, line) == plane.incident(moved, moved_line)
