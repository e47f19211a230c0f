import numpy as np
import pytest

from unital_lab import ProjectivePlane, UnitalModel, build_field_ctx

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


def swapped_for_external(model) -> UnitalModel:
    """A corrupted copy of an OBM model: its first affine point is replaced by
    the first external point off that point's tangent line, so the set keeps
    its size but the old tangent line meets it in no point.  Parameters and
    generators are kept, so the closed-form tangents still describe the old
    set."""
    plane = model.plane
    dropped = int(model.points[0])
    tangent = model.tangent_line_brute(dropped)
    outside = ~model.mask
    outside[plane.points_on(tangent)] = False
    added = int(np.flatnonzero(outside)[0])
    points = np.append(model.points[model.points != dropped], added)
    return UnitalModel(
        model.ctx, plane, points, params=model.params, kind="obm", generators=model.generators
    )


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


# q in {3, 5, 7, 9, 13} <-> (p, n) pairs used across the suite
PN_BY_Q = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1)}


@pytest.fixture(scope="session")
def geometry():
    return get_geometry


@pytest.fixture(scope="session")
def tower():
    return get_ctx
