import tracemalloc

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_add,
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_strip,
)

from unital_lab import ParameterError, build_field_ctx
from unital_lab.fields import fq_add_raw, fq_mul_raw

from conftest import PN_BY_Q, get_ctx


def exhaustive_squares(ctx):
    """Oracle: the set of squares of GF(q) by squaring every element."""
    return {ctx.qmul(a, a) for a in ctx.subfield_elements()}


# -- construction ------------------------------------------------------------


def test_rejects_bad_parameters():
    for p, n in [(2, 1), (4, 1), (9, 1), (3, 0), (3, -1), (1, 1)]:
        with pytest.raises(ParameterError):
            build_field_ctx(p, n)
    with pytest.raises(ParameterError):
        build_field_ctx(101, 2)  # beyond the enumeration cap


@pytest.mark.parametrize("p, n", [(5, 2), (3, 3), (31, 1)])
def test_cap_refuses_q_whose_plane_cannot_be_built(p, n):
    q = p**n
    table = (q**4 + q**2 + 1) * (q**2 + 1) * 4  # bytes of the int32 incidence table
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=f"would need {table} bytes"):
            build_field_ctx(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any table is allocated


@pytest.mark.parametrize("p, n", [(2305843009213693951, 1), (3, 100000)])
def test_cap_refuses_a_huge_q_at_once(p, n):
    # 2^61 - 1 is prime: trial division would not finish, nor would the
    # message print 3^100000 in decimal
    with pytest.raises(ParameterError) as caught:
        build_field_ctx(p, n)
    assert str(caught.value) == f"q^2 = {p}^{2 * n} exceeds the cap 361"


def test_cap_admits_q19():
    assert build_field_ctx(19, 1).q2 == 361


def test_w_is_minimal_nonsquare_by_oracle():
    # frozen values, each recomputed from the exhaustive square table
    frozen = {(3, 1): 2, (5, 1): 2, (7, 1): 3, (3, 2): 4, (13, 1): 2}
    for (p, n), expected in frozen.items():
        ctx = get_ctx(p, n)
        nonsquares = sorted(set(ctx.subfield_elements()) - exhaustive_squares(ctx))
        assert ctx.w == nonsquares[0] == expected


def test_w_override_validated():
    ctx = build_field_ctx(5, 1, w=3)
    assert ctx.w == 3
    with pytest.raises(ParameterError):
        build_field_ctx(5, 1, w=4)  # 4 = 2^2
    with pytest.raises(ParameterError):
        build_field_ctx(5, 1, w=7)  # out of range


def test_gf9_irreducible_is_minimal():
    ctx = get_ctx(3, 2)
    assert ctx.irreducible == (1, 0, 1)  # t^2 + 1, minimal valid choice
    # its root e satisfies t^2 = -1, so code arithmetic must show 3*3 = neg(1)
    t = 3  # the element t has digits (0, 1)
    assert ctx.qmul(t, t) == ctx.qneg(1)


def test_encoding_roundtrip():
    for q in (3, 5, 9):
        ctx = get_ctx(*PN_BY_Q[q])
        seen = set()
        for a in ctx.subfield_elements():
            digs = [(a // ctx.p**i) % ctx.p for i in range(ctx.n)]
            assert sum(d * ctx.p**i for i, d in enumerate(digs)) == a
            seen.add(a)
        assert seen == set(range(q))


# -- arithmetic ----------------------------------------------------------------


def test_mod3_addition():
    ctx = get_ctx(3, 1)
    assert ctx.qadd(2, 2) == 1


def test_eps_squared_is_w():
    for q, (p, n) in PN_BY_Q.items():
        ctx = get_ctx(p, n)
        assert ctx.mul(ctx.eps, ctx.eps) == ctx.w


def test_product_of_conjugate_binomials():
    # (1+e)(1-e) = 1 - w = 2 over q=3, w=2
    ctx = get_ctx(3, 1)
    out = ctx.mul(ctx.pack(1, 1), ctx.pack(1, ctx.qneg(1)))
    assert out == ctx.sub(1, ctx.w) == 2


def test_field_axioms_exhaustive_q3():
    ctx = get_ctx(3, 1)
    els = list(ctx.elements())
    for x in els:
        assert ctx.add(x, 0) == x and ctx.mul(x, 1) == x
        assert ctx.add(x, ctx.neg(x)) == 0
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1
        for y in els:
            assert ctx.add(x, y) == ctx.add(y, x)
            assert ctx.mul(x, y) == ctx.mul(y, x)
            for z in els:
                assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
                assert ctx.mul(x, ctx.mul(y, z)) == ctx.mul(ctx.mul(x, y), z)


def test_subfield_embeds_as_im_zero():
    ctx = get_ctx(5, 1)
    for a in ctx.subfield_elements():
        for b in ctx.subfield_elements():
            assert ctx.add(a, b) == ctx.qadd(a, b)
            assert ctx.mul(a, b) == ctx.qmul(a, b)


def test_division_errors():
    ctx = get_ctx(3, 1)
    with pytest.raises(ZeroDivisionError):
        ctx.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        ctx.qdiv(1, 0)
    with pytest.raises(ZeroDivisionError):
        ctx.pow(0, -1)


# -- conjugation, trace, norm ------------------------------------------------------


@pytest.mark.parametrize("q", sorted(PN_BY_Q))
def test_conjugation_is_frobenius(q):
    ctx = get_ctx(*PN_BY_Q[q])
    for x in ctx.elements():
        assert ctx.conj(ctx.conj(x)) == x
        assert ctx.pow(x, ctx.q) == ctx.conj(x)
        assert (ctx.conj(x) == x) == (ctx.im(x) == 0)


def test_conj_of_eps():
    ctx = get_ctx(3, 1)
    assert ctx.conj(ctx.eps) == ctx.neg(ctx.eps)
    assert ctx.pow(ctx.eps, ctx.q) == ctx.neg(ctx.eps)


def test_trace_norm_values():
    ctx = get_ctx(3, 1)
    assert ctx.trace(ctx.eps) == 0
    assert ctx.norm(ctx.eps) == ctx.qneg(ctx.w)
    assert ctx.norm(ctx.pack(1, 1)) == 2  # 1 - w = -1 = 2 over q=3


@pytest.mark.parametrize("q", sorted(PN_BY_Q))
def test_trace_norm_land_in_subfield(q):
    ctx = get_ctx(*PN_BY_Q[q])
    codes = np.arange(ctx.q2)
    assert np.all(ctx.trace_t[codes] < ctx.q)
    assert np.all(ctx.norm_t[codes] < ctx.q)
    # trace/norm via their definitions
    for x in range(0, ctx.q2, 3):
        assert ctx.trace(x) == ctx.add(x, ctx.conj(x))
        assert ctx.norm(x) == ctx.mul(x, ctx.conj(x))


def test_trace_linear_norm_multiplicative():
    ctx = get_ctx(3, 1)
    for x in ctx.elements():
        for y in ctx.elements():
            assert ctx.trace(ctx.add(x, y)) == ctx.qadd(ctx.trace(x), ctx.trace(y))
            assert ctx.norm(ctx.mul(x, y)) == ctx.qmul(ctx.norm(x), ctx.norm(y))
    # vectorized identity on a bigger field
    ctx9 = get_ctx(3, 2)
    X = np.arange(ctx9.q2)[:, None]
    Y = np.arange(ctx9.q2)[None, :]
    assert np.array_equal(
        ctx9.norm_t[ctx9.mul_t[X, Y]], ctx9.qmul_t[ctx9.norm_t[X], ctx9.norm_t[Y]]
    )
    assert np.array_equal(
        ctx9.trace_t[ctx9.add_t[X, Y]], ctx9.qadd_t[ctx9.trace_t[X], ctx9.trace_t[Y]]
    )


# -- quadratic character ---------------------------------------------------------


@pytest.mark.parametrize("q", sorted(PN_BY_Q))
def test_is_square_matches_exhaustive_table(q):
    ctx = get_ctx(*PN_BY_Q[q])
    squares = exhaustive_squares(ctx)
    for a in ctx.subfield_elements():
        assert ctx.is_square(a) == (a in squares)
    assert ctx.is_square(0) and ctx.is_square(1)
    assert len(squares - {0}) == (q - 1) // 2


def test_two_is_nonsquare_mod3():
    assert not get_ctx(3, 1).is_square(2)


# -- reference route and an independent oracle (sympy galoistools) -----------------


@pytest.mark.parametrize("q", sorted(PN_BY_Q))
def test_tables_match_polynomial_reference(q):
    p, n = PN_BY_Q[q]
    ctx = get_ctx(p, n)
    for a in range(q):
        for b in range(q):
            assert ctx.qadd(a, b) == fq_add_raw(p, n, a, b)
            assert ctx.qmul(a, b) == fq_mul_raw(p, n, ctx.irreducible, a, b)


def _poly(code, p, n):
    """Element code (little-endian base-p digits) -> galoistools polynomial
    (big-endian coefficient list, leading zeros stripped)."""
    return gf_strip([(code // p**i) % p for i in reversed(range(n))])


def _code(poly, p):
    return sum(int(c) * p**i for i, c in enumerate(reversed(poly)))


def _first_irreducible(p, n):
    """First monic irreducible of degree n, ordered by the little-endian
    base-p code of its lower coefficients."""
    for tail in range(p**n):
        poly = [1] + [(tail // p**i) % p for i in reversed(range(n))]
        if gf_irreducible_p(poly, p, ZZ):
            return poly
    raise AssertionError(f"no irreducible of degree {n} over GF({p})")


@pytest.mark.parametrize("q", sorted(PN_BY_Q))
def test_gf_q_matches_galoistools(q):
    p, n = PN_BY_Q[q]
    ctx = get_ctx(p, n)
    irreducible = _first_irreducible(p, n)
    assert ctx.irreducible == tuple(reversed(irreducible))
    polys = [_poly(a, p, n) for a in range(q)]
    add = [[_code(gf_add(f, g, p, ZZ), p) for g in polys] for f in polys]
    mul = [[_code(gf_rem(gf_mul(f, g, p, ZZ), irreducible, p, ZZ), p) for g in polys] for f in polys]
    assert np.array_equal(ctx.qadd_t, add)
    assert np.array_equal(ctx.qmul_t, mul)


@pytest.mark.parametrize("q", [q for q, (p, n) in sorted(PN_BY_Q.items()) if n == 1])
def test_gf_q2_matches_galoistools_quotient(q):
    # GF(q^2) = GF(p)[e]/(e^2 - w); the code a + q*b stands for a + e*b
    ctx = get_ctx(q, 1)
    modulus = [1, 0, (-ctx.w) % q]
    assert gf_irreducible_p(modulus, q, ZZ)
    polys = [_poly(x, q, 2) for x in range(ctx.q2)]
    mul = np.array(
        [[_code(gf_rem(gf_mul(f, g, q, ZZ), modulus, q, ZZ), q) for g in polys] for f in polys]
    )
    assert np.array_equal(ctx.mul_t, mul)
    inv = {
        y: _code(gf_pow_mod(polys[y], ctx.q2 - 2, modulus, q, ZZ), q) for y in range(1, ctx.q2)
    }
    for x in range(ctx.q2):
        for y in range(1, ctx.q2):
            assert ctx.div(x, y) == mul[x, inv[y]]
        for e in (0, 1, 2, ctx.q, ctx.q2 - 2):
            assert ctx.pow(x, e) == _code(gf_pow_mod(polys[x], e, modulus, q, ZZ), q)
    with pytest.raises(ZeroDivisionError):
        ctx.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


# -- text syntax ---------------------------------------------------------------


def test_element_text_roundtrip():
    for q in (3, 9):
        ctx = get_ctx(*PN_BY_Q[q])
        for x in ctx.elements():
            assert ctx.parse_fq2(ctx.format_fq2(x)) == x


def test_parser_accepts_short_forms():
    ctx = get_ctx(3, 1)
    assert ctx.parse_fq2("2") == 2
    assert ctx.parse_fq2("e") == ctx.eps
    assert ctx.parse_fq2("e*2") == ctx.pack(0, 2)
    assert ctx.parse_fq2("1+e") == ctx.pack(1, 1)
    assert ctx.parse_fq2(" 1 + e * 2 ") == ctx.pack(1, 2)


def test_parser_rejects_garbage():
    ctx = get_ctx(3, 1)
    for bad in ["", "x", "3", "1+e*3", "e*e", "2+2", "-1"]:
        with pytest.raises(ParameterError):
            ctx.parse_fq2(bad)
    with pytest.raises(ParameterError):
        ctx.parse_fq("5")
