"""Tour of the field tower GF(p) < GF(q) < GF(q^2).

Every element is an integer code: GF(q) elements are base-p digit strings
read as integers, and a + e*b in GF(q^2) is packed as a + q*b.  All
arithmetic is exact table lookup.
"""

from unital_lab import build_field_ctx

# A context fixes the tower deterministically: the minimal irreducible for
# GF(q) and the minimal non-square w with e^2 = w.
for p, n in [(3, 1), (5, 1), (3, 2)]:
    ctx = build_field_ctx(p, n)
    print(f"GF({ctx.q}^2) over GF({ctx.p}): irreducible digits {ctx.irreducible}, w = {ctx.w}")

ctx = build_field_ctx(3, 1)
print("\nArithmetic in GF(9) = GF(3)[e], e^2 =", ctx.w)
x = ctx.parse_fq2("1+e")
y = ctx.parse_fq2("1+e*2")  # = 1 - e since -1 = 2 mod 3
print(f"  (1+e) * (1-e) = {ctx.format_fq2(ctx.mul(x, y))}   (expected 1 - w = 2)")
print(f"  e * e         = {ctx.format_fq2(ctx.mul(ctx.eps, ctx.eps))}   (= w)")
print(f"  (1+e)^-1      = {ctx.format_fq2(ctx.inv(x))}")

print("\nConjugation is the Frobenius x -> x^q:")
for text in ["2", "e", "1+e"]:
    v = ctx.parse_fq2(text)
    conj = ctx.conj(v)
    assert conj == ctx.pow(v, ctx.q)
    print(f"  conj({text}) = {ctx.format_fq2(conj)}    T = {ctx.trace(v)}, N = {ctx.norm(v)}")

print("\nSquares of GF(3):", sorted({ctx.qmul(a, a) for a in ctx.subfield_elements()}))
print("is_square over GF(3):", {a: ctx.is_square(a) for a in ctx.subfield_elements()})
