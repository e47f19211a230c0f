"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^2), with q = p^n and p odd.

Elements are integer codes so that point sets hash exactly and numpy can
gather whole coordinate arrays through the operation tables:

* GF(q): the little-endian base-p digits of an element's coefficient vector
  form its code, 0..q-1.  The prime subfield therefore occupies codes 0..p-1.
* GF(q^2) = GF(q)[e] / (e^2 - w), with w the canonical non-square of GF(q):
  the element a + e*b is packed as ``a + q*b``, 0..q^2-1.  GF(q) embeds as
  the codes below q, so an Fq code is already its own lift.

The GF(q) tables are built once per context from the companion matrix of
the first monic irreducible of degree n, and the GF(q^2) tables from them.

Text syntax for elements: GF(q) is a decimal code, GF(q^2) is ``A+e*B``
(with the short forms ``A``, ``e``, ``e*B``, ``A+e`` accepted).
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ParameterError

# Largest allowed q^2: q = 19, the largest q whose plane build was measured to
# fit in memory (a 180 MiB incidence table, 233 MB peak RSS while it is built).
MAX_FIELD_ORDER = 361

_FQ2_RE = re.compile(
    r"^\s*(?:(?P<a>\d+)\s*\+\s*)?(?P<e>e)\s*(?:\*\s*(?P<b>\d+))?\s*$|^\s*(?P<plain>\d+)\s*$"
)


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _gf_q_tables(p: int, n: int) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """(irreducible, addition table, multiplication table) of GF(p^n).

    An element is its row of the (q, n) little-endian digit matrix, so adding
    is the digitwise sum mod p, and multiplying by a is the matrix
    sum_i a_i C^i, with C the companion matrix of a monic f of degree n.  The
    candidates f come in the order of the code of their low coefficients; the
    first whose table gives every nonzero element an inverse is irreducible,
    since a finite commutative ring without zero divisors is a field, and
    one exists for every prime p and degree n.  For n = 1 the first
    candidate, f = t, already gives a*b mod p.
    """
    place = p ** np.arange(n)
    digits = np.arange(p**n)[:, None] // place % p
    add = (digits[:, None] + digits[None, :]) % p @ place
    for low in digits:
        companion = np.eye(n, k=-1, dtype=digits.dtype)  # t * t^i = t^(i+1) ...
        companion[:, -1] = -low % p  # ... and t * t^(n-1) = -(f - t^n)
        powers = [np.eye(n, dtype=digits.dtype)]
        for _ in range(1, n):
            powers.append(powers[-1] @ companion % p)
        times = np.tensordot(digits, np.array(powers), axes=1)  # times[a] = sum_i a_i C^i
        mul = np.einsum("aij,bj->abi", times, digits) % p @ place
        if np.all(np.any(mul[1:] == 1, axis=1)):
            return tuple(low.tolist()) + (1,), add.astype(np.int32), mul.astype(np.int32)


class FieldCtx:
    """Immutable context for the tower GF(p) < GF(q) < GF(q^2).

    All scalar operations are numpy table lookups, so they accept integer
    arrays as well as plain ints.  Instances are safe to share across
    processes and threads; nothing is mutated after construction.
    """

    def __init__(self, p: int, n: int, w: int | None = None):
        if n < 1:
            raise ParameterError(f"n = {n} must be a positive integer")
        # A q above the cap itself is refused from log p and n: trial division
        # of a huge p, or the power p^n for a huge n, would not finish.
        if p > 1 and n > math.log(MAX_FIELD_ORDER) / math.log(p):
            raise ParameterError(f"q^2 = {p}^{2 * n} exceeds the cap {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise ParameterError(f"p = {p} is not prime")
        if p == 2:
            raise ParameterError("characteristic 2 is not supported (p must be odd)")
        q = p**n
        if q * q > MAX_FIELD_ORDER:
            table = (q**4 + q**2 + 1) * (q**2 + 1) * 4  # int32 incidence table
            raise ParameterError(
                f"q^2 = {q * q} exceeds the cap {MAX_FIELD_ORDER}: the plane's incidence "
                f"table alone would need {table} bytes"
            )
        self.p = p
        self.n = n
        self.q = q
        self.q2 = q * q
        self.irreducible, self.qadd_t, self.qmul_t = _gf_q_tables(p, n)
        self.qneg_t = np.argmax(self.qadd_t == 0, axis=1).astype(np.int32)
        # inv(0) reads 0, the argmax of a row without a 1; scalar division checks for it
        self.qinv_t = np.argmax(self.qmul_t == 1, axis=1).astype(np.int32)
        squares = np.zeros(q, dtype=bool)
        squares[np.diagonal(self.qmul_t)] = True
        self.square_mask = squares

        if w is None:
            w = int(np.nonzero(~squares)[0][0])
        elif not (0 <= w < q) or squares[w]:
            raise ParameterError(f"w = {w} is not a non-square of GF({q})")
        self.w = int(w)
        self.eps = q  # pack(0, 1)

        # GF(q^2) tables: x = a + q*b stands for a + e*b with e^2 = w.
        A = np.arange(self.q2, dtype=np.int32) % q
        B = np.arange(self.q2, dtype=np.int32) // q
        qa, qm = self.qadd_t, self.qmul_t
        a1, b1 = A[:, None], B[:, None]
        a2, b2 = A[None, :], B[None, :]
        self.add_t = (qa[a1, a2] + q * qa[b1, b2]).astype(np.int32)
        re_part = qa[qm[a1, a2], qm[self.w][qm[b1, b2]]]
        im_part = qa[qm[a1, b2], qm[b1, a2]]
        self.mul_t = (re_part + q * im_part).astype(np.int32)
        self.neg_t = (self.qneg_t[A] + q * self.qneg_t[B]).astype(np.int32)
        self.conj_t = (A + q * self.qneg_t[B]).astype(np.int32)
        self.trace_t = self.qadd_t[A, A]
        self.norm_t = self.qadd_t[
            self.qmul_t[A, A], self.qneg_t[self.qmul_t[self.w, self.qmul_t[B, B]]]
        ]
        inv2 = np.zeros(self.q2, dtype=np.int32)
        nz = np.arange(1, self.q2)
        inv2[nz] = self.mul_t[self.conj_t[nz], self.qinv_t[self.norm_t[nz]]]
        self.inv_t = inv2

    # -- GF(q) scalar operations ------------------------------------------

    def qadd(self, a, b):
        return int(self.qadd_t[a, b])

    def qsub(self, a, b):
        return int(self.qadd_t[a, self.qneg_t[b]])

    def qmul(self, a, b):
        return int(self.qmul_t[a, b])

    def qneg(self, a):
        return int(self.qneg_t[a])

    def qinv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        return int(self.qinv_t[a])

    def qdiv(self, a, b):
        return self.qmul(a, self.qinv(b))

    def is_square(self, a) -> bool:
        """True when a is 0 or a nonzero square of GF(q)."""
        return bool(self.square_mask[a])

    # -- GF(q^2) scalar operations ----------------------------------------

    def sub(self, x, y):
        return int(self.add_t[x, self.neg_t[y]])

    def mul(self, x, y):
        return int(self.mul_t[x, y])

    def neg(self, x):
        return int(self.neg_t[x])

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q^2)")
        return int(self.inv_t[x])

    def pow(self, x, e: int):
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("0 to a negative power in GF(q^2)")
            return 0
        e %= self.q2 - 1
        out, base = 1, x
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def conj(self, x):
        """x^q, computed as a + e*b -> a - e*b."""
        return int(self.conj_t[x])

    def trace(self, x):
        """T(x) = x + conj(x), as a GF(q) code (equals 2a for x = a + e*b)."""
        return int(self.trace_t[x])

    def norm(self, x):
        """N(x) = x * conj(x), as a GF(q) code (equals a^2 - w*b^2)."""
        return int(self.norm_t[x])

    # -- structure helpers --------------------------------------------------

    def pack(self, a, b):
        return a + self.q * b

    def unpack(self, x):
        return x % self.q, x // self.q

    def im(self, x):
        return x // self.q

    def scalar(self, m: int) -> int:
        """The prime-subfield element m mod p (a code valid in both fields)."""
        return m % self.p

    def subfield_elements(self):
        return range(self.q)

    # -- text syntax ---------------------------------------------------------

    def format_fq2(self, x) -> str:
        a, b = self.unpack(int(x))
        if b == 0:
            return str(a)
        etxt = "e" if b == 1 else f"e*{b}"
        return etxt if a == 0 else f"{a}+{etxt}"

    def parse_fq2(self, text: str) -> int:
        m = _FQ2_RE.match(text)
        if not m:
            raise ParameterError(f"bad GF(q^2) element {text!r}; expected A+e*B")
        if m.group("plain") is not None:
            a, b = int(m.group("plain")), 0
        else:
            a = int(m.group("a")) if m.group("a") is not None else 0
            b = int(m.group("b")) if m.group("b") is not None else 1
        if not (0 <= a < self.q and 0 <= b < self.q):
            raise ParameterError(
                f"GF(q^2) element {text!r} has coordinates out of range 0..{self.q - 1}"
            )
        return self.pack(a, b)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n}, q={self.q}, w={self.w})"


def build_field_ctx(p: int, n: int, w: int | None = None) -> FieldCtx:
    """Deterministic context: minimal irreducible, minimal non-square w
    (unless a non-square override is supplied)."""
    return FieldCtx(p, n, w)

