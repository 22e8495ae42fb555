"""Exact arithmetic in GF(p^k) and an optional quadratic extension.

A FieldTower fixes one working field.  With ext="trivial" the working field
is F = GF(p^k) and conj() is the identity; with ext="quadratic" the working
field is E = GF(p^(2k)) and conj() is the involutory automorphism of E/F,
x -> x^(p^k).

Every element is its integer key: with GF(p) coordinates c_0, c_1, ... in
the power bases of the tower GF(p) -> F -> E, the key is sum(c_i * p^i).
Key 0 is zero, key 1 is one, and a key below p is that scalar.  The tower
does all arithmetic on keys with one kernel, chosen from the field's shape:

- prime fields: native ints mod p; matrix products and matrix-vector maps
  pack keys into byte or 64-bit slots, one big-int multiply-accumulate per
  output row;
- other fields of order <= TABLE_ORDER: log/antilog tables over a primitive
  element, with Zech logarithms for addition in odd characteristic (XOR of
  keys in characteristic 2) and a table for conj.  In characteristic 2 up
  to order 256 keys are bytes, and matrix products scale whole rows by
  bytes.translate through multiplication tables and sum them by XOR; other
  tabled fields take a matrix's logs once per matvec and matmul, and in
  odd characteristic sum products in coordinate slots;
- larger fields: coordinate kernels, GF(p^k) as polynomials mod the base
  modulus multiplied by Kronecker substitution in coordinate slots, E as
  pairs over F made from F's kernel.

Every slot lane, and poly.pmul, uses the one slot format of poly.py: keys
(key_slots) or one key's coordinates (coord_slots, coord_reader) in w-bit
slots of one int, summed without carry and reduced mod p once.

The kernel is a set of functions on keys held by the tower: add, sub, neg,
mul, inv, conj and pow on single keys; dot, scale, sub_scaled and matmul on
key vectors and matrices, so that a dot product reduces once per entry; and
matvec(rows), the map w -> rows . w (w read as zero-padded when shorter
than the rows), made once for a matrix that many vectors are multiplied by;
and the row form of elimination with its two steps, row, row_scale and
row_sub: bytes where the byte lanes run (GF(p) for p <= 13, characteristic
2 up to order 256), lists of keys elsewhere (_list_rows).
FieldElem is a thin (tower, key) wrapper for the public API; Mat rows and
poly.py's polynomials are raw keys.  poly.py serves the tower's searches:
is_irreducible_poly tests the candidates for both moduli, least_root gives
square roots (the least root of T^2 - a), and pinvmod the inverses of the
GF(p^k) coordinate kernel.

Every modulus is the least one in integer-key order (the key of a monic
T^d + c_{d-1} T^{d-1} + ... + c_0 is sum(c_i * p^i), and extension moduli
W^2 + g1*W + g0 are ordered by (key(g0), key(g1))), so a field built twice
is the same field and serialized certificates reproduce byte for byte.
The same integer key orders elements; enumeration, canonical square roots
and "least non-square" searches all use it.
"""

from __future__ import annotations

import operator
from functools import reduce

from .errors import FieldConstructionError, InputError
from .poly import (_prime_divisors, coord_reader, coord_slots, is_irreducible_poly, key_slots,
                   least_root, pinvmod, pnormal)

# working fields are below order 2^ORDER_BITS: a larger degree would make
# the tower's own powers p^k, and its modulus searches, run without end
ORDER_BITS = 256
# non-prime working fields up to this order run on log/antilog tables; the
# largest non-prime field in the benchmark workloads is GF(2^12)
TABLE_ORDER = 1 << 12
# bits per GF(p) coordinate in packed keys: tabled fields have p < 2^6, so
# a slot holds sums of up to 2^20 products of coordinates without carrying
_SLOT = 32
# products a coordinate kernel's dot product sums before it reduces
_DOT_TERMS = 1 << 16
# coordinate kernels pack keys c coordinates at a time through a table of
# p^c <= _CHUNK entries, or one at a time with no table when p^2 > _CHUNK
_CHUNK = 1 << 8
# a prime-field matmul whose slot sums do not fit a byte packs into 64-bit
# slots when its output has this many entries: in a microbenchmark on
# CPython 3.11, packing won from about 18 output entries (3 x 6, 2 x 9,
# 1 x 18) and tied or lost at 16 and below (4 x 4, 2 x 8)
_PACK_ENTRIES = 18
# the same for byte slots: over GF(2), GF(3), GF(5) and GF(7) with inner
# dimension 2 to 8, byte slots took a median 1.14x the time of dot products
# at 3 output entries, 1.04x at 4, 0.88x at 5 and 0.77x at 8
_BYTE_ENTRIES = 5
# the same for a prime-field matvec, by the matrix's rows: packing costs
# about one unpacked product, and each packed product then took 0.8x the
# time of the per-row dot products at 3 rows and 0.3x at 12; 2 rows tied
_PACK_ROWS = 3


# psi_13: the least strong pseudoprime to every prime base up to 41
# (Sorenson and Webster, 2015), so Miller-Rabin with those bases decides
# primality exactly below it
_PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(n):
    if not isinstance(n, int) or n < 2:
        return False
    if n >= _PRIME_TEST_BOUND:
        raise FieldConstructionError(
            f"primality is decided only below {_PRIME_TEST_BOUND}, got {n}"
        )
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _digits(n, p, d):
    out = []
    for _ in range(d):
        n, c = divmod(n, p)
        out.append(c)
    return out


def _key(digits, p):
    key = 0
    for c in reversed(digits):
        key = key * p + c
    return key


def _least_irreducible(P, d):
    # the monic irreducible of degree d with the least coefficient digits;
    # there is one in every degree
    p = P.p
    monics = (_digits(n, p, d) + [1] for n in range(p**d))
    return next(f for f in monics if is_irreducible_poly(f, P))


# ---------------------------------------------------------------------------
# kernels: each installs the key functions on a tower


def _prime_kernel(t):
    """Native ints mod p.  A product packs its wider side into slots of one
    int per vector, so each output row (or column) is one big-int
    multiply-accumulate; matvec packs its matrix's columns once for all the
    vectors it is applied to.  lane() picks the slot width: bytes when every
    slot sum fits one, k (p-1)^2 <= 255 for inner dimension k, from
    _BYTE_ENTRIES output entries (a matvec from _PACK_ROWS rows); else 64
    bits while slot sums stay below 2^64, from _PACK_ENTRIES output entries
    (_PACK_ROWS rows); else one dot product per entry.

    Elimination rows are bytes for p <= 13: a row step row - f * pivot is
    row + (p - f) * pivot on the rows read as ints, whose slot sums are at
    most p (p - 1) <= 255."""
    p = t.p
    mul = operator.mul
    # the largest inner dimensions k whose slot sums fit: k (p-1)^2 < 2^8, 2^64
    byte_terms = 255 // (p - 1) ** 2
    terms = ((1 << 64) - 1) // (p - 1) ** 2
    slots = {w: key_slots(p, w) for w in ((8, 64) if byte_terms else (64,))}
    dots = _matvec_by_dots(t)

    def inv(a):
        if not a:
            raise ZeroDivisionError("division by zero field element")
        return pow(a, -1, p)

    def kpow(a, n):
        if n < 0:
            a, n = inv(a), -n
        return pow(a, n, p)

    def lane(k, outputs, least):
        # the slot width for inner dimension k, or None for dot products:
        # least = (bytes, words) are the outputs each width needs to pay off
        if k <= byte_terms:
            return 8 if outputs >= least[0] else None
        return 64 if outputs >= least[1] and k <= terms else None

    def matmul(ar, br):
        m, n = len(ar), len(br[0])
        w = lane(len(br), m * n, (_BYTE_ENTRIES, _PACK_ENTRIES))
        if w is None:
            cols = list(zip(*br))
            return tuple(tuple(sum(map(mul, r, c)) % p for c in cols) for r in ar)
        pack, read = slots[w]
        if n >= m:  # wide: pack the rows of B, one sum per output row
            prows = [pack(r) for r in br]
            return tuple(tuple(read(sum(map(mul, r, prows)), n)) for r in ar)
        # tall: pack the columns of A, one sum per output column
        pcols = [pack(c) for c in zip(*ar)]
        return tuple(zip(*[read(sum(map(mul, c, pcols)), m) for c in zip(*br)]))

    def matvec(rows):
        n = len(rows)
        w = lane(len(rows[0]), n, (_PACK_ROWS, _PACK_ROWS))
        if w is None:
            return dots(rows)
        pack, read = slots[w]
        pcols = [pack(c) for c in zip(*rows)]
        if w == 8:  # bytes as a list
            return lambda v: list(read(sum(map(mul, v, pcols)), n))
        return lambda v: read(sum(map(mul, v, pcols)), n)

    t.add = lambda a, b: (a + b) % p
    t.sub = lambda a, b: (a - b) % p
    t.neg = lambda a: -a % p
    t.mul = lambda a, b: a * b % p
    t.inv = inv
    t.pow = kpow
    t.conj = _identity
    t.dot = lambda xs, ys: sum(map(mul, xs, ys)) % p
    t.scale = lambda xs, c: [x * c % p for x in xs]
    t.sub_scaled = lambda ys, c, xs: [(y - c * x) % p for y, x in zip(ys, xs)]
    t.matmul = matmul
    t.matvec = matvec
    if p * (p - 1) <= 255:
        fb, read = int.from_bytes, slots[8][1]
        t.row, t.row_scale = bytes, lambda row, c: read(c * fb(row, "little"), len(row))
        t.row_sub = lambda row, f, pv: read(fb(row, "little") + (p - f) * fb(pv, "little"), len(row))
    else:
        _list_rows(t)


def _matvec_by_dots(t):
    # matvec as one dot product per row, with the dot the tower ends up with
    def matvec(rows):
        dot = t.dot
        return lambda w: [dot(r, w) for r in rows]

    return matvec


def _identity(a):
    return a


def _list_rows(t):
    """Elimination rows as lists of keys, stepped by the tower's scale and
    sub_scaled.  Every kernel installs row, row_scale and row_sub: the row
    form, row_scale(row, c), the row scaled by c, and row_sub(row, f,
    pivot), row - f * pivot, each returning the new row."""
    t.row, t.row_scale, t.row_sub = list, t.scale, t.sub_scaled


def _ext_coord_kernel(t):
    """GF(p^k), k > 1, by Kronecker substitution.

    A key's coordinates sit in W-bit slots of one int, its packed form, so
    the product of two packed keys packs the coefficients of the polynomial
    product.  Slots of degree >= k fold back through packed T^j mod the base
    modulus and every slot is reduced mod p once; a dot product sums up to
    _DOT_TERMS packed products before it folds."""
    p, k = t.p, t.k
    m = t.base_modulus
    W = (2 * _DOT_TERMS * k * (p - 1) ** 2).bit_length()  # no slot carries
    mask, low = (1 << W) - 1, (1 << (W * k)) - 1
    key_of, pack = coord_reader(p, k, W), key_slots(p, W)[0]
    # keys are packed c coordinates at a time through a table of p^c entries
    c = 1
    while c < k and p ** (c + 1) <= _CHUNK:
        c += 1
    C = p**c
    spread = coord_slots(p, C, W) if c > 1 else range(p)
    shifts = [W * c * j for j in range(-(-k // c))]

    def packed(a):
        s = 0
        for sh in shifts:
            a, d = divmod(a, C)
            s += spread[d] << sh
        return s

    # rtab[i] = packed T^(k+i) mod m, for the slots a product folds back
    top = [-x % p for x in m[:k]]
    r, rtab = top, []
    for _ in range(k - 1):
        rtab.append(pack(r))
        r = [(x + r[-1] * y) % p for x, y in zip([0] + r[:-1], top)]

    def fold(s):
        hi = s >> (W * k)
        s &= low
        for r in rtab:
            if not hi:
                break
            x = (hi & mask) % p
            if x:
                s += x * r
            hi >>= W
        return key_of(s)

    def total(prods):
        if len(prods) <= _DOT_TERMS:
            return fold(sum(prods))
        return t.add(fold(sum(prods[:_DOT_TERMS])), total(prods[_DOT_TERMS:]))

    def inv(a):
        if not a:
            raise ZeroDivisionError("division by zero field element")
        return _key(pinvmod(pnormal(_digits(a, p, k)), m, field_make(p)), p)

    def sub_scaled(ys, c, xs):
        nc = packed(t.neg(c))
        return [fold(packed(y) + nc * packed(x)) if x else y for y, x in zip(ys, xs)]

    def matmul(ar, br):
        cols = [[packed(x) for x in col] for col in zip(*br)]
        rows = []
        for r in ar:
            pr = [packed(x) for x in r]
            rows.append(tuple(total(list(map(operator.mul, pr, pc))) for pc in cols))
        return tuple(rows)

    if p == 2:
        t.add = t.sub = operator.xor
        t.neg = _identity
    else:
        pk = pack([p] * k)  # p in every slot: a - b >= 0
        t.add = lambda a, b: key_of(packed(a) + packed(b))
        t.sub = lambda a, b: key_of(packed(a) + pk - packed(b))
        t.neg = lambda a: key_of(pk - packed(a))
    t.mul = lambda a, b: fold(packed(a) * packed(b))
    t.inv = inv
    t.pow = lambda a, n: _square_multiply(t, a, n)
    t.conj = _identity
    t.dot = lambda xs, ys: total(list(map(operator.mul, map(packed, xs), map(packed, ys))))
    t.scale = lambda xs, c: [fold(packed(c) * packed(x)) for x in xs]
    t.sub_scaled = sub_scaled
    t.matmul = matmul
    t.matvec = _matvec_by_dots(t)
    _list_rows(t)


def _quad_coord_kernel(t):
    """E = F[W]/(W^2 + g1 W + g0) on pairs: key = lo + hi * q with lo, hi
    keys of F, every product and dot product made from four of F's."""
    B, q = t._base, t.q
    g0, g1 = _key(t._qg0, t.p), _key(t._qg1, t.p)
    badd, bsub, bmul, bdot, bmatmul = B.add, B.sub, B.mul, B.dot, B.matmul

    def combine(p00, p01, p10, p11):
        # (a0 + a1 W)(b0 + b1 W) from the products p_ij = a_i b_j
        return bsub(p00, bmul(g0, p11)) + bsub(badd(p01, p10), bmul(g1, p11)) * q

    def halves(xs):
        return [x % q for x in xs], [x // q for x in xs]

    def mul(a, b):
        a1, a0 = divmod(a, q)
        b1, b0 = divmod(b, q)
        return combine(bmul(a0, b0), bmul(a0, b1), bmul(a1, b0), bmul(a1, b1))

    def dot(xs, ys):
        x0, x1 = halves(xs)
        y0, y1 = halves(ys)
        return combine(bdot(x0, y0), bdot(x0, y1), bdot(x1, y0), bdot(x1, y1))

    def matmul(ar, br):
        a0, a1 = [[x % q for x in r] for r in ar], [[x // q for x in r] for r in ar]
        b0, b1 = [[x % q for x in r] for r in br], [[x // q for x in r] for r in br]
        prods = (bmatmul(a0, b0), bmatmul(a0, b1), bmatmul(a1, b0), bmatmul(a1, b1))
        return tuple(tuple(map(combine, *rows)) for rows in zip(*prods))

    t.add = lambda a, b: badd(a % q, b % q) + badd(a // q, b // q) * q
    t.sub = lambda a, b: bsub(a % q, b % q) + bsub(a // q, b // q) * q
    t.neg = lambda a: B.neg(a % q) + B.neg(a // q) * q
    t.mul = mul
    t.pow = lambda a, n: _square_multiply(t, a, n)
    t.dot = dot
    t.scale = lambda xs, c: [mul(x, c) for x in xs]
    t.sub_scaled = lambda ys, c, xs: [t.sub(y, mul(c, x)) if x else y for y, x in zip(ys, xs)]
    t.matmul = matmul
    t.matvec = _matvec_by_dots(t)
    # conj is determined by W -> W^q = w0 + w1 W
    w1, w0 = divmod(_square_multiply(t, q, q), q)
    assert (w0, w1) != (0, 1), "conj fixes the extension generator"

    def conj(a):
        a1, a0 = divmod(a, q)
        return badd(a0, bmul(a1, w0)) + bmul(a1, w1) * q

    def inv(a):
        if not a:
            raise ZeroDivisionError("division by zero field element")
        # a conj(a) = a0^2 - g1 a0 a1 + g0 a1^2, as W + conj(W) = -g1 and
        # W conj(W) = g0
        a1, a0 = divmod(a, q)
        ni = B.inv(bdot((a0, a1), (a0, bsub(bmul(g0, a1), bmul(g1, a0)))))
        c1, c0 = divmod(conj(a), q)
        return bmul(c0, ni) + bmul(c1, ni) * q

    t.conj = conj
    t.inv = inv
    _list_rows(t)
    assert conj(conj(q)) == q, "conj is not an involution"


def _square_multiply(t, a, n):
    if n < 0:
        a, n = t.inv(a), -n
    out, mul = 1, t.mul
    while n:
        if n & 1:
            out = mul(out, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return out


def _table_kernel(t):
    """Log/antilog kernel over a primitive element g, from the coordinate
    kernel already installed on t.

    log[0] is the sentinel Z = 2(Q-1) and exp2 (g^i for i < 2(Q-1), then
    zeros) runs to index 2Z, so exp2[log a + log b] is a*b with no test for
    zero.  In odd characteristic zech[d] = log(1 + g^d) (Z where that is 0)
    gives a + b = g^(la + zech[lb - la]).  A dot product maps each log-sum
    to its product's key in coordinate slots and adds them: 8-bit slots for
    up to 255 // (p-1) products, _SLOT-bit slots for more (reading those in
    8-bit chunks measured 2-4x slower on CPython 3.11).  In
    characteristic 2 a dot product is the XOR of the products; with
    Q <= 256, matmul and matvec work on rows of bytes (_byte_lane_kernel),
    and so does elimination.  Other fields keep log-sums (a coordinate-plane
    byte lane measured slower on GF(243) and GF(169)): matvec(rows) takes
    the logs of rows once, and matmul is the matvec of B^T applied to each
    row of A."""
    p, Q = t.p, t.order
    n1 = Q - 1
    g = _primitive_element(t)
    exp = [1]
    for _ in range(Q - 2):
        exp.append(t.mul(exp[-1], g))
    Z = 2 * n1
    log = [Z] * Q
    for i, x in enumerate(exp):
        log[x] = i
    exp2 = exp + exp + [0] * (2 * n1 + 1)
    lg = log.__getitem__
    add_ = operator.add
    if t.ext == "quadratic":
        q = t.q
        conjt = [0] * Q
        for i, x in enumerate(exp):
            conjt[x] = exp[i * q % n1]
        assert conjt[g] == t.conj(g), "conj table disagrees with the coordinate kernel"
        t.conj = conjt.__getitem__

    def mul(a, b):
        return exp2[log[a] + log[b]]

    def inv(a):
        if not a:
            raise ZeroDivisionError("division by zero field element")
        return exp[-log[a]]

    def kpow(a, n):
        if not a:
            if n < 0:
                raise ZeroDivisionError("division by zero field element")
            return 0 if n else 1
        return exp[log[a] * n % n1]

    def scale(xs, c):
        lc = log[c]
        return [exp2[lc + log[x]] for x in xs]

    # the key of the sum of the products of the log-sums lsums is
    # read(acc(map(prod, lsums))), one Python call per sum, with (read, acc,
    # prod) = short for up to cap products and long for more: the XOR of the
    # keys in characteristic 2 (iter passes them on), else their sum in
    # coordinate slots, 8-bit ones for up to cap products
    if p == 2:
        xor = operator.xor
        cap = 0
        short = long = (lambda prods: reduce(xor, prods, 0), iter, exp2.__getitem__)

        def sub_scaled(ys, c, xs):
            lc = log[c]
            return [y ^ exp2[lc + log[x]] for y, x in zip(ys, xs)]

        t.add = t.sub = xor
        t.neg = _identity
    else:
        cap = 255 // (p - 1)
        short, long = ((coord_reader(p, t.deg, w), sum, [packed[x] for x in exp2].__getitem__)
                       for w, packed in ((8, coord_slots(p, Q, 8)), (_SLOT, coord_slots(p, Q, _SLOT))))
        half = n1 // 2  # log(-1)
        zech = [log[x - x % p + (x + 1) % p] for x in exp]

        def add(a, b):
            if not a:
                return b
            if not b:
                return a
            la = log[a]
            return exp2[la + zech[log[b] - la]]

        def sub_scaled(ys, c, xs):
            if not c:
                return list(ys)
            ln = log[exp2[log[c] + half]]  # log(-c)
            out = []
            for y, x in zip(ys, xs):
                s = exp2[ln + log[x]]
                if not y:
                    out.append(s)
                elif not s:
                    out.append(y)
                else:
                    ly = log[y]
                    out.append(exp2[ly + zech[log[s] - ly]])
            return out

        t.add = add
        t.sub = lambda a, b: add(a, exp2[log[b] + half])
        t.neg = lambda a: exp2[log[a] + half]

    def dot(xs, ys):
        read, acc, prod = short if len(xs) <= cap else long
        return read(acc(map(prod, map(add_, map(lg, xs), map(lg, ys)))))

    def matvec(rows):
        lrows = [list(map(lg, r)) for r in rows]

        def apply(w):
            lw = list(map(lg, w))
            read, acc, prod = short if len(lw) <= cap else long
            return [read(acc(map(prod, map(add_, lr, lw)))) for lr in lrows]

        return apply

    t.mul = mul
    t.inv = inv
    t.pow = kpow
    t.dot = dot
    t.scale = scale
    t.sub_scaled = sub_scaled
    if p == 2 and Q <= 256:
        _byte_lane_kernel(t, _Scalers(exp2, log))
    else:
        t.matmul = lambda ar, br: tuple(map(tuple, map(matvec(zip(*br)), ar)))
        t.matvec = matvec
        _list_rows(t)


class _Scalers(dict):
    """The translate table x -> a*x of each key a of a field of order <=
    256, as 256 bytes, built from the log tables on first use."""

    def __init__(self, exp2, log):
        super().__init__()
        self.exp2, self.log = exp2, log

    def __missing__(self, a):
        la, exp2 = self.log[a], self.exp2
        tab = self[a] = bytes([exp2[la + lx] for lx in self.log]).ljust(256, b"\0")
        return tab


def _byte_lane_kernel(t, scalers):
    """matmul, matvec and elimination rows of a characteristic-2 field of
    order <= 256: keys are bytes and + is XOR, so a key vector scaled by a
    is one bytes.translate through scalers[a], and a sum of scaled vectors
    is the XOR of them read as ints (the multiplication tables of
    Reed-Solomon coders).  A row step row - f * pivot is one translate of
    the pivot and one XOR."""
    from_bytes = int.from_bytes

    def combine(vecs, coeffs):
        # sum of coeffs[i] * vecs[i] (vecs as bytes), as an int of byte slots
        acc = 0
        for c, v in zip(coeffs, vecs):
            if c:
                acc ^= from_bytes(v.translate(scalers[c]), "little")
        return acc

    def matmul(ar, br):
        m, n = len(ar), len(br[0])
        if n >= m:  # wide: scale the rows of B, one sum per output row
            rows = [bytes(r) for r in br]
            return tuple(tuple(combine(rows, r).to_bytes(n, "little")) for r in ar)
        # tall: scale the columns of A, one sum per output column
        cols = [bytes(c) for c in zip(*ar)]
        return tuple(zip(*[combine(cols, c).to_bytes(m, "little") for c in zip(*br)]))

    def matvec(rows):
        cols, m = [bytes(c) for c in zip(*rows)], len(rows)
        return lambda w: list(combine(cols, w).to_bytes(m, "little"))

    def row_scale(row, c):
        return row.translate(scalers[c])

    def row_sub(row, f, pivot):
        s = from_bytes(row, "little") ^ from_bytes(pivot.translate(scalers[f]), "little")
        return s.to_bytes(len(row), "little")

    t.matmul = matmul
    t.matvec = matvec
    t.row, t.row_scale, t.row_sub = bytes, row_scale, row_sub


def _primitive_element(t):
    # the least key generating the multiplicative group, which is cyclic;
    # tabled towers have order >= 4, so that key is >= 2
    n1 = t.order - 1
    rs = _prime_divisors(n1)
    return next(
        g for g in range(2, t.order) if all(_square_multiply(t, g, n1 // r) != 1 for r in rs)
    )


# ---------------------------------------------------------------------------


class FieldElem:
    """One element of a FieldTower's working field: the tower and the key.

    Immutable; arithmetic dispatches to the tower's key kernel.  Plain ints
    coerce (reduced mod p), so `2 * a - 1` means what it reads as; a bool is
    not a scalar: arithmetic with one raises InputError, and no element
    equals one.
    """

    __slots__ = ("tower", "key")

    def __init__(self, tower, key):
        self.tower = tower
        self.key = key

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.tower is not self.tower:
                raise InputError("cannot mix elements of different field towers")
            return other.key
        if isinstance(other, int):
            if isinstance(other, bool):
                raise InputError(f"a bool is not a field scalar: {other!r}")
            return other % self.tower.p
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.tower, self.tower.add(self.key, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.tower, self.tower.sub(self.key, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.tower, self.tower.sub(o, self.key))

    def __neg__(self):
        return FieldElem(self.tower, self.tower.neg(self.key))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElem(self.tower, self.tower.mul(self.key, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return FieldElem(t, t.mul(self.key, t.inv(o)))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = self.tower
        return FieldElem(t, t.mul(o, t.inv(self.key)))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return FieldElem(self.tower, self.tower.pow(self.key, n))

    def inv(self):
        return FieldElem(self.tower, self.tower.inv(self.key))

    def conj(self):
        return FieldElem(self.tower, self.tower.conj(self.key))

    def __eq__(self, other):
        if isinstance(other, bool):
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.key == o

    def __hash__(self):
        return hash(self.key)

    def __bool__(self):
        return self.key != 0

    @property
    def int_key(self):
        return self.key

    @property
    def coords(self):
        return self.tower.coords(self.key)

    def serialize(self):
        return list(self.coords)

    def __repr__(self):
        return f"<{','.join(map(str, self.coords))}:GF{self.tower.order}>"


class FieldTower:
    """GF(p^k), optionally inside GF(p^(2k)), with canonical moduli.

    Use field_make() instead of constructing directly; towers are cached so
    elements of "the same" field always share one tower object.
    """

    def __init__(self, p, k=1, ext="trivial"):
        if not _is_prime(p):
            raise FieldConstructionError(f"p must be prime, got {p!r}")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise FieldConstructionError(f"k must be a positive integer, got {k!r}")
        if ext not in ("trivial", "quadratic"):
            raise FieldConstructionError(f"ext must be 'trivial' or 'quadratic', got {ext!r}")
        self.deg = k if ext == "trivial" else 2 * k
        # p >= 2, so a degree past ORDER_BITS is past the bound unpowered
        if self.deg > ORDER_BITS or (p**self.deg).bit_length() > ORDER_BITS:
            raise FieldConstructionError(
                f"GF({p}^{self.deg}) is too large: working fields have order below "
                f"2^{ORDER_BITS}"
            )
        self.p = p
        self.k = k
        self.ext = ext
        self.q = p**k  # order of the conj-fixed field
        self.order = p**self.deg  # order of the working field
        self.base_modulus = [0, 1] if k == 1 else _least_irreducible(field_make(p), k)
        if self.deg == 1:
            _prime_kernel(self)
            return
        if ext == "trivial":
            _ext_coord_kernel(self)
        else:
            base = self._base = field_make(p, k, "trivial")
            self._qg0, self._qg1 = map(base.coords, self._least_quadratic_modulus(base))
            _quad_coord_kernel(self)
        if self.order <= TABLE_ORDER:
            _table_kernel(self)

    @staticmethod
    def _least_quadratic_modulus(base):
        # the least (key(g0), key(g1)) with W^2 + g1*W + g0 irreducible over
        # F, as keys; g0 = 0 never qualifies (W divides).  Over F = GF(p^k)
        # with k even, a quadratic with both coefficients in GF(p) (keys
        # below p) splits in GF(p^2), a subfield of F, so n1 starts at p
        # while n0 < p
        order = range(base.order)
        low = base.p if base.k % 2 == 0 else 0
        return next((n0, n1) for n0 in order[1:] for n1 in order[low if n0 < low else 0:]
                    if is_irreducible_poly([n0, n1, 1], base))

    # -- public API -----------------------------------------------------------

    @property
    def zero(self):
        return FieldElem(self, 0)

    @property
    def one(self):
        return FieldElem(self, 1)

    @property
    def has_conj(self):
        return self.ext == "quadratic"

    def coords(self, key):
        """The GF(p) coordinates of a key, as a tuple."""
        if self.deg == 1:
            return (key,)
        return tuple(_digits(key, self.p, self.deg))

    def elem(self, coords):
        if not isinstance(coords, (list, tuple)) or any(type(c) is not int for c in coords):
            raise InputError(f"expected a list of integer coordinates, got {coords!r}")
        coords = [c % self.p for c in coords]
        if len(coords) != self.deg:
            raise InputError(f"expected {self.deg} coordinates, got {len(coords)}")
        return FieldElem(self, _key(coords, self.p))

    def scalar(self, c):
        if type(c) is not int:
            raise InputError(f"expected an integer, got {c!r}")
        return FieldElem(self, c % self.p)

    def from_int(self, n):
        if type(n) is not int or not 0 <= n < self.order:
            raise InputError(f"expected an integer key in [0, {self.order}), got {n!r}")
        return FieldElem(self, n)

    def elements(self):
        for n in range(self.order):
            yield FieldElem(self, n)

    def is_square(self, a):
        """Squareness in the working field (everything is a square in char 2)."""
        if self.p == 2:
            return True
        return (not a) or a ** ((self.order - 1) // 2) == self.one

    def sqrt(self, a):
        """Canonical square root (least integer key), or None for non-squares:
        the least root of T^2 - a."""
        if a.tower is not self:
            raise InputError("cannot mix elements of different field towers")
        r = least_root([self.neg(a.key), 0, 1], self)
        return None if r is None else FieldElem(self, r)

    def descriptor(self):
        d = {"p": self.p, "k": self.k, "ext": self.ext,
             "base_modulus": list(self.base_modulus)}
        if self.ext == "quadratic":
            d["ext_modulus"] = [list(self._qg0), list(self._qg1)]
        return d

    def __repr__(self):
        if self.ext == "trivial":
            return f"GF({self.order})"
        return f"GF({self.order})/GF({self.q})"


_TOWER_CACHE: dict = {}


def field_make(p, k=1, ext="trivial"):
    """Return the canonical GF(p^k) tower (cached: equal parameters, same object)."""
    if type(p) is not int or type(k) is not int or not isinstance(ext, str):
        raise FieldConstructionError(
            f"p and k must be integers and ext a string, got {p!r}, {k!r}, {ext!r}"
        )
    key = (p, k, ext)
    t = _TOWER_CACHE.get(key)
    if t is None:
        t = FieldTower(p, k, ext)
        _TOWER_CACHE[key] = t
    return t


def field_from_descriptor(d):
    """Rebuild a tower from its descriptor, insisting on the canonical moduli."""
    try:
        tower = field_make(d["p"], d["k"], d.get("ext", "trivial"))
        base_modulus = d["base_modulus"]
    except (KeyError, TypeError) as e:
        raise InputError(f"bad field descriptor: {e}") from e
    if list(tower.base_modulus) != base_modulus:
        raise InputError("field descriptor base modulus is not canonical")
    if tower.ext == "quadratic":
        if [list(tower._qg0), list(tower._qg1)] != d.get("ext_modulus"):
            raise InputError("field descriptor extension modulus is not canonical")
    return tower
