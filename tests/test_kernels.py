"""The field kernels against an independent reference, one test per tower class.

Each tower runs its arithmetic on integer keys with a kernel chosen from its
shape: native ints for prime fields, log/antilog tables for other fields up
to fields.TABLE_ORDER, coordinate kernels above that.  The reference here
knows nothing of keys beyond their definition (base-p digits of the
coordinates): it multiplies coordinate lists as polynomials over GF(p)
modulo the tower's base modulus, and pairs over the base field modulo the
extension modulus, with conj taken as x -> x^q.  All pairs are checked for
orders up to 64, seeded samples above that.  TOWERS, one tower per class,
also drives the linalg, minimal-polynomial and companion-coordinate tests
(test_linalg.py, test_decomp.py, test_cyclic.py).
"""

import itertools
import random

import pytest

from invofactor import SingularMatrixError, field_make, fields
from invofactor.fields import _DOT_TERMS, TABLE_ORDER
from invofactor.linalg import Mat, _eliminated_det
from invofactor.poly import pmul

ALL_PAIRS_ORDER = 64
SAMPLES = 300


class RefField:
    """GF(p^k) or its quadratic extension on plain coordinate lists."""

    def __init__(self, F):
        self.p, self.k, self.quad = F.p, F.k, F.has_conj
        self.m = list(F.base_modulus)
        if self.quad:
            self.g0, self.g1 = list(F._qg0), list(F._qg1)
        self.q, self.order, self.deg = F.q, F.order, F.deg
        self._inv, self._conj = {}, {}

    def coords(self, key):
        out = []
        for _ in range(self.deg):
            key, c = divmod(key, self.p)
            out.append(c)
        return tuple(out)

    def key(self, coords):
        return sum(c * self.p**i for i, c in enumerate(coords))

    # base field: length-k lists, product reduced by the monic modulus
    def _bmul(self, a, b):
        p, k, m = self.p, self.k, self.m
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for i in range(k + 1):
                    prod[d - k + i] -= c * m[i]
        return [c % p for c in prod[:k]]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        if not self.quad:
            return tuple(self._bmul(a, b))
        k, p = self.k, self.p
        a0, a1, b0, b1 = list(a[:k]), list(a[k:]), list(b[:k]), list(b[k:])
        t = self._bmul(a1, b1)
        lo = [(x - y) % p for x, y in zip(self._bmul(a0, b0), self._bmul(self.g0, t))]
        cross = [(x + y) % p for x, y in zip(self._bmul(a0, b1), self._bmul(a1, b0))]
        hi = [(x - y) % p for x, y in zip(cross, self._bmul(self.g1, t))]
        return tuple(lo + hi)

    def pow(self, a, e):
        out = (1,) + (0,) * (self.deg - 1)
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def inv(self, a):
        if a not in self._inv:
            self._inv[a] = self.pow(a, self.order - 2)
        return self._inv[a]

    def conj(self, a):
        if not self.quad:
            return a
        if a not in self._conj:
            self._conj[a] = self.pow(a, self.q)
        return self._conj[a]


# one tower per class: prime, GF(p^k) and quadratic, both sides of the table
# bound, characteristic 2 among them; small primes and characteristic-2
# fields of order up to 256 multiply matrices in byte slots (prime-7's
# products of inner dimension 8 and up do not), GF(512) is one past that.
# Elimination rows are bytes over the same characteristic-2 fields and over
# GF(p) up to p = 13; GF(17) is the first prime past that
TOWERS = [
    ("prime-2", (2, 1, "trivial")),
    ("prime-3", (3, 1, "trivial")),
    ("prime-5", (5, 1, "trivial")),
    ("prime-7", (7, 1, "trivial")),
    ("prime-13", (13, 1, "trivial")),
    ("prime-17", (17, 1, "trivial")),
    ("prime-2^31-1", (2**31 - 1, 1, "trivial")),
    ("ext-GF16", (2, 4, "trivial")),
    ("ext-GF256", (2, 8, "trivial")),
    ("ext-GF512", (2, 9, "trivial")),
    ("ext-GF27", (3, 3, "trivial")),
    ("ext-GF243", (3, 5, "trivial")),
    ("ext-GF4096", (2, 12, "trivial")),
    ("ext-over-GF3^8", (3, 8, "trivial")),
    ("ext-over-GF2^17", (2, 17, "trivial")),
    ("ext-over-GF3^11", (3, 11, "trivial")),
    ("quad-GF4", (2, 1, "quadratic")),
    ("quad-GF49", (7, 1, "quadratic")),
    ("quad-GF64", (2, 3, "quadratic")),
    ("quad-GF4096/GF64", (2, 6, "quadratic")),
    ("quad-GF61^2", (61, 1, "quadratic")),
    ("quad-over-GF101^2", (101, 1, "quadratic")),
    ("quad-over-GF257^2", (257, 1, "quadratic")),
    ("quad-over-GF2^18", (2, 9, "quadratic")),
    ("quad-over-GF3^12", (3, 6, "quadratic")),
]


@pytest.fixture(scope="module", params=TOWERS, ids=[t[0] for t in TOWERS])
def tower(request):
    p, k, ext = request.param[1]
    return field_make(p, k, ext)


def test_tower_classes_sit_on_the_intended_side_of_the_table_bound():
    over = [
        name
        for name, spec in TOWERS
        if field_make(*spec).deg > 1 and field_make(*spec).order > TABLE_ORDER
    ]
    assert over == [name for name, _ in TOWERS if "-over-" in name]
    assert any(field_make(*spec).p == 2 for name, spec in TOWERS if "-over-" in name)


def test_characteristic_2_byte_lane_stops_at_order_256():
    on = [
        name
        for name, spec in TOWERS
        if field_make(*spec).matmul.__qualname__.startswith("_byte_lane_kernel.")
    ]
    assert on == ["ext-GF16", "ext-GF256", "quad-GF4", "quad-GF64"]


def test_elimination_row_lane_stops_at_p_13_and_order_256():
    # rows are bytes where a row step's slot sums fit one (GF(p), p <= 13)
    # and in characteristic 2 up to order 256; lists of keys elsewhere
    on = [name for name, spec in TOWERS if field_make(*spec).row is bytes]
    assert on == ["prime-2", "prime-3", "prime-5", "prime-7", "prime-13",
                  "ext-GF16", "ext-GF256", "quad-GF4", "quad-GF64"]
    assert all(field_make(*spec).row is list for name, spec in TOWERS if name not in on)


def _pairs(F, rng):
    if F.order <= ALL_PAIRS_ORDER:
        keys = range(F.order)
        return list(itertools.product(keys, keys))
    return [(rng.randrange(F.order), rng.randrange(F.order)) for _ in range(SAMPLES)]


def test_arithmetic_matches_reference(tower):
    F, R = tower, RefField(tower)
    rng = random.Random(f"kernels:{F!r}")
    for a, b in _pairs(F, rng):
        x, y = F.from_int(a), F.from_int(b)
        ra, rb = R.coords(a), R.coords(b)
        assert (x + y).coords == R.add(ra, rb)
        assert (x - y).coords == R.sub(ra, rb)
        assert (-y).coords == R.sub(R.coords(0), rb)
        assert (x * y).coords == R.mul(ra, rb)
        assert x.conj().coords == R.conj(ra)
        if b:
            assert y.inv().coords == R.inv(rb)
            assert (x / y).coords == R.mul(ra, R.inv(rb))
        else:
            with pytest.raises(ZeroDivisionError):
                y.inv()
        e = rng.randrange(-5, 40)
        if a or e >= 0:
            want = R.pow(ra, e) if e >= 0 else R.pow(R.inv(ra), -e)
            assert (x**e).coords == want


def test_key_coords_serialize_round_trip(tower):
    F, R = tower, RefField(tower)
    rng = random.Random(f"keys:{F!r}")
    keys = range(F.order) if F.order <= ALL_PAIRS_ORDER else [rng.randrange(F.order) for _ in range(SAMPLES)]
    for n in keys:
        x = F.from_int(n)
        assert x.int_key == n
        assert x.coords == R.coords(n)
        assert x.serialize() == list(R.coords(n))
        assert F.elem(x.serialize()) == x and F.elem(x.serialize()).int_key == n
        assert R.key(x.coords) == n
    assert F.zero.int_key == 0 and F.one.int_key == 1
    assert F.scalar(F.p - 1).int_key == F.p - 1


def test_vector_kernels_match_reference(tower):
    F, R = tower, RefField(tower)
    rng = random.Random(f"vectors:{F!r}")
    for _ in range(40):
        n = rng.randrange(1, 9)
        xs = [rng.choice((0, rng.randrange(F.order))) for _ in range(n)]
        ys = [rng.randrange(F.order) for _ in range(n)]
        c = rng.randrange(F.order)
        want = R.coords(0)
        for x, y in zip(xs, ys):
            want = R.add(want, R.mul(R.coords(x), R.coords(y)))
        assert R.coords(F.dot(xs, ys)) == want
        assert [R.coords(v) for v in F.scale(xs, c)] == [R.mul(R.coords(x), R.coords(c)) for x in xs]
        assert [R.coords(v) for v in F.sub_scaled(ys, c, xs)] == [
            R.sub(R.coords(y), R.mul(R.coords(c), R.coords(x))) for y, x in zip(ys, xs)
        ]


def test_polynomial_products_match_entrywise_sums(tower):
    F = tower
    rng = random.Random(f"poly:{F!r}")
    for _ in range(30):
        f = [rng.randrange(F.order) for _ in range(rng.randrange(1, 12))] + [1]
        g = [rng.randrange(F.order) for _ in range(rng.randrange(0, 12))]
        g.append(rng.randrange(1, F.order))
        want = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                want[i + j] = F.add(want[i + j], F.mul(x, y))
        assert pmul(f, g, F) == want
        assert pmul(f, [], F) == []


def test_long_dot_products_reduce_in_chunks():
    # coordinate kernels sum packed products unreduced, _DOT_TERMS at a time;
    # all-(p-1) coordinates make every slot as large as it gets
    for spec in ((3, 8, "trivial"), (2, 17, "trivial")):
        F = field_make(*spec)
        R = RefField(F)
        a = F.order - 1
        n = 4 * _DOT_TERMS + 1
        want = R.coords(0)
        for _ in range(n % F.p):
            want = R.add(want, R.mul(R.coords(a), R.coords(a)))
        assert R.coords(F.dot([a] * n, [a] * n)) == want


@pytest.mark.parametrize("spec, cap", [((3, 5, "trivial"), 127), ((7, 1, "quadratic"), 42),
                                       ((61, 1, "quadratic"), 4)])
def test_odd_table_sums_fill_8_bit_slots(spec, cap):
    # an odd-characteristic table sum of up to 255 // (p - 1) terms adds
    # packed keys in 8-bit coordinate slots and reduces them by one
    # translate; all-(p-1) coordinates make each slot as large as it gets:
    # exactly full at cap terms.  Longer sums take 32-bit slots; over
    # GF(61^2) that is from 5 terms on, so even short sums cross it
    F = field_make(*spec)
    R = RefField(F)
    assert 255 // (F.p - 1) == cap
    a = F.order - 1  # every coordinate p - 1
    assert set(R.coords(a)) == {F.p - 1}
    for n in (cap, cap + 1, 3 * cap + 2):
        want = R.coords(0)
        for _ in range(n % F.p):
            want = R.add(want, R.coords(a))
        assert R.coords(F.dot([a] * n, [1] * n)) == want
        assert R.coords(F.dot([1] * n, [a] * n)) == want
        apply = F.matvec([[a] * n] * 3)
        assert [R.coords(x) for x in apply([1] * n)] == [want] * 3
        # a vector shorter than the rows sums only its own length
        assert [R.coords(x) for x in apply([1] * (n - 1))] == [R.coords(F.dot([a] * (n - 1), [1] * (n - 1)))] * 3


def _rand_mat(F, n, rng):
    return Mat.from_rows(F, [[F.from_int(rng.randrange(F.order)) for _ in range(n)] for _ in range(n)])


def _laplace_det(F, rows):
    if len(rows) == 1:
        return rows[0][0]
    acc = F.zero
    for j, a in enumerate(rows[0]):
        if a:
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = a * _laplace_det(F, minor)
            acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_matrix_kernels_match_entrywise_sums(tower):
    # n = 7 and 12 put prime products, and the four base products of a
    # quadratic tower over a prime field, on the packed path
    F = tower
    rng = random.Random(f"matrices:{F!r}")
    singular_seen = False
    for n, trials in ((4, 6), (7, 2), (12, 2)):
        for trial in range(trials):
            A, B = _rand_mat(F, n, rng), _rand_mat(F, n, rng)
            if trial == 0:  # a singular matrix: repeat a row
                A = Mat.from_rows(F, [[A[i if i < n - 1 else 0, j] for j in range(n)] for i in range(n)])
            C = A @ B
            for i in range(n):
                for j in range(n):
                    acc = F.zero
                    for k in range(n):
                        acc = acc + A[i, k] * B[k, j]
                    assert C[i, j] == acc
            assert A.conj() == Mat.from_rows(F, [[A[i, j].conj() for j in range(n)] for i in range(n)])
            if n == 4:  # Laplace expansion costs n!
                d = _laplace_det(F, [[A[i, j] for j in range(n)] for i in range(n)])
                assert A.det() == d
            else:
                d = A.det()
                assert C.det() == d * B.det()
            eye = Mat.identity(F, n)
            if d:
                Ai = A.inv()
                assert A @ Ai == eye and Ai @ A == eye
            else:
                singular_seen = True
                with pytest.raises(SingularMatrixError):
                    A.inv()
    assert singular_seen


@pytest.mark.parametrize("name", ["ext-GF27", "ext-GF243", "quad-GF49", "ext-GF4096", "quad-GF4096/GF64"])
def test_table_matmul_matches_entrywise_dots(name):
    # tabled fields off the byte lane (odd characteristic, and
    # characteristic 2 past order 256) multiply by applying the prepared
    # matvec of B^T to each row of A; every entry is still the dot product
    # of its row and column, on wide, tall and square shapes with zeros
    F = field_make(*dict(TOWERS)[name])
    assert F.matmul.__qualname__.startswith("_table_kernel.")
    assert F.matvec.__qualname__.startswith("_table_kernel.")
    rng = random.Random(f"table-matmul:{name}")

    def rand(m, n):
        return [[rng.randrange(F.order) if rng.random() < 0.8 else 0 for _ in range(n)] for _ in range(m)]

    for m, k, n in ((1, 1, 1), (2, 5, 7), (7, 5, 2), (6, 6, 6), (3, 13, 4)):
        A, B = rand(m, k), rand(k, n)
        assert F.matmul(A, B) == tuple(tuple(F.dot(r, c) for c in zip(*B)) for r in A)


def _entrywise(A, B, p):
    return tuple(tuple(sum(a * b for a, b in zip(r, c)) % p for c in zip(*B)) for r in A)


@pytest.fixture
def lanes(monkeypatch):
    # the slots the prime kernel packs vectors into, one entry per packed
    # vector: "byte" or "word" (64 bits); a product of dot products packs
    # none.  A kernel takes its packers from the factory when its tower is
    # built, so the factory is wrapped and every tower is built afresh
    out = []

    def slots(p, w, real=fields.key_slots):
        (pack, read), lane = real(p, w), {8: "byte", 64: "word"}[w]

        def counted(xs):
            out.append(lane)
            return pack(xs)

        return counted, read

    monkeypatch.setattr(fields, "key_slots", slots)
    monkeypatch.setattr(fields, "_TOWER_CACHE", {})
    return out


def _lane(p, k, entries):
    # the lane a prime-field product of inner dimension k takes
    if k * (p - 1) ** 2 <= 255:
        return {"byte"} if entries >= fields._BYTE_ENTRIES else set()
    return {"word"} if entries >= fields._PACK_ENTRIES else set()


@pytest.mark.parametrize("p", [2, 7, 65537])
def test_packed_matmul_matches_entrywise_sums(p, lanes):
    # every output shape 1..13 x 1..13, wide (packing B's rows) and tall
    # (packing A's columns): byte slots whenever every slot sum fits a byte,
    # from fields._BYTE_ENTRIES output entries on; otherwise 64-bit slots
    # from fields._PACK_ENTRIES output entries on; dot products below
    F = field_make(p)
    rng = random.Random(f"packed:{p}")
    seen = []
    for m in range(1, 14):
        for n in range(1, 14):
            k = rng.randrange(1, 14)
            A = tuple(tuple(rng.randrange(p) for _ in range(k)) for _ in range(m))
            B = tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(k))
            lanes.clear()
            assert F.matmul(A, B) == _entrywise(A, B, p)
            assert set(lanes) == _lane(p, k, m * n)
            seen.append(frozenset(lanes))
    if p == 7:  # k = 7 is the byte bound, so all three lanes run
        assert set(seen) == {frozenset(), frozenset({"byte"}), frozenset({"word"})}


def test_packed_products_at_the_slot_bound(lanes):
    # every entry p - 1 makes each slot sum k (p - 1)^2, the most it can
    # hold; below 2^64 no slot carries, so GF(2^31 - 1) packs up to inner
    # dimension 4 and sums dimension 5 per entry, and GF(65537) packs 13
    for p, k, packed in ((2**31 - 1, 3, True), (2**31 - 1, 4, True), (2**31 - 1, 5, False), (65537, 13, True)):
        assert (k * (p - 1) ** 2 < 2**64) == packed
        want = {"word"} if packed else set()
        F = field_make(p)
        A, B = ((p - 1,) * k,) * 6, ((p - 1,) * 6,) * k
        lanes.clear()
        assert F.matmul(A, B) == _entrywise(A, B, p)
        assert set(lanes) == want
        lanes.clear()
        assert F.matvec(A)([p - 1] * k) == [k * (p - 1) ** 2 % p] * 6
        assert set(lanes) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_byte_lane_products_at_the_slot_bound(p, lanes):
    # all entries p - 1 make each slot sum k (p - 1)^2: at k = 255 // (p-1)^2
    # that is the largest sum a byte holds, and one past it the product
    # takes 64-bit slots; wide (6 x 9) and tall (9 x 6) outputs alike
    F = field_make(p)
    top = 255 // (p - 1) ** 2
    for k, want in ((top, {"byte"}), (top + 1, {"word"})):
        for m, n in ((6, 9), (9, 6)):
            A, B = ((p - 1,) * k,) * m, ((p - 1,) * n,) * k
            lanes.clear()
            assert F.matmul(A, B) == _entrywise(A, B, p)
            assert set(lanes) == want
        # a vector shorter than the rows stands for its zero-padded self
        lanes.clear()
        apply = F.matvec(((p - 1,) * k,) * 6)
        assert set(lanes) == want
        for length in (k, k - 1, 1):
            assert apply([p - 1] * length) == [length * (p - 1) ** 2 % p] * 6


def test_matvec_matches_dot_products(tower):
    # a vector shorter than the rows stands for its zero-padded self, as
    # poly._Frobenius applies the map to reduced polynomials
    F = tower
    rng = random.Random(f"matvec:{F!r}")
    for m in (1, 2, 3, 7, 13):
        k = rng.randrange(1, 14)
        rows = [[rng.randrange(F.order) for _ in range(k)] for _ in range(m)]
        apply = F.matvec(rows)
        for length in (k, k, rng.randrange(1, k + 1)):
            w = [rng.randrange(F.order) for _ in range(length)]
            padded = w + [0] * (k - length)
            assert apply(w) == [F.dot(r, padded) for r in rows]


def _ref_rref(F, rows):
    # reduced row echelon form on lists of keys, one entry at a time
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    piv, r = [], 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = F.scale(rows[r], F.inv(rows[r][c]))
        for i in range(m):
            if i != r and rows[i][c]:
                rows[i] = F.sub_scaled(rows[i], rows[i][c], rows[r])
        piv.append(c)
        r += 1
    return tuple(map(tuple, rows)), piv


def _ref_det(F, rows):
    rows = [list(r) for r in rows]
    n, d = len(rows), 1
    for c in range(n):
        pr = next((i for i in range(c, n) if rows[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = F.neg(d)
        d = F.mul(d, rows[c][c])
        pinv = F.inv(rows[c][c])
        for i in range(c + 1, n):
            if rows[i][c]:
                rows[i] = F.sub_scaled(rows[i], F.mul(rows[i][c], pinv), rows[c])
    return d


def _elimination_inputs(F, rng):
    # random shapes with entries drawn from 0, 1, p - 1 and anything, and
    # matrices of p - 1 under a column of ones: each row step then adds
    # (p - 1) (p - 1) to p - 1 in every slot, p (p - 1) in all, the most a
    # byte row holds at p = 13
    top = F.p - 1
    pool = [0, 1, top, top, None]

    def entry():
        x = rng.choice(pool)
        return rng.randrange(F.order) if x is None else x

    out = []
    for m, n in ((1, 1), (3, 3), (4, 7), (7, 4), (8, 8), (8, 8)):
        out.append(tuple(tuple(entry() for _ in range(n)) for _ in range(m)))
    for m, n in ((5, 5), (4, 9), (9, 3)):
        out.append(tuple((1,) + (top,) * (n - 1) for _ in range(m)))
        out.append(tuple((1,) + tuple(top if (i + j) % 3 else 0 for j in range(n - 1)) for i in range(m)))
    return out


def test_elimination_matches_list_row_reference(tower):
    # rref, det, inv, solve_right and right_kernel_basis run on the tower's
    # row form (bytes on the row lane) and agree with plain list rows
    F = tower
    rng = random.Random(f"elimination:{F!r}")
    for rows in _elimination_inputs(F, rng):
        A = Mat(F, rows)
        m, n = len(rows), len(rows[0])
        R, piv = _ref_rref(F, rows)
        assert A.rref() == (Mat(F, R), piv)
        free = [c for c in range(n) if c not in piv]
        kernel = [[0] * len(free) for _ in range(n)]
        for k, fc in enumerate(free):
            kernel[fc][k] = 1
            for r, pc in enumerate(piv):
                kernel[pc][k] = F.neg(R[r][fc])
        assert A.right_kernel_basis() == (Mat(F, tuple(map(tuple, kernel))), free)
        b = tuple((rng.choice((0, 1, F.p - 1, rng.randrange(F.order))),) for _ in range(m))
        Rb, pivb = _ref_rref(F, [r + c for r, c in zip(rows, b)])
        if pivb and pivb[-1] >= n:
            assert A.solve_right(Mat(F, b)) is None
        else:
            x = [[0] for _ in range(n)]
            for r, pc in enumerate(pivb):
                x[pc] = list(Rb[r][n:])
            assert A.solve_right(Mat(F, b)) == Mat(F, tuple(map(tuple, x)))
        if m == n:
            assert A.det().int_key == _ref_det(F, rows)
            eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            Ri, pivi = _ref_rref(F, [r + e for r, e in zip(rows, eye)])
            if pivi == list(range(n)):
                assert A.inv() == Mat(F, tuple(r[n:] for r in Ri))
            else:
                with pytest.raises(SingularMatrixError):
                    A.inv()


def test_small_determinants_match_the_elimination_loop(tower):
    # det takes a 1x1 or 2x2 matrix in closed form, ad - bc, and skips the
    # elimination loop; both give the same key, singular matrices included
    F = tower
    rng = random.Random(f"small-det:{F!r}")
    keys = sorted({0, 1, F.p - 1, *(rng.randrange(F.order) for _ in range(4))})
    mats = [((a,),) for a in keys]
    mats += [((a, b), (c, d)) for a, b, c, d in itertools.product(keys, repeat=4)]
    for x, y in itertools.product(keys, repeat=2):
        s = rng.randrange(F.order)
        mats += [((x, y), (F.mul(s, x), F.mul(s, y))), ((0, x), (0, y)), ((x, y), (0, 0))]
    singular = 0
    for rows in mats:
        d = Mat(F, rows).det().int_key
        assert d == _eliminated_det(F, rows), rows
        singular += not d
    assert singular > len(keys) ** 2
