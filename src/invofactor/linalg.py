"""Exact dense linear algebra over a field tower's working field.

Mat is immutable: a tower and a tuple of rows, each a tuple of the integer
element keys described in fields.py.  Arithmetic, elimination, conj and
equality run on the keys through the tower's kernel; FieldElem objects are
made only where a caller reads entries (indexing, col_entries, det).

Mat(tower, rows) takes rows of keys as they are.  The convenience
constructors (from_rows, column, diag) and scalar products instead coerce
each entry: a FieldElem gives its key, and a plain int is read as a GF(p)
scalar and reduced mod p, so a key above p must never pass through them.

Every Gram product of the library, G conj(B) and A^T G conj(B), goes
through conj_product and gram, or starts from left_factors.  They read G's
pattern: when each row of G has one nonzero entry, as every standard
space's Gram has, G conj(B) and A^T G are gathers of scaled rows and a
Gram costs one matrix product instead of two.
Mat has no powers: polynomials act on vectors (decomp.poly_column).

rref and det run one elimination loop each on the tower's row form and its
two row operations (fields.py), row_scale and row_sub on whole rows: bytes
stepped by one big-int multiply-add and one translate over GF(p), p <= 13,
bytes stepped by one translate and one XOR over characteristic-2 fields of
order <= 256, lists of keys (scale and sub_scaled) otherwise.  det takes a
1x1 or 2x2 matrix in closed form, as ad - bc, without the loop.  inv,
solve_right and right_kernel_basis go through rref.  right_kernel_basis
returns its basis with the free columns, at which the basis rows form the
identity: restricting to an invariant kernel reads those rows
(decomp.restrict) instead of solving.
"""

from __future__ import annotations

from itertools import chain

from .errors import InputError, SingularMatrixError
from .fields import FieldElem


def _key(tower, x):
    # a FieldElem's key, or a plain int read as a scalar
    if isinstance(x, FieldElem):
        if x.tower is not tower:
            raise InputError("element from a different field tower")
        return x.key
    if isinstance(x, int) and not isinstance(x, bool):
        return x % tower.p
    raise InputError(f"bad matrix entry {x!r}")


def _eliminated_det(F, rows):
    # det of a square matrix of keys by one elimination loop on the tower's
    # row form; Mat.det takes 1x1 and 2x2 in closed form
    mul, inv, row_sub = F.mul, F.inv, F.row_sub
    rows = list(map(F.row, rows))
    n = len(rows)
    d = 1
    for c in range(n):
        # rows[c:] hold what is left to eliminate, columns c.. only
        pr = next((i for i in range(c, n) if rows[i][0]), None)
        if pr is None:
            return 0
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            d = F.neg(d)
        prow = rows[c]
        d = mul(d, prow[0])
        pinv = inv(prow[0])
        for i in range(c + 1, n):
            row = rows[i]
            f = row[0]
            rows[i] = (row_sub(row, mul(f, pinv), prow) if f else row)[1:]
    return d


class Mat:
    # _monomial caches monomial_rows(self); it is unset until first asked
    __slots__ = ("tower", "rows", "_monomial")

    def __init__(self, tower, rows):
        self.tower = tower
        self.rows = rows

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_rows(tower, rows):
        out = []
        width = None
        for r in rows:
            rr = tuple(_key(tower, x) for x in r)
            if width is None:
                width = len(rr)
            elif len(rr) != width:
                raise InputError("ragged matrix rows")
            out.append(rr)
        if not out or width == 0:
            raise InputError("empty matrix")
        return Mat(tower, tuple(out))

    @staticmethod
    def identity(tower, n):
        return Mat(tower, tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)))

    @staticmethod
    def zeros(tower, m, n):
        return Mat(tower, tuple((0,) * n for _ in range(m)))

    @staticmethod
    def diag(tower, entries):
        es = [_key(tower, e) for e in entries]
        n = len(es)
        return Mat(tower, tuple(tuple(es[i] if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def column(tower, entries):
        return Mat.from_rows(tower, [[e] for e in entries])

    # -- shape / access --------------------------------------------------------

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return FieldElem(self.tower, self.rows[i][j])

    def col(self, j):
        return Mat(self.tower, tuple((r[j],) for r in self.rows))

    def col_entries(self, j):
        return tuple(FieldElem(self.tower, r[j]) for r in self.rows)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        self._compat(other)
        add = self.tower.add
        return Mat(self.tower, tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        self._compat(other)
        sub = self.tower.sub
        return Mat(self.tower, tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self):
        neg = self.tower.neg
        return Mat(self.tower, tuple(tuple(map(neg, r)) for r in self.rows))

    def __mul__(self, c):
        if not isinstance(c, (FieldElem, int)):
            return NotImplemented
        c = _key(self.tower, c)
        scale = self.tower.scale
        return Mat(self.tower, tuple(tuple(scale(r, c)) for r in self.rows))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.tower is not other.tower or len(self.rows[0]) != len(other.rows):
            raise InputError("matmul shape or tower mismatch")
        return Mat(self.tower, self.tower.matmul(self.rows, other.rows))

    def _compat(self, other):
        if not isinstance(other, Mat) or other.tower is not self.tower or other.shape != self.shape:
            raise InputError("matrix shape or tower mismatch")

    # -- structure ----------------------------------------------------------------

    @property
    def T(self):
        return Mat(self.tower, tuple(zip(*self.rows)))

    def conj(self):
        if not self.tower.has_conj:
            return self
        conj = self.tower.conj
        return Mat(self.tower, tuple(tuple(map(conj, r)) for r in self.rows))

    def is_zero(self):
        return not any(any(r) for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.tower is other.tower and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        coords = self.tower.coords
        body = ",".join(
            "[" + ",".join("".join(map(str, coords(a))) for a in r) + "]" for r in self.rows
        )
        return f"Mat[{body}]"

    # -- elimination ------------------------------------------------------------------

    def rref(self):
        """Reduced row echelon form: (R, pivot column list)."""
        F = self.tower
        inv, row_scale, row_sub = F.inv, F.row_scale, F.row_sub
        rows = list(map(F.row, self.rows))
        m, n = self.nrows, self.ncols
        piv = []
        r = 0
        for c in range(n):
            pr = next((i for i in range(r, m) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            # steps take whole rows; the pivot row is zero left of c
            prow = rows[r] = row_scale(rows[r], inv(rows[r][c]))
            for i in range(m):
                if i != r:
                    f = rows[i][c]
                    if f:
                        rows[i] = row_sub(rows[i], f, prow)
            piv.append(c)
            r += 1
            if r == m:
                break
        return Mat(F, tuple(map(tuple, rows))), piv

    def rank(self):
        return len(self.rref()[1])

    def det(self):
        if self.nrows != self.ncols:
            raise InputError("determinant needs a square matrix")
        F = self.tower
        if self.nrows == 2:
            (a, b), (c, d) = self.rows
            return FieldElem(F, F.sub(F.mul(a, d), F.mul(b, c)))
        if self.nrows == 1:
            return FieldElem(F, self.rows[0][0])
        return FieldElem(F, _eliminated_det(F, self.rows))

    def inv(self):
        if self.nrows != self.ncols:
            raise InputError("inverse needs a square matrix")
        n = self.nrows
        aug = hstack([self, Mat.identity(self.tower, n)])
        R, piv = aug.rref()
        if piv != list(range(n)):
            raise SingularMatrixError("matrix is singular")
        return Mat(self.tower, tuple(r[n:] for r in R.rows))

    def solve_right(self, b):
        """One X with self @ X = b (free variables zero), or None."""
        if b.nrows != self.nrows or b.tower is not self.tower:
            raise InputError("solve shape or tower mismatch")
        n, k = self.ncols, b.ncols
        R, piv = hstack([self, b]).rref()
        for r in range(len(piv)):
            if piv[r] >= n:
                return None  # a pivot landed in the right-hand block
        out = [[0] * k for _ in range(n)]
        for r, pc in enumerate(piv):
            out[pc] = R.rows[r][n:]
        return Mat(self.tower, tuple(tuple(r) for r in out))

    def right_kernel_basis(self):
        """(K, free): the columns of K span the right kernel, one per free
        (non-pivot) column fc, with 1 at fc and 0 at the other free columns.
        So the rows of K at free form the identity, and for an invariant
        subspace spanned by K, g K = K (g[free] K): see decomp.restrict.
        K has no columns when the kernel is zero."""
        R, piv = self.rref()
        n = self.ncols
        neg = self.tower.neg
        free = [c for c in range(n) if c not in piv]
        rows = [[0] * len(free) for _ in range(n)]
        for k, fc in enumerate(free):
            rows[fc][k] = 1
            for r, pc in enumerate(piv):
                rows[pc][k] = neg(R.rows[r][fc])
        return Mat(self.tower, tuple(map(tuple, rows))), free

    def serialize(self):
        coords = self.tower.coords
        return [[list(coords(a)) for a in r] for r in self.rows]


def mat_from_serialized(tower, data):
    try:
        return Mat.from_rows(tower, [[tower.elem(e) for e in row] for row in data])
    except (TypeError, InputError) as e:
        raise InputError(f"bad matrix data: {e}") from e


def hstack(mats):
    t = mats[0].tower
    m = mats[0].nrows
    if any(x.nrows != m or x.tower is not t for x in mats):
        raise InputError("hstack mismatch")
    return Mat(t, tuple(tuple(chain.from_iterable(rs)) for rs in zip(*(x.rows for x in mats))))


def vstack(mats):
    t = mats[0].tower
    n = mats[0].ncols
    if any(x.ncols != n or x.tower is not t for x in mats):
        raise InputError("vstack mismatch")
    return Mat(t, sum((x.rows for x in mats), ()))


def block_diag(tower, mats):
    n = sum(x.ncols for x in mats)
    m = sum(x.nrows for x in mats)
    rows = [[0] * n for _ in range(m)]
    i0 = j0 = 0
    for x in mats:
        for i, r in enumerate(x.rows):
            rows[i0 + i][j0 : j0 + len(r)] = r
        i0 += x.nrows
        j0 += x.ncols
    return Mat(tower, tuple(tuple(r) for r in rows))


_UNSET = object()


def monomial_rows(G):
    """The (column, entry key) of each row's one nonzero entry of G, or None
    when some row has none or more than one.

    Every standard space has such a Gram: [[0, -I], [I, 0]], [[0, I], [I, 0]]
    with a diagonal anisotropic plane, and I.  A changed-basis Gram is
    usually dense, and the test stops at its first dense row.  The answer
    is kept on G (a Mat never changes), so a form's Gram is read once."""
    out = getattr(G, "_monomial", _UNSET)
    if out is not _UNSET:
        return out
    rows = G.rows
    zeros = len(rows[0]) - 1
    out = []
    for r in rows:
        if r.count(0) != zeros:
            out = None
            break
        c = max(r)  # keys are nonnegative, so the one nonzero is the largest
        out.append((r.index(c), c))
    G._monomial = out
    return out


def conj_product(G, B):
    """G @ conj(B).

    When every row of G has one nonzero entry (monomial_rows), row i of the
    product is row j of conj(B) scaled by G[i, j]: a gather, no product.
    Otherwise it is one matrix product."""
    pattern = monomial_rows(G)
    if pattern is None:
        return G @ B.conj()
    if G.tower is not B.tower or len(G.rows[0]) != len(B.rows):
        raise InputError("matmul shape or tower mismatch")
    F = G.tower
    scale = F.scale
    rows = B.conj().rows
    return Mat(F, tuple(rows[j] if c == 1 else tuple(scale(rows[j], c)) for j, c in pattern))


def left_factors(G, mats):
    """The key rows of A^T G for each A of mats, in order, for a nonsingular
    G: the left factors of the Grams A^T G conj(A), kept as rows so that a
    caller can stack them with other rows into one product (verify._checks).

    When every row of G has one nonzero entry (monomial_rows), so has every
    row of G^T, as G is nonsingular: row j of G^T A is row k of A scaled by
    G[k, j], for the k whose entry sits at column j, and A^T G is its
    transpose, a gather with no product.  Otherwise it is one stacked
    product [A_1^T; A_2^T; ...] G."""
    F, n = G.tower, G.nrows
    pattern = monomial_rows(G)
    if pattern is None:
        rows = F.matmul(sum((tuple(zip(*A.rows)) for A in mats), ()), G.rows)
        return [rows[i : i + n] for i in range(0, len(rows), n)]
    scale = F.scale
    out = []
    for A in mats:
        gt_a = [None] * n
        for r, (j, c) in zip(A.rows, pattern):
            gt_a[j] = r if c == 1 else scale(r, c)
        out.append(tuple(zip(*gt_a)))
    return out


def gram(A, G, B):
    """A^T @ G @ conj(B): the pairings <a_i, b_j> of the columns of A and B
    under the Gram matrix G.

    It is A^T @ conj_product(G, B), so a Gram over a row-monomial G (every
    standard space) costs one matrix product and a dense G two.  Exact
    arithmetic is associative, so the result does not depend on the path."""
    return A.T @ conj_product(G, B)

