"""Dense univariate polynomials over a field tower's working field.

A polynomial is a little-endian list of integer element keys (fields.py)
with no trailing zeros; [] is zero.  Every function takes the tower F and
does all arithmetic through its key operations, so a prime tower's
polynomials run on native ints, and the same functions find the tower
moduli in fields.py.  Apart from pnormal, which strips its argument in
place, results are fresh lists and arguments are never modified.

The one slot format, of pmul over GF(p) and of every packed lane in
fields.py, is here: keys (key_slots) or one key's GF(p) coordinates
(coord_slots, coord_reader) in w-bit slots of one int, the first lowest,
summed without carry and reduced mod p once (Kronecker substitution).
Kernels call these factories when they are built, so no call on a hot
path branches on w; pmul, which picks w per product, takes them cached.

Factorization (squarefree / distinct-degree / equal-degree) is seeded and
deterministic for a fixed seed.  Equal-degree splitting only stops on a
polynomial whose degree is the common degree of its irreducible factors, so
every emitted factor is irreducible by construction; only the product is
re-checked against the input.  Both splitting steps run on the Frobenius
map h -> h^Q mod f of each squarefree part f, a matrix built once from
x^Q: the distinct-degree steps past the first, and the norm (odd Q) or
relative trace (characteristic 2) that equal-degree splitting takes, are
matrix-vector products.  Over GF(p) and in characteristic 2, x^Q is the
only power with exponent Q.  Over GF(p^k), p odd and k >= 2, the only
power with exponent p is x^p, and none has exponent Q or (Q-1)/2: the
p-power map h -> h^p mod f, built once from x^p, gives x^Q and the
equal-degree power.
is_irreducible_poly, a check on the distinct-degree step, tests the
candidates for both tower moduli in fields.py; least_root, the least-key
root among factorize's linear factors, gives fields.py's square roots and
groups.py's norm preimages.
"""

from __future__ import annotations

import random
import sys
from array import array
from functools import cache

from .errors import InternalInvariantError


def pnormal(f):
    """Strip trailing zeros from the list f in place; returns f."""
    while f and not f[-1]:
        f.pop()
    return f


def pdeg(f):
    return len(f) - 1


def padd(f, g, F):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    add = F.add
    for i, c in enumerate(g):
        out[i] = add(out[i], c)
    return pnormal(out)


def psub(f, g, F):
    out = list(f) + [0] * (len(g) - len(f))
    sub = F.sub
    for i, c in enumerate(g):
        out[i] = sub(out[i], c)
    return pnormal(out)


def pmul(f, g, F):
    if not f or not g:
        return []
    if F.deg == 1:
        # one integer product, its slots wide enough that no coefficient of
        # f*g carries
        p = F.p
        w = (min(len(f), len(g)) * (p - 1) ** 2).bit_length()
        w = 8 if w <= 8 else 64 if w <= 64 else w
        pack, read = key_slots(p, w)
        out = read(pack(f) * pack(g), len(f) + len(g) - 1)
        return list(out) if w == 8 else out
    if len(f) < len(g):
        f, g = g, f
    n, m = len(f), len(g)
    gr = g[::-1]
    dot = F.dot
    out = []
    for k in range(n + m - 1):
        lo = max(0, k - m + 1)
        hi = min(k, n - 1) + 1
        out.append(dot(f[lo:hi], gr[m - 1 - k + lo : m - 1 - k + hi]))
    return out  # no zero divisors: the leading coefficient is nonzero


@cache
def key_slots(p, w):
    """(pack, read): pack(xs) puts the keys xs, each below 2^w, in w-bit
    slots of one int; read(s, n) gives the first n slots of s, each mod p,
    as bytes for w = 8 (one translate) and as a list otherwise."""
    if w == 8:
        mod_p = (bytes(range(p)) * (256 // p + 1))[:256]
        return (lambda xs: int.from_bytes(bytes(xs), "little"),
                lambda s, n: s.to_bytes(n, "little").translate(mod_p))
    if w == 64:
        return (lambda xs: int.from_bytes(array("Q", xs).tobytes(), sys.byteorder),
                lambda s, n: [x % p for x in memoryview(s.to_bytes(8 * n, sys.byteorder)).cast("Q")])
    mask = (1 << w) - 1

    def pack(xs):
        s = 0
        for x in reversed(xs):
            s = (s << w) | x
        return s

    def read(s, n):
        out = []
        for _ in range(n):
            out.append((s & mask) % p)
            s >>= w
        return out

    return pack, read


def coord_slots(p, Q, w):
    """For every key below Q, its GF(p) coordinates in w-bit slots of one int."""
    packed = [0] * Q
    for x in range(1, Q):
        packed[x] = (packed[x // p] << w) + x % p
    return packed


def coord_reader(p, d, w):
    """key(s): the key whose d coordinates are the w-bit slots of s, each mod
    p; for w = 8 one translate and one lookup of the coordinate bytes."""
    if w == 8:
        mod_p = (bytes(range(p)) * (256 // p + 1))[:256]
        key_of = {s.to_bytes(d, "little"): x for x, s in enumerate(coord_slots(p, p**d, 8))}.__getitem__
        return lambda s: key_of(s.to_bytes(d, "little").translate(mod_p))
    mask = (1 << w) - 1
    shifts = [w * i for i in reversed(range(d))]

    def key(s):
        out = 0
        for sh in shifts:
            out = out * p + ((s >> sh) & mask) % p
        return out

    return key


def pdivmod(f, g, F):
    assert g, "division by zero polynomial"
    dg = len(g) - 1
    if len(f) <= dg:
        return [], list(f)
    r = list(f)
    low = g[:-1]
    lead = g[-1]
    ginv = 1 if lead == 1 else F.inv(lead)
    mul, sub_scaled = F.mul, F.sub_scaled
    q = [0] * (len(r) - dg)
    for d in range(len(q) - 1, -1, -1):
        c = r[d + dg]
        if c:
            if ginv != 1:
                c = mul(c, ginv)
            q[d] = c
            r[d : d + dg] = sub_scaled(r[d : d + dg], c, low)
    del r[dg:]
    return q, pnormal(r)


def pmod(f, g, F):
    return pdivmod(f, g, F)[1]


def pmonic(f, F):
    if not f or f[-1] == 1:
        return list(f)
    return F.scale(f, F.inv(f[-1]))


def pgcd(f, g, F):
    while g:
        f, g = g, pmod(f, g, F)
    return pmonic(f, F)


def ppowmod(f, e, m, F):
    base = pmod(f, m, F)
    out = None
    while e:
        if e & 1:
            out = base if out is None else pmod(pmul(out, base, F), m, F)
        e >>= 1
        if e:
            base = pmod(pmul(base, base, F), m, F)
    return pmod([1], m, F) if out is None else out


def pinvmod(f, m, F):
    """Inverse of f mod m, or None when gcd(f, m) != 1."""
    r0, r1 = m, pmod(f, m, F)
    s0, s1 = [], [1]
    while r1:
        q, r = pdivmod(r0, r1, F)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, F), F)
    if len(r0) != 1:
        return None
    return pmod(F.scale(s0, F.inv(r0[0])), m, F)


def ppow(f, e, F):
    out = [1]
    base = f
    while e:
        if e & 1:
            out = pmul(out, base, F)
        e >>= 1
        if e:
            base = pmul(base, base, F)
    return out


def _pderiv(f, F):
    p, mul = F.p, F.mul
    return pnormal([mul(i % p, f[i]) for i in range(1, len(f))])


def pserialize(f, F):
    """GF(p) coordinate lists of the coefficients, as certificates store them."""
    return [list(F.coords(c)) for c in f]


def is_irreducible_poly(f, F):
    """Whether f is monic and irreducible over the working field: exactly
    when distinct-degree splitting finds no factor of degree at most d/2,
    d = deg f (a reducible f has one, squarefree or not).  The search stops
    at the first factor it finds."""
    d = len(f) - 1
    return d >= 1 and f[-1] == 1 and next(_distinct_degree(_Frobenius(f, F))) == (f, d)


def _prime_divisors(n):
    out, r = [], 2
    while r * r <= n:
        if n % r == 0:
            out.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# the ratio-twisted reciprocal involution


def twisted_reciprocal(f, beta, F):
    """For monic f with f(0) != 0, the monic polynomial whose roots are
    beta / conj(lambda) over the roots lambda of f (conj extended to any
    splitting field); beta is a key.  An involution: applying it twice
    returns f."""
    d = pdeg(f)
    assert d >= 0 and f[-1] == 1 and f[0], "need monic with nonzero constant term"
    mul, conj = F.mul, F.conj
    pw = [1]
    for _ in range(d):
        pw.append(mul(pw[-1], beta))
    return pmonic([mul(conj(f[d - j]), pw[d - j]) for j in range(d + 1)], F)


# ---------------------------------------------------------------------------
# factorization (seeded, deterministic, self-checking)


def _pth_root(f, F):
    # f has nonzero coefficients only in degrees divisible by p
    p = F.p
    e = F.order // p
    out = []
    for i in range(0, len(f), p):
        out.append(F.pow(f[i], e))
        assert not any(f[i + 1 : i + p]), "not a p-th power"
    return pnormal(out)


def squarefree_parts(f, F):
    """[(g, m)] with monic squarefree g, distinct m, and f = lc * prod g^m."""
    out = []
    f = pmonic(f, F)
    if len(f) < 2:
        return out
    d = _pderiv(f, F)
    if not d:
        for g, m in squarefree_parts(_pth_root(f, F), F):
            out.append((g, m * F.p))
        return out
    g = pgcd(f, d, F)
    w = pdivmod(f, g, F)[0]
    i = 1
    while len(w) > 1:
        y = pgcd(w, g, F)
        z = pdivmod(w, y, F)[0]
        if len(z) > 1:
            out.append((z, i))
        i += 1
        w = y
        g = pdivmod(g, y, F)[0]
    if len(g) > 1:
        for h, m in squarefree_parts(_pth_root(g, F), F):
            out.append((h, m * F.p))
    out.sort(key=lambda gm: gm[1])
    return out


class _Frobenius:
    """The Frobenius map h -> h^Q mod f on F[x]/(f), Q the order of the
    working field.  It is GF(Q)-linear, so it is kept as the matrix whose
    column i is x^(iQ) mod f, and one application is a matrix-vector
    product (von zur Gathen and Shoup, Comput. Complexity 2, 1992).

    Over GF(p^k) with p odd and k >= 2 it also keeps sigma, the p-power map
    h -> h^p mod f.  sigma is semilinear, sigma(sum c_i x^i) =
    sum c_i^p x^(ip), so one application raises each coefficient to the
    p-th power and multiplies by the matrix whose column i is x^(ip) mod f.
    x^Q is then x^p followed by k - 1 applications of sigma, and x^p is the
    one ppowmod; elsewhere x^Q is.  That power is taken on first use.  The
    other columns are built only when their map is first applied, by a
    second distinct-degree step or an equal-degree split: most
    tower-modulus candidates have a root, and is_irreducible_poly stops at
    x^Q for them."""

    def __init__(self, f, F):
        self.f, self.F = f, F
        self.cols = []  # x^(iQ) mod f, for i < len(cols)
        self._apply = None  # the tower's matvec of the matrix
        # x^(ip) mod f, for sigma; None where sigma is not used
        self.pcols = [] if F.p != 2 and F.deg > 1 else None
        self._papply = None

    def xq(self):
        if not self.cols:
            f, F = self.f, self.F
            if self.pcols is None:
                xq = ppowmod([0, 1], F.order, f, F)
            else:
                xq = self.xp()
                for _ in range(F.deg - 1):
                    xq = self.sigma(xq)
            self.cols = [pmod([1], f, F), xq]
        return self.cols[1]

    def xp(self):
        if not self.pcols:
            f, F = self.f, self.F
            self.pcols = [pmod([1], f, F), ppowmod([0, 1], F.p, f, F)]
        return self.pcols[1]

    def __call__(self, h):
        """h^Q mod f, for h reduced mod f."""
        if self._apply is None:
            self.xq()
            self._apply = self.F.matvec(_power_rows(self.f, self.F, self.cols))
        return pnormal(self._apply(h))

    def sigma(self, h):
        """h^p mod f, for h reduced mod f (p odd, k >= 2)."""
        F = self.F
        if self._papply is None:
            self.xp()
            self._papply = F.matvec(_power_rows(self.f, F, self.pcols))
        pw, p = F.pow, F.p
        return pnormal(self._papply([pw(c, p) for c in h]))

    def mod(self, g):
        """The maps on F[x]/(g) for a factor g of f, from the columns built
        so far reduced mod g, so no power is raised again."""
        F, n = self.F, max(2, len(g) - 1)
        sub = _Frobenius(g, F)
        sub.cols = [pmod(c, g, F) for c in self.cols[:n]]
        if self.pcols:
            sub.pcols = [pmod(c, g, F) for c in self.pcols[:n]]
        return sub


def _power_rows(f, F, cols):
    # the rows of the matrix whose column i is x^(ie) mod f, i < deg f, from
    # cols = [1, x^e, ...] mod f, which it extends.  Column i is K^i 1 for
    # K, multiplication by x^e mod f, so each missing column is one product
    # with K's matrix; K's column j, x^j x^e mod f, is its column j - 1
    # times x, one shift and one scaled subtraction of f
    n = len(f) - 1
    if len(cols) < n:
        low = f[:n]
        c = cols[1] + [0] * (n - len(cols[1]))
        kcols = [c]
        for _ in range(n - 1):
            top = c[-1]
            c = [0] + c[:-1]
            if top:
                c = F.sub_scaled(c, top, low)
            kcols.append(c)
        apply = F.matvec(list(zip(*kcols)))
        while len(cols) < n:
            cols.append(pnormal(apply(cols[-1])))
    return [[col[j] if j < len(col) else 0 for col in cols[:n]] for j in range(n)]


def _distinct_degree(frob):
    # for monic squarefree f = frob.f, yields (product of its degree-d
    # irreducible factors, d) by increasing d.  h = x^(Q^d) stays reduced
    # mod f, so each step past the first is one application of the map; the
    # gcds take the cofactor g, which sheds each product as it is found
    F = frob.F
    g = frob.f
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = frob.xq() if d == 1 else frob(h)
        gd = pgcd(psub(h, [0, 1], F), g, F)
        if len(gd) > 1:
            yield gd, d
            g = pdivmod(g, gd, F)[0]
    if len(g) > 1:
        yield g, len(g) - 1


def _edf(f, d, frob, rng):
    # split monic squarefree f, all of whose irreducible factors have degree
    # d, with frob the Frobenius map mod a multiple of f.  Mod each factor,
    # a field GF(Q^d), the norm r^(1 + Q + ... + Q^(d-1)) of a random r lies
    # in GF(Q), and its ((Q-1)/2)-th power is r^((Q^d-1)/2): 0, 1 or -1.
    # Over GF(p^k) with sigma, that power of s is the product of sigma^i(s),
    # i < k, raised to (p-1)/2, as (Q-1)/2 = (1 + p + ... + p^(k-1)) (p-1)/2.
    # In characteristic 2 the relative trace r + r^Q + ... + r^(Q^(d-1))
    # plus its m - 1 successive squares (Q = 2^m) is the absolute trace, 0
    # or 1
    n = len(f) - 1
    if n == d:
        return [f]
    F = frob.F
    Q = F.order
    semilinear = frob.pcols is not None
    if (d > 1 or semilinear) and frob.f != f:
        frob = frob.mod(f)
    while True:
        r = pnormal([rng.randrange(Q) for _ in range(n)])
        if len(r) < 2:
            continue
        acc = t = r
        for _ in range(d - 1):
            t = frob(t)
            acc = padd(acc, t, F) if F.p == 2 else pmod(pmul(acc, t, F), f, F)
        if F.p == 2:
            s = sq = acc
            for _ in range(Q.bit_length() - 2):
                sq = pmod(pmul(sq, sq, F), f, F)
                s = padd(s, sq, F)
            g = pgcd(s, f, F)
        else:
            s, e = acc, (Q - 1) // 2
            if semilinear:
                t = acc
                for _ in range(F.deg - 1):
                    t = frob.sigma(t)
                    s = pmod(pmul(s, t, F), f, F)
                e = (F.p - 1) // 2
            g = pgcd(psub(ppowmod(s, e, f, F), [1], F), f, F)
        if 1 < len(g) <= n:
            rest = pdivmod(f, g, F)[0]
            return _edf(g, d, frob, rng) + _edf(rest, d, frob, rng)


def factorize(f, F, seed=0):
    """Monic irreducible factorization [(g, mult)] of f, a list or tuple of
    coefficient keys, sorted by degree, then by coefficient keys.

    Deterministic for fixed seed.  Each factor is irreducible because
    distinct-degree splitting groups the factors by degree and equal-degree
    splitting stops at that degree; the factors are checked to multiply
    back to the input.  A linear f is its own factorization, [(monic f, 1)],
    with no splitting and no check.
    """
    assert f, "cannot factor the zero polynomial"
    if len(f) == 2:
        return [(pmonic(f, F), 1)]
    rng = random.Random(seed)
    out = []
    for sqf, m in squarefree_parts(f, F):
        frob = _Frobenius(sqf, F)
        for prod_d, d in _distinct_degree(frob):
            out.extend((irr, m) for irr in _edf(prod_d, d, frob, rng))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    check = [f[-1]]
    for g, m in out:
        check = pmul(check, ppow(g, m, F), F)
    if check != list(f):
        raise InternalInvariantError(
            "factor product differs from input", {"input": pserialize(f, F)}
        )
    return out


def least_root(f, F):
    """The root of f with the least key, from factorize's linear factors, or
    None when f has no root in the working field."""
    return min((F.neg(g[0]) for g, _ in factorize(f, F) if len(g) == 2), default=None)

