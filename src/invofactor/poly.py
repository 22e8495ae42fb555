"""Dense univariate polynomials over a field tower's working field.

The public functions (p*) take and return little-endian tuples of FieldElem
with no trailing zeros; () is zero.  Functions take the tower F explicitly
when they need constants.  Each one unwraps its arguments to lists of
integer element keys once, runs the key kernels (k*) below, and wraps the
result once: the kernels do all arithmetic through the tower's key
operations, so a prime tower's polynomials run on native ints (products by
Kronecker substitution: one integer product per polynomial product) and
the same kernels find the tower moduli in fields.py.

Factorization (squarefree / distinct-degree / equal-degree) is seeded and
deterministic for a fixed seed; every emitted factor is re-checked
irreducible before it is returned, and the product is re-checked against
the input.
"""

from __future__ import annotations

import random

from .errors import InternalInvariantError

# ---------------------------------------------------------------------------
# key kernels: little-endian lists of int keys, no trailing zeros, [] is zero


def knorm(f):
    while f and not f[-1]:
        f.pop()
    return f


def kadd(f, g, F):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    add = F.add
    for i, c in enumerate(g):
        out[i] = add(out[i], c)
    return knorm(out)


def ksub(f, g, F):
    out = list(f) + [0] * (len(g) - len(f))
    sub = F.sub
    for i, c in enumerate(g):
        out[i] = sub(out[i], c)
    return knorm(out)


def kmul(f, g, F):
    if not f or not g:
        return []
    if F.deg == 1:
        return _kronecker_mul(f, g, F.p)
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


def _kronecker_mul(f, g, p):
    # over GF(p): coefficients in w-bit slots of one int each, so a single
    # integer product carries every coefficient of f*g with no overlap
    w = (min(len(f), len(g)) * (p - 1) ** 2).bit_length()
    a = b = 0
    for c in reversed(f):
        a = (a << w) | c
    for c in reversed(g):
        b = (b << w) | c
    s, mask = a * b, (1 << w) - 1
    out = []
    for _ in range(len(f) + len(g) - 1):
        out.append((s & mask) % p)
        s >>= w
    return out


def kdivmod(f, g, F):
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
    return q, knorm(r)


def kmod(f, g, F):
    return kdivmod(f, g, F)[1]


def kmonic(f, F):
    if not f or f[-1] == 1:
        return f
    return F.scale(f, F.inv(f[-1]))


def kgcd(f, g, F):
    while g:
        f, g = g, kmod(f, g, F)
    return kmonic(f, F)


def kpowmod(f, e, m, F):
    out = kmod([1], m, F)
    base = kmod(f, m, F)
    while e:
        if e & 1:
            out = kmod(kmul(out, base, F), m, F)
        e >>= 1
        if e:
            base = kmod(kmul(base, base, F), m, F)
    return out


def kinvmod(f, m, F):
    """Inverse of f mod m, or None when gcd(f, m) != 1."""
    r0, r1 = m, kmod(f, m, F)
    s0, s1 = [], [1]
    while r1:
        q, r = kdivmod(r0, r1, F)
        r0, r1 = r1, r
        s0, s1 = s1, ksub(s0, kmul(q, s1, F), F)
    if len(r0) != 1:
        return None
    return kmod(F.scale(s0, F.inv(r0[0])), m, F)


def kpow(f, e, F):
    out = [1]
    base = f
    while e:
        if e & 1:
            out = kmul(out, base, F)
        e >>= 1
        if e:
            base = kmul(base, base, F)
    return out


def kderiv(f, F):
    p, mul = F.p, F.mul
    return knorm([mul(i % p, f[i]) for i in range(1, len(f))])


def kirreducible(f, F):
    """Rabin's criterion over the working field: monic f of degree d is
    irreducible iff T^(Q^d) = T mod f and T^(Q^(d/r)) - T is a unit mod f
    for every prime r | d."""
    d = len(f) - 1
    if d < 1 or f[-1] != 1:
        return False
    Q = F.order
    t = [0, 1]
    t_red = kmod(t, f, F)
    if kpowmod(t, Q**d, f, F) != t_red:
        return False
    for r in _prime_divisors(d):
        h = kpowmod(t, Q ** (d // r), f, F)
        if len(kgcd(ksub(h, t_red, F), f, F)) != 1:
            return False
    return True


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
# ring operations on FieldElem tuples


def _keys(f):
    return [c.key for c in f]


def pnormal(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def pdeg(f):
    return len(f) - 1


def pvar(F):
    return (F.zero, F.one)


def padd(f, g, F):
    return F.wrap(kadd(_keys(f), _keys(g), F))


def psub(f, g, F):
    return F.wrap(ksub(_keys(f), _keys(g), F))


def pneg(f):
    return tuple(-a for a in f)


def pmul(f, g, F):
    return F.wrap(kmul(_keys(f), _keys(g), F))


def pmulc(f, c):
    if not c:
        return ()
    F = c.tower
    return F.wrap(F.scale(_keys(f), c.key))


def pdivmod(f, g, F):
    q, r = kdivmod(_keys(f), _keys(g), F)
    return F.wrap(q), F.wrap(r)


def pmod(f, g, F):
    return F.wrap(kmod(_keys(f), _keys(g), F))


def pmonic(f, F):
    return F.wrap(kmonic(_keys(f), F))


def pgcd(f, g, F):
    return F.wrap(kgcd(_keys(f), _keys(g), F))


def ppowmod(f, e, m, F):
    return F.wrap(kpowmod(_keys(f), e, _keys(m), F))


def pinvmod(f, m, F):
    """Inverse of f mod m, or None when gcd(f, m) != 1."""
    inv = kinvmod(_keys(f), _keys(m), F)
    return None if inv is None else F.wrap(inv)


def plcm(f, g, F):
    if not f or not g:
        return ()
    fk, gk = _keys(f), _keys(g)
    d = kgcd(fk, gk, F)
    return F.wrap(kmonic(kmul(kdivmod(fk, d, F)[0], gk, F), F))


def peval(f, x):
    acc = x.tower.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


def pconj(f):
    return tuple(c.conj() for c in f)


def ppow(f, e, F):
    return F.wrap(kpow(_keys(f), e, F))


def pserialize(f):
    return [c.serialize() for c in f]


def sort_key(f):
    return (pdeg(f), tuple(c.key for c in f))


# ---------------------------------------------------------------------------
# the ratio-twisted reciprocal involution


def twisted_reciprocal(f, beta):
    """For monic f with f(0) != 0, the monic polynomial whose roots are
    beta / conj(lambda) over the roots lambda of f (conj extended to any
    splitting field).  An involution: applying it twice returns f."""
    F = beta.tower
    d = pdeg(f)
    assert d >= 0 and f[-1] == F.one and f[0], "need monic with nonzero constant term"
    mul, conj = F.mul, F.conj
    pw = [1]
    for _ in range(d):
        pw.append(mul(pw[-1], beta.key))
    raw = [mul(conj(f[d - j].key), pw[d - j]) for j in range(d + 1)]
    return F.wrap(kmonic(raw, F))


# ---------------------------------------------------------------------------
# factorization (seeded, deterministic, self-checking)


def _kpth_root(f, F):
    # f has nonzero coefficients only in degrees divisible by p
    p = F.p
    e = F.order // p
    out = []
    for i in range(0, len(f), p):
        out.append(F.pow(f[i], e))
        assert not any(f[i + 1 : i + p]), "not a p-th power"
    return knorm(out)


def _ksquarefree(f, F):
    out = []
    f = kmonic(f, F)
    if len(f) < 2:
        return out
    d = kderiv(f, F)
    if not d:
        for g, m in _ksquarefree(_kpth_root(f, F), F):
            out.append((g, m * F.p))
        return out
    g = kgcd(f, d, F)
    w = kdivmod(f, g, F)[0]
    i = 1
    while len(w) > 1:
        y = kgcd(w, g, F)
        z = kdivmod(w, y, F)[0]
        if len(z) > 1:
            out.append((z, i))
        i += 1
        w = y
        g = kdivmod(g, y, F)[0]
    if len(g) > 1:
        for h, m in _ksquarefree(_kpth_root(g, F), F):
            out.append((h, m * F.p))
    out.sort(key=lambda gm: gm[1])
    return out


def squarefree_parts(f, F):
    """[(g, m)] with monic squarefree g, distinct m, and f = lc * prod g^m."""
    return [(F.wrap(g), m) for g, m in _ksquarefree(_keys(f), F)]


def _kdistinct_degree(f, F):
    # for monic squarefree f: [(product of its degree-d irreducible factors, d)]
    out = []
    Q = F.order
    g = f
    h = kmod([0, 1], g, F)
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        h = kpowmod(h, Q, g, F)
        gd = kgcd(ksub(h, [0, 1], F), g, F)
        if len(gd) > 1:
            out.append((gd, d))
            g = kdivmod(g, gd, F)[0]
            h = kmod(h, g, F)
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _kedf(f, d, F, rng):
    # split monic squarefree f, all of whose irreducible factors have degree d
    n = len(f) - 1
    if n == d:
        return [f]
    Q = F.order
    while True:
        r = knorm([rng.randrange(Q) for _ in range(n)])
        if len(r) < 2:
            continue
        if F.p == 2:
            # absolute trace map of r in the quotient ring splits f
            m = Q.bit_length() - 1  # Q = 2^m
            s = acc = kmod(r, f, F)
            for _ in range(m * d - 1):
                acc = kpowmod(acc, 2, f, F)
                s = kadd(s, acc, F)
            g = kgcd(s, f, F)
        else:
            s = kpowmod(r, (Q**d - 1) // 2, f, F)
            g = kgcd(ksub(s, [1], F), f, F)
        if 1 < len(g) <= n:
            rest = kdivmod(f, g, F)[0]
            return _kedf(g, d, F, rng) + _kedf(rest, d, F, rng)


def is_irreducible_poly(f, F):
    """Rabin's criterion over the working field."""
    return kirreducible(_keys(f), F)


def factorize(f, F, seed=0):
    """Monic irreducible factorization [(g, mult)], canonically sorted.

    Deterministic for fixed seed; asserts irreducibility of every factor and
    that the factors multiply back to the input.
    """
    assert f, "cannot factor the zero polynomial"
    rng = random.Random(seed)
    out = []
    for sqf, m in _ksquarefree(_keys(f), F):
        for prod_d, d in _kdistinct_degree(sqf, F):
            for irr in _kedf(prod_d, d, F, rng):
                irr = F.wrap(irr)
                if not is_irreducible_poly(irr, F):
                    raise InternalInvariantError(
                        "claimed factor is not irreducible",
                        {"factor": pserialize(irr)},
                    )
                out.append((irr, m))
    out.sort(key=lambda fm: sort_key(fm[0]))
    check = [f[-1].key]
    for g, m in out:
        check = kmul(check, kpow(_keys(g), m, F), F)
    if check != _keys(f):
        raise InternalInvariantError(
            "factor product differs from input", {"input": pserialize(f)}
        )
    return out
