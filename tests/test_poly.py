"""Polynomial layer against a brute-force trial-division oracle.

Polynomials are little-endian lists of integer element keys."""

import random

import pytest

from invofactor import field_make, poly
from test_kernels import TOWERS

from invofactor.poly import (
    _Frobenius,
    factorize,
    is_irreducible_poly,
    padd,
    pdeg,
    pdivmod,
    pgcd,
    pinvmod,
    pmod,
    pmonic,
    pmul,
    pnormal,
    ppow,
    ppowmod,
    pserialize,
    squarefree_parts,
    twisted_reciprocal,
)


def test_prime_field_products_at_the_slot_bound(monkeypatch):
    # pmul over GF(p) is one integer product in w-bit slots, w the bit length
    # of the largest coefficient sum min(len f, len g) (p - 1)^2; with every
    # coefficient p - 1 the middle coefficients reach it, so a slot one bit
    # too narrow would carry.  Byte, 64-bit and other widths all run here
    widths = set()

    def slots(p, w, real=poly.key_slots):
        widths.add(w if w in (8, 64) else "other")
        return real(p, w)

    monkeypatch.setattr(poly, "key_slots", slots)
    for p in (2, 3, 7, 13, 17, 65537, 2**31 - 1, 2**61 - 1):
        F = field_make(p)
        for n in range(1, 41):
            for m in sorted({1, 2, n, 40}):
                want = [0] * (n + m - 1)
                for i in range(n):
                    for j in range(m):
                        want[i + j] += (p - 1) * (p - 1)
                assert pmul([p - 1] * n, [p - 1] * m, F) == [c % p for c in want]
    assert widths == {8, 64, "other"}


def monics(F, d):
    for n in range(F.order**d):
        cs, m = [], n
        for _ in range(d):
            cs.append(m % F.order)
            m //= F.order
        yield cs + [1]


def oracle_factor(f, F):
    # divide out monic polynomials in ascending (degree, key) order; any
    # divisor met this way is automatically irreducible
    out = []
    f = pmonic(f, F)
    d = 1
    while pdeg(f) > 0:
        for g in monics(F, d):
            m = 0
            while True:
                q, r = pdivmod(f, g, F)
                if r:
                    break
                f, m = q, m + 1
            if m:
                out.append((g, m))
        d += 1
    return out


def test_divmod_hand_case():
    F = field_make(3, 1)
    f = [1, 0, 1]  # T^2 + 1
    g = [1, 1]  # T + 1
    q, r = pdivmod(f, g, F)
    assert q == [2, 1]  # T + 2
    assert r == [2]


@pytest.mark.parametrize("params", [(2, 1), (3, 1), (5, 1), (2, 1, "quadratic"), (3, 1, "quadratic")])
def test_divmod_roundtrip(params):
    F = field_make(*params)
    for d_f in range(0, 4):
        for n, f in enumerate(monics(F, d_f)):
            if n >= 12:
                break
            for d_g in range(0, d_f + 1):
                for ng, g in enumerate(monics(F, d_g)):
                    if ng >= 8:
                        break
                    q, r = pdivmod(f, g, F)
                    assert padd(pmul(q, g, F), r, F) == f
                    assert pdeg(r) < pdeg(g)


@pytest.mark.parametrize(
    "params,maxdeg",
    [((2, 1), 4), ((3, 1), 4), ((5, 1), 3), ((2, 1, "quadratic"), 4), ((3, 1, "quadratic"), 3)],
)
def test_factorize_against_oracle(params, maxdeg):
    F = field_make(*params)
    for d in range(1, maxdeg + 1):
        for f in monics(F, d):
            got = factorize(f, F)
            want = oracle_factor(f, F)
            assert sorted(got, key=lambda fm: (pserialize(fm[0], F), fm[1])) == sorted(
                want, key=lambda fm: (pserialize(fm[0], F), fm[1])
            ), pserialize(f, F)


@pytest.mark.parametrize("params", [p for _, p in TOWERS], ids=[name for name, _ in TOWERS])
def test_factorize_of_a_linear_polynomial_is_the_general_paths(params):
    # a linear f returns [(monic f, 1)] at once; the squarefree, distinct-
    # and equal-degree path gives the same for monic and non-monic f
    F = field_make(*params)

    def general(f):
        rng = random.Random(0)
        out = []
        for sqf, m in squarefree_parts(f, F):
            frob = _Frobenius(sqf, F)
            for prod_d, d in poly._distinct_degree(frob):
                out.extend((irr, m) for irr in poly._edf(prod_d, d, frob, rng))
        return out

    rng = random.Random(repr(F))
    for _ in range(6):
        a, c = rng.randrange(F.order), rng.randrange(1, F.order)
        for f in ([a, 1], [F.mul(c, a), c]):
            assert factorize(f, F) == general(f) == [([a, 1], 1)], (a, c)


def test_factorize_seed_independent_output():
    F = field_make(3, 1, "quadratic")
    f = pnormal([F.elem([1, 2]).key, F.elem([0, 1]).key, F.elem([2, 0]).key, 0, 1, 1])
    runs = [factorize(f, F, seed=s) for s in (0, 1, 17)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("params", [(2, 1), (3, 1), (2, 1, "quadratic"), (3, 1, "quadratic"), (5, 1)])
def test_is_irreducible_matches_oracle(params):
    F = field_make(*params)
    for d in (1, 2, 3):
        for n, f in enumerate(monics(F, d)):
            if n >= 40:
                break
            assert is_irreducible_poly(f, F) == (oracle_factor(f, F) == [(f, 1)])


def test_squarefree_parts_hand_cases():
    F = field_make(3, 1)
    t1 = [1, 1]  # T + 1
    sq = [1, 0, 1]  # T^2 + 1
    f = pmul(ppow(t1, 3, F), sq, F)
    assert squarefree_parts(f, F) == [(sq, 1), (t1, 3)]
    # multiplicity divisible by p goes through the p-th root path
    f6 = ppow(t1, 6, F)
    assert squarefree_parts(f6, F) == [(t1, 6)]


def test_squarefree_parts_reconstruct():
    rng = random.Random(5)
    for params in [(2, 1), (3, 1), (2, 1, "quadratic"), (5, 1)]:
        F = field_make(*params)
        for _ in range(25):
            f = pnormal([rng.randrange(F.order) for _ in range(rng.randrange(2, 7))])
            if pdeg(f) < 1:
                continue
            f = pmonic(f, F)
            parts = squarefree_parts(f, F)
            prod = [1]
            for g, m in parts:
                assert g[-1] == 1
                d = pgcd(g, pnormal([F.mul(i % F.p, g[i]) for i in range(1, len(g))]), F)
                assert pdeg(d) == 0  # squarefree
                prod = pmul(prod, ppow(g, m, F), F)
            assert prod == f


def test_twisted_reciprocal_linear_exhaustive():
    for params in [(3, 1, "quadratic"), (5, 1, "quadratic"), (2, 1, "quadratic")]:
        F = field_make(*params)
        for lam in F.elements():
            if not lam:
                continue
            for beta in F.elements():
                if not beta or beta.conj() != beta:
                    continue
                f = [(-lam).key, 1]
                star = twisted_reciprocal(f, beta.key, F)
                assert star == [(-(beta / lam.conj())).key, 1]
                assert twisted_reciprocal(star, beta.key, F) == f


def test_twisted_reciprocal_hand_value():
    F = field_make(3, 1, "quadratic")
    lam = F.elem([1, 1])  # 1 + w, with w^2 = -1
    f = [(-lam).key, 1]
    # conj(1+w) = 1-w has inverse (1+w)/2 = 2+2w, so the root moves there
    assert twisted_reciprocal(f, 1, F) == [(-F.elem([2, 2])).key, 1]


def test_twisted_reciprocal_multiplicative():
    import random

    rng = random.Random(9)
    F = field_make(3, 1, "quadratic")
    beta = F.scalar(2)
    assert beta.conj() == beta
    for _ in range(40):
        f = pmonic(pnormal([rng.randrange(9) for _ in range(4)] + [1]), F)
        g = pmonic(pnormal([rng.randrange(9) for _ in range(3)] + [1]), F)
        if not f[0] or not g[0]:
            continue
        lhs = twisted_reciprocal(pmul(f, g, F), beta.key, F)
        rhs = pmul(twisted_reciprocal(f, beta.key, F), twisted_reciprocal(g, beta.key, F), F)
        assert lhs == rhs


def test_pinvmod():
    F = field_make(5, 1)
    m = [1, 0, 1]  # T^2 + 1 (reducible over GF(5), still a ring)
    t = [0, 1]
    # T * (-T) = -T^2 = 1 - (T^2+1) so inverse of T is -T
    assert pinvmod(t, m, F) == [0, 4]
    # T - 2 divides T^2 + 1 over GF(5), no inverse
    assert pinvmod([3, 1], m, F) is None
    F9 = field_make(3, 1, "quadratic")
    m = ppow([1, 1], 3, F9)  # (T+1)^3
    f = [F9.elem([2, 2]).key, 1, F9.elem([0, 1]).key]  # f(-1) = 1, a unit mod (T+1)^3
    g = pinvmod(f, m, F9)
    assert g is not None and pmod(pmul(f, g, F9), m, F9) == [1]


def test_peval_and_powmod():
    F = field_make(7, 1)
    f = [3, 0, 1]  # T^2 + 3
    # evaluation is the remainder mod T - x
    assert pmod(f, [F.neg(2), 1], F) == []  # 4 + 3 = 0 mod 7
    assert pmod(f, [F.neg(3), 1], F) == [5]  # 9 + 3 = 5 mod 7
    m = [1, 1]
    big = ppowmod([0, 1], 7**3, m, F)
    # T = -1 mod (T+1), so T^343 = -1
    assert big == [6]


def test_conj_coefficientwise():
    F = field_make(3, 1, "quadratic")
    f = [F.elem([1, 2]).key, F.elem([0, 1]).key, 1]
    conj_f = [F.elem([1, 1]).key, F.elem([0, 2]).key, 1]
    assert [F.conj(c) for c in f] == conj_f
    # at beta = 1 the twisted reciprocal is the monic reversal of the
    # coefficientwise conjugate
    assert twisted_reciprocal(f, 1, F) == pmonic(conj_f[::-1], F)
    assert twisted_reciprocal(twisted_reciprocal(f, 1, F), 1, F) == f


# ---------------------------------------------------------------------------
# planted factorizations and the Frobenius map, one field per kernel class

KERNEL_CLASSES = [
    ("tabled-GF16", (2, 4)),
    ("tabled-GF243", (3, 5)),
    ("tabled-GF49/GF7", (7, 1, "quadratic")),
    ("tabled-GF125", (5, 3)),
    ("tabled-GF49", (7, 2)),
    ("coord-GF3^11", (3, 11)),
    ("coord-GF2^17", (2, 17)),
    ("quad-coord-GF101^2", (101, 1, "quadratic")),
    ("prime-GF65537", (65537, 1)),
]


def random_monic(F, d, rng):
    return [rng.randrange(F.order) for _ in range(d)] + [1]


def random_irreducibles(F, d, count, rng):
    out = []
    while len(out) < count:
        g = random_monic(F, d, rng)
        if is_irreducible_poly(g, F) and g not in out:
            out.append(g)
    return out


def planted(F, factors):
    # the product of the (g, m), and the factorization factorize must return
    f = [1]
    for g, m in factors:
        f = pmul(f, ppow(g, m, F), F)
    return f, sorted(factors, key=lambda gm: (len(gm[0]), gm[0]))


@pytest.mark.parametrize("params", [c[1] for c in KERNEL_CLASSES], ids=[c[0] for c in KERNEL_CLASSES])
def test_factorize_planted_products(params):
    F = field_make(*params)
    rng = random.Random(f"planted:{params}")
    cases = []
    for d in (2, 3, 4):
        # equal degree: only equal-degree splitting separates the factors
        cases.append([(g, 1) for g in random_irreducibles(F, d, 3, rng)])
    lin = random_irreducibles(F, 1, 2, rng)
    (quad,) = random_irreducibles(F, 2, 1, rng)
    cubes = random_irreducibles(F, 3, 2, rng)
    # mixed degrees with multiplicities; a multiplicity p takes the p-th
    # root path of squarefree_parts (in the fields with p <= 7)
    cases.append([(lin[0], 2), (lin[1], 1), (quad, min(F.p, 5)), (cubes[0], 1), (cubes[1], 3)])
    for factors in cases:
        f, want = planted(F, factors)
        runs = [factorize(f, F, seed=s) for s in (0, 1, 17)]
        assert runs[0] == want, pserialize(f, F)
        assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("params", [c[1] for c in KERNEL_CLASSES], ids=[c[0] for c in KERNEL_CLASSES])
def test_frobenius_map_is_the_qth_power(params):
    F = field_make(*params)
    Q = F.order
    rng = random.Random(f"frobenius:{params}")
    (g,) = random_irreducibles(F, 2, 1, rng)
    a, b = random_monic(F, 3, rng), random_monic(F, 2, rng)
    # (modulus, a factor of it); one modulus is not squarefree, as
    # is_irreducible_poly may pass one
    moduli = [(random_monic(F, 1, rng), None), (b, None), (random_monic(F, 7, rng), None)]
    moduli += [(pmul(a, b, F), a), (pmul(ppow(g, 2, F), b, F), g)]
    for f, factor in moduli:
        frob = _Frobenius(f, F)
        for _ in range(3):
            h = pnormal([rng.randrange(Q) for _ in range(pdeg(f))])
            assert frob(h) == ppowmod(h, Q, f, F), pserialize(f, F)
        if factor:
            # reduced mod a factor, from the columns already built
            sub = frob.mod(factor)
            h = pnormal([rng.randrange(Q) for _ in range(pdeg(factor))])
            assert sub(h) == ppowmod(h, Q, factor, F)


P_POWER_TOWERS = [(name, spec) for name, spec in TOWERS if field_make(*spec).p != 2 and field_make(*spec).deg > 1]


@pytest.mark.parametrize("spec", [s for _, s in P_POWER_TOWERS], ids=[n for n, _ in P_POWER_TOWERS])
def test_p_power_map_is_the_pth_power(spec):
    # sigma: h -> h^p mod f, semilinear, on every odd-characteristic tower
    # of degree >= 2 over GF(p); also reduced mod a factor, and on a modulus
    # that is not squarefree
    F = field_make(*spec)
    p = F.p
    rng = random.Random(f"sigma:{spec}")
    a, b = random_monic(F, 3, rng), random_monic(F, 2, rng)
    moduli = [(random_monic(F, 1, rng), None), (b, None), (random_monic(F, 6, rng), None)]
    moduli += [(pmul(a, b, F), a), (pmul(pmul(b, b, F), a, F), b)]
    for f, factor in moduli:
        frob = _Frobenius(f, F)
        for _ in range(3):
            h = pnormal([rng.randrange(F.order) for _ in range(pdeg(f))])
            assert frob.sigma(h) == ppowmod(h, p, f, F), pserialize(f, F)
        assert frob.xq() == ppowmod([0, 1], F.order, f, F)
        if factor:
            sub = frob.mod(factor)
            h = pnormal([rng.randrange(F.order) for _ in range(pdeg(factor))])
            assert sub.sigma(h) == ppowmod(h, p, factor, F)


def test_factorize_takes_one_qth_power_per_squarefree_part(monkeypatch):
    # x^Q is the one power with exponent Q; every later distinct-degree step
    # and every equal-degree split of degree d >= 2 applies the Frobenius map.
    # Over GF(p^k), p odd and k >= 2, x^p is the one power with exponent p,
    # and the p-power map gives x^Q and the equal-degree power (Q-1)/2, so
    # no power has either exponent
    exponents = []
    real = poly.ppowmod

    def counted(f, e, m, F):
        exponents.append(e)
        return real(f, e, m, F)

    monkeypatch.setattr(poly, "ppowmod", counted)
    rng = random.Random("one x^Q")
    for params in [(3, 1), (2, 4), (101, 1), (7, 1, "quadratic"), (5, 3)]:
        F = field_make(*params)
        irr = {d: random_irreducibles(F, d, 2, rng) for d in (1, 2, 3, 4, 5)}
        cases = [
            # squarefree, every degree 1 .. 5 present: DDF visits five degrees
            [(g, 1) for d in (1, 2, 3, 4, 5) for g in irr[d]],
            # two squarefree parts of degree >= 2 and one linear part
            [(irr[4][0], 1), (irr[2][0], 1), (irr[3][0], 2), (irr[1][1], 2), (irr[1][0], 3)],
        ]
        for factors in cases:
            f, want = planted(F, factors)
            exponents.clear()
            assert factorize(f, F) == want
            parts = squarefree_parts(f, F)
            want_powers = sum(pdeg(g) >= 2 for g, _ in parts)
            if F.p != 2 and F.deg > 1:
                assert exponents.count(F.p) == want_powers, params
                assert F.order not in exponents and (F.order - 1) // 2 not in exponents, params
            else:
                assert exponents.count(F.order) == want_powers, params


# ---------------------------------------------------------------------------
# least roots


def _value(f, x, F):
    acc = 0
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _brute_least_root(f, F):
    return next((x for x in range(F.order) if not _value(f, x, F)), None)


@pytest.mark.parametrize(
    "params", [(3, 1), (2, 2), (3, 1, "quadratic")], ids=["GF3", "GF4", "GF9/GF3"]
)
def test_least_root_matches_brute_force_up_to_degree_3(params):
    # every polynomial of degree <= 3, constants and non-monic ones included
    F = field_make(*params)
    Q = F.order
    for d in range(4):
        for n in range(Q**d):
            low = [(n // Q**i) % Q for i in range(d)]
            for lead in range(1, Q):
                f = low + [lead]
                assert poly.least_root(f, F) == _brute_least_root(f, F), f


def test_least_root_on_seeded_samples_over_gf1009():
    # products of linear powers, quadratics T^2 - d with d a non-square and
    # random monic quadratics and cubics, against a scan of all 1009 keys
    F = field_make(1009)
    rng = random.Random("least-root:1009")
    nonsquares = [d for d in range(1, 1009) if pow(d, 504, 1009) == 1008]
    met = {"repeated": 0, "rootless": 0}
    for _ in range(60):
        f = [rng.randrange(1, 1009)]
        linear = []
        for _ in range(rng.randrange(1, 4)):
            shape = rng.randrange(3)
            if shape == 0:
                r, m = rng.randrange(1009), rng.randrange(1, 4)
                linear.append(m)
                g = ppow([F.neg(r), 1], m, F)
            elif shape == 1:
                g = [F.neg(rng.choice(nonsquares)), 0, 1]
            else:
                g = [rng.randrange(1009) for _ in range(rng.randrange(2, 4))] + [1]
            f = pmul(f, g, F)
        want = _brute_least_root(f, F)
        assert poly.least_root(f, F) == want, f
        met["repeated"] += any(m > 1 for m in linear)
        met["rootless"] += want is None
    assert all(met.values()), met


def test_least_root_on_seeded_samples_over_gf2_16():
    # GF(2^16) has too many keys to scan per sample, so each sample is built
    # with known roots: linear powers times quadratics T^2 + T + c whose
    # constant has absolute trace 1, which have no root
    F = field_make(2, 16)
    rng = random.Random("least-root:2^16")

    def trace(c):
        t = 0
        for _ in range(16):
            t, c = F.add(t, c), F.mul(c, c)
        return t

    rootless = [c for c in (rng.randrange(F.order) for _ in range(64)) if trace(c) == 1]
    assert rootless
    met = {"repeated": 0, "rootless": 0}
    for _ in range(24):
        f = [rng.randrange(1, F.order)]
        roots = []
        for _ in range(rng.randrange(4)):
            r, m = rng.randrange(F.order), rng.randrange(1, 4)
            roots.append(r)
            f = pmul(f, ppow([r, 1], m, F), F)  # T - r = T + r in characteristic 2
            met["repeated"] += m > 1
        for _ in range(rng.randrange(0 if roots else 1, 3)):
            f = pmul(f, [rng.choice(rootless), 1, 1], F)
        got = poly.least_root(f, F)
        assert got == min(roots, default=None), f
        if got is None:
            met["rootless"] += 1
        else:
            assert not _value(f, got, F)
    assert all(met.values()), met
