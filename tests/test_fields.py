"""Field tower arithmetic against independent small-field oracles."""

import itertools
import time

import pytest

from invofactor import FieldConstructionError, InputError, field_from_descriptor, field_make
from invofactor import fields
from invofactor.fields import FieldTower
from invofactor.linalg import Mat

# ---------------------------------------------------------------------------
# oracle: polynomial irreducibility over GF(p) by trial division.  Written
# against plain int lists with its own long division so it shares no code
# with the package.


def _odeg(f):
    d = len(f) - 1
    while d >= 0 and f[d] == 0:
        d -= 1
    return d


def _orem(f, g, p):
    f = list(f)
    df, dg = _odeg(f), _odeg(g)
    glead_inv = pow(g[dg], p - 2, p)
    while df >= dg:
        c = (f[df] * glead_inv) % p
        for i in range(dg + 1):
            f[df - dg + i] = (f[df - dg + i] - c * g[i]) % p
        df = _odeg(f)
    return f


def oracle_irreducible(f, p):
    d = _odeg(f)
    assert d >= 1
    for e in range(1, d):
        for tail in itertools.product(range(p), repeat=e):
            g = list(tail) + [1]
            if _odeg(_orem(f, g, p)) < 0:
                return False
    return True


def oracle_least_modulus(p, d):
    for n in range(p**d):
        coeffs = []
        m = n
        for _ in range(d):
            coeffs.append(m % p)
            m //= p
        f = coeffs + [1]
        if oracle_irreducible(f, p):
            return f
    raise AssertionError("unreachable")


def test_base_modulus_matches_oracle():
    for p, k in [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)]:
        assert field_make(p, k).base_modulus == oracle_least_modulus(p, k)


def test_known_moduli_hand_values():
    # worked out by hand: first irreducibles in integer-key order
    assert field_make(3, 2).base_modulus == [1, 0, 1]  # T^2 + 1 over GF(3)
    assert field_make(2, 2).base_modulus == [1, 1, 1]  # T^2 + T + 1 over GF(2)
    assert field_make(2, 3).base_modulus == [1, 1, 0, 1]  # T^3 + T + 1
    assert field_make(3, 3).base_modulus == [1, 2, 0, 1]  # T^3 + 2T + 1
    assert field_make(5, 1).base_modulus == [0, 1]  # degree-1 tower: modulus T


def test_large_moduli_pinned():
    # the least irreducibles of the larger towers, too large for the oracle
    # above; every key and certificate over these towers depends on them, so
    # they must not move with the way the distinct-degree search runs
    def from_terms(d, terms):  # {exponent: coefficient} -> little-endian list
        f = [0] * (d + 1)
        for e, c in terms.items():
            f[e] = c
        return f

    assert field_make(2, 16).base_modulus == from_terms(16, {16: 1, 5: 1, 3: 1, 1: 1, 0: 1})
    assert field_make(3, 11).base_modulus == from_terms(11, {11: 1, 2: 1, 0: 2})
    assert field_make(2, 12).base_modulus == from_terms(12, {12: 1, 3: 1, 0: 1})
    assert field_make(3, 5).base_modulus == from_terms(5, {5: 1, 1: 2, 0: 1})
    assert field_make(5, 7).base_modulus == from_terms(7, {7: 1, 1: 1, 0: 1})


def test_quadratic_extension_moduli_hand_values():
    # W^2 + g1*W + g0 with least (key(g0), key(g1)); worked out by hand
    assert field_make(3, 1, "quadratic")._qg0 == (1,)  # W^2 + 1, -1 non-square mod 3
    assert field_make(3, 1, "quadratic")._qg1 == (0,)
    assert field_make(2, 1, "quadratic")._qg0 == (1,)  # W^2 + W + 1
    assert field_make(2, 1, "quadratic")._qg1 == (1,)
    assert field_make(5, 1, "quadratic")._qg0 == (1,)  # W^2 + W + 1, disc -3 = 2 non-square mod 5
    assert field_make(5, 1, "quadratic")._qg1 == (1,)
    assert field_make(7, 1, "quadratic")._qg0 == (1,)  # W^2 + 1, -4 = 3 non-square mod 7
    assert field_make(7, 1, "quadratic")._qg1 == (0,)


def oracle_least_quadratic_modulus(F):
    # least (key(g0), key(g1)) such that W^2 + g1*W + g0 has no root in F,
    # scanning every row, g0 = 0 included
    elems = [F.from_int(n) for n in range(F.order)]
    for g0 in elems:
        for g1 in elems:
            if all(x * x + g1 * x + g0 for x in elems):
                return g0.coords, g1.coords
    raise AssertionError("unreachable")


def test_quadratic_extension_moduli_match_brute_force():
    odd_primes = [p for p in range(3, 50) if all(p % r for r in range(2, p))]
    bases = [(p, 1) for p in odd_primes] + [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2)]
    for p, k in bases:
        E = field_make(p, k, "quadratic")
        assert (E._qg0, E._qg1) == oracle_least_quadratic_modulus(field_make(p, k)), (p, k)


def _unskipped_least_quadratic_modulus(base):
    # the search without its skip: every (n0, n1) in key order, n0 >= 1
    order = range(base.order)
    return next((n0, n1) for n0 in order[1:] for n1 in order
                if fields.is_irreducible_poly([n0, n1, 1], base))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_the_quadratic_modulus_search_skips_only_split_candidates(p, k):
    # over GF(p^k) with k even, candidates with both keys below p split in
    # GF(p^2) and are skipped; the least modulus is the unskipped search's
    base = field_make(p, k)
    assert FieldTower._least_quadratic_modulus(base) == _unskipped_least_quadratic_modulus(base)


def test_the_quadratic_modulus_search_over_an_even_degree_base_starts_past_gf_p(monkeypatch):
    # over GF(65537^2) the unskipped search tests at least 65537 candidates
    # before its first possible hit; the search tests from (1, p) on
    real = fields.is_irreducible_poly
    calls = []

    def counted(f, F):
        calls.append(f)
        return real(f, F)

    p = 65537
    base = field_make(p, 2)
    monkeypatch.setattr(fields, "is_irreducible_poly", counted)
    n0, n1 = FieldTower._least_quadratic_modulus(base)
    assert n0 == 1 and calls[0] == [1, p, 1] and len(calls) == n1 - p + 1 <= 16


def test_large_quadratic_tower_builds_quickly():
    # the search starts at g0 = 1 (the g0 = 0 row never qualifies), so
    # W^2 + 1 is found at once for p = 3 mod 4 instead of after p candidates
    t0 = time.perf_counter()
    E = field_make(1000003, 1, "quadratic")
    assert time.perf_counter() - t0 < 2.0
    assert E.descriptor()["ext_modulus"] == [[1], [0]]


TABLED = [
    # characteristic 2: on the byte lane (one digit chunk) and past it (two)
    (2, 4, "trivial"), (2, 8, "trivial"), (2, 9, "trivial"), (2, 12, "trivial"),
    # odd trivial towers: one chunk, two chunks, and one digit a chunk
    (3, 2, "trivial"), (3, 5, "trivial"), (3, 7, "trivial"), (5, 5, "trivial"),
    (61, 2, "trivial"),
    (2, 1, "quadratic"), (2, 3, "quadratic"), (2, 6, "quadratic"),
    (7, 1, "quadratic"), (3, 3, "quadratic"), (7, 2, "quadratic"), (61, 1, "quadratic"),
]


@pytest.mark.parametrize("spec", TABLED, ids=lambda s: f"{s[0]}^{s[1]}-{s[2]}")
def test_the_power_table_is_the_coordinate_kernel_recurrence(spec, monkeypatch):
    # the tabled tower's powers of its primitive element g are g^i stepped
    # one coordinate-kernel product at a time, for every i < Q - 1
    F = field_make(*spec)  # builds and caches the base tower first
    assert F.order <= fields.TABLE_ORDER
    monkeypatch.setattr(fields, "TABLE_ORDER", 1)
    K = FieldTower(*spec)
    assert K.mul.__qualname__.split(".")[0] != "_table_kernel"
    g = fields._primitive_element(K)
    x = 1
    for i in range(F.order - 1):
        assert F.pow(g, i) == x, i
        x = K.mul(x, g)
    assert x == 1


TOWERS = [
    field_make(2, 1),
    field_make(5, 1),
    field_make(2, 2),
    field_make(3, 2),
    field_make(2, 3),
    field_make(3, 3),
    field_make(2, 1, "quadratic"),
    field_make(3, 1, "quadratic"),
    field_make(5, 1, "quadratic"),
    field_make(2, 2, "quadratic"),
    field_make(3, 2, "quadratic"),
]


@pytest.mark.parametrize("F", TOWERS, ids=repr)
def test_field_axioms(F):
    elems = list(F.elements())
    assert len(elems) == F.order
    zero, one = F.zero, F.one
    for a in elems:
        assert a + zero == a and a * one == a
        assert a - a == zero and a + (-a) == zero
        if a:
            assert a * a.inv() == one and a / a == one
    # associativity and distributivity on all triples for small orders,
    # on a fixed slice otherwise
    triples = (
        itertools.product(elems, repeat=3)
        if F.order <= 9
        else itertools.islice(itertools.product(elems, repeat=3), 4000)
    )
    for a, b, c in triples:
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a and a * b == b * a


def test_quadratic_mul_against_pair_formula():
    # GF(9) is GF(3)[W]/(W^2+1): (a0+a1 W)(b0+b1 W) = (a0b0-a1b1) + (a0b1+a1b0)W
    F = field_make(3, 1, "quadratic")
    for a in F.elements():
        for b in F.elements():
            a0, a1 = a.coords
            b0, b1 = b.coords
            want = ((a0 * b0 - a1 * b1) % 3, (a0 * b1 + a1 * b0) % 3)
            assert (a * b).coords == want
    # GF(25) is GF(5)[W]/(W^2+W+1), so W^2 = -W - 1
    F = field_make(5, 1, "quadratic")
    for a in F.elements():
        for b in F.elements():
            a0, a1 = a.coords
            b0, b1 = b.coords
            t = a1 * b1
            want = ((a0 * b0 - t) % 5, (a0 * b1 + a1 * b0 - t) % 5)
            assert (a * b).coords == want


@pytest.mark.parametrize(
    "F",
    [t for t in TOWERS if t.has_conj],
    ids=repr,
)
def test_conj_is_frobenius_power(F):
    fixed = 0
    for a in F.elements():
        assert a.conj() == a**F.q  # conj is x -> x^q
        assert a.conj().conj() == a
        assert (a * a).conj() == a.conj() * a.conj()
        if a.conj() == a:
            fixed += 1
    assert fixed == F.q  # fixed field is GF(q)


def test_conj_hand_value_gf9():
    F = field_make(3, 1, "quadratic")
    w = F.elem([0, 1])
    assert w.conj() == F.elem([0, 2])  # conj(W) = -W when W^2 = -1
    a = F.elem([1, 2])
    assert a.conj() == F.elem([1, 1])


def test_trivial_tower_conj_is_identity():
    F = field_make(5, 1)
    assert all(a.conj() == a for a in F.elements())
    assert not F.has_conj


@pytest.mark.parametrize("F", TOWERS, ids=repr)
def test_squares_and_sqrt(F):
    squares = {(b * b).coords for b in F.elements()}
    for a in F.elements():
        assert F.is_square(a) == (a.coords in squares)
        r = F.sqrt(a)
        if a.coords in squares:
            assert r is not None and r * r == a
            # canonical: the lesser of the two roots in integer-key order
            assert r.int_key <= (-r).int_key
        else:
            assert r is None


@pytest.mark.parametrize("F", TOWERS, ids=repr)
def test_int_key_roundtrip_and_order(F):
    keys = []
    for n, a in enumerate(F.elements()):
        assert a.int_key == n
        assert F.from_int(n) == a
        keys.append(n)
    assert keys == sorted(keys)


def test_int_coercion():
    F = field_make(7, 1)
    a = F.scalar(3)
    assert a + 1 == F.scalar(4)
    assert 1 + a == F.scalar(4)
    assert 2 * a == F.scalar(6)
    assert a - 5 == F.scalar(-2) == F.scalar(5)
    assert 1 - a == F.scalar(-2)
    assert 1 / a == a.inv()
    assert a == 3 and a != 4
    assert F.scalar(-1) == F.scalar(6)


def test_pow_edge_cases():
    F = field_make(3, 1, "quadratic")
    a = F.elem([1, 1])
    assert a**0 == F.one
    assert a**-1 == a.inv()
    assert a**-3 == (a * a * a).inv()
    assert a ** (F.order - 1) == F.one  # unit group order


def test_zero_division_raises():
    # the prime kernel, the tabled kernel (GF(9)) and the two coordinate
    # kernels (GF(3^11), GF(101^2)): inv, a negative power and division
    for params in [(5, 1), (3, 2), (3, 11), (101, 1, "quadratic")]:
        F = field_make(*params)
        with pytest.raises(ZeroDivisionError):
            F.one / F.zero
        with pytest.raises(ZeroDivisionError):
            F.zero.inv()
        with pytest.raises(ZeroDivisionError):
            F.zero**-1


def test_cross_tower_mixing_raises():
    a = field_make(5, 1).one
    b = field_make(7, 1).one
    with pytest.raises(InputError):
        a + b


def test_bad_parameters_raise():
    for bad in [(4, 1), (1, 1), (0, 1), (-3, 1)]:
        with pytest.raises(FieldConstructionError):
            field_make(*bad)
    with pytest.raises(FieldConstructionError):
        field_make(5, 0)
    with pytest.raises(FieldConstructionError):
        field_make(5, 1, "cubic")
    for bad in [("3",), ([3],), (3, 1.5), (3, True), (3, 1, ["trivial"])]:
        with pytest.raises(FieldConstructionError):
            field_make(*bad)
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to every
    # prime base up to 37; primality is decided exactly only below psi_13
    with pytest.raises(FieldConstructionError, match="must be prime"):
        field_make(318665857834031151167461)
    with pytest.raises(FieldConstructionError, match="3317044064679887385961981"):
        field_make(3317044064679887385961981)
    assert field_make(2**61 - 1).p == 2**61 - 1
    # working fields have order below 2^256; a huge degree is refused before
    # any power p^k is made
    for bad in [(5, 10**30), (2, 256), (2, 128, "quadratic"), (2**61 - 1, 5)]:
        with pytest.raises(FieldConstructionError, match="too large"):
            field_make(*bad)
    assert field_make(2**61 - 1, 2).order.bit_length() == 122


def test_tower_caching_and_descriptor_roundtrip():
    F1 = field_make(3, 1, "quadratic")
    F2 = field_make(3, 1, "quadratic")
    assert F1 is F2
    for F in TOWERS:
        assert field_from_descriptor(F.descriptor()) is F
    bad = field_make(3, 1, "quadratic").descriptor()
    bad["ext_modulus"] = [[2], [0]]
    with pytest.raises(InputError):
        field_from_descriptor(bad)


def test_descriptor_missing_base_modulus_is_an_input_error():
    with pytest.raises(InputError, match="base_modulus"):
        field_from_descriptor({"p": 3, "k": 1})
    with pytest.raises(InputError, match="'k'"):
        field_from_descriptor({"p": 3, "base_modulus": [0, 1]})


def test_sqrt_rejects_an_element_of_another_tower():
    # as is_square and FieldElem arithmetic do, instead of reading its key
    F, a = field_make(7), field_make(3, 2).from_int(5)
    with pytest.raises(InputError, match="different field towers"):
        F.is_square(a)
    with pytest.raises(InputError, match="different field towers"):
        F.sqrt(a)


def test_elem_validation():
    F = field_make(3, 1, "quadratic")
    assert F.elem([4, -1]) == F.elem([1, 2])  # inputs reduce mod p
    with pytest.raises(InputError):
        F.elem([1])
    for bad in (["x", 1], [1.5, 1], [True, 1], 5, "12"):
        with pytest.raises(InputError):
            F.elem(bad)
    with pytest.raises(InputError):
        F.from_int(9)


def test_scalar_and_from_int_take_only_ints():
    # as elem does: a float, string or bool is an InputError, not an element
    # whose key is that object, nor an error from inside the kernel
    for F in (field_make(7), field_make(3, 2), field_make(3, 1, "quadratic")):
        for bad in (1.5, 4.0, "3", True, None, [1]):
            with pytest.raises(InputError):
                F.from_int(bad)
            with pytest.raises(InputError):
                F.scalar(bad)
        assert F.from_int(F.order - 1).key == F.order - 1
        assert F.scalar(-1).key == F.p - 1
        for bad in (-1, F.order):
            with pytest.raises(InputError):
                F.from_int(bad)


def test_a_bool_is_no_scalar_anywhere():
    # scalar, from_int and elem refuse a bool; so do element arithmetic,
    # matrix entries and scalar products of matrices, instead of reading
    # True as 1.  No element equals a bool, and comparing with one does not
    # raise (hash(F.one) == hash(True), so sets and lists compare them)
    for F in (field_make(7), field_make(3, 2), field_make(3, 1, "quadratic")):
        one = F.one
        M = Mat.identity(F, 2)
        ops = [
            lambda: one + True,
            lambda: True + one,
            lambda: one - False,
            lambda: False - one,
            lambda: one * True,
            lambda: True * one,
            lambda: one / True,
            lambda: True / one,
            lambda: Mat.from_rows(F, [[True]]),
            lambda: Mat.diag(F, [one, True]),
            lambda: Mat.column(F, [False, one]),
            lambda: M * True,
            lambda: True * M,
        ]
        for op in ops:
            with pytest.raises(InputError, match="bool|bad matrix entry"):
                op()
        assert one != True and not (one == True) and F.zero != False  # noqa: E712
        assert True not in {one} and one not in [True, False]
        assert one + 1 == F.scalar(2) and (M * 1).rows == M.rows
