"""Field arithmetic against plain int/Fraction models: values are reached
through Field.scalar (the reduction into the field) and Field.inv."""

from fractions import Fraction

import pytest

from freehopf import FreeHopfAlgebra
from freehopf.fields import Field


def test_interning_and_tokens():
    assert Field.rationals() is Field.rationals()
    assert Field.prime(5) is Field.prime(5)
    assert Field.from_token("q") is Field.rationals()
    assert Field.from_token("f7") is Field.prime(7)
    assert Field.rationals().token == "q"
    assert Field.prime(3).token == "f3"
    assert Field.rationals().characteristic == 0
    assert Field.prime(3).characteristic == 3


def test_bad_tokens_and_nonprime():
    for bad in ("f4", "f1", "f0", "gf2", "", "f-3"):
        with pytest.raises(ValueError):
            Field.from_token(bad)
    with pytest.raises(ValueError):
        Field.prime(6)
    with pytest.raises(ValueError):
        Field.prime(2 ** 31 + 11)


def test_rational_arithmetic_matches_fraction():
    F = Field.rationals()
    vals = [Fraction(a, b) for a in range(-3, 4) for b in (1, 2, 3)]
    for x in vals:
        for y in vals:
            sx, sy = F.scalar(x), F.scalar(y)
            assert F.scalar(sx + sy) == x + y
            assert F.scalar(sx - sy) == x - y
            assert F.scalar(sx * sy) == x * y
            if y:
                assert F.scalar(sx * F.inv(sy)) == x / y
    assert F.scalar(-F.scalar(Fraction(2, 3))) == Fraction(-2, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_arithmetic_matches_mod_p(p):
    F = Field.prime(p)
    for a in range(p):
        for b in range(p):
            sa, sb = F.scalar(a), F.scalar(b)
            assert F.scalar(sa + sb) == (a + b) % p
            assert F.scalar(sa - sb) == (a - b) % p
            assert F.scalar(sa * sb) == (a * b) % p
            if b % p:
                q = F.scalar(sa * F.inv(sb))
                assert (q * b) % p == a % p


def test_fraction_coercion_into_prime_field():
    F = Field.prime(5)
    assert F.scalar(Fraction(1, 2)) == 3  # 2*3 = 6 = 1 mod 5
    assert F.scalar(Fraction(7, 3)) == (7 * pow(3, 3, 5)) % 5
    with pytest.raises(ZeroDivisionError):
        F.scalar(Fraction(1, 5))


def test_division_by_zero():
    for F in (Field.rationals(), Field.prime(3)):
        with pytest.raises(ZeroDivisionError):
            F.inv(F.zero)


def test_mixed_field_operations_rejected():
    # values carry no field, so mixing fields is caught where elements meet
    # their algebra
    a = FreeHopfAlgebra(2, "free", Field.prime(2)).one()
    b = FreeHopfAlgebra(2, "free", Field.prime(3)).one()
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    assert a != b


def test_string_scalars():
    F = Field.rationals()
    assert F.scalar("-3/2") == Fraction(-3, 2)
    G = Field.prime(7)
    assert G.scalar("12") == 5
    assert G.scalar("-1") == 6


def test_equality_and_hash():
    F = Field.prime(5)
    assert F.scalar(7) == F.scalar(2)
    assert F.scalar(2) == 2
    assert hash(F.scalar(2)) == hash(2)
    Q = Field.rationals()
    assert Q.scalar(Fraction(4, 2)) == 2
    assert bool(F.zero) is False
    assert bool(F.one) is True


def test_equal_scalars_and_numbers_hash_alike():
    numbers = list(range(-12, 13)) + [Fraction(1, 2), Fraction(4, 2)]
    for F in (Field.rationals(), Field.prime(2), Field.prime(5)):
        scalars = []
        for x in numbers + [Fraction(1, 3)]:
            try:
                scalars.append(F.scalar(x))
            except ZeroDivisionError:  # 1/2 in GF(2)
                pass
        for a in scalars:
            for b in scalars + numbers:
                if a == b:
                    assert hash(a) == hash(b), (F, a, b)
                assert (a == b) == (b == a)
    F = Field.prime(5)
    assert F.scalar(1) != 6
    assert len({F.scalar(1), 6}) == 2
    assert len({F.scalar(1), 1}) == 1
    assert F.scalar(3) == Fraction(3, 1)
    assert F.scalar(3) != Fraction(3, 2)


def test_pow():
    F = Field.prime(7)
    assert F.scalar(F.scalar(3) ** 6) == 1
    Q = Field.rationals()
    assert Q.scalar(Q.scalar(Fraction(2, 3)) ** 2) == Fraction(4, 9)


def _assert_values(F, values):
    """Every value is one the field owns: an int in 0..p-1 over GF(p), an
    int or a Fraction (never a float) over Q."""
    p = F.characteristic
    for v in values:
        if p:
            assert type(v) is int and 0 <= v < p, (F, v)
        else:
            assert type(v) in (int, Fraction), (F, v)


@pytest.mark.parametrize("tok", ("q", "f2", "f3", "f5"))
def test_returned_coefficients_are_plain_values_of_the_field(tok, monkeypatch):
    from freehopf import analysis
    from freehopf.analysis import (Subspace, find_primitives, irreducible_level_words,
                                   largest_subcoalgebra)
    from freehopf.linalg import kernel
    from freehopf.words import bi_weight

    F = Field.from_token(tok)
    H = FreeHopfAlgebra(2, "ord:1", F)
    c = Fraction(-7, 2) if tok == "f3" else Fraction(-7, 3)
    a = H.element([(((1, 2, 0), (2, 1, 1)), c), ((), 4), (((2, 2, 0),), -1)])
    b = H.element([(((2, 2, 0), (2, 2, 1)), -5), (((1, 1, 0),), 3)])
    elements = [a, b, a * b, b * a, a + b, a - b, -a, 3 * a, c * b,
                a.antipode(), a.antipode(2)]
    for e in elements:
        _assert_values(F, e.terms.values())
    _assert_values(F, a.coproduct().terms.values())
    _assert_values(F, [a.counit(), b.counit(), H.zero().counit(),
                       a.coefficient(()), a.coefficient(((1, 1, 1),))])
    V = Subspace(H, elements)
    for e in V.basis():
        _assert_values(F, e.terms.values())

    # a map with integer vectors and planted relations, as find_primitives
    # and kernel see it; the relations are planted among the words of
    # bi-weight (0,0), the only ones find_primitives searches
    planted_map = analysis._primitive_map

    def primitive_map(H, words):
        pairs = list(planted_map(H, words))
        (w0, v0), (w1, v1), (w2, _) = pairs[1:4]
        pairs[3] = (w2, {k: v0.get(k, 0) - 2 * v1.get(k, 0) for k in v0.keys() | v1.keys()})
        return iter(pairs)

    monkeypatch.setattr(analysis, "_primitive_map", primitive_map)
    H2 = FreeHopfAlgebra(2, "ord:2", F)
    zero = bi_weight(2, ())
    block = [w for w in H2.basis_words(2) if bi_weight(2, w) == zero]
    combos = kernel(F, primitive_map(H2, block))
    assert combos
    for comb in combos:
        _assert_values(F, comb.values())
    primitives = find_primitives(H2, 2)
    assert primitives
    for e in primitives:
        _assert_values(F, e.terms.values())

    C = largest_subcoalgebra(Subspace.from_words(H, irreducible_level_words(H, (0, 1))))
    for e in C.basis():
        _assert_values(F, e.terms.values())
