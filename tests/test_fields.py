"""Field arithmetic against plain int/Fraction models."""

from fractions import Fraction

import pytest

from freehopf.fields import Field, FieldScalar


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
            assert (sx + sy).value == x + y
            assert (sx - sy).value == x - y
            assert (sx * sy).value == x * y
            if y:
                assert (sx / sy).value == x / y
    assert (-F.scalar(Fraction(2, 3))).value == Fraction(-2, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_arithmetic_matches_mod_p(p):
    F = Field.prime(p)
    for a in range(p):
        for b in range(p):
            sa, sb = F.scalar(a), F.scalar(b)
            assert (sa + sb).value == (a + b) % p
            assert (sa - sb).value == (a - b) % p
            assert (sa * sb).value == (a * b) % p
            if b % p:
                q = (sa / sb).value
                assert (q * b) % p == a % p


def test_fraction_coercion_into_prime_field():
    F = Field.prime(5)
    assert F.scalar(Fraction(1, 2)).value == 3  # 2*3 = 6 = 1 mod 5
    assert F.scalar(Fraction(7, 3)).value == (7 * pow(3, 3, 5)) % 5
    with pytest.raises(ZeroDivisionError):
        F.scalar(Fraction(1, 5))


def test_division_by_zero():
    for F in (Field.rationals(), Field.prime(3)):
        with pytest.raises(ZeroDivisionError):
            F.one / F.zero


def test_mixed_field_operations_rejected():
    a = Field.prime(2).one
    b = Field.prime(3).one
    with pytest.raises(ValueError, match="mixed fields"):
        a + b
    assert a != b
    with pytest.raises(ValueError):
        Field.prime(3).scalar(a)


def test_string_scalars():
    F = Field.rationals()
    assert F.scalar("-3/2").value == Fraction(-3, 2)
    G = Field.prime(7)
    assert G.scalar("12").value == 5
    assert G.scalar("-1").value == 6


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
    assert (F.scalar(3) ** 6).value == 1
    Q = Field.rationals()
    assert (Q.scalar(Fraction(2, 3)) ** 2).value == Fraction(4, 9)
