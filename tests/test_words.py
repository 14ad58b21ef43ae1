"""Level domains, letters, and the word partial order."""

import random
from itertools import product as iproduct

import pytest

from freehopf.words import (
    UNIT,
    LevelDomain,
    letter,
    letter_str,
    storage_key,
    word_str,
)

from oracles import Ordering, compare_words, oracle_storage_key


def test_level_domains():
    nat, integers, mod4 = LevelDomain.nat(), LevelDomain.integers(), LevelDomain.mod(4)
    assert nat.canon(3) == 3
    with pytest.raises(ValueError):
        nat.canon(-1)
    assert integers.canon(-5) == -5
    assert mod4.canon(7) == 3
    assert mod4.canon(-1) == 3
    assert nat.up(0) == 1
    assert mod4.up(3) == 0
    with pytest.raises(ValueError):
        nat.step(0, -1)
    assert integers.step(0, -3) == -3
    assert mod4.step(1, 6) == 3
    with pytest.raises(ValueError):
        LevelDomain.mod(3)  # modulus must be even
    with pytest.raises(ValueError):
        LevelDomain.mod(0)
    assert str(nat) == "N" and str(integers) == "Z" and str(mod4) == "Z/4"


def test_levels_windows():
    assert LevelDomain.mod(2).levels(None) == (0, 1)
    assert LevelDomain.nat().levels((0, 2)) == (0, 1, 2)
    assert LevelDomain.integers().levels((-1, 1)) == (-1, 0, 1)
    with pytest.raises(ValueError):
        LevelDomain.nat().levels(None)
    with pytest.raises(ValueError):
        LevelDomain.nat().levels((-1, 2))


def test_letter_validation():
    nat = LevelDomain.nat()
    assert letter(2, nat, 1, 2, 0) == (1, 2, 0)
    with pytest.raises(ValueError):
        letter(2, nat, 0, 1, 0)
    with pytest.raises(ValueError):
        letter(2, nat, 3, 1, 0)
    with pytest.raises(ValueError):
        letter(2, nat, 1, 1, -1)  # domain boundary
    assert letter(2, LevelDomain.mod(2), 1, 1, 5) == (1, 1, 1)
    assert letter(2, LevelDomain.integers(), 2, 2, -4) == (2, 2, -4)


def test_strings():
    assert letter_str((1, 2, 0)) == "x[1,2;0]"
    assert word_str(UNIT) == "1"
    assert word_str(((1, 2, 0), (2, 1, 1))) == "x[1,2;0]*x[2,1;1]"


def _all_words(n, levels, length):
    alphabet = [(i, j, r) for r in levels
                for i in range(1, n + 1) for j in range(1, n + 1)]
    return [w for w in iproduct(alphabet, repeat=length)]


def test_partial_order_properties():
    words = [UNIT] + _all_words(2, (0, 1), 1) + _all_words(2, (0, 1), 2)
    for a in words:
        assert compare_words(a, a) is Ordering.EQUAL
        for b in words:
            ab = compare_words(a, b)
            ba = compare_words(b, a)
            if ab is Ordering.LESS:
                assert ba is Ordering.GREATER
            if ab is Ordering.INCOMPARABLE:
                assert ba is Ordering.INCOMPARABLE
            # shorter words are always smaller
            if len(a) < len(b):
                assert ab is Ordering.LESS
            # equal length with different level sequences: incomparable
            if len(a) == len(b) and a != b:
                la = tuple(x[2] for x in a)
                lb = tuple(x[2] for x in b)
                if la != lb:
                    assert ab is Ordering.INCOMPARABLE


def test_order_is_monoid_compatible():
    words = _all_words(2, (0, 1), 1) + _all_words(2, (0, 1), 2)[:40]
    pairs = [(a, b) for a in words for b in words
             if compare_words(a, b) is Ordering.LESS][:200]
    contexts = [UNIT, ((1, 1, 0),), ((2, 2, 1),)]
    for a, b in pairs:
        for left in contexts:
            for right in contexts:
                assert compare_words(left + a + right, left + b + right) is Ordering.LESS


def test_storage_key_refines_order():
    words = [UNIT] + _all_words(2, (0, 1), 1) + _all_words(2, (0, 1), 2)
    for a in words:
        for b in words:
            if compare_words(a, b) is Ordering.LESS:
                assert storage_key(a) < storage_key(b)
            if a == b:
                assert storage_key(a) == storage_key(b)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("dom,window", (
    (LevelDomain.nat(), (0, 2)),
    (LevelDomain.integers(), (-2, 0)),
    (LevelDomain.mod(2), None),
    (LevelDomain.mod(4), None),
))
def test_storage_key_sorts_like_the_oracle_key(n, dom, window):
    levels = dom.levels(window)
    words = [w for length in range(4) for w in _all_words(n, levels, length)]
    random.Random(n).shuffle(words)
    by_key = sorted(words, key=storage_key)
    assert by_key == sorted(words, key=oracle_storage_key)
    # a total order: no two words share a key
    assert len({storage_key(w) for w in words}) == len(words)
