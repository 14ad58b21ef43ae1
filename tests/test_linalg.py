"""Sparse echelon forms against dense Gaussian elimination."""

import random
from fractions import Fraction

import pytest

from freehopf import FreeHopfAlgebra
from freehopf.analysis import _primitive_map
from freehopf.fields import Field
from freehopf.hopf import Tensor
from freehopf.linalg import Echelon, combine, kernel

from oracles import oracle_kernel, oracle_rank_p, oracle_rank_q


def _random_sparse(rng, field, ncols, density=0.5):
    vec = {}
    for c in range(ncols):
        if rng.random() < density:
            if field.is_rationals:
                v = field.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            else:
                v = field.scalar(rng.randint(0, field.characteristic - 1))
            if v:
                vec[c] = v
    return vec


def _dense(vec, ncols, field):
    return [vec.get(c, field.zero) for c in range(ncols)]


def test_combine_adds_multiples_and_drops_zeros():
    assert combine([]) == {}
    assert combine(iter(())) == {}
    assert combine([(2, {"a": 1, "b": -1}), (1, {"b": 2, "c": 3})]) == {"a": 2, "c": 3}
    # a zero coefficient, and zero entries in the input, add nothing
    assert combine([(0, {"a": 5}), (3, {"b": 0})]) == {}
    # a key that cancels against acc is removed; acc is filled in place
    acc = {"a": 2, "b": 1}
    out = combine(((c, {"a": 1, "d": c}) for c in (-1, -1)), acc)
    assert out is acc
    assert acc == {"b": 1, "d": 2}
    assert list(acc) == ["b", "d"]
    q = Fraction(1, 3)
    assert combine([(q, {"a": 3, "b": 1}), (-q, {"b": 1})]) == {"a": Fraction(1)}


def test_combine_matches_dense_sums_in_each_field():
    rng = random.Random(5)
    for field in (Field.rationals(), Field.prime(2), Field.prime(5)):
        for trial in range(20):
            ncols = rng.randint(1, 6)
            acc = _random_sparse(rng, field, ncols) if trial % 2 else None
            start = _dense(acc or {}, ncols, field)
            pairs = []
            for _ in range(rng.randint(0, 4)):
                c = rng.choice([0, 1, -1, 2, Fraction(1, 3), field.scalar(rng.randint(0, 4))])
                if isinstance(c, Fraction) and field.characteristic:
                    c = field.scalar(c)
                pairs.append((c, _random_sparse(rng, field, ncols)))
            want = start
            for c, vec in pairs:
                want = [x + c * y for x, y in zip(want, _dense(vec, ncols, field))]
                if field.characteristic:
                    want = [x % field.characteristic for x in want]
            out = combine(pairs, acc, field.characteristic)
            if acc is not None:
                assert out is acc
            assert all(out.values())
            assert all(isinstance(v, type(field.one)) for v in out.values())
            assert _dense(out, ncols, field) == want


def test_rank_matches_oracle():
    rng = random.Random(11)
    for field in (Field.rationals(), Field.prime(2), Field.prime(5)):
        for trial in range(25):
            ncols = rng.randint(1, 8)
            nrows = rng.randint(1, 10)
            vecs = [_random_sparse(rng, field, ncols) for _ in range(nrows)]
            ech = Echelon(field)
            for v in vecs:
                ech.insert(dict(v))
            rows = [_dense(v, ncols, field) for v in vecs]
            if field.is_rationals:
                assert ech.dim == oracle_rank_q(rows)
            else:
                assert ech.dim == oracle_rank_p(rows, field.characteristic)


def test_membership_and_canonical_remainder():
    rng = random.Random(5)
    F = Field.prime(3)
    vecs = [_random_sparse(rng, F, 6) for _ in range(4)]
    ech = Echelon(F)
    for v in vecs:
        ech.insert(dict(v))
    # anything inserted is contained; combinations are contained
    for v in vecs:
        assert ech.contains(v)
    combo = {}
    for v in vecs[:2]:
        for k, c in v.items():
            s = F.scalar(combo.get(k, F.zero) + c)
            if s:
                combo[k] = s
            else:
                combo.pop(k, None)
    assert ech.contains(combo)
    # remainder is canonical: reduce twice gives the same answer, and
    # remainder of a contained vector is empty
    probe = _random_sparse(rng, F, 6)
    r1 = ech.reduce(dict(probe))
    r2 = ech.reduce(dict(probe))
    assert r1 == r2
    assert ech.reduce(r1) == r1


def test_rref_rows_are_canonical():
    rng = random.Random(17)
    F = Field.prime(5)
    vecs = [_random_sparse(rng, F, 5) for _ in range(5)]
    e1 = Echelon(F)
    for v in vecs:
        e1.insert(dict(v))
    e2 = Echelon(F)
    for v in reversed(vecs):
        e2.insert(dict(v))
    assert e1.rows == e2.rows
    # each row holds no other row's pivot and leads with coefficient one
    for p, row in e1.rows.items():
        assert row[p] == F.one
        assert max(row) == p
        for q in e1.rows:
            if q != p:
                assert q not in row


def test_kernel_relations_are_real():
    rng = random.Random(23)
    for field in (Field.rationals(), Field.prime(2), Field.prime(3)):
        vecs = {}
        for t in range(8):
            vecs["v%d" % t] = _random_sparse(rng, field, 5)
        combos = kernel(field, sorted(vecs.items()))
        # dimension count: #inputs - rank
        rows = [_dense(v, 5, field) for _, v in sorted(vecs.items())]
        if field.is_rationals:
            rank = oracle_rank_q(rows)
        else:
            rank = oracle_rank_p(rows, field.characteristic)
        assert len(combos) == len(vecs) - rank
        for comb in combos:
            assert comb  # nontrivial
            acc = {}
            for tag, c in comb.items():
                for k, v in vecs[tag].items():
                    s = field.scalar(acc.get(k, field.zero) + c * v)
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
            assert acc == {}


def _combine(field, coeffs, vecs):
    acc = {}
    for c, vec in zip(coeffs, vecs):
        for k, v in vec.items():
            s = field.scalar(acc.get(k, field.zero) + c * v)
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    return acc


def _random_scalar(rng, field):
    if field.is_rationals:
        return field.scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return field.scalar(rng.randint(0, field.characteristic - 1))


def _plant(rng, field, pairs, count):
    """pairs plus count vectors, each a random combination of up to three
    earlier ones, inserted at random later positions."""
    pairs = list(pairs)
    for t in range(count):
        pos = rng.randint(1, len(pairs))
        picked = rng.sample(pairs[:pos], min(3, pos))
        vec = _combine(field, [_random_scalar(rng, field) for _ in picked],
                       [v for _, v in picked])
        pairs.insert(pos, (("planted", t), vec))
    return pairs


def _rank(field, pairs, keys):
    rows = [[v.get(k, field.zero) for k in keys] for _, v in pairs]
    if field.is_rationals:
        return oracle_rank_q(rows)
    return oracle_rank_p(rows, field.characteristic)


FIELDS = (Field.rationals(), Field.prime(2), Field.prime(3), Field.prime(5))


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.token)
def test_kernel_matches_tracked_oracle_on_planted_relations(field):
    rng = random.Random(31 + field.characteristic)
    for trial in range(30):
        ncols = rng.randint(1, 12)
        pairs = [(t, _random_sparse(rng, field, ncols, density=0.3))
                 for t in range(rng.randint(1, 10))]
        pairs = _plant(rng, field, pairs, rng.randint(0, 4))
        combos = kernel(field, iter(pairs))
        assert combos == oracle_kernel(field, pairs)
        assert len(combos) == len(pairs) - _rank(field, pairs, range(ncols))


@pytest.mark.parametrize("variant", ("free", "ord:1", "ord:2"))
@pytest.mark.parametrize("tok", ("q", "f2", "f3"))
def test_kernel_matches_tracked_oracle_on_primitive_maps(variant, tok):
    field = Field.from_token(tok)
    H = FreeHopfAlgebra(2, variant, field)
    window = None if variant.startswith("ord:") else (0, 1)
    pairs = list(_primitive_map(H, H.basis_words(2, window)))  # integer coefficients
    rng = random.Random(7)
    pairs = _plant(rng, field, pairs, 3)
    combos = kernel(field, pairs)
    assert len(combos) == 3
    scalars = [(t, {k: field.scalar(c) for k, c in v.items()}) for t, v in pairs]
    assert combos == oracle_kernel(field, scalars, key=Tensor._sort_key)
    assert [next(iter(c)) for c in combos] == [t for t, _ in pairs
                                               if t[:1] == ("planted",)]


def test_kernel_columns_need_no_order():
    # str and tuple keys cannot be compared with each other; zero vectors
    # and a repeated vector each close a relation
    F = Field.prime(3)
    one, two, minus_one = F.one, F.scalar(2), F.scalar(-1)
    pairs = [
        ("a", {"x": one, (1, 2): two}),
        ("zero", {}),
        ("b", {(1, 2): one, "y": one}),
        ("a again", {"x": one, (1, 2): two}),
        ("c", {"x": one, "y": one}),
        ("zeros", {"x": F.zero, (3,): F.zero}),
        ("d", {"z": one}),
    ]
    combos = kernel(F, pairs)
    assert combos == [
        {"zero": one},
        {"a again": one, "a": minus_one},
        {"c": one, "a": minus_one, "b": two},
        {"zeros": one},
    ]
    keys = ["x", (1, 2), "y", (3,), "z"]
    assert len(combos) == len(pairs) - _rank(F, pairs, keys)
    for comb in combos:
        assert _combine(F, list(comb.values()),
                        [dict(pairs)[t] for t in comb]) == {}


def test_custom_key_ordering():
    F = Field.rationals()
    ech = Echelon(F, key=lambda k: (len(k), k))
    ech.insert({"aa": F.one, "b": F.one})
    assert ech.pivots() == ["aa"]  # "aa" is largest under the length-first key
    ech.insert({"b": F.one})
    assert sorted(ech.pivots()) == ["aa", "b"]
    # full reduction: the long-key row no longer contains the pivot "b"
    assert "b" not in ech.rows["aa"]
