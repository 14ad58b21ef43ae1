"""Subspaces, subcoalgebra verdicts, searches, and the scan."""

import random

import pytest

from freehopf import (
    Field,
    FreeHopfAlgebra,
    Subspace,
    alternating_span,
    antipode_power_report,
    find_grouplikes,
    find_primitives,
    gaussian_binomial,
    irreducible_level_span,
    is_subcoalgebra,
    largest_subcoalgebra,
    level_span,
    parse_element,
    scan_matrix_subcoalgebras,
    tensor_membership,
    verify_coalgebra_map,
)
from freehopf import analysis
from freehopf.analysis import (
    Verdict,
    _primitive_map,
    alternating_words,
    _subcoalgebras,
    _tensor_remainder,
    irreducible_level_words,
)

from freehopf.hopf import Tensor
from freehopf.rewrite import _verified_grading
from freehopf.words import UNIT, bi_weight, storage_key

from mutants import (break_grading, break_one, break_one_nat, drop_delta, drop_delta_r1,
                     make_primitive, patch_map, patch_reduce_once, replace_deltas)
from oracles import (enumerate_rref, oracle_find_grouplikes, oracle_find_primitives,
                     oracle_rank_p, oracle_scan_gf2, oracle_subcoalgebras,
                     oracle_tensor_remainder)

H1Q = FreeHopfAlgebra(2, "ord:1", Field.rationals())
H1F2 = FreeHopfAlgebra(2, "ord:1", Field.prime(2))
H1F3 = FreeHopfAlgebra(2, "ord:1", Field.prime(3))
H2F2 = FreeHopfAlgebra(2, "ord:2", Field.prime(2))
HFQ = FreeHopfAlgebra(2, "free", Field.rationals())


def test_subspace_basics():
    V = Subspace(H1Q, [H1Q.gen(1, 1, 0), H1Q.gen(1, 2, 0),
                       H1Q.gen(1, 1, 0) + H1Q.gen(1, 2, 0)])
    assert V.dim == 2
    assert V.contains(3 * H1Q.gen(1, 1, 0) - H1Q.gen(1, 2, 0))
    assert not V.contains(H1Q.gen(2, 1, 0))
    assert not V.contains(H1Q.one())
    W = Subspace(H1Q, [H1Q.gen(1, 2, 0), H1Q.gen(1, 1, 0)])
    assert V == W  # canonical echelon rows
    assert V.reduce(H1Q.gen(1, 1, 0)).is_zero()


def test_level_span_dimensions():
    # the full image span picks up the unit through the rewrite relations
    assert level_span(H1F2, (0, 1)).dim == 10
    assert level_span(H2F2, (0, 1)).dim == 13
    assert level_span(HFQ, (0, 1)).dim == 13
    assert level_span(H1F2, (0, 1)).contains(H1F2.one())
    # the irreducible-word span is the unit-free ambient used by the scan
    assert irreducible_level_span(H1F2, (0, 1)).dim == 9
    assert irreducible_level_span(H2F2, (0, 1)).dim == 12
    assert len(irreducible_level_words(H1F2, (0, 1))) == 9


def test_level_span_is_a_subcoalgebra():
    for H in (H1F2, H1Q, H2F2):
        assert is_subcoalgebra(level_span(H, (0, 1))).ok
        assert is_subcoalgebra(level_span(H, (0, 0))).ok


def test_alternating_span_words():
    D = alternating_span(H1F2, (0, 1))
    assert D.dim == 4
    names = sorted(str(b) for b in D.basis())
    assert names == [
        "x[1,1;0]*x[2,2;1]",
        "x[1,2;0]*x[2,1;1]",
        "x[2,1;0]*x[1,2;1]",
        "x[2,2;0]*x[1,1;1]",
    ]
    with pytest.raises(ValueError):
        alternating_span(FreeHopfAlgebra(3, "ord:1", Field.prime(2)), (0, 1))


def test_alternating_span_verdicts():
    # wild cases: order 1 with matching characteristic
    assert is_subcoalgebra(alternating_span(H1F2, (0, 1))).ok
    assert is_subcoalgebra(alternating_span(H1F2, (1, 0))).ok
    assert is_subcoalgebra(alternating_span(H1F3, (0, 1, 0))).ok
    assert is_subcoalgebra(alternating_span(H1F3, (1, 0, 1))).ok
    # tame cases fail, with a witness
    for H, seq in ((H1Q, (0, 1)), (H2F2, (0, 1)), (H1F2, (0, 0)),
                   (HFQ, (0, 1)), (H1F3, (0, 1))):
        v = is_subcoalgebra(alternating_span(H, seq))
        assert not v.ok
        assert v.witness is not None and v.detail
        assert isinstance(v, Verdict)


def test_tensor_membership():
    D = alternating_span(H1F2, (0, 1))
    x = parse_element("x[1,2;0]*x[2,1;1]", H1F2)
    assert tensor_membership(x.coproduct(), D, D)
    y = parse_element("x[1,1;0]*x[1,1;1]", H1F2)
    assert not tensor_membership(y.coproduct(), D, D)
    full = irreducible_level_span(H1F2, (0, 1))
    assert tensor_membership(y.coproduct(), full, full) is False  # unit leg escapes
    C = level_span(H1F2, (0, 1))
    assert tensor_membership(y.coproduct(), C, C)
    with pytest.raises(TypeError):
        tensor_membership(x, D, D)


def test_tensor_membership_rejects_foreign_algebras():
    D = alternating_span(H1F2, (0, 1))
    x = parse_element("x[1,2;0]*x[2,1;1]", H1F2)
    D2 = alternating_span(H2F2, (0, 1))
    x2 = parse_element("x[1,2;0]*x[2,1;1]", H2F2)
    for t, V, W in ((x.coproduct(), D2, D2), (x2.coproduct(), D, D),
                    (x.coproduct(), D, D2), (x.coproduct(), D2, D)):
        with pytest.raises(ValueError):
            tensor_membership(t, V, W)


def test_subspace_reduce_rejects_foreign_element():
    D = alternating_span(H1F2, (0, 1))
    with pytest.raises(ValueError):
        D.reduce(FreeHopfAlgebra(3, "free", Field.prime(2)).gen(3, 3, 0))
    with pytest.raises(ValueError):
        D.reduce(H2F2.gen(1, 1, 0))


def _random_span(rng, H, seqs, count):
    """Span of random combinations of words at the given level sequences."""
    pool = [w for seq in seqs for w in irreducible_level_words(H, seq)]
    p = H.field.characteristic or 5
    return Subspace(H, [
        H.element([(rng.choice(pool), rng.randrange(1, p))
                   for _ in range(rng.randint(1, 4))])
        for _ in range(count)
    ])


@pytest.mark.parametrize("tok", ("q", "f2", "f3"))
def test_tensor_remainder_matches_pair_echelon_oracle(tok):
    rng = random.Random(17)
    H = FreeHopfAlgebra(2, "ord:1", Field.from_token(tok))
    levels = ((0,), (1,), (0, 1), (1, 0))
    p = H.field.characteristic or 5
    for trial in range(12):
        V = _random_span(rng, H, rng.sample(levels, 2), rng.randint(0, 7))
        W = V if trial % 3 == 0 else _random_span(
            rng, H, rng.sample(levels, 2), rng.randint(0, 7))
        if trial == 1:
            V = Subspace(H)
        words = [w for S in (V, W) for b in S.basis() for w in b.terms]
        words += irreducible_level_words(H, rng.choice(levels))
        tensors = [b.coproduct().terms for b in V.basis() + W.basis()]
        for _ in range(4):
            # a random member of V (x) W plus random word pairs
            t = Tensor(H, {})
            for _ in range(min(V.dim, W.dim, 3)):
                t = t + rng.randrange(1, p) * H.tensor(
                    rng.choice(V.basis()), rng.choice(W.basis()))
            terms = dict(t.terms)
            for _ in range(rng.randint(0, 8)):
                terms[(rng.choice(words), rng.choice(words))] = (
                    H.field.scalar(rng.randrange(1, p)))
            tensors.append(terms)
        for terms in tensors:
            assert _tensor_remainder(terms, V, W) == oracle_tensor_remainder(terms, V, W)
            assert _tensor_remainder(terms, W, V) == oracle_tensor_remainder(terms, W, V)


def test_find_primitives_zero_on_grid():
    for variant in ("free", "ord:1"):
        for tok in ("q", "f2", "f3"):
            H = FreeHopfAlgebra(2, variant, Field.from_token(tok))
            window = (0, 2) if H.domain.kind != "mod" else None
            assert find_primitives(H, 3, window) == []


# (variant, level window) of the primitive searches, one per domain kind
PRIMITIVE_WINDOWS = (("free", (0, 2)), ("bij", (-1, 1)), ("ord:1", None), ("ord:2", None))


def _spy_primitive_words(monkeypatch):
    """The word lists find_primitives hands to _primitive_map, one per call."""
    seen = []

    def spy(H, words):
        seen.append(list(words))
        return _primitive_map(H, seen[-1])

    monkeypatch.setattr(analysis, "_primitive_map", spy)
    return seen


def _block00(H, max_len, levels):
    zero = bi_weight(H.n, UNIT)
    return [w for w in H.basis_words(max_len, levels) if bi_weight(H.n, w) == zero]


@pytest.mark.parametrize("n,max_len", [(2, m) for m in range(5)] + [(3, m) for m in range(4)])
@pytest.mark.parametrize("variant,levels", PRIMITIVE_WINDOWS + (("free", (1, 3)), ("bij", (-3, -1))))
def test_zero_weight_walk_is_the_filtered_basis(n, max_len, variant, levels):
    # free (1, 3) starts on an odd level, bij (-3, -1) on odd negative ones
    H = FreeHopfAlgebra(n, variant)
    walk = H.rules.irreducible_words(max_len, levels, zero_weight=True)
    assert walk == _block00(H, max_len, levels)


@pytest.mark.parametrize("n,max_len", ((2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)))
@pytest.mark.parametrize("variant,levels", PRIMITIVE_WINDOWS)
def test_find_primitives_matches_full_kernel_oracle(monkeypatch, n, max_len, variant, levels):
    seen = _spy_primitive_words(monkeypatch)
    for tok in ("q", "f2", "f3"):
        H = FreeHopfAlgebra(n, variant, Field.from_token(tok))
        assert _verified_grading(H.rules, levels)
        assert find_primitives(H, max_len, levels) == oracle_find_primitives(H, max_len, levels)
        assert seen.pop() == _block00(H, max_len, levels)


@pytest.mark.parametrize("variant,levels", PRIMITIVE_WINDOWS)
def test_primitive_map_is_block_diagonal(variant, levels):
    for n, max_len in ((2, 3), (3, 2)):
        H = FreeHopfAlgebra(n, variant)
        weights = {}
        for w, vec in _primitive_map(H, H.basis_words(max_len, levels)):
            for key in vec:
                weights.setdefault(key, set()).add(bi_weight(n, w))
        assert weights and all(len(ws) == 1 for ws in weights.values())


@pytest.mark.parametrize("variant,levels", PRIMITIVE_WINDOWS)
def test_find_primitives_falls_back_when_the_rules_break_the_grading(
        monkeypatch, variant, levels):
    patch_reduce_once(monkeypatch, break_grading)
    seen = _spy_primitive_words(monkeypatch)
    for tok in ("q", "f2", "f3"):
        H = FreeHopfAlgebra(2, variant, Field.from_token(tok))
        assert not _verified_grading(H.rules, levels)
        assert find_primitives(H, 2, levels) == oracle_find_primitives(H, 2, levels)
        assert seen.pop() == H.basis_words(2, levels)


# (rule edit, variant, level window, max_len): each edit breaks rules that
# the window's words use
GRADED_MUTANTS = tuple(
    (edit, variant, levels, 2) for edit in (drop_delta, drop_delta_r1)
    for variant, levels in PRIMITIVE_WINDOWS
) + ((break_one, "ord:2", None, 3), (break_one_nat, "free", (2, 4), 3))


@pytest.mark.parametrize("edit,variant,levels,max_len", GRADED_MUTANTS)
def test_find_primitives_matches_oracle_under_graded_rule_mutants(
        monkeypatch, edit, variant, levels, max_len):
    # the rule mutants keep the bi-weight, so the restricted search runs
    patch_reduce_once(monkeypatch, edit)
    for tok in ("q", "f2", "f3"):
        H = FreeHopfAlgebra(2, variant, Field.from_token(tok))
        assert _verified_grading(H.rules, levels)
        assert find_primitives(H, max_len, levels) == oracle_find_primitives(H, max_len, levels)


def test_find_primitives_detects_planted_kernel(monkeypatch):
    # a coproduct edit makes one word of bi-weight (0,0) primitive and keeps
    # the grading; the restricted search and the full-kernel oracle both
    # find it, and it solves the primitive equation
    target = _block00(H1Q, 2, None)[1]
    patch_map(monkeypatch, "delta_word", make_primitive(target, H1Q.delta_word(target)))
    seen = _spy_primitive_words(monkeypatch)
    for tok in ("q", "f2", "f3"):
        H = FreeHopfAlgebra(2, "ord:1", Field.from_token(tok))
        assert _verified_grading(H.rules, None)
        els = find_primitives(H, 2)
        assert seen.pop() == _block00(H, 2, None)
        assert els == oracle_find_primitives(H, 2) == [H.word(target)]
        assert els[0].coproduct() == H.tensor(els[0], H.one()) + H.tensor(H.one(), els[0])


def test_find_grouplikes():
    one = H1F2.one()
    assert find_grouplikes(Subspace(H1F2, [one])) == [one]
    # rationals beyond span{1} are refused
    with pytest.raises(ValueError):
        find_grouplikes(Subspace(H1Q, [H1Q.one(), H1Q.gen(1, 1, 0)]))
    # brute-force consistency on a small F2 subspace
    V = Subspace(H1F2, [one, parse_element("x[1,1;0]*x[2,2;1]", H1F2)])
    found = find_grouplikes(V)
    oracle = []
    b = V.basis()
    for c0 in (0, 1):
        for c1 in (0, 1):
            if not (c0 or c1):
                continue
            x = c0 * b[0] + c1 * b[1]
            if x.counit() == H1F2.field.one and x.coproduct() == H1F2.tensor(x, x):
                oracle.append(str(x))
    assert sorted(str(g) for g in found) == sorted(oracle)
    assert [str(g) for g in found] == ["1"]
    # the bound is enforced
    big = Subspace(H1F3, [H1F3.gen(i, j, 0) for i in (1, 2) for j in (1, 2)]
                   + [H1F3.gen(i, j, 1) for i in (1, 2) for j in (1, 2)]
                   + [H1F3.one()] + [H1F3.word(((1, 1, 0), (1, 1, 1)))] * 1
                   + [H1F3.word(((1, 1, 0), (1, 2, 1)))]
                   + [H1F3.word(((1, 1, 0), (2, 1, 1)))]
                   + [H1F3.word(((1, 1, 0), (2, 2, 1)))]
                   + [H1F3.word(((1, 2, 0), (1, 1, 1)))]
                   + [H1F3.word(((1, 2, 0), (2, 1, 1)))]
                   + [H1F3.word(((2, 1, 0), (1, 1, 1)))]
                   + [H1F3.word(((2, 1, 0), (1, 2, 1)))])
    assert big.dim >= 16
    # the bound counts the lines of V's largest subcoalgebra, here 9-dim with
    # (3^9 - 1)/2 lines, not the 3^dim vectors of V; every grouplike of V
    # lies in that subcoalgebra
    core = largest_subcoalgebra(big)
    assert core.dim == 9
    found = find_grouplikes(big)
    assert [str(g) for g in found] == ["1"]
    assert sorted(map(str, found)) == sorted(map(str, oracle_find_grouplikes(core)))
    # C0+C1+C2+C3 of ord:2 over GF(3) is a 16-dim subcoalgebra: (3^16 - 1)/2
    # lines exceed the bound
    H2F3 = FreeHopfAlgebra(2, "ord:2", Field.prime(3))
    letters = Subspace(H2F3, [H2F3.gen(i, j, r) for r in range(4) for i in (1, 2) for j in (1, 2)])
    with pytest.raises(ValueError, match="search space of size 21523360 exceeds the bound 16777216"):
        find_grouplikes(letters)


def test_gaussian_binomial():
    assert gaussian_binomial(9, 4, 2) == 3309747
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(5, 0, 2) == 1
    assert gaussian_binomial(5, 5, 7) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    # recursion [m k]_q = q^k [m-1 k]_q + [m-1 k-1]_q
    for m in range(1, 8):
        for k in range(1, m + 1):
            for q in (2, 3, 5):
                assert gaussian_binomial(m, k, q) == (
                    q ** k * gaussian_binomial(m - 1, k, q)
                    + gaussian_binomial(m - 1, k - 1, q)
                )


@pytest.mark.parametrize("p,m,k", [(2, 4, 2), (2, 5, 3), (3, 4, 2), (5, 3, 2)])
def test_enumerate_rref_counts_and_uniqueness(p, m, k):
    seen = set()
    for rows in enumerate_rref(p, m, k):
        assert len(rows) == k
        assert oracle_rank_p([list(r) for r in rows], p) == k
        seen.add(tuple(sorted(rows)))
    assert len(seen) == gaussian_binomial(m, k, p)


def test_scan_candidate_mode():
    rep = scan_matrix_subcoalgebras(H1F2, (0, 1), mode="candidate")
    assert rep.contains_alternating is True
    assert len(rep.found) == 1 and rep.found[0] == alternating_span(H1F2, (0, 1))
    rep = scan_matrix_subcoalgebras(H1Q, (0, 1), mode="candidate")
    assert rep.found == [] and rep.contains_alternating is False
    rep = scan_matrix_subcoalgebras(H1F2, (0, 0), mode="candidate")
    assert rep.found == [] and rep.contains_alternating is False
    with pytest.raises(ValueError):
        scan_matrix_subcoalgebras(H1F2, (0, 1), mode="nonsense")


def _canon(V):
    """Hashable form of a subspace: its reduced basis, printed."""
    return tuple(str(b) for b in V.basis())


def _mask_subspaces(H, B, masks):
    return [
        Subspace(H, [H.element([(B[t], 1) for t in range(len(B)) if (r >> t) & 1])
                     for r in rows])
        for rows in masks
    ]


def test_scan_exhaustive_small_and_bitmask_oracle():
    # dimension-2 scan of a 4-dim ambient: cross-check the word-coordinate
    # bitmask oracle and the scan against a direct enumerate+is_subcoalgebra
    # sweep
    H = H1F2
    seq = (0,)
    B = irreducible_level_words(H, seq)
    assert len(B) == 4
    direct = []
    for rows in enumerate_rref(2, len(B), 2):
        els = [H.element([(B[c], v) for c, v in enumerate(row) if v])
               for row in rows]
        V = Subspace(H, els)
        if is_subcoalgebra(V).ok:
            direct.append(V)
    fast = _mask_subspaces(H, B, oracle_scan_gf2(H, B, 2))
    assert len(fast) == len(direct)
    for V in fast:
        assert any(V == W for W in direct)
    report = scan_matrix_subcoalgebras(H, seq, mode="exhaustive", dimension=2)
    assert report.subspace_count == gaussian_binomial(4, 2, 2)
    assert len(report.found) == len(direct)
    assert {_canon(V) for V in report.found} == {_canon(V) for V in direct}


ORACLE_CASES = (
    [("ord:1", (0,), k) for k in range(5)]
    + [("ord:1", (0, 1), k) for k in (1, 2, 3)]
    + [("ord:1", (1, 0), 4), ("ord:2", (0, 1), 1), ("free", (0, 1), 1),
       ("ord:2", (0,), 2)]
)


@pytest.mark.parametrize(
    "variant,seq,k", ORACLE_CASES,
    ids=["%s-%s-k%d" % (v, ",".join(map(str, s)), k) for v, s, k in ORACLE_CASES],
)
def test_scan_exhaustive_matches_word_oracle(variant, seq, k):
    # the scan enumerates inside the largest subcoalgebra; the oracle
    # enumerates every k-dim subspace of the whole level span
    H = FreeHopfAlgebra(2, variant, Field.prime(2))
    B = irreducible_level_words(H, seq)
    oracle = _mask_subspaces(H, B, oracle_scan_gf2(H, B, k))
    report = scan_matrix_subcoalgebras(H, seq, mode="exhaustive", dimension=k)
    assert report.subspace_count == gaussian_binomial(len(B), k, 2)
    found = {_canon(V) for V in report.found}
    assert len(found) == len(report.found)
    assert found == {_canon(V) for V in oracle}
    C = largest_subcoalgebra(irreducible_level_span(H, seq))
    assert report.core_dim == C.dim
    for V in oracle:
        assert all(C.contains(b) for b in V.basis())


def test_scan_gf2_core_finds_proper_subcoalgebras():
    # the level spans above have only 0 and the whole core as answers; the
    # sum of the level-0 and level-1 matrix coalgebras has two proper
    # 4-dim subcoalgebras, which the core must find as the oracle does
    H = H1F2
    B = sorted(irreducible_level_words(H, (0,)) + irreducible_level_words(H, (1,)),
               key=storage_key)
    C = Subspace.from_words(H, B)  # its reduced basis is B, in this order
    assert largest_subcoalgebra(C) == C
    for k, count in ((2, 0), (4, 2), (8, 1)):
        # C's basis is B, so the oracle's word masks are coordinate rows on C
        oracle = [tuple(tuple((r >> t) & 1 for t in range(len(B))) for r in masks)
                  for masks in oracle_scan_gf2(H, B, k)]
        assert _subcoalgebras(C, k) == oracle and len(oracle) == count
    # at k = 8 the one answer is C itself
    assert oracle == oracle_subcoalgebras(C, 8) == [
        tuple(tuple(int(a == t) for t in range(8)) for a in range(8))]


def _c0_spans(p):
    """C0 (the level-0 letters) and span{1} + C0 of ord:1 over GF(p); each
    has its words, in storage order, as its reduced basis."""
    H = FreeHopfAlgebra(2, "ord:1", Field.prime(p))
    words = irreducible_level_words(H, (0,))
    return {"C0": Subspace.from_words(H, words),
            "1+C0": Subspace.from_words(H, [UNIT] + words)}


# the subcoalgebras of C0, a simple coalgebra over every field, are 0 and C0,
# and those of span{1} + C0 are the sums of 0, k1 and C0.  GF(5) span{1} + C0
# at k = 3 is left out: like k = 2 it has 20306 subspaces, which the oracle
# takes over 2 s to test
CORE_CASES = [(p, name, k) for p in (2, 3, 5) for name, m in (("C0", 4), ("1+C0", 5))
              for k in range(m + 1) if (p, name, k) != (5, "1+C0", 3)]


@pytest.mark.parametrize("p,name,k", CORE_CASES,
                         ids=["f%d-%s-k%d" % case for case in CORE_CASES])
def test_subcoalgebra_core_matches_the_oracle(p, name, k):
    C = _c0_spans(p)[name]
    assert largest_subcoalgebra(C) == C
    found = _subcoalgebras(C, k)
    assert found == oracle_subcoalgebras(C, k)
    m = C.dim
    if name == "1+C0" and k in (1, 4):
        # k1, and C0 beside the unit
        assert found == [tuple(tuple(int(t == a + (k == 4)) for t in range(m))
                               for a in range(k))]
    else:
        assert len(found) == (k in (0, m))


def test_column_spans_of_c0_are_one_sided_coideals():
    # Delta(x[i,j;0]) = sum_a x[i,a;0] (x) x[a,j;0], so the span V of one
    # column of letters has Delta(V) in C0 (x) V but not in V (x) C0: the
    # rows of each M(u) lie in V and its columns do not.  A core that tested
    # only the rows would report these spans at k = 2, where the comparison
    # with the oracle above finds nothing.
    for p in (2, 3, 5):
        C0 = _c0_spans(p)["C0"]
        H = C0.algebra
        for j in (1, 2):
            V = Subspace.from_words(H, [((1, j, 0),), ((2, j, 0),)])
            for b in V.basis():
                assert tensor_membership(H.coproduct(b), C0, V)
                assert not tensor_membership(H.coproduct(b), V, C0)
        assert _subcoalgebras(C0, 2) == []


def test_find_grouplikes_matches_the_oracle(monkeypatch):
    # eps(y) = 0, eps(w) = 1, and y comes first in storage order
    y, w = ((1, 2, 0), (2, 1, 1)), ((2, 2, 0), (1, 1, 1))
    for p in (2, 3):
        H = FreeHopfAlgebra(2, "ord:1", Field.prime(p))
        c0 = irreducible_level_words(H, (0,))
        spans = [
            [UNIT] + c0,
            alternating_words(H, (0, 1)),
            # x[1,1;0] lies outside every subcoalgebra of the span
            [UNIT, ((1, 1, 0),), y, w],
        ]
        if p == 2:
            spans.append([UNIT] + c0 + irreducible_level_words(H, (1,)))
        for words in spans:
            V = Subspace.from_words(H, words)
            assert find_grouplikes(V) == oracle_find_grouplikes(V)
    # plant grouplikes: with Delta(w) = w (x) w and
    # Delta(y) = 2 y (x) y + y (x) w + w (x) y, both w and 2y + w are
    # grouplike over GF(3), and the core's line through y + 2w has counit 2
    H = FreeHopfAlgebra(2, "ord:1", Field.prime(3))
    patch_map(monkeypatch, "delta_word", replace_deltas([
        (H.delta_word(y), {(y, y): 2, (y, w): 1, (w, y): 1}),
        (H.delta_word(w), {(w, w): 1}),
    ]))
    H = FreeHopfAlgebra(2, "ord:1", Field.prime(3))  # built on the patched coproduct
    V = Subspace.from_words(H, [UNIT, ((1, 1, 0),), y, w])
    found = find_grouplikes(V)
    assert found == oracle_find_grouplikes(V)
    assert sorted(map(str, found)) == sorted(
        map(str, [H.one(), H.word(w), 2 * H.word(y) + H.word(w)]))


@pytest.mark.parametrize("variant,tok,core_dim", [
    ("ord:1", "f2", 4), ("ord:2", "f2", 9), ("free", "f2", 9),
    ("ord:1", "q", 0), ("ord:1", "f3", 0),
])
def test_largest_subcoalgebra_of_level_span(variant, tok, core_dim):
    H = FreeHopfAlgebra(2, variant, Field.from_token(tok))
    C = largest_subcoalgebra(irreducible_level_span(H, (0, 1)))
    assert C.dim == core_dim
    assert is_subcoalgebra(C).ok


def test_largest_subcoalgebra_fixed_points():
    assert (largest_subcoalgebra(irreducible_level_span(H1F2, (0, 1)))
            == alternating_span(H1F2, (0, 1)))
    # a span that is already a subcoalgebra comes back unchanged
    for H in (H1F2, H1Q, H1F3, H2F2):
        V = irreducible_level_span(H, (0,))
        assert is_subcoalgebra(V).ok
        assert largest_subcoalgebra(V) == V
        W = level_span(H, (0, 1))
        assert largest_subcoalgebra(W) == W
    # and so does the zero space
    Z = Subspace(H1F2)
    assert largest_subcoalgebra(Z) == Z


def test_largest_subcoalgebra_of_full_ord2_gf2_span():
    # all 241 irreducible words of length <= 2 span a subcoalgebra
    V = Subspace.from_words(H2F2, H2F2.basis_words(2))
    assert V.dim == 241
    assert is_subcoalgebra(V).ok
    assert largest_subcoalgebra(V) == V


def test_scan_exhaustive_generic_p_matches_candidate():
    # a tiny GF(3) exhaustive run exercises the generic path; candidate and
    # exhaustive must agree on the alternating span wherever both run
    H = H1F3
    seq = (0,)
    rep = scan_matrix_subcoalgebras(H, seq, mode="exhaustive", dimension=1)
    assert rep.subspace_count == gaussian_binomial(4, 1, 3)
    for V in rep.found:
        assert is_subcoalgebra(V).ok
    # the generic path enumerates inside the (here 4-dim) core; it must
    # find what a direct sweep over every line of the level span finds
    B = irreducible_level_words(H, seq)
    direct = []
    for rows in enumerate_rref(3, len(B), 1):
        V = Subspace(H, [H.element([(B[c], v) for c, v in enumerate(row) if v])
                         for row in rows])
        if is_subcoalgebra(V).ok:
            direct.append(V)
    assert rep.core_dim == 4
    assert len(rep.found) == len(direct)
    assert {_canon(V) for V in rep.found} == {_canon(V) for V in direct}
    # at levels (0,1) the core is 0, so none of the 9841 lines is searched
    rep = scan_matrix_subcoalgebras(H, (0, 1), mode="exhaustive", dimension=1)
    assert rep.subspace_count == 9841 and rep.core_dim == 0
    assert rep.found == [] and rep.contains_alternating is False


def test_scan_bound_refusal():
    with pytest.raises(ValueError, match="bound"):
        scan_matrix_subcoalgebras(H2F2, (0, 1), mode="exhaustive")
    with pytest.raises(ValueError, match="prime"):
        scan_matrix_subcoalgebras(H1Q, (0, 1), mode="exhaustive")


def test_verify_coalgebra_map_families():
    H = HFQ
    trivial = [[H.one() if i == j else H.zero() for j in range(2)]
               for i in range(2)]
    assert verify_coalgebra_map(H, trivial)
    for r in (0, 1, 2, 3):
        fam = [[H.gen(i, j, r) for j in (1, 2)] for i in (1, 2)]
        assert verify_coalgebra_map(H, fam)
    # transposing the image family breaks the coproduct compatibility
    bad = [[H.gen(j, i, 1) for j in (1, 2)] for i in (1, 2)]
    assert not verify_coalgebra_map(H, bad)
    with pytest.raises(ValueError):
        verify_coalgebra_map(H, [[H.one()]])


def test_verify_coalgebra_map_rejects_non_maps():
    H = HFQ
    zero, one = H.zero(), H.one()

    def fam(fn):
        return [[fn(i, j) for j in (1, 2)] for i in (1, 2)]

    rejected = [
        fam(lambda i, j: H.gen(j, i, 1)),                       # transposed
        fam(lambda i, j: zero if (i, j) == (1, 1) else H.gen(i, j, 0)),
        fam(lambda i, j: H.gen(i, j, 0) + H.gen(i, j, 1)),      # mixed levels
        fam(lambda i, j: (one if i == j else zero) + H.gen(i, j, 0)),
        fam(lambda i, j: H.gen(i, j, 0) if i == 1 else H.gen(i, j, 2)),
    ]
    for images in rejected:
        assert not verify_coalgebra_map(H, images)


def test_antipode_power_report():
    rep = antipode_power_report(HFQ, 10)
    assert rep["distinct"] == 11
    assert rep["period"] is None
    assert rep["witness_images"][0] == "x[1,2;0]"
    assert rep["witness_images"][1] == "x[2,1;1]"
    assert rep["witness_images"][2] == "x[1,2;2]"
    for d in (1, 2, 3):
        H = FreeHopfAlgebra(2, "ord:%d" % d, Field.rationals())
        r = antipode_power_report(H, 2 * d)
        assert r["period"] == 2 * d
        assert r["distinct"] == 2 * d


def test_scan_report_shape():
    rep = scan_matrix_subcoalgebras(H1F2, (0, 1), mode="candidate")
    doc = rep.describe()
    assert set(doc) >= {"config", "levels", "mode", "dimension", "ambient_dim",
                        "subspace_count", "core_dim", "found",
                        "contains_alternating", "elapsed_seconds"}
    assert doc["found"][0]["dim"] == 4
    assert doc["core_dim"] is None
    doc = scan_matrix_subcoalgebras(H1F2, (0, 1), mode="exhaustive").describe()
    assert doc["core_dim"] == 4 and doc["subspace_count"] == 3309747
