"""The rewriting system: frozen reductions, invariants, confluence."""

import gc
import random
import weakref
from itertools import product as iproduct
from math import perm

import pytest

from freehopf import rewrite
from freehopf.linalg import combine
from freehopf.rewrite import R1, R2, R3, R4, RuleSet, check_confluence, rules_for
from freehopf.words import LevelDomain

from mutants import (break_grading, break_one, break_one_nat, double_first_index_1,
                     double_selected, drop_delta, drop_delta_r1, patch_reduce_once)
from oracles import (Ordering, compare_words, oracle_ambiguities, oracle_candidate_symmetries,
                     oracle_check_confluence, oracle_instance_orbits, oracle_irreducible_count,
                     oracle_match_at, oracle_matches, oracle_normal_form_int,
                     oracle_normal_form_word, oracle_orbits, oracle_reduce_once, oracle_reducible,
                     oracle_rule_instances, oracle_step_entry, oracle_verified_symmetries)

NAT = LevelDomain.nat()
INT = LevelDomain.integers()
MOD2 = LevelDomain.mod(2)
MOD4 = LevelDomain.mod(4)
MOD6 = LevelDomain.mod(6)


# -- frozen single steps -------------------------------------------------------


def test_match_enumeration():
    rs = rules_for(2, NAT)
    assert oracle_matches(rs, ((2, 2, 0), (2, 2, 1))) == [(R1, 0)]
    assert oracle_matches(rs, ((2, 1, 1), (2, 2, 0))) == [(R2, 0)]
    assert oracle_matches(rs, ((1, 2, 0), (2, 1, 1), (1, 1, 2))) == [(R3, 0)]
    assert oracle_matches(rs, ((2, 1, 2), (1, 2, 1), (1, 1, 0))) == [(R4, 0)]
    assert oracle_matches(rs, ((1, 1, 0), (1, 1, 1))) == []
    # modular wrap-around creates the double match
    rs2 = rules_for(2, MOD2)
    assert oracle_matches(rs2, ((2, 2, 0), (2, 2, 1))) == [(R1, 0), (R2, 0)]


def test_reduce_once_frozen_values():
    rs = rules_for(2, NAT)
    assert rs.reduce_once(((1, 2, 0), (2, 2, 1)), R1, 0) == {
        ((1, 1, 0), (2, 1, 1)): -1
    }
    assert rs.reduce_once(((1, 2, 0), (1, 2, 1)), R1, 0) == {
        (): 1,
        ((1, 1, 0), (1, 1, 1)): -1,
    }
    # both Kronecker deltas vanish here (i=1, j=2, k=1), and the second
    # correction sum is empty at n=2, so a single cubic term survives
    assert rs.reduce_once(((1, 2, 0), (2, 1, 1), (1, 1, 2)), R3, 0) == {
        ((1, 1, 0), (2, 1, 1), (1, 2, 2)): 1
    }
    assert rs.reduce_once(((2, 1, 1), (2, 2, 0)), R2, 0) == {
        ((1, 1, 1), (1, 2, 0)): -1
    }


def test_rule_errors():
    rs = rules_for(2, NAT)
    w = ((2, 2, 0), (2, 2, 1))  # R1 matches at 0, R2 does not
    message = r"^R2 does not match x\[2,2;0\]\*x\[2,2;1\] at position 0$"
    with pytest.raises(ValueError, match=message):
        rs.reduce_once(w, R2, 0)
    for rule in (0, 5, "R1", None):
        for call in (rs.match_at, rs.reduce_once):
            with pytest.raises(ValueError, match="^unknown rule id"):
                call(w, rule, 0)
    # a left-hand side that would run past the end of the word: R1 from the
    # last letter, R3 on the first two letters of an R3 left-hand side
    assert not rs.match_at(w, R1, 1)
    prefix = ((1, 2, 0), (2, 1, 1))
    assert rs.match_at(prefix + ((1, 1, 2),), R3, 0) and not rs.match_at(prefix, R3, 0)
    with pytest.raises(ValueError, match="^R1 does not match .* at position 1$"):
        rs.reduce_once(w, R1, 1)


def test_negative_positions_do_not_match():
    # R1 does match the last letter followed by the first one, but a
    # negative position is not a position of the word
    rs = RuleSet(2, NAT)
    w = ((2, 2, 1), (2, 2, 0))
    assert rs.match_at(w[::-1], R1, 0)
    for rule, pos in iproduct((R1, R2, R3, R4), (-1, -2, -3)):
        assert not rs.match_at(w, rule, pos)
    with pytest.raises(ValueError, match=r"^R1 does not match .* at position -1$"):
        rs.reduce_once(w, R1, -1)


# (n, domain, window) of the comparison with the one-by-one transcription
TRANSCRIPTION_CONFIGS = [
    (n, dom, window) for n in (2, 3, 4)
    for dom, window in ((NAT, (0, 6)), (INT, (-2, 3)), (MOD2, None), (MOD4, None), (MOD6, None))
]


@pytest.mark.parametrize("n,dom,window", TRANSCRIPTION_CONFIGS)
def test_rules_match_their_one_by_one_transcription(n, dom, window):
    # R2 and R4 are derived as the transposes of R1 and R3; the oracle
    # writes all four out.  Words: every rule instance, its first and last
    # two letters, it with a letter before and with one after, and every
    # 2- and 3-letter word over the letters, sampled above 25000.
    rs = RuleSet(n, dom)
    inst = rs.rule_instances(window)
    assert inst == oracle_rule_instances(n, dom, window)
    letters = rs.alphabet(window)
    rng = random.Random(n * 1000 + len(letters))
    words = set()
    for _, w in inst:
        extra = (rng.choice(letters),)
        words.update((w, w[:2], w[-2:], extra + w, w + extra))
    for k in (2, 3):
        if len(letters) ** k <= 25000:
            words.update(iproduct(letters, repeat=k))
        else:
            words.update(tuple(rng.choice(letters) for _ in range(k)) for _ in range(2000))
    for w in sorted(words):
        if len(w) <= 3:
            assert rs._steps[w] == oracle_step_entry(n, dom, w), w
        for rule, pos in iproduct((R1, R2, R3, R4), range(len(w))):
            match = rs.match_at(w, rule, pos)
            assert match == oracle_match_at(n, dom, w, rule, pos), (w, rule, pos)
            if match:
                assert (list(rs.reduce_once(w, rule, pos).items())
                        == list(oracle_reduce_once(n, dom, w, rule, pos).items())), (w, rule, pos)


def test_reduce_once_delta_collision_mod2():
    # at modulus 2 a length-3 pattern can have i=j=k with both deltas live;
    # coefficients must accumulate, not overwrite
    rs = rules_for(2, MOD2)
    w = ((1, 2, 0), (1, 1, 1), (1, 1, 0))
    out = rs.reduce_once(w, R3, 0)
    total = sum(out.values())
    recheck = {}
    for t, c in out.items():
        assert c != 0
        recheck[t] = c
    assert out == recheck and isinstance(total, int)


def test_normal_form_frozen_values():
    rs = rules_for(2, NAT)
    assert rs.normal_form_word(((2, 2, 0), (2, 2, 1))) == {
        (): 1,
        ((2, 1, 0), (2, 1, 1)): -1,
    }
    rs2 = rules_for(2, MOD2)
    assert rs2.normal_form_word(((2, 2, 0), (2, 2, 1))) == {
        ((1, 1, 0), (1, 1, 1)): 1
    }
    # irreducible words are their own normal form
    w = ((1, 1, 0), (1, 1, 1))
    assert rs.normal_form_word(w) == {w: 1}
    assert rs.normal_form_word(()) == {(): 1}


# -- invariants over exhaustive small windows -----------------------------------


def _alphabet(n, levels):
    return [(i, j, r) for r in levels
            for i in range(1, n + 1) for j in range(1, n + 1)]


def _configs():
    return [
        (2, NAT, (0, 1, 2)),
        (2, MOD2, (0, 1)),
        (2, MOD4, (0, 1, 2, 3)),
        (3, NAT, (0, 1)),
        (2, INT, (-1, 0, 1)),
    ]


def test_reduce_once_strictly_decreases():
    for n, dom, levels in _configs():
        rs = rules_for(n, dom)
        window = None if dom.kind == "mod" else (min(levels), max(levels))
        for _, w in rs.rule_instances(window):
            for rule, pos in oracle_matches(rs, w):
                for t in rs.reduce_once(w, rule, pos):
                    assert compare_words(t, w) is Ordering.LESS, (w, rule, t)


def test_reduce_once_level_multiset():
    # every output term either keeps the exact level multiset (same length)
    # or drops one adjacent-level pair {r, r+1} (two letters shorter)
    for n, dom, levels in _configs()[:3]:
        rs = rules_for(n, dom)
        window = None if dom.kind == "mod" else (min(levels), max(levels))
        for _, w in rs.rule_instances(window):
            lw = sorted(x[2] for x in w)
            for rule, pos in oracle_matches(rs, w):
                for term in rs.reduce_once(w, rule, pos):
                    lt = sorted(x[2] for x in term)
                    if len(term) == len(w):
                        assert lt == lw
                    else:
                        assert len(term) == len(w) - 2


def test_normal_form_is_irreducible_and_idempotent():
    rng = random.Random(7)
    for n, dom, levels in _configs():
        rs = rules_for(n, dom)
        alphabet = _alphabet(n, levels)
        for _ in range(60):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 4)))
            if dom.kind == "nat" and any(x[2] < 0 for x in w):
                continue
            nf = rs.normal_form_word(w)
            for t, c in nf.items():
                assert c != 0
                assert rs.is_irreducible(t)
                assert rs.normal_form_word(t) == {t: 1}


def test_normal_form_strategy_independent():
    # reduce by random rule choices; the result must match the cached
    # canonical normal form (confluence in action)
    rng = random.Random(2026)

    def random_nf(rs, terms):
        out = {}
        stack = list(terms.items())
        while stack:
            w, c = stack.pop()
            ms = oracle_matches(rs, w)
            if not ms:
                out[w] = out.get(w, 0) + c
                continue
            rule, pos = rng.choice(ms)
            for t, k in rs.reduce_once(w, rule, pos).items():
                stack.append((t, c * k))
        return {w: c for w, c in out.items() if c}

    for n, dom, levels in _configs()[:4]:
        rs = rules_for(n, dom)
        alphabet = _alphabet(n, levels)
        for _ in range(40):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(2, 4)))
            assert random_nf(rs, {w: 1}) == rs.normal_form_word(w)


# (n, domain, window, lengths of every word checked, lengths of a seeded
# sample): every word up to length 4 of n = 3 on a 5-level window is 4.1
# million words, so the larger alphabets are checked exhaustively up to a
# shorter length and sampled above it
STEP_TABLE_CONFIGS = [
    (2, NAT, (0, 4), 3, (4,)), (2, INT, (-2, 2), 3, (4,)),
    (2, MOD2, None, 4, ()), (2, MOD4, None, 3, (4,)),
    (3, NAT, (0, 4), 2, (3, 4)), (3, INT, (-2, 2), 2, (3, 4)),
    (3, MOD2, None, 3, (4,)), (3, MOD4, None, 2, (3, 4)),
]


@pytest.mark.parametrize("n,dom,window,full,sampled", STEP_TABLE_CONFIGS)
def test_step_table_matches_the_match_and_reduce_loop(n, dom, window, full, sampled):
    rs = RuleSet(n, dom)
    letters = rs.alphabet(window)
    rng = random.Random(n * 100 + len(letters))
    words = [w for k in range(full + 1) for w in iproduct(letters, repeat=k)]
    words += [tuple(rng.choice(letters) for _ in range(k)) for k in sampled for _ in range(1500)]
    cache = {}
    for w in words:
        assert rs.normal_form_word(w) == oracle_normal_form_word(rs, w, cache), w
        assert rs.is_irreducible(w) == (not oracle_matches(rs, w))


def test_step_table_on_the_longest_ambiguity_words():
    # every length-5 ambiguity word of n = 3 mod 2, and both of its one-step
    # reductions
    rs = RuleSet(3, MOD2)
    cache = {}
    words = [a for a in oracle_ambiguities(rs.rule_instances()) if len(a[0]) == 5]
    assert words
    for word, ma, mb in words:
        assert rs.normal_form_word(word) == oracle_normal_form_word(rs, word, cache)
        for m in (ma, mb):
            reduced = rs.reduce_once(word, *m)
            expect = {}
            for v, c in reduced.items():
                for t, k in oracle_normal_form_word(rs, v, cache).items():
                    expect[t] = expect.get(t, 0) + c * k
            assert rs.normal_form_int(reduced) == {t: c for t, c in expect.items() if c}


def test_a_dropped_rule_set_is_freed_without_the_cycle_collector():
    # check_confluence drops its private RuleSet, normal forms and step
    # table included, when it returns
    gc.disable()
    try:
        rs = RuleSet(2, NAT)
        rs.normal_form_word(((2, 2, 0), (2, 2, 1), (1, 2, 2)))
        assert rs._steps
        ref = weakref.ref(rs)
        del rs
        assert ref() is None
    finally:
        gc.enable()


def test_normal_form_word_caches_only_requested_words():
    # the memo keeps the word asked for, not the words its rewrite passes
    rs = RuleSet(2, NAT)
    w = ((2, 2, 0), (2, 2, 1), (1, 2, 2))
    rs.normal_form_word(w)
    assert list(rs._nf) == [w]


def test_normal_form_int_linearity():
    rs = rules_for(2, NAT)
    a = ((1, 2, 0), (2, 2, 1))
    b = ((2, 2, 0), (2, 2, 1))
    combo = rs.normal_form_int({a: 2, b: -3})
    na = rs.normal_form_word(a)
    nb = rs.normal_form_word(b)
    expect = {}
    for t, c in na.items():
        expect[t] = expect.get(t, 0) + 2 * c
    for t, c in nb.items():
        expect[t] = expect.get(t, 0) - 3 * c
    assert combo == {t: c for t, c in expect.items() if c}


# -- enumeration versus the brute-force oracle -----------------------------------


@pytest.mark.parametrize("n,dom,levels,window", [
    (2, MOD2, (0, 1), None),
    (2, MOD4, (0, 1, 2, 3), None),
    (2, NAT, (0, 1, 2, 3), (0, 3)),
    (3, MOD2, (0, 1), None),
])
def test_irreducible_counts_match_oracle(n, dom, levels, window):
    rs = rules_for(n, dom)
    words = rs.irreducible_words(3, window)
    by_len = {}
    for w in words:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    oracle = oracle_irreducible_count(n, dom.kind, dom.modulus, levels, 3)
    assert by_len == oracle


def test_frozen_counts():
    rs = rules_for(2, MOD2)
    words = rs.irreducible_words(2)
    assert len(words) == 59
    assert len([w for w in words if len(w) == 2]) == 50
    assert len(rs.irreducible_words(1)) == 9
    rsn = rules_for(2, NAT)
    assert len([w for w in rsn.irreducible_words(2, (0, 1)) if len(w) == 2]) == 56


def test_irreducible_words_agree_with_matcher():
    rs = rules_for(2, MOD2)
    for w in rs.irreducible_words(3):
        assert rs.is_irreducible(w)
        assert not oracle_reducible(w, 2, "mod", 2)


# -- confluence -------------------------------------------------------------------


@pytest.mark.parametrize("n,dom,window", [
    (2, NAT, (0, 6)),
    (2, MOD2, None),
    (2, MOD4, None),
    (3, MOD2, None),
    (2, INT, (-2, 3)),
])
def test_confluence_all_resolved(n, dom, window):
    report = check_confluence(n, dom, window)
    assert report.total > 0
    assert report.unresolved == []
    assert report.ok


def test_confluence_narrow_window_rejected():
    with pytest.raises(ValueError, match="window"):
        check_confluence(2, NAT, (0, 3))
    with pytest.raises(ValueError, match="empty level window"):
        check_confluence(2, NAT, (3, 1))


def test_confluence_mod_report_ignores_window():
    report = check_confluence(2, MOD2, (0, 2))
    assert report.levels is None
    assert report.describe()["config"]["levels"] is None
    assert report == check_confluence(2, MOD2)


def _fields(report):
    """The total and the unresolved records, in report order."""
    return report.total, [(r.word, r.match_a, r.match_b, r.nf_a, r.nf_b)
                          for r in report.unresolved]


# Ambiguity totals of the full check, the order of the symmetry group it
# verifies (index permutations x flip x mod rotations), and the number of
# orbit representatives whose normal forms are computed (orbits of that
# group and, on nat/int windows, of the level translations).
CONFLUENCE_PINNED = {
    (2, NAT, (0, 6)): (576, 2, 60), (2, INT, (-2, 3)): (456, 2, 60),
    (2, MOD2, None): (276, 4, 70), (2, MOD4, None): (480, 8, 60),
    (2, MOD6, None): (720, 12, 60),
    (3, NAT, (0, 6)): (2376, 2, 252), (3, INT, (-2, 3)): (1872, 2, 252),
    (3, MOD2, None): (1072, 4, 269), (3, MOD4, None): (2016, 8, 252),
    (3, MOD6, None): (3024, 12, 252),
    (4, MOD2, None): (2980, 8, 408),
}


@pytest.mark.parametrize("n,dom,window", list(CONFLUENCE_PINNED))
def test_confluence_matches_full_check_oracle(n, dom, window):
    report = check_confluence(n, dom, window)
    oracle = oracle_check_confluence(n, dom, window)
    assert _fields(report) == _fields(oracle)
    total, order, checked = CONFLUENCE_PINNED[(n, dom, window)]
    assert report.total == total and report.ok
    assert report.symmetries == order
    assert report.checked == checked
    assert report.describe()["work"] == {"checked": report.checked, "symmetries": order}


# (total, checked, symmetries) at larger n, where the full-check oracle is
# too slow: the orbits stop growing at n = 6, the totals and the group
# order 2 (n-2)! (times m mod m) keep growing
CONFLUENCE_PINNED_LARGE_N = {
    (5, NAT, (0, 4)): (8700, 421, 12), (5, MOD2, None): (6744, 439, 24),
    (6, NAT, (0, 4)): (17136, 423, 48), (6, MOD2, None): (13300, 441, 96),
}


@pytest.mark.parametrize("n,dom,window", list(CONFLUENCE_PINNED_LARGE_N))
def test_confluence_pins_at_larger_n(n, dom, window):
    report = check_confluence(n, dom, window)
    assert report.ok
    assert (report.total, report.checked, report.symmetries) == CONFLUENCE_PINNED_LARGE_N[
        (n, dom, window)]


@pytest.mark.parametrize("n,dom,window", list(CONFLUENCE_PINNED))
def test_streamed_ambiguities_and_generator_check_match_the_oracles(n, dom, window):
    # streamed from every instance, the ambiguities are the oracle's list,
    # some twice; the generators are the candidates' generators, in order,
    # and pass, as the filter keeps every candidate
    rs = RuleSet(n, dom)
    inst = rs.rule_instances(window)
    streamed = [rewrite._key(*a) for a in rewrite._ambiguities(inst, inst)]
    expected = {rewrite._key(*a) for a in oracle_ambiguities(inst)}
    assert set(streamed) == expected and len(expected) == CONFLUENCE_PINNED[(n, dom, window)][0]
    rhs = rewrite._instance_rhs(rs, inst)
    candidates, gens = oracle_candidate_symmetries(rs, window)
    assert oracle_verified_symmetries(rs, rhs, window) == candidates
    assert rewrite._verified_symmetries(rs, rhs, window) == [candidates[i] for i in gens]
    assert len(candidates) == CONFLUENCE_PINNED[(n, dom, window)][1]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dom,window", [(NAT, (0, 6)), (INT, (-2, 3)), (MOD2, None), (MOD4, None)])
def test_representatives_meet_every_orbit(n, dom, window):
    rs = RuleSet(n, dom)
    inst = rs.rule_instances(window)
    rhs = rewrite._instance_rhs(rs, inst)
    gens = rewrite._verified_symmetries(rs, rhs, window)
    shift = rewrite._verified_shifts(rs, rhs, window)
    assert gens and shift == (dom.kind != "mod")
    # each instance is mapped to the first instance of its orbit under the
    # whole candidate group, in instance order
    first = rewrite._orbit_firsts(rs, inst, window, gens)
    orbits = oracle_instance_orbits(inst, oracle_candidate_symmetries(rs, window)[0])
    order = {a: k for k, a in enumerate(inst)}
    assert len(orbits) < len(inst)
    assert list(first) == inst
    assert first == {a: min(orbit, key=order.get) for orbit in orbits for a in orbit}
    _, checked, total = rewrite._resolve(rs, inst, rhs, window, gens, shift)
    assert total == len(oracle_ambiguities(inst))
    assert checked == CONFLUENCE_PINNED[(n, dom, window)][2]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("dom,window", [(NAT, (0, 6)), (INT, (-2, 3)), (MOD2, None),
                                        (MOD4, None), (MOD6, None)])
def test_orbit_keys_match_the_marked_orbits(n, dom, window):
    # grouping the ambiguities by canonical key, joined with the key of the
    # flip image, gives the orbits that marking every image of the whole
    # candidate group and its in-window translates gives, and each key's
    # class has (n-2)!/(n-2-k)! index images, for the k distinct indices
    # <= n-2 of the word, times m rotations or the translates that fit
    rs = RuleSet(n, dom)
    shift = dom.kind != "mod"
    canon = rewrite._canonical(rs, window, True, shift)
    flip = rewrite._verified_symmetries(rs, rewrite._instance_rhs(rs, rs.rule_instances(window)),
                                        window)[0][0]
    lvls = dom.levels(window)
    by_key = {}
    for word, ma, mb in oracle_ambiguities(rs.rule_instances(window)):
        cw, size = canon(word)
        key = rewrite._key(cw, ma, mb)
        other = rewrite._key(canon(rewrite._image(flip, word))[0],
                             (rewrite._FLIP_RULE[ma[0]], ma[1]), (rewrite._FLIP_RULE[mb[0]], mb[1]))
        k = len({x for i, j, _ in word for x in (i, j) if x <= n - 2})
        span = max(l[2] for l in word) - min(l[2] for l in word)
        room = len(lvls) - span if shift else dom.modulus
        assert size == perm(n - 2, k) * room
        by_key.setdefault(frozenset((key, other)), set()).add((rewrite._key(word, ma, mb), size))
    orbits = oracle_orbits(rs, window, oracle_candidate_symmetries(rs, window)[0], shift)
    assert {frozenset(a for a, _ in members) for members in by_key.values()} == set(orbits)
    for keys, members in by_key.items():
        assert {size for _, size in members} == {len(members) // len(keys)}


def test_confluence_leaves_shared_cache_alone():
    rs = rules_for(3, MOD2)
    rs.normal_form_word(((3, 3, 0), (3, 3, 1)))
    before = len(rs._nf)
    check_confluence(3, MOD2)
    assert len(rs._nf) == before


def _assert_same_normal_forms(n, dom, window):
    # on both reductions of every ambiguity, and on their difference, the
    # rewrite of the whole combination gives the oracle's cached sum, and
    # so does the memo on the ambiguity word; the memo ends with the words
    # asked of it alone
    rs, cache, words = RuleSet(n, dom), {}, set()
    for word, ma, mb in oracle_ambiguities(rs.rule_instances(window)):
        a, b = rs.reduce_once(word, *ma), rs.reduce_once(word, *mb)
        for terms in (a, b, combine(((1, a), (-1, b)))):
            assert rs.normal_form_int(terms) == oracle_normal_form_int(rs, terms, cache)
        assert rs.normal_form_word(word) == oracle_normal_form_word(rs, word, cache)
        words.add(word)
    assert rs._nf.keys() == words


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("dom,window", [(NAT, (0, 6)), (MOD2, None), (MOD4, None)])
def test_normal_form_int_is_the_cached_sum(n, dom, window):
    _assert_same_normal_forms(n, dom, window)


@pytest.mark.parametrize("edit,n,dom,window", [
    (drop_delta, 2, MOD2, None), (drop_delta, 2, NAT, (0, 6)),
    (break_one, 2, MOD4, None), (break_one_nat, 2, NAT, (0, 6)),
    (break_grading, 2, NAT, (0, 6)), (double_first_index_1, 3, MOD4, None),
])
def test_normal_form_int_is_the_cached_sum_under_broken_rules(monkeypatch, edit, n, dom, window):
    # the rules are not confluent, so the strategy matters: the rewrite of
    # the whole combination must take the leftmost steps that the cached
    # sum takes, and the unresolved records must be the oracle's
    patch_reduce_once(monkeypatch, edit)
    _assert_same_normal_forms(n, dom, window)
    unresolved = check_confluence(n, dom, window).unresolved
    assert unresolved
    assert unresolved == oracle_check_confluence(n, dom, window).unresolved


def _assert_same_report(report, oracle):
    assert report == oracle
    assert report.describe() == oracle.describe()
    assert [r.describe() for r in report.unresolved] == [r.describe() for r in oracle.unresolved]


@pytest.mark.parametrize("dom,window", [(MOD2, None), (NAT, (0, 6))])
def test_confluence_falls_back_when_a_whole_orbit_breaks(monkeypatch, dom, window):
    # drop the d(i,j) term of R1 and R2: every candidate symmetry still
    # commutes with the broken rules, but the representatives no longer
    # resolve, so the check must rerun with the trivial group.  Mod 2 has
    # words where R1 and R2 match at one position; the flip swaps them, and
    # the leftmost strategy does not, so on the broken rules the normal
    # forms of an orbit are not the images of its representative's.
    # On the nat window the break is the same at every level, so the level
    # translations are verified too, and the fallback drops them with the
    # letter maps.
    patch_reduce_once(monkeypatch, drop_delta)
    rs = RuleSet(2, dom)
    rhs = rewrite._instance_rhs(rs, rs.rule_instances(window))
    order = CONFLUENCE_PINNED[(2, dom, window)][1]
    assert len(oracle_verified_symmetries(rs, rhs, window)) == order
    assert rewrite._verified_symmetries(rs, rhs, window)
    assert rewrite._verified_shifts(rs, rhs, window) == (dom.kind != "mod")
    report = check_confluence(2, dom, window)
    oracle = oracle_check_confluence(2, dom, window)
    assert _fields(report) == _fields(oracle)
    assert report.unresolved
    assert report.symmetries == 1 and report.checked == report.total
    _assert_same_report(report, oracle)


def test_confluence_rejects_symmetries_a_broken_instance_breaks(monkeypatch):
    # drop one term of a single R3 instance; no nontrivial symmetry commutes
    # with that, so every orbit is a single ambiguity
    rs = RuleSet(2, MOD4)
    inst = rs.rule_instances()
    rhs = rewrite._instance_rhs(rs, inst)
    assert len(oracle_verified_symmetries(rs, rhs, None)) == 8
    assert rewrite._verified_symmetries(rs, rhs, None)
    patch_reduce_once(monkeypatch, break_one)
    rhs = rewrite._instance_rhs(rs, inst)
    assert len(oracle_verified_symmetries(rs, rhs, None)) == 1
    assert rewrite._verified_symmetries(rs, rhs, None) == []
    report = check_confluence(2, MOD4)
    oracle = oracle_check_confluence(2, MOD4)
    assert _fields(report) == _fields(oracle)
    assert report.unresolved
    _assert_same_report(report, oracle)


def test_confluence_when_a_generator_fails(monkeypatch):
    # double the R1 and R2 right-hand sides whose first free index is 1: the
    # flip and the rotations still commute with the rules, the index
    # transposition does not, so the generator check fails and the identity
    # alone is used, though a proper subgroup of 8 candidates passes
    patch_reduce_once(monkeypatch, double_first_index_1)
    rs = RuleSet(4, MOD4)
    rhs = rewrite._instance_rhs(rs, rs.rule_instances())
    passing = oracle_verified_symmetries(rs, rhs, None)
    assert len(passing) == 8
    assert rewrite._verified_symmetries(rs, rhs, None) == []
    report = check_confluence(4, MOD4)
    oracle = oracle_check_confluence(4, MOD4)
    assert report.unresolved
    _assert_same_report(report, oracle)


@pytest.mark.parametrize("edit,n,dom,order", [
    (drop_delta_r1, 2, MOD4, 4),  # the flip fails
    (double_selected(lambda i, j, r: r == 0), 2, MOD4, 2),  # the rotation fails
    (double_first_index_1, 4, MOD2, 4),  # the transposition (1 2) fails
    (double_selected(lambda i, j, r: i == 3), 5, MOD2, 8),  # the cycle (1 2 3) fails
    # (1 2) fails, the cycle (1 2 3) passes
    (double_selected(lambda i, j, r: i <= 3 and j <= 3 and (j - i) % 3 == 1), 5, MOD2, 12),
    (break_one, 2, MOD4, 1),
])
def test_generator_check_matches_the_filter_on_broken_rules(monkeypatch, edit, n, dom, order):
    # the filter keeps a proper subgroup of the given order, so a generator
    # fails, and the generator check keeps the identity alone
    patch_reduce_once(monkeypatch, edit)
    rs = RuleSet(n, dom)
    rhs = rewrite._instance_rhs(rs, rs.rule_instances())
    passing = oracle_verified_symmetries(rs, rhs, None)
    assert len(passing) == order < len(oracle_candidate_symmetries(rs, None)[0])
    assert rewrite._verified_symmetries(rs, rhs, None) == []


def test_confluence_rejects_translations_a_break_at_one_level_breaks(monkeypatch):
    # drop one term of a single R3 instance at levels 2, 3, 4 of the nat
    # window: no level translation commutes with that, so the orbits are
    # those of the letter maps alone
    rs = RuleSet(2, NAT)
    inst = rs.rule_instances((0, 6))
    assert rewrite._verified_shifts(rs, rewrite._instance_rhs(rs, inst), (0, 6)) is True
    patch_reduce_once(monkeypatch, break_one_nat)
    assert rewrite._verified_shifts(rs, rewrite._instance_rhs(rs, inst), (0, 6)) is False
    report = check_confluence(2, NAT, (0, 6))
    oracle = oracle_check_confluence(2, NAT, (0, 6))
    assert _fields(report) == _fields(oracle)
    assert report.unresolved
    _assert_same_report(report, oracle)
    monkeypatch.setattr(rewrite, "_verified_shifts", lambda rs, rhs, levels: False)
    assert report.checked == check_confluence(2, NAT, (0, 6)).checked


def test_confluence_report_shape(monkeypatch):
    report = check_confluence(2, MOD2)
    doc = report.describe()
    assert set(doc) >= {"config", "total_ambiguities", "unresolved"}
    assert doc["total_ambiguities"] == report.total
    assert doc["unresolved"] == []
    patch_reduce_once(monkeypatch, drop_delta)
    rec = check_confluence(2, MOD2).unresolved[0]
    d = rec.describe()
    assert set(d) == {"word", "match_a", "match_b", "nf_a", "nf_b"}
    assert d["nf_a"] != d["nf_b"]


def test_patched_rules_get_fresh_rule_sets(monkeypatch):
    # a RuleSet built before the patch keeps the real rules' verdicts, so
    # the patch must hand out fresh ones
    assert rewrite._verified_grading(rules_for(2, NAT), (0, 2))
    patch_reduce_once(monkeypatch, break_grading)
    assert not rewrite._verified_grading(rules_for(2, NAT), (0, 2))
