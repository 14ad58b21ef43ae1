"""Broken rewriting rules and structure maps, shared by the confluence,
Hopf-ideal certificate and axiom tests.

A rule edit takes (w, rule, pos, out), where out is the right-hand side the
real RuleSet.reduce_once gives for w at pos, and returns a broken one;
patch_reduce_once installs it for one test.  A map edit takes the integer
map a FreeHopfAlgebra single-word map returns, the algebra and the map's
arguments, and returns a broken one; patch_map installs it for one test.
Both install fresh shared RuleSets first, so every cache keyed by RuleSet
(step tables, normal forms, grading verdicts, coproducts, certificates)
starts empty under the mutant and the real algebra's entries are never
read or written.
"""

from itertools import product

from freehopf import FreeHopfAlgebra, rewrite
from freehopf.linalg import combine
from freehopf.rewrite import R1, R2, R3, RuleSet
from freehopf.words import UNIT, storage_key


def patch_reduce_once(monkeypatch, edit):
    original = RuleSet.reduce_once

    def broken(self, w, rule, pos):
        return edit(w, rule, pos, original(self, w, rule, pos))

    monkeypatch.setattr(rewrite, "_RULESETS", {})
    monkeypatch.setattr(RuleSet, "reduce_once", broken)


def patch_map(monkeypatch, name, edit):
    """FreeHopfAlgebra.<name> (a method returning an integer map) with edit
    applied to every value it returns, as edit(value, algebra, *args)."""
    original = getattr(FreeHopfAlgebra, name)

    def broken(self, *args, **kwargs):
        return edit(original(self, *args, **kwargs), self, *args)

    monkeypatch.setattr(rewrite, "_RULESETS", {})
    monkeypatch.setattr(FreeHopfAlgebra, name, broken)


def negate(terms, *_):
    """-S in place of S: every antipode residual becomes twice an integer
    map, so the axioms hold over GF(2) and fail over Q, GF(3) and GF(5)."""
    return {t: -c for t, c in terms.items()}


def double(terms, *_):
    """2*Delta in place of Delta on every word: the counit axioms fail."""
    return {t: 2 * c for t, c in terms.items()}


def scale_level(level):
    """A coproduct edit: Delta scaled by 2 on the letters of the given level
    and extended multiplicatively, so a word with k letters of that level
    has 2^k times its coproduct.  The index permutations commute with it,
    and the mod rotations do not."""
    def edit(terms, H, w):
        k = sum(r == level for _, _, r in w)
        return {t: c << k for t, c in terms.items()}
    return edit


# The flip of the window (0, 2), r -> 2-r, fixes level 1 and swaps levels 0
# and 2: it commutes with the first edit and not with the second.
scale_level_one = scale_level(1)
scale_level_zero = scale_level(0)


def self_term(terms, H, w):
    """A coproduct edit: Delta(x) + x (x) x on every letter x, extended
    multiplicatively, in place of Delta (the real value is not read).  It
    commutes with every letter map and level translation (with the flip up
    to the twist of the legs), and many rule instances break it."""
    nf = H.rules.normal_form_word
    legs = [[((i, a, r), (a, j, r)) for a in range(1, H.n + 1)] + [((i, j, r), (i, j, r))]
            for i, j, r in w]
    return combine((cl * cr, {(tl, tr): 1})
                   for pick in product(*legs)
                   for tl, cl in nf(tuple(a for a, _ in pick)).items()
                   for tr, cr in nf(tuple(b for _, b in pick)).items())


def _drop_unit_term(rules, w, rule, pos, out):
    if rule in rules and w[pos][0] == w[pos + 1][0] and w[pos][1] == w[pos + 1][1]:
        out.pop(w[:pos] + w[pos + 2:], None)
    return out


def drop_delta(w, rule, pos, out):
    """The d(i,j) term of R1 and R2 dropped."""
    return _drop_unit_term((R1, R2), w, rule, pos, out)


def drop_delta_r1(w, rule, pos, out):
    """The d(i,j) term of R1 alone dropped."""
    return _drop_unit_term((R1,), w, rule, pos, out)


# an R3 instance of the mod-4 domain at n = 2
BROKEN_R3 = ((1, 2, 2), (1, 1, 3), (1, 1, 0))


def _drop_largest_term(broken, w, rule, pos, out):
    if rule == R3 and w[pos:pos + 3] == broken:
        out = dict(out)
        del out[max(out, key=storage_key)]
    return out


def break_one(w, rule, pos, out):
    """The largest term of the one R3 instance BROKEN_R3 dropped."""
    return _drop_largest_term(BROKEN_R3, w, rule, pos, out)


# an R3 instance at levels 2, 3, 4 of the nat window (0, 6) at n = 2
BROKEN_R3_NAT = ((1, 2, 2), (1, 1, 3), (1, 1, 4))


def break_one_nat(w, rule, pos, out):
    """The largest term of the one R3 instance BROKEN_R3_NAT dropped: the
    rules are broken at a single level."""
    return _drop_largest_term(BROKEN_R3_NAT, w, rule, pos, out)


# an R1 instance at levels 0, 1 at n = 2, of bi-weight (e_1 - e_2, 0)
BROKEN_R1 = ((1, 2, 0), (2, 2, 1))


def break_grading(w, rule, pos, out):
    """The unit, of bi-weight (0, 0), added to the right-hand side of the
    one R1 instance BROKEN_R1: the rules no longer keep the bi-weight, and
    the added term is shorter than the left-hand side, so rewriting still
    terminates."""
    if rule == R1 and w[pos:pos + 2] == BROKEN_R1:
        out = dict(out)
        key = w[:pos] + UNIT + w[pos + 2:]
        out[key] = out.get(key, 0) + 1
    return out


def make_primitive(w, delta):
    """A coproduct edit: the value delta, which only the word w has, becomes
    w (x) 1 + 1 (x) w, so w is primitive.  If w has bi-weight (0, 0), the
    coproduct still keeps the grading."""
    def edit(terms, *_):
        return {(w, UNIT): 1, (UNIT, w): 1} if terms == delta else terms
    return edit


def replace_deltas(pairs):
    """A coproduct edit: for each (old, new) pair, the value old, which only
    one word has, becomes new."""
    def edit(terms, *_):
        for old, new in pairs:
            if terms == old:
                return new
        return terms
    return edit


def double_selected(select):
    """A rule edit: twice the right-hand side of each R1 and R2 instance
    for which select(i, j, r) holds, with i and j its free indices and r
    the level of its first letter."""
    def edit(w, rule, pos, out):
        f = 0 if rule == R1 else 1
        if rule in (R1, R2) and select(w[pos][f], w[pos + 1][f], w[pos][2]):
            return double(out)
        return out
    return edit


# The flip (which maps x[1,n;r] to x[n,1;c-r]) and the level rotations keep
# the R1 and R2 instances whose first free index is 1; at n = 4 the
# transposition of the indices 1 and 2 does not.
double_first_index_1 = double_selected(lambda i, j, r: i == 1)
