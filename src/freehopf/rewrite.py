"""Reduction system for the free Hopf algebra on an n x n matrix coalgebra.

Words in the letters x[i,j;r] are rewritten by four rule families, two
shapes in two orientations.  Writing n for the last index value and using '
for a level one step up:

  R1:  x[i,n;r] * x[j,n;r']             ->  d(i,j) - sum_{a<n} x[i,a;r]*x[j,a;r']
  R3:  x[i,n;r] * x[j,n-1;r'] * x[k,n-1;r'']
           ->  d(j,k)*x[i,n;r] - d(i,j)*x[k,n;r'']
               + sum_{a<n} x[i,a;r]*x[j,a;r']*x[k,n;r'']
               - sum_{a<n-1} x[i,n;r]*x[j,a;r']*x[k,a;r'']

R2 and R4 are their transposes, x[i,j;.] -> x[j,i;.] in every letter with
the levels read downwards; R2 is x[n,i;r'] * x[n,j;r] -> d(i,j) - sum_{a<n}
x[a,i;r']*x[a,j;r].  RuleSet reads all four from one table, _RULES.

All rule coefficients are integers, so a normal form has integer
coefficients no matter the ground field.  One loop computes normal forms:
normal_form_int rewrites a combination of words as a whole, largest word
first and with no cache, each step at the leftmost rule match, read with
its right-hand side from a per-RuleSet table of 2- and 3-letter windows.
normal_form_word memoises it on the single words asked for, per
(n, domain) and shared by every field.

Every same-length word on a right-hand side is strictly smaller than the
left-hand side in the order that compares words of one length and one
level sequence by their index sequences (i1, j1, i2, j2, ...) and leaves
other same-length pairs incomparable; that is what makes the rewriting
terminate; check_confluence certifies local confluence by resolving every
concrete overlap and inclusion ambiguity inside a level window, each by
rewriting the difference of its two reductions to normal form.  Every rule
also keeps the bi-weight of words (words.bi_weight); the primitive search
relies on that only after _verified_grading has checked it on the window.
"""

import weakref
from dataclasses import dataclass
from itertools import product
from math import factorial, perm

from .words import UNIT, LevelDomain, bi_weight, can_return, storage_key, word_str

R1, R2, R3, R4 = 1, 2, 3, 4
RULE_NAMES = {R1: "R1", R2: "R2", R3: "R3", R4: "R4"}

# rule -> (length of its left-hand side, the letter coordinate of its fixed
# indices): R1 and R3 fix column indices and climb one level per letter; R2
# and R4, their transposes, fix row indices and step one level down
_RULES = {R1: (2, 1), R2: (2, 0), R3: (3, 1), R4: (3, 0)}
_BY_LENGTH = {2: (R1, R2), 3: (R3, R4)}

_RULESETS = {}

# Largest matrix size accepted.  One level holds n^2 letters, and the
# coproduct of a word of length L sums over n^L choices of middle indices:
# at n = 100 a level holds 10^4 letters and the coproduct of a 2-letter
# word 10^4 terms, about the most one call handles in a second.  Every n
# in use lies far below (the tests and suites use n <= 5, confluence runs
# go to n = 8 and aim at n = 10); a larger n is refused before any list
# over the letters is built.
MAX_N = 100


def rules_for(n, dom):
    """Shared RuleSet instance for a given size and level domain."""
    key = (n, dom)
    rs = _RULESETS.get(key)
    if rs is None:
        rs = RuleSet(n, dom)
        _RULESETS[key] = rs
    return rs


# step-table entry of a 2-letter window where no R1 or R2 matches but an R3
# or R4 left-hand side may start
_THREE = "R3/R4"


class _StepTable(dict):
    """The leftmost strategy's rewrites by letter window, for one RuleSet,
    filled on first lookup.  A 2-letter window maps to the ((mid, c), ...)
    right-hand side of R1 (else its transpose R2) on it, to _THREE, or to
    None; a 3-letter window maps to the right-hand side of R3 (else its
    transpose R4) on it, or to None.
    Each right-hand side is reduce_once of the window alone, so rewriting
    u = pre + window + post gives pre + mid + post for each (mid, c).
    The table holds its RuleSet weakly, so the two form no reference cycle
    and a dropped RuleSet's caches are freed at once."""

    def __init__(self, rules):
        super().__init__()
        self.rules = weakref.proxy(rules)

    def __missing__(self, window):
        entry = self[window] = self.rules._step_entry(window)
        return entry


class _Varied(dict):
    """letter -> [the letter with its index in coordinate col set to a, for
    a = 0..n], filled on first lookup: reduce_once reads the letters of a
    right-hand side off these rows instead of building them per term."""

    def __init__(self, n, col):
        super().__init__()
        self.n, self.col = n, col

    def __missing__(self, l):
        col = self.col
        row = self[l] = [l[:col] + (a,) + l[col + 1:] for a in range(self.n + 1)]
        return row


class RuleSet:
    """Matching and reduction for a fixed n >= 2 and level domain."""

    def __init__(self, n, dom):
        if not isinstance(n, int) or not 2 <= n <= MAX_N:
            raise ValueError("matrix coalgebra size must be an integer 2 <= n <= %d, got %r"
                             % (MAX_N, n))
        if not isinstance(dom, LevelDomain):
            raise TypeError("dom must be a LevelDomain")
        self.n = n
        self.dom = dom
        self._nf = {}
        self._steps = _StepTable(self)
        self._graded = {}  # level tuple -> do the rules keep the bi-weight
        self._fixed = {2: (n, n), 3: (n, n - 1, n - 1)}  # fixed indices by shape
        self._varied = (_Varied(n, 0), _Varied(n, 1))

    # -- matching ---------------------------------------------------------

    def match_at(self, w, rule, pos):
        """Does the given rule's left-hand side sit at position pos of w?
        R2 and R4 are matched as the transposes of R1 and R3 (see _RULES)."""
        try:
            length, col = _RULES[rule]
        except KeyError:
            raise ValueError("unknown rule id %r" % (rule,)) from None
        return 0 <= pos <= len(w) - length and self._fits(w, pos, length, col, length)

    def _fits(self, w, pos, length, col, count):
        """Do the count (2 or 3) letters of w from pos fit the first count
        letters of the left-hand side shape of the given length and
        orientation col: its fixed indices in coordinate col, and one level
        up per letter (col 1: R1, R3) or down (col 0: R2, R4)?"""
        fixed, up = self._fixed[length], self.dom.up
        a, b = w[pos], w[pos + 1]
        lo, hi = (a, b) if col else (b, a)
        if a[col] != fixed[0] or b[col] != fixed[1] or hi[2] != up(lo[2]):
            return False
        if count == 2:
            return True
        c = w[pos + 2]
        lo, hi = (b, c) if col else (c, b)
        return c[col] == fixed[2] and hi[2] == up(lo[2])

    def is_irreducible(self, w):
        return self._leftmost_step(w) is None

    # -- single-step reduction -------------------------------------------

    def reduce_once(self, w, rule, pos):
        """Replace the matched left-hand side once; the rest of w is kept.

        Returns the resulting integer combination as a dict {word: coeff}
        (duplicate words merged, zero coefficients dropped).
        """
        if not self.match_at(w, rule, pos):
            raise ValueError(
                "%s does not match %s at position %d" % (RULE_NAMES[rule], word_str(w), pos)
            )
        n = self.n
        length, col = _RULES[rule]
        pre, post = w[:pos], w[pos + length:]
        # x[l][a]: the letter l with its fixed index set to a; f: the
        # coordinate of the free indices i, j, k
        x, f = self._varied[col], 1 - col
        acc = {}

        def put(mid, coeff):  # inline, not combine: one key built per call
            t = pre + mid + post
            c = acc.get(t, 0) + coeff
            if c:
                acc[t] = c
            else:
                acc.pop(t, None)

        if length == 2:
            l0, l1 = w[pos], w[pos + 1]
            i, j, x0, x1 = l0[f], l1[f], x[l0], x[l1]
            if i == j:
                put(UNIT, 1)
            for a in range(1, n):
                put((x0[a], x1[a]), -1)
        else:
            l0, l1, l2 = w[pos], w[pos + 1], w[pos + 2]
            i, j, k, x0, x1, x2 = l0[f], l1[f], l2[f], x[l0], x[l1], x[l2]
            if j == k:
                put((x0[n],), 1)
            if i == j:
                put((x2[n],), -1)
            for a in range(1, n):
                put((x0[a], x1[a], x2[n]), 1)
            for a in range(1, n - 1):
                put((x0[n], x1[a], x2[a]), -1)
        return acc

    # -- the step table ----------------------------------------------------

    def _step_entry(self, window):
        """Table entry of a 2- or 3-letter window (see _StepTable)."""
        for rule in _BY_LENGTH[len(window)]:
            if self.match_at(window, rule, 0):
                return tuple(self.reduce_once(window, rule, 0).items())
        if len(window) == 2 and any(self._fits(window, 0, *_RULES[rule], 2)
                                    for rule in _BY_LENGTH[3]):
            return _THREE
        return None

    def _leftmost_step(self, u):
        """(pos, width, ((mid, c), ...)) of the rewrite the leftmost
        strategy applies to u (R1 before R2 before R3 before R4 at equal
        positions), or None if u is irreducible."""
        steps = self._steps
        for pos in range(len(u) - 1):
            rhs = steps[u[pos:pos + 2]]
            if rhs is None:
                continue
            if rhs is not _THREE:
                return pos, 2, rhs
            if pos + 3 <= len(u):
                rhs = steps[u[pos:pos + 3]]
                if rhs is not None:
                    return pos, 3, rhs
        return None

    # -- normal forms ------------------------------------------------------

    def normal_form_word(self, w):
        """Integer-coefficient normal form of a single word: normal_form_int
        of {w: 1}, memoised per RuleSet for the words asked for here."""
        nf = self._nf.get(w)
        if nf is None:
            nf = self._nf[w] = self.normal_form_int({w: 1})
        return nf

    def normal_form_int(self, terms):
        """Normal form of an integer combination {word: coeff}, with no
        cache, by the leftmost strategy: each word is rewritten at its
        leftmost match (R1 before R2 before R3 before R4 at equal
        positions), read from the step table.  Confluence makes the
        strategy irrelevant for the result.

        The combination is held in one dict per word length.  The longest
        word, and among those the largest tuple, takes its step next, with
        its merged coefficient; a word with no step is final.  A step gives
        shorter words, or words of the same length and levels whose index
        sequence, and so whose tuple, is smaller.  So no word comes back
        once taken, and a term that cancels is never expanded.
        """
        top = max(map(len, terms), default=0)
        by_len = [{} for _ in range(top + 1)]
        for w, c in terms.items():
            if c:
                by_len[len(w)][w] = c
        step = self._leftmost_step
        out = {}
        for bucket in reversed(by_len):
            while bucket:
                w = max(bucket)
                c = bucket.pop(w)
                found = step(w)
                if found is None:
                    out[w] = c
                    continue
                pos, width, rhs = found
                pre, post = w[:pos], w[pos + width:]
                for mid, d in rhs:
                    v = pre + mid + post
                    acc = by_len[len(v)]
                    s = acc.get(v, 0) + c * d
                    if s:
                        acc[v] = s
                    else:
                        acc.pop(v, None)
        return out

    # -- irreducible word enumeration --------------------------------------

    def alphabet(self, levels=None):
        """All letters with levels drawn from the window, in storage order."""
        lvls = self.dom.levels(levels)
        rng = range(1, self.n + 1)
        return [(i, j, r) for r in lvls for i in rng for j in rng]

    def irreducible_words(self, max_len, levels=None, zero_weight=False):
        """All irreducible words of length <= max_len with levels in the
        window, ordered by length then storage order; with zero_weight,
        only those of bi-weight (0,0) (bi_weight), in the same order.

        Extends shorter irreducible words on the right, so only the rule
        patterns touching the final letter need checking; the set is closed
        under taking subwords.  Each letter moves the row and the column
        weight by one signed unit vector, so with zero_weight a word of
        length m is kept, and extended, only while both weights have
        1-norm <= max_len - m: only then can it still return to (0,0).
        """
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        letters = self.alphabet(levels)
        extends = self._extends
        if zero_weight:
            weight = {UNIT: bi_weight(self.n, UNIT)}
        out = [UNIT]
        layer = [UNIT]
        for room in range(max_len - 1, -1, -1):
            nxt = [w + (l,) for w in layer for l in letters if extends(w[-2:], l)]
            if zero_weight:
                nxt = [v for v in nxt if can_return(weight, v, room)]
            nxt.sort(key=storage_key)
            out.extend(nxt)
            layer = nxt
        if zero_weight:
            zero = weight[UNIT]
            out = [w for w in out if weight[w] == zero]
        return out

    def irreducible_count(self, max_len, levels=None):
        """len(irreducible_words(max_len, levels)), with the same errors,
        counted per length over the tails of the words: whether a word
        extends depends on its last letter, and on the one before only if
        the two may start an R3 or R4 left-hand side (_extends)."""
        if max_len < 0:
            raise ValueError("max_len must be >= 0")
        letters = self.alphabet(levels)
        extends, steps = self._extends, self._steps
        total = 1
        layer = {UNIT: 1}
        for _ in range(max_len):
            nxt = {}
            for tail, c in layer.items():
                for l in letters:
                    if extends(tail, l):
                        key = tail[-1:] + (l,)
                        if len(key) == 2 and steps[key] is not _THREE:
                            key = key[1:]
                        nxt[key] = nxt.get(key, 0) + c
            total += sum(nxt.values())
            layer = nxt
        return total

    def _extends(self, tail, l):
        """Is w + (l,) irreducible, for an irreducible w ending in tail
        (its last two letters, or all of a shorter w)?  Only a left-hand
        side ending at l can match."""
        steps = self._steps
        if tail:
            rhs = steps[(tail[-1], l)]
            if rhs is not None and rhs is not _THREE:
                return False
        return len(tail) < 2 or steps[tail] is not _THREE or steps[tail + (l,)] is None

    # -- rule instances (for the confluence check) --------------------------

    def rule_instances(self, levels=None):
        """Every concrete left-hand side whose levels fit in the window: per
        lowest level and shape, the instances by free indices, each followed
        by its transpose."""
        dom = self.dom
        lvls = dom.levels(levels)
        lset = set(lvls)
        rng = range(1, self.n + 1)
        inst = []
        for r in lvls:
            seq = [r, dom.up(r), dom.up(dom.up(r))]  # r, r+1, r+2
            for length, rules in _BY_LENGTH.items():
                if dom.kind != "mod" and seq[length - 1] not in lset:
                    continue
                fixed, rising, falling = self._fixed[length], seq[:length], seq[length - 1::-1]
                for free in product(rng, repeat=length):
                    for rule in rules:
                        cols = (free, fixed, rising) if _RULES[rule][1] else (fixed, free, falling)
                        inst.append((rule, tuple(zip(*cols))))
        return inst


# -- confluence -------------------------------------------------------------


@dataclass
class AmbiguityRecord:
    """An ambiguity whose two reductions have different normal forms."""

    word: tuple
    match_a: tuple  # (rule, pos)
    match_b: tuple
    nf_a: dict
    nf_b: dict

    def describe(self):
        return {
            "word": word_str(self.word),
            "match_a": [RULE_NAMES[self.match_a[0]], self.match_a[1]],
            "match_b": [RULE_NAMES[self.match_b[0]], self.match_b[1]],
            "nf_a": {word_str(w): c for w, c in sorted(self.nf_a.items(), key=lambda t: storage_key(t[0]))},
            "nf_b": {word_str(w): c for w, c in sorted(self.nf_b.items(), key=lambda t: storage_key(t[0]))},
        }


@dataclass
class ConfluenceReport:
    n: int
    dom: LevelDomain
    levels: tuple | None
    total: int  # ambiguities found
    unresolved: list  # an AmbiguityRecord per unresolved one, in report order
    checked: int  # ambiguities whose normal forms were computed
    symmetries: int  # order of the verified symmetry group used

    @property
    def ok(self):
        return not self.unresolved

    def describe(self):
        return {
            "config": {
                "n": self.n,
                "domain": str(self.dom),
                "levels": list(self.levels) if self.levels else None,
            },
            "total_ambiguities": self.total,
            "unresolved_count": len(self.unresolved),
            "resolved": self.ok,
            "unresolved": [r.describe() for r in self.unresolved],
            "work": {"checked": self.checked, "symmetries": self.symmetries},
        }


def check_confluence(n, dom, levels=None):
    """Resolve every overlap and inclusion ambiguity inside a level window.

    For nat/int domains the window must contain at least 5 consecutive
    levels: rule patterns span at most 3 consecutive levels and two glued
    patterns span at most 5, and the rules are invariant under level
    translation, so such a window exhibits every ambiguity shape.  Modular
    domains ignore the window, and their report records none.

    The candidate letter maps are the permutations of the indices 1..n-2,
    the flip x[i,j;r] -> x[j,i;c-r] (c = lo+hi on a window, 0 mod m; it
    swaps R1 with R2 and R3 with R4 and keeps match positions), the mod
    rotations r -> r+1 and their products.  All are used if the generators
    map the rule instances onto themselves and commute with reduce_once on
    each (_verified_symmetries); on a nat/int window the translations
    r -> r+t join them if the unit shifts pass the same test inside the
    window (_verified_shifts).  Such a map carries a resolution of an
    ambiguity to one of its image.

    An orbit of the maps other than the flip has one key (_canonical):
    rotate the levels so that the first letter sits at level 0, or
    translate them so that the lowest is lo, then rename the indices
    1..n-2 in order of first appearance.  Index permutations move no level
    and rotations and translations no index, so the steps commute, and a
    word and its images get one key, distinct orbits distinct keys.  The
    flip normalises that group, so an orbit of the whole group joins the
    key's orbit and the flip image's, of equal size: (n-2)!/(n-2-k)! for
    the k distinct indices <= n-2 of the word, times m rotations or the
    hi-lo+1-span translates that fit.  Ambiguities are streamed from the
    first rule instance of each letter-map orbit (_ambiguities), not of
    each translation orbit: an overlap that reaches below a translated
    instance may have no translate inside the window.  The first streamed
    member of each orbit is checked (_resolve), so `total` counts every
    ambiguity and `checked` the orbits.  If every checked ambiguity
    resolves, so does every one, and the rules are confluent on the window
    by Bergman's diamond lemma.  If not, the check is repeated with the
    identity alone, so every unresolved ambiguity is listed.

    An ambiguity is decided by rewriting the difference of its two
    reductions (normal_form_int), with no per-word cache; its two normal
    forms are computed only if that difference is nonzero.  The step table
    lives on a private RuleSet that is dropped with the check, so the
    shared rules_for caches are left as they were.
    """
    if dom.kind == "mod":
        levels = None
    elif len(dom.levels(levels)) < 5:
        raise ValueError(
            "level window %r too narrow for a conclusive check (need >= 5 levels)" % (levels,)
        )
    else:
        levels = tuple(levels)
    rs = RuleSet(n, dom)
    inst = rs.rule_instances(levels)
    rhs = _instance_rhs(rs, inst)
    gens = _verified_symmetries(rs, rhs, levels)
    shift = _verified_shifts(rs, rhs, levels)
    unresolved, checked, total = _resolve(rs, inst, rhs, levels, gens, shift)
    if (gens or shift) and unresolved:
        gens, shift = [], False  # the identity alone
        unresolved, checked, total = _resolve(rs, inst, rhs, levels, gens, shift)
    order = 2 * factorial(n - 2) * (dom.modulus if dom.kind == "mod" else 1) if gens else 1
    return ConfluenceReport(n, dom, levels, total, unresolved, checked, order)


def _ambiguities(inst, firsts):
    """Stream the ambiguities (word, match_a, match_b) of the rule instances
    whose match_a, at position 0, is one of firsts, in their order; one
    comes twice if both its instances sit at position 0.  A letter map that
    permutes the instances and keeps positions maps the index below onto
    itself, so it maps the ambiguities streamed from an instance onto those
    from the instance's image: streaming from one instance per orbit of
    such maps meets every orbit of ambiguities."""
    by_lhs, by_prefix = {}, {}
    for rule, w in inst:
        by_lhs.setdefault(w, []).append(rule)
        for k in range(1, len(w)):
            by_prefix.setdefault(w[:k], []).append((rule, w))
    for ra, wa in firsts:
        la = len(wa)
        for s in range(la):
            # a whole left-hand side inside wa at s
            yield from ((wa, (ra, 0), (rb, s)) for e in range(s + 1, la + 1)
                        for rb in by_lhs.get(wa[s:e], ()) if (rb, s) != (ra, 0))
            # a proper overlap: the suffix of wa from s starts a longer one
            if s:
                for rb, wb in by_prefix.get(wa[s:], ()):
                    yield wa + wb[la - s:], (ra, 0), (rb, s)


_SAME_RULE = {R1: R1, R2: R2, R3: R3, R4: R4}
_FLIP_RULE = {R1: R2, R2: R1, R3: R4, R4: R3}


def _image(table, w):
    return tuple(map(table.__getitem__, w))


def _instance_rhs(rs, inst):
    """reduce_once of each rule instance, keyed by (rule, word)."""
    return {(rule, w): rs.reduce_once(w, rule, 0) for rule, w in inst}


def _commutes(table, rules, rhs):
    """Does the letter map table, acting on rule ids by rules, map every
    rule instance whose letters it maps to a rule instance, and commute
    with reduce_once on it?  rhs is _instance_rhs of the instances."""
    get = table.__getitem__
    for (rule, w), out in rhs.items():
        try:
            image = tuple(map(get, w))
        except KeyError:  # a letter the table does not map
            continue
        if rhs.get((rules[rule], image)) != {tuple(map(get, t)): c for t, c in out.items()}:
            return False
    return True


def _verified_symmetries(rs, rhs, levels):
    """(letter table, rule map) of the generators of the candidate letter
    maps on the window's letters: the flip, the mod rotation r -> r+1 and,
    where they move an index, the transposition (1 2) and the cycle
    (1 2 ... n-2); or [] (the identity alone) unless each commutes with the
    rules (_commutes), as then does every product of them."""
    n, dom, wrap = rs.n, rs.dom, rs.dom.canon
    lvls, letters = dom.levels(levels), rs.alphabet(levels)
    centre = 0 if dom.kind == "mod" else lvls[0] + lvls[-1]
    gens = [({(i, j, r): (j, i, wrap(centre - r)) for i, j, r in letters}, _FLIP_RULE)]
    if dom.kind == "mod":
        gens.append(({(i, j, r): (i, j, wrap(r + 1)) for i, j, r in letters}, _SAME_RULE))
    ident = tuple(range(n + 1))
    perms = (0, 2, 1) + ident[3:], (0,) + ident[2:n - 1] + (1, n - 1, n)
    for p in dict.fromkeys(perms) if n >= 4 else ():  # one table at n = 4
        gens.append(({(i, j, r): (p[i], p[j], r) for i, j, r in letters}, _SAME_RULE))
    return gens if all(_commutes(table, rules, rhs) for table, rules in gens) else []


def _verified_shifts(rs, rhs, levels):
    """Do the level translations r -> r+t of a nat/int window carry a
    resolution along?  True iff the unit shifts t = 1 and t = -1 commute
    with the rules (_commutes) where their images stay in the window, an
    interval, so that a translate inside it is a chain of unit shifts
    inside it; False mod m, where the rotations are letter maps."""
    if rs.dom.kind == "mod":
        return False
    lvls, letters = rs.dom.levels(levels), rs.alphabet(levels)
    return all(_commutes({(i, j, r): (i, j, r + t) for i, j, r in letters
                          if lvls[0] <= r + t <= lvls[-1]}, _SAME_RULE, rhs) for t in (1, -1))


def _verified_grading(rs, levels):
    """Do the rules keep the bi-weight on the level window (None on a
    modular domain)?  True iff every term of reduce_once on every rule
    instance of the window has its left-hand side's bi-weight.  Every
    rewrite of a word with levels in the window applies such an instance
    inside an unchanged context, so normal forms then keep the bi-weight
    too.  Checked once per window and kept on the RuleSet."""
    key = rs.dom.levels(levels)
    ok = rs._graded.get(key)
    if ok is None:
        n = rs.n
        rhs = _instance_rhs(rs, rs.rule_instances(levels))
        ok = rs._graded[key] = all(
            bi_weight(n, t) == bi_weight(n, w) for (_, w), out in rhs.items() for t in out
        )
    return ok


def _canonical(rs, levels, sym, shift):
    """canon(w) -> (the key word of w's orbit under the verified maps other
    than the flip, the size of that orbit), as in check_confluence; sym
    and shift tell whether the letter maps and the translations passed."""
    n, lvls = rs.n, rs.dom.levels(levels)
    m = rs.dom.modulus if sym and rs.dom.kind == "mod" else 0
    top = n - 2 if sym else 0  # the indices 1..top are renamed
    per = [perm(n - 2, k) * (m or 1) for k in range(n - 1)]

    def canon(w):  # a plain loop: it runs on every streamed ambiguity
        base, size = (w[0][2] if m else 0), 1
        if shift:
            low = min([l[2] for l in w])
            base, size = low - lvls[0], len(lvls) + low - max([l[2] for l in w])
        names, out = {}, []  # a new index takes the next free name
        for i, j, r in w:
            if i <= top:
                i = names.setdefault(i, len(names) + 1)
            if j <= top:
                j = names.setdefault(j, len(names) + 1)
            out.append((i, j, (r - base) % m if m else r - base))
        return tuple(out), size * per[len(names)]
    return canon


def _orbit_firsts(rs, inst, levels, gens):
    """{instance: the first instance of its orbit} for the rule instances
    (rule, word) under the letter maps that gens (_verified_symmetries,
    gens[0] the flip) generate: an instance starts an orbit unless its key
    (_canonical) or its flip image's is taken."""
    canon = _canonical(rs, levels, gens, False)
    firsts, out = {}, {}
    for rule, w in inst:
        key = (rule, canon(w)[0])
        if key not in firsts and gens:
            firsts[_FLIP_RULE[rule], canon(_image(gens[0][0], w))[0]] = (rule, w)
        out[rule, w] = firsts.setdefault(key, (rule, w))
    return out


def _key(word, ma, mb):
    """One key per ambiguity, whichever of its matches comes first."""
    return (word,) + tuple(sorted((ma, mb)))


def _resolve(rs, inst, rhs, levels, gens, shift):
    """(Records of the unresolved ambiguities in report order, the number
    checked, the number of ambiguities.)  A streamed ambiguity whose key
    (_canonical) is new is checked; its key and its flip image's are taken
    and their orbits' sizes added to the total.  Its reductions are read
    off rhs (_instance_rhs) as pre + mid + post."""
    first = _orbit_firsts(rs, inst, levels, gens)
    canon = _canonical(rs, levels, gens, shift)
    seen = set()
    unresolved = []
    checked = total = 0
    for word, ma, mb in _ambiguities(inst, [a for a, f in first.items() if a == f]):
        cw, size = canon(word)
        key = _key(cw, ma, mb)
        if key in seen:
            continue
        seen.add(key)
        if gens:
            key = _key(canon(_image(gens[0][0], word))[0], (_FLIP_RULE[ma[0]], ma[1]),
                       (_FLIP_RULE[mb[0]], mb[1]))
            if key not in seen:
                seen.add(key)
                size *= 2
        total += size
        checked += 1
        (ra, _), (rb, s) = ma, mb
        la, lb = _RULES[ra][0], s + _RULES[rb][0]
        diff = {mid + word[la:]: c for mid, c in rhs[ra, word[:la]].items()}
        pre, post = word[:s], word[lb:]
        for mid, c in rhs[rb, word[s:lb]].items():
            v = pre + mid + post
            diff[v] = diff.get(v, 0) - c  # normal_form_int skips the zeros
        if rs.normal_form_int(diff):
            unresolved.append(AmbiguityRecord(word, ma, mb,
                                              rs.normal_form_int(rs.reduce_once(word, *ma)),
                                              rs.normal_form_int(rs.reduce_once(word, *mb))))
    unresolved.sort(key=lambda r: (storage_key(r.word), r.match_a, r.match_b))
    return unresolved, checked, total
