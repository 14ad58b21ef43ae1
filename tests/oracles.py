"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with naive
algorithms (generate-and-filter enumeration, dense Gaussian elimination)
and does not call into the package's rewrite or linalg internals, except
oracle_verify_axioms, which checks the field projection of the integer
axiom residuals against a per-field comparison built on the package's
structure maps, oracle_scan_gf2, which reads the package's word
coproducts, oracle_check_confluence, which resolves every ambiguity
with the package's rules and cached single-word normal forms
(oracle_normal_form_int, the cached sum that
freehopf.rewrite.RuleSet.normal_form_int replaced by one rewrite of the
whole combination), and oracle_normal_form_word, which those single-word
normal forms come from: the match-and-reduce loop (on oracle_matches,
every rule match of a word) that the package replaced by the step table
and then by the one whole-combination rewrite, which
freehopf.rewrite.RuleSet.normal_form_word now memoises; and
oracle_find_primitives, the kernel on every basis word that the
bi-weight (0,0) kernel of freehopf.analysis.find_primitives replaced.
oracle_match_at, oracle_reduce_once, oracle_step_entry and
oracle_rule_instances write the four rewriting rules out one by one, as the
package did before it derived R2 and R4 as the transposes of R1 and R3.
oracle_ambiguities, the deduplicated and sorted list of every ambiguity,
and oracle_verified_symmetries, which tests every candidate letter map of
oracle_candidate_symmetries, are the ambiguity enumeration and symmetry
filter that freehopf.rewrite.check_confluence ran before it streamed the
ambiguities of orbit representatives and tested only the generators of
its group; oracle_orbits and oracle_instance_orbits mark the orbits of
that whole group image by image, as check_confluence and the Hopf-ideal
certificate did before they keyed each orbit by a canonical form.
oracle_kernel is the tracked,
fully reduced elimination that freehopf.linalg.kernel replaced, and
oracle_tensor_remainder reduces modulo V (x) W in a package Echelon of all
the pair products, the route that freehopf.analysis._tensor_remainder
replaced.  oracle_subcoalgebras builds each reduced echelon basis from
enumerate_rref into a package Subspace and asks is_subcoalgebra, and
oracle_find_grouplikes tries every combination of a subspace's basis:
these are the odd-p scan loop and the grouplike search that the
structure-constant core freehopf.analysis._subcoalgebras replaced.
compare_words (with Ordering, word_levels and word_ij) is the termination
order of the rewriting rules, and oracle_storage_key the storage key that
freehopf.words.storage_key replaced by a cheaper one of the same order.
oracle_integer_certificate is the Hopf-ideal certificate with the
coproduct residual computed on every rule instance, as
freehopf.hopf.FreeHopfAlgebra._integer_certificate did before it computed
one residual per orbit of the verified letter maps; it calls the package's
confluence check, structure maps and axiom residuals.
"""

from enum import Enum
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from math import gcd

from freehopf.analysis import Subspace, _rref_pools, is_subcoalgebra
from freehopf.hopf import Element
from freehopf.linalg import Echelon, combine, kernel
from freehopf.rewrite import (R1, R2, R3, R4, RULE_NAMES, AmbiguityRecord, ConfluenceReport, RuleSet,
                              _FLIP_RULE, _SAME_RULE, _image, _key, check_confluence)
from freehopf.words import UNIT, storage_key, word_str


def make_up(kind, modulus):
    if kind == "mod":
        return lambda r: (r + 1) % modulus
    return lambda r: r + 1


def oracle_reducible(w, n, kind, modulus=None):
    """True iff the word contains any reduction pattern, by direct scan."""
    up = make_up(kind, modulus)
    for t in range(len(w) - 1):
        (ai, aj, ar), (bi, bj, br) = w[t], w[t + 1]
        if aj == n and bj == n and br == up(ar):
            return True
        if ai == n and bi == n and ar == up(br):
            return True
    for t in range(len(w) - 2):
        (ai, aj, ar), (bi, bj, br), (ci, cj, cr) = w[t], w[t + 1], w[t + 2]
        if aj == n and bj == n - 1 and cj == n - 1 and br == up(ar) and cr == up(br):
            return True
        if ai == n and bi == n - 1 and ci == n - 1 and ar == up(br) and br == up(cr):
            return True
    return False


def oracle_irreducible_count(n, kind, modulus, levels, max_len):
    """Generate-and-filter count of irreducible words per length."""
    alphabet = [
        (i, j, r)
        for r in levels
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]
    counts = {0: 1}
    for length in range(1, max_len + 1):
        total = 0
        for w in iproduct(alphabet, repeat=length):
            if not oracle_reducible(w, n, kind, modulus):
                total += 1
        counts[length] = total
    return counts


# -- word orders ------------------------------------------------------------------


class Ordering(Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1
    INCOMPARABLE = 2


def word_levels(w):
    return tuple(l[2] for l in w)


def word_ij(w):
    """The flattened row/column index sequence (i1, j1, i2, j2, ...)."""
    seq = []
    for i, j, _ in w:
        seq.append(i)
        seq.append(j)
    return tuple(seq)


def oracle_storage_key(w):
    """The storage order written out: length, then the level sequence
    lexicographically, then the index sequence lexicographically."""
    return (len(w), word_levels(w), word_ij(w))


def compare_words(a, b):
    """The partial order that orients the reduction system.

    a < b when a is shorter, or when the lengths and level sequences agree
    and the index sequence of a is lexicographically smaller.  Same-length
    words with different level sequences are incomparable.
    """
    if len(a) != len(b):
        return Ordering.LESS if len(a) < len(b) else Ordering.GREATER
    if word_levels(a) != word_levels(b):
        return Ordering.INCOMPARABLE
    ia, ib = word_ij(a), word_ij(b)
    if ia == ib:
        return Ordering.EQUAL
    return Ordering.LESS if ia < ib else Ordering.GREATER


def oracle_rank_q(rows):
    """Rank of a dense rational matrix (list of lists of Fractions/ints)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][c]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c] != 0:
                f = mat[r][c]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def oracle_rank_p(rows, p):
    """Rank of a dense matrix over GF(p) (list of lists of ints)."""
    mat = [[v % p for v in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][c]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][c], p - 2, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                f = mat[r][c]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _sub_scaled(field, acc, c, src, skip=None):
    """acc -= c * src in place over the field, dropping zeros and the key
    skip."""
    for k, c2 in src.items():
        if k == skip:
            continue
        s = acc.get(k)
        s = field.scalar(-(c * c2) if s is None else s - c * c2)
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def oracle_kernel(field, pairs, key=None):
    """Kernel of tag -> vector by a fully reduced row echelon that tracks,
    for every row, the combination of fed tags that produces it; each new
    pivot is back-substituted into every stored row and its combination.
    Returns one {tag: coeff} per vector that fails to raise the rank, in
    feed order.  Column keys are ordered by key (identity by default)."""
    key = key if key is not None else (lambda k: k)
    rows, combs, out = {}, {}, []
    for tag, vec in pairs:
        comb = {tag: field.one}
        v = {k: c for k, c in vec.items() if c}
        rem = {}
        while v:
            m = max(v, key=key)
            c = v.pop(m)
            if m not in rows:
                rem[m] = c
                continue
            _sub_scaled(field, v, c, rows[m], skip=m)
            _sub_scaled(field, comb, c, combs[m])
        if not rem:
            out.append(comb)
            continue
        m = max(rem, key=key)
        inv = field.inv(rem[m])
        row = {k: field.scalar(c * inv) for k, c in rem.items()}
        comb = {t: field.scalar(c * inv) for t, c in comb.items()}
        for q, qrow in rows.items():
            c = qrow.get(m)
            if c is not None:
                _sub_scaled(field, qrow, c, row)
                _sub_scaled(field, combs[q], c, comb)
        rows[m], combs[m] = row, comb
    return out


def oracle_tensor_remainder(terms, V, W):
    """Canonical remainder of the tensor terms modulo V (x) W, from a fully
    reduced Echelon of every product of a V basis element and a W basis
    element, keyed by word pairs in lexicographic storage order."""
    ech = Echelon(V.algebra.field,
                  key=lambda pair: (storage_key(pair[0]), storage_key(pair[1])))
    for bv in V.basis():
        for bw in W.basis():
            ech.insert({(wa, wb): ca * cb
                        for wa, ca in bv.terms.items()
                        for wb, cb in bw.terms.items()})
    return ech.reduce(terms)


def oracle_verify_axioms(H, max_len, levels=None, max_examples=5):
    """The Hopf-axiom report of H.verify_axioms, computed per field: every
    axiom's two sides are built as integer maps for each basis word and
    compared coefficient by coefficient modulo the characteristic, with no
    caching and no gcds.

    Uses the package's H.delta_word, H.antipode_int and
    H.rules.normal_form_word for the structure maps, so it checks the
    residual bookkeeping and the field projection, not the maps themselves.
    A modular domain ignores the window and reports levels None.
    """
    p = H.field.characteristic

    def same(m1, m2):
        for key in m1.keys() | m2.keys():
            d = m1.get(key, 0) - m2.get(key, 0)
            if d % p if p else d:
                return False
        return True

    names = [
        "coassociativity", "counit_left", "counit_right",
        "antipode_left", "antipode_right", "anti_coalgebra",
    ]
    order = H.antipode_order_bound
    if order:
        names.append("antipode_order")
    failures = {name: 0 for name in names}
    examples = {name: [] for name in names}

    def fail(name, w):
        failures[name] += 1
        if len(examples[name]) < max_examples:
            examples[name].append(word_str(w))

    words = H.basis_words(max_len, levels)
    nf = H.rules.normal_form_word
    for w in words:
        dw = H.delta_word(w)
        left, right = {}, {}
        cl, cr = {}, {}
        conv_l, conv_r = {}, {}
        for (a, b), k in dw.items():
            for (x, y), k2 in H.delta_word(a).items():
                key = (x, y, b)
                left[key] = left.get(key, 0) + k * k2
            for (x, y), k2 in H.delta_word(b).items():
                key = (a, x, y)
                right[key] = right.get(key, 0) + k * k2
            if H.counit_word(a):
                cl[b] = cl.get(b, 0) + k
            if H.counit_word(b):
                cr[a] = cr.get(a, 0) + k
            for t, c in H.antipode_int({a: 1}).items():
                for t2, c2 in nf(t + b).items():
                    conv_l[t2] = conv_l.get(t2, 0) + k * c * c2
            for t, c in H.antipode_int({b: 1}).items():
                for t2, c2 in nf(a + t).items():
                    conv_r[t2] = conv_r.get(t2, 0) + k * c * c2
        if not same(left, right):
            fail("coassociativity", w)
        if not same(cl, {w: 1}):
            fail("counit_left", w)
        if not same(cr, {w: 1}):
            fail("counit_right", w)
        eps = {UNIT: H.counit_word(w)}
        if not same(conv_l, eps):
            fail("antipode_left", w)
        if not same(conv_r, eps):
            fail("antipode_right", w)
        lhs = {}
        for t, c in H.antipode_int({w: 1}).items():
            for pair, k in H.delta_word(t).items():
                lhs[pair] = lhs.get(pair, 0) + c * k
        rhs = {}
        for (a, b), k in dw.items():
            sa = H.antipode_int({a: 1})
            sb = H.antipode_int({b: 1})
            for ta, ca in sa.items():
                for tb, cb in sb.items():
                    key = (tb, ta)
                    rhs[key] = rhs.get(key, 0) + k * ca * cb
        if not same(lhs, rhs):
            fail("anti_coalgebra", w)
        if order and not same(H.antipode_int({w: 1}, order), {w: 1}):
            fail("antipode_order", w)

    residuals = sum(failures.values())
    return {
        "config": H.describe(),
        "max_len": max_len,
        "levels": list(levels) if levels and H.domain.kind != "mod" else None,
        "words_checked": len(words),
        "failures": failures,
        "failure_examples": {k: v for k, v in examples.items() if v},
        "residuals": residuals,
        "ok": residuals == 0,
    }


def _rref_masks(m, k):
    """Every k x m reduced row-echelon basis over GF(2), as pivot columns
    and, per row, the (bitmask, set-bit tuple) choices (bit c = column c)."""
    cols = range(m)
    for pivots in combinations(cols, k):
        pivset = set(pivots)
        pools = []
        for i in range(k):
            free = [c for c in cols if c > pivots[i] and c not in pivset]
            vals = []
            for sub in iproduct((0, 1), repeat=len(free)):
                mask = 1 << pivots[i]
                for c, v in zip(free, sub):
                    if v:
                        mask |= 1 << c
                vals.append((mask, tuple(t for t in range(m) if (mask >> t) & 1)))
            pools.append(vals)
        yield pivots, pools


def oracle_scan_gf2(H, B, k):
    """Row-mask bases (bit t = word B[t]) of every k-dimensional subspace
    V of span(B) over GF(2) with Delta(V) inside V (x) V, by enumerating
    all subspaces of span(B) in word coordinates.

    Coordinates are extended by any words that occur in coproduct legs but
    lie outside B; a nonzero component there can never reduce to zero, so
    membership failure is detected by the same mask arithmetic.  Uses the
    package's H.delta_word for the coproducts.
    """
    m = len(B)
    index = {w: t for t, w in enumerate(B)}
    extras = []
    deltas = {}
    for b in B:
        dd = {}
        for (wa, wb), c in H.delta_word(b).items():
            if c % 2 == 0:
                continue
            dd[(wa, wb)] = 1
            for w in (wa, wb):
                if w not in index:
                    index[w] = m + len(extras)
                    extras.append(w)
        deltas[b] = dd
    e = m + len(extras)

    drows = [[0] * e for _ in range(m)]
    dcols = [[0] * e for _ in range(m)]
    for t, b in enumerate(B):
        for (wa, wb) in deltas[b]:
            ia, ib = index[wa], index[wb]
            drows[t][ia] |= 1 << ib
            dcols[t][ib] |= 1 << ia
    # visit the extra coordinates first: components there fail immediately
    a_order = list(range(m, e)) + list(range(m))

    found = []
    for pivots, pools in _rref_masks(m, k):
        plist = list(pivots)
        for chosen in iproduct(*pools):
            rows = tuple(c[0] for c in chosen)
            ok = True
            for _, bits in chosen:
                for a in a_order:
                    x = 0
                    y = 0
                    for t in bits:
                        x ^= drows[t][a]
                        y ^= dcols[t][a]
                    for pi, ri in zip(plist, rows):
                        if (x >> pi) & 1:
                            x ^= ri
                        if (y >> pi) & 1:
                            y ^= ri
                    if x or y:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(rows)
    return found


def enumerate_rref(p, m, k):
    """Yield every k x m reduced row-echelon basis over GF(p) as a list of
    row tuples; pivots are leftmost, rows ordered by pivot.  It walks the
    pools of freehopf.analysis._rref_pools in their order."""
    for _, pools in _rref_pools(p, m, k):
        for rows in iproduct(*pools):
            yield list(rows)


def oracle_subcoalgebras(C, k):
    """The k-dimensional subcoalgebras of the subcoalgebra C over GF(p), as
    tuples of coordinate rows on C's basis, in enumerate_rref order: each
    reduced echelon basis is built into a Subspace and tested with
    is_subcoalgebra."""
    H = C.algebra
    basis = C.basis()
    out = []
    for rows in enumerate_rref(H.field.characteristic, C.dim, k):
        V = Subspace(H, [sum((v * b for v, b in zip(row, basis) if v), H.zero())
                         for row in rows])
        if is_subcoalgebra(V).ok:
            out.append(tuple(rows))
    return out


def oracle_find_grouplikes(V):
    """Every grouplike element of the subspace V over GF(p), by testing
    each nonzero combination of V's basis, in lexicographic order of its
    coefficients."""
    H = V.algebra
    basis = V.basis()
    out = []
    for coeffs in iproduct(range(H.field.characteristic), repeat=V.dim):
        if not any(coeffs):
            continue
        x = H.zero()
        for c, b in zip(coeffs, basis):
            if c:
                x = x + c * b
        if x.counit() == H.field.one and x.coproduct() == H.tensor(x, x):
            out.append(x)
    return out


def oracle_integer_certificate(H):
    """The (checks, work) of H._integer_certificate() with step (b), the
    coproduct residual of each rule instance, computed on every instance:
    the loop that the per-orbit residuals of freehopf.hopf replaced.  Not
    cached."""
    rules = H.rules
    confluence = check_confluence(H.n, H.domain, (0, 4))
    ambiguities = [
        ("%s (%s at %d, %s at %d)" % (word_str(r.word), RULE_NAMES[r.match_a[0]],
                                      r.match_a[1], RULE_NAMES[r.match_b[0]], r.match_b[1]),
         gcd(*combine(((-1, r.nf_b),), dict(r.nf_a)).values()))
        for r in confluence.unresolved
    ]
    instances = rules.rule_instances((0, 2))
    delta, counit, anti = [], [], []
    for rule, lhs in instances:
        rhs = rules.reduce_once(lhs, rule, 0)
        label = "%s %s" % (RULE_NAMES[rule], word_str(lhs))
        d = combine(((-c, H._delta_terms(u)) for u, c in rhs.items()), H._delta_terms(lhs))
        e = H.counit_word(lhs) - sum(c * H.counit_word(u) for u, c in rhs.items())
        s = combine(((-1, H.antipode_int(rhs)),), H.antipode_int({lhs: 1}))
        for out, g in ((delta, gcd(*d.values())), (counit, abs(e)), (anti, gcd(*s.values()))):
            if g:
                out.append((label, g))
    words = H.basis_words(1, (0, 0))
    letters = [(word_str(w), gcd(*gcds)) for w, gcds in H._integer_residuals(words)]
    checks = {"confluence": ambiguities, "delta": delta, "counit": counit,
              "antipode": anti, "letters": letters}
    work = {"ambiguities": confluence.total, "ambiguities_checked": confluence.checked,
            "rule_instances": len(instances), "letters": len(words) - 1}
    return checks, work


def oracle_normal_form_int(rs, terms, cache):
    """Normal form of an integer combination {word: coeff} as the sum of
    c * oracle_normal_form_word(rs, w, cache), each word's normal form kept
    in cache, a dict the caller shares between calls: what
    freehopf.rewrite.RuleSet.normal_form_int computed before it rewrote the
    combination itself, largest word first, with no cache."""
    return combine((c, oracle_normal_form_word(rs, w, cache)) for w, c in terms.items() if c)


def oracle_check_confluence(n, dom, levels=None):
    """The full confluence check that freehopf.rewrite.check_confluence
    replaced: test every ordered pair of rule instances at every shift and
    compute both normal forms of every ambiguity (oracle_normal_form_int,
    with one cache for the whole check).  It runs on a private RuleSet, so
    a patched rule set leaves nothing in the shared caches."""
    if dom.kind == "mod":
        levels = None
    else:
        if levels is None:
            raise ValueError("a level window is required for the %s domain" % dom.kind)
        if levels[1] - levels[0] + 1 < 5:
            raise ValueError("level window %r too narrow" % (levels,))
        levels = tuple(levels)
    rs = RuleSet(n, dom)
    inst = rs.rule_instances(levels)
    seen = set()
    unresolved = []
    cache = {}
    for (ra, wa), (rb, wb) in iproduct(inst, inst):
        la, lb = len(wa), len(wb)
        for s in range(la):
            if s + lb <= la:
                # wb sits inside wa
                if (rb, s) == (ra, 0) or wa[s:s + lb] != wb:
                    continue
                word = wa
            else:
                # proper overlap: a suffix of wa is a prefix of wb
                if s == 0 or wa[s:] != wb[:la - s]:
                    continue
                word = wa + wb[la - s:]
            key = (word, tuple(sorted(((ra, 0), (rb, s)))))
            if key in seen:
                continue
            seen.add(key)
            nf_a = oracle_normal_form_int(rs, rs.reduce_once(word, ra, 0), cache)
            nf_b = oracle_normal_form_int(rs, rs.reduce_once(word, rb, s), cache)
            if nf_a != nf_b:
                unresolved.append(AmbiguityRecord(word, (ra, 0), (rb, s), nf_a, nf_b))
    unresolved.sort(key=lambda r: (storage_key(r.word), r.match_a, r.match_b))
    return ConfluenceReport(n, dom, levels, len(seen), unresolved, len(seen), 1)


def oracle_matches(rs, w):
    """All (rule, position) pairs matching w, sorted by position then rule,
    by rs.match_at at every position; formerly RuleSet.matches, which no
    package code called."""
    out = []
    for pos in range(len(w)):
        for rule in (R1, R2, R3, R4):
            if rs.match_at(w, rule, pos):
                out.append((rule, pos))
    out.sort(key=lambda m: (m[1], m[0]))
    return out


def oracle_normal_form_word(rs, w, cache=None):
    """Normal form of w by the loop that RuleSet.normal_form_word ran before
    its step table and its rewrite of whole combinations: find the leftmost
    match (the first of oracle_matches, so R1 before R2 before R3 before R4
    at equal positions), rewrite it with rs.reduce_once at its position in
    the whole word, repeat.  Normal forms are kept in cache (a new dict by
    default), never in rs."""
    cache = {} if cache is None else cache
    stack = [w]
    while stack:
        u = stack[-1]
        if u in cache:
            stack.pop()
            continue
        found = oracle_matches(rs, u)
        if not found:
            cache[u] = {u: 1}
            stack.pop()
            continue
        expansion = rs.reduce_once(u, *found[0])
        pending = [v for v in expansion if v not in cache]
        if pending:
            stack.extend(pending)
            continue
        acc = {}
        for v, c in expansion.items():
            for t, k in cache[v].items():
                acc[t] = acc.get(t, 0) + c * k
        cache[u] = {t: c for t, c in acc.items() if c}
        stack.pop()
    return cache[w]


def oracle_find_primitives(H, max_len, levels=None):
    """The primitive search that freehopf.analysis.find_primitives ran
    before its bi-weight restriction: the kernel of
    w -> Delta(w) - w (x) 1 - 1 (x) w on every basis word of length <=
    max_len."""
    pairs = []
    for w in H.basis_words(max_len, levels):
        vec = dict(H.delta_word(w))
        for pair in ((w, UNIT), (UNIT, w)):
            vec[pair] = vec.get(pair, 0) - 1
        pairs.append((w, vec))
    return [Element(H, c) for c in kernel(H.field, pairs)]


# -- the four rules, written out one by one ------------------------------------
#
# The transcription of R1-R4 that freehopf.rewrite.RuleSet replaced by two
# shapes in two orientations: each rule's left-hand side and right-hand side
# by hand, with its own branch.


def oracle_match_at(n, dom, w, rule, pos):
    """Does the given rule's left-hand side sit at position pos of w?"""
    up = dom.up
    if rule == R1:
        if pos + 2 > len(w):
            return False
        a, b = w[pos], w[pos + 1]
        return a[1] == n and b[1] == n and b[2] == up(a[2])
    if rule == R2:
        if pos + 2 > len(w):
            return False
        a, b = w[pos], w[pos + 1]
        return a[0] == n and b[0] == n and a[2] == up(b[2])
    if rule == R3:
        if pos + 3 > len(w):
            return False
        a, b, c = w[pos], w[pos + 1], w[pos + 2]
        return (
            a[1] == n and b[1] == n - 1 and c[1] == n - 1
            and b[2] == up(a[2]) and c[2] == up(b[2])
        )
    if rule == R4:
        if pos + 3 > len(w):
            return False
        a, b, c = w[pos], w[pos + 1], w[pos + 2]
        return (
            a[0] == n and b[0] == n - 1 and c[0] == n - 1
            and b[2] == up(c[2]) and a[2] == up(b[2])
        )
    raise ValueError("unknown rule id %r" % (rule,))


def oracle_reduce_once(n, dom, w, rule, pos):
    """The matched left-hand side replaced once, as {word: coeff} with its
    items in the order the terms are first written."""
    if not oracle_match_at(n, dom, w, rule, pos):
        raise ValueError(
            "%s does not match %s at position %d" % (RULE_NAMES[rule], word_str(w), pos)
        )
    pre, post = w[:pos], w[pos + (2 if rule in (R1, R2) else 3):]
    acc = {}

    def put(mid, coeff):
        t = pre + mid + post
        c = acc.get(t, 0) + coeff
        if c:
            acc[t] = c
        else:
            acc.pop(t, None)

    if rule == R1:
        (i, _, r1), (j, _, r2) = w[pos], w[pos + 1]
        if i == j:
            put(UNIT, 1)
        for a in range(1, n):
            put(((i, a, r1), (j, a, r2)), -1)
    elif rule == R2:
        (_, i, r1), (_, j, r2) = w[pos], w[pos + 1]
        if i == j:
            put(UNIT, 1)
        for a in range(1, n):
            put(((a, i, r1), (a, j, r2)), -1)
    elif rule == R3:
        (i, _, r1), (j, _, r2), (k, _, r3) = w[pos], w[pos + 1], w[pos + 2]
        if j == k:
            put(((i, n, r1),), 1)
        if i == j:
            put(((k, n, r3),), -1)
        for a in range(1, n):
            put(((i, a, r1), (j, a, r2), (k, n, r3)), 1)
        for a in range(1, n - 1):
            put(((i, n, r1), (j, a, r2), (k, a, r3)), -1)
    else:  # R4
        (_, i, r1), (_, j, r2), (_, k, r3) = w[pos], w[pos + 1], w[pos + 2]
        if j == k:
            put(((n, i, r1),), 1)
        if i == j:
            put(((n, k, r3),), -1)
        for a in range(1, n):
            put(((a, i, r1), (a, j, r2), (n, k, r3)), 1)
        for a in range(1, n - 1):
            put(((n, i, r1), (a, j, r2), (a, k, r3)), -1)
    return acc


def oracle_step_entry(n, dom, window):
    """The step-table entry of a 2- or 3-letter window: the items of the
    first of R1, R2 (or R3, R4) that matches it, else "R3/R4" for a pair
    where an R3 or R4 left-hand side may start, else None."""
    pair = len(window) == 2
    for rule in (R1, R2) if pair else (R3, R4):
        if oracle_match_at(n, dom, window, rule, 0):
            return tuple(oracle_reduce_once(n, dom, window, rule, 0).items())
    if pair:
        up = dom.up
        a, b = window
        if (a[1] == n and b[1] == n - 1 and b[2] == up(a[2])
                or a[0] == n and b[0] == n - 1 and a[2] == up(b[2])):
            return "R3/R4"
    return None


def oracle_rule_instances(n, dom, levels=None):
    """Every concrete left-hand side whose levels fit in the window."""
    lvls = dom.levels(levels)
    lset = set(lvls)

    def chain(r, length):
        # r, r+1, ... as far as the window allows
        seq = [r]
        for _ in range(length - 1):
            s = dom.up(seq[-1])
            if dom.kind != "mod" and s not in lset:
                return None
            seq.append(s)
        return seq

    rng = range(1, n + 1)
    inst = []
    for r in lvls:
        two = chain(r, 2)
        if two is not None:
            for i, j in iproduct(rng, rng):
                inst.append((R1, ((i, n, two[0]), (j, n, two[1]))))
                inst.append((R2, ((n, i, two[1]), (n, j, two[0]))))
        three = chain(r, 3)
        if three is not None:
            for i, j, k in iproduct(rng, rng, rng):
                inst.append((R3, ((i, n, three[0]), (j, n - 1, three[1]), (k, n - 1, three[2]))))
                inst.append((R4, ((n, i, three[2]), (n - 1, j, three[1]), (n - 1, k, three[0]))))
    return inst


def oracle_ambiguities(inst):
    """Every ambiguity (word, match_a, match_b) of the rule instances, once,
    in report order: storage order of the word, then the matches.

    One pair of matches is found from both of its instances only when both
    sit at position 0 of one word; match_a is then the earlier instance,
    as in a scan of all ordered pairs of instances.
    """
    by_lhs, by_prefix = {}, {}
    for rule, w in inst:
        by_lhs.setdefault(w, []).append(rule)
        for k in range(1, len(w)):
            by_prefix.setdefault(w[:k], []).append((rule, w))
    seen = set()
    out = []
    for ra, wa in inst:
        la = len(wa)
        for s in range(la):
            # a whole left-hand side inside wa at s
            hits = [(rb, wa) for e in range(s + 1, la + 1)
                    for rb in by_lhs.get(wa[s:e], ()) if (rb, s) != (ra, 0)]
            # a proper overlap: the suffix of wa from s starts a longer one
            if s:
                hits += [(rb, wa + wb[la - s:]) for rb, wb in by_prefix.get(wa[s:], ())]
            for rb, word in hits:
                key = _key(word, (ra, 0), (rb, s))
                if key not in seen:
                    seen.add(key)
                    out.append((word, (ra, 0), (rb, s)))
    out.sort(key=lambda a: (storage_key(a[0]), a[1], a[2]))
    return out


def oracle_candidate_symmetries(rs, levels):
    """(letter table, rule map) of each candidate symmetry, identity first,
    and the positions of the group's generators: every product of the
    index permutations of 1..n-2, the flip and the mod rotations, as
    freehopf.rewrite.check_confluence listed them before it built the
    generators alone."""
    n, dom, wrap = rs.n, rs.dom, rs.dom.canon
    if dom.kind == "mod":
        shifts, centre = range(dom.modulus), 0
    else:
        lvls = dom.levels(levels)
        shifts, centre = (0,), lvls[0] + lvls[-1]
    letters = rs.alphabet(levels)
    ident = tuple(range(1, n - 1))
    out, gens = [], [1, 2][:len(shifts)]  # the flip at 1, the rotation at 2
    for perm in permutations(ident):
        if perm != ident and perm in (ident[1::-1] + ident[2:], ident[1:] + ident[:1]):
            gens.append(len(out))
        p = (0,) + perm + (n - 1, n)
        for t in shifts:
            out.append(({(i, j, r): (p[i], p[j], wrap(r + t)) for i, j, r in letters},
                        _SAME_RULE))
            out.append(({(i, j, r): (p[j], p[i], wrap(centre + t - r)) for i, j, r in letters},
                        _FLIP_RULE))
    return out, gens


def oracle_verified_symmetries(rs, rhs, levels):
    """Every candidate letter map of oracle_candidate_symmetries that maps
    every rule instance to a rule instance and commutes with reduce_once
    on it (rhs is _instance_rhs of the instances), tested one by one,
    identity first."""
    return [
        (table, rules) for table, rules in oracle_candidate_symmetries(rs, levels)[0]
        if all(rhs.get((rules[rule], _image(table, w)))
               == {_image(table, t): c for t, c in out.items()}
               for (rule, w), out in rhs.items())
    ]


def oracle_instance_orbits(inst, group):
    """The orbits of the rule instances (rule, word) under the letter maps
    (table, rules) of group, as frozensets."""
    return {frozenset((rules[rule], _image(table, w)) for table, rules in group)
            for rule, w in inst}


def oracle_orbits(rs, levels, group, translate):
    """The orbits of the ambiguities of rs's rule instances on the window,
    as frozensets of their keys: each ambiguity's images under group and,
    with translate, every translate r -> r+t of an image that stays in the
    window, marked one by one as freehopf.rewrite.check_confluence did
    before it keyed each orbit by a canonical form."""
    lvls = rs.dom.levels(levels)
    width = len(lvls) - 1 if translate else 0
    covered, orbits = set(), []
    for word, ma, mb in oracle_ambiguities(rs.rule_instances(levels)):
        if _key(word, ma, mb) in covered:
            continue
        orbit = set()
        for table, rules in group:
            image = _image(table, word)
            a, b = (rules[ma[0]], ma[1]), (rules[mb[0]], mb[1])
            for t in range(-width, width + 1):
                moved = tuple((i, j, r + t) for i, j, r in image)
                if all(lvls[0] <= l[2] <= lvls[-1] for l in moved):
                    orbit.add(_key(moved, a, b))
        covered |= orbit
        orbits.append(frozenset(orbit))
    return orbits
