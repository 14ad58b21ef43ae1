"""Subspace and subcoalgebra analysis tools.

Provides finite-dimensional subspace arithmetic on the word basis, the
level spans and alternating-word spans used throughout the test corpus,
subcoalgebra verdicts with witnesses, the largest subcoalgebra inside a
subspace, primitive and grouplike searches, and a scanner that either
checks the alternating candidate span or finds every k-dimensional
subcoalgebra of a small ambient space over a prime field by enumerating
the k-dimensional subspaces of the ambient's largest subcoalgebra.  That
search, _subcoalgebras, also finds the grouplikes: U is a subcoalgebra iff
Delta(U) lies in U (x) C and C (x) U, whose meet is U (x) U (Sweedler).

The primitive search solves its kernel on the basis words of bi-weight
(0,0) only (x[i,j;r] has row weight s*e_i and column weight s*e_j, with
s = (-1)^r), once a run-time check shows that the rules keep the
bi-weight on the window; every primitive lies in that block.  If the
check fails, it solves on every basis word.
"""

import time
from dataclasses import dataclass, field as dc_field
from functools import cache
from itertools import combinations, product as iproduct
from operator import mul

from .hopf import Element, FreeHopfAlgebra, Tensor
from .linalg import Echelon, combine, kernel
from .rewrite import _verified_grading
from .words import UNIT, storage_key, word_str


class Subspace:
    """A finite-dimensional subspace of the algebra, held in reduced
    row-echelon form over the irreducible-word basis."""

    def __init__(self, algebra, elements=()):
        self.algebra = algebra
        self._ech = Echelon(algebra.field, key=storage_key)
        for el in elements:
            self.add(el)

    @classmethod
    def from_words(cls, algebra, words):
        return cls(algebra, [algebra.element([(w, 1)]) for w in words])

    def add(self, el):
        self.algebra._check(el)
        return self._ech.insert(dict(el.terms))

    @property
    def dim(self):
        return self._ech.dim

    def basis(self):
        return [Element(self.algebra, dict(r)) for r in self._ech.basis_rows()]

    def contains(self, el):
        self.algebra._check(el)
        return self._ech.contains(el.terms)

    def reduce(self, el):
        self.algebra._check(el)
        return Element(self.algebra, self._ech.reduce(el.terms))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.algebra == other.algebra
            and self._ech.rows == other._ech.rows
        )

    __hash__ = None

    def __repr__(self):
        return "<Subspace dim=%d over %s>" % (self.dim, self.algebra.describe())

    def describe(self):
        return {
            "dim": self.dim,
            "basis": [str(b) for b in self.basis()],
        }


# -- distinguished spans -----------------------------------------------------


def _level_words(H, levels_seq):
    """Yield every raw word, reducible or not, with the given level sequence."""
    seq = [H.domain.canon(r) for r in levels_seq]
    for ij in iproduct(range(1, H.n + 1), repeat=2 * len(seq)):
        yield tuple((ij[2 * t], ij[2 * t + 1], r) for t, r in enumerate(seq))


def level_span(H, levels_seq):
    """Span of the normal forms of all words with the given level sequence
    (the image of the level-indexed matrix-power coalgebra)."""
    return Subspace(H, [H.element([(w, 1)]) for w in _level_words(H, levels_seq)])


def irreducible_level_words(H, levels_seq):
    """Irreducible words whose level sequence is exactly the given one,
    in storage order."""
    return sorted(filter(H.rules.is_irreducible, _level_words(H, levels_seq)),
                  key=storage_key)


def irreducible_level_span(H, levels_seq):
    """Span of the irreducible words with the given level sequence."""
    return Subspace.from_words(H, irreducible_level_words(H, levels_seq))


def alternating_words(H, levels_seq):
    """The four words (n = 2 only) whose row indices alternate 1,2,1,...
    or 2,1,2,... and whose column indices do likewise, at the given levels."""
    if H.n != 2:
        raise ValueError("alternating words are defined for n = 2 only")
    if len(levels_seq) < 1:
        raise ValueError("need at least one level")
    seq = [H.domain.canon(r) for r in levels_seq]
    words = []
    for i0, j0 in iproduct((1, 2), repeat=2):
        w = tuple(
            (1 + (i0 - 1 + t) % 2, 1 + (j0 - 1 + t) % 2, seq[t])
            for t in range(len(seq))
        )
        words.append(w)
    words.sort(key=storage_key)
    return words


def alternating_span(H, levels_seq):
    """Span of the four alternating words; they are always irreducible."""
    words = alternating_words(H, levels_seq)
    for w in words:
        if not H.rules.is_irreducible(w):
            raise AssertionError("alternating word %s is reducible" % word_str(w))
    return Subspace.from_words(H, words)


# -- subcoalgebra verdicts ----------------------------------------------------


@dataclass
class Verdict:
    ok: bool
    witness: object = None
    detail: str = ""

    def __bool__(self):
        return self.ok

    def describe(self):
        out = {"ok": self.ok}
        if self.witness is not None:
            out["witness"] = str(self.witness)
        if self.detail:
            out["detail"] = self.detail
        return out


def _tensor_remainder(terms, V, W):
    """Canonical remainder of the tensor terms modulo V (x) W.

    The echelon rows of V and W are fully reduced, so the projection onto V
    along the non-pivot words reads x at the pivots: pi_V(x) = sum over
    pivots p of x[p] * row_p.  The pair rows row_p (x) row_q span V (x) W
    and are themselves fully reduced under the lexicographic pair order, so
    the canonical remainder is t - (pi_V (x) pi_W)(t)."""
    rv, rw = V._ech.rows, W._ech.rows
    return combine(
        ((-c * ca, {(x, y): cb for y, cb in rw[q].items()})
         for (p, q), c in terms.items() if p in rv and q in rw
         for x, ca in rv[p].items()),
        dict(terms),
        V.algebra.field.characteristic,
    )


def tensor_membership(t, V, W):
    """True iff the tensor t lies in V (x) W."""
    if not isinstance(t, Tensor):
        raise TypeError("expected a Tensor")
    if not t.parent == V.algebra == W.algebra:
        raise ValueError("tensor of %r tested against spans in %r and %r"
                         % (t.parent, V.algebra, W.algebra))
    return not _tensor_remainder(t.terms, V, W)


def is_subcoalgebra(V):
    """Verdict on Delta(V) being contained in V (x) V, with a witness basis
    element and an offending tensor component on failure."""
    H = V.algebra
    for b in V.basis():
        rem = _tensor_remainder(H.coproduct(b).terms, V, V)
        if rem:
            pair = max(rem, key=Tensor._sort_key)
            return Verdict(
                False,
                witness=b,
                detail="Delta(witness) has component %s (x) %s outside V (x) V"
                % (word_str(pair[0]), word_str(pair[1])),
            )
    return Verdict(True)


def _element(H, pairs):
    """The sum in H of c * b over the (c, b) pairs."""
    return sum((c * b for c, b in pairs if c), H.zero())


def largest_subcoalgebra(V):
    """The largest subcoalgebra contained in the subspace V, over any field.

    Iterates W <- {x in W : Delta(x) in W (x) W} from W = V, one kernel per
    step, until the step keeps all of W.  Every subcoalgebra inside V lies
    in each iterate, so the fixpoint contains them all (Sweedler, Hopf
    Algebras, ch. II).  The kernel is that of x -> (Delta(x) reduced modulo
    W (x) W), which is linear because the reduced remainder is canonical."""
    H = V.algebra
    W = V
    while W.dim:
        basis = W.basis()
        pairs = [(t, _tensor_remainder(H.coproduct(b).terms, W, W))
                 for t, b in enumerate(basis)]
        combos = kernel(H.field, pairs)
        if len(combos) == W.dim:
            break
        W = Subspace(H, [_element(H, ((c, basis[t]) for t, c in comb.items()))
                         for comb in combos])
    return W


# -- primitive and grouplike searches -----------------------------------------


def _primitive_map(H, words):
    """Yield (w, Delta(w) - w (x) 1 - 1 (x) w) with integer coefficients for
    each of the given basis words w, one at a time."""
    for w in words:
        vec = dict(H.delta_word(w))
        for pair in ((w, UNIT), (UNIT, w)):  # inline: two single entries
            vec[pair] = vec.get(pair, 0) - 1
        yield w, vec


def find_primitives(H, max_len, levels=None):
    """Basis of the space of primitive elements (Delta x = x (x) 1 + 1 (x) x)
    supported on irreducible words of length <= max_len.

    When the rules keep the bi-weight on the window (rewrite._verified_grading),
    the kernel is built on the words of bi-weight (0,0) alone; otherwise on
    every basis word.  Those words are listed without the rest of the basis:
    RuleSet.irreducible_words extends a prefix only while its row and column
    weights can still return to zero in the letters left.  At n = 2 and
    max_len 3 that takes 528 extension tests for the 17 such words of
    ord:2, whose basis has 3345 words, and 252 for the 9 of free on
    (0, 2), of 1501.  The answer is the same: Delta is fixed by its
    letters, and Delta(x[i,j;r]) = sum_a x[i,a;r] (x) x[a,j;r] maps
    bi-weight (R,K) into the pairs of bi-weights (R,M), (M,K), which the
    normal forms keep.  So no key of x -> Delta(x) - x (x) 1 - 1 (x) x is
    hit by words of two bi-weights: the map is block-diagonal.  kernel
    closes each word against the earlier words that raised the rank, so a
    block's relations use that block's words alone, and a relation in
    block (R,K) is a primitive, whose x (x) 1 and 1 (x) x terms force
    K = 0 and R = 0.  The restricted kernel is therefore the full one,
    relation for relation."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")  # before any window error
    graded = _verified_grading(H.rules, levels)
    words = H.rules.irreducible_words(max_len, levels, zero_weight=graded)
    return [Element(H, c) for c in kernel(H.field, _primitive_map(H, words))]


def find_grouplikes(V):
    """All grouplike elements (eps x = 1, Delta x = x (x) x) inside the
    subspace V over a prime field, sorted by coordinates on V's basis: the
    subcoalgebras k x of V's largest subcoalgebra, scaled to counit 1.  A
    grouplike spans one, and if k x is one, then Delta x = l x (x) x and
    x = (eps (x) id) Delta x = l eps(x) x, so x / eps(x) is grouplike.  The
    unit's span is handled over any field; other rational searches, and
    subcoalgebras of more than GROUPLIKE_BOUND lines, are refused."""
    H = V.algebra
    if V == Subspace(H, [H.one()]):
        return [H.one()]
    p = H.field.characteristic
    if not p:
        raise ValueError(
            "grouplike enumeration over the rationals is only supported "
            "for the span of the unit"
        )
    C = largest_subcoalgebra(V)
    count = gaussian_binomial(C.dim, 1, p)
    if count > GROUPLIKE_BOUND:
        raise ValueError("search space of size %d exceeds the bound %d"
                         % (count, GROUPLIKE_BOUND))
    basis = C.basis()
    lines = [_element(H, zip(row, basis)) for (row,) in _subcoalgebras(C, 1)]
    return sorted((H.field.inv(x.counit()) * x for x in lines),
                  key=lambda g: [g.terms.get(w, 0) for w in V._ech.pivots()])


# -- subspace enumeration ------------------------------------------------------


def gaussian_binomial(m, k, q):
    """Number of k-dimensional subspaces of an m-dimensional space over a
    field with q elements."""
    if k < 0 or k > m:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _rref_pools(p, m, k):
    """For each k-tuple of pivot columns of a k x m reduced row-echelon basis
    over GF(p), in lexicographic order, yield (pivots, pools): pools[i]
    lists every possible row i as a tuple (1 at its pivot, 0 at the other
    pivots and left of its own), its free entries in lexicographic order."""
    for pivots in combinations(range(m), k):
        pools = []
        for piv in pivots:
            free = [c for c in range(piv + 1, m) if c not in pivots]
            pool = []
            for vals in iproduct(range(p), repeat=len(free)):
                row = [0] * m
                row[piv] = 1
                for c, v in zip(free, vals):
                    row[c] = v
                pool.append(tuple(row))
            pools.append(pool)
        yield pivots, pools


def _subcoalgebras(C, k):
    """Coordinate rows on C's basis of the reduced echelon basis of each
    k-dimensional subcoalgebra U of the subcoalgebra C over GF(p), in
    _rref_pools order.  As c_a is 1 at its pivot word p_a and 0 at the other
    pivots, the coefficient of c_a (x) c_b in Delta(c_t) is that of Delta(c_t)
    at (p_a, p_b): the matrix M(u) of Delta(u), u in C.  U is a subcoalgebra
    iff, for each basis row u, every row (Delta(u) in C (x) U) and column
    (in U (x) C) of M(u) lies in U, i.e. equals the combination of U's rows
    with its own pivot entries as coefficients.  M(u)'s distinct nonzero
    rows and columns depend on u alone, so are computed once per u."""
    p = C.algebra.field.characteristic
    m = C.dim
    index = {w: a for a, w in enumerate(C._ech.pivots())}
    consts = [{(index[x], index[y]): c for (x, y), c in b.coproduct().terms.items()
               if x in index and y in index} for b in C.basis()]

    @cache
    def lines(u):
        rows, cols = {}, {}
        for (a, b), c in combine(((v, t) for v, t in zip(u, consts) if v), p=p).items():
            rows.setdefault(a, [0] * m)[b] = c
            cols.setdefault(b, [0] * m)[a] = c
        return list(dict.fromkeys(map(tuple, (*rows.values(), *cols.values()))))

    def accepts(pivots, rows):
        for u in rows:
            for v in lines(u):
                cs = [v[a] for a in pivots]
                # most lines have one pivot entry 1, so are that row (BENCH_19.json)
                if v != (rows[cs.index(1)] if sum(cs) == 1 else
                         tuple(sum(map(mul, cs, col)) % p for col in zip(*rows))):
                    return False
        return True

    return [rows for pivots, pools in _rref_pools(p, m, k) for rows in iproduct(*pools)
            if accepts(pivots, rows)]


# -- the scan -------------------------------------------------------------------


@dataclass
class ScanReport:
    config: dict
    levels_seq: tuple
    mode: str
    dimension: int
    ambient_dim: int
    subspace_count: object
    core_dim: object = None
    found: list = dc_field(default_factory=list)
    contains_alternating: object = None
    elapsed: float = 0.0

    def describe(self):
        return {
            "config": self.config,
            "levels": list(self.levels_seq),
            "mode": self.mode,
            "dimension": self.dimension,
            "ambient_dim": self.ambient_dim,
            "subspace_count": self.subspace_count,
            "core_dim": self.core_dim,
            "found": [s.describe() for s in self.found],
            "found_count": len(self.found),
            "contains_alternating": self.contains_alternating,
            "elapsed_seconds": round(self.elapsed, 3),
        }


EXHAUSTIVE_BOUND = 10 ** 7
GROUPLIKE_BOUND = 2 ** 24


def scan_matrix_subcoalgebras(H, levels_seq, mode="candidate", dimension=None):
    """Search the span of irreducible words at the given level sequence for
    subcoalgebras of the given dimension (default n*n).

    candidate mode: test only the alternating-word span.
    exhaustive mode: over a prime field, find every subcoalgebra of that
    dimension in the span.  Each one lies in the largest subcoalgebra C of
    the span, so only the subspaces of C are enumerated (C's dimension is
    reported as core_dim).  subspace_count is the number of subspaces of
    the whole span that the answer covers, and the scan is refused when it
    exceeds EXHAUSTIVE_BOUND.
    """
    start = time.monotonic()
    if dimension is None:
        dimension = H.n * H.n
    seq = tuple(H.domain.canon(r) for r in levels_seq)
    B = irreducible_level_words(H, seq)
    report = ScanReport(
        config=H.describe(),
        levels_seq=seq,
        mode=mode,
        dimension=dimension,
        ambient_dim=len(B),
        subspace_count=None,
    )

    if mode == "candidate":
        D = alternating_span(H, seq)
        verdict = is_subcoalgebra(D)
        report.subspace_count = 1
        report.found = [D] if verdict.ok else []
        report.contains_alternating = verdict.ok
    elif mode == "exhaustive":
        p = H.field.characteristic
        if not p:
            raise ValueError("exhaustive scan requires a prime field")
        count = gaussian_binomial(len(B), dimension, p)
        if count > EXHAUSTIVE_BOUND:
            raise ValueError(
                "exhaustive scan over %d subspaces exceeds the bound %d; "
                "use candidate mode" % (count, EXHAUSTIVE_BOUND)
            )
        report.subspace_count = count
        C = largest_subcoalgebra(Subspace.from_words(H, B))
        report.core_dim = C.dim
        if 0 <= dimension <= C.dim:
            basis = C.basis()
            report.found = [Subspace(H, [_element(H, zip(row, basis)) for row in rows])
                            for rows in _subcoalgebras(C, dimension)]
        try:
            D = alternating_span(H, seq)
        except ValueError:
            D = None
        if D is not None:
            report.contains_alternating = any(V == D for V in report.found)
    else:
        raise ValueError("unknown scan mode %r" % mode)

    report.elapsed = time.monotonic() - start
    return report


# -- coalgebra endomorphisms ----------------------------------------------------


def verify_coalgebra_map(H, images):
    """True iff the n x n family images[i][j] satisfies the matrix-coalgebra
    map conditions: eps(c[i][j]) = d(i,j) and
    Delta(c[i][j]) = sum_k c[i][k] (x) c[k][j]."""
    n = H.n
    if len(images) != n or any(len(row) != n for row in images):
        raise ValueError("expected an %d x %d family of elements" % (n, n))
    one, zero = H.field.one, H.field.zero
    for i in range(n):
        for j in range(n):
            c = images[i][j]
            H._check(c)
            if c.counit() != (one if i == j else zero):
                return False
    for i in range(n):
        for j in range(n):
            rhs = Tensor(H, {})
            for k in range(n):
                rhs = rhs + H.tensor(images[i][k], images[k][j])
            if images[i][j].coproduct() != rhs:
                return False
    return True


def antipode_power_report(H, max_power):
    """Apply antipode powers 0..max_power to every level-0 generator and
    report how many distinct images arise and the first period, if any."""
    gens = [H.gen(i, j, 0) for i in range(1, H.n + 1) for j in range(1, H.n + 1)]
    snapshots = []
    for t in range(max_power + 1):
        snapshots.append(tuple(str(H.antipode(g, power=t)) for g in gens))
    period = None
    for t in range(1, max_power + 1):
        if snapshots[t] == snapshots[0]:
            period = t
            break
    witness = [snap[min(1, len(snap) - 1)] for snap in snapshots]
    return {
        "config": H.describe(),
        "max_power": max_power,
        "distinct": len(set(snapshots)),
        "period": period,
        "witness_images": witness,
    }
