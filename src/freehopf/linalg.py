"""Sparse exact linear algebra over a coefficient field.

Vectors are dicts mapping hashable basis keys (words, word pairs, ...) to
nonzero coefficients.  combine is the one add-and-drop-zeros step: every
loop in the package that adds a multiple of an existing {key: coeff} dict
goes through it, on ints, Fractions or field scalars alike.  Loops that
build new keys as they go (delta_word, reduce_once, the axiom residuals) or
reduce mod p on plain ints (kernel) stay inline.

Two eliminations live here:

* An Echelon keeps a fully reduced row set: each row is normalized to
  leading coefficient 1 on its pivot (the largest key in the row under the
  chosen ordering, ``storage_key`` on words in the package) and contains
  no other row's pivot, so reduction against it yields canonical
  remainders.  Subspace equality, basis order and printing rely on them.
* kernel, the only elimination on word-pair keys, runs a semi-echelon
  elimination on interned column ids: each key becomes an int in the order
  keys are first seen, a row's pivot is its largest id, and stored rows
  are never back-substituted.  The keys need no mutual order, and the
  arithmetic runs on the fields' plain values (ints mod p or Fractions).
"""


def combine(pairs, acc=None):
    """Add c * terms into acc for each (c, terms) pair, where terms is a
    {key: coeff} dict, and drop the entries that become zero; returns acc
    (a new dict by default)."""
    if acc is None:
        acc = {}
    for c, terms in pairs:
        for k, v in terms.items():
            s = acc.get(k)
            s = c * v if s is None else s + c * v
            if s:
                acc[k] = s
            else:
                acc.pop(k, None)
    return acc


class Echelon:
    """Incremental reduced row-echelon form under a key ordering."""

    def __init__(self, field, key=None):
        self.field = field
        self.key = key if key is not None else (lambda k: k)
        self.rows = {}

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows, key=self.key)

    def basis_rows(self):
        """Rows in ascending pivot order."""
        return [self.rows[p] for p in self.pivots()]

    def _reduce(self, vec):
        v = {k: c for k, c in vec.items() if c}
        out = {}
        while v:
            m = max(v, key=self.key)
            row = self.rows.get(m)
            if row is None:
                out[m] = v.pop(m)
            else:
                combine(((-v[m], row),), v)  # the pivot cancels itself
        return out

    def reduce(self, vec):
        """Canonical remainder of vec modulo the row space."""
        return self._reduce(vec)

    def contains(self, vec):
        return not self._reduce(vec)

    def insert(self, vec):
        """Add vec to the row space; returns True if the rank grew."""
        return self.feed(vec)

    def feed(self, vec):
        """Reduce vec, store its normalized remainder as a new row and clear
        the new pivot from every stored row; returns True if the rank grew."""
        rem = self._reduce(vec)
        if not rem:
            return False
        m = max(rem, key=self.key)
        inv = self.field.one / rem[m]
        row = {k: c * inv for k, c in rem.items()}
        for prow in self.rows.values():
            c = prow.get(m)
            if c is not None:
                combine(((-c, row),), prow)
        self.rows[m] = row
        return True


def kernel(field, pairs):
    """Kernel of the linear map tag -> vector, described by (tag, vector)
    pairs with distinct tags; returns one combination dict {tag: coeff} per
    kernel dimension, in the order of the tags that close them.  Vector
    coefficients may be scalars of the field or anything field.scalar
    coerces (such as ints), and may be zero.

    The relation closed by tag t is {t: 1} minus the unique expression of
    its vector over the earlier tags that raised the rank, so it does not
    depend on the pivot order or on how far the stored rows are reduced.
    A vector is reduced only while its largest id is a pivot: a largest id
    that is not a pivot already makes it independent."""
    p = field.characteristic
    ids = {}
    rows = {}   # pivot id -> {id: value} without the pivot, whose value is 1
    combs = {}  # pivot id -> {tag: value}, the row as a combination of tags
    out = []
    for tag, vec in pairs:
        v = {}
        for key, c in vec.items():
            c = field.scalar(c).value
            if c:
                i = ids.get(key)
                if i is None:
                    i = ids[key] = len(ids)
                v[i] = c
        comb = {tag: 1}
        while v:
            m = max(v)
            row = rows.get(m)
            if row is None:
                break
            c = v.pop(m)
            # inline, not combine: plain values reduced mod p
            for acc, src in ((v, row), (comb, combs[m])):
                for k, c2 in src.items():
                    s = acc.get(k, 0) - c * c2
                    if p:
                        s %= p
                    if s:
                        acc[k] = s
                    else:
                        acc.pop(k, None)
        if not v:
            out.append({t: field.scalar(c) for t, c in comb.items()})
            continue
        inv = pow(v.pop(m), p - 2, p) if p else 1 / v.pop(m)
        rows[m] = {k: x * inv % p if p else x * inv for k, x in v.items()}
        combs[m] = {t: x * inv % p if p else x * inv for t, x in comb.items()}
    return out
