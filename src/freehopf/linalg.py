"""Sparse exact linear algebra over a coefficient field.

Vectors are dicts mapping hashable basis keys (words, word pairs, ...) to
nonzero coefficients: ints over Z, and the plain values of fields.Field
(Fractions over Q, ints in 0..p-1 over GF(p)).  combine is the one
add-and-drop-zeros step: every loop in the package that adds a multiple of
an existing {key: coeff} dict goes through it, with the characteristic p of
the data's field (0, the default, for Z and Q; otherwise sums are reduced
mod p).  The hot loops that build new keys as they go (delta_word,
reduce_once) stay inline.  A gcd of the coefficients loses nothing when
combine drops zeros, since math.gcd ignores zero arguments.

Two eliminations live here:

* An Echelon keeps a fully reduced row set: each row is normalized to
  leading coefficient 1 on its pivot (the largest key in the row under the
  chosen ordering, ``storage_key`` on words in the package) and contains
  no other row's pivot, so reduction against it yields canonical
  remainders.  Subspace equality, basis order and printing rely on them.
* kernel, the only elimination on word-pair keys, runs a semi-echelon
  elimination on interned column ids: each key becomes an int in the order
  keys are first seen, a row's pivot is its largest id, and stored rows
  are never back-substituted.  The keys need no mutual order.
"""


def combine(pairs, acc=None, p=0):
    """Add c * terms into acc for each (c, terms) pair, where terms is a
    {key: coeff} dict, reduce each sum mod p when p is nonzero, and drop
    the entries that become zero; returns acc (a new dict by default)."""
    if acc is None:
        acc = {}
    for c, terms in pairs:
        for k, v in terms.items():
            s = acc.get(k)
            s = c * v if s is None else s + c * v
            if p:
                s %= p
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
        p = self.field.characteristic
        v = combine(((1, vec),), p=p)
        out = {}
        while v:
            m = max(v, key=self.key)
            row = self.rows.get(m)
            if row is None:
                out[m] = v.pop(m)
            else:
                combine(((-v[m], row),), v, p)  # the pivot cancels itself
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
        p = self.field.characteristic
        row = combine(((self.field.inv(rem[m]), rem),), p=p)
        for prow in self.rows.values():
            c = prow.get(m)
            if c is not None:
                combine(((-c, row),), prow, p)
        self.rows[m] = row
        return True


def kernel(field, pairs):
    """Kernel of the linear map tag -> vector, described by (tag, vector)
    pairs with distinct tags; returns one combination dict {tag: coeff} per
    kernel dimension, in the order of the tags that close them.  Vector
    coefficients are ints or values of the field, and may be zero; the
    returned coefficients are values of the field.

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
            if p:
                c %= p
            if c:
                i = ids.get(key)
                if i is None:
                    i = ids[key] = len(ids)
                v[i] = c
        comb = {tag: field.one}
        while v:
            m = max(v)
            row = rows.get(m)
            if row is None:
                break
            c = -v.pop(m)
            combine(((c, row),), v, p)
            combine(((c, combs[m]),), comb, p)
        if not v:
            out.append(comb)
            continue
        inv = field.inv(v.pop(m))
        rows[m] = combine(((inv, v),), p=p)
        combs[m] = combine(((inv, comb),), p=p)
    return out
