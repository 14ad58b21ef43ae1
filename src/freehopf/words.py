"""Generator letters, level domains, the storage order and the bi-weight
of words.

A letter is a plain tuple (i, j, r): row index i, column index j (both in
1..n), and an integer level r.  Levels live in one of three domains:

* "nat"  - nonnegative integers (level shifts below 0 are undefined),
* "int"  - all integers,
* "mod"  - residues modulo an even modulus 2d.

A word is a tuple of letters; the empty tuple UNIT is the unit monomial.
"""

from dataclasses import dataclass
from operator import itemgetter

UNIT = ()

# Most levels a domain enumerates (a window's width, or the modulus), whose
# letters and letter pairs get listed: at n = 2 and 100 levels, axioms and
# primitives at length 2 take about 2 s and 100 MB, at 1000 the pairs
# exhaust 800 MB.  Windows and moduli in use hold at most 8 levels.
MAX_LEVELS = 100


@dataclass(frozen=True)
class LevelDomain:
    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in ("nat", "int", "mod"):
            raise ValueError("unknown level domain kind %r" % self.kind)
        if self.kind == "mod":
            m = self.modulus
            if not isinstance(m, int) or m < 2 or m % 2:
                raise ValueError("modular level domain needs an even modulus >= 2, got %r" % m)
        elif self.modulus is not None:
            raise ValueError("%s level domain takes no modulus" % self.kind)

    @classmethod
    def nat(cls):
        return cls("nat")

    @classmethod
    def integers(cls):
        return cls("int")

    @classmethod
    def mod(cls, m):
        return cls("mod", m)

    def canon(self, r):
        """Canonical representative of a level."""
        r = int(r)
        if self.kind == "mod":
            return r % self.modulus
        if self.kind == "nat" and r < 0:
            raise ValueError("negative level %d in the nat domain" % r)
        return r

    def step(self, r, delta):
        """Shift a level by delta; undefined below 0 in the nat domain."""
        if self.kind == "mod":
            return (r + delta) % self.modulus
        s = r + delta
        if self.kind == "nat" and s < 0:
            raise ValueError("level step %d from %d leaves the nat domain" % (delta, r))
        return s

    def up(self, r):
        """step(r, +1), which is always defined."""
        if self.kind == "mod":
            return (r + 1) % self.modulus
        return r + 1

    def levels(self, window=None):
        """The concrete levels to enumerate over.

        Modular domains ignore the window and return all residues; nat/int
        domains require an inclusive window (lo, hi); at most MAX_LEVELS.
        """
        if self.kind == "mod":
            window = (0, self.modulus - 1)
        elif window is None:
            raise ValueError("a level window (lo, hi) is required for the %s domain" % self.kind)
        lo, hi = int(window[0]), int(window[1])
        if lo > hi:
            raise ValueError("empty level window %r" % (window,))
        if self.kind == "nat" and lo < 0:
            raise ValueError("window %r dips below 0 in the nat domain" % (window,))
        if hi - lo >= MAX_LEVELS:
            raise ValueError("%d levels exceed the ceiling of %d" % (hi - lo + 1, MAX_LEVELS))
        return tuple(range(lo, hi + 1))

    def __str__(self):
        if self.kind == "mod":
            return "Z/%d" % self.modulus
        return "N" if self.kind == "nat" else "Z"


def letter(n, dom, i, j, r):
    """Validated letter constructor."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("letter indices (%d,%d) outside 1..%d" % (i, j, n))
    return (i, j, dom.canon(r))


_level = itemgetter(2)


def storage_key(w):
    """Total-order key used for storage and printing: length, then the level
    sequence lexicographically, then the letters (i, j, r) lexicographically.
    Once the levels agree, the first letters that differ differ in (i, j),
    so the last part orders by the index sequence (i1, j1, i2, j2, ...)."""
    return (len(w), tuple(map(_level, w)), w)


def bi_weight(n, w):
    """The (row, column) weight of a word in Z^n x Z^n: x[i,j;r] weighs
    s*e_i and s*e_j with s = (-1)^r, and weights add along the word.  The
    parity of r is well defined on a modular domain of even modulus."""
    row, col = [0] * n, [0] * n
    for i, j, r in w:
        s = -1 if r % 2 else 1
        row[i - 1] += s
        col[j - 1] += s
    return tuple(row), tuple(col)


def can_return(weight, v, room):
    """Can v still return to bi-weight (0,0) within room more letters?
    Records v's bi-weight in weight, from its prefix's, when it can."""
    i, j, r = v[-1]
    s = -1 if r % 2 else 1
    row, col = weight[v[:-1]]
    row = row[:i - 1] + (row[i - 1] + s,) + row[i:]
    col = col[:j - 1] + (col[j - 1] + s,) + col[j:]
    if sum(map(abs, row)) > room or sum(map(abs, col)) > room:
        return False
    weight[v] = row, col
    return True


def letter_str(l):
    return "x[%d,%d;%d]" % l


def word_str(w):
    if not w:
        return "1"
    return "*".join(letter_str(l) for l in w)
