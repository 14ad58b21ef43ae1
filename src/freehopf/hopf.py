"""Hopf-algebra structure on the rewritten word basis.

A FreeHopfAlgebra is determined by the matrix size n, a variant token, and
a coefficient field.  The variant picks the level domain:

  "free"    levels in the nonnegative integers (antipode injective only),
  "bij"     levels in all integers (antipode bijective),
  "ord:<d>" levels modulo 2d (antipode order divides 2d).

Structure maps on a letter x[i,j;r]:

  product      concatenation followed by reduction to normal form
  coproduct    Delta(x[i,j;r]) = sum_a x[i,a;r] (x) x[a,j;r]
  counit       eps(x[i,j;r]) = d(i,j)
  antipode     S(x[i,j;r]) = x[j,i;r+1], extended as an anti-homomorphism

The single-word maps are fixed by these values on letters and are not an
extension point.  Their values and the normal forms have integer
coefficients, so they are cached per RuleSet (one per n and domain) and
shared across coefficient fields.

verify_axioms proves the Hopf axioms at every length from
certify_hopf_ideal, a finite certificate that the rules generate a Hopf
ideal, and sweeps the basis words only when the certificate fails or
max_len <= 1 (then the words are the letters, which it checks anyway).
The certificate's integer gcds are computed once per RuleSet and the
sweep's on each call; both are projected to each field.  Its coproduct
check runs once per orbit of the rule instances under the letter maps that
rewrite verifies, keyed as in its confluence check, when the rules are
confluent and Delta commutes with their generators on the letters (up to
the flip's twist of the legs), and on every instance otherwise.

The maps on elements are linalg.combine over the single-word maps, with
the field's values in place of integers and its characteristic as the
modulus; there is one antipode path, antipode_int, whose integer result
each field reduces to its own values.  The axiom residuals are combine
calls too; their gcds ignore the zero entries combine drops, as math.gcd
ignores zero arguments.  _delta_terms accumulates inline, because it builds
its keys (word pairs) as it goes and is the hottest loop here.  Element and
Tensor share their arithmetic, equality and printing through one private
base class.
"""

import time
from itertools import product as iproduct
from math import gcd

from .fields import Field
from .linalg import combine
from .rewrite import (R1, RULE_NAMES, _image, _instance_rhs, _orbit_firsts,
                      _verified_symmetries, check_confluence, rules_for)
from .words import UNIT, LevelDomain, letter, storage_key, word_str

# Coproducts of irreducible words per RuleSet.
_DELTA_CACHES = {}

# Integer Hopf-ideal certificates per RuleSet; each entry holds, per check,
# the (label, gcd) of every item with a nonzero gcd, and the work done.
_CERTIFICATE_CACHE = {}


def _fails(g, p):
    """Is an integer residual whose coefficients have gcd g nonzero in
    characteristic p?"""
    return g % p if p else g


AXIOMS = (
    "coassociativity", "counit_left", "counit_right",
    "antipode_left", "antipode_right", "anti_coalgebra",
)


def parse_variant(token):
    """Normalize a variant token and return (canonical token, LevelDomain)."""
    t = str(token).strip().lower()
    if t == "free":
        return "free", LevelDomain.nat()
    if t == "bij":
        return "bij", LevelDomain.integers()
    if t.startswith("ord:"):
        body = t[4:]
        if not body.lstrip("-").isdigit():
            raise ValueError("bad variant token %r" % token)
        d = int(body)
        if d < 1:
            raise ValueError("antipode order parameter must be >= 1, got %d" % d)
        return "ord:%d" % d, LevelDomain.mod(2 * d)
    raise ValueError("unknown variant token %r (expected free, bij, or ord:<d>)" % token)


class FreeHopfAlgebra:
    """The free Hopf algebra on an n x n matrix coalgebra over a field.

    The single-word structure maps (delta_word, counit_word, the antipode)
    are fixed by their values on the letters and are not an extension
    point: the coproduct and certificate caches are keyed by RuleSet alone
    and hold for every algebra on that RuleSet.
    """

    def __init__(self, n, variant="free", field=None):
        if field is None:
            field = Field.rationals()
        if isinstance(field, str):
            field = Field.from_token(field)
        self.variant, self.domain = parse_variant(variant)
        self.n = n
        self.field = field
        self.rules = rules_for(n, self.domain)
        self.antipode_order_bound = (
            self.domain.modulus if self.domain.kind == "mod" else None
        )

    def __eq__(self, other):
        return (
            isinstance(other, FreeHopfAlgebra)
            and self.n == other.n
            and self.variant == other.variant
            and self.field is other.field
        )

    def __hash__(self):
        return hash((self.n, self.variant, self.field.characteristic))

    def describe(self):
        return {
            "n": self.n,
            "variant": self.variant,
            "field": self.field.token,
            "domain": str(self.domain),
        }

    def __repr__(self):
        return "FreeHopfAlgebra(n=%d, variant=%r, field=%s)" % (
            self.n, self.variant, self.field,
        )

    # -- element construction ----------------------------------------------

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {UNIT: self.field.one})

    def gen(self, i, j, r):
        return self.element([(  (letter(self.n, self.domain, i, j, r),), 1)])

    def word(self, raw):
        """Element given by a single (possibly reducible) word."""
        return self.element([(tuple(raw), 1)])

    def element(self, terms):
        """Element from (word, coefficient) pairs; words are validated,
        levels canonicalized, and the result reduced to normal form."""
        items = terms.items() if isinstance(terms, dict) else terms
        nf = self.rules.normal_form_word
        scaled = ((self.field.scalar(c), raw) for raw, c in items)
        return Element(self, combine(
            ((c, nf(tuple(letter(self.n, self.domain, i, j, r) for i, j, r in raw)))
             for c, raw in scaled if c),
            p=self.field.characteristic,
        ))

    def basis_words(self, max_len, levels=None):
        """Irreducible words of length <= max_len (the level window is
        required for the free and bij variants, ignored for ord)."""
        return self.rules.irreducible_words(max_len, levels)

    # -- structure maps on single words -------------------------------------

    def delta_word(self, w):
        """Coproduct of an irreducible word as {(left, right): int}, with
        both legs reduced; cached per RuleSet."""
        cache = _DELTA_CACHES.setdefault(self.rules, {})
        hit = cache.get(w)
        if hit is None:
            hit = cache[w] = self._delta_terms(w)
        return hit

    def _delta_terms(self, w):
        """(nf (x) nf) Delta(w) for any word w, reducible or not, as a new
        dict; uncached, so reducible words stay out of _DELTA_CACHES."""
        nf = self.rules.normal_form_word
        mids = range(1, self.n + 1)
        # x[i,j;r] -> sum_a x[i,a;r] (x) x[a,j;r]: the two legs run over the
        # same middle indices in the same order
        lefts = iproduct(*[[(i, a, r) for a in mids] for i, _, r in w])
        rights = iproduct(*[[(a, j, r) for a in mids] for _, j, r in w])
        acc = {}
        # inline, not combine: the keys are pairs built here
        for left, right in zip(lefts, rights):
            for tl, cl in nf(left).items():
                for tr, cr in nf(right).items():
                    key = (tl, tr)
                    s = acc.get(key, 0) + cl * cr
                    if s:
                        acc[key] = s
                    else:
                        del acc[key]
        return acc

    @staticmethod
    def counit_word(w):
        for i, j, _ in w:
            if i != j:
                return 0
        return 1

    def antipode_raw_word(self, w, power=1):
        """The antipode power applied to a word, before reduction."""
        if power < 0 and self.domain.kind == "nat":
            raise ValueError("negative antipode powers are undefined for the free variant")
        if power % 2:
            return tuple((j, i, self.domain.step(r, power)) for i, j, r in reversed(w))
        return tuple((i, j, self.domain.step(r, power)) for i, j, r in w)

    def antipode_int(self, terms, power=1):
        """Antipode power on an integer combination, reduced."""
        nf = self.rules.normal_form_word
        return combine((k, nf(self.antipode_raw_word(w, power))) for w, k in terms.items())

    # -- structure maps on elements -----------------------------------------

    def multiply(self, a, b):
        self._check(a)
        self._check(b)
        nf = self.rules.normal_form_word
        return Element(self, combine(
            ((ca * cb, nf(wa + wb)) for wa, ca in a.terms.items() for wb, cb in b.terms.items()),
            p=self.field.characteristic,
        ))

    def coproduct(self, a):
        self._check(a)
        return Tensor(self, combine(((c, self.delta_word(w)) for w, c in a.terms.items()),
                                    p=self.field.characteristic))

    def counit(self, a):
        self._check(a)
        return self.field.scalar(sum(c for w, c in a.terms.items() if self.counit_word(w)))

    def antipode(self, a, power=1):
        self._check(a)
        terms = self.antipode_int(a.terms, power)
        return Element(self, combine(((1, terms),), p=self.field.characteristic))

    def tensor(self, a, b):
        self._check(a)
        self._check(b)
        return Tensor(self, combine(
            ((ca, {(wa, wb): cb for wb, cb in b.terms.items()}) for wa, ca in a.terms.items()),
            p=self.field.characteristic,
        ))

    def _check(self, x):
        if x.parent != self:
            raise ValueError("element of %r used in %r" % (x.parent, self))

    # -- axiom verification --------------------------------------------------

    def verify_axioms(self, max_len, levels=None, max_examples=5):
        """Check the Hopf axioms on every irreducible word of length <=
        max_len; returns a report whose residual counts should all be zero.

        Checked per word w with Delta(w) = sum w1 (x) w2:
          coassociativity     (Delta(x)id)Delta(w) = (id(x)Delta)Delta(w)
          counit_left/right   (eps(x)id)Delta(w) = w = (id(x)eps)Delta(w)
          antipode_left/right sum S(w1)w2 = eps(w)1 = sum w1 S(w2)
          anti_coalgebra      Delta(S(w)) = twist (S(x)S) Delta(w)
          antipode_order      S^(2d)(w) = w   (ord variant only)

        Certificate, then sweep: the basis words are counted first (so
        words_checked and every window error are the sweep's) and listed
        only when the sweep runs.  If
        certify_hopf_ideal passes over this field, every axiom holds on
        every word and the all-zero report is returned.  Otherwise, or
        when max_len <= 1 (the sweep is then the certificate's check on the
        letters alone), each word's residuals are computed over Z, and a
        word fails an axiom over GF(p) iff p does not divide the gcd g of
        the residual's coefficients (over Q, iff g != 0).  A modular domain
        ignores the window and reports levels None.
        """
        names = list(AXIOMS)
        if self.antipode_order_bound:
            names.append("antipode_order")
        if self.domain.kind == "mod":
            levels = None
        words_checked = self.rules.irreducible_count(max_len, levels)
        p = self.field.characteristic
        failures = {name: 0 for name in names}
        examples = {name: [] for name in names}
        # up to length 1 the sweep checks only the unit and the letters,
        # the certificate's own last check, so certifying cannot be cheaper
        if max_len <= 1 or not self.certify_hopf_ideal(0)["ok"]:
            for w, gcds in self._integer_residuals(self.basis_words(max_len, levels)):
                for name, g in zip(names, gcds):
                    if _fails(g, p):
                        failures[name] += 1
                        if len(examples[name]) < max_examples:
                            examples[name].append(word_str(w))

        residuals = sum(failures.values())
        return {
            "config": self.describe(),
            "max_len": max_len,
            "levels": list(levels) if levels else None,
            "words_checked": words_checked,
            "failures": failures,
            "failure_examples": {k: v for k, v in examples.items() if v},
            "residuals": residuals,
            "ok": residuals == 0,
        }

    def certify_hopf_ideal(self, max_examples=5):
        """Prove the Hopf axioms on every word, at every length, from a
        finite certificate that the rules generate a Hopf ideal.

        The algebra is F/I: F the free algebra on the letters, where Delta
        and eps are algebra maps and S an anti-algebra map fixed by their
        values on letters, and I the ideal generated by lhs - rhs over the
        rule instances.  Checks:
          confluence  every ambiguity resolves (check_confluence), so the
                      irreducible words are a basis of F/I and nf projects
                      F onto it with kernel I (Bergman's diamond lemma);
          delta       (nf(x)nf) Delta(lhs) = (nf(x)nf) Delta(rhs),
          counit      eps(lhs) = eps(rhs),
          antipode    nf S(lhs) = nf S(rhs), for every rule instance
                      lhs -> rhs, so Delta, eps and S map I into
                      I(x)F + F(x)I, 0 and I, and are well defined on F/I;
          letters     every axiom of verify_axioms holds on the unit and
                      the letters.
        Each axiom's two sides are then (anti-)multiplicative maps that
        agree on generators, so the set where the axiom holds is a
        subalgebra containing the letters: all of F/I (Takeuchi).

        Every ambiguity spans at most 5 consecutive levels and every rule
        instance at most 3, and all the maps commute with level
        translation, so nat/int domains check the window (0, 4) for
        confluence, the instances of window (0, 2) and the letters of level
        0; modular domains ignore the windows and check everything.  Each
        item's integer residual is reduced to the gcd of its coefficients
        once per RuleSet, and an item fails over GF(p) iff p does not
        divide that gcd (over Q, iff it is nonzero).

        The delta residual is computed on the first instance of each orbit
        of the letter maps (rewrite._orbit_firsts, keyed as in
        check_confluence): index permutations, the flip x[i,j;r] ->
        x[j,i;c-r], the mod rotations, if rewrite._verified_symmetries
        accepts their generators.  Such a map g permutes the window's
        letters and is an algebra map, and Delta is multiplicative, so
        Delta g = (g(x)g) Delta, or tau (g(x)g) Delta for the flip (tau
        swaps the legs), once that holds for the generators on the letters
        (_delta_commutes).  Once confluence holds, nf g = g nf.  So the
        residual of g(lhs) -> g(rhs) is that of lhs -> rhs with its keys
        permuted, and has the same gcd.  If confluence or the check on the
        letters fails, every instance is computed.  Either way the items,
        their order and the counts are the same.

        The report gives per-check failure counts, up to max_examples
        failing items per check, ok, the seconds this call took (a cached
        certificate costs only the projection), and the work done:
        ambiguities found and resolved directly (the rest by symmetry),
        rule instances and letters checked.
        """
        start = time.perf_counter()
        checks, work = self._integer_certificate()
        p = self.field.characteristic
        failures, examples = {}, {}
        for check, residues in checks.items():
            bad = [label for label, g in residues if _fails(g, p)]
            failures[check] = len(bad)
            if bad and max_examples:
                examples[check] = bad[:max_examples]
        return {
            "config": self.describe(),
            "failures": failures,
            "failure_examples": examples,
            "ok": not any(failures.values()),
            "elapsed": time.perf_counter() - start,
            "work": dict(work),
        }

    def _integer_certificate(self):
        """({check: [(label, gcd), ...]}, work) of certify_hopf_ideal over Z,
        keeping only items with a nonzero gcd; cached per RuleSet, since the
        single-word maps are fixed by the letters.  Each instance reads the
        delta gcd of its orbit's first one (see certify_hopf_ideal)."""
        rules = self.rules
        hit = _CERTIFICATE_CACHE.get(rules)
        if hit is not None:
            return hit
        confluence = check_confluence(self.n, self.domain, (0, 4))
        ambiguities = [
            ("%s (%s at %d, %s at %d)" % (word_str(r.word), RULE_NAMES[r.match_a[0]],
                                          r.match_a[1], RULE_NAMES[r.match_b[0]], r.match_b[1]),
             gcd(*combine(((-1, r.nf_b),), dict(r.nf_a)).values()))
            for r in confluence.unresolved
        ]

        window = (0, 2)  # ignored on a modular domain
        instances = rules.rule_instances(window)
        rhs = _instance_rhs(rules, instances)  # for the symmetry checks and (b)
        gens = _verified_symmetries(rules, rhs, window)
        if not (confluence.ok and self._delta_commutes(gens, window)):
            gens = []  # the identity alone: every instance
        first = _orbit_firsts(rules, instances, window, gens)
        orbit_gcd = {}
        for rule, lhs in dict.fromkeys(first.values()):
            d = combine(((-c, self._delta_terms(u)) for u, c in rhs[rule, lhs].items()),
                        self._delta_terms(lhs))
            orbit_gcd[rule, lhs] = gcd(*d.values())
        delta, counit, anti = [], [], []
        for rule, lhs in instances:
            out = rhs[rule, lhs]
            label = "%s %s" % (RULE_NAMES[rule], word_str(lhs))
            e = self.counit_word(lhs) - sum(c * self.counit_word(u) for u, c in out.items())
            s = combine(((-1, self.antipode_int(out)),), self.antipode_int({lhs: 1}))
            for check, g in ((delta, orbit_gcd[first[rule, lhs]]), (counit, abs(e)),
                             (anti, gcd(*s.values()))):
                if g:
                    check.append((label, g))

        words = self.basis_words(1, (0, 0))
        letters = [(word_str(w), gcd(*gcds)) for w, gcds in self._integer_residuals(words)]

        checks = {"confluence": ambiguities, "delta": delta, "counit": counit,
                  "antipode": anti, "letters": letters}
        work = {"ambiguities": confluence.total, "ambiguities_checked": confluence.checked,
                "rule_instances": len(instances), "letters": len(words) - 1}
        hit = _CERTIFICATE_CACHE[rules] = (checks, work)
        return hit

    def _delta_commutes(self, group, window):
        """Does Delta commute on the letters of the window with each letter
        map (table, rules) in group, up to the twist of the legs for the
        flip (rules swaps R1 and R2)?  Each table maps every letter of the
        window, and the legs of Delta of a letter are letters of its level."""
        delta = {l: self._delta_terms((l,)) for l in self.rules.alphabet(window)}
        for table, rules in group:
            twist = rules[R1] != R1
            for l, image in table.items():
                moved = {}
                for (a, b), c in delta[l].items():
                    a, b = _image(table, a), _image(table, b)
                    moved[(b, a) if twist else (a, b)] = c
                if delta[image] != moved:
                    return False
        return True

    def _integer_residuals(self, words):
        """[(w, gcds), ...]: for each irreducible word, in the given order,
        the gcds of the integer residual of each axiom, kept only for words
        with some nonzero gcd."""
        nf = self.rules.normal_form_word
        delta = self.delta_word
        counit = self.counit_word
        order = self.antipode_order_bound
        images = {}

        def anti(a):
            s = images.get(a)
            if s is None:
                s = images[a] = self.antipode_int({a: 1})
            return s

        residues = []
        for w in words:
            # lhs - rhs of each axiom; gcd ignores the zeros combine drops
            d = delta(w).items()
            coassoc = combine(pair for (a, b), k in d for pair in (
                (k, {(x, y, b): c for (x, y), c in delta(a).items()}),
                (-k, {(a, x, y): c for (x, y), c in delta(b).items()})))
            cl = combine([(-1, {w: 1})] + [(k, {b: 1}) for (a, b), k in d if counit(a)])
            cr = combine([(-1, {w: 1})] + [(k, {a: 1}) for (a, b), k in d if counit(b)])
            eps = counit(w)
            conv_l = combine([(-eps, {UNIT: 1})] + [
                (k * c, nf(t + b)) for (a, b), k in d for t, c in anti(a).items()])
            conv_r = combine([(-eps, {UNIT: 1})] + [
                (k * c, nf(a + t)) for (a, b), k in d for t, c in anti(b).items()])
            anti_co = combine([(c, delta(t)) for t, c in anti(w).items()] + [
                (-k, {(tb, ta): ca * cb
                      for ta, ca in anti(a).items() for tb, cb in anti(b).items()})
                for (a, b), k in d])
            maps = [coassoc, cl, cr, conv_l, conv_r, anti_co]
            if order:
                maps.append(combine(((1, self.antipode_int({w: 1}, order)), (-1, {w: 1}))))
            gcds = tuple(gcd(*m.values()) for m in maps)
            if any(gcds):
                residues.append((w, gcds))
        return residues


class _Combination:
    """A finite combination of basis keys with nonzero field coefficients in
    a parent algebra: the arithmetic and printing shared by Element and
    Tensor.  A subclass gives the sort key and the text of one term."""

    __slots__ = ("parent", "terms")

    def __init__(self, parent, terms):
        self.parent = parent
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self.parent._check(other)
        return self._combine(((1, other.terms),), dict(self.terms))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._combine(((-1, self.terms),))

    def __rmul__(self, scalar):
        try:
            c = self.parent.field.scalar(scalar)
        except (TypeError, ValueError):
            return NotImplemented
        return self._combine(((c, self.terms),))

    def _combine(self, pairs, acc=None):
        """linalg.combine over the parent's field, as a combination of this
        type in the same parent."""
        return type(self)(self.parent, combine(pairs, acc, self.parent.field.characteristic))

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self.parent == other.parent
            and self.terms == other.terms
        )

    __hash__ = None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: self._sort_key(t[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            neg = self.parent.field.is_rationals and c < 0
            body = self._term_str(key, -c if neg else c)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append(("- " if neg else "+ ") + body)
        return " ".join(parts)


class Element(_Combination):
    """A finite combination of irreducible words with field coefficients.

    The zero element has no terms; construction through FreeHopfAlgebra
    keeps every stored word irreducible and every coefficient nonzero.
    """

    __slots__ = ()

    _sort_key = staticmethod(storage_key)

    @staticmethod
    def _term_str(w, mag):
        if w == UNIT:
            return str(mag)
        if mag == 1:
            return word_str(w)
        return "%s*%s" % (mag, word_str(w))

    def coefficient(self, w):
        return self.terms.get(tuple(w), self.parent.field.zero)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.parent.multiply(self, other)
        return self.__rmul__(other)

    def coproduct(self):
        return self.parent.coproduct(self)

    def counit(self):
        return self.parent.counit(self)

    def antipode(self, power=1):
        return self.parent.antipode(self, power)

    def __repr__(self):
        return "<%s | %s>" % (self, self.parent.describe())


class Tensor(_Combination):
    """An element of the two-fold tensor square, stored on pairs of
    irreducible words."""

    __slots__ = ()

    @staticmethod
    def _sort_key(pair):
        return storage_key(pair[0]), storage_key(pair[1])

    @staticmethod
    def _term_str(pair, mag):
        body = "%s (x) %s" % (word_str(pair[0]), word_str(pair[1]))
        return body if mag == 1 else "%s*%s" % (mag, body)

    def __repr__(self):
        return "<%s | tensor over %s>" % (self, self.parent.describe())
