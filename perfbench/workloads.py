"""The four benchmark workloads and the answers they must produce.

Each workload mirrors acceptance criteria of the paper reproduction:

  axioms      criterion 2       Hopf-axiom residuals, 24 answers
  confluence  criterion 1, n=4  confluence certificates, 9 answers
  verdicts    criteria 4-6      primitives and subcoalgebra verdicts, 337 answers
  scan        criterion 7       exhaustive GF(2) subspace scan, 5 answers

A workload is built by ``setup(fh, name, seed)`` from the imported
``freehopf`` package and returns a list of units ``(label, thunk, check)``.
Running a unit calls ``thunk()`` and passes its result to ``check``; the
benchmark owns every check.  Expected values come from the paper and the
README, from closed formulas computed here, or, for the nine ambiguity
totals, are pinned from the seed commit.  No check reads a pass flag that
the package computes about itself.

The seed only permutes the order of independent units; the set of
questions and answers never depends on it.  The timed code calls only
names exported in ``freehopf.__all__``.

Deliberately not workloads: the tier-1 test run's wall time (it mixes
every layer with pytest's own cost and has no answers of its own to
check), and the generic GF(p) scan path for p > 2, which takes about 43 s
for the 9,841 one-dimensional subspaces of the ord:1 GF(3) ambient, too
long for a run.
"""

import random
from itertools import product as iproduct

WORKLOADS = ("axioms", "confluence", "verdicts", "scan")

# Answers per pass, for reporting and for the self-tests.
ANSWERS = {"axioms": 24, "confluence": 9, "verdicts": 337, "scan": 5}

AXIOM_NAMES = (
    "coassociativity", "counit_left", "counit_right",
    "antipode_left", "antipode_right", "anti_coalgebra",
)

# Total ambiguity counts of check_confluence, pinned from the seed commit
# (the paper certifies confluence but does not tabulate these totals).
# Keyed by (n, domain label); nat uses the level window 0..6.
PINNED_AMBIGUITIES = {
    (2, "nat"): 576, (2, "mod2"): 276, (2, "mod4"): 480,
    (3, "nat"): 2376, (3, "mod2"): 1072, (3, "mod4"): 2016,
    (4, "nat"): 6720, (4, "mod2"): 2980, (4, "mod4"): 5760,
}


def gaussian_count(m, k, q):
    """Number of k-dimensional subspaces of GF(q)^m, by the product formula
    prod_{i<k} (q^(m-i) - 1) / (q^(i+1) - 1)."""
    num = den = 1
    for i in range(k):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _window(variant):
    return None if variant.startswith("ord:") else (0, 2)


# -- checks -----------------------------------------------------------------


def check_axiom_report(report, ordered):
    """Every axiom residual is zero, and the antipode-order axiom is part of
    the report exactly for the ord variants."""
    failures = report["failures"]
    expected = set(AXIOM_NAMES) | ({"antipode_order"} if ordered else set())
    return set(failures) == expected and all(v == 0 for v in failures.values())


def check_confluence_report(report, total):
    return report.unresolved == [] and report.total == total


def check_no_primitives(result):
    return result == []


def check_verdict(expected):
    return lambda verdict: bool(verdict) is expected


# -- workloads ----------------------------------------------------------------


def _axioms(fh, rng):
    units = []
    for n, max_len in ((2, 3), (3, 2)):
        for variant in ("free", "ord:1", "ord:2"):
            tokens = ["q", "f2", "f3", "f5"]
            rng.shuffle(tokens)
            for tok in tokens:
                H = fh.FreeHopfAlgebra(n, variant, fh.Field.from_token(tok))
                window = _window(variant)
                ordered = variant.startswith("ord:")
                units.append((
                    "axioms n=%d %s %s" % (n, variant, tok),
                    lambda H=H, m=max_len, w=window: H.verify_axioms(m, w),
                    lambda r, o=ordered: check_axiom_report(r, o),
                ))
    return units


def _confluence(fh, rng):
    domains = (
        ("nat", fh.LevelDomain.nat(), (0, 6)),
        ("mod2", fh.LevelDomain.mod(2), None),
        ("mod4", fh.LevelDomain.mod(4), None),
    )
    units = []
    for n in (2, 3, 4):
        for label, dom, window in domains:
            total = PINNED_AMBIGUITIES[(n, label)]
            units.append((
                "confluence n=%d %s" % (n, label),
                lambda n=n, d=dom, w=window: fh.check_confluence(n, d, w),
                lambda r, t=total: check_confluence_report(r, t),
            ))
    rng.shuffle(units)
    return units


def _verdicts(fh, rng):
    algebras = {}

    def algebra(variant, tok):
        key = (variant, tok)
        if key not in algebras:
            algebras[key] = fh.FreeHopfAlgebra(2, variant, fh.Field.from_token(tok))
        return algebras[key]

    # The seed shuffles the spans only: the order of the primitive searches
    # moves the peak resident set by up to 10 %.
    primitives, grid_spans, wild_spans = [], [], []
    # criterion 6 widened: no nonzero primitives up to length 3
    for variant in ("free", "ord:1", "ord:2"):
        for tok in ("q", "f2", "f3"):
            H = algebra(variant, tok)
            primitives.append((
                "primitives %s %s" % (variant, tok),
                lambda H=H, w=_window(variant): fh.find_primitives(H, 3, w),
                check_no_primitives,
            ))
    # criterion 5: the lemma grid, 324 alternating spans, none a subcoalgebra
    grid = (
        ("free", "q", (0, 1, 2)),
        ("free", "f2", (0, 1, 2)),
        ("ord:1", "q", (0, 1)),
        ("ord:2", "q", (0, 1, 2, 3)),
        ("ord:2", "f2", (0, 1, 2, 3)),
        ("ord:2", "f3", (0, 1, 2, 3)),
    )
    tame = check_verdict(False)
    for variant, tok, levels in grid:
        H = algebra(variant, tok)
        for length in (2, 3):
            for seq in iproduct(levels, repeat=length):
                grid_spans.append((
                    "span %s %s %s" % (variant, tok, seq),
                    lambda H=H, s=seq: fh.is_subcoalgebra(fh.alternating_span(H, s)),
                    tame,
                ))
    # criterion 4: the wild alternating spans are subcoalgebras
    wild = check_verdict(True)
    for tok, seqs in (("f2", ((0, 1), (1, 0))), ("f3", ((0, 1, 0), (1, 0, 1)))):
        H = algebra("ord:1", tok)
        for seq in seqs:
            wild_spans.append((
                "wild span ord:1 %s %s" % (tok, seq),
                lambda H=H, s=seq: fh.is_subcoalgebra(fh.alternating_span(H, s)),
                wild,
            ))
    spans = grid_spans + wild_spans
    rng.shuffle(spans)
    return primitives + spans


def _scan(fh, rng):
    H2 = fh.FreeHopfAlgebra(2, "ord:1", fh.Field.prime(2))
    H4 = fh.FreeHopfAlgebra(2, "ord:2", fh.Field.prime(2))
    found4 = []

    def scan3():
        return fh.scan_matrix_subcoalgebras(H2, (0, 1), mode="exhaustive", dimension=3)

    def check3(report):
        return (report.ambient_dim == 9
                and report.subspace_count == gaussian_count(9, 3, 2) == 788035
                and report.found == [])

    def scan4():
        return fh.scan_matrix_subcoalgebras(H2, (0, 1), mode="exhaustive", dimension=4)

    def check4(report):
        found4[:] = report.found
        if not (report.ambient_dim == 9
                and report.subspace_count == gaussian_count(9, 4, 2) == 3309747
                and len(report.found) == 1):
            return False
        D = fh.alternating_span(H2, (0, 1))
        V = report.found[0]
        return V.dim == D.dim == 4 and all(D.contains(b) for b in V.basis())

    def recheck():
        return [bool(fh.is_subcoalgebra(V)) for V in found4]

    def refused():
        try:
            fh.scan_matrix_subcoalgebras(H4, (0, 1), mode="exhaustive")
        except ValueError:
            return "refused"
        return "scanned"

    def candidate():
        return fh.scan_matrix_subcoalgebras(H4, (0, 1), mode="candidate")

    return [
        ("scan ord:1 f2 dim 3", scan3, check3),
        ("scan ord:1 f2 dim 4", scan4, check4),
        ("re-check found subspaces", recheck, lambda r: r == [True]),
        ("scan ord:2 f2 exhaustive refused", refused, lambda r: r == "refused"),
        ("scan ord:2 f2 candidate", candidate,
         lambda r: r.found == [] and r.contains_alternating is False),
    ]


_BUILDERS = {
    "axioms": _axioms,
    "confluence": _confluence,
    "verdicts": _verdicts,
    "scan": _scan,
}


def setup(fh, name, seed):
    """Build the algebras and the unit list of one workload."""
    return _BUILDERS[name](fh, random.Random(seed))


def run_units(units, on_failure):
    """Run every unit and check its answer; a wrong answer or a raised
    exception counts as failed and its label goes to on_failure.  Returns
    (attempted, failed)."""
    failed = 0
    for label, thunk, check in units:
        try:
            ok = bool(check(thunk()))
        except Exception as exc:  # any raise is a failed answer, not a crash
            ok = False
            label = "%s: %s: %s" % (label, type(exc).__name__, exc)
        if not ok:
            failed += 1
            on_failure(label)
    return len(units), failed
