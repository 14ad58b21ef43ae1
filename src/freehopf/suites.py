"""Named verification suites.

Each suite runs a set of cases with frozen expectations and returns a
report {"suite", "config", "cases": [{"name", "expected", "actual",
"pass"}], "pass"}.  The axioms and confluence suites honor the
configuration overrides; the fixed suites (examples, lemma-grid,
primitives, scan-gf2) define their own configuration grids.
"""

from itertools import product as iproduct

from .analysis import (
    alternating_span,
    find_primitives,
    is_subcoalgebra,
    scan_matrix_subcoalgebras,
    tensor_membership,
)
from .fields import Field
from .hopf import FreeHopfAlgebra
from .parsing import parse_element
from .rewrite import check_confluence

SUITE_NAMES = (
    "axioms",
    "confluence",
    "examples",
    "lemma-grid",
    "primitives",
    "scan-gf2",
)


def _case(name, expected, actual):
    e, a = str(expected), str(actual)
    return {"name": name, "expected": e, "actual": a, "pass": e == a}


def _report(name, config, cases):
    return {
        "suite": name,
        "config": config,
        "cases": cases,
        "pass": all(c["pass"] for c in cases),
    }


def suite_axioms(n=2, variant="free", field="q", maxlen=2, levels=(0, 2)):
    H = FreeHopfAlgebra(n, variant, Field.from_token(field))
    report = H.verify_axioms(maxlen, levels)
    cases = [
        _case("residual_%s" % axiom, 0, count)
        for axiom, count in report["failures"].items()
    ]
    return _report("axioms", report["config"], cases)


def suite_confluence(n=2, variant="free", field="q", maxlen=None, levels=(0, 6)):
    H = FreeHopfAlgebra(n, variant, Field.from_token(field))
    report = check_confluence(H.n, H.domain, levels)
    cases = [
        _case("ambiguities_found_nonzero", True, report.total > 0),
        _case("unresolved", 0, len(report.unresolved)),
    ]
    return _report("confluence", report.describe()["config"], cases)


def suite_examples(**_ignored):
    """Worked examples with frozen outcomes: the coproduct of the
    diagonal-antidiagonal word over the rationals and over GF(2), tensor
    membership in the alternating span, the alternating-span verdicts that
    depend on the field, and two frozen length-2 rewrites."""
    cases = []

    hq = FreeHopfAlgebra(2, "ord:1", Field.rationals())
    h2 = FreeHopfAlgebra(2, "ord:1", Field.prime(2))
    h3 = FreeHopfAlgebra(2, "ord:1", Field.prime(3))

    def tens(H, pairs):
        total = None
        for c, left, right in pairs:
            t = c * H.tensor(parse_element(left, H), parse_element(right, H))
            total = t if total is None else total + t
        return total

    x = parse_element("x[1,1;0]*x[2,2;1]", hq)
    expected_q = tens(hq, [
        (2, "x[1,1;0]*x[2,1;1]", "x[1,1;0]*x[1,2;1]"),
        (1, "x[1,1;0]*x[2,2;1]", "x[1,1;0]*x[2,2;1]"),
        (1, "x[1,2;0]*x[2,1;1]", "x[2,1;0]*x[1,2;1]"),
    ])
    cases.append(_case("coproduct_diag_antidiag_rationals",
                       True, x.coproduct() == expected_q))

    x2 = parse_element("x[1,1;0]*x[2,2;1]", h2)
    expected_2 = tens(h2, [
        (1, "x[1,1;0]*x[2,2;1]", "x[1,1;0]*x[2,2;1]"),
        (1, "x[1,2;0]*x[2,1;1]", "x[2,1;0]*x[1,2;1]"),
    ])
    cases.append(_case("coproduct_diag_antidiag_gf2",
                       True, x2.coproduct() == expected_2))

    d2 = alternating_span(h2, (0, 1))
    alt = parse_element("x[1,2;0]*x[2,1;1]", h2)
    cases.append(_case("coproduct_lands_in_alternating_tensor_square_gf2",
                       True, tensor_membership(alt.coproduct(), d2, d2)))

    cases.append(_case("alternating_span_01_gf2_subcoalgebra",
                       True, bool(is_subcoalgebra(d2))))
    cases.append(_case("alternating_span_10_gf2_subcoalgebra",
                       True, bool(is_subcoalgebra(alternating_span(h2, (1, 0))))))
    cases.append(_case("alternating_span_010_gf3_subcoalgebra",
                       True, bool(is_subcoalgebra(alternating_span(h3, (0, 1, 0))))))
    cases.append(_case("alternating_span_101_gf3_subcoalgebra",
                       True, bool(is_subcoalgebra(alternating_span(h3, (1, 0, 1))))))
    cases.append(_case("alternating_span_01_rationals_not_subcoalgebra",
                       False, bool(is_subcoalgebra(alternating_span(hq, (0, 1))))))

    hfree = FreeHopfAlgebra(2, "free", Field.rationals())
    cases.append(_case("rewrite_last_column_pair",
                       "-x[1,1;0]*x[2,1;1]",
                       str(hfree.word(((1, 2, 0), (2, 2, 1))))))
    cases.append(_case("rewrite_corner_pair",
                       "1 - x[2,1;0]*x[2,1;1]",
                       str(hfree.word(((2, 2, 0), (2, 2, 1))))))

    return _report("examples", {"n": 2}, cases)


def suite_lemma_grid(**_ignored):
    """Alternating-span verdicts over a grid of level patterns and
    configurations where no subcoalgebra is expected."""
    grid = [
        ("free", "q", (0, 1, 2)),
        ("free", "f2", (0, 1, 2)),
        ("ord:1", "q", (0, 1)),
        ("ord:2", "q", (0, 1, 2, 3)),
        ("ord:2", "f2", (0, 1, 2, 3)),
        ("ord:2", "f3", (0, 1, 2, 3)),
    ]
    cases = []
    for variant, field, levels in grid:
        H = FreeHopfAlgebra(2, variant, Field.from_token(field))
        for length in (2, 3):
            for seq in iproduct(levels, repeat=length):
                verdict = bool(is_subcoalgebra(alternating_span(H, seq)))
                name = "dr_%s_%s_r=%s" % (
                    variant, field, ",".join(map(str, seq)))
                cases.append(_case(name, False, verdict))
    return _report("lemma-grid", {"n": 2, "lengths": [2, 3]}, cases)


def suite_primitives(**_ignored):
    """The primitive space is zero on every short-word window tested."""
    cases = []
    for variant in ("free", "ord:1"):
        for field in ("q", "f2", "f3"):
            H = FreeHopfAlgebra(2, variant, Field.from_token(field))
            els = find_primitives(H, 3, (0, 2))
            cases.append(_case("primitives_%s_%s" % (variant, field), 0, len(els)))
    return _report("primitives", {"n": 2, "maxlen": 3}, cases)


def suite_scan_gf2(**_ignored):
    """Exhaustive GF(2) scan of the level-(0,1) span at antipode order 2
    (all 3309747 four-dim subspaces are covered by enumerating inside the
    span's largest subcoalgebra), with an independent re-check of
    everything found, and the candidate scan at antipode order 4 where no
    subcoalgebra is expected."""
    cases = []
    h2 = FreeHopfAlgebra(2, "ord:1", Field.prime(2))
    report = scan_matrix_subcoalgebras(h2, (0, 1), mode="exhaustive")
    cases.append(_case("scan_ord1_gf2_ambient_dim", 9, report.ambient_dim))
    cases.append(_case("scan_ord1_gf2_subspace_count", 3309747,
                       report.subspace_count))
    cases.append(_case("scan_ord1_gf2_contains_alternating", True,
                       report.contains_alternating))
    recheck = all(bool(is_subcoalgebra(V)) for V in report.found)
    cases.append(_case("scan_ord1_gf2_recheck_found", True, recheck))

    h4 = FreeHopfAlgebra(2, "ord:2", Field.prime(2))
    cand = scan_matrix_subcoalgebras(h4, (0, 1), mode="candidate")
    cases.append(_case("scan_ord2_gf2_candidate_rejected", 0, len(cand.found)))
    return _report("scan-gf2", {"n": 2, "r": [0, 1]}, cases)


_SUITES = {
    "axioms": suite_axioms,
    "confluence": suite_confluence,
    "examples": suite_examples,
    "lemma-grid": suite_lemma_grid,
    "primitives": suite_primitives,
    "scan-gf2": suite_scan_gf2,
}


def run_suite(name, **overrides):
    if name not in _SUITES:
        raise ValueError("unknown suite %r (choose from %s)"
                         % (name, ", ".join(SUITE_NAMES)))
    fn = _SUITES[name]
    return fn(**{k: v for k, v in overrides.items() if v is not None})
