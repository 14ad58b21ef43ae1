"""Hopf structure maps: frozen values, algebraic laws, axiom reports."""

import random
from itertools import product as iproduct

import pytest

from freehopf import Field, FreeHopfAlgebra, hopf, parse_element, rewrite
from freehopf.hopf import Element, parse_variant
from freehopf.words import UNIT, LevelDomain

from mutants import (break_one, break_one_nat, double, drop_delta, drop_delta_r1, negate,
                     patch_map, patch_reduce_once, scale_level_one, scale_level_zero, self_term)
from oracles import (oracle_candidate_symmetries, oracle_instance_orbits,
                     oracle_integer_certificate, oracle_verify_axioms)


def test_parse_variant():
    assert parse_variant("free") == ("free", LevelDomain.nat())
    assert parse_variant("bij") == ("bij", LevelDomain.integers())
    assert parse_variant("ord:3") == ("ord:3", LevelDomain.mod(6))
    assert parse_variant("ORD:1") == ("ord:1", LevelDomain.mod(2))
    for bad in ("ord:0", "ord:x", "fre", "ord", "mod:2"):
        with pytest.raises(ValueError):
            parse_variant(bad)


def _rand_element(rng, H, levels, max_len=2, terms=3):
    alphabet = [(i, j, r) for r in levels
                for i in range(1, H.n + 1) for j in range(1, H.n + 1)]
    data = []
    for _ in range(terms):
        w = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))
        c = rng.randint(-3, 3)
        data.append((w, c))
    return H.element(data)


def test_element_construction_reduces():
    H = FreeHopfAlgebra(2, "free", Field.rationals())
    e = H.word(((2, 2, 0), (2, 2, 1)))
    assert str(e) == "1 - x[2,1;0]*x[2,1;1]"
    assert e.coefficient(UNIT) == H.field.one
    assert e.coefficient(((2, 1, 0), (2, 1, 1))) == -1
    # level canonicalization happens at construction in modular domains
    H2 = FreeHopfAlgebra(2, "ord:1", Field.rationals())
    assert H2.gen(1, 2, 7) == H2.gen(1, 2, 1)


def test_ring_laws_exhaustive_small():
    H = FreeHopfAlgebra(2, "ord:1", Field.prime(3))
    gens = [H.gen(i, j, r) for i, j, r in
            ((1, 1, 0), (1, 2, 0), (2, 2, 1))]
    for a, b, c in iproduct(gens, repeat=3):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c
    one = H.one()
    for a in gens:
        assert one * a == a and a * one == a
        assert a - a == H.zero()
        assert 2 * a == a + a


def test_product_matches_rewrite():
    H = FreeHopfAlgebra(2, "free", Field.rationals())
    x = H.gen(1, 2, 0)
    y = H.gen(2, 2, 1)
    assert str(x * y) == "-x[1,1;0]*x[2,1;1]"
    # multiplying an element by itself exercises cross terms
    e = x + H.one()
    assert e * e == x * x + 2 * x + H.one()


def test_counit_is_multiplicative():
    rng = random.Random(3)
    for tok in ("q", "f2", "f5"):
        H = FreeHopfAlgebra(2, "ord:2", Field.from_token(tok))
        for _ in range(20):
            a = _rand_element(rng, H, (0, 1, 2, 3))
            b = _rand_element(rng, H, (0, 1, 2, 3))
            assert (a * b).counit() == H.field.scalar(a.counit() * b.counit())
            assert (a + b).counit() == H.field.scalar(a.counit() + b.counit())
    assert FreeHopfAlgebra(2, "free").one().counit() == 1


def test_coproduct_of_generators():
    H = FreeHopfAlgebra(3, "free", Field.rationals())
    g = H.gen(1, 2, 0)
    t = g.coproduct()
    expect = {}
    for a in (1, 2, 3):
        expect[(((1, a, 0),), ((a, 2, 0),))] = H.field.one
    assert t.terms == expect
    assert H.one().coproduct().terms == {(UNIT, UNIT): H.field.one}


def test_coproduct_is_an_algebra_map():
    rng = random.Random(9)
    for variant, levels in (("free", (0, 1)), ("ord:1", (0, 1))):
        H = FreeHopfAlgebra(2, variant, Field.prime(3))
        for _ in range(12):
            a = _rand_element(rng, H, levels, max_len=2, terms=2)
            b = _rand_element(rng, H, levels, max_len=1, terms=2)
            left = (a * b).coproduct()
            da, db = a.coproduct(), b.coproduct()
            acc = {}
            for (a1, a2), ca in da.terms.items():
                for (b1, b2), cb in db.terms.items():
                    c = ca * cb
                    e1 = H.multiply(Element(H, {a1: H.field.one}),
                                    Element(H, {b1: H.field.one}))
                    e2 = H.multiply(Element(H, {a2: H.field.one}),
                                    Element(H, {b2: H.field.one}))
                    for w1, c1 in e1.terms.items():
                        for w2, c2 in e2.terms.items():
                            key = (w1, w2)
                            s = H.field.scalar(acc.get(key, H.field.zero) + c * c1 * c2)
                            if s:
                                acc[key] = s
                            else:
                                acc.pop(key, None)
            assert left.terms == acc


def test_antipode_closed_form():
    H = FreeHopfAlgebra(2, "free", Field.rationals())
    w = ((1, 2, 0), (2, 1, 1), (1, 1, 2))
    # odd power: transpose indices, reverse the word, shift levels
    assert H.antipode_raw_word(w, 1) == ((1, 1, 3), (1, 2, 2), (2, 1, 1))
    assert H.antipode_raw_word(w, 3) == ((1, 1, 5), (1, 2, 4), (2, 1, 3))
    # even power: only shift levels
    assert H.antipode_raw_word(w, 2) == ((1, 2, 2), (2, 1, 3), (1, 1, 4))
    assert H.antipode_raw_word(w, 0) == w
    with pytest.raises(ValueError):
        H.antipode_raw_word(w, -1)
    # bij variant allows negative powers: S^-1 inverts S
    Hb = FreeHopfAlgebra(2, "bij", Field.rationals())
    x = Hb.gen(1, 2, 0)
    assert x.antipode(1).antipode(-1) == x
    assert x.antipode(-1).antipode(1) == x


def test_antipode_is_antimultiplicative():
    rng = random.Random(31)
    for tok in ("q", "f2"):
        H = FreeHopfAlgebra(2, "ord:1", Field.from_token(tok))
        for _ in range(15):
            a = _rand_element(rng, H, (0, 1))
            b = _rand_element(rng, H, (0, 1))
            assert (a * b).antipode() == b.antipode() * a.antipode()
    H = FreeHopfAlgebra(2, "free", Field.rationals())
    assert H.one().antipode() == H.one()


def test_antipode_convolution_identity():
    # sum S(x1) x2 = eps(x) 1 on every generator and a frozen product
    for variant in ("free", "ord:1", "ord:2"):
        H = FreeHopfAlgebra(2, variant, Field.rationals())
        for i, j in iproduct((1, 2), repeat=2):
            g = H.gen(i, j, 0)
            acc = H.zero()
            for (w1, w2), c in g.coproduct().terms.items():
                s = Element(H, {w1: H.field.one}).antipode()
                acc = acc + c * (s * Element(H, {w2: H.field.one}))
            expect = H.one() if i == j else H.zero()
            assert acc == expect


def test_antipode_order_in_modular_variants():
    for d in (1, 2, 3):
        H = FreeHopfAlgebra(2, "ord:%d" % d, Field.prime(2))
        w = H.word(((1, 2, 0), (2, 1, 1)))
        assert w.antipode(2 * d) == w
        if d > 1:
            assert w.antipode(2) != w


def test_str_formats():
    H = FreeHopfAlgebra(2, "free", Field.rationals())
    assert str(H.zero()) == "0"
    assert str(H.one()) == "1"
    assert str(-H.one()) == "-1"
    assert str(2 * H.gen(1, 1, 0)) == "2*x[1,1;0]"
    assert str(H.one() - H.gen(1, 1, 0)) == "1 - x[1,1;0]"
    G = FreeHopfAlgebra(2, "free", Field.prime(3))
    assert str(G.one() - G.gen(1, 1, 0)) == "1 + 2*x[1,1;0]"
    t = H.tensor(H.gen(1, 1, 0), H.one())
    assert str(t) == "x[1,1;0] (x) 1"
    assert str(H.tensor(H.zero(), H.one())) == "0"


def test_basis_words_requires_window_for_free():
    H = FreeHopfAlgebra(2, "free", Field.rationals())
    with pytest.raises(ValueError):
        H.basis_words(2)
    assert len(H.basis_words(1, (0, 0))) == 5  # unit + four letters
    H2 = FreeHopfAlgebra(2, "ord:1", Field.rationals())
    assert len(H2.basis_words(1)) == 9


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("variant,window", [
    ("free", (0, 1)), ("bij", (-1, 0)), ("ord:1", None), ("ord:2", None),
])
def test_irreducible_count_is_the_number_of_basis_words(n, variant, window):
    # verify_axioms reports this count as words_checked without listing;
    # length 4 is listed where that takes well under a second
    H = FreeHopfAlgebra(n, variant)
    longest = 4 if n == 2 or (n == 3 and variant != "ord:2") else 3
    for max_len in range(longest + 1):
        assert H.rules.irreducible_count(max_len, window) == len(H.basis_words(max_len, window))


def test_irreducible_count_raises_as_the_listing_does():
    rs = FreeHopfAlgebra(2, "free").rules
    for args in ((-1, (0, 1)), (0, None), (2, (3, 1)), (2, (-1, 1)), (1.5, (0, 1)), (None, (0, 1))):
        with pytest.raises(Exception) as listing:
            rs.irreducible_words(*args)
        with pytest.raises(Exception) as count:
            rs.irreducible_count(*args)
        assert (count.type, str(count.value)) == (listing.type, str(listing.value))


def test_axioms_report_shape_and_counts():
    H = FreeHopfAlgebra(2, "ord:1", Field.prime(2))
    report = H.verify_axioms(2)
    assert report["ok"] is True
    assert report["words_checked"] == 59
    assert set(report["failures"]) == {
        "coassociativity", "counit_left", "counit_right",
        "antipode_left", "antipode_right", "anti_coalgebra",
        "antipode_order",
    }
    assert all(v == 0 for v in report["failures"].values())
    Hf = FreeHopfAlgebra(2, "free", Field.rationals())
    rep = Hf.verify_axioms(1, (0, 1))
    assert rep["ok"] and "antipode_order" not in rep["failures"]


AXIOM_CONFIGS = (("free", (0, 1)), ("bij", (-1, 1)), ("ord:1", None), ("ord:2", None))
FIELD_TOKENS = ("q", "f2", "f3", "f5")


@pytest.mark.parametrize("variant,levels", AXIOM_CONFIGS)
def test_axiom_reports_match_per_field_oracle(variant, levels):
    for tok in FIELD_TOKENS:
        H = FreeHopfAlgebra(2, variant, Field.from_token(tok))
        assert H.verify_axioms(2, levels) == oracle_verify_axioms(H, 2, levels)


def _real_maps(variant):
    """The real algebra's RuleSet, cached coproducts and certificate (filled
    here), which a map mutant must neither read nor write."""
    H = FreeHopfAlgebra(2, variant)
    assert H.certify_hopf_ideal()["ok"]
    return H.rules, dict(hopf._DELTA_CACHES[H.rules]), hopf._CERTIFICATE_CACHE[H.rules]


MUTANT_CONFIGS = (("free", (0, 1)), ("ord:1", None))


@pytest.mark.parametrize("variant,levels", MUTANT_CONFIGS)
def test_negated_antipode_residuals_project_by_gcd(monkeypatch, variant, levels):
    before = _real_maps(variant)
    patch_map(monkeypatch, "antipode_int", negate)
    reports = {}
    for tok in FIELD_TOKENS:
        H = FreeHopfAlgebra(2, variant, Field.from_token(tok))
        for max_examples in (5, 1):
            report = H.verify_axioms(2, levels, max_examples)
            assert report == oracle_verify_axioms(H, 2, levels, max_examples)
        reports[tok] = report
    assert reports["f2"]["ok"] and reports["f2"]["failure_examples"] == {}
    for tok in ("q", "f3", "f5"):
        rep = reports[tok]
        assert not rep["ok"]
        for name in ("coassociativity", "counit_left", "counit_right"):
            assert rep["failures"][name] == 0
        for name in ("antipode_left", "antipode_right", "anti_coalgebra"):
            assert rep["failures"][name] > 0
            assert len(rep["failure_examples"][name]) == 1
        if variant.startswith("ord:"):
            assert rep["failures"]["antipode_order"] == rep["words_checked"]
    # the real algebra's caches are untouched, and its axioms still hold
    monkeypatch.undo()
    assert _real_maps(variant) == before
    assert FreeHopfAlgebra(2, variant, Field.prime(3)).verify_axioms(2, levels)["ok"]


def test_mod_axioms_ignore_the_window(monkeypatch):
    # the window is ignored on a modular domain: the report records none,
    # and every window gives the same report, failing or not
    real = FreeHopfAlgebra(2, "ord:1")
    report = real.verify_axioms(2, (0, 1))
    assert report["levels"] is None
    assert report == real.verify_axioms(2) == real.verify_axioms(2, (3, 7))
    patch_map(monkeypatch, "antipode_int", negate)
    H = FreeHopfAlgebra(2, "ord:1")
    report = H.verify_axioms(2, (0, 1))
    assert report["levels"] is None and not report["ok"]
    assert report == H.verify_axioms(2) == H.verify_axioms(2, (3, 7))
    assert report == oracle_verify_axioms(H, 2, (0, 1))


CERT_CONFIGS = (("free", (0, 2)), ("bij", (-1, 1)), ("ord:1", None), ("ord:2", None))
CHECKS = {"confluence", "delta", "counit", "antipode", "letters"}


@pytest.mark.parametrize("n,max_len", ((2, 3), (3, 2)))
@pytest.mark.parametrize("variant,levels", CERT_CONFIGS)
def test_certificate_passes_and_the_sweep_agrees(n, variant, levels, max_len):
    for tok in FIELD_TOKENS:
        cert = FreeHopfAlgebra(n, variant, Field.from_token(tok)).certify_hopf_ideal()
        assert cert["ok"] and set(cert["failures"]) == CHECKS
        assert not any(cert["failures"].values()) and cert["failure_examples"] == {}
    # the per-word integer sweep is the oracle: no word has a residue
    H = FreeHopfAlgebra(n, variant)
    assert H._integer_residuals(H.basis_words(max_len, levels)) == []


def test_certificate_report_content():
    cert = FreeHopfAlgebra(2, "ord:1", Field.prime(3)).certify_hopf_ideal()
    assert set(cert) == {"config", "failures", "failure_examples", "ok", "elapsed", "work"}
    assert cert["config"] == {"n": 2, "variant": "ord:1", "field": "f3", "domain": "Z/2"}
    assert isinstance(cert["elapsed"], float) and cert["elapsed"] >= 0
    # all 276 ambiguities of the mod-2 domain, 8 R1/R2 and 16 R3/R4
    # instances per level, the 2 * 4 letters
    assert cert["work"] == {"ambiguities": 276, "ambiguities_checked": 70,
                            "rule_instances": 48, "letters": 8}
    # nat/int check one window: 5 levels of ambiguities, the instances of
    # levels 0..2 and the letters of level 0
    work = FreeHopfAlgebra(2, "free").certify_hopf_ideal()["work"]
    assert (work["ambiguities"], work["rule_instances"], work["letters"]) == (336, 32, 4)
    report = FreeHopfAlgebra(2, "ord:1", Field.prime(3)).verify_axioms(2)
    assert set(report) == {"config", "max_len", "levels", "words_checked", "failures",
                           "failure_examples", "residuals", "ok"}


# counts: failing rule instances under delta, counit and antipode, and
# failing letters, over Q
@pytest.mark.parametrize("edit,variant,levels,counts", (
    (drop_delta, "ord:1", None, (32, 8, 8, 4)),
    (drop_delta_r1, "ord:1", None, (32, 4, 12, 4)),
    (drop_delta, "free", (0, 1), (12, 8, 0, 2)),
    (break_one, "ord:2", None, (8, 0, 2, 0)),
))
def test_certificate_fails_on_broken_rules(monkeypatch, edit, variant, levels, counts):
    # a certificate cached before the patch must not be read after it
    assert FreeHopfAlgebra(2, variant).certify_hopf_ideal()["ok"]
    patch_reduce_once(monkeypatch, edit)
    for tok in FIELD_TOKENS:
        H = FreeHopfAlgebra(2, variant, Field.from_token(tok))
        cert = H.certify_hopf_ideal(max_examples=2)
        assert not cert["ok"] and cert["failures"]["confluence"] > 0
        for check, examples in cert["failure_examples"].items():
            assert 0 < len(examples) <= min(2, cert["failures"][check])
        if tok == "q":
            assert tuple(cert["failures"][c] for c in ("delta", "counit", "antipode",
                                                        "letters")) == counts
        # the sweep runs, and its report is the per-field oracle's
        report = H.verify_axioms(2, levels)
        assert not report["ok"]
        assert report == oracle_verify_axioms(H, 2, levels)
    monkeypatch.undo()
    assert FreeHopfAlgebra(2, variant).certify_hopf_ideal()["ok"]


def _certificate_maps(H):
    """The rule instances of H's certificate window (0, 2), the generators
    of the letter maps verified on them, and every candidate letter map."""
    rs = H.rules
    inst = rs.rule_instances((0, 2))
    gens = rewrite._verified_symmetries(rs, rewrite._instance_rhs(rs, inst), (0, 2))
    return inst, gens, oracle_candidate_symmetries(rs, (0, 2))[0]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("variant", [variant for variant, _ in CERT_CONFIGS])
def test_orbit_certificate_matches_the_all_instance_oracle(monkeypatch, n, variant):
    H = FreeHopfAlgebra(n, variant)
    inst, gens, group = _certificate_maps(H)
    # every map permutes the letters of the window, so _delta_commutes can
    # map the legs of Delta of a letter, which are letters of its level
    letters = set(H.rules.alphabet((0, 2)))
    assert gens and all(table.keys() == set(table.values()) == letters for table, _ in group)
    assert H._delta_commutes(gens, (0, 2)) and H._delta_commutes(group, (0, 2))
    # one coproduct residual per orbit of the whole group, of 32 to 288
    # instances, read by every instance from its orbit's first; on ord the
    # level rotations join the index permutations and the flip
    first = rewrite._orbit_firsts(H.rules, inst, (0, 2), gens)
    orbits = {frozenset(a for a in inst if first[a] == f) for f in first.values()}
    assert orbits == oracle_instance_orbits(inst, group)
    per_n = {2: 16, 3: 45} if variant in ("free", "bij") else {2: 12, 3: 36}
    assert len(orbits) == per_n[n]
    assert H._integer_certificate() == oracle_integer_certificate(H)
    # the scale_level edits keep confluence.  The letter maps commute with
    # scale_level_one on free and bij, so the certificate checks it orbit
    # by orbit, and not on ord, nor with scale_level_zero anywhere, so it
    # checks every instance; self_term keeps both and breaks step (b)
    # orbit by orbit
    for edit, commutes in ((scale_level_one, variant in ("free", "bij")),
                           (scale_level_zero, False), (self_term, True)):
        with monkeypatch.context() as m:
            patch_map(m, "_delta_terms", edit)
            H = FreeHopfAlgebra(n, variant)
            _, gens, group = _certificate_maps(H)
            assert H._delta_commutes(gens, (0, 2)) == H._delta_commutes(group, (0, 2)) == commutes
            checks, work = H._integer_certificate()
            assert checks["delta"] and not checks["confluence"]
            assert (checks, work) == oracle_integer_certificate(H)
    # where they apply, these rule mutants break confluence, so every
    # instance is checked
    for edit in (drop_delta, break_one, break_one_nat):
        with monkeypatch.context() as m:
            patch_reduce_once(m, edit)
            H = FreeHopfAlgebra(n, variant)
            assert H._integer_certificate() == oracle_integer_certificate(H)


def test_axioms_up_to_length_one_sweep_without_a_certificate(monkeypatch):
    # the sweep of the unit and the letters is the certificate's own check
    # on the letters, so no certificate is built for it
    monkeypatch.setattr(hopf, "_CERTIFICATE_CACHE", {})
    for variant, levels in CERT_CONFIGS:
        for tok in FIELD_TOKENS:
            H = FreeHopfAlgebra(3, variant, Field.from_token(tok))
            for max_len in (0, 1):
                assert H.verify_axioms(max_len, levels) == oracle_verify_axioms(H, max_len, levels)
    assert hopf._CERTIFICATE_CACHE == {}


def test_certificate_keeps_reducible_words_out_of_the_delta_cache(monkeypatch):
    monkeypatch.setattr(rewrite, "_RULESETS", {})
    for variant in ("free", "ord:2"):
        H = FreeHopfAlgebra(2, variant)
        assert H.certify_hopf_ideal()["ok"]
        cached = hopf._DELTA_CACHES[H.rules]
        assert cached and all(H.rules.is_irreducible(w) for w in cached)


def test_overridden_coproduct_stays_out_of_the_real_delta_cache(monkeypatch):
    before = [_real_maps(variant) for variant, _ in MUTANT_CONFIGS]
    patch_map(monkeypatch, "_delta_terms", double)
    for variant, levels in MUTANT_CONFIGS:
        for tok in FIELD_TOKENS:
            H = FreeHopfAlgebra(2, variant, Field.from_token(tok))
            assert not H.certify_hopf_ideal()["ok"]
            report = H.verify_axioms(2, levels)
            assert report == oracle_verify_axioms(H, 2, levels)
            # (eps(x)id)(2 Delta)(w) - w = w on every word, in every field
            assert report["failures"]["counit_left"] == report["words_checked"]
    monkeypatch.undo()
    assert [_real_maps(variant) for variant, _ in MUTANT_CONFIGS] == before
    real = FreeHopfAlgebra(2, "ord:1")
    x = real.gen(1, 1, 0)
    assert x.coproduct() == real.tensor(x, x) + real.tensor(real.gen(1, 2, 0), real.gen(2, 1, 0))
    assert real.verify_axioms(2)["ok"]


def test_cross_parent_operations_rejected():
    a = FreeHopfAlgebra(2, "free", Field.rationals()).one()
    b = FreeHopfAlgebra(2, "free", Field.prime(2)).one()
    with pytest.raises(ValueError):
        a + b
    ta = FreeHopfAlgebra(2, "free").gen(1, 1, 0).coproduct()
    tb = FreeHopfAlgebra(3, "free").gen(3, 3, 0).coproduct()
    with pytest.raises(ValueError):
        ta + tb
    with pytest.raises(ValueError):
        ta - tb
    with pytest.raises(TypeError):
        a + ta
    with pytest.raises(TypeError):
        ta + a
    c = FreeHopfAlgebra(2, "ord:1", Field.rationals()).one()
    with pytest.raises(ValueError):
        a * c
