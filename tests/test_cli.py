"""CLI behavior: outputs, exit codes, JSON mode, file inputs."""

import json
import os
import random
import sys

import pytest

from freehopf.cli import main
from freehopf.hopf import FreeHopfAlgebra
from freehopf.rewrite import MAX_N, RuleSet
from freehopf.words import MAX_LEVELS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mul(capsys):
    code, out, _ = run(capsys, "mul", "x[1,2;0]", "x[2,2;1]",
                       "--n", "2", "--variant", "free", "--field", "q")
    assert code == 0
    assert out.strip() == "-x[1,1;0]*x[2,1;1]"


def test_delta_json(capsys):
    code, out, _ = run(capsys, "delta", "x[1,1;0]*x[2,2;1]",
                       "--variant", "ord:1", "--field", "f2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "f2" and doc["variant"] == "ord:1"
    assert len(doc["terms"]) == 2


def test_counit_and_antipode(capsys):
    code, out, _ = run(capsys, "counit", "x[1,1;0] + x[1,2;0]")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "antipode", "x[1,2;0]", "--power", "3")
    assert code == 0 and out.strip() == "x[2,1;3]"


def test_expect_verdicts(capsys):
    code, out, _ = run(capsys, "dr", "--r", "0,1", "--variant", "ord:1",
                       "--field", "f2", "--expect", "true")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "dr", "--r", "0,1", "--variant", "ord:1",
                       "--field", "q", "--expect", "true")
    assert code == 1 and out.strip() == "false"


def test_axioms_and_confluence_exit_codes(capsys):
    code, out, _ = run(capsys, "axioms", "--variant", "ord:1",
                       "--field", "f2", "--maxlen", "2")
    assert code == 0 and "axioms: OK" in out
    code, out, _ = run(capsys, "confluence", "--variant", "free",
                       "--levels", "0..6")
    assert code == 0 and "confluence: OK" in out
    code, out, _ = run(capsys, "confluence", "--variant", "ord:1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["total_ambiguities"] > 0 and doc["unresolved"] == []


def test_confluence_level_window(capsys):
    # a reversed window is empty, not too narrow
    for argv in (("confluence", "--levels", "3..1"), ("suite", "confluence", "--levels", "3..1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "empty level window (3, 1)" in err
    # mod domains ignore the window, and the report says so
    code, out, _ = run(capsys, "confluence", "--variant", "ord:1", "--levels", "0..2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["levels"] is None
    assert doc["work"] == {"checked": 70, "symmetries": 4}


def test_confluence_n_too_large_is_an_input_error(capsys):
    # refused at the ceiling on n, before the rule instances are listed
    code, out, err = run(capsys, "confluence", "--n", str(10 ** 20))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def _refuse_letter_lists(*args, **kwargs):
    raise AssertionError("a list over the letters was built")


@pytest.mark.parametrize("argv", [("axioms",), ("delta", "x[1,1;0]")])
def test_n_above_the_ceiling_is_an_input_error(monkeypatch, capsys, argv):
    # refused when the rules are built, before the n^2 letters of a level
    # (alphabet) or the n middle indices per letter (_delta_terms) are listed
    monkeypatch.setattr(RuleSet, "alphabet", _refuse_letter_lists)
    monkeypatch.setattr(FreeHopfAlgebra, "_delta_terms", _refuse_letter_lists)
    code, out, err = run(capsys, *argv, "--n", str(10 ** 20))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "2 <= n <= %d" % MAX_N in err


def test_usage_and_parse_errors(capsys):
    code, _, err = run(capsys, "mul", "x[9,9;0]", "x[1,1;0]")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "delta", "x[1,1;0]", "--levels", "banana")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "mul", "x[1,1;-2]", "x[1,1;0]",
                       "--variant", "free")
    assert code == 2


def test_subcoalgebra_and_grouplikes_from_files(tmp_path, capsys):
    span = {
        "field": "f2", "variant": "ord:1", "n": 2,
        "elements": [
            [{"c": "1", "w": [[1, 1, 0], [2, 2, 1]]}],
            [{"c": "1", "w": [[1, 2, 0], [2, 1, 1]]}],
            [{"c": "1", "w": [[2, 1, 0], [1, 2, 1]]}],
            [{"c": "1", "w": [[2, 2, 0], [1, 1, 1]]}],
        ],
    }
    f = tmp_path / "span.json"
    f.write_text(json.dumps(span))
    code, out, _ = run(capsys, "subcoalgebra", "--span", str(f),
                       "--variant", "ord:1", "--field", "f2",
                       "--expect", "true")
    assert code == 0 and out.strip() == "true"

    unit_span = {"elements": [[{"c": "1", "w": []}]]}
    g = tmp_path / "unit.json"
    g.write_text(json.dumps(unit_span))
    code, out, _ = run(capsys, "grouplikes", "--span", str(g),
                       "--variant", "ord:1", "--field", "f2")
    assert code == 0 and out.splitlines()[0] == "1"

    code, _, err = run(capsys, "subcoalgebra", "--span",
                       str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err


def test_malformed_json_documents_exit_2(tmp_path, capsys):
    cases = (
        ("subcoalgebra", "--span", [1, 2], "(at $)"),
        ("subcoalgebra", "--span", {"elements": [[{"w": [[1, 1, 0]]}]]},
         "missing key 'c' (at $.elements[0][0])"),
        ("grouplikes", "--span", {"elements": [[{"c": "1", "w": [[1, 1]]}]]},
         "(at $.elements[0][0].w[0])"),
        ("comap", "--images", {"images": [[[{"c": "1"}], []], [[], []]]},
         "missing key 'w' (at $.images[0][0][0])"),
    )
    for k, (cmd, flag, doc, where) in enumerate(cases):
        f = tmp_path / ("bad%d.json" % k)
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, cmd, flag, str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and where in err


def test_comap_from_file(tmp_path, capsys):
    def gen(i, j, r):
        return [{"c": "1", "w": [[i, j, r]]}]

    doc = {"images": [[gen(1, 1, 1), gen(1, 2, 1)],
                      [gen(2, 1, 1), gen(2, 2, 1)]]}
    f = tmp_path / "images.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "comap", "--images", str(f),
                       "--variant", "free", "--expect", "true")
    assert code == 0 and out.strip() == "true"

    bad = {"images": [[gen(1, 1, 1), gen(2, 1, 1)],
                      [gen(1, 2, 1), gen(2, 2, 1)]]}
    f2 = tmp_path / "bad.json"
    f2.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "comap", "--images", str(f2),
                       "--variant", "free")
    assert code == 0 and out.strip() == "false"


def test_scan_candidate(capsys):
    code, out, _ = run(capsys, "scan", "--r", "0,1", "--mode", "candidate",
                       "--variant", "ord:2", "--field", "f2",
                       "--expect", "false")
    assert code == 0
    assert "contains_alternating\tfalse" in out
    assert "core_dim" not in out


def test_primitives(capsys):
    code, out, _ = run(capsys, "primitives", "--maxlen", "3",
                       "--variant", "ord:1", "--field", "f3")
    assert code == 0 and out.strip() == "0"


def test_primitives_reports_max_len_before_the_window(capsys):
    code, out, err = run(capsys, "primitives", "--variant", "free", "--maxlen", "-1",
                         "--levels", "2..0")
    assert code == 2 and out == ""
    assert err.strip() == "error: max_len must be >= 0"


def test_suite_runner(capsys):
    code, out, _ = run(capsys, "suite", "axioms", "--variant", "ord:1",
                       "--field", "f2", "--maxlen", "2")
    assert code == 0 and "suite axioms: PASS" in out
    code, out, _ = run(capsys, "suite", "examples", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "examples" and doc["pass"] is True
    assert {"name", "expected", "actual", "pass"} <= set(doc["cases"][0])


def test_negative_values_with_or_without_equals(capsys):
    # "--levels -1..1" and "--r -1,0" parse like their "=" spellings, and
    # so does an abbreviated "--lev -1..1"
    for spaced, joined in (
        (["axioms", "--variant", "bij", "--levels", "-1..1"],
         ["axioms", "--variant", "bij", "--levels=-1..1"]),
        (["axioms", "--variant", "bij", "--lev", "-1..1"],
         ["axioms", "--variant", "bij", "--levels=-1..1"]),
        (["dr", "--r", "-1,0", "--variant", "bij", "--field", "f2"],
         ["dr", "--r=-1,0", "--variant", "bij", "--field", "f2"]),
    ):
        code_s, out_s, err_s = run(capsys, *spaced)
        code_j, out_j, _ = run(capsys, *joined)
        assert code_s == code_j == 0, err_s
        assert out_s == out_j and out_s.strip()


def test_scan_exhaustive_prints_core_dim(capsys):
    code, out, _ = run(capsys, "scan", "--r", "0,1", "--mode", "exhaustive",
                       "--variant", "ord:1", "--field", "f2", "--expect", "true")
    assert code == 0
    lines = out.splitlines()
    assert "subspaces\t3309747" in lines and "core_dim\t4" in lines
    assert "found\t1" in lines


def test_broken_pipe_keeps_the_exit_code(monkeypatch, capsys):
    for argv, code in ((["axioms", "--variant", "ord:1", "--json"], 0),
                       (["axioms", "--variant", "ord:1"], 0),
                       (["axioms", "--variant", "ord:1", "--expect", "false"], 1)):
        # a stdout whose reader has gone, as with `freehopf ... | head`
        r, w = os.pipe()
        os.close(r)
        pipe = os.fdopen(w, "w")
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(argv) == code
        print("rest of the output")  # goes to devnull, not to the closed pipe
        pipe.flush()
        monkeypatch.undo()
        pipe.close()
    assert capsys.readouterr().err == ""


def test_element_text_may_start_with_a_sign(capsys):
    # argparse would take "-x[1,1;0]" for an unknown option
    code, out, err = run(capsys, "counit", "-x[1,1;0]")
    assert (code, out.strip()) == (0, "-1"), err
    code, out, err = run(capsys, "mul", "-2*x[1,1;0]", "x[1,2;0]")
    assert (code, out.strip()) == (0, "-2*x[1,1;0]*x[1,2;0]"), err
    assert run(capsys, "counit", "--", "-x[1,1;0]")[:2] == (0, "-1\n")
    code, out, _ = run(capsys, "antipode", "-x[1,2;0]", "--power", "-1",
                       "--variant", "bij", "--field", "f3")
    assert (code, out.strip()) == (0, "2*x[2,1;-1]")
    # parse errors keep their offsets into the text as given
    code, _, err = run(capsys, "counit", "-x[1,1;")
    assert code == 2 and "(at position 7)" in err
    # -h is still the help flag
    with pytest.raises(SystemExit) as info:
        main(["counit", "-h"])
    assert info.value.code == 0 and "usage:" in capsys.readouterr().out


_FUZZ_ELEMENTS = ("x[1,1;0]", "-2*x[1,2;0]*x[2,1;1] + 1/2", "3/4 - x[2,2;0]",
                  "1/5*x[1,1;0]", "1", "x[1,2;0]*x[2,2;1] - 7")
_FUZZ_CHARS = "x[],;*/+-0123456789 .e"
_FUZZ_COEFFS = ("1", "-3/2", "1/5", "1/0", "2//3", "abc", "", " 7 ", "1e3",
                1.5, float("inf"), float("nan"), 10 ** 400, True, None, [], -4)


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(chars))
        op = rng.randrange(3) if chars else 0
        if op == 0:
            chars.insert(pos, rng.choice(_FUZZ_CHARS))
        elif op == 1:
            del chars[min(pos, len(chars) - 1)]
        else:
            chars[min(pos, len(chars) - 1)] = rng.choice(_FUZZ_CHARS)
    return "".join(chars)


def _fuzz_terms(rng):
    terms = []
    for _ in range(rng.randint(0, 2)):
        term = {"c": rng.choice(_FUZZ_COEFFS),
                "w": [[rng.randint(0, 3), rng.randint(1, 2), rng.randint(-1, 2)]
                      for _ in range(rng.randint(0, 2))]}
        if rng.random() < 0.2:
            del term[rng.choice(("c", "w"))]
        terms.append(term)
    return terms


def test_cli_fuzz_never_raises(tmp_path, capsys):
    """Mutated element strings and JSON term documents in every field:
    each run exits 0, 1 or 2 with no traceback.  argparse reports a usage
    error by SystemExit(2), the exit code a shell sees."""
    rng = random.Random(12)
    span, images = tmp_path / "span.json", tmp_path / "images.json"
    deep = tmp_path / "deep.json"  # deeper than the JSON decoder's recursion limit
    deep.write_text("[" * 100000 + "]" * 100000)
    for tok in ("q", "f2", "f3", "f5"):
        runs = []
        for _ in range(12):
            text = _mutate(rng, rng.choice(_FUZZ_ELEMENTS))
            cmd = rng.choice((["counit"], ["delta"], ["antipode"], ["mul", "x[1,1;0]"]))
            runs.append(cmd + [text])
        for _ in range(5):
            span.write_text(json.dumps({"elements": [_fuzz_terms(rng) for _ in range(2)]}))
            images.write_text(json.dumps(
                {"images": [[_fuzz_terms(rng) for _ in range(2)] for _ in range(2)]}))
            runs += [["subcoalgebra", "--span", str(span)],
                     ["grouplikes", "--span", str(span)],
                     ["comap", "--images", str(images)]]
        runs.append(["subcoalgebra", "--span", str(deep)])
        for argv in runs:
            try:
                code = main(argv + ["--field", tok, "--variant", "ord:1"])
            except SystemExit as exc:
                code = exc.code
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (argv, err)
            assert "Traceback" not in err, (argv, err)
            if code == 2:
                assert err.startswith(("error: ", "usage: ")), (argv, err)


def _refuse_lists_over_many_levels(name):
    # RuleSet.<name>, failing where it would list more than MAX_LEVELS
    # levels' worth of letters or rule instances
    original = getattr(RuleSet, name)

    def refuse(self, levels=None):
        if len(self.dom.levels(levels)) > MAX_LEVELS:
            raise AssertionError("a list over more than MAX_LEVELS levels was built")
        return original(self, levels)
    return refuse


@pytest.mark.parametrize("argv", [
    ("axioms", "--n", "2", "--variant", "free", "--levels=0..1000000", "--maxlen", "2"),
    ("primitives", "--n", "2", "--variant", "free", "--levels=0..1000000"),
    ("confluence", "--n", "2", "--variant", "ord:1000000"),
    ("confluence", "--levels=0..1000000"),
    ("suite", "confluence", "--levels=0..1000000"),
])
def test_levels_above_the_ceiling_are_an_input_error(monkeypatch, capsys, argv):
    # refused where the levels are enumerated, before the letters or rule
    # instances of the window are listed
    for name in ("alphabet", "rule_instances"):
        monkeypatch.setattr(RuleSet, name, _refuse_lists_over_many_levels(name))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert "exceed the ceiling of %d" % MAX_LEVELS in err


def test_levels_at_the_ceiling_are_accepted(capsys):
    code, out, _ = run(capsys, "confluence", "--n", "2", "--levels=0..%d" % (MAX_LEVELS - 1))
    assert code == 0 and "confluence: OK" in out
    code, _, err = run(capsys, "confluence", "--n", "2", "--levels=0..%d" % MAX_LEVELS)
    assert code == 2 and "exceed the ceiling" in err
