"""Element grammar and JSON round-trips."""

import random

import pytest

from freehopf import Field, FreeHopfAlgebra, ParseError, parse_element
from freehopf.parsing import (
    element_from_obj,
    element_to_obj,
    images_from_obj,
    span_from_obj,
    tensor_to_obj,
)

HQ = FreeHopfAlgebra(2, "free", Field.rationals())
H2 = FreeHopfAlgebra(2, "ord:1", Field.prime(2))
HB = FreeHopfAlgebra(2, "bij", Field.rationals())


def test_basic_forms():
    assert parse_element("1", HQ) == HQ.one()
    assert parse_element("0", HQ) == HQ.zero()
    assert parse_element("x[1,2;0]", HQ) == HQ.gen(1, 2, 0)
    assert parse_element("3*x[1,2;0]", HQ) == 3 * HQ.gen(1, 2, 0)
    assert parse_element("-x[1,2;0]", HQ) == -HQ.gen(1, 2, 0)
    assert parse_element("2", HQ) == 2 * HQ.one()
    assert parse_element("1/2*x[1,1;0]", HQ).coefficient(((1, 1, 0),)) \
        == HQ.field.scalar("1/2")
    assert parse_element("x[1,2;0]*x[2,1;1]", HQ) == \
        HQ.gen(1, 2, 0) * HQ.gen(2, 1, 1)
    assert parse_element(" 1 -  x[1,1;0] ", HQ) == HQ.one() - HQ.gen(1, 1, 0)
    assert parse_element("2*1", HQ) == 2 * HQ.one()
    # reducible input words are normal-formed on entry
    assert parse_element("x[2,2;0]*x[2,2;1]", HQ) == \
        HQ.one() - HQ.word(((2, 1, 0), (2, 1, 1)))


def test_negative_levels_in_bij():
    e = parse_element("x[1,2;-3]", HB)
    assert e == HB.gen(1, 2, -3)
    with pytest.raises(ParseError):
        parse_element("x[1,2;-3]", HQ)  # nat domain refuses


def test_parse_errors_carry_positions():
    cases = [
        "", "x", "x[1,2;0", "x[0,1;0]", "x[1,1;0] +", "x[1,1;0] * * x[1,1;0]",
        "x[3,1;0]", "y[1,1;0]", "2*", "1/0", "x[1,1;0] x[1,1;0]", "5*3",
    ]
    for text in cases:
        with pytest.raises(ParseError) as info:
            parse_element(text, HQ)
        assert info.value.position >= 0


def test_round_trip_random_elements():
    rng = random.Random(77)
    for H, levels in ((HQ, (0, 1)), (H2, (0, 1)), (HB, (-1, 0))):
        alphabet = [(i, j, r) for r in levels for i in (1, 2) for j in (1, 2)]
        for _ in range(40):
            data = []
            for _ in range(rng.randint(0, 4)):
                w = tuple(rng.choice(alphabet)
                          for _ in range(rng.randint(0, 3)))
                data.append((w, rng.randint(-4, 4)))
            e = H.element(data)
            assert parse_element(str(e), H) == e


def test_json_round_trip():
    e = HQ.one() - 2 * HQ.gen(1, 2, 0) * HQ.gen(2, 1, 1)
    obj = element_to_obj(e)
    assert obj["field"] == "q" and obj["variant"] == "free" and obj["n"] == 2
    assert element_from_obj(HQ, obj) == e
    # config mismatch is loud
    with pytest.raises(ValueError, match="mismatch"):
        element_from_obj(H2, obj)
    t = e.coproduct()
    doc = tensor_to_obj(t)
    assert doc["terms"] and {"c", "left", "right"} <= set(doc["terms"][0])


def test_span_and_images_loaders():
    span_doc = {
        "field": "f2", "variant": "ord:1", "n": 2,
        "elements": [
            [{"c": "1", "w": [[1, 1, 0], [2, 2, 1]]}],
            [{"c": "1", "w": [[1, 2, 0], [2, 1, 1]]}],
        ],
    }
    els = span_from_obj(H2, span_doc)
    assert len(els) == 2 and all(e.parent == H2 for e in els)
    images_doc = {
        "images": [
            [[{"c": "1", "w": [[1, 1, 0]]}], [{"c": "1", "w": [[1, 2, 0]]}]],
            [[{"c": "1", "w": [[2, 1, 0]]}], [{"c": "1", "w": [[2, 2, 0]]}]],
        ],
    }
    images = images_from_obj(H2, images_doc)
    assert images[0][0] == H2.gen(1, 1, 0)
    assert images[1][0] == H2.gen(2, 1, 0)
    with pytest.raises(ValueError):
        images_from_obj(H2, {"images": [[]]})


@pytest.mark.parametrize("doc,path", [
    ([1, 2], "$"),
    ({}, "$"),
    ({"elements": {"c": "1"}}, "$.elements"),
    ({"elements": [[{"w": [[1, 1, 0]]}]]}, "$.elements[0][0]"),
    ({"elements": [[{"c": "1"}]]}, "$.elements[0][0]"),
    ({"elements": [[], [7]]}, "$.elements[1][0]"),
    ({"elements": [{"c": "1", "w": []}]}, "$.elements[0]"),
    ({"elements": [[{"c": "1", "w": [[1, 1]]}]]}, "$.elements[0][0].w[0]"),
    ({"elements": [[{"c": "1", "w": [[1, "1", 0]]}]]}, "$.elements[0][0].w[0][1]"),
    ({"elements": [[{"c": "1", "w": [[1, 3, 0]]}]]}, "$.elements[0][0].w[0]"),
    ({"elements": [[{"c": "1", "w": [[1, 1, 0], [1, 1, -1]]}]]}, "$.elements[0][0].w[1]"),
    ({"elements": [[{"c": None, "w": []}]]}, "$.elements[0][0].c"),
    ({"elements": [[{"c": "1/2", "w": []}]]}, "$.elements[0][0].c"),
    ({"elements": [[{"c": "one", "w": []}]]}, "$.elements[0][0].c"),
])
def test_malformed_span_documents_name_the_json_path(doc, path):
    H = FreeHopfAlgebra(2, "free", Field.prime(2))
    with pytest.raises(ParseError) as info:
        span_from_obj(H, doc)
    assert info.value.path == path and info.value.position is None
    assert str(info.value).endswith("(at %s)" % path)


def test_malformed_element_and_images_documents():
    with pytest.raises(ParseError, match=r"missing key 'terms' \(at \$\)"):
        element_from_obj(HQ, {"n": 2})
    with pytest.raises(ParseError, match=r"\$\.terms\[0\]\.w"):
        element_from_obj(HQ, {"terms": [{"c": "1", "w": 5}]})
    cell = [{"c": "1", "w": [[1, 1, 0]]}]
    with pytest.raises(ParseError, match=r"\$\.images\[1\]"):
        images_from_obj(H2, {"images": [[cell, cell], "row"]})
    with pytest.raises(ParseError, match=r"\$\.images\[0\]\[1\]\[0\]"):
        images_from_obj(H2, {"images": [[cell, [{"w": []}]], [cell, cell]]})
    with pytest.raises(ParseError, match=r"expected a list, got a string"):
        images_from_obj(H2, {"images": "none"})


def test_zero_denominator_in_prime_field_is_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_element("x[1,1;0] + 1/2*x[1,2;0]", H2)
    assert info.value.position == 11
