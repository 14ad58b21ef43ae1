"""Text and JSON forms for elements, tensors, spans, and map families.

Element grammar (whitespace is free between tokens):

    element := [sign] term (('+' | '-') term)*
    term    := coeff | coeff '*' word | word
    coeff   := int | int '/' int
    word    := '1' | gen ('*' gen)*
    gen     := 'x[' int ',' int ';' int ']'

The canonical printer in hopf.Element emits this grammar, so printing and
parsing round-trip.
"""

from fractions import Fraction

from .words import UNIT, letter


class ParseError(ValueError):
    """Malformed input: position is the offset into element text, path the
    JSON path (such as $.elements[0][1].c) into a document."""

    def __init__(self, message, position=None, path=None):
        where = path if position is None else "position %d" % position
        super().__init__("%s (at %s)" % (message, where))
        self.position = position
        self.path = path


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def done(self):
        self.skip()
        return self.pos >= len(self.text)

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ParseError("expected %r" % ch, self.pos)
        self.pos += 1

    def integer(self):
        self.skip()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])


def _parse_gen(cur, H):
    at = cur.pos
    cur.take("x")
    cur.take("[")
    i = cur.integer()
    cur.take(",")
    j = cur.integer()
    cur.take(";")
    r = cur.integer()
    cur.take("]")
    try:
        return letter(H.n, H.domain, i, j, r)
    except ValueError as exc:
        raise ParseError(str(exc), at)


def _parse_word(cur, H):
    ch = cur.peek()
    if ch.isdigit():
        at = cur.pos
        value = cur.integer()
        if value != 1:
            raise ParseError("expected a generator or the unit word 1", at)
        return UNIT
    letters = [_parse_gen(cur, H)]
    while True:
        mark = cur.pos
        if cur.peek() != "*":
            break
        cur.pos += 1
        if cur.peek() != "x":
            cur.pos = mark
            break
        letters.append(_parse_gen(cur, H))
    return tuple(letters)


def _parse_term(cur, H):
    ch = cur.peek()
    if ch.isdigit():
        num = cur.integer()
        coeff = Fraction(num)
        if cur.peek() == "/":
            cur.pos += 1
            at = cur.pos
            den = cur.integer()
            if den == 0:
                raise ParseError("zero denominator", at)
            coeff = Fraction(num, den)
        if cur.peek() == "*":
            cur.pos += 1
            word = _parse_word(cur, H)
        else:
            word = UNIT
        return word, coeff
    if ch == "x":
        return _parse_word(cur, H), Fraction(1)
    raise ParseError("expected a term", cur.pos)


def parse_element(text, H):
    """Parse the element grammar into a normal-formed Element of H."""
    cur = _Cursor(text)
    if cur.done():
        raise ParseError("empty input", 0)
    terms = []
    sign = 1
    ch = cur.peek()
    if ch in "+-":
        sign = -1 if ch == "-" else 1
        cur.pos += 1
    while True:
        cur.skip()
        at = cur.pos
        word, coeff = _parse_term(cur, H)
        try:
            terms.append((word, H.field.scalar(sign * coeff)))
        except ZeroDivisionError as exc:
            raise ParseError(str(exc), at) from None
        if cur.done():
            break
        ch = cur.peek()
        if ch not in "+-":
            raise ParseError("expected '+', '-', or end of input", cur.pos)
        sign = -1 if ch == "-" else 1
        cur.pos += 1
    return H.element(terms)


# -- JSON object forms ---------------------------------------------------------


def _terms_to_obj(el):
    return [
        {"c": str(c), "w": [list(l) for l in w]}
        for w, c in el.sorted_terms()
    ]


def element_to_obj(el):
    H = el.parent
    return {
        "field": H.field.token,
        "variant": H.variant,
        "n": H.n,
        "terms": _terms_to_obj(el),
    }


def _check_config(H, obj):
    for key, mine in (("field", H.field.token), ("variant", H.variant), ("n", H.n)):
        if key in obj and obj[key] != mine:
            raise ValueError(
                "config mismatch: document has %s=%r, algebra has %r"
                % (key, obj[key], mine)
            )


_JSON_KINDS = {dict: "an object", list: "a list", int: "an integer",
               float: "a number", str: "a string"}


def _json_kind(value):
    if isinstance(value, bool):
        return "a boolean"
    return _JSON_KINDS.get(type(value), "null")


def _expect(value, kind, path):
    """value, if it is a JSON value of the given Python type (bools are
    not integers here); ParseError at path otherwise."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError("expected %s, got %s" % (_JSON_KINDS[kind], _json_kind(value)),
                         path=path)
    return value


def _member(obj, key, path):
    if key not in _expect(obj, dict, path):
        raise ParseError("missing key %r" % key, path=path)
    return obj[key]


def _terms_from_obj(H, items, path):
    """(word, scalar) pairs of a term list [{"c": ..., "w": [[i, j, r], ...]}]."""
    out = []
    for k, t in enumerate(_expect(items, list, path)):
        at = "%s[%d]" % (path, k)
        w = []
        for m, l in enumerate(_expect(_member(t, "w", at), list, at + ".w")):
            lat = "%s.w[%d]" % (at, m)
            if len(_expect(l, list, lat)) != 3:
                raise ParseError("expected a letter [i, j, r]", path=lat)
            i, j, r = (_expect(v, int, "%s[%d]" % (lat, q)) for q, v in enumerate(l))
            try:
                w.append(letter(H.n, H.domain, i, j, r))
            except ValueError as exc:
                raise ParseError(str(exc), path=lat) from None
        c = _member(t, "c", at)
        if isinstance(c, bool) or not isinstance(c, (str, int, float)):
            raise ParseError("expected a coefficient string, got %s" % _json_kind(c),
                             path=at + ".c")
        try:
            out.append((tuple(w), H.field.scalar(str(c))))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(str(exc), path=at + ".c") from None
    return out


def element_from_obj(H, obj):
    _check_config(H, _expect(obj, dict, "$"))
    return H.element(_terms_from_obj(H, _member(obj, "terms", "$"), "$.terms"))


def tensor_to_obj(t):
    H = t.parent
    return {
        "field": H.field.token,
        "variant": H.variant,
        "n": H.n,
        "terms": [
            {
                "c": str(c),
                "left": [list(l) for l in a],
                "right": [list(l) for l in b],
            }
            for (a, b), c in t.sorted_terms()
        ],
    }


def span_from_obj(H, obj):
    """Elements of a span document: {"elements": [termlist, ...]} plus the
    optional config keys field/variant/n, which must match H when present."""
    _check_config(H, _expect(obj, dict, "$"))
    elements = _expect(_member(obj, "elements", "$"), list, "$.elements")
    return [
        H.element(_terms_from_obj(H, items, "$.elements[%d]" % k))
        for k, items in enumerate(elements)
    ]


def images_from_obj(H, obj):
    """An n x n family of elements: {"images": [[termlist, ...], ...]}."""
    _check_config(H, _expect(obj, dict, "$"))
    images = _expect(_member(obj, "images", "$"), list, "$.images")
    for k, row in enumerate(images):
        _expect(row, list, "$.images[%d]" % k)
    if len(images) != H.n or any(len(row) != H.n for row in images):
        raise ParseError("expected an %d x %d images array" % (H.n, H.n), path="$.images")
    return [
        [H.element(_terms_from_obj(H, cell, "$.images[%d][%d]" % (k, m)))
         for m, cell in enumerate(row)]
        for k, row in enumerate(images)
    ]
