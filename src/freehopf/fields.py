"""Exact coefficient arithmetic over the rationals and over prime fields GF(p).

Every scalar is tagged with its field; mixing scalars from different fields
raises ValueError instead of coercing silently.  Rational values are stored
as fractions.Fraction (always in lowest terms), prime-field values as ints
in the canonical range 0..p-1.
"""

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin witnesses below 3.2e9


def _is_prime(p):
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Field:
    """The rationals (characteristic 0) or a prime field GF(p).

    Instances are interned, so fields compare (and hash) by identity as well
    as by characteristic.
    """

    _interned = {}

    def __new__(cls, characteristic=0):
        p = int(characteristic)
        cached = cls._interned.get(p)
        if cached is not None:
            return cached
        if p != 0:
            if p >= 2**31:
                raise ValueError("prime field characteristic too large: %d" % p)
            if not _is_prime(p):
                raise ValueError("field characteristic must be 0 or a prime, got %d" % p)
        self = object.__new__(cls)
        self.characteristic = p
        self._zero = None
        self._one = None
        cls._interned[p] = self
        return self

    @classmethod
    def rationals(cls):
        return cls(0)

    @classmethod
    def prime(cls, p):
        if p == 0:
            raise ValueError("prime field needs a prime, got 0")
        return cls(p)

    @classmethod
    def from_token(cls, token):
        """Parse a field token: "q" for the rationals, "f<p>" for GF(p)."""
        t = token.strip().lower()
        if t == "q":
            return cls.rationals()
        if t.startswith("f") and t[1:].isdigit():
            return cls.prime(int(t[1:]))
        raise ValueError("unknown field token %r (expected 'q' or 'f<p>')" % token)

    @property
    def is_rationals(self):
        return self.characteristic == 0

    @property
    def token(self):
        return "q" if self.characteristic == 0 else "f%d" % self.characteristic

    @property
    def zero(self):
        if self._zero is None:
            self._zero = self.scalar(0)
        return self._zero

    @property
    def one(self):
        if self._one is None:
            self._one = self.scalar(1)
        return self._one

    def scalar(self, x):
        """Coerce x (int, Fraction, digit string, or same-field scalar)."""
        if isinstance(x, FieldScalar):
            if x.field is not self:
                raise ValueError("scalar from %s used in %s" % (x.field, self))
            return x
        p = self.characteristic
        if isinstance(x, bool):
            x = int(x)
        if isinstance(x, int):
            return FieldScalar(self, x % p if p else Fraction(x))
        if isinstance(x, Fraction):
            if p == 0:
                return FieldScalar(self, x)
            den = x.denominator % p
            if den == 0:
                raise ZeroDivisionError("denominator %d is 0 in GF(%d)" % (x.denominator, p))
            return FieldScalar(self, x.numerator * pow(den, p - 2, p) % p)
        if isinstance(x, str):
            return self.from_str(x)
        raise TypeError("cannot make a %s scalar from %r" % (self, x))

    def from_str(self, s):
        """Parse canonical scalar text: 'a/b' or integer over Q, residue over GF(p)."""
        try:
            return self.scalar(Fraction(s.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, ZeroDivisionError):
                raise
            raise ValueError("bad scalar literal %r for %s" % (s, self)) from None

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else "GF(%d)" % self.characteristic

    def __reduce__(self):
        return (Field, (self.characteristic,))


class FieldScalar:
    """A single field element; supports +, -, *, / against same-field scalars
    and plain ints (ints are coerced into the scalar's own field).  Against
    an int or a Fraction, == compares the stored value (0..p-1 over GF(p))
    with that number exactly, so GF(5)(1) != 6 and equal objects hash alike."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, FieldScalar):
            if other.field is not self.field:
                raise ValueError("mixed fields: %s and %s" % (self.field, other.field))
            return other.value
        if isinstance(other, int):
            p = self.field.characteristic
            return other % p if p else Fraction(other)
        if isinstance(other, Fraction) and self.field.is_rationals:
            return other
        return None

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.characteristic
        s = self.value + v
        return FieldScalar(self.field, s % p if p else s)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.characteristic
        s = self.value - v
        return FieldScalar(self.field, s % p if p else s)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.characteristic
        s = v - self.value
        return FieldScalar(self.field, s % p if p else s)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.characteristic
        s = self.value * v
        return FieldScalar(self.field, s % p if p else s)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        p = self.field.characteristic
        if p == 0:
            if v == 0:
                raise ZeroDivisionError("division by zero in QQ")
            return FieldScalar(self.field, self.value / v)
        if v % p == 0:
            raise ZeroDivisionError("division by zero in GF(%d)" % p)
        return FieldScalar(self.field, self.value * pow(v, p - 2, p) % p)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return FieldScalar(self.field, v) / self

    def __neg__(self):
        p = self.field.characteristic
        return FieldScalar(self.field, -self.value % p if p else -self.value)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        p = self.field.characteristic
        if k < 0:
            return self.field.one / self ** (-k)
        if p:
            return FieldScalar(self.field, pow(self.value, k, p))
        return FieldScalar(self.field, self.value**k)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, FieldScalar):
            return other.field is self.field and other.value == self.value
        if isinstance(other, (int, Fraction)):
            # the stored value itself, not other mapped into the field, so
            # that equal objects hash alike
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return "%s(%s)" % (self.field, self.value)
