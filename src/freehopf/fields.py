"""Exact coefficients over the rationals and over prime fields GF(p).

A coefficient is a plain value that its field owns: a fractions.Fraction
(always in lowest terms) over the rationals, an int in 0..p-1 over GF(p).
Field.scalar is the one coercion into those values and Field.inv the one
inverse; sums and products are linalg.combine with the field's
characteristic, which reduces mod p.  Values carry no field tag, so a
mixed-field sum is caught where elements meet their algebra
(FreeHopfAlgebra._check).
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
        self.zero = self.scalar(0)
        self.one = self.scalar(1)
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

    def scalar(self, x):
        """Coerce x (int, Fraction or scalar text) to a value of the field."""
        p = self.characteristic
        if isinstance(x, int):
            return x % p if p else Fraction(x)
        if isinstance(x, Fraction):
            if p == 0:
                return x
            if x.denominator % p == 0:
                raise ZeroDivisionError("denominator %d is 0 in GF(%d)" % (x.denominator, p))
            return x.numerator * self.inv(x.denominator) % p
        if isinstance(x, str):
            return self.from_str(x)
        raise TypeError("cannot make a %s scalar from %r" % (self, x))

    def inv(self, x):
        """Inverse of a nonzero value of the field (or of an int)."""
        p = self.characteristic
        if not (x % p if p else x):
            raise ZeroDivisionError("division by zero in %s" % self)
        return pow(x, p - 2, p) if p else 1 / Fraction(x)

    def from_str(self, s):
        """Parse canonical scalar text: 'a/b' or integer over Q, residue over GF(p)."""
        try:
            value = Fraction(s.strip())
        except ValueError:
            raise ValueError("bad scalar literal %r for %s" % (s, self)) from None
        return self.scalar(value)

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else "GF(%d)" % self.characteristic

    def __reduce__(self):
        return (Field, (self.characteristic,))

