"""Exact sums of rational multiples of integer square roots.

A value is a finite map {square-free radicand s: rational coefficient c}
denoting sum(c * sqrt(s)).  Square roots of distinct square-free integers are
linearly independent over the rationals, so the canonical map makes equality
testing exact: two values are equal iff their term maps are identical.  The
rational part of a value lives under radicand 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .rings import _prime_factors


@lru_cache(maxsize=None)
def radical_normalize(m: int) -> tuple[int, int]:
    """Write sqrt(m) = c*sqrt(s) with s square-free; returns (c, s).

    Read off the exact prime factorization m = prod p^e (rings._prime_factors):
    c = prod p^(e // 2) and s = prod p^(e % 2).  Raises ValueError when that
    factorization needs a primality proof beyond rings.PSI_13, or more than
    rings.RHO_STEPS rho squarings on one cofactor.
    """
    if m < 1:
        raise ValueError(f"radicand must be positive, got {m}")
    c, s = 1, 1
    for p, e in _prime_factors(m).items():
        c *= p ** (e // 2)
        if e & 1:
            s *= p
    return c, s


class RadicalSum:
    """Immutable exact value sum(c * sqrt(s)); supports +, -, *, ==.

    The constructor accepts any {radicand: coefficient} mapping: radicands
    are normalized to square-free form, like terms merged, zero coefficients
    dropped.  The empty sum is zero.
    """

    def __init__(self, terms=None):
        tidy: dict[int, Fraction] = {}
        if terms:
            for s, c in terms.items():
                c = Fraction(c)
                if not c:
                    continue
                cc, ss = radical_normalize(s)
                acc = tidy.get(ss, _ZERO) + c * cc
                if acc:
                    tidy[ss] = acc
                elif ss in tidy:
                    del tidy[ss]
        self._terms = tidy

    @classmethod
    def from_rational(cls, value) -> "RadicalSum":
        return cls({1: Fraction(value)})

    @classmethod
    def sqrt(cls, m: int) -> "RadicalSum":
        """The exact value sqrt(m) for integer m >= 0."""
        if m < 0:
            raise ValueError(f"radicand must be nonnegative, got {m}")
        if m == 0:
            return cls()
        return cls({m: 1})

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """(radicand, coefficient) pairs, radicands ascending."""
        return tuple((s, self._terms[s]) for s in sorted(self._terms))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if any irrational term remains."""
        extra = [s for s in self._terms if s != 1]
        if extra:
            raise ValueError(f"irrational radicands {extra} present")
        return self._terms.get(1, _ZERO)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for s, c in other._terms.items():
            acc = out.get(s, _ZERO) + c
            if acc:
                out[s] = acc
            elif s in out:
                del out[s]
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({s: -c for s, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RadicalSum()
            return _wrap({s: c * other for s, c in self._terms.items()})
        if isinstance(other, RadicalSum):
            out: dict[int, Fraction] = {}
            for s1, c1 in self._terms.items():
                for s2, c2 in other._terms.items():
                    g = math.gcd(s1, s2)
                    s = (s1 // g) * (s2 // g)
                    acc = out.get(s, _ZERO) + c1 * c2 * g
                    if acc:
                        out[s] = acc
                    elif s in out:
                        del out[s]
            return _wrap(out)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RadicalSum.from_rational(other)
        if not isinstance(other, RadicalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def to_float(self) -> float:
        """Double-precision evaluation; off by at most a few ulp per term."""
        return sum(float(self._terms[s]) * math.sqrt(s) for s in sorted(self._terms))

    def render(self) -> str:
        """Canonical text: terms ascending by radicand, each c*sqrt(s), the
        radicand-1 term printed as a bare rational, '0' when empty."""
        if not self._terms:
            return "0"
        parts = []
        for s in sorted(self._terms):
            c = self._terms[s]
            parts.append(str(c) if s == 1 else f"{c}*sqrt({s})")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "RadicalSum":
        """Exact inverse of render on canonical text."""
        t = text.strip()
        if t == "0":
            return cls()
        terms: dict[int, Fraction] = {}
        for token in t.split(" + "):
            token = token.strip()
            if "*sqrt(" in token:
                coeff_text, rest = token.split("*sqrt(", 1)
                if not rest.endswith(")"):
                    raise ValueError(f"malformed radical term {token!r}")
                s = int(rest[:-1])
                if s < 2 or radical_normalize(s)[0] != 1:
                    raise ValueError(f"radicand {s} not square-free and > 1")
                c = Fraction(coeff_text)
            else:
                s = 1
                c = Fraction(token)
            if c == 0:
                raise ValueError("zero coefficient in canonical text")
            if s in terms:
                raise ValueError(f"duplicate radicand {s}")
            terms[s] = c
        return cls(terms)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RadicalSum({self.render()!r})"


_ZERO = Fraction(0)


def _coerce(value):
    if isinstance(value, RadicalSum):
        return value
    if isinstance(value, (int, Fraction)):
        return RadicalSum.from_rational(value)
    return None


def _wrap(terms: dict[int, Fraction]) -> RadicalSum:
    # Internal fast path: terms already canonical.
    out = RadicalSum.__new__(RadicalSum)
    out._terms = terms
    return out


def rational_sqrt(value) -> RadicalSum:
    """Exact square root of a nonnegative rational: sqrt(n/d) = sqrt(n*d)/d."""
    v = Fraction(value)
    if v < 0:
        raise ValueError(f"cannot take the square root of {v}")
    if v == 0:
        return RadicalSum()
    c, s = radical_normalize(v.numerator * v.denominator)
    return RadicalSum({s: Fraction(c, v.denominator)})
