"""Exact arithmetic in integer quaternion rings with i**2 = -a, j**2 = -b.

The ring is spanned by 1, i, j, k over the integers, with defining
relations i**2 = -a, j**2 = -b and ij = -ji = k, where a and b are
positive integers.  From these, k**2 = -ab and the remaining basis
products follow: ik = -a*j, ki = a*j, jk = b*i, kj = -b*i.  With
a = b = 1 this is the ring of Lipschitz quaternions.

Coefficients are plain Python ints, so all arithmetic is exact at every
magnitude.  Values are immutable; every function here is pure and safe
to call from any number of threads.

The closed form of a cube lives in two places only, both here:
:func:`cube_coeffs` cubes one coefficient tuple, and :func:`cube_sum`
sums the cubes of many.  The test suite pins the two equal, and both to
the direct product.  (The search's packed build of its cube groups is
the one other place that spells the form out.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import MixedRings

Coeffs = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class RingParams:
    """The pair (a, b) of positive integers fixing the defining relations."""

    a: int
    b: int

    def __post_init__(self) -> None:
        for v in (self.a, self.b):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"ring parameters must be ints, got {v!r}")
        if self.a < 1 or self.b < 1:
            raise ValueError(
                f"ring parameters must be positive integers, got ({self.a}, {self.b})"
            )

    def swapped(self) -> "RingParams":
        """Parameters of the mirror ring with the roles of a and b exchanged."""
        return RingParams(self.b, self.a)


@dataclass(frozen=True, slots=True)
class Quaternion:
    """An element c0 + c1*i + c2*j + c3*k bound to its ring parameters.

    Mixing elements of different rings in one operation raises
    :class:`MixedRings`: the parameters change the multiplication table,
    so implicit coercion would silently compute in the wrong ring.  Plain
    ints mix freely as scalars, which are central in every ring.
    """

    params: RingParams
    c0: int
    c1: int
    c2: int
    c3: int

    @classmethod
    def scalar(cls, params: RingParams, n: int) -> "Quaternion":
        return cls(params, n, 0, 0, 0)

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    def imaginary(self) -> tuple[int, int, int]:
        """Coefficients of i, j, k (the pure part)."""
        return (self.c1, self.c2, self.c3)

    def is_scalar(self) -> bool:
        return self.c1 == 0 and self.c2 == 0 and self.c3 == 0

    def _coerce(self, other: object) -> "Quaternion | None":
        if isinstance(other, Quaternion):
            if other.params != self.params:
                raise MixedRings(
                    f"cannot combine elements of rings "
                    f"({self.params.a},{self.params.b}) and "
                    f"({other.params.a},{other.params.b})"
                )
            return other
        if isinstance(other, int):
            return Quaternion(self.params, other, 0, 0, 0)
        return None

    def __add__(self, other: "Quaternion | int") -> "Quaternion":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(
            self.params, self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2, self.c3 + o.c3
        )

    def __radd__(self, other: int) -> "Quaternion":
        return self.__add__(other)

    def __sub__(self, other: "Quaternion | int") -> "Quaternion":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(
            self.params, self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2, self.c3 - o.c3
        )

    def __rsub__(self, other: int) -> "Quaternion":
        return (-self).__add__(other)

    def __neg__(self) -> "Quaternion":
        return Quaternion(self.params, -self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, other: "Quaternion | int") -> "Quaternion":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.params.a, self.params.b
        x0, x1, x2, x3 = self.c0, self.c1, self.c2, self.c3
        y0, y1, y2, y3 = o.c0, o.c1, o.c2, o.c3
        return Quaternion(
            self.params,
            x0 * y0 - a * x1 * y1 - b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 + b * (x2 * y3 - x3 * y2),
            x0 * y2 + x2 * y0 + a * (x3 * y1 - x1 * y3),
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def __rmul__(self, other: int) -> "Quaternion":
        # only reached for ints, which are central, so order is irrelevant
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __str__(self) -> str:
        return coeffs_text(self.coefficients())

    def __repr__(self) -> str:
        return f"Quaternion(({self.params.a},{self.params.b}); {self})"


def coeffs_text(c: Coeffs) -> str:
    """c0 + c1*i + c2*j + c3*k as text, e.g. "3-i+2k"; "0" when all vanish."""
    parts: list[tuple[str, str]] = []
    for value, unit in zip(c, ("", "i", "j", "k")):
        if value == 0:
            continue
        sign = "-" if value < 0 else "+"
        mag = -value if value < 0 else value
        body = unit if (mag == 1 and unit) else f"{mag}{unit}"
        parts.append((sign, body))
    if not parts:
        return "0"
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        out += sign + body
    return out


def p_value(x: Quaternion) -> int:
    """The quadratic form a*c1**2 + b*c2**2 + a*b*c3**2 of the pure part.

    Non-negative for every element, and zero exactly when the pure part
    vanishes (a and b are positive).  For a pure quaternion v one has
    v*v == -p_value(v) as a scalar.
    """
    a, b = x.params.a, x.params.b
    return a * x.c1 * x.c1 + b * x.c2 * x.c2 + a * b * x.c3 * x.c3


def cube_coeffs(a: int, b: int, c: Coeffs) -> Coeffs:
    """The cube of c0 + c1*i + c2*j + c3*k in the ring (a, b), on coefficients.

    With P = a*c1**2 + b*c2**2 + a*b*c3**2 (see :func:`p_value`),

        x**3 == (c0**2 - 3P)*c0  +  (3*c0**2 - P) * (c1*i + c2*j + c3*k)

    which agrees with the direct product x*x*x (the test suite certifies
    this identity on random inputs across rings).  Every cube in the
    package is computed here.
    """
    c0, c1, c2, c3 = c
    p = a * c1 * c1 + b * c2 * c2 + a * b * c3 * c3
    f = 3 * c0 * c0 - p
    return ((c0 * c0 - 3 * p) * c0, f * c1, f * c2, f * c3)


def cube_sum(a: int, b: int, roots: Iterable[Coeffs]) -> Coeffs:
    """The sum of the cubes of ``roots`` in the ring (a, b), on coefficients.

    The closed form of :func:`cube_coeffs`, summed in one loop; the sum of
    no roots is (0, 0, 0, 0).
    """
    ab = a * b
    s0 = s1 = s2 = s3 = 0
    for c0, c1, c2, c3 in roots:
        q = c0 * c0
        p = a * c1 * c1 + b * c2 * c2 + ab * c3 * c3
        f = 3 * q - p
        s0 += (q - 3 * p) * c0
        s1 += f * c1
        s2 += f * c2
        s3 += f * c3
    return (s0, s1, s2, s3)


def cube(x: Quaternion) -> Quaternion:
    """The cube of x, by the closed form of :func:`cube_coeffs`."""
    return Quaternion(x.params, *cube_coeffs(x.params.a, x.params.b, x.coefficients()))


def swap_iso(x: Quaternion) -> Quaternion:
    """The ring isomorphism onto the mirror ring with (a, b) exchanged.

    Sends i to j', j to i' and k to -k', i.e. on coefficients
    (c0, c1, c2, c3) -> (c0, c2, c1, -c3).  It is multiplicative, and
    applying it twice returns the original element.
    """
    return Quaternion(x.params.swapped(), x.c0, x.c2, x.c1, -x.c3)
