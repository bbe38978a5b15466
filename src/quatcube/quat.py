"""Exact arithmetic in integer quaternion rings with i**2 = -a, j**2 = -b.

The ring is spanned by 1, i, j, k over the integers, with defining
relations i**2 = -a, j**2 = -b and ij = -ji = k, where a and b are
positive integers.  From these, k**2 = -ab and the remaining basis
products follow: ik = -a*j, ki = a*j, jk = b*i, kj = -b*i.  With
a = b = 1 this is the ring of Lipschitz quaternions.

Coefficients are plain Python ints, so all arithmetic is exact at every
magnitude.  Values are immutable; every function here is pure and safe
to call from any number of threads.

The package's value types are plain frozen slotted classes on one small
base, :class:`_Frozen`, here: it gives field-wise ``==``, ``hash`` and
``repr`` (the text a frozen dataclass would print), raises
``dataclasses.FrozenInstanceError`` on assignment and deletion, and
pickles and copies through ``__reduce__``.  ``dataclasses`` is imported
only where that error is raised, so importing the package loads neither
it nor the ``inspect``, ``ast``, ``dis`` and ``tokenize`` modules it
pulls in.

The closed form of a cube lives in two places only, both here:
:func:`cube_coeffs` cubes one coefficient tuple, and :func:`cube_sum`
sums the cubes of many.  The test suite pins the two equal, and both to
the direct product.  (The search's packed build of its cube groups is
the one other place that spells the form out, for the cube's pure part
alone, and the search inverts it twice: ``_SearchSpace.least_root``
reads the least box root of a cube from the cube's reduced norm, and
``_SearchSpace.pure_roots`` every box root of a pure part from its gcd.)

The mirror map onto the ring with a and b exchanged is spelled once, by
:func:`_swap` on coefficients: :func:`swap_iso` applies it to a
``Quaternion``, and the decomposer and its lemma check call it directly,
so the tests of ``swap_iso`` certify the map they use.

:func:`coeffs_text` writes text from the coefficients' decimal strings,
so the CLI prints its JSON payload's strings with no round trip through int.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import MixedRings

Coeffs = tuple[int, int, int, int]

# sets a field past a value type's frozen __setattr__
_set = object.__setattr__


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields, its ``__init__`` arguments in order, as
    ``__match_args__`` (and, for a value type, as ``__slots__`` too),
    and its ``__init__`` sets its slots with ``_set``.  Equality,
    ``hash`` and ``repr`` go field by field, and only an instance of the
    same class compares equal.  ``__reduce__`` rebuilds an instance
    through ``__init__`` from its fields, which ``pickle``, ``copy`` and
    ``deepcopy`` use.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return (self.__class__, self._values())


class RingParams(_Frozen):
    """The pair (a, b) of positive integers fixing the defining relations."""

    __slots__ = __match_args__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        for v in (a, b):
            if isinstance(v, bool) or not isinstance(v, int):
                raise TypeError(f"ring parameters must be ints, got {v!r}")
        if a < 1 or b < 1:
            raise ValueError(f"ring parameters must be positive integers, got ({a}, {b})")
        _set(self, "a", a)
        _set(self, "b", b)


class Quaternion(_Frozen):
    """An element c0 + c1*i + c2*j + c3*k bound to its ring parameters.

    Mixing elements of different rings in one operation raises
    :class:`MixedRings`: the parameters change the multiplication table,
    so implicit coercion would silently compute in the wrong ring.  Plain
    ints mix freely as scalars, which are central in every ring.
    """

    __slots__ = __match_args__ = ("params", "c0", "c1", "c2", "c3")

    def __init__(self, params: RingParams, c0: int, c1: int, c2: int, c3: int) -> None:
        _set(self, "params", params)
        _set(self, "c0", c0)
        _set(self, "c1", c1)
        _set(self, "c2", c2)
        _set(self, "c3", c3)

    @classmethod
    def scalar(cls, params: RingParams, n: int) -> "Quaternion":
        return cls(params, n, 0, 0, 0)

    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.c0, self.c1, self.c2, self.c3)

    def imaginary(self) -> tuple[int, int, int]:
        """Coefficients of i, j, k (the pure part)."""
        return (self.c1, self.c2, self.c3)

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
        # str() of a coefficient past sys.get_int_max_str_digits() raises ValueError
        return coeffs_text(map(str, self.coefficients()))

    def __repr__(self) -> str:
        return f"Quaternion(({self.params.a},{self.params.b}); {self})"


def coeffs_text(c: Iterable[str]) -> str:
    """The decimal strings of c0, c1, c2, c3 as the text of
    c0 + c1*i + c2*j + c3*k, e.g. "3-i+2k"; "0" when all are "0"."""
    out = ""
    for s, unit in zip(c, ("", "i", "j", "k")):
        if s != "0":
            sign, mag = ("-", s[1:]) if s[0] == "-" else ("+" if out else "", s)
            out += sign + (unit if mag == "1" and unit else mag + unit)
    return out or "0"


def cube_coeffs(a: int, b: int, c: Coeffs) -> Coeffs:
    """The cube of c0 + c1*i + c2*j + c3*k in the ring (a, b), on coefficients.

    With P = a*c1**2 + b*c2**2 + a*b*c3**2, the norm form of the pure part
    v = c1*i + c2*j + c3*k (so v*v == -P),

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


def _swap(c: Coeffs) -> Coeffs:
    # swap_iso on coefficients; it is its own inverse
    return (c[0], c[2], c[1], -c[3])


def swap_iso(x: Quaternion) -> Quaternion:
    """The ring isomorphism onto the mirror ring with (a, b) exchanged.

    Sends i to j', j to i' and k to -k', i.e. on coefficients
    (c0, c1, c2, c3) -> (c0, c2, c1, -c3), the map :func:`_swap`.  It is
    multiplicative, and applying it twice returns the original element.
    """
    return Quaternion(RingParams(x.params.b, x.params.a), *_swap(x.coefficients()))
