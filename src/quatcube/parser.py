"""Text form of quaternions: sign-separated integer and unit terms.

Grammar: an optional leading sign, then terms separated by ``+`` or
``-`` (the Unicode minus sign is accepted too).  A term is an integer, a
unit ``i``/``j``/``k``, or an integer immediately followed by a unit.
Whitespace is ignored everywhere.  Repeated units have their
coefficients summed, so ``-k + 2j - k`` parses to (0, 0, 2, -2).
"""

from __future__ import annotations

import re
import sys

from .errors import ParseError
from .quat import Quaternion, RingParams

# one term: an optional sign (ASCII or Unicode minus), digits, a unit
_TERM = re.compile(r"([+\-−]?)([0-9]*)([ijk]?)")
_UNIT_INDEX = {"": 0, "i": 1, "j": 2, "k": 3}


def parse_quaternion(text: str, params: RingParams) -> Quaternion:
    """Parse ``text`` into a quaternion of the given ring.

    Raises :class:`ParseError` with the 0-based position of the offending
    character in the original string.
    """
    # str.split() and str.isspace() agree on what whitespace is
    compact = "".join(text.split())

    def fail(message: str, at: int) -> None:
        positions = [idx for idx, ch in enumerate(text) if not ch.isspace()]
        raise ParseError(message, positions[at] if at < len(positions) else len(text))

    n = len(compact)
    if n == 0:
        raise ParseError("empty expression", 0)
    coeffs = [0, 0, 0, 0]
    i = 0
    while i < n:
        sign, digits, unit = (m := _TERM.match(compact, i)).groups()
        if not sign and i:
            fail("expected '+' or '-' between terms", i)
        if sign and i + 1 == n:
            fail("expected a term", n)
        if not (digits or unit):
            fail("expected a digit or one of i, j, k", i + len(sign))
        try:
            value = int(digits) if digits else 1
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            fail(
                f"integer of {len(digits)} digits exceeds the limit of "
                f"{sys.get_int_max_str_digits()} digits",
                i + len(sign),
            )
        coeffs[_UNIT_INDEX[unit]] += -value if sign and sign != "+" else value
        i = m.end()
    return Quaternion(params, *coeffs)

