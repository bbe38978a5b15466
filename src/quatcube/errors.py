"""Exception types shared across the package."""


class QuatcubeError(Exception):
    """Base class for all package-specific errors."""


class MixedRings(QuatcubeError):
    """An operation mixed quaternions bound to different ring parameters."""


class PreconditionViolated(QuatcubeError):
    """A documented precondition of an operation does not hold."""


class NotRepresentable(QuatcubeError):
    """The target lies outside the cube subgroup of its ring."""


class VerificationFailed(QuatcubeError):
    """A computed result failed its exact check; the result is withheld."""


class InvalidResidues(QuatcubeError):
    """A residue argument lies outside the canonical range 0..5."""


class ParseError(QuatcubeError):
    """Malformed quaternion text.  ``position`` is the 0-based index of the
    offending character in the original input string, and ``message``
    says what is wrong there; ``str()`` gives both.  It pickles and copies."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position

    def __reduce__(self):
        # Exception would pickle only args, the formatted text, which is
        # not what __init__ takes
        return type(self), (self.message, self.position), self.__dict__
