"""Exact arithmetic over the Gaussian integers Z[i].

Every amplitude, eigenvalue and probability in this package is built on
this ring, so all checks downstream are equality tests, never tolerance
comparisons.  Irrational normalisations are never materialised: states
carry integer amplitudes plus an integer squared norm, and probabilities
are `fractions.Fraction` values over that norm.

The unit group {1, i, -1, -i} is handled as exponents t meaning i**t.
These "phase exponents" form Z4 under addition and are passed around as
plain ints reduced mod 4.
"""

from __future__ import annotations

#: Rendering of the four unit phases i**t for t = 0..3.
PHASE_STRINGS = ("1", "i", "-1", "-i")

_PHASE_FROM_STRING = {s: t for t, s in enumerate(PHASE_STRINGS)}
_PHASE_FROM_STRING["+1"] = 0
_PHASE_FROM_STRING["+i"] = 1


def phase_str(t: int) -> str:
    """Render i**t as one of 1, i, -1, -i."""
    return PHASE_STRINGS[t % 4]


def parse_phase(text: str) -> int:
    """Inverse of :func:`phase_str`; also accepts +1 and +i."""
    try:
        return _PHASE_FROM_STRING[text.strip()]
    except KeyError:
        raise ValueError(f"not a fourth root of unity: {text!r}") from None


class GaussInt:
    """A Gaussian integer re + im*i, immutable by convention.

    Python integers are arbitrary precision, so ring operations cannot
    overflow; amplitudes in this package stay single-digit anyway.
    Values compare and hash by (re, im): states compare amplitude dicts,
    and the eigenword scan memo is keyed on frozensets of amplitudes.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int) -> None:
        self.re = re
        self.im = im

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaussInt:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussInt(re={self.re}, im={self.im})"

    def __add__(self, other: GaussInt) -> GaussInt:
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussInt) -> GaussInt:
        return GaussInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussInt:
        return GaussInt(-self.re, -self.im)

    def __mul__(self, other: GaussInt) -> GaussInt:
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> GaussInt:
        return GaussInt(self.re, -self.im)

    def norm_sq(self) -> int:
        """|z|**2 = re**2 + im**2, an ordinary integer."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def times_phase(self, t: int) -> GaussInt:
        """Multiply by i**t without constructing the unit."""
        t %= 4
        if t == 0:
            return self
        if t == 1:
            return GaussInt(-self.im, self.re)
        if t == 2:
            return GaussInt(-self.re, -self.im)
        return GaussInt(self.im, -self.re)

    def as_phase(self) -> int | None:
        """Return t with self == i**t, or None if self is not a unit.

        The only Gaussian integers of squared norm 1 are the four units,
        so this doubles as the unit test.
        """
        if self.re == 1 and self.im == 0:
            return 0
        if self.re == 0 and self.im == 1:
            return 1
        if self.re == -1 and self.im == 0:
            return 2
        if self.re == 0 and self.im == -1:
            return 3
        return None

    @staticmethod
    def from_phase(t: int) -> GaussInt:
        """The unit i**t."""
        return _UNITS[t % 4]

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return {1: "i", -1: "-i"}.get(self.im, f"{self.im}i")
        im = {1: "+i", -1: "-i"}.get(self.im, f"{self.im:+}i")
        return f"{self.re}{im}"


ZERO = GaussInt(0, 0)
ONE = GaussInt(1, 0)
IMAG = GaussInt(0, 1)

_UNITS = (ONE, IMAG, GaussInt(-1, 0), GaussInt(0, -1))
