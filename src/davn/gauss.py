"""The phase group Z4: fourth roots of unity as exponents of i.

Every amplitude, eigenvalue and Z outcome in this package is a unit
i**t, so it is carried as its "phase exponent" t, a plain int reduced
mod 4; the group law is addition mod 4.  Probabilities are
`fractions.Fraction` values, and all checks downstream are equality
tests, never tolerance comparisons.  This module renders and parses
the four units.
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
