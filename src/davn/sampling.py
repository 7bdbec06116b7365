"""Seeded empirical sampling of the exact joint-Z distribution.

The generator is pinned, not just the seed: draws come from Python's
Mersenne Twister via ``random.Random(seed).randrange(norm_sq)`` and are
mapped to outcomes through the cumulative integer weights |amp|**2 in
lexicographic outcome order.  The identifier below is recorded in every
summary so a reproduction knows exactly what to re-run.

For ``norm_sq < 256`` (every state the CLI samples) the draws are not
made one by one: they are tallied from raw generator bytes, with the
same counts, because CPython's generator guarantees three facts.

* ``randrange(n)`` repeats ``getrandbits(k)`` until the value is below
  ``n``, where ``k = n.bit_length()``.
* For ``k <= 32`` each ``getrandbits(k)`` returns the top ``k`` bits of
  one 32-bit Mersenne Twister output.
* ``getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]`` is the top byte
  of each of the next ``m`` outputs, in order.

So a top byte ``t`` is the draw ``t >> (8 - k)``, rejected when that is
``norm_sq`` or more.  The per-draw ``randrange`` loop is kept for larger
norms and is the reference the tests compare the tally against.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction

from .pauli import BasisKet
from .states import StateVector

GENERATOR_ID = "mt19937-randrange-cdf/1"

#: Most generator outputs read per block of the byte tally, so memory
#: stays bounded whatever the number of runs.
_BLOCK = 1 << 20


class SampleSummary:
    """Counts of sampled outcomes plus the reproduction parameters.

    Summaries compare equal when every field does, so two runs can be
    checked for reproducibility.
    """

    __slots__ = ("seed", "runs", "generator", "counts", "max_abs_deviation")

    def __init__(
        self,
        seed: int,
        runs: int,
        generator: str,
        counts: dict[BasisKet, int],
        max_abs_deviation: Fraction,
    ) -> None:
        self.seed = seed
        self.runs = runs
        self.generator = generator
        self.counts = counts
        self.max_abs_deviation = max_abs_deviation

    def _fields(self) -> tuple:
        return (
            self.seed, self.runs, self.generator, self.counts,
            self.max_abs_deviation,
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SampleSummary:
            return NotImplemented
        return self._fields() == other._fields()

    def total(self) -> int:
        return sum(self.counts.values())


def sample_outcomes(state: StateVector, runs: int, seed: int) -> SampleSummary:
    """Draw ``runs`` joint-Z outcomes from the exact distribution.

    Identical (state, runs, seed) triples give identical summaries.
    Counts cover the whole support, including outcomes never drawn.
    """
    if runs <= 0:
        raise ValueError("runs must be a positive integer")
    if state.norm_sq <= 0:
        raise ValueError("cannot sample a state of zero norm")
    outcomes = state.support()
    boundaries = []
    acc = 0
    for ket in outcomes:
        acc += state.amplitude(ket).norm_sq()
        boundaries.append(acc)
    rng = random.Random(seed)
    if state.norm_sq < 256:
        tally = _tally_top_bytes(rng, state.norm_sq, boundaries, runs)
    else:
        tally = [0] * len(outcomes)
        for _ in range(runs):
            tally[bisect_right(boundaries, rng.randrange(state.norm_sq))] += 1
    counts = dict(zip(outcomes, tally))
    max_dev = max(
        abs(
            Fraction(counts[ket])
            - Fraction(runs * state.amplitude(ket).norm_sq(), state.norm_sq)
        )
        for ket in outcomes
    )
    return SampleSummary(seed, runs, GENERATOR_ID, counts, max_dev)


def _tally_top_bytes(
    rng: random.Random, norm_sq: int, boundaries: list[int], runs: int
) -> list[int]:
    """Outcome counts of ``runs`` draws ``rng.randrange(norm_sq)``.

    Valid for ``0 < norm_sq < 256`` only; the module docstring says why
    the counts equal those of the per-draw loop.
    """
    shift = 8 - norm_sq.bit_length()
    outcome_of = bytes(bisect_right(boundaries, t >> shift) for t in range(256))
    rejected = bytes(t for t in range(256) if t >> shift >= norm_sq)
    tally = [0] * len(boundaries)
    while runs > 0:
        # At most one draw per output, so a block never overshoots ``runs``.
        words = min(_BLOCK, runs)
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        drawn = top.translate(outcome_of, rejected)
        runs -= len(drawn)
        for index in range(len(tally)):
            tally[index] += drawn.count(index)
    return tally
