"""Seeded empirical sampling of the exact joint-Z distribution.

The generator is pinned, not just the seed: draws come from Python's
Mersenne Twister via ``random.Random(seed).randrange(n)`` over the ``n``
supported outcomes in lexicographic order, mapped to outcomes through
the cumulative weights |amp|**2.  Every amplitude is a unit, so each
outcome weighs 1 and the draw is the outcome's index.  The identifier
below is recorded in every summary so a reproduction knows exactly what
to re-run.

For ``n < 256`` (every state the CLI samples) the draws are not made
one by one: they are tallied from raw generator bytes, with the same
counts, because CPython's generator guarantees three facts.

* ``randrange(n)`` repeats ``getrandbits(k)`` until the value is below
  ``n``, where ``k = n.bit_length()``.
* For ``k <= 32`` each ``getrandbits(k)`` returns the top ``k`` bits of
  one 32-bit Mersenne Twister output.
* ``getrandbits(32 * m).to_bytes(4 * m, "little")[3::4]`` is the top byte
  of each of the next ``m`` outputs, in order.

So a top byte ``t`` is the draw ``t >> (8 - k)``, rejected when that is
``n`` or more.  The per-draw ``randrange`` loop is kept for ``n >= 256``
and is the reference the tests compare the tally against.

One ``bytes.translate`` maps each top byte to its draw, which is its
outcome index, or to ``n`` when the draw is rejected; that index is
never tallied.  The indices are then counted by bit planes rather than
by one pass per outcome.  Plane ``b`` is a Python int whose bit ``i`` is
bit ``b`` of the ``i``-th index, built from the eight interleaved slices
``[m::8]`` of the index bytes, and a walk down the binary trie of index
prefixes, top bit first, splits each prefix's set of draws with one
``&`` per plane.  Prefixes that no index below ``n`` starts with are
dropped, and ``int.bit_count`` of each leaf is one outcome's count.  A
block of draws costs about ``log2(n)`` passes over its bytes and ``n``
popcounts of ints an eighth of its size, instead of ``n`` passes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .states import BasisKet, StateVector

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
    ``seed`` must be a non-negative int: ``random.Random`` seeds with the
    absolute value, so -7 would draw as 7 yet be recorded as -7, and
    ``True`` would draw as 1 yet be written as ``true``.  ``runs`` must
    be a positive int for the same reason: ``True`` would draw once yet
    be written as ``true``, and a float cannot count draws.
    """
    if type(seed) is not int or seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if type(runs) is not int or runs <= 0:
        raise ValueError("runs must be a positive integer")
    if state.is_zero():
        raise ValueError("cannot sample a state of zero norm")
    outcomes = state.support()
    n = len(outcomes)
    rng = random.Random(seed)
    if n < 256:
        tally = _tally_top_bytes(rng, n, runs)
    else:
        tally = [0] * n
        for _ in range(runs):
            tally[rng.randrange(n)] += 1
    expected = Fraction(runs, n)
    max_dev = max(abs(count - expected) for count in tally)
    return SampleSummary(
        seed, runs, GENERATOR_ID, dict(zip(outcomes, tally)), max_dev
    )


def _tally_top_bytes(rng: random.Random, n: int, runs: int) -> list[int]:
    """Counts of each draw ``rng.randrange(n)`` over ``runs`` draws.

    Valid for ``0 < n < 256`` only; the module docstring says why the
    counts equal those of the per-draw loop.
    """
    shift = 8 - n.bit_length()
    # A rejected draw, n or more, is mapped to n.
    index_of = bytes(min(t >> shift, n) for t in range(256))
    tally = [0] * n
    while runs > 0:
        # At most one draw per output, so a block never overshoots ``runs``.
        words = min(_BLOCK, runs)
        top = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        counts = _count_indices(top.translate(index_of), n)
        for index, count in enumerate(counts):
            tally[index] += count
            runs -= count
    return tally


def _count_indices(data: bytes, n: int) -> list[int]:
    """``[data.count(i) for i in range(n)]``, for bytes of at most ``n``.

    The byte ``n`` (at most 255) is a rejected draw and is not counted.
    """
    bits = n.bit_length()
    # Lane m is bytes m, m + 8, ... of data as an int, shifted left by m:
    # bit b of data[i] sits at bit i + b, and masks[m + b] picks it out.
    low = int.from_bytes(b"\1" * (len(data) + 7 >> 3), "little")
    masks = [low << j for j in range(bits + 7)]
    lanes = [int.from_bytes(data[m::8], "little") << m for m in range(8)]
    planes = []  # bit i of planes[b] is bit b of data[i]
    for b in range(bits):
        plane = 0
        for m, lane in enumerate(lanes):
            plane |= lane & masks[m + b]
        planes.append(plane >> b)
    counts = []

    def split(draws: int, b: int, prefix: int) -> None:
        # ``draws`` marks the bytes whose bits above b spell ``prefix``.
        if b < 0:
            counts.append(draws.bit_count())
            return
        one = draws & planes[b]
        split(draws ^ one, b - 1, 2 * prefix)
        if (2 * prefix + 1) << b < n:
            split(one, b - 1, 2 * prefix + 1)

    # Depth first, so only a few ints of len(data) bits are alive at once.
    split((1 << len(data)) - 1, bits - 1, 0)
    return counts
