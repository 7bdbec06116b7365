"""Seeded empirical sampling of the exact joint-Z distribution.

The generator is pinned, not just the seed: draws come from Python's
Mersenne Twister via ``random.Random(seed).randrange(n)`` over the ``n``
supported outcomes in lexicographic order.  Every amplitude is a unit,
so each outcome weighs 1 and the draw is the outcome's index.  The
identifier below is recorded in every summary so a reproduction knows
exactly what to re-run.

For ``n < 256`` (every state the CLI samples) the draws are not made
one by one: they are tallied from raw generator words, with the same
counts, because CPython's generator guarantees three facts.

* ``randrange(n)`` repeats ``getrandbits(k)`` until the value is below
  ``n``, where ``k = n.bit_length()``.
* For ``k <= 32`` each ``getrandbits(k)`` returns the top ``k`` bits of
  one 32-bit Mersenne Twister output.
* ``raw = getrandbits(32 * w).to_bytes(4 * w, "little")`` holds the next
  ``w`` outputs in order, so ``raw[4*m + 3::32]`` is the top byte of
  outputs ``m``, ``m + 8``, ``m + 16``, ...

So a top byte ``t`` is the draw ``t >> (8 - k)``, rejected when that is
``n`` or more.  The per-draw ``randrange`` loop serves ``n >= 256``.

The draws are counted by bit planes rather than by one pass per
outcome.  Plane ``b`` is a Python int whose bit ``i`` is bit ``b`` of
the ``i``-th draw, built from the eight lanes, and a walk down the
binary trie of draw prefixes, top bit first, splits each prefix's set
of draws with one ``&`` per plane.  Prefixes that no draw below ``n``
starts with are dropped, rejected draws with them, and
``int.bit_count`` of each leaf is one outcome's count.  A block costs
about ``log2(n)`` passes over its top bytes and ``n`` popcounts of ints
of a bit per output, instead of ``n`` passes.
"""

from __future__ import annotations

import random

from .states import BasisKet, StateVector

GENERATOR_ID = "mt19937-randrange-cdf/1"

#: Most generator outputs read per block of the tally, so memory stays
#: bounded, and few enough that a block's three 256 KiB buffers (words,
#: int, bytes) stay in a 2 MiB L2 cache while it is tallied; 2**17 and
#: 2**18 words time alike but fault in more pages.
_BLOCK = 1 << 16


class SampleSummary:
    """Counts of sampled outcomes plus the reproduction parameters.

    ``max_abs_deviation`` is the largest ``|count - runs / n|`` over the
    ``n`` outcomes, as the pair ``(max |n * count - runs|, n)``.
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
        max_abs_deviation: tuple[int, int],
    ) -> None:
        self.seed = seed
        self.runs = runs
        self.generator = generator
        self.counts = counts
        self.max_abs_deviation = max_abs_deviation

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

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
    outcomes = state.support()
    n = len(outcomes)
    rng = random.Random(seed)
    if n < 256:
        tally = _tally_top_bytes(rng, n, runs)
    else:
        tally = [0] * n
        for _ in range(runs):
            tally[rng.randrange(n)] += 1
    max_dev = max(abs(n * count - runs) for count in tally)
    return SampleSummary(
        seed, runs, GENERATOR_ID, dict(zip(outcomes, tally)), (max_dev, n)
    )


def _tally_top_bytes(rng: random.Random, n: int, runs: int) -> list[int]:
    """Counts of each draw ``rng.randrange(n)`` over ``runs`` draws.

    Valid for ``0 < n < 256`` only; the module docstring says why the
    counts equal those of the per-draw loop.
    """
    tally = [0] * n
    # The first block is the largest; its masks serve every later one.
    masks = _lane_masks(min(_BLOCK, runs))
    while runs > 0:
        # At most one draw per output, so a block never overshoots ``runs``.
        words = min(_BLOCK, runs)
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        for index, count in enumerate(_count_draws(raw, n, masks)):
            tally[index] += count
            runs -= count
    return tally


def _lane_masks(words: int) -> list[int]:
    """Mask ``j`` has bits ``j, j + 8, ...``, enough for ``words`` words."""
    low = int.from_bytes(b"\1" * (words + 7 >> 3), "little")
    return [low << j for j in range(15)]


def _count_draws(raw: bytes, n: int, masks: list[int]) -> list[int]:
    """Counts of each draw below ``n`` from the 32-bit words of ``raw``."""
    bits = n.bit_length()
    # Lane m is the top bytes of words m, m + 8, ... as an int, shifted
    # left by m: bit c of word i's top byte sits at bit i + c, and
    # masks[m + c] picks it out.
    lanes = [int.from_bytes(raw[4 * m + 3::32], "little") << m for m in range(8)]
    planes = []  # bit i of planes[b] is bit b of word i's draw
    for c in range(8 - bits, 8):
        plane = 0
        for m, lane in enumerate(lanes):
            plane |= lane & masks[m + c]
        planes.append(plane >> c)
    counts = []

    def split(draws: int, b: int, prefix: int) -> None:
        # ``draws`` marks the words whose draw bits above b spell ``prefix``.
        if b < 0:
            counts.append(draws.bit_count())
            return
        one = draws & planes[b]
        split(draws ^ one, b - 1, 2 * prefix)
        if (2 * prefix + 1) << b < n:
            split(one, b - 1, 2 * prefix + 1)

    # Depth first, so only a few ints of a bit per word are alive at once.
    split((1 << (len(raw) >> 2)) - 1, bits - 1, 0)
    return counts
