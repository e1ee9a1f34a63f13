"""Seeded deterministic randomness for reproducible corpora.

The generator is splitmix64 (the standard constants from Steele, Lea and
Vigna's public-domain reference). It is part of the reproducibility
contract: any implementation, in any language, that follows the draw
procedure documented on :class:`SplitMix64` regenerates identical random
trees and identical random leaf subsets from the same seed.
"""

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """splitmix64 stream seeded with a 64-bit integer (wider seeds are
    truncated to their low 64 bits).

    Draw procedure, normative for cross-implementation reproducibility:

    * ``next_u64``: state += 0x9E3779B97F4A7C15 (mod 2^64); then mix
      ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
      z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).
    * ``below(n)``: let ``w`` be the least word count with ``2^(64w) >= n``
      (``w = 1`` for every ``n <= 2^64``). Draw values of ``w`` consecutive
      ``next_u64`` words, the first one most significant, until the value
      is below ``(2^(64w) // n) * n``, then return ``value % n`` (rejection
      sampling, exactly uniform on ``[0, n)``).
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        # One word is a draw below 2^64: every value passes the rejection test.
        return self._below_each(1 << 64, 1)[0]

    def below(self, n: int) -> int:
        """Exactly uniform integer in [0, n)."""
        return self._below_each(n, 1)[0]

    def _below_each(self, n: int, count: int) -> list[int]:
        """`count` successive `below(n)` draws: the one draw loop, with the
        word count and the rejection limit computed once."""
        if n <= 0:
            raise ValueError("bound must be positive")
        words = range(max(1, ((n - 1).bit_length() + 63) // 64))
        limit = ((1 << 64 * len(words)) // n) * n
        state = self._state
        draws: list[int] = []
        while len(draws) < count:
            x = 0
            for _ in words:  # next_u64 words, the first one most significant
                state = (state + _GAMMA) & _MASK64
                z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
                z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
                x = x << 64 | z ^ (z >> 31)
            if x < limit:
                draws.append(x % n)
        self._state = state
        return draws

    def sample(self, items, k: int) -> list:
        """First k entries of a seeded Fisher-Yates shuffle of `items`, a
        sized sequence such as a range. Only the k swaps are made, on a dict
        of displaced slots, so the sequence is never listed."""
        # len() of a range longer than sys.maxsize raises OverflowError, so a
        # step-1 range (the level of leaves) is sized from its bounds.
        if isinstance(items, range) and items.step == 1:
            n = max(0, items.stop - items.start)
        else:
            n = len(items)
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        moved: dict[int, int] = {}  # slot -> index of the item now in it
        picked = []
        for i in range(k):
            j = i + self.below(n - i)
            picked.append(items[moved.get(j, j)])
            moved[j] = moved.pop(i, i)
        return picked

