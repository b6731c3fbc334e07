"""The noise streams of many shots at once.

`Streams(seed, shots)` holds, as arrays, the PCG64 state of
`np.random.default_rng((seed, i))` for every shot index i in `shots`; the
seed is one int for every row, or each row's own seed given by its words
(`seed_words`), so rows of several seeds share one `Streams`.
`next(rows)` advances only the streams in `rows` (every row, an index of
rows, or a slice of them, stepped through views) by one raw 64-bit word,
bit for bit, and returns those words.  `doubles` gives the doubles that
`random()` makes of them, the top 53 bits times 2**-53.  `integers(3)`
instead takes a 32-bit half: the low half of a fresh word, whose high half
numpy buffers for the next such call, even across `random()` calls.
`below_three` maps a 32-bit x to (3*x) >> 32, Lemire's bounded-integer
method ("Fast random integer generation in an interval", ACM TOMACS 29(1),
2019) as numpy runs it; numpy rejects x when the low 32 bits of 3*x lie
below (2**32 - 3) % 3 = 1, and since 3 is odd only x = 0 does that.

`Streams` runs numpy's `SeedSequence` (entropy words, hashmix/mix pool,
`generate_state`), the PCG64 seeding (`srandom`) and PCG64's XSL-RR
output on arrays of unsigned integers.  Both are fixed, published integer
algorithms (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation",
HMC-CS-2014-0905).  Integer arrays wrap silently, which is the modular
arithmetic both algorithms are written in.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
#: the most shots one seed can give: shot indices are the 32-bit words 0 to 2**32 - 1
MAX_SHOTS = 2**32
# SeedSequence constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
# the PCG64 multiplier, as (high, low) 64-bit limbs and the low limb's 32-bit halves
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO1, _MULT_LO0 = _MULT_LO >> np.uint64(32), _MULT_LO & np.uint64(_MASK32)


def _words(value: int) -> list[int]:
    """The uint32 entropy words of a non-negative int, least significant first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def seed_words(seeds) -> np.ndarray:
    """The entropy words of non-negative int seeds of one word count.

    Column j of the (words, len(seeds)) uint32 array holds the words of
    `seeds[j]`, least significant first.  Seeds of different word counts
    seed their streams from entropy of different lengths, so they are
    refused here rather than mixed.
    """
    if any(seed < 0 for seed in seeds):
        raise ValueError("seeds must be >= 0")
    columns = [_words(int(seed)) for seed in seeds]
    if len({len(column) for column in columns}) > 1:
        raise ValueError("seeds of different word counts cannot share one Streams")
    return np.array(columns, dtype=np.uint32).T


class _Hash:
    """SeedSequence's hashmix, whose multiplier advances on every call."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> np.uint32(16))


def _seed_state(words: np.ndarray, shots: np.ndarray) -> list[np.ndarray]:
    """generate_state(4, uint64) of SeedSequence((seed, i)), one array per word.

    The entropy is the words of each row's seed, `words[:, row]` (one
    column for every row, or one column shared by all), followed by the one
    word of i.
    """
    entropy = [np.broadcast_to(w, shots.shape) for w in words]
    entropy.append(shots.astype(np.uint32))
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(len(shots), dtype=np.uint32)
    pool = [hashmix(entropy[j] if j < len(entropy) else zero) for j in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:  # entropy longer than the pool
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _Hash(_INIT_B, _MULT_B)
    # pool words cycle; 32-bit words pair little-endian into 64-bit ones
    halves = [hashmix(pool[j % _POOL_SIZE]).astype(np.uint64) for j in range(8)]
    return [halves[2 * j] | halves[2 * j + 1] << np.uint64(32) for j in range(4)]


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step of the 128-bit state (hi, lo): state * multiplier + inc."""
    m32 = np.uint64(_MASK32)
    lo0, lo1 = lo & m32, lo >> np.uint64(32)
    # the high 64 bits of lo * _MULT_LO, from 32-bit partial products
    p00, p01, p10 = lo0 * _MULT_LO0, lo0 * _MULT_LO1, lo1 * _MULT_LO0
    mid = (p00 >> np.uint64(32)) + (p01 & m32) + (p10 & m32)
    carry_hi = (lo1 * _MULT_LO1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
                + (mid >> np.uint64(32)))
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = carry_hi + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


class Streams:
    """The PCG64 streams of `np.random.default_rng((seed, i))` for each i in `shots`.

    `seed` is an int for every row, or the `seed_words` of each row's seed.
    """

    def __init__(self, seed, shots):
        shots = np.asarray(shots, dtype=np.int64)
        if shots.size and (shots.min() < 0 or shots.max() >= MAX_SHOTS):
            raise ValueError("shot indices must be >= 0 and below 2**32")
        words = seed if isinstance(seed, np.ndarray) else seed_words([seed])
        s_hi, s_lo, i_hi, i_lo = _seed_state(words, shots)
        one = np.uint64(1)
        self._inc_hi = i_hi << one | i_lo >> np.uint64(63)
        self._inc_lo = i_lo << one | one
        # srandom: state = inc; state += seed; step
        lo = self._inc_lo + s_lo
        self._hi, self._lo = _step(self._inc_hi + s_hi + (lo < s_lo), lo,
                                   self._inc_hi, self._inc_lo)

    def next(self, rows=None) -> np.ndarray:
        """Advance the streams in `rows` by one step; their raw 64-bit words.

        `rows` is None or `...` for every row, else an index of the rows or
        a slice of them, whose states are stepped through views.
        """
        if rows is None or rows is Ellipsis:
            hi, lo = self._hi, self._lo = _step(self._hi, self._lo, self._inc_hi, self._inc_lo)
        else:
            hi, lo = _step(self._hi[rows], self._lo[rows], self._inc_hi[rows], self._inc_lo[rows])
            self._hi[rows], self._lo[rows] = hi, lo
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        return x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))


def doubles(raw: np.ndarray) -> np.ndarray:
    """`random()`'s doubles from raw words: the top 53 bits times 2**-53."""
    return (raw >> np.uint64(11)) * 2.0**-53


def below_three(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`integers(3)` of 32-bit values x: ((3*x) >> 32, where x rejects).

    Only x = 0 rejects (see the module docstring); numpy then draws a
    further 32-bit value, which the sampler does (`noise._integers3`).
    """
    half = half.astype(np.uint64)
    return (half * np.uint64(3)) >> np.uint64(32), half == 0
