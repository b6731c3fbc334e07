"""The noise and measurement streams of many shots at once.

`Streams(seed, shots)` holds, as arrays, the PCG64 state of
`np.random.default_rng((seed, i))` for every shot index i in `shots`; the
seed is one int for every row, or each row's own seed given by its words
(`seed_words`), so rows of several seeds share one `Streams`.  With `shots`
None a row is seeded from its seed's words alone: `default_rng(seed)`.
`next(rows)` advances only the streams in `rows` (every row, an index of
rows, or a slice of them, stepped through views) by one raw 64-bit word,
bit for bit, and returns those words; `ahead(rows, k)` gives a slice's
next k words as one (rows, k) array.  `doubles` gives the doubles that
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
arithmetic both algorithms are written in; it runs in place where it can.
The pool is stacked, one (4, rows) array: a source word is hashed into the
other three at once, and the output words four at a time.  `ahead` jumps
(F. B. Brown, "Random number generation with arbitrary strides", 1994):
j steps take a state s to A_j*s + G_j*inc mod 2**128.  The (A_j, G_j) of
j = 1, 2, ... are one table, cached and doubled as needed
(A_(L+j) = A_j*A_L, G_(L+j) = A_j*G_L + G_j); the sampler reads at most
`noise._BLOCK_SHOTS` = 2**16 words at once, so it stays within 2 MiB.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK32 = 0xFFFFFFFF
#: the most shots one seed can give: shot indices are the 32-bit words 0 to 2**32 - 1
MAX_SHOTS = 2**32
# SeedSequence constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_OTHERS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]
# the PCG64 multiplier, as (high, low) 64-bit limbs
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


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


@lru_cache
def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first `count` + 1 constants of a hashmix, one per row: each is mult times the last."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    consts.flags.writeable = False  # shared by every caller
    return consts


_OUTPUT = _constants(_INIT_B, _MULT_B, 8)  # generate_state's hashmix of eight 32-bit words


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each row of `values` in turn: row k takes `consts[k:k + 2]`."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> np.uint32(16)
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of y into x, in place."""
    x *= _MIX_L
    x -= y * _MIX_R
    x ^= x >> np.uint32(16)
    return x


def _seed_state(words: np.ndarray, shots: np.ndarray | None = None) -> np.ndarray:
    """generate_state(4, uint64) of SeedSequence((seed, i)) for each i in `shots`, as (4, rows).

    The entropy is the words of each row's seed, `words[:, row]` (one
    column for every row, or one column shared by all), followed by the one
    word of i; with `shots` None it is each column's words alone, the
    entropy of SeedSequence(seed).
    """
    rows = words.shape[1] if shots is None else len(shots)
    entropy = np.empty((len(words) + (shots is not None), rows), dtype=np.uint32)
    entropy[:len(words)] = words
    if shots is not None:
        entropy[-1] = shots
    hashes = _constants(_INIT_A, _MULT_A, 4 * max(len(entropy), _POOL_SIZE))
    pool = np.zeros((_POOL_SIZE, rows), dtype=np.uint32)
    pool[:len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, hashes[:5])
    for src, others in enumerate(_OTHERS):  # each source mixes into the other three in turn
        k = 4 + 3 * src
        pool[others] = _mix(pool[others], _hashmix(pool[src], hashes[k:k + 4]))
    for k, word in enumerate(entropy[_POOL_SIZE:], 4):  # entropy longer than the pool
        _mix(pool, _hashmix(word, hashes[4 * k:4 * k + 5]))
    state = np.empty((4, rows), dtype=np.uint64)
    for j in (0, 2):  # the pool words cycle; 32-bit words pair little-endian into 64-bit ones
        halves = _hashmix(pool, _OUTPUT[2 * j:2 * j + 5])
        word = state[j:j + 2]
        word[...] = halves[1::2]
        word <<= np.uint64(32)
        word |= halves[0::2]
    return state


def _mul(a_hi, a_lo, b_hi, b_lo):
    """(a * b) mod 2**128 of 128-bit values given as (high, low) 64-bit limbs."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a_lo & m32, a_lo >> s32, b_lo & m32, b_lo >> s32
    # the high 64 bits of a_lo * b_lo, from 32-bit partial products
    mid = a1 * b0
    mid += (a0 * b0) >> s32
    low = a0 * b1
    low += mid & m32
    hi = a1 * b1
    hi += mid >> s32
    hi += low >> s32
    hi += a_lo * b_hi
    hi += a_hi * b_lo
    return hi, a_lo * b_lo


def _add(x_hi, x_lo, y_hi, y_lo):
    """x + y mod 2**128, added into x in place."""
    x_lo += y_lo
    x_hi += y_hi
    x_hi += x_lo < y_lo
    return x_hi, x_lo


def _step(hi, lo, inc_hi, inc_lo):
    """One LCG step of the 128-bit state (hi, lo): state * multiplier + inc."""
    return _add(*_mul(hi, lo, _MULT_HI, _MULT_LO), inc_hi, inc_lo)


#: (A_hi, A_lo, G_hi, G_lo) of j = 1, 2, ... steps (module docstring)
_jump_table = [np.array([_MULT_HI]), np.array([_MULT_LO]),
               np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.uint64)]


def _jumps(k: int) -> list[np.ndarray]:
    """(A_j, G_j) of j = 1 to k steps, the table doubled as far as k needs."""
    global _jump_table
    while len(_jump_table[0]) < k:
        a_hi, a_lo, g_hi, g_lo = _jump_table
        doubled = (*_mul(a_hi, a_lo, a_hi[-1], a_lo[-1]),
                   *_add(*_mul(a_hi, a_lo, g_hi[-1], g_lo[-1]), g_hi, g_lo))
        _jump_table = [np.concatenate(pair) for pair in zip(_jump_table, doubled)]
    return [limb[:k] for limb in _jump_table]


def _output(hi, lo):
    """PCG64's XSL-RR output of the 128-bit states (hi, lo)."""
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    return x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))


class Streams:
    """The PCG64 streams of `np.random.default_rng((seed, i))` for each i in `shots`.

    `seed` is an int for every row, or the `seed_words` of each row's seed.
    With `shots` None there is one row per seed, the stream of
    `np.random.default_rng(seed)`.
    """

    def __init__(self, seed, shots=None):
        words = seed if isinstance(seed, np.ndarray) else seed_words([seed])
        if shots is not None:
            shots = np.asarray(shots, dtype=np.int64)
            if shots.size and (shots.min() < 0 or shots.max() >= MAX_SHOTS):
                raise ValueError("shot indices must be >= 0 and below 2**32")
        s_hi, s_lo, i_hi, i_lo = _seed_state(words, shots)
        one = np.uint64(1)
        self._inc_hi = i_hi << one | i_lo >> np.uint64(63)
        self._inc_lo = i_lo << one | one
        # srandom: state = inc; state += seed; step
        self._hi, self._lo = _step(*_add(s_hi, s_lo, self._inc_hi, self._inc_lo),
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
        return _output(hi, lo)

    def ahead(self, rows: slice, k: int) -> np.ndarray:
        """The next k raw words of each stream in the slice `rows`, as a (rows, k) array.

        Word j is the stream's state jumped j + 1 steps, from the jump
        table; the streams then stand k steps on.
        """
        a_hi, a_lo, g_hi, g_lo = _jumps(k)
        hi, lo = _add(*_mul(self._hi[rows, None], self._lo[rows, None], a_hi, a_lo),
                      *_mul(self._inc_hi[rows, None], self._inc_lo[rows, None], g_hi, g_lo))
        self._hi[rows], self._lo[rows] = hi[:, -1], lo[:, -1]
        return _output(hi, lo)


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
