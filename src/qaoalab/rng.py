"""Deterministic random substreams built on counter-based Philox.

Every stochastic consumer (measurement sampling, trajectory noise,
twirling draws, readout flips, restart initialization) derives its own
Philox key from ``(seed, path...)`` where the path encodes a stream tag
and, usually, a shot or restart index. A shot's randomness is therefore
a pure function of ``(seed, stream, shot)``: results never depend on
evaluation order, and re-running any prefix of the work reproduces the
same numbers. Every draw is a raw 64-bit word of a key's stream, which
numpy keeps stable across versions (NEP 19): ``words`` reads one key's
words, ``philox_raw`` those of many keys at once, and this module's
rules (``doubles``, ``units``, ``below``) turn words into values, so no numpy
``Generator`` method decides a drawn value.
"""

from __future__ import annotations

import numpy as np

# Stream tags keep substreams for different purposes disjoint even when
# they share a master seed and shot index.
STREAM_SAMPLE = 1
STREAM_TRAJECTORY = 2
STREAM_READOUT = 3
STREAM_TWIRL = 4
STREAM_INIT = 5
STREAM_EVAL = 6
STREAM_FINAL = 7
STREAM_CELL = 8
STREAM_DEPHASE = 9

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche of one 64-bit word."""
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_key(seed: int, *path: int) -> int:
    """Collapse ``(seed, path...)`` into a single 64-bit Philox key.

    Path components are mixed in sequentially, so ``(s, a, b)`` and
    ``(s, b, a)`` land in different streams.
    """
    h = _mix64(seed & _MASK64)
    for part in path:
        h = _mix64(h ^ _mix64(part & _MASK64))
    return h


def _mix64_words(x: np.ndarray) -> np.ndarray:
    """``_mix64`` on uint64 arrays (numpy's uint64 arithmetic wraps mod 2^64)."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(_GOLDEN)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def derive_keys(seed, *path) -> np.ndarray:
    """``derive_key`` elementwise: the seed and any path part may be arrays.

    Array arguments hold non-negative integers (uint64 after conversion);
    they broadcast, so ``derive_keys(seed, stream, np.arange(shots))``
    gives every shot's key at once.
    """

    def words(x):
        return np.asarray(x & _MASK64 if isinstance(x, int) else x, dtype=np.uint64)

    h = _mix64_words(words(seed))
    for part in path:
        h = _mix64_words(h ^ _mix64_words(words(part)))
    return h


# Philox4x64-10 (Salmon et al., SC 2011): the round multipliers and the
# Weyl increments of the key
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: np.uint64) -> tuple:
    """The high and low 64-bit words of each a * m, the high one from 32-bit limbs."""
    al, ah = a & _LOW32, a >> _32
    ml, mh = m & _LOW32, m >> _32
    mid = ah * ml + ((al * ml) >> _32)  # below 2**64: (2**32 - 1)**2 + 2**32 - 1
    return ah * mh + (mid >> _32) + ((al * mh + (mid & _LOW32)) >> _32), a * m


def philox_raw(keys, count: int) -> np.ndarray:
    """The first ``count`` 64-bit words of each key's stream, a (len(keys), count) uint64 array.

    Row r equals ``np.random.Philox(key=keys[r]).random_raw(count)`` bit
    for bit: word 4b + j is word j of Philox4x64-10 at counter
    (b + 1, 0, 0, 0) under key (keys[r], 0). Every row and block is
    computed at once, so the cost grows with ``count`` and not with a
    generator per key. ``keys`` holds integers in [0, 2**64).
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 1)
    blocks = -(-count // 4)
    # the counter words stay (1, blocks) or (1, 1) until a key mixes in
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)[None]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for r in range(10):
            hi0, lo0 = _mulhilo(x0, _PHILOX_M[0])
            hi1, lo1 = _mulhilo(x2, _PHILOX_M[1])
            k0 = keys + np.uint64(r * _PHILOX_W[0] & _MASK64)
            k1 = np.uint64(r * _PHILOX_W[1] & _MASK64)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.empty((len(keys), blocks, 4), dtype=np.uint64)
    for j, x in enumerate((x0, x1, x2, x3)):
        words[:, :, j] = x
    return words.reshape(len(keys), 4 * blocks)[:, :count]


def words(key: int, count: int) -> np.ndarray:
    """The first ``count`` 64-bit words of one key's stream: row 0 of ``philox_raw([key], count)``.

    Read by numpy's own C Philox, which is faster than ``philox_raw``
    for a single key.
    """
    return np.random.Philox(key=key).random_raw(count)


def doubles(words: np.ndarray) -> np.ndarray:
    """Each word's top 53 bits times 2**-53, in [0, 1): ``Generator.random``'s rule."""
    return (words >> np.uint64(11)) * 2.0**-53


def units(words: np.ndarray) -> np.ndarray:
    """Each word's ((w >> 11) + 1) * 2**-53, in (0, 1]: never 0, so its log is finite."""
    return ((words >> np.uint64(11)) + np.uint64(1)) * 2.0**-53


def below(words: np.ndarray, p: float) -> np.ndarray:
    """Whether each word's ``doubles`` value is below ``p``, so True with probability p."""
    return doubles(words) < p


def generator(seed: int, *path: int) -> np.random.Generator:
    """A numpy ``Generator`` on the substream named by ``path``.

    No package path draws from it. It stays as the tracing target that
    ``perfbench`` names and as the independent reference that the tests
    compare ``words``, ``doubles`` and ``below`` with.
    """
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *path)))


def eval_seeds(seed: int | None, first: int, k: int) -> list:
    """The seeds of a search's evaluations first .. first + k - 1.

    Evaluation j runs under ``derive_key(seed, STREAM_EVAL, j)``, so its
    draws depend on (seed, j) alone, however the evaluations are batched.
    A search without a seed (exact mode) gets None for each.
    """
    if seed is None:
        return [None] * k
    return [derive_key(seed, STREAM_EVAL, j) for j in range(first, first + k)]
