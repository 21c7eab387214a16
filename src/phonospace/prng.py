"""PCG64 random stream, equal bit for bit to numpy's ``default_rng(seed)``.

For an integer seed, numpy hashes the seed's 32-bit words with
SeedSequence into four 64-bit words, seeds a 128-bit PCG (O'Neill 2014)
from them and draws through XSL-RR output. ``Pcg64`` repeats each step,
so ``sample`` needs no third-party package and keeps numpy's streams:
``random()`` is a double from the top 53 bits of one 64-bit draw, and
``integers()`` is numpy's int64 path, with Lemire's (2019) rejection over
32-bit draws for ranges of at most 2**32 values and over 64-bit draws
for wider ones.
"""

from __future__ import annotations

import operator
from typing import List, Optional, Protocol

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier

# SeedSequence constants (pool of four 32-bit words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_state(seed: int) -> List[int]:
    """SeedSequence(seed).generate_state(4, uint64)."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [0] if seed == 0 else []
    while seed:
        words.append(seed & _M32)
        seed >>= 32

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    out32 = []
    hash_const = _INIT_B
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        out32.append(value ^ (value >> 16))
    return [out32[i] | out32[i + 1] << 32 for i in range(0, len(out32), 2)]


class Rng(Protocol):
    """What sampling draws from: ``Pcg64`` or a numpy ``Generator``."""

    def random(self) -> float: ...

    def integers(self, low: int, high: Optional[int] = None) -> int: ...


class Pcg64:
    """numpy's ``default_rng(seed)`` for a non-negative integer seed."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(operator.index(seed))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # pcg_setseq_128_srandom_r: from state 0, step, add the seed, step
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULTIPLIER + self._inc) & _M128
        self._half: Optional[int] = None  # upper half of a 64-bit draw, owed to next32

    def next64(self) -> int:
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self.next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A double in [0, 1): ``next64() >> 11`` scaled, with the step inline."""
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((((x >> rot) | (x << (64 - rot))) & _M64) >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: Optional[int] = None) -> int:
        """An integer in [low, high), or in [0, low) when high is omitted."""
        if high is None:
            low, high = 0, low
        span = high - 1 - low  # numpy's bounded generators take the closed range
        if span < 0:
            raise ValueError("low >= high")
        if low < -(1 << 63) or high - 1 >= 1 << 63:
            raise ValueError("bounds out of range for int64")
        if span == 0:
            return low
        if span <= _M32:
            # Lemire over 32-bit draws: the high word of draw * n, rejecting the low words
            # below 2**32 % n (none when n is 2**32). The first draw is next32() inline, so
            # an accepted one runs in this frame.
            n = span + 1
            half = self._half
            if half is None:
                state = self._state = (self._state * _MULTIPLIER + self._inc) & _M128
                x = ((state >> 64) ^ state) & _M64
                rot = state >> 122
                x = ((x >> rot) | (x << (64 - rot))) & _M64
                self._half = x >> 32
                m = (x & _M32) * n
            else:
                self._half = None
                m = half * n
            if m & _M32 < n:
                threshold = (_M32 - span) % n
                while m & _M32 < threshold:
                    m = self.next32() * n
            return low + (m >> 32)
        # Lemire over 64-bit draws; the full int64 range rejects none
        n = span + 1
        m = self.next64() * n
        if m & _M64 < n:
            threshold = (_M64 - span) % n
            while m & _M64 < threshold:
                m = self.next64() * n
        return low + (m >> 64)
