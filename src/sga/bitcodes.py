"""Bitcodes indexing chiral basis spinors.

A basis spinor in a representation with n commuting rotation planes is
labelled by n bits, one per plane, each up or down.  Bit k carries charge
+1/2 (up) or -1/2 (down) under rotations in plane k.  The column index of
the basis spinor is determined by reading the bits as a binary number
with bit 1 fastest: a down bit at position k contributes 2**(k-1).
"""

from __future__ import annotations

from dataclasses import dataclass

UP = True
DOWN = False

_CHAR_UP = frozenset("u↑⇑U+1")
_CHAR_DOWN = frozenset("d↓⇓D-0")


@dataclass(frozen=True)
class Bitcode:
    bits: tuple[bool, ...]

    def __post_init__(self):
        bits = tuple(bool(b) for b in self.bits)
        object.__setattr__(self, "bits", bits)
        # read on every spinor lookup, so computed once; not fields, so equality is unchanged
        object.__setattr__(self, "_index", sum(1 << k for k, b in enumerate(bits) if not b))
        object.__setattr__(self, "_hash", hash((bits,)))  # the value the generated hash would give

    def __hash__(self):
        return self._hash

    @classmethod
    def from_string(cls, text):
        bits = []
        for ch in text:
            if ch in _CHAR_UP:
                bits.append(UP)
            elif ch in _CHAR_DOWN:
                bits.append(DOWN)
            else:
                raise ValueError(f"bad bitcode character {ch!r}")
        return cls(tuple(bits))

    @classmethod
    def from_index(cls, index, n):
        if not 0 <= index < (1 << n):
            raise ValueError(f"index {index} out of range for {n} bits")
        return cls(tuple((index >> k) & 1 == 0 for k in range(n)))

    @classmethod
    def all_up(cls, n):
        return cls((UP,) * n)

    def __len__(self):
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __str__(self):
        return "".join("u" if b else "d" for b in self.bits)

    def flip(self):
        """Invert every bit; an involution."""
        return Bitcode(tuple(not b for b in self.bits))

    def bit(self, k):
        """Bit at 1-based plane position k."""
        if not 1 <= k <= len(self.bits):
            raise ValueError(f"plane index {k} out of range 1..{len(self.bits)}")
        return self.bits[k - 1]

    def index(self):
        """Column index of the basis spinor this bitcode labels."""
        return self._index

    def chirality(self):
        """Product over bits of +1 (up) / -1 (down); +1 on the all-up code."""
        sign = 1
        for b in self.bits:
            if not b:
                sign = -sign
        return sign


def all_bitcodes(n):
    """All 2**n bitcodes of length n, in column-index order."""
    return [Bitcode.from_index(i, n) for i in range(1 << n)]
