"""n-qubit Pauli operator arithmetic in binary symplectic form.

A Pauli operator is stored as ``X^x * Z^z`` where ``x`` and ``z`` are
bitmasks (qubit ``j`` at bit ``j``).  The letter at qubit ``j`` is I/X/Z/Y
for (x_j, z_j) = (0,0)/(1,0)/(0,1)/(1,1).  Operators are unsigned: syndrome
decoding reads only commutation, which no phase changes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PauliString", "commutes_with"]

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """An unsigned n-qubit Pauli operator."""

    n: int
    x: int
    z: int

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("bitmask exceeds qubit count")

    @classmethod
    def from_string(cls, text: str) -> "PauliString":
        """Parse a letter string, e.g. ``YIZ``.  A sign prefix (``-iYIZ``)
        is accepted and dropped.

        Qubit 0 is the leftmost letter, matching the row convention used
        for stabilizer tables.
        """
        s = text.strip()
        for cand in ("-i", "+i", "i", "-", "+"):
            if s.startswith(cand):
                s = s[len(cand):]
                break
        if not s:
            raise ValueError(f"no Pauli letters in {text!r}")
        x = z = 0
        for j, ch in enumerate(s):
            try:
                xb, zb = _LETTER_TO_BITS[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli letter {ch!r} in {text!r}") from None
            x |= xb << j
            z |= zb << j
        return cls(len(s), x, z)

    def letter(self, j: int) -> str:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return _BITS_TO_LETTER[((self.x >> j) & 1, (self.z >> j) & 1)]

    def letters(self) -> str:
        return "".join(self.letter(j) for j in range(self.n))

    def __str__(self) -> str:
        return self.letters()

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"


def commutes_with(a: PauliString, b: PauliString) -> bool:
    """True iff the symplectic inner product (a.x·b.z + a.z·b.x) is even."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} vs {b.n}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0
