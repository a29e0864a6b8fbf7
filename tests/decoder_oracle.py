"""Scalar decoder oracle for the packed lookup table in ``entdist.decoder``.

It decodes one ``PauliString`` at a time: the syndrome from commutation
with each stabilizer, the stored correction looked up by its syndrome
bits, and the residual tested against the logical operators.  The
decoder tests use it as an independent second path to the packed
whole-enumeration kernel.  ``canonical_key`` is the oracle for the
kernel's enumeration order; ``multiply`` and ``weight`` are the Pauli
product and weight it reads.
"""

from dataclasses import dataclass
from functools import lru_cache

from entdist.codes import StabilizerCode
from entdist.decoder import LookupTable
from entdist.pauli import PauliString, commutes_with


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b up to its phase: X^(xa^xb) Z^(za^zb)."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} vs {b.n}")
    return PauliString(a.n, a.x ^ b.x, a.z ^ b.z)


def weight(p: PauliString) -> int:
    """Number of qubits on which the operator is not the identity."""
    return (p.x | p.z).bit_count()


def canonical_key(p: PauliString) -> tuple[int, int]:
    """Deterministic total-order key: weight, then the x mask above the z
    mask read as one unsigned integer, the operator's enumeration index.
    Fixes the tie order among equal-weight errors so that lookup tables
    are reproducible bit for bit.
    """
    return (weight(p), (p.x << p.n) | p.z)


@lru_cache(maxsize=None)
def entries(lut: LookupTable) -> dict[tuple[int, ...], PauliString]:
    """The table as {syndrome bits: stored correction}, rebuilt from the
    packed leaders; bit i is stabilizer i, the packed id's bit n - k - 1 - i."""
    n, m_s = lut.code.n, lut.code.n - lut.code.k
    table = {}
    for sid, m in enumerate(lut.leaders.tolist()):
        bits = tuple((sid >> (m_s - 1 - i)) & 1 for i in range(m_s))
        table[bits] = PauliString(n, m >> n, m & (2**n - 1))
    return table


def syndrome_of(code: StabilizerCode, error: PauliString) -> tuple[int, ...]:
    """Syndrome bits of an error, bit i = 1 iff it anticommutes with
    stabilizer i."""
    if error.n != code.n:
        raise ValueError(f"error acts on {error.n} qubits, code has {code.n}")
    return tuple(0 if commutes_with(error, s) else 1 for s in code.stabilizers)


@dataclass(frozen=True)
class ErrorOutcome:
    """Result of decoding one error: corrected, or which logicals flipped.

    ``x_anticommutes[i]``/``z_anticommutes[i]`` flag the logical X_i / Z_i
    operators that anticommute with the residual error after correction.
    """

    corrected: bool
    x_anticommutes: tuple[int, ...]
    z_anticommutes: tuple[int, ...]


def classify_error(code: StabilizerCode, lut: LookupTable, error: PauliString) -> ErrorOutcome:
    """Apply the stored correction and test the residual against the
    logical operators.  The residual commutes with every stabilizer by
    construction, so it is corrected iff it lies in the stabilizer group.
    """
    correction = entries(lut)[syndrome_of(code, error)]
    residual = multiply(error, correction)
    ax = tuple(0 if commutes_with(residual, p) else 1 for p in code.logical_x)
    az = tuple(0 if commutes_with(residual, p) else 1 for p in code.logical_z)
    return ErrorOutcome(not any(ax) and not any(az), ax, az)
