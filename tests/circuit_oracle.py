"""Pauli-frame circuit oracle for the recurrence maps in ``entdist.purify``.

It re-derives one BBPSSW or DEJMPS round from the two-pair circuit: each
of the 16 two-pair input errors is propagated through the protocol circuit
in the Pauli frame and kept by the measurement-match rule.  Bell-diagonal
inputs make these 16 branches exhaustive.  It shares no arithmetic with
the package's quadratic maps, so the purification tests use it as an
independent second path.
"""

from entdist.pauli import PauliString, commutes_with
from entdist.purify import PauliDistribution, PurifyStep, _check_protocol

_LETTERS = "IXYZ"
# R_X(+-pi/2) conjugation relabels the Y and Z error components (unsigned).
_ROTATE = {"I": "I", "X": "X", "Y": "Z", "Z": "Y"}
_MEASZ = PauliString.from_string("IZ")


def _cnot_conjugate(p: PauliString) -> PauliString:
    """Conjugate a 2-qubit Pauli by CNOT(control=0, target=1): the X part
    of the control spreads to the target, the Z part of the target spreads
    to the control.  Unsigned (phases do not affect keep/discard or the
    surviving component)."""
    x0 = p.x & 1
    z1 = (p.z >> 1) & 1
    return PauliString(2, p.x ^ (x0 << 1), p.z ^ z1)


def circuit_oracle(protocol: str, dist: PauliDistribution) -> PurifyStep:
    """Re-derive one protocol round from the circuit itself.

    Each branch puts one Pauli on each noisy half (kept pair = qubit 0,
    measured pair = qubit 1), applies the DEJMPS pre-rotation relabeling
    when applicable, conjugates through the bilateral CNOT, and keeps the
    branch iff the propagated error commutes with the Z check on the
    measured pair.  Must agree with :func:`entdist.purify.purify_step` exactly.
    """
    protocol = _check_protocol(protocol)
    dist.validate()
    probs = dict(zip(_LETTERS, dist.as_tuple()))
    acc = {letter: 0.0 for letter in _LETTERS}
    p_discard = 0.0
    for e1 in _LETTERS:
        for e2 in _LETTERS:
            pr = probs[e1] * probs[e2]
            if protocol == "dejmps":
                e1p, e2p = _ROTATE[e1], _ROTATE[e2]
            else:
                e1p, e2p = e1, e2
            propagated = _cnot_conjugate(PauliString.from_string(e1p + e2p))
            if commutes_with(propagated, _MEASZ):
                acc[propagated.letter(0)] += pr
            else:
                p_discard += pr
    raw = (acc["I"], acc["X"], acc["Y"], acc["Z"])
    kept = sum(raw)
    out = PauliDistribution(*(v / kept for v in raw))
    return PurifyStep(raw, p_discard, out)
