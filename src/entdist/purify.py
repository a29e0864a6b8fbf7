"""2-to-1 recurrence purification: BBPSSW and DEJMPS.

Single rounds are quadratic maps on the Pauli error components
(P_I, P_X, P_Y, P_Z) of the noisy pair:

    BBPSSW:  P_I' = P_I^2 + P_Z^2   P_X' = P_X^2 + P_Y^2
             P_Y' = 2 P_X P_Y       P_Z' = 2 P_I P_Z

    DEJMPS:  P_I' = P_I^2 + P_Y^2   P_X' = P_X^2 + P_Z^2
             P_Y' = 2 P_X P_Z       P_Z' = 2 P_I P_Y

The shortfall from 1 is the discard probability (mismatched check
measurements) and the survivors are renormalized.  The DEJMPS map is the
BBPSSW map preceded by the X-axis pre-rotations, which act on the error
components as a plain Y/Z relabeling.

Every query runs the recursion directly; the map is effectively step-like
near F = 0.5 so nothing here is ever grid-interpolated.  One kernel,
:func:`_recurrence`, runs every round in the package, on floats or arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .werner import _check_count

__all__ = [
    "PROTOCOLS",
    "PauliDistribution",
    "RoundRecord",
    "PurificationTrace",
    "run_rounds",
]

PROTOCOLS = ("bbpssw", "dejmps")


def _check_protocol(protocol: str) -> str:
    p = protocol.lower()
    if p not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    return p


def _depolarized(f):
    """Depolarizing components (F, e, e, e), e = (1 - F)/3, on a float or
    an array."""
    e = (1.0 - f) / 3.0
    return (f, e, e, e)


class PauliDistribution(NamedTuple):
    """Error-component probabilities (P_I, P_X, P_Y, P_Z) of one pair."""

    p_i: float
    p_x: float
    p_y: float
    p_z: float

    @classmethod
    def from_fidelity(cls, f: float) -> "PauliDistribution":
        """Depolarizing distribution at fidelity f: the X/Y/Z components
        share (1-f) equally."""
        if not 0.0 <= f <= 1.0:
            raise ValueError("fidelity must lie in [0, 1]")
        return cls(*_depolarized(f))

    @property
    def fidelity(self) -> float:
        return self.p_i

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_i, self.p_x, self.p_y, self.p_z)

    def validate(self) -> "PauliDistribution":
        """Check the components: none below -1e-9, sum within 1e-9 of 1."""
        # negated comparisons, so that NaN fails them too
        if not all(v >= -1e-9 for v in self):
            raise ValueError(f"negative or NaN component in {tuple(self)}")
        total = sum(self)
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"components sum to {total}, expected 1")
        return self


def _step(protocol: str, i, x, y, z):
    """One round on components that are all floats or all equal-shape
    arrays (plain arithmetic, so floats stay floats): the survivor
    components, their sum and the discard probability."""
    if protocol == "dejmps":  # the pre-rotations relabel Y <-> Z
        y, z = z, y
    raw = (i * i + z * z, x * x + y * y, 2.0 * x * y, 2.0 * i * z)
    kept = raw[0] + raw[1] + raw[2] + raw[3]
    # exact max(1 - kept, 0) for floats and arrays; it only guards rounding
    shortfall = 1.0 - kept
    return raw, kept, (shortfall + abs(shortfall)) * 0.5


def _recurrence(protocol: str, comps, rounds: int, twirled: bool = False):
    """Iterate :func:`_step` from ``comps`` = (P_I, P_X, P_Y, P_Z), twirling
    after each round if asked, and yield (p_discard, components,
    p_total_discard, rate) per round; rate n = (1 - P_total_discard) * 0.5**n
    (the float 2.0**n would overflow from n = 1024)."""
    p_total = 0.0
    for n in range(1, rounds + 1):
        raw, kept, p_discard = _step(protocol, *comps)
        comps = (raw[0] / kept, raw[1] / kept, raw[2] / kept, raw[3] / kept)
        if twirled:
            comps = _depolarized(comps[0])
        p_total = p_total + (1.0 - p_total) * p_discard
        yield p_discard, comps, p_total, (1.0 - p_total) * 0.5**n


class RoundRecord(NamedTuple):
    dist: PauliDistribution
    p_discard: float
    p_total_discard: float
    rate: float


@dataclass(frozen=True)
class PurificationTrace:
    protocol: str
    twirled: bool
    initial: PauliDistribution
    rounds: tuple[RoundRecord, ...]

    def fidelity_after(self, i: int) -> float:
        """Fidelity after i rounds; i = 0 is the input."""
        return self.fidelities[_check_count(i, "round index")]

    @property
    def fidelities(self) -> tuple[float, ...]:
        return (self.initial.fidelity,) + tuple(r.dist.fidelity for r in self.rounds)


def run_rounds(
    protocol: str,
    rounds: int,
    *,
    f_in: float | None = None,
    dist: PauliDistribution | None = None,
    twirled: bool = False,
) -> PurificationTrace:
    """Iterate the protocol for a number of rounds, tracking the
    per-round and cumulative discard and the total rate.

    Start from a depolarizing distribution at ``f_in`` or from an explicit
    ``dist``.  With ``twirled`` the distribution is re-symmetrized after
    every round.  The rate after round i is (1/2^i)(1 - P_total_discard).
    """
    protocol = _check_protocol(protocol)
    rounds = _check_count(rounds, "rounds", least=1)
    if (f_in is None) == (dist is None):
        raise ValueError("give exactly one of f_in or dist")
    initial = PauliDistribution.from_fidelity(f_in) if dist is None else dist.validate()
    records = tuple(
        RoundRecord(PauliDistribution(*comps), p_discard, p_total, rate)
        for p_discard, comps, p_total, rate in _recurrence(protocol, initial, rounds, twirled)
    )
    return PurificationTrace(protocol, twirled, initial, records)
