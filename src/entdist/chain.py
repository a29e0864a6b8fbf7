"""Repeater-chain evaluation: three distillation rounds with swaps between.

A chain of n_R repeaters (n_R odd, or 0 for the single-link case) starts
with n_R + 1 elementary links at a common input fidelity.  Round 1 distills
every link; adjacent segments are then pairwise swapped, halving the
segment count.  Round 2 distills the merged segments; all remaining
segments are swapped into a single end-to-end link.  Round 3 distills end
to end.  Because swaps multiply Werner parameters, the uniform-fidelity
swap formula only needs the number of swaps inside each surviving segment.
A k = 1 code maps depolarizing input to depolarizing output exactly, so
such a chain is an exact composition of single-round polynomial maps.  A
k > 1 code (923, 933) does not, and two conventions bind only there: the
block's all-k-correct fidelity is carried forward as each pair's fidelity,
and each pair is twirled back to Werner before the next swap or round.

Rate accounting follows the round-by-round matching recursion: the pairs
produced by one round are replicated up to the least common multiple with
the next code's block size, in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .codes import builtin_code
from .decoder import builtin_polynomial, eval_qec_map
from .werner import _blocked, _check_count, swap_fidelity_uniform

__all__ = [
    "SKIP",
    "ChainPlan",
    "RoundAccounting",
    "parse_rounds",
    "format_plan",
    "run_chain",
    "rate_accounting",
]

SKIP = None  # rounds entry for "no distillation this round"


@dataclass(frozen=True)
class ChainPlan:
    """Repeater count plus the per-round code choice (or SKIP)."""

    n_repeaters: int
    rounds: tuple[str | None, str | None, str | None]

    def __post_init__(self):
        _check_count(self.n_repeaters, "repeater count")
        object.__setattr__(self, "n_repeaters", int(self.n_repeaters))  # 3.0 counts as 3
        if self.n_repeaters % 2 == 0 and self.n_repeaters != 0:
            raise ValueError(
                f"repeater count must be 0 or odd, got {self.n_repeaters}"
            )
        if len(self.rounds) != 3:
            raise ValueError("a plan has exactly 3 rounds")

    @property
    def segment_counts(self) -> tuple[int, int, int]:
        """Segments entering each round."""
        s1 = self.n_repeaters + 1
        s2 = s1 // 2 if s1 > 1 else 1
        return (s1, s2, 1)

    @property
    def swap_counts(self) -> tuple[int, int, int]:
        """Swaps inside each surviving segment after each round: pairwise
        merge after round 1, full merge after round 2, none after round 3."""
        s1, s2, _ = self.segment_counts
        return (1 if s1 > 1 else 0, s2 - 1, 0)

    @property
    def label(self) -> str:
        return format_plan(self)


def parse_rounds(spec: str) -> tuple[str | None, str | None, str | None]:
    """Parse ``913,skip,933``: three code names, ``skip`` for no coding."""
    entries = spec.split(",")
    if len(entries) != 3:
        raise ValueError(f"rounds must name exactly 3 codes or 'skip', got {spec!r}")
    return tuple(SKIP if e.lower() == "skip" else e for e in entries)


def format_plan(plan: ChainPlan) -> str:
    rounds = ",".join("skip" if r is SKIP else r for r in plan.rounds)
    return f"repeaters={plan.n_repeaters}; rounds={rounds}"


@_blocked
def run_chain(plan: ChainPlan, f_in):
    """End-to-end output fidelity for a plan, exactly.

    Alternates the per-round fidelity map of the builtin code (identity on
    SKIP) with the uniform swap composition.  ``f_in`` may be a scalar or
    an array; all elementary links share the same input fidelity.
    """
    f = f_in
    for code_name, n_qs in zip(plan.rounds, plan.swap_counts):
        if code_name is not SKIP:
            f = eval_qec_map(builtin_polynomial(code_name), f)
        f = swap_fidelity_uniform(f, n_qs)
    return f


@dataclass(frozen=True)
class RoundAccounting:
    """Exact pair bookkeeping: per round, total Bell pairs consumed and
    pairs produced; ``matching`` holds the lcm multiples used to feed
    round r's output into round r+1."""

    n_in: tuple[int, int, int]
    k_out: tuple[int, int, int]
    matching: tuple[int, int]

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k_out[2], self.n_in[2])


def rate_accounting(plan: ChainPlan) -> RoundAccounting:
    """Three-round rate recursion in exact integers.

    Round 1 consumes (n_R + 1) blocks of n_1 raw pairs and yields k_1.
    Each later round replicates the experiment so the previous output
    count matches its block size:  L = lcm(K_prev, n_next).  SKIP rounds
    are not supported here; the rate study applies to full protocols.
    """
    if any(r is SKIP for r in plan.rounds):
        raise ValueError("rate accounting requires a code in every round")
    first, *later = (builtin_code(name) for name in plan.rounds)
    n_in, k_out, matching = [(plan.n_repeaters + 1) * first.n], [first.k], []
    for code in later:
        size = lcm(k_out[-1], code.n)
        n_in.append(size // k_out[-1] * n_in[-1])
        k_out.append(size // code.n * code.k)
        matching.append(size)
    return RoundAccounting(tuple(n_in), tuple(k_out), tuple(matching))
