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

from .codes import builtin_code, builtin_names
from .decoder import builtin_polynomial, eval_qec_map
from .werner import _blocked, _check_count, swap_fidelity_uniform

__all__ = [
    "SKIP",
    "ChainPlan",
    "RoundAccounting",
    "parse_rounds",
    "run_chain",
    "rate_accounting",
]

SKIP = None  # rounds entry for "no distillation this round"


@dataclass(frozen=True)
class ChainPlan:
    """Repeater count plus the per-round code choice: a builtin code name
    (an integer name is stored as its string) or SKIP."""

    n_repeaters: int
    rounds: tuple[str | None, str | None, str | None]

    def __post_init__(self):
        object.__setattr__(self, "n_repeaters", _check_count(self.n_repeaters, "repeater count"))
        if self.n_repeaters % 2 == 0 and self.n_repeaters != 0:
            raise ValueError(
                f"repeater count must be 0 or odd, got {self.n_repeaters}"
            )
        if isinstance(self.rounds, str) or len(self.rounds) != 3:
            raise ValueError(f"a plan has exactly 3 rounds, got {self.rounds!r}")
        object.__setattr__(self, "rounds", tuple(r if r is SKIP else str(r) for r in self.rounds))
        names = builtin_names()
        for i, name in enumerate(self.rounds, start=1):
            if name is not SKIP and name not in names:
                raise ValueError(
                    f"round {i}: unknown code {name!r}; expected SKIP (None) or one of {', '.join(names)}"
                )

    @property
    def swap_counts(self) -> tuple[int, int, int]:
        """Swaps inside each surviving segment after each round: the
        n_R + 1 links merge pairwise after round 1 and fully after round 2,
        none after round 3; a single link (n_R = 0) is never swapped."""
        n = self.n_repeaters
        return (1, (n - 1) // 2, 0) if n else (0, 0, 0)

    @property
    def label(self) -> str:
        rounds = ",".join("skip" if r is SKIP else r for r in self.rounds)
        return f"repeaters={self.n_repeaters}; rounds={rounds}"


def parse_rounds(spec: str) -> tuple[str | None, ...]:
    """Spell ``913,skip,933`` as round entries: ``skip`` in any case is
    SKIP and whitespace around an entry is dropped; :class:`ChainPlan`
    checks them."""
    return tuple(SKIP if e.lower() == "skip" else e for e in map(str.strip, spec.split(",")))


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
