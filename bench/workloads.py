"""The benchmark's three workloads.

Each is a closed loop: one caller makes one call, waits for it, then
makes the next.  A *pass* is one fixed list of calls made from the
seed's inputs; a run repeats passes and reports the median pass, or
for ``point_queries`` each call's fastest time over the passes.

``repro``
    ``python -m entdist.cli repro --outdir <tmp>`` as a subprocess, the
    north-star user run.  Its 30 CSV tables are checked against committed
    sha256 digests.
``array_sweep``
    Library sweeps on one seeded 10^6-point fidelity array (8 MB: larger
    than L2, inside L3): ``chain.run_chain`` for P1-P4 at 1/3/5 repeaters
    and four ``skip`` plans, ``decoder.eval_qec_map`` for every builtin
    code, and ``efficiency.protocol_curves``/``optimal_envelope``/
    ``switching_points`` on a seeded 10^5-point grid.  No recurrences, no
    rendering.
``point_queries``
    A seeded, shuffled mix of scalar calls (one point each) over the same
    layers plus purification, hybrid and convergence, so per-call
    overhead dominates.

Every call's output is fingerprinted and must repeat exactly in every
pass; a seeded subsample of the first pass is recomputed exactly
(:mod:`reference`).  One call (or one repro table) is one op; an
exception, a fingerprint change or a reference disagreement fails it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import astuple, dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

import golden
import reference as ref
from setup_probe import HYBRID_CODES

# The paper's protocol sequences, kept here so the reference does not
# read them from the program.
PROTOCOLS = {
    "P1": ("913", "913", "913"),
    "P2": ("913", "923", "923"),
    "P3": ("913", "923", "933"),
    "P4": ("923", "923", "923"),
}
SKIP_PLANS = (
    (1, ("913", None, "933")),
    (3, ("513", None, None)),
    (3, ("513", "713", None)),
    (5, (None, "923", "933")),
)
REPEATERS = (1, 3, 5)
MAX_EXACT_ROUNDS = 10  # exact purification traces double in size per round


@dataclass
class Op:
    """One call's outcome: ``fingerprint`` must repeat in every pass;
    ``check`` is either a bool decided right after the call or a small
    extract (a dict, or the scalar result) for the exact reference,
    evaluated once after the passes."""

    fingerprint: object
    check: object = None
    error: str | None = None


class Caller:
    """The closed-loop caller: times each call of one pass."""

    def __init__(self):
        self.latencies: list[float] = []

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed op, recorded by the workload
            result = exc
        self.latencies.append(time.perf_counter() - t0)
        return result


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64))  # no copy: keeps peak RSS the program's
    return h.hexdigest()


def _failed(result) -> Op | None:
    if isinstance(result, Exception):
        return Op(None, False, f"{type(result).__name__}: {result}")
    return None


# ---------------------------------------------------------------------------
# array_sweep
# ---------------------------------------------------------------------------

class ArraySweep:
    name = "array_sweep"

    def __init__(self, seed: int, tiny: bool):
        from entdist import chain, codes

        rng = np.random.default_rng(seed)
        self.n_points = 10**4 if tiny else 10**6
        self.x = rng.random(self.n_points)
        self.grid = np.unique(rng.uniform(0.85, 1.0, 2000 if tiny else 10**5))
        self.plans = [
            (reps, PROTOCOLS[lab]) for reps in REPEATERS for lab in PROTOCOLS
        ] + list(SKIP_PLANS)
        self.chain_plans = [chain.ChainPlan(reps, rounds) for reps, rounds in self.plans]
        self.code_names = codes.builtin_names()
        self.codes = ref.load_codes()
        n_sample = 2 if tiny else 3
        self.sample = rng.integers(0, self.n_points, size=(len(self.plans) + len(self.code_names), n_sample))
        self.grid_sample = rng.integers(0, len(self.grid), size=(len(REPEATERS), n_sample))

    @property
    def call_labels(self) -> list[str]:
        """One label per call of a pass, in call order."""
        chains = [f"run_chain {reps}R {','.join(r or 'skip' for r in rounds)}" for reps, rounds in self.plans]
        maps = [f"eval_qec_map {name}" for name in self.code_names]
        eff = [f"{fn} {reps}R" for reps in REPEATERS for fn in ("protocol_curves", "optimal_envelope", "switching_points")]
        return chains + maps + eff

    @property
    def points_per_pass(self) -> int:
        maps = len(self.plans) + len(self.code_names)
        return maps * self.n_points + len(REPEATERS) * len(PROTOCOLS) * len(self.grid)

    def run_pass(self, call: Caller) -> list[Op]:
        from entdist import chain, decoder, efficiency

        ops = []
        for i, plan in enumerate(self.chain_plans):
            out = call(chain.run_chain, plan, self.x)
            ops.append(_failed(out) or Op(_digest(out), {"kind": "chain", "k": i, "values": out[self.sample[i]]}))
        for j, name in enumerate(self.code_names):
            out = call(lambda name=name: decoder.eval_qec_map(decoder.builtin_polynomial(name), self.x))
            k = len(self.plans) + j
            ops.append(_failed(out) or Op(_digest(out), {"kind": "qec", "k": k, "values": out[self.sample[k]]}))
        for r, reps in enumerate(REPEATERS):
            curves = call(efficiency.protocol_curves, reps, self.grid)
            ops.append(_failed(curves) or self._curves_op(r, reps, curves))
            ok = not isinstance(curves, Exception)
            env = call(efficiency.optimal_envelope, curves)
            ops.append(_failed(env) or Op(_digest(env[0]) + ",".join(env[1]), ok and self._envelope_ok(curves, env)))
            points = call(efficiency.switching_points, curves)
            ops.append(
                _failed(points)
                or Op(tuple(astuple(p) for p in points), {"kind": "switch", "reps": reps, "points": [astuple(p) for p in points]})
            )
        return ops

    def _curves_op(self, r, reps, curves) -> Op:
        labels = [c.label for c in curves]
        idx = self.grid_sample[r]
        values = np.vstack([c.values for c in curves])
        crossings = []
        for a in range(len(curves) - 1):
            diff = values[a + 1] - values[a]
            hits = np.flatnonzero((diff[1:] > 0.0) & (diff[:-1] <= 0.0))
            crossings.append(int(hits[0]) + 1 if len(hits) else None)
        extract = {
            "kind": "curves",
            "reps": reps,
            "labels": labels,
            "rates": [c.rate for c in curves],
            "same_grid": all(np.array_equal(c.grid, self.grid) for c in curves),
            "samples": [(c.values[idx], c.f_out[idx]) for c in curves],
            "crossings": crossings,  # first index where the next curve overtakes
        }
        fingerprint = _digest(*(a for c in curves for a in (c.values, c.f_out))) + str([c.rate for c in curves])
        return Op(fingerprint, extract)

    @staticmethod
    def _envelope_ok(curves, env) -> bool:
        stacked = np.vstack([c.values for c in curves])
        best = stacked.max(axis=0)
        # ties go to the later curve
        last = len(curves) - 1 - np.argmax(stacked[::-1] == best, axis=0)
        return np.array_equal(env[0], best) and list(env[1]) == [curves[i].label for i in last]

    # -- exact reference ----------------------------------------------------

    def verify(self, ops: list[Op]) -> list[bool]:
        curves = {op.check["reps"]: op.check for op in ops if isinstance(op.check, dict) and op.check["kind"] == "curves"}
        return [self._verify_one(op, curves) for op in ops]

    def _verify_one(self, op: Op, curves_by_reps) -> bool:
        if op.error is not None:
            return False
        if isinstance(op.check, bool):
            return op.check
        kind, k = op.check["kind"], op.check.get("k")
        if kind in ("chain", "qec"):
            values = op.check["values"]
            xs = self.x[self.sample[k]]
            for x, y in zip(xs, values):
                if kind == "chain":
                    reps, rounds = self.plans[k]
                    num, den = ref.chain(self.codes, reps, rounds, float(x))
                else:
                    frac = Fraction(float(x))
                    code = self.codes[self.code_names[k - len(self.plans)]]
                    num, den = ref.qec_map(code, frac.numerator, frac.denominator)
                if not ref.agrees(num, den, float(y)):
                    return False
            return True
        if kind == "curves":
            reps, labels = op.check["reps"], op.check["labels"]
            if labels != list(PROTOCOLS) or not op.check["same_grid"]:
                return False
            idx = self.grid_sample[REPEATERS.index(reps)]
            for lab, rate, (values, f_outs) in zip(labels, op.check["rates"], op.check["samples"]):
                exact_rate = ref.chain_rate(self.codes, reps, PROTOCOLS[lab])
                if rate != exact_rate:
                    return False
                for g, e, fo in zip(self.grid[idx], values, f_outs):
                    num, den = ref.chain(self.codes, reps, PROTOCOLS[lab], float(g))
                    if not ref.agrees(num, den, float(fo)):
                        return False
                    e_ref = ref.efficiency(exact_rate, Decimal(float(g)), ref.to_decimal(num, den))
                    if not ref.agrees_dec(e_ref, float(e)):
                        return False
            return True
        if kind == "switch":
            reps, points = op.check["reps"], op.check["points"]
            curves = curves_by_reps.get(reps)
            if curves is None:
                return False
            expected = []
            for a, i in enumerate(curves["crossings"]):
                if i is None:
                    continue
                cur, nxt = list(PROTOCOLS)[a], list(PROTOCOLS)[a + 1]
                g0, g1 = float(self.grid[i - 1]), float(self.grid[i])
                d = []
                for g in (g0, g1):
                    e = []
                    for lab in (cur, nxt):
                        num, den = ref.chain(self.codes, reps, PROTOCOLS[lab], g)
                        e.append(ref.efficiency(ref.chain_rate(self.codes, reps, PROTOCOLS[lab]), Decimal(g), ref.to_decimal(num, den)))
                    d.append(e[1] - e[0])
                if not d[0] <= 0 < d[1]:
                    return False
                f_sw = Decimal(g0) + (-d[0] / (d[1] - d[0])) * (Decimal(g1) - Decimal(g0))
                expected.append((cur, nxt, f_sw))
            if len(points) != len(expected):
                return False
            return all(
                (p[0], p[1]) == (c, n) and ref.agrees_dec(f, p[2])
                for p, (c, n, f) in zip(points, expected)
            )
        raise ValueError(f"unknown check {kind!r}")


# ---------------------------------------------------------------------------
# point_queries
# ---------------------------------------------------------------------------

KINDS = ("chain", "purify", "hybrid", "min_rounds", "distillable", "efficiency", "converge")


class PointQueries:
    name = "point_queries"

    def __init__(self, seed: int, tiny: bool):
        from entdist import chain

        rng = np.random.default_rng(seed)
        self.codes = ref.load_codes()
        per_kind = 10 if tiny else 200
        plans = [(reps, lab) for reps in REPEATERS for lab in PROTOCOLS]
        self.chain_plans = {p: chain.ChainPlan(p[0], PROTOCOLS[p[1]]) for p in plans}
        queries = []
        for _ in range(per_kind):
            plan = plans[rng.integers(len(plans))]
            queries.append(("chain", plan, float(rng.uniform(0.5, 1.0))))
            queries.append(
                ("purify", ("bbpssw", "dejmps")[rng.integers(2)], int(rng.integers(1, 6)),
                 bool(rng.integers(2)), float(rng.uniform(0.5, 1.0)))
            )
            queries.append(("hybrid", float(rng.uniform(0.7, 0.999)), HYBRID_CODES[rng.integers(len(HYBRID_CODES))]))
            queries.append(("min_rounds", float(rng.uniform(0.55, 0.99)), float(rng.uniform(0.9, 0.995))))
            queries.append(("distillable", float(rng.uniform(0.01, 1.0))))
            plan = plans[rng.integers(len(plans))]
            rate = ref.chain_rate(self.codes, plan[0], PROTOCOLS[plan[1]])
            queries.append(("efficiency", rate, float(rng.uniform(0.85, 1.0)), float(rng.uniform(0.85, 1.0))))
            a = float(rng.uniform(0.55, 0.95))
            b, c, d = ((1.0 - a) * rng.dirichlet((1.0, 1.0, 1.0))).tolist()
            queries.append(("converge", ("bbpssw", "dejmps")[rng.integers(2)], (a, b, c, d), int(rng.integers(3, 9))))
        self.queries = [queries[i] for i in rng.permutation(len(queries))]
        self.exact_per_kind = 3 if tiny else 30
        self.check_order = rng.permutation(len(self.queries))

    @property
    def points_per_pass(self) -> int:
        return len(self.queries)

    def run_pass(self, call: Caller) -> list[Op]:
        from entdist import chain, convergence, efficiency, hybrid, purify, werner

        ops = []
        for q in self.queries:
            kind = q[0]
            if kind == "chain":
                out = call(chain.run_chain, self.chain_plans[q[1]], q[2])
            elif kind == "purify":
                out = call(purify.run_rounds, q[1], q[2], f_in=q[4], twirled=q[3])
            elif kind == "hybrid":
                out = call(hybrid.hybrid_run, q[1], q[2])
            elif kind == "min_rounds":
                out = call(hybrid.min_rounds_to_fidelity, q[1], q[2])
            elif kind == "distillable":
                out = call(werner.distillable_entanglement, q[1])
            elif kind == "efficiency":
                out = call(efficiency.efficiency_value, q[1], q[2], q[3])
            else:
                out = call(convergence.iterate, q[1], q[2], q[3])
            ops.append(_failed(out) or self._op(kind, out))
        return ops

    @staticmethod
    def _op(kind, out) -> Op:
        if kind == "purify":
            rows = tuple((r.dist.as_tuple(), r.p_discard, r.p_total_discard, r.rate) for r in out.rounds)
            return Op(rows, rows)
        if kind == "hybrid":
            return Op(astuple(out), astuple(out))
        if kind == "converge":
            components = np.column_stack([out.a, out.b, out.c, out.d])
            return Op(_digest(components, out.u, out.r, out.q), components)
        return Op(out, out)

    # -- exact reference ----------------------------------------------------

    def verify(self, ops: list[Op]) -> list[bool]:
        from entdist import hybrid

        thresholds = {name: hybrid.builtin_threshold(name) for name in HYBRID_CODES}
        results = [op.error is None for op in ops]
        taken = dict.fromkeys(KINDS, 0)
        for i in self.check_order:
            q, op = self.queries[i], ops[i]
            if op.error is not None or taken[q[0]] >= self.exact_per_kind:
                continue
            verdict = self._verify_one(q, op.check, thresholds)
            if verdict is not None:  # None: too many rounds for an exact trace
                taken[q[0]] += 1
                results[i] = verdict
        return results

    def _verify_one(self, q, out, thresholds) -> bool | None:
        kind = q[0]
        if kind == "chain":
            reps, lab = q[1]
            return ref.agrees(*ref.chain(self.codes, reps, PROTOCOLS[lab], q[2]), out)
        if kind == "purify":
            _, protocol, rounds, twirled, f = q
            exact = ref.run_rounds(protocol, rounds, f, twirled)
            if len(out) != len(exact):
                return False
            return all(
                all(ref.agrees_frac(e, v) for e, v in zip(ex[0], got[0]))
                and all(ref.agrees_frac(e, v) for e, v in zip(ex[1:], got[1:]))
                for ex, got in zip(exact, out)
            )
        if kind == "hybrid":
            return self._verify_hybrid(q, out, thresholds)
        if kind == "min_rounds":
            _, f, target = q
            if f >= target:
                return out == 0
            if out is None or out > MAX_EXACT_ROUNDS:
                return None
            fids, _ = ref.dejmps_trace(f, out)
            t = Fraction(target)
            return fids[out] >= t and all(x < t for x in fids[:out])
        if kind == "distillable":
            return ref.agrees_dec(ref.distillable(Decimal(q[1])), out)
        if kind == "efficiency":
            _, rate, f_in, f_out = q
            return ref.agrees_dec(ref.efficiency(rate, Decimal(f_in), Decimal(f_out)), out)
        _, protocol, start, steps = q
        rows = ref.iterate(protocol, start, steps)
        return len(rows) == len(out) and all(
            ref.agrees_frac(e, float(v)) for row, got in zip(rows, out) for e, v in zip(row, got)
        )

    def _verify_hybrid(self, q, out, thresholds) -> bool | None:
        _, f_in, name = q
        f_in_, code_name, i_pre, f_at, f_out, rate, p_total, i_match = out
        if i_match is None or max(i_pre, i_match) > MAX_EXACT_ROUNDS:
            return None
        t = thresholds[name]
        code = self.codes[name]
        # the program's threshold must bracket the code's fixed point
        for f, sign in ((t - 1e-8, -1), (t + 1e-8, 1)):
            frac = Fraction(f)
            num, den = ref.qec_map(code, frac.numerator, frac.denominator)
            if (Fraction(num, den) - frac) * sign <= 0:
                return False
        fids, discards = ref.dejmps_trace(f_in, max(i_pre, i_match))
        tt = Fraction(t)
        exact_pre = next(i for i, f in enumerate(fids + [Fraction(2)]) if f >= tt)
        if exact_pre != i_pre or f_in_ != f_in or code_name != name:
            return False
        fa = fids[i_pre]
        num, den = ref.qec_map(code, fa.numerator, fa.denominator)
        exact_out = Fraction(num, den)
        exact_rate = Fraction(code["k"], 2**i_pre * code["n"]) * (1 - discards[i_pre])
        exact_match = next((i for i, f in enumerate(fids) if f >= exact_out), None)
        return (
            ref.agrees_frac(fa, f_at)
            and ref.agrees(num, den, f_out)
            and ref.agrees_frac(exact_rate, rate)
            and ref.agrees_frac(discards[i_pre], p_total)
            and exact_match == i_match
        )


# ---------------------------------------------------------------------------
# repro
# ---------------------------------------------------------------------------

class Repro:
    name = "repro"

    def __init__(self, root: Path, env: dict, workdir: Path):
        self.root = root
        self.env = env
        self.workdir = workdir
        self.digests = golden.load_digests()

    def outdir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="repro-", dir=self.workdir))

    def run_subprocess(self, outdir: Path):
        """One ``entdist repro``: (wall seconds, exit code, peak RSS bytes, stderr tail)."""
        log = outdir.with_suffix(".log")
        with open(log, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "entdist.cli", "repro", "--outdir", str(outdir)],
                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        tail = log.read_text(errors="replace")[-500:]
        log.unlink()
        return wall, proc.returncode, usage.ru_maxrss * 1024, tail

    def check(self, outdir: Path, returncode: int) -> list[str]:
        """Failed ops of one suite run: one per missing or mismatching
        table, plus one for a nonzero exit."""
        problems = golden.check_tables(outdir, self.digests)
        if returncode != 0:
            problems.append(f"exit code {returncode}")
        return problems

    @property
    def ops_per_pass(self) -> int:
        return len(self.digests) + 1  # every table, plus the exit status
