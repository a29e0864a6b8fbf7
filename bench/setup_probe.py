"""Cold set-up of one workload, timed in a fresh interpreter.

    PYTHONPATH=src python3 bench/setup_probe.py <workload>

prints the seconds from before ``import entdist`` until every lookup
table, A_w polynomial, code distance and pseudo-threshold the workload
uses is built.  ``run.py`` runs it several times per run and reports the
median as ``setup_s``; the in-process workloads call the same ``SETUP``
functions before their timed passes.  Imports stay inside the functions
so that the clock starts before numpy and entdist load.
"""

import time

_T0 = time.perf_counter()

# Codes the point_queries hybrid queries use; their pseudo-thresholds are
# part of its set-up.
HYBRID_CODES = ("913", "923", "933")


def setup_repro():
    from entdist import cli, codes, decoder, hybrid  # noqa: F401  (cli loads every module repro runs)

    for name in codes.builtin_names():
        decoder.builtin_polynomial(name)
        decoder.code_distance(codes.builtin_code(name))
    hybrid.builtin_threshold("933")


def setup_array_sweep():
    from entdist import chain, codes, decoder, efficiency, werner  # noqa: F401

    for name in codes.builtin_names():
        decoder.builtin_polynomial(name)


def setup_point_queries():
    from entdist import chain, convergence, decoder, efficiency, hybrid, purify, werner  # noqa: F401

    for name in HYBRID_CODES:
        decoder.builtin_polynomial(name)
        hybrid.builtin_threshold(name)


SETUP = {
    "repro": setup_repro,
    "array_sweep": setup_array_sweep,
    "point_queries": setup_point_queries,
}


if __name__ == "__main__":
    import sys

    SETUP[sys.argv[1]]()
    print(repr(time.perf_counter() - _T0))
