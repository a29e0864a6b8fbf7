"""Bit-matrix oracle for the packed decoder kernel in ``entdist.decoder``.

Every Pauli is a row of 0/1 entries, one column per qubit, and the
symplectic product with a set of operators is an integer matrix product
mod 2.  It shares no code with the packed-mask kernel, so the decoder
tests use it as an independent second path.
"""

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def enumeration(n):
    """x and z bit matrices of all 4^n Paulis, row m for index m (x bits
    high, z bits low, qubit 0 most significant), with their weights and
    the canonical order: weight ascending, then m ascending."""
    m = np.arange(4**n, dtype=np.int64)
    xb = np.empty((4**n, n), dtype=np.uint8)
    zb = np.empty((4**n, n), dtype=np.uint8)
    for j in range(n):
        xb[:, j] = (m >> (2 * n - 1 - j)) & 1
        zb[:, j] = (m >> (n - 1 - j)) & 1
    w = (xb | zb).sum(axis=1).astype(np.int64)
    order = np.argsort(w, kind="stable")
    for arr in (xb, zb, w, order):
        arr.setflags(write=False)
    return xb, zb, w, order


def bit_matrix(ops, n):
    """x and z bit matrices of the operators, one row each, qubit j in
    column j (mask bit n - 1 - j)."""
    X = np.zeros((len(ops), n), dtype=np.int64)
    Z = np.zeros((len(ops), n), dtype=np.int64)
    for i, p in enumerate(ops):
        for j in range(n):
            X[i, j] = (p.x >> (n - 1 - j)) & 1
            Z[i, j] = (p.z >> (n - 1 - j)) & 1
    return X, Z


def anticommutes(xb, zb, op_x, op_z):
    """Entry (e, o) is 1 iff error row e anticommutes with operator row o."""
    return (xb.astype(np.int64) @ op_z.T + zb.astype(np.int64) @ op_x.T) % 2


def syndrome_ids(xb, zb, op_x, op_z):
    """Packed syndrome integers, operator 0 at the most significant bit."""
    pack = (1 << np.arange(op_x.shape[0] - 1, -1, -1)).astype(np.int64)
    return anticommutes(xb, zb, op_x, op_z) @ pack
