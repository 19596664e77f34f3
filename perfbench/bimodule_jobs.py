"""Workload ``bimodule``: ``bimodule {check,rank1,transfer}`` CLI jobs.

Why: d^4 einsum validation does the work here.  Catalog ``truncK``
algebras mix with user-supplied ``@file.json`` algebras, so validating
only at the trust boundary would show on ``transfer`` (four validations of
derived modules) and show no change on file ``check``.

The files are written at set-up: integer unimodular basis changes of
truncK for ``check`` (P = Q (I+S)^4 with S the shift and Q a seeded
signed permutation, entries ~1e5 at K=24) and of the non-unital ideal
t.k[t]/t^K for ``rank1`` (P = Q (I+S), entries <= 2).  Orders K sit at the
middle of log-uniform strata of 4..24: the job cost grows like K^5, so a
jittered K would swing a slot's cost; seeds vary the basis changes and the
``--seed`` of the CLI instead.  Structure constants stay exact integers, so every check below has
an exact answer; tolerances scale with the size of the entries.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import numpy as np

from jobs import cli_job, complex_array, interleave

KERNEL = ("einsum", "small")  # calibration parts like this work
K_RANGE = (4, 24)
TOL = 1e-9  # relative to the largest entry involved


def truncated(K: int) -> np.ndarray:
    c = np.zeros((K, K, K), dtype=np.int64)
    for i in range(K):
        c[i, np.arange(K - i), i + np.arange(K - i)] = 1
    return c


def ideal(K: int) -> np.ndarray:
    """t.k[t]/t^K in the basis t, ..., t^(K-1)."""
    d = K - 1
    c = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d - i - 1):
            c[i, j, i + j + 1] = 1
    return c


def change_basis(c: np.ndarray, power: int, rng) -> np.ndarray:
    """Structure constants in the basis given by the columns of Q (I+S)^power,
    with Q a seeded signed permutation."""
    d = c.shape[0]
    step = np.eye(d, dtype=np.int64) + np.eye(d, k=1, dtype=np.int64)
    offset = np.arange(d)[None, :] - np.arange(d)[:, None]
    step_inv = np.triu((-1) ** np.abs(offset))  # (I+S)^-1 = sum_k (-S)^k
    Q = np.zeros((d, d), dtype=np.int64)
    Q[np.arange(d), rng.permutation(d)] = rng.choice([-1, 1], size=d)
    P = Q @ np.linalg.matrix_power(step, power)
    P_inv = np.linalg.matrix_power(step_inv, power) @ Q.T
    return np.einsum("ai,bj,abm,km->ijk", P, P, c, P_inv)


class Files:
    """The user-supplied algebras, written once per process at set-up."""

    def __init__(self, workdir: str, rng):
        self.workdir = workdir
        self.rng = rng
        self.constants = {}
        os.makedirs(workdir, exist_ok=True)

    def path(self, kind: str, K: int, power: int) -> str:
        key = (kind, K, power)
        if key not in self.constants:
            base = truncated(K) if kind == "trunc" else ideal(K)
            c = change_basis(base, power, self.rng)
            name = os.path.join(self.workdir, f"{kind}{K}-p{power}.json")
            with open(name, "w", encoding="utf-8") as handle:
                json.dump({"dim": c.shape[0], "c": c.tolist()}, handle)
            self.constants[key] = (name, c)
        return self.constants[key][0]

    def structure(self, kind: str, K: int, power: int) -> np.ndarray:
        return self.constants[(kind, K, power)][1]


def check_job(files: Files, K: int, from_file: bool, seed: int):
    name = "@" + files.path("trunc", K, 4) if from_file else f"trunc{K}"

    def check(result: dict) -> Optional[str]:
        if result["dim"] != K or result["square_span_dim"] != K:
            return (f"dim {result['dim']}, square span "
                    f"{result['square_span_dim']}: a unital algebra of "
                    f"dimension {K} is spanned by its products")
        return None

    return cli_job("check", ["bimodule", "check", "--algebra", name,
                             "--seed", str(seed)], 0, check)


def rank1_job(files: Files, K: int, power: int, defect: bool = False):
    name = "@" + files.path("ideal", K, power)
    c = files.structure("ideal", K, power)

    def check(result: dict) -> Optional[str]:
        lam = complex_array(result["functional"])
        anchor = complex_array(result["anchor"])
        D = complex_array(result["matrix"])
        scale = np.abs(lam).sum()
        if np.abs(D - np.outer(lam, lam)).max() > TOL * scale ** 2:
            return "matrix is not lambda (x) lambda"
        if abs(anchor @ lam - 1) > TOL or sorted(np.abs(anchor)) != \
                [0.0] * (len(anchor) - 1) + [1.0]:
            return "anchor is not a basis vector with lambda(anchor) = 1"
        # D(ab) = a.D(b) + D(a).b holds exactly when lambda kills products
        killed = np.abs(np.einsum("ijk,k->ij", c, lam)).max()
        if killed > TOL * np.abs(c).max() * scale:
            return f"lambda(e_i e_j) reaches {killed:.3e}"
        return None

    return cli_job("rank1", ["bimodule", "rank1", "--algebra", name], 0,
                   check, defect)


def transfer_job(K: int, seed: int):
    def check(result: dict) -> Optional[str]:
        M = complex_array(result["matrix"])
        a0 = complex_array(result["anchor"])
        tol = TOL * max(1.0, np.abs(M).max())
        # into the dual of trunc K: (e_i . psi)_x = psi_(x+i) for x+i < K
        shifted = np.zeros((K, K, K), dtype=complex)  # [i, x, s]
        for i in range(K):
            shifted[i, :K - i] = M[i:]
        for i in range(K):
            lhs = np.zeros((K, K), dtype=complex)
            lhs[:, :K - i] = M[:, i:]
            rhs = shifted[i] + shifted[:, :, i].T
            if np.abs(lhs - rhs).max() > tol:
                return f"derivation identity fails at e_{i}"
        if abs(a0 @ M @ a0 - 1) > TOL * np.abs(a0).sum() ** 2 * max(
                1.0, np.abs(M).max()):
            return "anchor pairing is not 1"
        if not 1 <= result["rank"] <= K - 1:
            return f"rank {result['rank']} outside 1..{K - 1}"
        return None

    return cli_job("transfer", ["bimodule", "transfer", "--algebra",
                                f"trunc{K}", "--seed", str(seed)], 0, check)


def _orders(count: int) -> list:
    lo, hi = K_RANGE
    u = (np.arange(count) + 0.5) / count
    return [int(K) for K in np.floor(lo * ((hi + 1) / lo) ** u)]


def deck(rng, files: Files, defects: bool = False) -> list:
    """Each command over K at the middles of log-uniform strata of 4..24."""
    seeds = iter(rng.integers(0, 2 ** 31, size=16))
    jobs = [check_job(files, K, False, next(seeds)) for K in _orders(6)]
    jobs += [check_job(files, K, True, 42) for K in _orders(6)]
    jobs += [rank1_job(files, K, 1) for K in _orders(8)]
    jobs += [transfer_job(K, next(seeds)) for K in _orders(10)]
    if defects:
        # large entries: the absolute 1e-12 identity tolerance fails here
        jobs.append(rank1_job(files, K_RANGE[1], 4, defect=True))
    return interleave(jobs)


def warmup(files: Files) -> list:
    return [check_job(files, 6, False, 42), check_job(files, 6, True, 42),
            rank1_job(files, 6, 1), transfer_job(6, 42)]
