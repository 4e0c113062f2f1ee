"""Shared helpers for the test suite."""

import numpy as np

from abflow import Pencil
from abflow.lab import conditioned_similarity
from abflow.pencil import ABIterate, ab_step
from abflow.sqrtm import q_step


def scalar_pencil(a, b):
    return Pencil(np.array([[a]], dtype=complex), np.array([[b]], dtype=complex))


def stable_pencil(seed, n=None, random_b=True, rho=0.85, cond=10.0):
    """Random pencil whose spectrum lies strictly inside the unit disk."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 9))
    lam = rho * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    P = conditioned_similarity(n, cond, rng)
    M = np.linalg.solve(P.T, (P @ np.diag(lam)).T).T
    if random_b:
        B = conditioned_similarity(n, 5.0, rng)
        return Pencil(B @ M, B)
    return Pencil(M, np.eye(n, dtype=complex))


def chain(pencil, kmax):
    """Plain chain elements 1..kmax."""
    its = [ABIterate(pencil.A, pencil.B, 1)]
    for _ in range(kmax - 1):
        its.append(ab_step(pencil, its[-1]))
    return its


def q_chain(S, gamma, kmax):
    """Plain rational chain Q_1..Q_kmax from gamma*I."""
    partner = gamma * np.eye(S.shape[0], dtype=complex)
    qs = [partner.copy()]
    for _ in range(kmax - 1):
        qs.append(q_step(qs[-1], S, partner))
    return qs


def rel_err(X, Y):
    return np.linalg.norm(X - Y, "fro") / max(np.linalg.norm(Y, "fro"), 1e-300)
