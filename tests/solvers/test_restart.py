"""Per-column gradient momentum restart (``restart=True``).

Column ``b`` of a batched solve must follow the serial
``fista(a, Y[:, b], lam_b, restart=True)`` exactly: same iteration
count, coefficients to floating-point noise.  The batch is wide enough
(B = 10 >= 9) that converged columns get compacted out mid-solve, and
its columns first restart at different iterations, so the per-column
``t`` vector (not one shared schedule) is what is under test.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sensing import SparseBinaryMatrix
from repro.solvers import (
    batched_fista,
    batched_lambda_from_fraction,
    fista,
)
from repro.solvers.lipschitz import lipschitz_constant
from repro.solvers.prox import soft_threshold
from repro.wavelet import WaveletTransform

BATCH = 10
MAX_ITERATIONS = 700
TOLERANCE = 1e-6


@pytest.fixture(scope="module")
def problem():
    """Ten noisy sparse columns (6..15 nonzeros) in a 64x128 system."""
    rng = np.random.default_rng(2011)
    n, m = 128, 64
    transform = WaveletTransform(n, "db4", 3)
    phi = SparseBinaryMatrix(m, n, d=6, seed=11)
    a = np.asarray(phi.sparse() @ transform.synthesis_matrix())
    columns = []
    for b in range(BATCH):
        alpha = np.zeros(n)
        k = 6 + b
        alpha[rng.choice(n, k, replace=False)] = rng.standard_normal(k) * 4.0
        columns.append(a @ alpha)
    ys = np.stack(columns, axis=1) + 0.02 * rng.standard_normal((m, BATCH))
    lipschitz = lipschitz_constant(a)
    lams = batched_lambda_from_fraction(a, ys, 0.01)
    # a rough warm start: 30 plain iterations per column
    x0 = np.stack(
        [
            fista(a, ys[:, b], lams[b], max_iterations=30,
                  lipschitz=lipschitz).coefficients
            for b in range(BATCH)
        ],
        axis=1,
    )
    return a, ys, lams, lipschitz, x0


def reference_restart(a, y, lam, lipschitz, x0=None):
    """FISTA with gradient restart, written out independently.

    Returns ``(coefficients, iterations, first_restart_iteration)``.
    """
    step = 1.0 / lipschitz
    threshold = lam / lipschitz
    alpha_prev = np.zeros(a.shape[1]) if x0 is None else x0.copy()
    momentum = alpha_prev.copy()
    t_k = 1.0
    first_restart = None
    for iteration in range(1, MAX_ITERATIONS + 1):
        gradient = 2.0 * (a.T @ (a @ momentum - y))
        alpha = soft_threshold(momentum - step * gradient, threshold)
        if np.dot(momentum - alpha, alpha - alpha_prev) > 0:
            t_k = 1.0
            if first_restart is None:
                first_restart = iteration
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        momentum = alpha + ((t_k - 1.0) / t_next) * (alpha - alpha_prev)
        t_k = t_next
        change = np.linalg.norm(alpha - alpha_prev) / max(
            np.linalg.norm(alpha_prev), 1.0
        )
        alpha_prev = alpha
        if change < TOLERANCE:
            break
    return alpha, iteration, first_restart


def objective(a, y, lam, alpha):
    fit = a @ alpha - y
    return float(fit @ fit + lam * np.sum(np.abs(alpha)))


def _kwargs(lipschitz):
    return dict(
        max_iterations=MAX_ITERATIONS,
        tolerance=TOLERANCE,
        lipschitz=lipschitz,
        restart=True,
    )


def test_serial_follows_the_restart_rule(problem):
    """t resets to 1 and the step's extrapolation coefficient is 0."""
    a, ys, lams, lipschitz, _ = problem
    first_restarts = set()
    for b in range(BATCH):
        result = fista(a, ys[:, b], lams[b], **_kwargs(lipschitz))
        expected, iterations, first = reference_restart(
            a, ys[:, b], lams[b], lipschitz
        )
        assert result.iterations == iterations
        np.testing.assert_allclose(result.coefficients, expected, atol=1e-9)
        first_restarts.add(first)
    # the columns do not restart in lockstep
    assert None not in first_restarts
    assert len(first_restarts) > 1


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "x0"])
def test_batched_matches_serial_per_column(problem, warm):
    a, ys, lams, lipschitz, x0 = problem
    batch = batched_fista(
        a, ys, lams, x0=x0 if warm else None, **_kwargs(lipschitz)
    )
    # columns finish at different iterations: compaction fires
    assert len(set(batch.iterations.tolist())) > 1
    for b in range(BATCH):
        serial = fista(
            a, ys[:, b], lams[b],
            x0=x0[:, b] if warm else None,
            **_kwargs(lipschitz),
        )
        assert batch.iterations[b] == serial.iterations
        assert bool(batch.converged[b]) == serial.converged
        np.testing.assert_allclose(
            batch.coefficients[:, b], serial.coefficients, atol=1e-9
        )


def test_restart_cuts_iterations_at_the_same_optimum(problem):
    a, ys, lams, lipschitz, _ = problem
    common = dict(
        max_iterations=MAX_ITERATIONS, tolerance=TOLERANCE, lipschitz=lipschitz
    )
    listing = batched_fista(a, ys, lams, **common)
    restarted = batched_fista(a, ys, lams, restart=True, **common)
    assert np.median(restarted.iterations) * 2 <= np.median(listing.iterations)
    assert restarted.converged.all()
    for b in range(BATCH):
        # the restarted solve reaches the same objective (or better)
        assert objective(
            a, ys[:, b], lams[b], restarted.coefficients[:, b]
        ) <= objective(a, ys[:, b], lams[b], listing.coefficients[:, b]) * (
            1 + 1e-4
        )


def test_float32_batch_keeps_dtype_with_restart(problem):
    a, ys, lams, lipschitz, _ = problem
    result = batched_fista(
        a, ys.astype(np.float32), lams, **_kwargs(lipschitz)
    )
    assert result.coefficients.dtype == np.float32
    assert result.converged.all()
