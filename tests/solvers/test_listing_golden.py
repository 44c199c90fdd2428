"""Golden pins of the paper's FISTA listing (``restart=False``).

The paper's constant-step schedule is the library default and the
numerical oracle of every other solver path.  These tests freeze it:
fixed seeded problems must keep returning exactly the iteration counts
and coefficients recorded from the listing, through the serial solver,
the batched solver and the fig-7 driver (whose iteration counts model
the iPhone decode time).  A change that alters the listing — a restart
rule leaking into the default, a reordered update — fails here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.ecg import SyntheticMitBih
from repro.experiments import run_fig7
from repro.sensing import SparseBinaryMatrix
from repro.solvers import (
    batched_fista,
    batched_lambda_from_fraction,
    fista,
)
from repro.solvers.lipschitz import lipschitz_constant
from repro.solvers.prox import soft_threshold
from repro.wavelet import WaveletTransform

MAX_ITERATIONS = 700
TOLERANCE = 1e-6

#: per column: (iterations, ||alpha||_1, <w, alpha>) of the listing,
#: with w = linspace(1, 2, n); columns 3 and 5 run to the cap
GOLDEN = (
    (549, 14.218429110776086, 0.26752873844324654),
    (498, 24.100788530050796, 15.197008275674161),
    (427, 45.720284877412524, 36.421091038470465),
    (700, 21.81968987509489, -15.930130214096785),
    (574, 30.625409908081412, 36.10011712617141),
    (700, 24.869161995729158, -6.939830388295768),
    (548, 29.3228561626025, 15.512469700272055),
    (556, 34.19818309074551, -28.350071668205477),
    (556, 45.184075956361056, 11.504961663602824),
    (653, 49.43868060280594, 35.85527166469825),
)

#: mean float32 iterations per packet of ``run_fig7`` at CR 30 and 70
#: on records 100 and 106 of the 24 s corpus, 3 packets each
GOLDEN_FIG7_ITERATIONS = (788.0, 1786.0)


@pytest.fixture(scope="module")
def golden_problem():
    """Ten noisy sparse columns (6..15 nonzeros) in a 64x128 system."""
    rng = np.random.default_rng(2011)
    n, m = 128, 64
    transform = WaveletTransform(n, "db4", 3)
    phi = SparseBinaryMatrix(m, n, d=6, seed=11)
    a = np.asarray(phi.sparse() @ transform.synthesis_matrix())
    columns = []
    for b in range(len(GOLDEN)):
        alpha = np.zeros(n)
        k = 6 + b
        alpha[rng.choice(n, k, replace=False)] = rng.standard_normal(k) * 4.0
        columns.append(a @ alpha)
    ys = np.stack(columns, axis=1) + 0.02 * rng.standard_normal(
        (m, len(GOLDEN))
    )
    lipschitz = lipschitz_constant(a)
    lams = batched_lambda_from_fraction(a, ys, 0.01)
    return a, ys, lams, lipschitz


def paper_listing(a, y, lam, lipschitz):
    """The listing of Section II-B, transcribed line for line."""
    step = 1.0 / lipschitz
    threshold = lam / lipschitz
    alpha_prev = np.zeros(a.shape[1])
    momentum = alpha_prev.copy()
    t_k = 1.0
    for iteration in range(1, MAX_ITERATIONS + 1):
        gradient = 2.0 * (a.T @ (a @ momentum - y))
        alpha = soft_threshold(momentum - step * gradient, threshold)
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k)) / 2.0
        momentum = alpha + ((t_k - 1.0) / t_next) * (alpha - alpha_prev)
        t_k = t_next
        change = np.linalg.norm(alpha - alpha_prev) / max(
            np.linalg.norm(alpha_prev), 1.0
        )
        alpha_prev = alpha
        if change < TOLERANCE:
            break
    return alpha, iteration


def assert_golden(column, iterations, coefficients):
    expected_iterations, l1, weighted = GOLDEN[column]
    weights = np.linspace(1.0, 2.0, coefficients.size)
    assert iterations == expected_iterations
    assert float(np.sum(np.abs(coefficients))) == pytest.approx(
        l1, rel=1e-9
    )
    assert float(np.dot(weights, coefficients)) == pytest.approx(
        weighted, rel=1e-9, abs=1e-9
    )


@pytest.mark.parametrize("column", range(len(GOLDEN)))
def test_serial_listing_is_pinned(golden_problem, column):
    a, ys, lams, lipschitz = golden_problem
    result = fista(
        a,
        ys[:, column],
        lams[column],
        max_iterations=MAX_ITERATIONS,
        tolerance=TOLERANCE,
        lipschitz=lipschitz,
        restart=False,
    )
    assert_golden(column, result.iterations, result.coefficients)
    # and it is the listing itself, operation for operation
    reference, iterations = paper_listing(
        a, ys[:, column], lams[column], lipschitz
    )
    assert result.iterations == iterations
    np.testing.assert_array_equal(result.coefficients, reference)


def test_serial_default_is_the_listing(golden_problem):
    a, ys, lams, lipschitz = golden_problem
    kwargs = dict(
        max_iterations=MAX_ITERATIONS,
        tolerance=TOLERANCE,
        lipschitz=lipschitz,
    )
    default = fista(a, ys[:, 0], lams[0], **kwargs)
    listing = fista(a, ys[:, 0], lams[0], restart=False, **kwargs)
    assert default.iterations == listing.iterations
    np.testing.assert_array_equal(default.coefficients, listing.coefficients)


def test_batched_listing_is_pinned(golden_problem):
    """Ten columns, two capped: compaction fires mid-solve."""
    a, ys, lams, lipschitz = golden_problem
    result = batched_fista(
        a,
        ys,
        lams,
        max_iterations=MAX_ITERATIONS,
        tolerance=TOLERANCE,
        lipschitz=lipschitz,
        restart=False,
    )
    for column in range(len(GOLDEN)):
        assert_golden(
            column,
            int(result.iterations[column]),
            result.coefficients[:, column],
        )
    default = batched_fista(
        a,
        ys,
        lams,
        max_iterations=MAX_ITERATIONS,
        tolerance=TOLERANCE,
        lipschitz=lipschitz,
    )
    np.testing.assert_array_equal(default.iterations, result.iterations)
    np.testing.assert_array_equal(default.coefficients, result.coefficients)


def test_fig7_iterations_are_pinned():
    """The figure path still runs the listing end to end."""
    rows = run_fig7(
        nominal_crs=(30.0, 70.0),
        records=("100", "106"),
        packets_per_record=3,
        database=SyntheticMitBih(duration_s=24.0, seed=2011),
    )
    assert tuple(row["iterations"] for row in rows) == GOLDEN_FIG7_ITERATIONS
