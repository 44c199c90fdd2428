"""The reconstruction stage, batched: one :class:`DecodeBackend` per operator.

Stage 3 of the paper's coordinator (l1 solve + wavelet synthesis) in
``float64`` (the Matlab reference), ``float32`` (the iPhone build) or
``hybrid`` (float32 FISTA with a residual-gated float64 polish).  Every
batched decode runs through a backend: ``CSDecoder.decode_batch`` and
its width-1 hybrid ``decode``, the fleet engine, and
:func:`~repro.fleet.engine.solve_measurement_block` (column-sharded
fleet and live gateway).  A backend owns the sensing matrix, the
synthesis, the dense or structured operator with its Lipschitz
constant, and the :class:`~repro.solvers.batched.BatchedFista`
workspace, and runs one solve at a time: the workspace is scratch
shared by every solve, so two callers on one operator (two gateway
groups that differ only in tolerance) would corrupt each other.

Each ``CSDecoder`` owns a lazily built backend (a fleet's non-lead
streams build none); pool workers and the gateway share one per key
and process through :func:`backend_for`.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..errors import ConfigurationError, SolverError
from ..sensing import SparseBinaryMatrix
from ..solvers import (
    BatchedFista,
    BatchedSolverResult,
    SolverResult,
    StructuredOperator,
)
from ..wavelet import WaveletTransform

#: every decode backend (the one list the CLI, handshake and decoder check)
PRECISIONS = ("float64", "float32", "hybrid")


def measurement_dtype(precision: str) -> type:
    """dtype of the measurement columns a ``precision`` backend takes
    (``"hybrid"`` takes float64 and casts its fast leg itself)."""
    return np.float32 if precision == "float32" else np.float64


def operator_key(config: SystemConfig, precision: str = "float64") -> tuple:
    """Identity of a backend's system operator ``A = Phi Psi^-1``.

    Per-lead seeds land each lead of a
    :class:`~repro.core.multichannel.MultiChannelMonitor` in its own
    group; a fleet shipping the paper's shared fixed matrix lands in one.
    """
    return (
        config.n,
        config.m,
        config.d,
        config.seed,
        config.wavelet,
        config.levels,
        precision,
    )


@dataclass(frozen=True)
class BlockResult:
    """One reconstructed block: ``signals`` ``(n, B)`` float64 without
    dc offset, per-column ``iterations`` (a polished hybrid column counts
    both legs) and ``polished`` (all ``False`` on the dense backends)."""

    signals: np.ndarray
    iterations: np.ndarray
    polished: np.ndarray
    solver_result: BatchedSolverResult = field(repr=False)

    def per_column(self, column: int) -> SolverResult:
        """Column ``column`` in the serial :class:`SolverResult` shape."""
        return self.solver_result.per_column(column)


class DecodeBackend:
    """The batched reconstruction stage for one ``(operator, precision)``."""

    def __init__(self, config: SystemConfig, precision: str = "float64") -> None:
        if precision not in PRECISIONS:
            raise ConfigurationError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        self.config = config
        self.precision = precision
        self.dtype = measurement_dtype(precision)
        #: hybrid solves on the factored operator, which owns synthesis
        self.structured = precision == "hybrid"
        matrix = SparseBinaryMatrix(
            config.m, config.n, d=config.d, seed=config.seed
        )
        self.transform = WaveletTransform(config.n, config.wavelet, config.levels)
        synthesis = self.transform.synthesis_matrix()
        if self.structured:
            structure = StructuredOperator(matrix, synthesis)
            self.solver = BatchedFista(
                structure.dense64,
                lipschitz=structure.lipschitz,
                structure=structure,
            )
        else:
            dense = (matrix.sparse() @ synthesis).astype(self.dtype)
            self.solver = BatchedFista(dense)
        self._lock = threading.Lock()

    def solve(
        self,
        block: np.ndarray,
        fractions: np.ndarray | float,
        x0: np.ndarray | None = None,
        *,
        max_iterations: int,
        tolerance: float,
        restart: bool,
    ) -> BlockResult:
        """Reconstruct one ``(m, B)`` block of dequantized measurements.

        ``fractions``: per-column lambda fractions (or one scalar).
        ``x0``: ``(n, B)`` warm start, dense backends only.  The stopping
        rule (``max_iterations``, ``tolerance`` and the per-column
        momentum ``restart``) is per call: a shared backend serves every
        stopping rule.
        """
        if x0 is not None and self.structured:
            raise SolverError("the hybrid backend does not take warm starts")
        with self._lock:
            if self.structured:
                hybrid = self.solver.solve_structured(
                    block,
                    fractions,
                    max_iterations=max_iterations,
                    tolerance=tolerance,
                    restart=restart,
                )
                return BlockResult(
                    hybrid.signals, hybrid.iterations, hybrid.polished, hybrid
                )
            lams = self.solver.lambdas(block, fractions)
            result = self.solver.solve(
                block,
                lams,
                max_iterations=max_iterations,
                tolerance=tolerance,
                x0=x0,
                restart=restart,
            )
            signals = self.transform.inverse_batch(result.coefficients)
        return BlockResult(
            np.asarray(signals, dtype=np.float64),
            result.iterations,
            np.zeros(result.iterations.shape, dtype=bool),
            result,
        )


#: this process's shared backends (see :func:`backend_for`)
_BACKENDS: dict[tuple, DecodeBackend] = {}


def backend_for(config: SystemConfig, precision: str) -> DecodeBackend:
    """This process's shared backend for ``config``'s operator, built
    on first use (a racing second build is dropped) and kept for the
    life of the process."""
    key = operator_key(config, precision)
    backend = _BACKENDS.get(key)
    if backend is None:
        backend = _BACKENDS.setdefault(key, DecodeBackend(config, precision))
    return backend


def _unlock_after_fork() -> None:
    # a forked child inherits the cache; a lock some parent thread held
    # mid-solve at fork time would otherwise stay held in the child
    for backend in _BACKENDS.values():
        backend._lock = threading.Lock()


os.register_at_fork(after_in_child=_unlock_after_fork)
