"""Fleet decode: operator-keyed cross-stream batching, sharded workers.

The paper's phone-side decoder is the system bottleneck, and the
batched engine of :mod:`repro.core.batch` only amortizes it *within*
one lead of one record.  A telecardiology coordinator faces the
opposite shape: many concurrent node streams — every lead of a
multi-lead monitor, many records, a fleet of wearables — where
throughput per core, not per-stream latency, is the budget.  This
package pools those sources into shared solves.

Architecture
============

**Operator-group keying.**  A batched FISTA solve iterates one dense
operator ``A = Phi Psi^-1`` over an ``(m, B)`` block, so only streams
with the *same* sensing matrix and wavelet basis can share a batch.
:func:`~repro.fleet.scheduler.operator_key` captures that identity
(``n``, ``m``, ``d``, seed, wavelet, levels, precision): per-lead
sensing seeds put each lead of a
:class:`~repro.core.multichannel.MultiChannelMonitor` in its own group,
while a fleet of nodes shipping the paper's shared fixed matrix
collapses into one.  Per group, the engine solves through exactly one
:class:`~repro.core.backend.DecodeBackend` — one operator, one
Lipschitz estimate, one contiguous transpose and one iteration
workspace; in-process that is the group lead decoder's own backend, in
a pool worker the process's :func:`~repro.core.backend.backend_for`
instance.  Batches are filled to the target width *across* the group's
streams, so ragged per-stream tails merge into full-width solves.
Per-stream state that cannot be shared — Huffman codebook, closed-loop
difference reference, lambda fraction, dc offset — stays with each
stream's :class:`~repro.core.decoder.PacketPayloadDecoder`, and decoded
windows are routed back to their originating
:class:`~repro.core.system.StreamResult` in order.

**No-matrix-pickling workers.**  With ``workers >= 2``, the work is
partitioned across a ``multiprocessing`` pool in one of two layouts.
With two or more operator groups, whole groups are sharded: a group
task serializes only primitives — each stream's scalar config fields,
its (kilobyte-scale) codebook and its packets as wire bytes, the same
integer payloads the radio carries.  With exactly one group (the
paper's fleet: every node ships the same fixed matrix), sharding
whole groups would serialize on one process's BLAS, so the engine
shards *within* the group instead: stages 1-2 run in the parent and
the pooled column stream is split into batch-aligned contiguous
slices, one per worker (:func:`~repro.fleet.engine.split_batches` /
:func:`~repro.fleet.engine.solve_measurement_block`).  In both
layouts workers rebuild the backend from the seed once per operator
and cache it for the life of the process, so no matrix is ever
pickled in either direction; only decoded sample/iteration arrays come
back.  Both layouts and the in-process path run the same batch loop
over the same backend, which is what keeps them bit-identical.  The single-process fallback applies when
``workers in (None, 0, 1)``, when the only group's windows fit a
single batch (nothing to shard), or when the platform cannot start a
pool — the latter two emit one ``RuntimeWarning`` naming the reason.

Equivalence contract: packets are produced by the unchanged integer
encoder (bit-identical to the serial reference), and every pooled
column follows the serial FISTA iterate sequence via the batched
solver's per-column convergence masking — reconstructions match the
serial path to solver floating-point noise regardless of how batches
span streams.  ``tests/fleet/test_fleet.py`` pins this the same way
``tests/core/test_batch.py`` pins the single-stream engine.
"""

from .engine import (
    FleetDecoder,
    StreamTask,
    decode_fleet,
    solve_measurement_block,
    split_batches,
)
from .scheduler import (
    GroupSchedule,
    build_schedules,
    operator_key,
    solve_key,
)

__all__ = [
    "FleetDecoder",
    "StreamTask",
    "decode_fleet",
    "solve_measurement_block",
    "split_batches",
    "GroupSchedule",
    "build_schedules",
    "operator_key",
    "solve_key",
]
