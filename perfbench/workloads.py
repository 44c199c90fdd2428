"""Workload definitions: gateway settings, node corpus and send schedule.

Every workload runs two node links (``nproc`` on the reference box)
against one gateway process.  A link carries its nodes one session
after another, so one run covers ``LINKS * sessions`` distinct
synthetic records: how hard a window is to decode depends on the
record, and two records per run made PRD and solver cost swing with
the seed far more than with the code (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.config import SystemConfig
from repro.core import CSEncoder
from repro.core.batch import window_record
from repro.ecg import RECORD_NAMES, SyntheticMitBih
from repro.ecg.resample import resample_record

LINKS = 2
#: idle slot between two sessions of an open-loop link: the ending
#: session's BYE and the next node's HELLO happen here, off the schedule
SESSION_GAP_S = 0.5
#: the paper's real-time budget: a window must be decoded before the
#: next one (2 s of samples later) is due
BUDGET_S = 2.0
#: windows the node calibration (codebook training) reads
CALIBRATION_WINDOWS = 30


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    precision: str
    workers: int | None
    #: open loop: one window per link every ``period_s``; ``None`` is a
    #: burst: each link queues its whole run at the start (every window
    #: is due then), so only gateway backpressure paces it
    period_s: float | None
    #: node sessions each link carries, one after another
    sessions: int = 12
    #: burst sizing: windows per second of ``--seconds`` in total
    burst_rate: float = 0.0
    batch_size: int = 16
    flush_ms: float = 250.0

    @property
    def settings(self) -> dict:
        return {
            "batch_size": self.batch_size,
            "flush_ms": self.flush_ms,
            "workers": self.workers,
        }

    def windows_per_session(self, seconds: float) -> int:
        if self.period_s is not None:
            active = seconds - (self.sessions - 1) * SESSION_GAP_S
            count = active / self.sessions / self.period_s
        else:
            count = seconds * self.burst_rate / (LINKS * self.sessions)
        return max(2, int(count))

    def schedule(self, t0: float, seconds: float) -> list[list[np.ndarray]]:
        """Due times per link, per session (``perf_counter`` seconds).

        The second link runs half a session out of phase with the
        first, so the two links never change nodes at the same moment.
        """
        width = self.windows_per_session(seconds)
        links = []
        for link in range(LINKS):
            if self.period_s is None:
                # the whole run is queued at t0; uneven first and last
                # sessions shift this link's node changes by half a session
                shift = link * width // LINKS
                sizes = [width] * self.sessions
                sizes[0] -= shift
                sizes[-1] += shift
                links.append([np.full(size, t0) for size in sizes])
                continue
            cycle = width * self.period_s + SESSION_GAP_S
            starts = t0 + link * cycle / LINKS + cycle * np.arange(self.sessions)
            links.append([start + self.period_s * np.arange(width) for start in starts])
        return links


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "realtime_hybrid",
            "open loop at 16 windows/s (32 real-time nodes): flush-deadline "
            "batching and partial-batch hybrid solves set the latency",
            precision="hybrid",
            workers=None,
            period_s=0.125,
        ),
        Workload(
            "burst_hybrid",
            "whole run queued at once, paced only by gateway backpressure: "
            "full batches, the structured FISTA solve dominates",
            precision="hybrid",
            workers=None,
            period_s=None,
            sessions=24,
            burst_rate=60.0,
        ),
        Workload(
            "burst_float64_pool",
            "the same burst through the dense float64 solver, batched "
            "wavelet synthesis and the gateway's two-worker process pool",
            precision="float64",
            workers=2,
            period_s=None,
            sessions=24,
            burst_rate=24.0,
        ),
    )
}

#: the workloads ``BENCHMARK.json`` names (and ``--workload all`` runs);
#: ``burst_float64_pool`` is left out until its pool is steady (README.md)
BENCHMARKED = ("realtime_hybrid", "burst_hybrid")


@dataclass
class Node:
    """One simulated body-worn node: an encoder with its calibrated
    codebook, and its ADC windows (integer samples, as digitized)."""

    record: str
    config: SystemConfig
    encoder: CSEncoder
    windows: np.ndarray  # (count, n) int

    @property
    def stream_key(self) -> str:
        return f"{self.record}:0"


def make_nodes(seed: int, sessions: int, windows: int) -> list[list[Node]]:
    """Synthesize the seed's corpus and calibrate one node per record.

    The seed picks the corpus realization and ``LINKS * sessions``
    distinct records; returns the nodes per link.
    """
    rng = random.Random(seed)
    names = rng.sample(RECORD_NAMES, LINKS * sessions)
    config = SystemConfig()
    count = max(windows, CALIBRATION_WINDOWS)
    corpus = SyntheticMitBih(
        duration_s=count * config.packet_seconds + 2.0,
        seed=rng.randrange(1 << 30),
    )
    nodes = []
    for name in names:
        resampled = resample_record(corpus.load(name), float(config.sample_rate_hz))
        samples = window_record(
            resampled.adc.digitize(resampled.channel(0)), config.n, count
        )
        encoder = CSEncoder(config)
        # the codebook a node ships with: trained offline on its first
        # windows, as EcgMonitorSystem.calibrate does
        encoder.train_codebook_on(list(samples[:CALIBRATION_WINDOWS]))
        nodes.append(Node(name, config, encoder, samples[:windows]))
    return [nodes[link::LINKS] for link in range(LINKS)]
