"""The one batched reconstruction stage behind every decode entry point.

``CSDecoder.decode_batch``, the fleet engine (in-process) and
``solve_measurement_block`` (the column-sharded fleet's and the live
gateway's solve) must reconstruct the same encoded block bit for bit,
in every precision.  A backend shared by two callers must also give
each of them its own answer when they solve at the same time.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.core import EcgMonitorSystem
from repro.core.backend import PRECISIONS
from repro.core.batch import encode_record_windows
from repro.fleet import FleetDecoder, StreamTask
from repro.fleet.engine import solve_measurement_block

WINDOWS = 5


def _encoded(config, precision, record):
    system = EcgMonitorSystem(config, precision=precision)
    system.calibrate(record)
    _windows, packets = encode_record_windows(
        system, record, max_packets=WINDOWS
    )
    return system, packets


def _task(config, precision, block, batch_size):
    return {
        "config": dataclasses.asdict(config),
        "precision": precision,
        "block": block,
        "fractions": np.full(block.shape[1], config.lam, dtype=np.float64),
        "batch_size": batch_size,
        "max_iterations": config.max_iterations,
        "tolerance": config.tolerance,
    }


@pytest.mark.parametrize("precision", PRECISIONS)
def test_batched_entry_points_agree_bit_for_bit(
    precision, small_config, record_100
):
    system, packets = _encoded(small_config, precision, record_100)
    decoder = system.decoder
    dc = decoder.dc_offset

    decoder.reset()
    batch = decoder.decode_batch(packets)
    via_decoder = np.stack([d.samples_adu for d in batch], axis=1)
    iterations_decoder = np.array([d.iterations for d in batch])

    (fleet,) = FleetDecoder(batch_size=WINDOWS).run(
        [
            StreamTask(
                system, record_100, max_packets=WINDOWS, keep_signals=True
            )
        ]
    )
    via_fleet = fleet.reconstructed_adu.reshape(WINDOWS, -1).T
    iterations_fleet = np.array([p.iterations for p in fleet.packets])

    decoder.reset()
    dtype = np.float32 if precision == "float32" else np.float64
    block = decoder.payload.measurement_block(packets, dtype)
    out = solve_measurement_block(
        _task(small_config, precision, block, WINDOWS)
    )
    via_block = out["signals"] + dc

    np.testing.assert_array_equal(via_fleet, via_decoder)
    np.testing.assert_array_equal(via_block, via_decoder)
    np.testing.assert_array_equal(iterations_fleet, iterations_decoder)
    np.testing.assert_array_equal(out["iterations"], iterations_decoder)


@pytest.mark.parametrize("precision", PRECISIONS)
def test_concurrent_solves_on_one_operator_stay_independent(
    precision, small_config, record_100
):
    """Groups on one sensing operator but with different stopping
    tolerances (one gateway drain loop each) solve at the same time on
    the process's shared backend; none may see another's scratch."""
    system, packets = _encoded(small_config, precision, record_100)
    dtype = np.float32 if precision == "float32" else np.float64
    system.decoder.reset()
    block = system.decoder.payload.measurement_block(packets, dtype)
    configs = [
        small_config.replace(tolerance=tolerance)
        for tolerance in (1e-4, 3e-5, 1e-5, 1e-6)
    ]
    tasks = [_task(cfg, precision, block, WINDOWS) for cfg in configs]
    expected = [solve_measurement_block(task) for task in tasks]

    rounds = 3
    barrier = threading.Barrier(len(tasks))
    outputs: list[list[dict]] = [[] for _ in tasks]

    def worker(index):
        barrier.wait()
        for _ in range(rounds):
            outputs[index].append(solve_measurement_block(tasks[index]))

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(len(tasks))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)

    for reference, runs in zip(expected, outputs):
        assert len(runs) == rounds
        for out in runs:
            np.testing.assert_array_equal(out["signals"], reference["signals"])
            np.testing.assert_array_equal(
                out["iterations"], reference["iterations"]
            )
