"""Gateway process-pool faults: a killed worker and inherited sockets.

With ``workers >= 2`` the gateway solves in a forked process pool.  A
worker that dies (OOM killer, SIGKILL) must cost at most the batch it
was holding: the node gets an ERROR frame, the pool is rebuilt, later
streams decode, and ``close()`` returns.  Forked workers also inherit
every node socket open at fork time, so the gateway's hang-up must
reach the node even while a worker still holds the descriptor.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.core import EcgMonitorSystem
from repro.ingest import (
    FrameKind,
    Handshake,
    IngestGateway,
    NodeClient,
    encode_frame,
    encoded_packets,
    read_frame,
)

#: wall-clock bound on every wait below; the parent's defects hang
BOUND_S = 30.0


def _system(config, record):
    system = EcgMonitorSystem(config)
    system.calibrate(record)
    return system


def _hello(system, record):
    return Handshake(
        record=record.name,
        channel=0,
        config=system.config,
        codebook=system.encoder.codebook,
    ).to_frame()


async def _frames_until_eof(reader) -> list:
    frames = []
    while True:
        frame = await read_frame(reader)
        if frame is None:
            return frames
        frames.append(frame)


async def _raw_stream(gateway, system, record, packets) -> list:
    reader, writer = gateway.connect_local()
    writer.write(_hello(system, record))
    for packet in packets:
        writer.write(encode_frame(FrameKind.PACKET, packet.to_bytes()))
    writer.write(encode_frame(FrameKind.BYE))
    return await asyncio.wait_for(_frames_until_eof(reader), BOUND_S)


def test_killed_pool_worker_fails_one_batch_then_recovers(
    small_config, database
):
    record = database.load("100")
    system = _system(small_config, record)
    packets = encoded_packets(system, record, max_packets=2)

    async def run():
        gateway = IngestGateway(batch_size=2, flush_ms=60.0, workers=2)
        reader, writer = gateway.connect_local()
        client = NodeClient(system, record, max_packets=2, interval_s=0.0)
        await asyncio.wait_for(client.run(reader, writer), BOUND_S)
        pool = gateway._process_pool
        if pool is None:
            await gateway.close()
            pytest.skip("no process pool on this platform")
        os.kill(next(iter(pool._processes)), signal.SIGKILL)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + BOUND_S
        while not pool._broken and loop.time() < deadline:
            await asyncio.sleep(0.01)
        assert pool._broken, "the pool never noticed its dead worker"

        with pytest.warns(RuntimeWarning, match="dropped a batch"):
            hit = await _raw_stream(gateway, system, record, packets)
        after = await _raw_stream(gateway, system, record, packets)
        await asyncio.wait_for(gateway.close(drain_s=5.0), BOUND_S)
        return gateway, hit, after

    gateway, hit, after = asyncio.run(run())
    hit_kinds = [kind for kind, _ in hit]
    assert FrameKind.ERROR in hit_kinds or (
        hit_kinds.count(FrameKind.DECODED) == len(packets)
    )
    # the pool was rebuilt: the next stream decodes in full
    after_kinds = [kind for kind, _ in after]
    assert after_kinds.count(FrameKind.DECODED) == len(packets)
    assert FrameKind.ERROR not in after_kinds
    snap = gateway.telemetry.snapshot()
    assert snap.counter_total("ingest_pool_restarts") == 1


def test_hang_up_reaches_node_despite_forked_workers(
    small_config, database
):
    """Pool workers forked while a TCP link is open hold its socket;
    the gateway must still deliver EOF after the node's BYE."""
    record = database.load("100")
    system = _system(small_config, record)
    packets = encoded_packets(system, record, max_packets=2)

    async def run():
        gateway = IngestGateway(batch_size=2, flush_ms=60.0, workers=2)
        port = await gateway.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(_hello(system, record))
        for packet in packets:
            writer.write(encode_frame(FrameKind.PACKET, packet.to_bytes()))
        await writer.drain()
        decoded = 0
        while decoded < len(packets):
            frame = await asyncio.wait_for(read_frame(reader), BOUND_S)
            assert frame is not None
            decoded += frame[0] is FrameKind.DECODED
        pooled = gateway._process_pool is not None
        writer.write(encode_frame(FrameKind.BYE))
        await writer.drain()
        try:
            await asyncio.wait_for(_frames_until_eof(reader), BOUND_S)
        finally:
            writer.close()
            await asyncio.wait_for(gateway.close(drain_s=5.0), BOUND_S)
        return pooled

    if not asyncio.run(run()):
        pytest.skip("no process pool on this platform")
