"""The load generator: simulated nodes on TCP links, in one asyncio loop.

Each node encodes a window when it is due (node ADC -> ``CSEncoder``),
frames it, writes it to its link and stamps the ``DECODED`` ack when it
arrives.  The gateway runs in a process of its own
(:class:`GatewayProcess`), started through its public API.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

from repro.errors import ProtocolError
from repro.ingest import FrameKind, Handshake, encode_frame, read_frame
from repro.ingest.protocol import decode_json_body, encode_json_frame

import gatewayhost

#: length prefix + kind byte of every frame
FRAME_OVERHEAD = 5


class GatewayProcess:
    """An ``IngestGateway`` in a process of its own, driven over pipes.

    The process is a fresh interpreter, as ``repro-ecg serve`` would
    be, so the gateway's solve pool starts its workers the platform's
    default way.
    """

    def __init__(self, settings: dict, traced: bool, timeout_s: float = 30.0) -> None:
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        try:
            self._process = subprocess.Popen(
                [
                    sys.executable,
                    gatewayhost.__file__,
                    str(down_r),
                    str(up_w),
                    json.dumps(settings),
                    "1" if traced else "0",
                ],
                pass_fds=(down_r, up_w),
                stdout=sys.stderr,
            )
        finally:
            os.close(down_r)
            os.close(up_w)
        self._tx = Connection(down_w, readable=False)
        self._rx = Connection(up_r, writable=False)
        try:
            _, self.port = self._reply("ready", timeout_s)
        except BaseException:
            self.stop()
            raise

    def _reply(self, expected: str, timeout_s: float):
        if not self._rx.poll(timeout_s):
            raise TimeoutError(f"gateway process sent no {expected!r} in {timeout_s:.0f} s")
        message = self._rx.recv()
        if message[0] != expected:
            raise RuntimeError(f"gateway process sent {message[0]!r}, wanted {expected!r}")
        return message

    def mark(self) -> None:
        """End of warm-up: the gateway notes CPU time and telemetry."""
        self._tx.send("mark")
        self._reply("marked", 60.0)

    def close(self, timeout_s: float = 40.0) -> dict:
        """Close the gateway; returns its results, telemetry and CPU."""
        try:
            self._tx.send("close")
            return self._reply("closed", timeout_s)[1]
        finally:
            self.stop()

    def stop(self) -> None:
        """Make sure the process has ended (kills it if it must)."""
        self._tx.close()  # an idle gateway reads EOF and shuts down
        try:
            self._process.wait(10.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._rx.close()


@dataclass
class SessionLog:
    """What the generator saw of one node session."""

    node: object
    due: list[float]  # when each window's samples are complete
    stream_id: int | None = None
    sent: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    packet_bytes: list[int] = field(default_factory=list)
    frame_bytes: list[int] = field(default_factory=list)
    #: one tuple per DECODED ack: (sequence, arrival, gateway
    #: latency_ms, iterations, frame bytes)
    acks: list[tuple] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


async def _collect_acks(reader, log: SessionLog) -> None:
    """Read acks until every window is acked, an ERROR arrives or the
    gateway closes the link."""
    while len(log.acks) < len(log.due):
        frame = await read_frame(reader)
        if frame is None:
            return
        kind, body = frame
        arrived = time.perf_counter()
        if kind is FrameKind.DECODED:
            ack = decode_json_body(body)
            log.acks.append(
                (
                    int(ack["sequence"]),
                    arrived,
                    float(ack["latency_ms"]),
                    int(ack["iterations"]),
                    FRAME_OVERHEAD + len(body),
                )
            )
        elif kind is FrameKind.ERROR:
            log.errors.append(str(decode_json_body(body).get("error")))
            return
        else:
            log.errors.append(f"unexpected {kind.name} frame")


async def _run_session(port: int, precision: str, log: SessionLog) -> None:
    node = log.node
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    acks = None
    try:
        hello = Handshake(
            record=node.record,
            channel=0,
            config=node.config,
            codebook=node.encoder.codebook,
            precision=precision,
        )
        writer.write(hello.to_frame())
        await writer.drain()
        frame = await read_frame(reader)
        if frame is None or frame[0] is not FrameKind.WELCOME:
            raise ProtocolError(f"no WELCOME for {node.record}: {frame!r}")
        log.stream_id = int(decode_json_body(frame[1])["stream_id"])
        acks = asyncio.create_task(_collect_acks(reader, log))
        encoder = node.encoder
        encoder.reset()
        ready = time.perf_counter()
        for index, due in enumerate(log.due):
            delay = due - time.perf_counter()
            # yield even when late, so acks are stamped as they arrive
            await asyncio.sleep(max(delay, 0.0))
            packet = encoder.encode(node.windows[index])
            body = packet.to_bytes()
            writer.write(encode_frame(FrameKind.PACKET, body))
            sent = time.perf_counter()
            log.sent.append(sent)
            log.late.append(sent - max(due, ready))
            log.packet_bytes.append(len(body))
            log.frame_bytes.append(FRAME_OVERHEAD + len(body))
            await writer.drain()
            ready = time.perf_counter()
        writer.write(encode_json_frame(FrameKind.BYE, {"windows": len(log.due)}))
        await writer.drain()
        # like the repository's NodeClient, the node hangs up after its
        # last ack rather than waiting for the gateway's close: with a
        # solve pool, workers forked while this link was open hold its
        # socket, so the gateway's close never reaches the node
        await acks
    finally:
        if acks is not None and not acks.done():
            acks.cancel()
            await asyncio.gather(acks, return_exceptions=True)
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def _run_link(port: int, precision: str, logs: list[SessionLog]) -> None:
    for log in logs:
        try:
            await _run_session(port, precision, log)
        except (OSError, ProtocolError) as exc:
            log.errors.append(f"{type(exc).__name__}: {exc}")


def drive(port: int, precision: str, links: list[list[SessionLog]], timeout_s: float) -> bool:
    """Run every link's sessions; ``False`` if the deadline cut the run."""

    async def main() -> bool:
        tasks = [asyncio.create_task(_run_link(port, precision, logs)) for logs in links]
        done, pending = await asyncio.wait(tasks, timeout=timeout_s)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        for task in done:
            task.result()  # a generator bug must not pass as a slow gateway
        return not pending

    return asyncio.run(main())
