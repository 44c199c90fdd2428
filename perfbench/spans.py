"""In-memory spans around each layer's public entry points.

A traced run installs the wrappers below (class attributes and the
gateway module's imported names are patched in place; nothing under
``src/`` changes).  Every span records its name, start, end, parent
and the window it belongs to, ``(stream, sequence)``.  Spans stay in
memory and are handed to the benchmark when the run ends.

Window identity is threaded through the layers without touching the
program:

* ``read_frame`` sees the HELLO of its link, so later PACKET frames
  on that reader carry the stream key (``record:channel``);
* ``StreamRecovery.on_packet`` receives the very ``bytes`` object the
  frame read returned, which links the two spans and yields the
  packet sequence;
* ``PacketPayloadDecoder.decode_payload`` is keyed by its decoder
  (one per session), and ``dequantize`` follows it on the same thread;
* a dequantized column's bytes hash names the window inside a pooled
  solve block, also when the block is solved in a pool worker.

All clocks are ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so
spans from the generator, the gateway and its pool workers share one
time base.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import threading
import time

from repro.telemetry import MetricsRegistry

#: key under which a pool worker's spans ride home inside the telemetry
#: delta that ``solve_measurement_block`` already returns
SHIPPED_KEY = "perfbench_spans"

#: the tracer reached from ``traced_solve``; the gateway pickles that
#: function by reference into its pool workers, so it can only find
#: its tracer through a module global (forked workers inherit it)
_ACTIVE: "Tracer | None" = None


def column_key(column) -> str:
    """Stable identity of one dequantized measurement column."""
    return hashlib.blake2b(column.tobytes(), digest_size=8).hexdigest()


class Span:
    """One timed call: ``(id, name, start, end, parent, stream, seq, extra)``."""

    __slots__ = ("id", "name", "start", "end", "parent", "stream", "seq", "extra")

    def __init__(self, span_id, name, start, parent):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.stream = None
        self.seq = None
        self.extra = None

    def to_tuple(self) -> tuple:
        return tuple(getattr(self, slot) for slot in self.__slots__)

    @classmethod
    def from_tuple(cls, values) -> "Span":
        span = cls.__new__(cls)
        for slot, value in zip(cls.__slots__, values):
            setattr(span, slot, value)
        return span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span buffer of one process; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: reader id -> stream key, learned from the link's HELLO
        self.reader_streams: dict[int, str] = {}
        #: id(frame body) -> its read_frame span, until on_packet runs
        self.frames: dict[int, Span] = {}
        #: payload-decoder id -> stream key
        self.decoder_streams: dict[int, str] = {}
        #: dequantized column hash -> (stream, sequence)
        self.columns: dict[str, tuple[str, int]] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        span = Span((os.getpid(), next(self._ids)), name, time.perf_counter(), parent)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def leaf(self, name: str, start: float, end: float) -> Span:
        """A span timed by the caller (async code cannot use the stack)."""
        span = Span((os.getpid(), next(self._ids)), name, start, None)
        span.end = end
        self.spans.append(span)
        return span

    @property
    def last_window(self):
        return getattr(self._local, "window", None)

    @last_window.setter
    def last_window(self, window) -> None:
        self._local.window = window

    def export(self) -> dict:
        return {
            "spans": [span.to_tuple() for span in self.spans],
            "columns": dict(self.columns),
        }


def _wrap(owner, attr: str, tracer: Tracer, name: str, after=None):
    """Replace ``owner.attr`` by a timed call; returns the undo pair."""
    real = getattr(owner, attr)

    @functools.wraps(real)
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = real(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, result)
        return result

    setattr(owner, attr, traced)
    return owner, attr, real


def _count_columns(span, args, result) -> None:
    block = args[1]
    span.extra = int(block.shape[1]) if block.ndim == 2 else 1


class _StampedReader:
    """Reader proxy noting when a frame's first bytes arrived, so the
    read_frame span measures framing work and not the idle wait for
    the node's next window."""

    def __init__(self, reader) -> None:
        self._reader = reader
        self.first: float | None = None

    async def readexactly(self, count: int) -> bytes:
        data = await self._reader.readexactly(count)
        if self.first is None:
            self.first = time.perf_counter()
        return data


def traced_solve(task: dict) -> dict:
    """``solve_measurement_block`` under a span naming its windows.

    In a pool worker the worker's spans ship home inside the call's
    telemetry delta and :class:`TracingRegistry` unpacks them.
    """
    from repro.fleet import engine

    tracer = _ACTIVE
    in_worker = os.getpid() != tracer.pid
    if in_worker:
        tracer.spans.clear()  # inherited from the gateway at fork
    span = tracer.open("engine.solve")
    try:
        out = engine.solve_measurement_block(task)
    finally:
        tracer.close(span)
    block = task["block"]
    span.extra = [column_key(block[:, index]) for index in range(block.shape[1])]
    if in_worker:
        shipped = [s.to_tuple() for s in tracer.spans]
        tracer.spans.clear()
        out["telemetry"] = dict(out["telemetry"], **{SHIPPED_KEY: shipped})
    return out


class TracingRegistry(MetricsRegistry):
    """Telemetry registry that collects spans shipped by pool workers."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def absorb(self, snapshot) -> None:
        if isinstance(snapshot, dict) and SHIPPED_KEY in snapshot:
            snapshot = dict(snapshot)
            shipped = snapshot.pop(SHIPPED_KEY)
            self.tracer.spans.extend(Span.from_tuple(values) for values in shipped)
        super().absorb(snapshot)


def install_gateway(tracer: Tracer) -> None:
    """Wrap the gateway-side layers: framing, admission, stages 1-2,
    the solve dispatch, the batched solver and wavelet synthesis."""
    global _ACTIVE
    from repro.core.decoder import PacketPayloadDecoder
    from repro.core.quantizer import MeasurementQuantizer
    from repro.ingest import gateway
    from repro.ingest.channel import FrameVerdict, StreamRecovery
    from repro.ingest.protocol import FrameKind
    from repro.solvers import BatchedFista
    from repro.wavelet import WaveletTransform

    _ACTIVE = tracer
    real_read_frame = gateway.read_frame

    async def read_frame(reader):
        stamped = _StampedReader(reader)
        frame = await real_read_frame(stamped)
        end = time.perf_counter()
        if frame is None:
            return frame
        kind, body = frame
        if kind is FrameKind.HELLO:
            hello = json.loads(body)
            tracer.reader_streams[id(reader)] = f"{hello['record']}:{hello['channel']}"
        elif kind is FrameKind.PACKET:
            span = tracer.leaf("protocol.read_frame", stamped.first, end)
            span.stream = tracer.reader_streams.get(id(reader))
            tracer.frames[id(body)] = span
        return frame

    gateway.read_frame = read_frame
    gateway.solve_measurement_block = traced_solve

    def admitted(span, args, events) -> None:
        recovery, body = args
        frame = tracer.frames.pop(id(body), None)
        stream = frame.stream if frame is not None else None
        tracer.decoder_streams[id(recovery.payload)] = stream
        for verdict, packet in events:
            if verdict is FrameVerdict.ACCEPT:
                for target in (span, frame):
                    if target is not None:
                        target.stream, target.seq = stream, packet.sequence
                break

    def payload_decoded(span, args, result) -> None:
        decoder, packet = args
        span.stream = tracer.decoder_streams.get(id(decoder))
        span.seq = packet.sequence
        tracer.last_window = (span.stream, span.seq)

    def dequantized(span, args, column) -> None:
        window = tracer.last_window
        if window is not None:
            span.stream, span.seq = window
            tracer.columns[column_key(column)] = window

    _wrap(StreamRecovery, "on_packet", tracer, "channel.admit", admitted)
    _wrap(PacketPayloadDecoder, "decode_payload", tracer, "decoder.payload", payload_decoded)
    _wrap(MeasurementQuantizer, "dequantize", tracer, "decoder.dequantize", dequantized)
    _wrap(BatchedFista, "solve", tracer, "batched.solve", _count_columns)
    _wrap(BatchedFista, "solve_structured", tracer, "batched.solve_structured", _count_columns)
    _wrap(WaveletTransform, "inverse_batch", tracer, "wavelet.inverse_batch", _count_columns)


def install_node(tracer: Tracer, encoder_streams: dict[int, str]):
    """Wrap the node encoder; returns a callable that removes the wrapper."""
    from repro.core.encoder import CSEncoder

    def encoded(span, args, packet) -> None:
        span.stream = encoder_streams.get(id(args[0]))
        span.seq = packet.sequence

    owner, attr, real = _wrap(CSEncoder, "encode", tracer, "encoder.encode", encoded)
    return lambda: setattr(owner, attr, real)


def self_times(spans: list[Span]) -> dict:
    """Span id -> duration minus the part its children cover."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span.id] = span.duration - covered
    return result
