"""The gateway process: an ``IngestGateway`` driven over a pipe.

The benchmark runs this file as a process of its own::

    python3 perfbench/gatewayhost.py <command fd> <reply fd> <settings json> <traced 0|1>

The gateway listens on an OS-assigned localhost port and reports it;
the command pipe carries two commands:

``mark``   warm-up is over: note the process-tree CPU time and a
           telemetry snapshot (the timed run starts here);
``close``  close the gateway and send back its stream results, the
           telemetry delta since ``mark``, the CPU seconds the process
           tree used since ``mark`` and, when traced, the spans.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import resource
import sys
from multiprocessing.connection import Connection
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ingest import IngestGateway  # noqa: E402
from repro.telemetry import MetricsRegistry  # noqa: E402

import spans  # noqa: E402

_TICKS = os.sysconf("SC_CLK_TCK")


def tree_cpu_seconds() -> float:
    """CPU time of this process, its reaped children and its live ones.

    Pool workers are live until the gateway closes and reaped after,
    so the sum is continuous across the close.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue  # exited between the listing and the read
        # fields[11], fields[12]: utime, stime (fields 14, 15 of stat)
        total += (int(fields[11]) + int(fields[12])) / _TICKS
    return total


async def serve(rx, tx, settings: dict, traced: bool) -> None:
    """Run the gateway until ``close`` (or until the command pipe ends)."""
    tracer = None
    telemetry = MetricsRegistry()
    if traced:
        tracer = spans.Tracer()
        spans.install_gateway(tracer)
        telemetry = spans.TracingRegistry(tracer)
    gateway = IngestGateway(
        batch_size=settings["batch_size"],
        flush_ms=settings["flush_ms"],
        workers=settings["workers"],
        telemetry=telemetry,
    )
    # commands arrive through the event loop, not a reader thread: the
    # gateway's solve pool forks its workers from this process
    commands: asyncio.Queue = asyncio.Queue()

    def on_command() -> None:
        try:
            commands.put_nowait(rx.recv())
        except EOFError:  # the benchmark went away: close and exit
            asyncio.get_running_loop().remove_reader(rx.fileno())
            commands.put_nowait("close")

    asyncio.get_running_loop().add_reader(rx.fileno(), on_command)
    port = await gateway.start("127.0.0.1", 0)
    tx.send(("ready", port))
    cpu_mark, snapshot_mark = tree_cpu_seconds(), telemetry.snapshot()
    while (command := await commands.get()) != "close":
        if command == "mark":
            cpu_mark, snapshot_mark = tree_cpu_seconds(), telemetry.snapshot()
            tx.send(("marked",))
    await gateway.close()
    cpu = tree_cpu_seconds() - cpu_mark
    delta = telemetry.snapshot().delta_since(snapshot_mark)
    try:
        tx.send(
            (
                "closed",
                {
                    "results": gateway.results,
                    "telemetry": delta.to_dict(),
                    "cpu_s": cpu,
                    "trace": tracer.export() if tracer is not None else None,
                },
            )
        )
    except (BrokenPipeError, OSError):
        pass


if __name__ == "__main__":
    asyncio.run(
        serve(
            Connection(int(sys.argv[1]), writable=False),
            Connection(int(sys.argv[2]), readable=False),
            json.loads(sys.argv[3]),
            sys.argv[4] == "1",
        )
    )
