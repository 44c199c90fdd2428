"""The repository benchmark: node ADC -> DECODED ack through a live gateway.

Run from the repository root::

    python3 perfbench/run.py --workload realtime_hybrid --seed 1 --seconds 30
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

One run synthesizes the seed's corpus, calibrates the nodes, starts an
``IngestGateway`` in its own process and warms it up with one full
batch per link (all of that is ``setup_s``), then plays the workload
from a single asyncio process over two TCP links and checks every
decoded window against the node's original samples.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes an
untraced run and then a traced run of the same workload and seed, and
prints the per-layer metrics of the traced one (see README.md).  The
last line of standard output is one JSON object; the exit code is
non-zero when the output check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"
if not (SOURCE / "repro").is_dir():
    print(f"perfbench: no program sources at {SOURCE}", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(SOURCE), str(HERE)]

import loadgen  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: full setups per untraced run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: slack past the schedule before a run is cut and its windows failed;
#: with the set-ups and the close it keeps a stuck run under 180 s
DRIVE_SLACK_S = 45.0


def _setup(workload, seed: int, seconds: float, traced: bool):
    """Everything before the timed run; returns (nodes per link, gateway)."""
    longest = max(
        workload.batch_size,
        *(len(dues) for link in workload.schedule(0.0, seconds) for dues in link),
    )
    links = workloads.make_nodes(seed, workload.sessions, longest)
    gateway = loadgen.GatewayProcess(workload.settings, traced)
    try:
        # one full batch per link: builds the operator, sizes the solver
        # workspaces and wakes the solve threads before timing starts
        due = [time.perf_counter()] * workload.batch_size
        warmup = [[loadgen.SessionLog(nodes[0], due)] for nodes in links]
        if not loadgen.drive(gateway.port, workload.precision, warmup, DRIVE_SLACK_S):
            raise RuntimeError("warm-up windows were not acked")
        for (log,) in warmup:
            if log.errors or len(log.acks) != len(due):
                raise RuntimeError(f"warm-up failed: {log.errors or log.acks}")
        gateway.mark()
    except BaseException:
        gateway.stop()
        raise
    return links, gateway


def _timed_run(workload, seconds: float, links, gateway, tracer):
    """Play the workload; returns (outcome, gateway reply, loadgen, t0)."""
    undo = None
    if tracer is not None:
        streams = {id(n.encoder): n.stream_key for nodes in links for n in nodes}
        undo = spans.install_node(tracer, streams)
    try:
        cpu0 = time.process_time()
        t0 = time.perf_counter() + 0.2  # room for the first HELLOs
        logs = [
            [loadgen.SessionLog(node, list(dues)) for node, dues in zip(nodes, link)]
            for nodes, link in zip(links, workload.schedule(t0, seconds))
        ]
        finished = loadgen.drive(
            gateway.port, workload.precision, logs, seconds + DRIVE_SLACK_S
        )
        cpu = time.process_time() - cpu0
    except BaseException:
        gateway.stop()
        raise
    finally:
        if undo is not None:
            undo()
    reply = gateway.close()
    flat = [log for link in logs for log in link]
    outcome = measure.check(flat, reply["results"])
    if not finished:
        outcome.problems.append(f"run cut after {seconds + DRIVE_SLACK_S:.0f} s")
    late = [s for log in flat for s in log.late]
    gen = {
        "late_ms_p99": 1e3 * measure.pct(late, 99) if late else 0.0,
        "cpu_ms_per_window": 1e3 * cpu / max(outcome.attempted, 1),
        "packet_bytes": statistics.fmean(b for log in flat for b in log.packet_bytes),
        "frame_bytes_up": statistics.fmean(b for log in flat for b in log.frame_bytes),
        "frame_bytes_down": statistics.fmean(a[4] for log in flat for a in log.acks),
    }
    return outcome, reply, gen, t0


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """One run of one workload; returns (outcome, metrics, notes)."""
    workload = workloads.WORKLOADS[name]
    setups = []
    for repeat in range(1 if trace else SETUP_REPEATS):
        started = time.perf_counter()
        links, gateway = _setup(workload, seed, seconds, traced=False)
        setups.append(time.perf_counter() - started)
        if repeat < (0 if trace else SETUP_REPEATS - 1):
            gateway.close()
    outcome, reply, gen, _ = _timed_run(workload, seconds, links, gateway, None)
    base = measure.end_to_end(outcome, reply, statistics.median(setups))
    notes = {
        "latency samples": len(outcome.ok),
        "budget misses": outcome.attempted
        - sum(1 for w in outcome.ok if w.latency_s <= workloads.BUDGET_S),
        "loadgen.late_ms_p99": round(gen["late_ms_p99"], 3),
        "setup runs (s)": [round(s, 3) for s in setups],
    }
    if not trace:
        return outcome, base, notes
    links, gateway = _setup(workload, seed, seconds, traced=True)
    tracer = spans.Tracer()
    traced_outcome, reply, gen, t0 = _timed_run(workload, seconds, links, gateway, tracer)
    traced = measure.end_to_end(traced_outcome, reply, 0.0)
    layers = measure.per_layer(
        traced_outcome,
        reply,
        tracer.spans,
        gen,
        base,
        traced,
        t0,
        links[0][0].config.max_iterations,
    )
    # the result counts both runs: each window of either must pass
    traced_outcome.windows += outcome.windows
    traced_outcome.problems += outcome.problems
    traced_outcome.discarded += outcome.discarded
    return traced_outcome, layers, notes


def _report(name: str, outcome, metrics: dict, notes: dict) -> None:
    print(f"== {name}: attempted {outcome.attempted}, failed {outcome.failed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:34s} {value:14.4f} {unit}")
    for key, value in notes.items():
        print(f"  ({key}: {value})")
    for problem in outcome.problems[:20]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.BENCHMARKED) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        outcome, values, notes = run_workload(name, args.seed, args.seconds, bool(args.trace))
        _report(name, outcome, values, notes)
        correct &= outcome.correct
        attempted += outcome.attempted
        failed += outcome.failed
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in values.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
