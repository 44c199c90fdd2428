"""Figure 8 / Section V: the full real-time pipeline at CR ~ 50 %.

Paper's result: the system receives and reconstructs ECG in real time
on the iPhone 3GS with 17.7 % average CPU at CR = 50 % (and < 30 %
generally), while the Shimmer encodes at < 5 % CPU.

Reproduced: measured per-packet bits/iterations feed the discrete-event
simulation; the timed kernel is one simulated 240-second pipeline run.
"""

from __future__ import annotations

import pytest

from repro.experiments import render_table, run_fig8


@pytest.fixture(scope="module")
def fig8_outcome(bench_database):
    return run_fig8(
        nominal_cr=50.0,
        record_name="100",
        packets=16,
        duration_s=240.0,
        database=bench_database,
    )


def test_fig8_pipeline(fig8_outcome, benchmark, bench_database, bench_json):
    report, summary = fig8_outcome

    def simulate():
        return run_fig8(
            nominal_cr=50.0,
            record_name="100",
            packets=4,
            duration_s=60.0,
            database=bench_database,
        )[0]

    benchmark.pedantic(simulate, rounds=3, iterations=1)

    print("\n" + render_table([summary], title="Figure 8: real-time claims"))
    print(
        render_table(
            [
                {
                    "buffer_min_s": report.buffer_min_s,
                    "buffer_max_s": report.buffer_max_s,
                    "mean_latency_s": report.mean_end_to_end_latency_s,
                    "radio_util_percent": report.radio_utilization_percent,
                }
            ],
            title="pipeline detail",
        )
    )
    for key in ("node_cpu_percent", "phone_cpu_percent", "measured_cr"):
        benchmark.extra_info[key] = round(float(summary[key]), 2)

    # the paper's claims
    assert summary["node_cpu_percent"] < 5.0
    assert summary["phone_cpu_percent"] < 30.0
    assert summary["realtime"] is True
    assert report.underruns == 0 and report.overruns == 0
    assert report.buffer_max_s <= 6.0
    bench_json(
        "fig8_realtime_pipeline",
        params={"nominal_cr": 50.0, "packets": 16, "duration_s": 240.0},
        timings={
            "node_cpu_percent": float(summary["node_cpu_percent"]),
            "phone_cpu_percent": float(summary["phone_cpu_percent"]),
            "mean_latency_s": report.mean_end_to_end_latency_s,
        },
    )


def test_fig8_cpu_at_true_cr50(benchmark, bench_database):
    """At *measured* CR = 50 (nominal ~20), CPU approaches the 17.7 %."""
    from repro.config import SystemConfig
    from repro.core import EcgMonitorSystem
    from repro.platforms.iphone import IPhoneModel

    # the paper's FISTA listing: the iteration count prices the iPhone
    config = SystemConfig(restart=False).with_target_cr(20.0)
    system = EcgMonitorSystem(config, precision="float32")
    record = bench_database.load("100")
    system.calibrate(record)
    stream = system.stream(record, max_packets=8)

    def model_usage():
        return IPhoneModel().cpu_usage_percent(config, stream.mean_iterations)

    usage = benchmark(model_usage)
    benchmark.extra_info["measured_cr"] = round(
        stream.compression_ratio_percent, 1
    )
    benchmark.extra_info["cpu_percent"] = round(usage, 2)
    assert 40.0 < stream.compression_ratio_percent < 62.0
    assert 10.0 < usage < 25.0  # paper: 17.7 %
