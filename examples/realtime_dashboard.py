"""Real-time pipeline dashboard: the Figure 8 scenario, simulated.

Streams a record through the actual encoder/decoder, feeds the measured
per-packet bits and iteration counts into the discrete-event pipeline
simulation (sampler -> encoder -> Bluetooth -> decoder -> display with
the 6-second ring buffer), and prints the CPU/buffer dashboard plus an
ASCII strip of the reconstructed ECG as the "phone screen".

Usage::

    python examples/realtime_dashboard.py
"""

from __future__ import annotations

from repro import EcgMonitorSystem, SyntheticMitBih, SystemConfig
from repro.experiments import render_table
from repro.realtime import MonitorPipeline, PipelineConfig

from _common import ascii_plot, banner


def main() -> None:
    banner("real-time WBSN pipeline (Figure 8)")
    # the paper's FISTA listing: the iteration counts price the iPhone
    config = SystemConfig(restart=False).with_target_cr(50.0)
    database = SyntheticMitBih(duration_s=60.0)
    record = database.load("106")  # bigeminy: a clinically busy trace

    system = EcgMonitorSystem(config, precision="float32")
    system.calibrate(record)
    stream = system.stream(record, max_packets=16, keep_signals=True)

    pipeline = MonitorPipeline(
        PipelineConfig(
            system=config,
            packet_bits=[p.packet_bits for p in stream.packets],
            packet_iterations=[p.iterations for p in stream.packets],
            duration_s=300.0,
        )
    )
    report = pipeline.run()

    rows = [
        {
            "node_cpu_percent": report.node_cpu_percent,
            "phone_cpu_percent": report.phone_cpu_percent,
            "radio_percent": report.radio_utilization_percent,
            "buffer_min_s": report.buffer_min_s,
            "buffer_max_s": report.buffer_max_s,
            "latency_s": report.mean_end_to_end_latency_s,
            "realtime": report.is_realtime(),
        }
    ]
    print(render_table(rows, title="pipeline dashboard (paper: <5 % node, ~17.7 % phone)"))
    print(
        f"\npackets encoded/decoded: {report.packets_encoded}/"
        f"{report.packets_decoded}; underruns {report.underruns}, "
        f"deadline misses {report.decode_deadline_misses}"
    )
    print(
        f"stream quality: CR {stream.compression_ratio_percent:.1f} %, "
        f"PRD {stream.mean_prd_percent:.2f} %, "
        f"SNR {stream.mean_snr_db:.1f} dB, "
        f"{stream.mean_iterations:.0f} FISTA iterations/packet"
    )

    banner('the "phone screen": reconstructed ECG (6 s)')
    assert stream.reconstructed_adu is not None
    screen = stream.reconstructed_adu[: 3 * config.n] - 1024
    print(ascii_plot(screen, height=14, label="reconstructed lead II, 6 s"))


if __name__ == "__main__":
    main()
