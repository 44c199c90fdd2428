"""Figure 8 / Section V: full real-time pipeline at the CR-50 point.

Streams a record through the actual encoder/decoder to obtain measured
per-packet bit counts and FISTA iteration counts, then feeds those into
the discrete-event pipeline simulation with the calibrated platform
models.  Reproduced claims:

- node CPU < 5 %,
- coordinator CPU ~= 17.7 % at CR = 50 % (and < 30 % generally),
- no buffer under/overruns and no decode deadline misses (real time).
"""

from __future__ import annotations

from ..config import SystemConfig
from ..core import EcgMonitorSystem
from ..ecg import SyntheticMitBih
from ..platforms.cortexa8 import DecodePipeline
from ..realtime import MonitorPipeline, PipelineConfig, PipelineReport
from .sweeps import sweep_database


def run_fig8(
    nominal_cr: float = 50.0,
    record_name: str = "100",
    packets: int = 20,
    duration_s: float = 240.0,
    database: SyntheticMitBih | None = None,
    decode_pipeline: DecodePipeline = DecodePipeline.NEON_OPTIMIZED,
) -> tuple[PipelineReport, dict[str, float]]:
    """Run the coupled numeric + discrete-event simulation.

    Returns the pipeline report and a summary row with the headline
    claims.  The stream runs the paper's exact FISTA listing
    (``restart=False``): its iteration counts price the iPhone decode.
    """
    database = database if database is not None else sweep_database()
    config = SystemConfig(restart=False).with_target_cr(nominal_cr)
    system = EcgMonitorSystem(config, precision="float32")
    record = database.load(record_name)
    system.calibrate(record)
    stream = system.stream(record, max_packets=packets)

    pipeline_config = PipelineConfig(
        system=config,
        packet_bits=[p.packet_bits for p in stream.packets],
        packet_iterations=[p.iterations for p in stream.packets],
        duration_s=duration_s,
        decode_pipeline=decode_pipeline,
    )
    report = MonitorPipeline(pipeline_config).run()
    summary = {
        "nominal_cr": nominal_cr,
        "measured_cr": stream.compression_ratio_percent,
        "node_cpu_percent": report.node_cpu_percent,
        "phone_cpu_percent": report.phone_cpu_percent,
        "mean_iterations": stream.mean_iterations,
        "mean_prd_percent": stream.mean_prd_percent,
        "underruns": report.underruns,
        "deadline_misses": report.decode_deadline_misses,
        "realtime": report.is_realtime(),
    }
    return report, summary
