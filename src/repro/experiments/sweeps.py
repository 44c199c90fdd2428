"""Compression-ratio sweep machinery shared by the figure drivers.

A sweep fixes a set of nominal compression ratios (which set ``M``),
trains one offline codebook per operating point on a calibration record
(the paper's codebook is likewise generated offline), then streams a
record subset through the full system and averages the per-packet
metrics "over all data" as the paper's figures do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SystemConfig
from ..core import EcgMonitorSystem
from ..ecg import SyntheticMitBih
from ..metrics import SweepPoint, aggregate_points


def sweep_database(duration_s: float = 64.0, seed: int = 2011) -> SyntheticMitBih:
    """The corpus used by all sweeps (64 s records by default)."""
    return SyntheticMitBih(duration_s=duration_s, seed=seed)


@dataclass
class SweepOutcome:
    """All observations of one operating point (one nominal CR)."""

    nominal_cr: float
    config: SystemConfig
    points: list[SweepPoint] = field(default_factory=list)
    measured_cr: float = 0.0

    def summary(self) -> dict[str, float]:
        """Figure-level averages for this operating point."""
        aggregate = aggregate_points(self.points)
        aggregate["nominal_cr"] = self.nominal_cr
        aggregate["measured_cr"] = self.measured_cr
        return aggregate


def run_cr_sweep(
    nominal_crs: tuple[float, ...] = (30.0, 40.0, 50.0, 60.0, 70.0),
    records: tuple[str, ...] | None = None,
    packets_per_record: int = 12,
    precision: str = "float64",
    database: SyntheticMitBih | None = None,
    calibration_record: str = "100",
    base_config: SystemConfig | None = None,
) -> list[SweepOutcome]:
    """Run the full system across CRs and records.

    Returns one :class:`SweepOutcome` per nominal CR with per-packet
    points and the measured (entropy-coded) CR.  The default base
    config runs the paper's exact FISTA listing (``restart=False``):
    the sweep's iteration counts model the iPhone decoder (fig 7).
    """
    database = database if database is not None else sweep_database()
    if records is None:
        records = database.subset(6)
    base = (
        base_config if base_config is not None else SystemConfig(restart=False)
    )

    outcomes: list[SweepOutcome] = []
    for nominal in nominal_crs:
        config = base.with_target_cr(nominal)
        system = EcgMonitorSystem(config, precision=precision)
        system.calibrate(database.load(calibration_record))
        outcome = SweepOutcome(nominal_cr=float(nominal), config=config)

        total_bits = 0
        total_original = 0
        for name in records:
            record = database.load(name)
            stream = system.stream(record, max_packets=packets_per_record)
            total_bits += sum(p.packet_bits for p in stream.packets)
            total_original += config.original_packet_bits * stream.num_packets
            for packet in stream.packets:
                outcome.points.append(
                    SweepPoint(
                        record=name,
                        cr_percent=stream.compression_ratio_percent,
                        prd_percent=packet.prd_percent,
                        snr_db=packet.snr_db,
                        iterations=packet.iterations,
                        decode_seconds=packet.decode_seconds,
                    )
                )
        outcome.measured_cr = (
            (total_original - total_bits) / total_original * 100.0
            if total_original
            else 0.0
        )
        outcomes.append(outcome)
    return outcomes
