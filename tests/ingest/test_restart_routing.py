"""``SystemConfig.restart`` on the wire and in the gateway.

The momentum restart is part of the stopping rule a batch shares, so
it rides the handshake config, splits operator groups like
``max_iterations``/``tolerance`` do, and reaches the solver of every
window the gateway decodes.  The gateway's telemetry plane carries the
solver-quality series that show whether the solver converges.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.core import EcgMonitorSystem
from repro.core.backend import operator_key
from repro.errors import ProtocolError
from repro.fleet import solve_key
from repro.ingest import Handshake, IngestGateway, NodeClient


def _system(config, record):
    system = EcgMonitorSystem(config)
    system.calibrate(record)
    return system


def _serial_reference(system, record, max_packets):
    reference = EcgMonitorSystem(system.config)
    reference.encoder.codebook = system.encoder.codebook
    reference.decoder.codebook = system.encoder.codebook
    return reference.stream(record, max_packets=max_packets, keep_signals=True)


def _run_gateway(systems, record, packets, **gateway_kwargs):
    async def run():
        gateway = IngestGateway(**gateway_kwargs)
        clients = [
            NodeClient(system, record, max_packets=packets, interval_s=0.0)
            for system in systems
        ]
        links = [gateway.connect_local() for _ in clients]
        await asyncio.wait_for(
            asyncio.gather(
                *[
                    client.run(reader, writer)
                    for client, (reader, writer) in zip(clients, links)
                ]
            ),
            timeout=120.0,
        )
        await gateway.close()
        return gateway

    return asyncio.run(run())


class TestHandshake:
    def _payload(self, config):
        return Handshake(record="100", channel=0, config=config).to_payload()

    def test_config_without_restart_decodes_as_true(self):
        payload = self._payload(SystemConfig(restart=False))
        del payload["config"]["restart"]
        parsed = Handshake.from_body(json.dumps(payload).encode())
        assert parsed.config.restart is True

    def test_restart_false_round_trips(self):
        payload = self._payload(SystemConfig(restart=False))
        parsed = Handshake.from_body(json.dumps(payload).encode())
        assert parsed.config.restart is False

    def test_non_bool_restart_rejected(self):
        payload = self._payload(SystemConfig())
        payload["config"]["restart"] = "yes"
        with pytest.raises(ProtocolError, match="restart"):
            Handshake.from_body(json.dumps(payload).encode())


def test_solve_key_splits_on_restart_only():
    on, off = SystemConfig(), SystemConfig(restart=False)
    for precision in ("float64", "hybrid"):
        assert operator_key(on, precision) == operator_key(off, precision)
        assert solve_key(on, precision) != solve_key(off, precision)


def test_gateway_groups_nodes_by_restart(small_config, database):
    """One sensing seed, two stopping rules: two groups, no batch mixes
    them, and each window follows its own node's serial decode."""
    record = database.load("100")
    configs = [small_config, small_config.replace(restart=False)]
    systems = [_system(config, record) for config in configs]
    gateway = _run_gateway(systems, record, 3, batch_size=4, flush_ms=100.0)

    assert len(gateway._groups) == 2
    assert gateway.stats.windows_decoded == 6
    for _key, members, _reason in gateway.batch_log:
        assert len({session for session, _index in members}) == 1
    results = sorted(gateway.results, key=lambda r: r.session_id)
    for system, result in zip(systems, results):
        serial = _serial_reference(system, record, max_packets=3)
        assert result.iterations == [p.iterations for p in serial.packets]
        np.testing.assert_allclose(
            np.concatenate(result.samples_adu),
            serial.reconstructed_adu,
            atol=1e-7,
        )
    # the listing needs more iterations than the restarted solve
    assert sum(results[0].iterations) < sum(results[1].iterations)


class TestSolverQualitySeries:
    def test_iterations_reach_gateway_registry(self, small_config, database):
        record = database.load("100")
        system = _system(small_config, record)
        gateway = _run_gateway([system], record, 4, batch_size=2, flush_ms=60.0)

        snap = gateway.telemetry.snapshot()
        iterations = snap.histogram_total("fleet_solve_iterations")
        (result,) = gateway.results
        assert iterations.total == 4
        assert iterations.sum == sum(result.iterations)
        assert iterations.max == max(result.iterations)
        assert snap.counter_total("fleet_iteration_cap_hits") == 0

    def test_cap_hits_count_columns_stopped_at_the_cap(
        self, small_config, database
    ):
        record = database.load("100")
        system = _system(small_config.replace(max_iterations=5), record)
        gateway = _run_gateway([system], record, 3, batch_size=3, flush_ms=60.0)

        snap = gateway.telemetry.snapshot()
        (result,) = gateway.results
        assert result.iterations == [5, 5, 5]
        assert snap.counter_total("fleet_iteration_cap_hits") == 3
        assert snap.histogram_total("fleet_solve_iterations").total == 3
