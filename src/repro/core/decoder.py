"""The coordinator-side CS decoder (paper Figure 1, bottom path).

Three stages mirroring the encoder:

1. **Huffman decoding** with the shared codebook;
2. **packet reconstruction** — re-inserting the inter-packet redundancy
   (cumulative differences against the last keyframe);
3. **FISTA reconstruction** — solving the l1 problem in the wavelet
   domain and synthesizing the time-domain ECG.

The decoder supports float64 (the paper's Matlab reference) and float32
(the iPhone build); Figure 6 overlays the two.  The system operator,
its Lipschitz constant and the batched solver live in the decoder's
:class:`~repro.core.backend.DecodeBackend`, built once on first use and
kept for the decoder's lifetime (the sensing matrix is fixed), exactly
as an embedded decoder would precompute them offline — lazily, so a
fleet of per-stream decoders sharing one operator group does not pay
the precompute per stream.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..coding import BitReader, Codebook, DifferentialCodec, train_codebook
from ..config import SystemConfig
from ..errors import ConfigurationError, DecodingError
from ..solvers import SolverResult, fista, lambda_from_fraction
from ..wavelet import WaveletTransform
from .backend import PRECISIONS, BlockResult, DecodeBackend, measurement_dtype
from .packets import EncodedPacket, PacketKind, unpack_keyframe_values
from .quantizer import MeasurementQuantizer


class PacketPayloadDecoder:
    """Stages 1-2 of the decoder: entropy decode + redundancy re-insert.

    Everything *before* the FISTA solve — Huffman decoding, closed-loop
    difference reconstruction and dequantization — is per-stream state
    (codebook, reference vector) that never touches the dense system
    operator.  Splitting it out lets a fleet worker keep one of these
    per stream while sharing a single
    :class:`~repro.core.backend.DecodeBackend` per sensing-operator
    group (see :mod:`repro.fleet`), and lets the worker be constructed
    without materializing ``A = Phi Psi`` at all.
    """

    def __init__(
        self, config: SystemConfig, codebook: Codebook | None = None
    ) -> None:
        self.config = config
        self.codebook = codebook if codebook is not None else train_codebook()
        self.codec = DifferentialCodec(
            keyframe_interval=config.keyframe_interval
        )
        self.quantizer = MeasurementQuantizer(d=config.d)
        self._awaiting_keyframe = False
        self._keyframe_admitted = False

    def reset(self) -> None:
        """Drop the inter-packet reference state."""
        self.codec.reset()
        self._awaiting_keyframe = False
        self._keyframe_admitted = False

    # -- lossy-channel recovery ----------------------------------------
    @property
    def awaiting_keyframe(self) -> bool:
        """Whether stage 2 is resyncing: difference packets are
        undecodable until the next keyframe re-anchors the chain.

        A keyframe re-anchors at *admission* time (the ``_keyframe_
        admitted`` latch), not only once decoded: the recovery drain
        admits a whole held run before the caller decodes any of it,
        and the differences behind an admitted-but-not-yet-decoded
        keyframe are decodable because the caller always decodes
        accepted packets in admission order."""
        return self._awaiting_keyframe or not (
            self.codec.has_reference or self._keyframe_admitted
        )

    def resync(self) -> None:
        """Enter the resync state after a sequence gap or corrupt frame.

        The cumulative difference reference is now stale — applying
        further diffs to it would silently corrupt every window until
        the next keyframe — so the reference is discarded and
        difference packets must be skipped (:meth:`skip_to_keyframe`)
        until a keyframe arrives.
        """
        self.codec.reset()
        self._awaiting_keyframe = True
        self._keyframe_admitted = False

    def skip_to_keyframe(self, packet: EncodedPacket) -> bool:
        """Whether ``packet`` must be discarded to reach a keyframe.

        ``True`` for a difference packet while resyncing (or before the
        stream's first keyframe — joining mid-stream looks exactly like
        a loss).  A keyframe ends the resync and returns ``False``: the
        caller decodes it normally and the difference chain re-arms.
        """
        if packet.kind is PacketKind.KEYFRAME:
            self._awaiting_keyframe = False
            self._keyframe_admitted = True
            return False
        return self.awaiting_keyframe

    def decode_payload(self, packet: EncodedPacket) -> np.ndarray:
        """Decode one packet down to its quantized measurement vector."""
        if packet.m != self.config.m:
            raise DecodingError(
                f"packet m={packet.m} does not match decoder m={self.config.m}"
            )
        if packet.kind is PacketKind.KEYFRAME:
            self._awaiting_keyframe = False
            self._keyframe_admitted = True
            values = unpack_keyframe_values(packet.payload, self.config.m)
            return self.codec.decode(True, values)
        if self._awaiting_keyframe:
            raise DecodingError(
                "difference packet during resync: call skip_to_keyframe() "
                "and wait for the next keyframe"
            )
        reader = BitReader(packet.payload, bit_length=packet.payload_bits)
        symbols = self.codebook.code.decode(reader, self.config.m)
        if reader.remaining >= 8:
            raise DecodingError(
                f"{reader.remaining} unread payload bits after decoding"
            )
        diffs = np.asarray(
            [self.codebook.value_for(s) for s in symbols], dtype=np.int64
        )
        return self.codec.decode(False, diffs)

    def measurement_block(
        self, packets: Sequence[EncodedPacket], dtype: np.dtype | type
    ) -> np.ndarray:
        """Stack the dequantized measurements of many packets, ``(m, B)``.

        Sequential by necessity — the difference codec is stateful — but
        cheap relative to the reconstruction solve it feeds.
        """
        block = np.empty((self.config.m, len(packets)), dtype=dtype)
        for column, packet in enumerate(packets):
            y_q = self.decode_payload(packet)
            block[:, column] = self.quantizer.dequantize(y_q).astype(dtype)
        return block


@dataclass(frozen=True)
class DecodedPacket:
    """One reconstructed 2-second window plus solver diagnostics."""

    sequence: int
    samples_adu: np.ndarray
    measurements: np.ndarray
    solver: SolverResult
    decode_seconds: float

    @property
    def iterations(self) -> int:
        """FISTA iterations spent on this packet."""
        return self.solver.iterations


class CSDecoder:
    """Compressed-sensing ECG decoder for one lead.

    Parameters
    ----------
    config:
        Must match the encoder's configuration (same seed -> same
        sensing matrix, the paper's shared fixed matrix).
    codebook:
        Must be the same codebook the encoder used.
    precision:
        ``"float64"`` (Matlab reference), ``"float32"`` (iPhone), or
        ``"hybrid"`` — float32 FISTA with a sparse residual gate and a
        float64 polish of any column that leaves the fig-6 corridor
        (:func:`~repro.solvers.batched.structured_batched_fista`).
    warm_start:
        Reuse the previous packet's wavelet coefficients as the FISTA
        starting point (off by default: the paper decodes each packet
        independently).  Not supported with ``"hybrid"`` (the polish
        re-solve would break the per-stream coefficient chain).
    """

    def __init__(
        self,
        config: SystemConfig,
        codebook: Codebook | None = None,
        precision: str = "float64",
        warm_start: bool = False,
    ) -> None:
        if precision not in PRECISIONS:
            raise ConfigurationError(
                f"precision must be one of {PRECISIONS}, got {precision!r}"
            )
        if precision == "hybrid" and warm_start:
            raise ConfigurationError(
                "warm_start is not supported with precision='hybrid'"
            )
        self.config = config
        self.precision = precision
        self.warm_start = warm_start
        self.payload = PacketPayloadDecoder(config, codebook=codebook)
        # lazy: a fleet run builds one decoder per stream but iterates
        # only its group lead's operator
        self._backend: DecodeBackend | None = None
        self.dc_offset = 1 << (config.adc_bits - 1)
        self._previous_alpha: np.ndarray | None = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop stream state (reference vector and warm-start memory)."""
        self.payload.reset()
        self._previous_alpha = None

    # stages 1-2 live on the payload decoder; these aliases keep the
    # historical attribute surface (tests and ablations poke them)
    @property
    def codebook(self) -> Codebook:
        """Shared entropy codebook (must match the encoder's)."""
        return self.payload.codebook

    @codebook.setter
    def codebook(self, value: Codebook) -> None:
        self.payload.codebook = value

    @property
    def codec(self) -> DifferentialCodec:
        """Stateful inter-packet difference decoder."""
        return self.payload.codec

    @codec.setter
    def codec(self, value: DifferentialCodec) -> None:
        self.payload.codec = value

    @property
    def quantizer(self) -> MeasurementQuantizer:
        """Measurement dequantizer (folds the deferred 1/sqrt(d))."""
        return self.payload.quantizer

    @quantizer.setter
    def quantizer(self, value: MeasurementQuantizer) -> None:
        self.payload.quantizer = value

    @property
    def backend(self) -> DecodeBackend:
        """This decoder's batched reconstruction stage, built on first
        use and owned by the decoder (the fleet solves a group through
        its lead decoder's backend)."""
        if self._backend is None:
            self._backend = DecodeBackend(self.config, self.precision)
        return self._backend

    @property
    def transform(self) -> WaveletTransform:
        """The wavelet synthesis the decoder reconstructs with."""
        return self.backend.transform

    @property
    def system_matrix(self) -> np.ndarray:
        """The dense system operator ``A = Phi Psi`` (decoder precision)."""
        return self.backend.solver.operator

    @property
    def lipschitz(self) -> float:
        """Precomputed Lipschitz constant of the data-fidelity gradient."""
        return self.backend.solver.lipschitz

    # ------------------------------------------------------------------
    def _decode_payload(self, packet: EncodedPacket) -> np.ndarray:
        """Stages 1-2: entropy decoding and redundancy re-insertion."""
        return self.payload.decode_payload(packet)

    def decode(self, packet: EncodedPacket) -> DecodedPacket:
        """Full decode of one packet into reconstructed adu samples."""
        started = time.perf_counter()
        y_q = self._decode_payload(packet)
        y = self.quantizer.dequantize(y_q)
        if self.precision == "hybrid":
            # the structured backend is inherently batched; a serial
            # decode is a width-1 block through the same pipeline
            result = self._solve(np.asarray(y, dtype=np.float64)[:, None])
            samples = result.signals[:, 0] + self.dc_offset
            return DecodedPacket(
                sequence=packet.sequence,
                samples_adu=samples,
                measurements=np.asarray(y, dtype=np.float64),
                solver=result.per_column(0),
                decode_seconds=time.perf_counter() - started,
            )
        y = y.astype(measurement_dtype(self.precision))

        lam = lambda_from_fraction(self.system_matrix, y, self.config.lam)
        x0 = self._previous_alpha if self.warm_start else None
        result = fista(
            self.system_matrix,
            y,
            lam=lam,
            max_iterations=self.config.max_iterations,
            tolerance=self.config.tolerance,
            lipschitz=self.lipschitz,
            x0=x0,
            restart=self.config.restart,
        )
        if self.warm_start:
            self._previous_alpha = result.coefficients

        signal = self.transform.inverse(result.coefficients)
        samples = np.asarray(signal, dtype=np.float64) + self.dc_offset
        elapsed = time.perf_counter() - started
        return DecodedPacket(
            sequence=packet.sequence,
            samples_adu=samples,
            measurements=np.asarray(y, dtype=np.float64),
            solver=result,
            decode_seconds=elapsed,
        )

    def decode_batch(
        self, packets: Sequence[EncodedPacket]
    ) -> list[DecodedPacket]:
        """Decode many packets with one batched FISTA solve.

        Entropy decoding and redundancy re-insertion stay sequential
        (they are stateful and cheap); the measurement vectors are then
        stacked into an ``(m, B)`` matrix and reconstructed by the
        decoder's :class:`~repro.core.backend.DecodeBackend` (batched
        FISTA with per-column regularization weights and convergence
        masking, then one batched synthesis).  Per-packet results match
        :meth:`decode` to solver floating-point noise (identical
        iteration counts, reconstructions equal to ~1e-9): both follow
        the config's stopping rule, and with ``config.restart`` each
        column restarts its momentum on its own, exactly where the
        serial solve of that packet restarts.

        With ``warm_start`` enabled, every column starts from the last
        coefficients solved before this batch (the serial path warm
        starts each packet from its immediate predecessor, which a
        parallel solve cannot reproduce), and the final column is
        retained for the next batch.
        """
        packets = list(packets)
        if not packets:
            return []
        started = time.perf_counter()
        measurements = self.payload.measurement_block(
            packets, measurement_dtype(self.precision)
        )
        x0 = None
        if self.warm_start and self._previous_alpha is not None:
            x0 = np.repeat(
                self._previous_alpha[:, None], len(packets), axis=1
            )
        result = self._solve(measurements, x0)
        if self.warm_start:
            last = result.per_column(len(packets) - 1)
            self._previous_alpha = last.coefficients

        samples = result.signals + self.dc_offset
        elapsed = time.perf_counter() - started
        per_packet_seconds = elapsed / len(packets)
        return [
            DecodedPacket(
                sequence=packet.sequence,
                samples_adu=samples[:, column].copy(),
                measurements=np.asarray(
                    measurements[:, column], dtype=np.float64
                ),
                solver=result.per_column(column),
                decode_seconds=per_packet_seconds,
            )
            for column, packet in enumerate(packets)
        ]

    def _solve(
        self, measurements: np.ndarray, x0: np.ndarray | None = None
    ) -> BlockResult:
        """One block through the backend under this decoder's config."""
        return self.backend.solve(
            measurements,
            self.config.lam,
            x0,
            max_iterations=self.config.max_iterations,
            tolerance=self.config.tolerance,
            restart=self.config.restart,
        )

    def decode_bytes(self, wire: bytes) -> DecodedPacket:
        """Parse a wire packet (with CRC check) and decode it."""
        return self.decode(EncodedPacket.from_bytes(wire))
