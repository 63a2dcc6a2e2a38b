"""Phase-estimation circuits: toy semantics and resource formulas."""

import math

import numpy as np
import pytest

from qbell import circuits as cc

from helpers import (hybrid_phase_run, phase_angle, phase_schedule, reference_phase_resources,
                     validate_circuit)


def readout(amps, N, M):
    """Inverse Fourier transform, most likely outcome, nearest multiple of 1/N."""
    freq = np.fft.fft(amps) / math.sqrt(M)
    zhat = int(np.argmax(np.abs(freq)))
    return round(zhat * N / M) % N


class TestPhaseAngle:
    def test_exact_modular_reduction(self):
        # the angle for huge exponent sums reduces through pow(2, s, N)
        N = 33
        assert abs(phase_angle(200, N)
                   - 2 * math.pi * pow(2, 200, N) / N) < 1e-12

    def test_depends_only_on_sum(self):
        N = 77
        for s in range(24):
            triples = [(i, j, s - i - j) for i in range(8) for j in range(8)
                       if 0 <= s - i - j < 8]
            angles = {phase_angle(i + j + k, N) for i, j, k in triples}
            assert len(angles) <= 1


@pytest.mark.parametrize("N", [21, 33])
@pytest.mark.parametrize("variant", [1, 2])
class TestPhaseSemantics:
    def test_schedule_computes_square_in_the_phase(self, N, variant):
        n = N.bit_length()
        circ = phase_schedule(variant, n, N)
        validate_circuit(circ)
        m_out = circ.metadata["m_out"]
        M = 1 << m_out
        for x in range(1 << n):
            amps = hybrid_phase_run(circ, x)
            expect = np.exp(2j * np.pi * (x * x % N) * np.arange(M) / N) / math.sqrt(M)
            assert np.allclose(amps, expect, atol=1e-9), (N, variant, x)

    def test_fourier_readout_returns_square(self, N, variant):
        n = N.bit_length()
        circ = phase_schedule(variant, n, N)
        M = 1 << circ.metadata["m_out"]
        for x in range(1 << n):
            amps = hybrid_phase_run(circ, x)
            assert readout(amps, N, M) == x * x % N


class TestPhaseResources:
    def test_variant1_counts_match_schedule(self):
        for n in (8, 10, 12):
            N = (1 << n) - 1
            rep = cc.phase_circuit_resources(1, n)
            sched = phase_schedule(1, n, N)
            built = cc.count_resources(sched)
            assert rep.total_gates == built.total_gates
            assert rep.toffoli_count == built.toffoli_count == 0
            assert rep.qubits == n + 1
            # every gate touches the one reused output qubit
            assert rep.depth == rep.total_gates

    def test_variant2_counts_match_schedule(self):
        for n in (8, 10):
            N = (1 << n) - 1
            rep = cc.phase_circuit_resources(2, n)
            sched = phase_schedule(2, n, N)
            built = cc.count_resources(sched)
            assert rep.total_gates == built.total_gates
            assert rep.toffoli_count == built.toffoli_count
            assert rep.depth == built.depth
            assert rep.qubits == built.qubits

    def test_variant1_serial_depth(self):
        # every gate shares the one work qubit
        rep = cc.phase_circuit_resources(1, 16)
        assert rep.depth == rep.total_gates

    def test_leading_order_scaling(self):
        # variant 1 is ~n^3/2 gates, variant 2 quasi-quadratic
        r32 = cc.phase_circuit_resources(1, 32)
        r64 = cc.phase_circuit_resources(1, 64)
        ratio = r64.total_gates / r32.total_gates
        assert 6.0 < ratio < 10.0  # ideal cubic: 8
        v32 = cc.phase_circuit_resources(2, 32)
        v64 = cc.phase_circuit_resources(2, 64)
        assert 3.0 < v64.total_gates / v32.total_gates < 6.0

    def test_small_n_rejected(self):
        with pytest.raises(cc.CircuitError):
            cc.phase_circuit_resources(1, 6)

    def test_unknown_variant_rejected(self):
        with pytest.raises(cc.CircuitError):
            cc.phase_circuit_resources(3, 16)

    # every n in 8..48, then the boundaries where the counter width
    # (n // 2 + 1).bit_length() and the largest pair count's bit length change
    @pytest.mark.parametrize("n", list(range(8, 49)) + [62, 63, 64, 126, 127, 128, 129, 130])
    @pytest.mark.parametrize("variant", [1, 2])
    def test_closed_form_matches_streamed_tally(self, variant, n):
        assert cc.phase_circuit_resources(variant, n) == reference_phase_resources(variant, n)

    @pytest.mark.parametrize("variant, expect", [
        (1, (129, 1_081_536, 0, 1_081_536)),
        (2, (274, 539_457, 184_912, 309_769)),
    ])
    def test_bench_size_counts(self, variant, expect):
        # (qubits, gates, Toffolis, depth) at n = 128, as qbell resources
        # reports them
        rep = cc.phase_circuit_resources(variant, 128)
        assert (rep.qubits, rep.total_gates, rep.toffoli_count, rep.depth) == expect
