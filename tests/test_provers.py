"""Prover implementations: honest simulation, cheater, noise, angles."""

import math
import random

import numpy as np
import pytest

from qbell import circuits as cc
from qbell import protocol as proto
from qbell import provers, tcf
from qbell.seeds import derive_rng, derive_seed

from helpers import StateVector, gen_exact_bits, noisy_round1, planted_run


class TestIdealRound1:
    def test_worked_claw(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        rng = random.Random(3)
        for _ in range(20):
            y, state = provers.ideal_round1(keys, rng)
            assert state.rel_phase == 1
            assert {state.x0, state.x1} == set(tcf.rabin_invert(keys, y))
            assert len({state.x0, state.x1}) == 2

    def test_single_preimage_images_resampled(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        rng = random.Random(4)
        seen = set()
        for _ in range(3000):
            y, _ = provers.ideal_round1(keys, rng)
            seen.add(y)
        # the 8 gcd-degenerate images and 0 never appear
        assert not seen & {0, 49, 42, 56, 14, 70, 44, 22, 11}
        assert len(seen) == 15  # all claw images at N=77

    def test_claw_images_uniform(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        rng = random.Random(5)
        counts = {}
        n = 15_000
        for _ in range(n):
            y, _ = provers.ideal_round1(keys, rng)
            counts[y] = counts.get(y, 0) + 1
        # each claw image carries exactly two domain preimages
        for y, c in counts.items():
            assert abs(c / n - 1 / 15) < 0.012, (y, c)


class TestIdealRound2:
    def test_merged_state_returns_first_draw(self):
        # a merged register (equal branches, or collapsed by the y
        # measurement) gives d as the rng's first uniform draw, for any r
        for st in (provers.TwoBranchState(x0=3, x1=3, rel_phase=1, y=9, width=4),
                   provers.TwoBranchState(x0=0b01001, x1=0b00010, rel_phase=-1,
                                          y=0, width=5, collapsed=1)):
            for seed in range(20):
                expect = random.Random(seed).getrandbits(st.width)
                for r in (0, 1, 0b01011):
                    assert provers.ideal_round2(st, r, random.Random(seed)) == expect

    def test_equal_case_parity_class_plus(self):
        st = provers.TwoBranchState(x0=0b01001, x1=0b00010, rel_phase=1, y=0, width=5)
        rng = random.Random(1)
        diff = st.x0 ^ st.x1
        for _ in range(500):
            r = rng.getrandbits(5)
            if proto.parity(r & st.x0) == proto.parity(r & st.x1):
                assert proto.parity(provers.ideal_round2(st, r, rng) & diff) == 0

    def test_equal_case_parity_class_minus(self):
        st = provers.TwoBranchState(x0=0b01001, x1=0b00010, rel_phase=-1, y=0, width=5)
        rng = random.Random(2)
        diff = st.x0 ^ st.x1
        for _ in range(500):
            r = rng.getrandbits(5)
            if proto.parity(r & st.x0) == proto.parity(r & st.x1):
                assert proto.parity(provers.ideal_round2(st, r, rng) & diff) == 1

    def test_unequal_case_d_uniform(self):
        # chi-square against uniform over 32 strings at n=5
        st = provers.TwoBranchState(x0=0b01001, x1=0b00010, rel_phase=1, y=0, width=5)
        rng = random.Random(3)
        r = 0b01000  # r.x0 = 1, r.x1 = 0
        counts = [0] * 32
        n = 32_000
        for _ in range(n):
            counts[provers.ideal_round2(st, r, rng)] += 1
        chi2 = sum((c - n / 32) ** 2 / (n / 32) for c in counts)
        assert chi2 < 70  # 31 dof, p ~ 1e-4 cutoff


class TestIdealRound3:
    def test_expected_bit_rate(self):
        keys = gen_exact_bits(16)
        ctx = proto.ProtocolContext.plain(keys)
        rng = random.Random(7)
        hits = 0
        n = 40_000
        for _ in range(n):
            y, st = provers.ideal_round1(keys, rng, ctx)
            r = rng.getrandbits(ctx.reg_width)
            d = provers.ideal_round2(st, r, rng)
            sign = 1 if rng.random() < 0.5 else -1
            bit = provers.ideal_round3(st, r, d, sign, rng)
            state = proto.compute_qubit_state(st.x0, st.x1, r, d)
            hits += bit == proto.expected_bit(state, sign)
        p = hits / n
        assert abs(p - proto.COS2_PI_8) < 3 * math.sqrt(0.125 / n)


class TestCheater:
    def test_statistics(self):
        keys = gen_exact_bits(32)
        ctx = proto.ProtocolContext.plain(keys)
        prover = provers.CheaterProver(keys.public(), seed=1)
        rng = derive_rng(11, "v")
        cfg = proto.IterationConfig()
        ts = [proto.run_iteration(ctx, prover, rng, cfg, i) for i in range(30_000)]
        rep = proto.score(ts)
        assert rep.p_x == 1
        assert abs(float(rep.p_m) - 0.75) < 3 * math.sqrt(0.1875 / rep.trials_m)
        assert abs(float(rep.score)) < rep.ci_halfwidth

    def test_uses_public_key_only(self):
        pub = gen_exact_bits(24).public()
        prover = provers.CheaterProver(pub, seed=0)
        y, _, _ = prover.round1()
        assert proto.check_preimage(pub, prover.answer_preimage(), y)


class TestRewindDeterminism:
    def test_reset_replays_identically(self):
        keys = gen_exact_bits(24)
        prover = provers.IdealProver(keys, seed=9)
        prover.round1()
        r = 0b1011011
        d1 = prover.round2(r)
        b_plus = prover.round3(1)
        prover.reset()
        d2 = prover.round2(r)
        b_plus2 = prover.round3(1)
        assert (d1, b_plus) == (d2, b_plus2)
        prover.reset()
        prover.round2(r ^ 1)  # different r gives an independent stream
        prover.reset()
        assert prover.round2(r) == d1


class TestNoiseModel:
    def test_per_gate_fidelity(self):
        nm = provers.NoiseModel(circuit_fidelity=0.5, n_gates=1000)
        assert abs(nm.per_gate_fidelity ** 1000 - 0.5) < 1e-9
        with pytest.raises(tcf.DomainError):
            provers.NoiseModel(circuit_fidelity=0.0, n_gates=10)

    def test_zero_noise_matches_ideal_distribution(self):
        keys = gen_exact_bits(14)
        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        ctx = proto.ProtocolContext.for_circuit(keys, circ)
        noise = provers.NoiseModel(1.0, 100)
        rng = random.Random(0)
        rp = circ.metadata["rprime"]
        for _ in range(40):
            y, state, _ = noisy_round1(keys, circ, noise, rng, ctx)
            assert state.rel_phase in (-1, 1)
            assert state.collapsed is None
            y_base = y * circ.metadata["r_undo"] % keys.N
            assert {state.x0, state.x1} == set(tcf.rabin_invert(keys, y_base))
            assert y == (state.x0 * state.x0 * rp) % keys.N

    def test_z_error_on_agreeing_qubit_is_inert(self):
        # 3-gate fragment: branches agree on the ancilla, Z leaves phase +1
        gates = []
        pool = cc.QubitPool(gates)
        xr = pool.new_register(2)
        anc = pool.new()
        gates.append((cc.X, anc))
        gates.append((cc.CNOT, xr[0], anc))
        gates.append((cc.CNOT, xr[0], anc))
        gates.append((cc.MEASURE_Y, (anc,)))
        circ = cc.Circuit(n_qubits=pool.peak, gates=gates,
                          registers={"x": xr, "y": (anc,)}, metadata={})
        # branches 1 and 2 disagree on x bits but agree on anc after gate 2
        run = planted_run(circ, 1, 2, {2: (anc, "Z")})
        assert run.rel_phase == 1

    def test_z_error_on_differing_qubit_flips_phase(self):
        gates = []
        pool = cc.QubitPool(gates)
        xr = pool.new_register(2)
        anc = pool.new()
        gates.append((cc.CNOT, xr[0], anc))  # anc = x bit 0: differs across branches
        gates.append((cc.X, xr[1]))
        gates.append((cc.CNOT, xr[0], anc))
        gates.append((cc.MEASURE_Y, (anc,)))
        circ = cc.Circuit(n_qubits=pool.peak, gates=gates,
                          registers={"x": xr, "y": (anc,)}, metadata={})
        run = planted_run(circ, 1, 2, {0: (anc, "Z")})
        assert run.rel_phase == -1

    def test_divergent_y_collapses_uniformly(self):
        keys = gen_exact_bits(12)
        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        noise = provers.NoiseModel(0.2, cc.count_resources(circ).total_gates)
        rng = random.Random(8)
        picks = []
        for _ in range(4000):
            y, state, _ = noisy_round1(keys, circ, noise, rng)
            if state.collapsed is not None:
                picks.append(state.collapsed)
        assert len(picks) > 200
        frac = sum(picks) / len(picks)
        assert abs(frac - 0.5) < 0.1


class TestTwoBranchAgainstStateVector:
    def test_random_circuits_with_planted_errors(self):
        # the exactness claim: both-branch bit tracking plus a phase sign
        # reproduces the full state vector, for any Pauli realization
        rng = random.Random(123)
        for trial in range(100):
            nq = rng.randrange(3, 7)
            gates = []
            pool = cc.QubitPool(gates)
            xr = pool.new_register(nq)
            n_gates = rng.randrange(4, 15)
            for _ in range(n_gates):
                kind = rng.randrange(3)
                qs = rng.sample(range(nq), k=min(nq, 3))
                if kind == 0:
                    gates.append((cc.X, xr[qs[0]]))
                elif kind == 1:
                    gates.append((cc.CNOT, xr[qs[0]], xr[qs[1]]))
                else:
                    gates.append((cc.TOFFOLI, xr[qs[0]], xr[qs[1]], xr[qs[2]]))
            gates.append((cc.MEASURE_Y, tuple(xr)))
            circ = cc.Circuit(n_qubits=nq, gates=gates,
                              registers={"x": xr, "y": tuple(xr)}, metadata={})
            x0 = rng.getrandbits(nq)
            x1 = rng.getrandbits(nq)
            if x0 == x1:
                continue
            unitary = [g for g in circ.gates if g[0] in (cc.X, cc.CNOT, cc.TOFFOLI)]
            plan = {}
            for gi in range(len(unitary)):
                if rng.random() < 0.3:
                    g = unitary[gi]
                    touched = g[1:] if g[0] != cc.X else (g[1],)
                    plan[gi] = (rng.choice(touched), rng.choice("XYZ"))
            run = planted_run(circ, x0, x1, plan)

            sv = StateVector.two_branch(nq, x0, x1)
            for gi, g in enumerate(unitary):
                sv.apply_gate(g)
                if gi in plan:
                    sv.pauli(plan[gi][1], plan[gi][0])
            expect = np.zeros(sv.dim, complex)
            expect[run.reg0] += 1 / math.sqrt(2)
            expect[run.reg1] += run.rel_phase / math.sqrt(2)
            assert sv.equal_up_to_global_phase(expect), (trial, plan)


class TestAngleModel:
    def test_noise_free_consistency(self):
        m = provers.AngleModel(1.0, 1.0, math.pi / 4)
        assert abs(provers.pm_of_theta(m) - proto.COS2_PI_8) < 1e-12

    def test_half_coherence_at_pi4(self):
        m = provers.AngleModel(1.0, 0.5, math.pi / 4)
        assert abs(provers.pm_of_theta(m) - 0.677) < 0.002

    def test_small_delta_expansion(self):
        delta = 0.1
        m = provers.AngleModel(1.0, 0.5 + delta, delta)
        assert abs(provers.pm_of_theta(m) - (0.75 + 3 * delta ** 2 / 8)) < delta ** 3

    def test_optimal_theta_values(self):
        assert abs(provers.optimal_theta(1.0, 1.0) - math.pi / 4) < 1e-12
        assert abs(provers.optimal_theta(1.0, 0.6) - math.atan(0.2)) < 1e-12
        assert provers.optimal_theta(1.0, 0.5) == 0.0

    def test_degenerate(self):
        with pytest.raises(provers.DegenerateModel):
            provers.optimal_theta(0.5, 0.9)

    def test_argmax_property_coarse(self):
        thetas = np.linspace(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6, 301)
        for f_par in np.linspace(0.55, 1.0, 6):
            for f_perp in np.linspace(0.55, 1.0, 6):
                best = provers.optimal_theta(f_par, f_perp)
                p_best = provers.pm_of_theta(provers.AngleModel(f_par, f_perp, best))
                for th in thetas:
                    p = provers.pm_of_theta(provers.AngleModel(f_par, f_perp, th))
                    assert p <= p_best + 1e-12


class TestPhaseNoisyProver:
    def run_score(self, delta, theta, trials=30_000, seed=0):
        keys = gen_exact_bits(24)
        ctx = proto.ProtocolContext.plain(keys)
        prover = provers.PhaseNoisyProver(keys, seed=seed, delta=delta, theta=theta)
        rng = derive_rng(seed, "v")
        ts = [proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
              for i in range(trials)]
        return proto.score(ts)

    def test_fair_coin_phase_saturates_bound(self):
        rep = self.run_score(delta=0.0, theta=math.pi / 4)
        assert rep.p_x == 1
        assert float(rep.score) <= rep.ci_halfwidth

    def test_adapted_angle_beats_bound(self):
        delta = 0.2
        rep = self.run_score(delta=delta, theta=provers.optimal_theta(1.0, 0.5 + delta))
        assert float(rep.score) > 0
        # measured p_m tracks the model prediction
        model = provers.AngleModel(1.0, 0.5 + delta,
                                   provers.optimal_theta(1.0, 0.5 + delta))
        pred = provers.pm_of_theta(model)
        assert abs(float(rep.p_m) - pred) < 3 * math.sqrt(0.25 / rep.trials_m)

    def test_prescribed_angle_stays_classical(self):
        rep = self.run_score(delta=0.2, theta=math.pi / 4)
        assert float(rep.score) <= rep.ci_halfwidth


class TestNoisyProverProtocol:
    def test_full_fidelity_reproduces_ideal_score(self):
        keys = gen_exact_bits(14)
        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        ctx = proto.ProtocolContext.for_circuit(keys, circ)
        noise = provers.NoiseModel(1.0, cc.count_resources(circ).total_gates)
        prover = provers.NoisyCircuitProver(keys, circ, noise, seed=20)
        rng = derive_rng(21, "v")
        ts = [proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
              for i in range(2500)]
        rep = proto.score(ts)
        assert rep.p_x == 1
        assert abs(float(rep.score) - (math.sqrt(2) - 1)) < rep.ci_halfwidth


def sequential_round1(prover, seed, i):
    """(attempts, (y, state, h, h_len) or None) of iteration i of a
    NoisyCircuitProver built with `seed`, one attempt at a time from the
    iteration's own stream."""
    rng = derive_rng(derive_seed(seed, "iter", i), "round1")
    for attempt in range(1, prover.max_attempts + 1):
        y, state, run = noisy_round1(prover.keys, prover.circuit, prover.noise, rng,
                                     prover.ctx)
        if not prover.retry_invalid or provers.is_valid_y(y, prover.ctx.lift_k):
            return attempt, (y, state, run.h, run.h_len)
    return prover.max_attempts, None


class TestBlockedRound1:
    @pytest.mark.parametrize("retry", [True, False])
    @pytest.mark.parametrize("method", ["schoolbook", "karatsuba"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("F", [1.0, 0.5, 0.05])
    def test_matches_sequential_oracle(self, F, m, method, retry):
        # iteration by iteration across a block boundary: the same image, h,
        # state and attempt counts as one attempt at a time; an iteration
        # out of attempts raises only when played, and reset() rewinds to
        # the same state
        keys = gen_exact_bits(14)
        circ = cc.build_modsquare(keys.N, lift_m=m, method=method, cutoff=8)
        noise = provers.NoiseModel(F, cc.count_resources(circ).total_gates)
        seed = 11 + m
        prover = provers.NoisyCircuitProver(keys, circ, noise, seed,
                                            retry_invalid=retry, max_attempts=5)
        attempts = valid = 0
        rng = random.Random(seed)
        for i in range(provers.ROUND1_BLOCK + 3):
            tries, found = sequential_round1(prover, seed, i)
            attempts += tries
            if found is None:
                with pytest.raises(provers.AttemptsExhausted):
                    prover.round1()
            else:
                valid += 1
                y, state, h, h_len = found
                assert prover.round1() == (y, h, h_len), i
                assert prover.state == state, i
                r, sign = rng.getrandbits(state.width), rng.choice((1, -1))
                d, bit = prover.round2(r), prover.round3(sign)
                prover.reset()
                assert prover.state == state, i
                assert (prover.round2(r), prover.round3(sign)) == (d, bit), i
            assert (prover.attempts, prover.valid_attempts) == (attempts, valid), i
