"""Prover implementations: honest simulation, cheater, noise, angles."""

import math
import random
from collections import Counter

import numpy as np
import pytest

from qbell import circuits as cc
from qbell import extractor as ex
from qbell import protocol as proto
from qbell import provers, tcf
from qbell.seeds import derive_rng, derive_seed

from helpers import (COS2_PI_8, AngleModel, PhaseNoisyProver, ReferenceCheaterProver,
                     ReferenceIdealProver, StateVector, gen_exact_bits, noisy_round1,
                     planted_run, pm_of_theta, sample_claw_by_inversion)


class TestSampleClaw:
    @pytest.mark.parametrize("keys", [
        gen_exact_bits(16), gen_exact_bits(32), gen_exact_bits(64),
        tcf.ddh_gen(2, 10, seed=9), tcf.ddh_gen(3, 12, seed=24),
    ], ids=["rabin16", "rabin32", "rabin64", "ddh-k2", "ddh-k3"])
    def test_matches_inversion_oracle(self, keys):
        # same claw, same image and the same draws as partnering by inversion
        for seed in range(60):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(10):
                assert provers.sample_claw(keys, rng) == sample_claw_by_inversion(keys, ref)
            assert rng.getstate() == ref.getstate()


class TestIdealRound1:
    def test_worked_claw(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        rng = random.Random(3)
        for _ in range(20):
            y, state = provers.ideal_round1(proto.ProtocolContext.plain(keys), rng)
            assert state.phase == 0
            assert {state.x0, state.x1} == set(tcf.rabin_invert(keys, y))
            assert len({state.x0, state.x1}) == 2

    def test_single_preimage_images_resampled(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        rng = random.Random(4)
        seen = set()
        for _ in range(3000):
            y, _ = provers.ideal_round1(proto.ProtocolContext.plain(keys), rng)
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
            y, _ = provers.ideal_round1(proto.ProtocolContext.plain(keys), rng)
            counts[y] = counts.get(y, 0) + 1
        # each claw image carries exactly two domain preimages
        for y, c in counts.items():
            assert abs(c / n - 1 / 15) < 0.012, (y, c)


class TestIdealRound2:
    def test_merged_state_returns_first_draw(self):
        # a merged register (equal branches, or collapsed by the y
        # measurement) gives d as the rng's first uniform draw, for any r
        for st in (provers.TwoBranchState(x0=3, x1=3, phase=0, y=9, width=4),
                   provers.TwoBranchState(x0=0b01001, x1=0b00010, phase=1,
                                          y=0, width=5, collapsed=1)):
            for seed in range(20):
                expect = random.Random(seed).getrandbits(st.width)
                for r in (0, 1, 0b01011):
                    assert provers.ideal_round2(
                        st, r, random.Random(seed).getrandbits(st.width)) == expect

    def test_equal_case_parity_class_plus(self):
        st = provers.TwoBranchState(x0=0b01001, x1=0b00010, phase=0, y=0, width=5)
        rng = random.Random(1)
        diff = st.x0 ^ st.x1
        for _ in range(500):
            r = rng.getrandbits(5)
            if proto.parity(r & st.x0) == proto.parity(r & st.x1):
                d = provers.ideal_round2(st, r, rng.getrandbits(st.width))
                assert proto.parity(d & diff) == 0

    def test_equal_case_parity_class_minus(self):
        st = provers.TwoBranchState(x0=0b01001, x1=0b00010, phase=1, y=0, width=5)
        rng = random.Random(2)
        diff = st.x0 ^ st.x1
        for _ in range(500):
            r = rng.getrandbits(5)
            if proto.parity(r & st.x0) == proto.parity(r & st.x1):
                d = provers.ideal_round2(st, r, rng.getrandbits(st.width))
                assert proto.parity(d & diff) == 1

    def test_unequal_case_d_uniform(self):
        # chi-square against uniform over 32 strings at n=5
        st = provers.TwoBranchState(x0=0b01001, x1=0b00010, phase=0, y=0, width=5)
        rng = random.Random(3)
        r = 0b01000  # r.x0 = 1, r.x1 = 0
        counts = [0] * 32
        n = 32_000
        for _ in range(n):
            counts[provers.ideal_round2(st, r, rng.getrandbits(st.width))] += 1
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
            y, st = provers.ideal_round1(ctx, rng)
            r = rng.getrandbits(ctx.reg_width)
            d = provers.ideal_round2(st, r, rng.getrandbits(st.width))
            sign = 1 if rng.random() < 0.5 else -1
            bit = provers.ideal_round3(st, r, d, sign, rng.random())
            state = proto.compute_qubit_state(st.x0, st.x1, r, d)
            hits += bit == proto.expected_bit(state, sign)
        p = hits / n
        # false-failure probability 2.7e-3 (two-sided 3 sigma, exact
        # binomial); this test draws from its own stream, not a prover's
        assert abs(p - COS2_PI_8) < 3 * math.sqrt(0.125 / n)


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
        # false-failure probability 2.6e-3: two-sided 3 sigma over about
        # 15,000 measurement rounds (exact binomial); the Hoeffding interval
        # below is 4.3 sigma wide in p_m (2e-5) and inside the window
        assert abs(float(rep.p_m) - 0.75) < 3 * math.sqrt(0.1875 / rep.trials_m)
        assert abs(float(rep.score)) < rep.ci_halfwidth

    def test_uses_public_key_only(self):
        pub = gen_exact_bits(24).public()
        prover = provers.CheaterProver(pub, seed=0)
        y, _, _ = prover.round1()
        assert proto.ProtocolContext.plain(pub).check_preimage_wire(prover.answer_preimage(), y)


class TestRewindDeterminism:
    def test_reset_replays_identically(self):
        keys = gen_exact_bits(24)
        prover = provers.IdealProver(proto.ProtocolContext.plain(keys), seed=9)
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

    def test_round2_replays_over_a_list_decode(self):
        # a rewound prover draws d once per r and snapshot, and answers a
        # whole Goldreich-Levin decode exactly as one that draws every time
        draws = Counter()

        class Counted(provers.IdealProver):
            def _round2_impl(self, r):
                draws[self._snapshot, r] += 1
                return super()._round2_impl(r)

        class Redrawing(provers.IdealProver):
            def round2(self, r):
                self._r, self._d = r, self._round2_impl(r)
                return self._d

        def decode(cls):
            answers = []

            class Logged(cls):
                def round2(self, r):
                    answers.append(super().round2(r))
                    return answers[-1]

                def round3(self, basis_sign):
                    answers.append(super().round3(basis_sign))
                    return answers[-1]

            keys = gen_exact_bits(20)
            prover = Logged(proto.ProtocolContext.plain(keys), seed=4)
            prover.round1()
            oracle = ex.RewindableOracle(prover, prover.answer_preimage())
            prover.reset()
            cands = ex.gl_list_decode(oracle, 20, ex.GlParams(t=4), random.Random(0))
            prover.round1()  # a new snapshot draws again
            prover.round2(next(iter(oracle._cache)))
            return cands, answers, oracle.queries_used

        cands, answers, queries = decode(Counted)
        assert decode(Redrawing) == (cands, answers, queries)
        assert len(draws) == queries + 1 and set(draws.values()) == {1}


class TestDrawsMatchReference:
    @pytest.mark.parametrize("kind", ["ideal", "cheater"])
    def test_session_and_rewinds_answer_as_the_reference(self, kind):
        # the provers read each single-draw message's first bits directly,
        # and their references draw them from a stream object: 200 played
        # iterations give equal transcripts, and the rewinds of three
        # list decodes read equal answers
        keys = gen_exact_bits(24)
        ctx = proto.ProtocolContext.plain(keys)
        if kind == "ideal":
            pair = [cls(ctx, seed=17) for cls in (provers.IdealProver, ReferenceIdealProver)]
        else:
            pair = [cls(keys.public(), seed=17)
                    for cls in (provers.CheaterProver, ReferenceCheaterProver)]
        sessions = [[proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
                     for i in range(200)]
                    for prover, rng in zip(pair, (derive_rng(3, "v"), derive_rng(3, "v")))]
        assert sessions[0] == sessions[1]

        def rewinds(prover, decode):
            answers = []

            class Logged:
                def reset(self):
                    prover.reset()

                def round2(self, r):
                    answers.append((r, prover.round2(r)))
                    return answers[-1][1]

                def round3(self, basis_sign):
                    answers.append((basis_sign, prover.round3(basis_sign)))
                    return answers[-1][1]

            prover.round1()
            x0 = prover.answer_preimage()
            cands = ex.gl_list_decode(ex.RewindableOracle(Logged(), x0), ctx.reg_width,
                                      ex.GlParams(t=5), random.Random(decode))
            return x0, cands, answers

        for decode in range(3):
            assert rewinds(pair[0], decode) == rewinds(pair[1], decode)


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
            assert state.phase in (0, 1)
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
        assert run.phase == 0

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
        assert run.phase == 1

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
            expect[run.reg1] += (-1) ** run.phase / math.sqrt(2)
            assert sv.equal_up_to_global_phase(expect), (trial, plan)


class TestAngleModel:
    def test_noise_free_consistency(self):
        m = AngleModel(1.0, 1.0, math.pi / 4)
        assert abs(pm_of_theta(m) - COS2_PI_8) < 1e-12

    def test_half_coherence_at_pi4(self):
        m = AngleModel(1.0, 0.5, math.pi / 4)
        assert abs(pm_of_theta(m) - 0.677) < 0.002

    def test_small_delta_expansion(self):
        delta = 0.1
        m = AngleModel(1.0, 0.5 + delta, delta)
        assert abs(pm_of_theta(m) - (0.75 + 3 * delta ** 2 / 8)) < delta ** 3

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
                p_best = pm_of_theta(AngleModel(f_par, f_perp, best))
                for th in thetas:
                    p = pm_of_theta(AngleModel(f_par, f_perp, th))
                    assert p <= p_best + 1e-12


class TestPhaseNoisyProver:
    def run_score(self, delta, theta, trials=30_000, seed=0):
        keys = gen_exact_bits(24)
        ctx = proto.ProtocolContext.plain(keys)
        prover = PhaseNoisyProver(proto.ProtocolContext.plain(keys), seed=seed,
                                  delta=delta, theta=theta)
        rng = derive_rng(seed, "v")
        ts = [proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
              for i in range(trials)]
        return proto.score(ts)

    # false-failure probabilities over about 15,000 measurement rounds
    # each (exact binomial tails at the model's p_m)
    def test_fair_coin_phase_saturates_bound(self):
        rep = self.run_score(delta=0.0, theta=math.pi / 4)
        assert rep.p_x == 1
        # p_m = 0.677: below 1e-100
        assert float(rep.score) <= rep.ci_halfwidth

    def test_adapted_angle_beats_bound(self):
        delta = 0.2
        rep = self.run_score(delta=delta, theta=provers.optimal_theta(1.0, 0.5 + delta))
        # p_m = 0.7693: 1.5e-8 for the sign, and 3.8e-4 for the window
        # below, 3.56 sigma wide because it takes the variance as 1/4
        assert float(rep.score) > 0
        # measured p_m tracks the model prediction
        model = AngleModel(1.0, 0.5 + delta,
                           provers.optimal_theta(1.0, 0.5 + delta))
        pred = pm_of_theta(model)
        assert abs(float(rep.p_m) - pred) < 3 * math.sqrt(0.25 / rep.trials_m)

    def test_prescribed_angle_stays_classical(self):
        rep = self.run_score(delta=0.2, theta=math.pi / 4)
        # p_m = 0.7475: 2.8e-7
        assert float(rep.score) <= rep.ci_halfwidth


class TestNoisyProverProtocol:
    def test_full_fidelity_reproduces_ideal_score(self):
        keys = gen_exact_bits(14)
        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        ctx = proto.ProtocolContext.for_circuit(keys, circ)
        noise = provers.NoiseModel(1.0, cc.count_resources(circ).total_gates)
        prover = provers.NoisyCircuitProver(ctx, noise, seed=20)
        rng = derive_rng(21, "v")
        ts = [proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
              for i in range(2500)]
        rep = proto.score(ts)
        assert rep.p_x == 1
        # false-failure probability 2.7e-7: with p_x = 1 the Hoeffding
        # interval is a 5.2 sigma window on p_m over about 1,250 measurement
        # rounds (exact binomial)
        assert abs(float(rep.score) - (math.sqrt(2) - 1)) < rep.ci_halfwidth


def sequential_round1(prover, seed, i):
    """(attempts, (y, state, h, h_len) or None) of iteration i of a
    NoisyCircuitProver built with `seed`, one attempt at a time from the
    iteration's own stream."""
    rng = derive_rng(derive_seed(seed, "iter", i), "round1")
    for attempt in range(1, prover.max_attempts + 1):
        y, state, h = noisy_round1(prover.ctx.keys, prover.ctx.circuit, prover.noise, rng,
                                   prover.ctx)
        if provers.is_valid_y(y, prover.ctx.lift_k):
            return attempt, (y, state, h, prover.ctx.circuit.schedule.h_len)
    return prover.max_attempts, None


class TestBlockedRound1:
    """Round 1 run ahead in the pool against one attempt at a time."""

    POOL = 4  # a small pool, so a few played iterations cross many refills

    @pytest.mark.parametrize("capped", [True, False])
    @pytest.mark.parametrize("method", ["schoolbook", "karatsuba"])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("F", [1.0, 0.5, 0.05])
    def test_matches_sequential_oracle(self, monkeypatch, F, m, method, capped):
        # iteration by iteration across pool refills, for sessions shorter
        # than, as long as and longer than the pool and of unknown length,
        # and two iterations past a known length: the same image, h, state
        # and attempt counts as one attempt at a time; an iteration out of
        # attempts raises only when played, and reset() rewinds to the same
        # state.  Capped at 5 attempts, some iterations run out; at the
        # prover's own budget every one retries until its y is valid
        monkeypatch.setattr(provers, "ROUND1_POOL", self.POOL)
        sizes = []  # the runs of each engine call
        block = cc.run_two_branch_block

        def counted(circuit, x0s, x1s, draws):
            sizes.append(len(x0s))
            return block(circuit, x0s, x1s, draws)

        monkeypatch.setattr(cc, "run_two_branch_block", counted)
        keys = gen_exact_bits(14)
        circ = cc.build_modsquare(keys.N, lift_m=m, method=method, cutoff=8)
        ctx = proto.ProtocolContext.for_circuit(keys, circ)
        noise = provers.NoiseModel(F, cc.count_resources(circ).total_gates)
        seed = 11 + m
        for trials in (self.POOL - 1, self.POOL, 2 * self.POOL + 1, None):
            prover = provers.NoisyCircuitProver(ctx, noise, seed, trials)
            if capped:
                prover.max_attempts = 5
            attempts = valid = 0
            rng = random.Random(seed)
            for i in range(10 if trials is None else trials + 2):
                tries, found = sequential_round1(prover, seed, i)
                attempts += tries
                if found is None:
                    with pytest.raises(provers.AttemptsExhausted):
                        prover.round1()
                else:
                    valid += 1
                    y, state, h, h_len = found
                    assert prover.round1() == (y, h, h_len), (trials, i)
                    assert prover.state == state, (trials, i)
                    r, sign = rng.getrandbits(state.width), rng.choice((1, -1))
                    d, bit = prover.round2(r), prover.round3(sign)
                    prover.reset()
                    assert prover.state == state, (trials, i)
                    assert (prover.round2(r), prover.round3(sign)) == (d, bit), (trials, i)
                assert (prover.attempts, prover.valid_attempts) == (attempts, valid), \
                    (trials, i)
        assert max(sizes) <= self.POOL
