"""Verifier state machine, qubit algebra, scoring."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qbell import circuits as cc
from qbell import protocol as proto
from qbell import provers, tcf
from qbell.seeds import derive_rng

from helpers import COS2_PI_8, gate_count, gen_exact_bits

KEY77 = tcf.RabinKeyPair(N=77, p=11, q=7)
STATES = {
    proto.QubitState.ZERO: np.array([1.0, 0.0]),
    proto.QubitState.ONE: np.array([0.0, 1.0]),
    proto.QubitState.PLUS: np.array([1.0, 1.0]) / math.sqrt(2),
    proto.QubitState.MINUS: np.array([1.0, -1.0]) / math.sqrt(2),
}


def basis_vectors(angle):
    return (np.array([math.cos(angle / 2), math.sin(angle / 2)]),
            np.array([-math.sin(angle / 2), math.cos(angle / 2)]))


class TestExpectedBit:
    def test_agrees_with_two_vector_oracle(self):
        # independent: explicit 2-vectors, amplitude squared, argmax
        for state, vec in STATES.items():
            for sign in (1, -1):
                m0, m1 = basis_vectors(sign * math.pi / 4)
                p = (np.dot(m0, vec) ** 2, np.dot(m1, vec) ** 2)
                assert proto.expected_bit(state, sign) == int(p[1] > p[0])

    def test_majority_probability_is_cos2_pi8(self):
        for state, vec in STATES.items():
            for sign in (1, -1):
                m0, m1 = basis_vectors(sign * math.pi / 4)
                best = proto.expected_bit(state, sign)
                p = np.dot((m0, m1)[best], vec) ** 2
                assert abs(p - COS2_PI_8) < 1e-12

    def test_worked_entries(self):
        assert proto.expected_bit(proto.QubitState.ZERO, 1) == 0
        assert proto.expected_bit(proto.QubitState.PLUS, -1) == 1
        assert proto.expected_bit(proto.QubitState.MINUS, 1) == 1

    def test_born_probability_against_vectors(self):
        for state, vec in STATES.items():
            for sign in (1, -1):
                for theta in (math.pi / 4, 0.3, -0.7):
                    m0, m1 = basis_vectors(sign * theta)
                    assert abs(proto.born_probability(state, sign * theta, 0)
                               - np.dot(m0, vec) ** 2) < 1e-12
                    assert abs(proto.born_probability(state, sign * theta, 1)
                               - np.dot(m1, vec) ** 2) < 1e-12


class TestComputeQubitState:
    def test_equal_parity_gives_computational(self):
        # x0=2, x1=9 (little-endian); r=0b00011 has r.x0 = r.x1 = 1
        assert proto.compute_qubit_state(2, 9, 0b00011, 0) == proto.QubitState.ONE

    def test_zero_d_gives_plus(self):
        # r with r.x0 != r.x1 and d = 0: equal signs
        assert proto.compute_qubit_state(2, 9, 0b00010, 0) == proto.QubitState.PLUS

    def test_minus_from_odd_overlap(self):
        # x0 xor x1 = 0b01011; d = 0b01000 hits it once
        assert proto.compute_qubit_state(2, 9, 0b00010, 0b01000) == proto.QubitState.MINUS

    def test_symmetric_in_claw_order(self):
        rng = random.Random(0)
        for _ in range(300):
            x0, x1 = rng.getrandbits(12), rng.getrandbits(12)
            if x0 == x1:
                continue
            r, d = rng.getrandbits(12), rng.getrandbits(12)
            pb = rng.randrange(2)
            assert proto.compute_qubit_state(x0, x1, r, d, pb) == \
                proto.compute_qubit_state(x1, x0, r, d, pb)

    def test_phase_bit_flips_sign_states(self):
        assert proto.compute_qubit_state(2, 9, 0b00010, 0, rel_phase_bit=1) \
            == proto.QubitState.MINUS


class TestChooseChallenge:
    def test_always_preimage_at_ratio_one(self):
        rng = random.Random(1)
        assert all(proto.choose_challenge(rng, 1.0) == "preimage" for _ in range(50))

    def test_balanced_at_half(self):
        rng = random.Random(2)
        n = 100_000
        frac = sum(proto.choose_challenge(rng, 0.5) == "preimage" for _ in range(n)) / n
        assert abs(frac - 0.5) < 0.01

    def test_zero_ratio_rejected(self):
        with pytest.raises(tcf.DomainError):
            proto.choose_challenge(random.Random(0), 0.0)


class TestVerifierChecks:
    CTX77 = proto.ProtocolContext.plain(KEY77)

    def test_image_claw(self):
        assert self.CTX77.preimages(4) == (2, 9)

    def test_image_invalid(self):
        assert self.CTX77.preimages(5) == ()

    def test_image_single(self):
        assert self.CTX77.preimages(0) == (0,)

    def test_check_preimage(self):
        assert self.CTX77.check_preimage_wire(9, 4)
        assert not self.CTX77.check_preimage_wire(3, 4)
        assert not self.CTX77.check_preimage_wire(40, 61)  # out of domain


class TestScore:
    def test_exact_rational_arithmetic(self):
        rep = proto.ScoreReport.from_counts(4, 4, 8, 6)
        assert rep.p_x == 1 and rep.p_m == Fraction(3, 4)
        assert rep.score == Fraction(0)
        rep2 = proto.ScoreReport.from_counts(3, 2, 7, 6)
        assert rep2.score == Fraction(2, 3) + 4 * Fraction(6, 7) - 4

    def test_insufficient_data(self):
        with pytest.raises(proto.InsufficientData):
            proto.ScoreReport.from_counts(0, 0, 5, 5)
        with pytest.raises(proto.InsufficientData):
            proto.score([])

    def test_discards_count_toward_nothing(self):
        ts = []
        for i, outcome in enumerate([proto.Outcome.ACCEPTED_PREIMAGE,
                                     proto.Outcome.DISCARDED_INVALID_Y,
                                     proto.Outcome.ACCEPTED_MEASUREMENT,
                                     proto.Outcome.REJECTED_MEASUREMENT]):
            t = proto.Transcript(iteration=i)
            t.outcome = outcome
            ts.append(t)
        rep = proto.score(ts)
        assert (rep.trials_x, rep.trials_m) == (1, 2)
        assert (rep.accepts_x, rep.accepts_m) == (1, 1)

    def test_ideal_asymptotics(self):
        # score -> 4 cos^2(pi/8) - 3 = sqrt(2) - 1
        assert abs(4 * COS2_PI_8 - 3 - (math.sqrt(2) - 1)) < 1e-12


class TestRunIteration:
    def setup_method(self):
        self.keys = tcf.rabin_gen(tcf.SecurityParams(n_bits=24, rng_seed=5))
        self.ctx = proto.ProtocolContext.plain(self.keys)

    def test_ideal_preimage_always_accepted(self):
        prover = provers.IdealProver(proto.ProtocolContext.plain(self.keys), seed=0)
        rng = derive_rng(0, "v")
        cfg = proto.IterationConfig(challenge_ratio=1.0)
        for i in range(200):
            t = proto.run_iteration(self.ctx, prover, rng, cfg, i)
            assert t.outcome is proto.Outcome.ACCEPTED_PREIMAGE

    def test_malformed_preimage_rejected(self):
        class BadProver(provers.IdealProver):
            def answer_preimage(self):
                return self.ctx.keys.N * 2  # out of domain

        prover = BadProver(proto.ProtocolContext.plain(self.keys), seed=1)
        rng = derive_rng(1, "v")
        t = proto.run_iteration(self.ctx, prover, rng,
                                proto.IterationConfig(challenge_ratio=1.0), 0)
        assert t.outcome is proto.Outcome.REJECTED_PREIMAGE

    def test_honest_d_lands_in_zero_parity_class(self):
        # conditioned on r.x0 = r.x1, every honest d has d.(x0 xor x1) = 0
        prover = provers.IdealProver(proto.ProtocolContext.plain(self.keys), seed=2)
        rng = derive_rng(2, "v")
        checked = 0
        for i in range(10_000):
            prover.round1()
            st = prover.state
            r = rng.getrandbits(self.ctx.reg_width)
            if proto.parity(r & st.x0) != proto.parity(r & st.x1):
                continue
            d = prover.round2(r)
            assert proto.parity(d & (st.x0 ^ st.x1)) == 0
            checked += 1
        assert checked > 3000

    def test_postselect_silent_discard(self):
        class InvalidYProver(provers.CheaterProver):
            def _round1_impl(self):
                super()._round1_impl()
                return 5, 0, 0  # 5 is a non-residue mod 7

        keys = KEY77
        ctx = proto.ProtocolContext.plain(keys)
        prover = InvalidYProver(keys.public(), seed=3)
        rng = derive_rng(3, "v")
        cfg = proto.IterationConfig(postselect=True)
        ts = [proto.run_iteration(ctx, prover, rng, cfg, i) for i in range(20)]
        assert all(t.outcome is proto.Outcome.DISCARDED_INVALID_Y for t in ts)
        assert all(len(t.msgs) == 1 for t in ts)  # no round-2/3 messages
        with pytest.raises(proto.InsufficientData):
            proto.score(ts)

    @pytest.mark.parametrize("y", [77, -1])
    @pytest.mark.parametrize("postselect", [False, True])
    def test_image_outside_rabin_range_is_invalid(self, y, postselect):
        # a plain context scores an image outside [0, N) as a circuit
        # context scores one outside [0, k^2 N), without inverting it
        class OutOfRangeProver(provers.CheaterProver):
            def _round1_impl(self):
                super()._round1_impl()
                return y, 0, 0

        ctx = proto.ProtocolContext.plain(KEY77)
        prover = OutOfRangeProver(KEY77.public(), seed=3)
        rng = derive_rng(3, "v")
        cfg = proto.IterationConfig(postselect=postselect)
        outcomes = {proto.run_iteration(ctx, prover, rng, cfg, i).outcome for i in range(20)}
        assert outcomes == ({proto.Outcome.DISCARDED_INVALID_Y} if postselect else
                            {proto.Outcome.REJECTED_PREIMAGE,
                             proto.Outcome.REJECTED_MEASUREMENT})

    def test_public_key_context_cannot_invert(self):
        ctx = proto.ProtocolContext.plain(KEY77.public())
        with pytest.raises(tcf.DomainError):
            ctx.preimages(4)

    def test_single_preimage_iterations_counted_normally(self):
        # a cheater that picks x0 = 0 commits to the single-preimage image 0
        class ZeroProver(provers.CheaterProver):
            def _round1_impl(self):
                super()._round1_impl()
                self._x0 = 0
                self._x0_wire = 0
                return 0, 0, 0

        ctx = proto.ProtocolContext.plain(KEY77)
        prover = ZeroProver(KEY77.public(), seed=4)
        rng = derive_rng(9, "v")
        ts = [proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
              for i in range(300)]
        rep = proto.score(ts)
        # the cheater's assumed state is the true state here: all accepted
        assert rep.p_x == 1 and rep.p_m == 1


class TestTranscripts:
    def test_jsonl_export(self):
        keys = tcf.rabin_gen(tcf.SecurityParams(n_bits=16, rng_seed=2))
        ctx = proto.ProtocolContext.plain(keys)
        prover = provers.IdealProver(proto.ProtocolContext.plain(keys), seed=5)
        rng = derive_rng(4, "v")
        ts = [proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
              for i in range(20)]
        lines = proto.transcripts_to_jsonl(ts).splitlines()
        assert len(lines) == 20
        for i, line in enumerate(lines):
            doc = json.loads(line)
            assert doc["iter"] == i
            assert doc["msgs"][0]["tag"] == "image"
            assert doc["outcome"] in {o.value for o in proto.Outcome}

    def test_big_ddh_image_components_are_strings(self):
        # a 60-bit group puts image components beyond 2^53 into tuples
        key = tcf.ddh_gen(2, 60, seed=3)
        ctx = proto.ProtocolContext.plain(key)
        prover = provers.IdealProver(proto.ProtocolContext.plain(key), seed=5)
        rng = derive_rng(4, "v")
        ts = [proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
              for i in range(10)]
        big = 0
        for t, line in zip(ts, proto.transcripts_to_jsonl(ts).splitlines()):
            y = json.loads(line)["msgs"][0]["payload"]["y"]
            assert all(isinstance(v, str) == (v_int > 2 ** 53)
                       for v, v_int in zip(y, t.msgs["image"]["y"]))
            assert tuple(int(v) for v in y) == t.msgs["image"]["y"]
            big += sum(isinstance(v, str) for v in y)
        assert big > 0

    def test_message_order_matches_rounds(self):
        keys = tcf.rabin_gen(tcf.SecurityParams(n_bits=16, rng_seed=2))
        ctx = proto.ProtocolContext.plain(keys)
        prover = provers.IdealProver(proto.ProtocolContext.plain(keys), seed=6)
        rng = derive_rng(5, "v")
        t = proto.run_iteration(ctx, prover, rng,
                                proto.IterationConfig(challenge_ratio=1e-9), 0)
        tags = list(t.msgs)
        assert tags == ["image", "challenge", "vector", "equation", "basis", "result"]


class TestDdhProtocol:
    def test_preimage_string_beyond_register_rejected(self):
        # decoding reads only the register's bits; the check must not
        # accept other strings that decode to the same preimage
        key = tcf.ddh_gen(2, 10, seed=3)
        ctx = proto.ProtocolContext.plain(key)
        x0, _, y = provers.sample_claw(key, random.Random(1))
        x_wire = key.encode(x0)
        assert ctx.check_preimage_wire(x_wire, y)
        for bad in (x_wire + (1 << ctx.reg_width), x_wire - (1 << 40)):
            assert not ctx.check_preimage_wire(bad, y)

    def test_ideal_prover_over_ddh(self):
        key = tcf.ddh_gen(2, 10, seed=3)
        ctx = proto.ProtocolContext.plain(key)
        prover = provers.IdealProver(proto.ProtocolContext.plain(key), seed=7)
        rng = derive_rng(6, "v")
        ts = [proto.run_iteration(ctx, prover, rng, proto.IterationConfig(), i)
              for i in range(800)]
        rep = proto.score(ts)
        assert rep.p_x == 1
        assert abs(float(rep.p_m) - COS2_PI_8) < 0.06


class TestSettleBlocks:
    """run_session, which settles deferred claw rounds SETTLE_BLOCK at a time
    and once more at the end, gives the transcripts of a plain run_iteration
    loop, which settles each round at once."""

    B = proto.SETTLE_BLOCK
    # verifier seed 1 opens with a preimage challenge, so one iteration
    # leaves no round pending
    SEED = 1

    @pytest.fixture(scope="class")
    def keys(self):
        return gen_exact_bits(16)

    @staticmethod
    def _calls(monkeypatch):
        """Wrap circuits.evaluate_classical; returns its list of call widths."""
        calls = []
        inner = cc.evaluate_classical

        def counted(circuit, xs):
            calls.append(len(xs))
            return inner(circuit, xs)

        monkeypatch.setattr(cc, "evaluate_classical", counted)
        return calls

    @staticmethod
    def _noisy(keys, method, m, F):
        # cutoff 8 makes the 16-bit karatsuba multiplier recurse
        circ = cc.build_modsquare(keys.N, lift_m=m, method=method, cutoff=8)
        base = gate_count(cc.build_modsquare(keys.N, lift_m=0, method=method, cutoff=8))
        noise = provers.NoiseModel(circuit_fidelity=F, n_gates=base)
        ctx = proto.ProtocolContext.for_circuit(keys, circ)
        return provers.NoisyCircuitProver(ctx, noise, seed=7), ctx

    @pytest.mark.parametrize("postselect", [False, True])
    @pytest.mark.parametrize("method", ["schoolbook", "karatsuba"])
    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("F", [1.0, 0.5, 0.05])
    def test_noisy_session_equals_settling_at_once(self, keys, monkeypatch,
                                                   F, m, method, postselect):
        calls = self._calls(monkeypatch)
        cfg = proto.IterationConfig(postselect=postselect)
        # the plain loop makes one 2-lane call per deferred round; deferred[t]
        # counts those among the first t iterations
        prover, ctx = self._noisy(keys, method, m, F)
        rng = derive_rng(self.SEED, "verifier")
        plain, deferred = [], [0]
        while deferred[-1] < 2 * self.B + 5:
            plain.append(proto.run_iteration(ctx, prover, rng, cfg, len(plain)).to_json())
            deferred.append(len(calls))
        assert set(calls) == {2}

        for n_pending in (0, 1, self.B - 1, self.B, self.B + 1, 2 * self.B + 5):
            trials = max(t for t in range(1, len(deferred)) if deferred[t] == n_pending)
            prover, ctx = self._noisy(keys, method, m, F)
            calls.clear()
            ts = proto.run_session(ctx, prover, derive_rng(self.SEED, "verifier"), cfg,
                                   trials)
            assert all(t.outcome is not None for t in ts)
            assert [t.to_json() for t in ts] == plain[:trials], n_pending
            assert len(calls) == -(-n_pending // self.B), n_pending

    @pytest.mark.parametrize("kind", ["ideal", "cheater", "ddh"])
    def test_plain_session_makes_no_engine_call(self, keys, monkeypatch, kind):
        calls = self._calls(monkeypatch)
        key = tcf.ddh_gen(2, 10, seed=3) if kind == "ddh" else keys
        ctx = proto.ProtocolContext.plain(key)

        def prover():
            if kind == "cheater":
                return provers.CheaterProver(key.public(), seed=5)
            return provers.IdealProver(ctx, seed=5)

        cfg = proto.IterationConfig()
        rng = derive_rng(self.SEED, "verifier")
        p = prover()
        plain = [proto.run_iteration(ctx, p, rng, cfg, i).to_json() for i in range(150)]
        ts = proto.run_session(ctx, prover(), derive_rng(self.SEED, "verifier"), cfg, 150)
        assert [t.to_json() for t in ts] == plain
        assert calls == []
