"""Goldreich-Levin extraction against rewindable provers."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell import extractor as ex
from qbell import protocol as proto
from qbell import provers, tcf
from qbell.seeds import derive_rng

from helpers import (COS2_PI_8, gen_exact_bits, good_fraction, lemma1_bound,
                     reference_gl_list_decode)


class TruthfulOracleProver(provers.ProverBase):
    """Answers round 3 with the exact expected bit of the true state:
    a noise-free oracle whose parity guesses are always right."""

    def __init__(self, keys, seed):
        super().__init__(seed)
        self.keys = keys
        self.ctx = proto.ProtocolContext.plain(keys)
        self.state = None

    def _round1_impl(self):
        y, self.state = provers.ideal_round1(self.ctx, self._rng("round1"))
        return y, 0, 0

    def answer_preimage(self):
        return self.state.x0

    def _round2_impl(self, r):
        return provers.ideal_round2(self.state, r,
                                    self._rng("d", r).getrandbits(self.state.width))

    def _round3_impl(self, r, d, basis_sign):
        st = proto.compute_qubit_state(self.state.x0, self.state.x1, r, d)
        return proto.expected_bit(st, basis_sign)


class RandomAnswerProver(TruthfulOracleProver):
    def _round3_impl(self, r, d, basis_sign):
        return self._rng("m", r, basis_sign).randrange(2)


class TestParityGuess:
    def _oracle(self, prover_cls, bits=20, seed=0):
        keys = gen_exact_bits(bits)
        prover = prover_cls(keys, seed)
        y = prover.round1()[0]
        x0 = prover.answer_preimage()
        x1 = next(iter(tcf.rabin_invert(keys, y) - {x0}))
        prover.reset()
        return ex.RewindableOracle(prover, x0), x1, keys

    def test_truthful_oracle_always_correct(self):
        oracle, x1, keys = self._oracle(TruthfulOracleProver)
        rng = random.Random(1)
        n = keys.N.bit_length()
        for _ in range(300):
            r = rng.getrandbits(n)
            assert oracle.query(r) == proto.parity(r & x1)

    def test_ideal_prover_accuracy_above_union_bound(self):
        keys = gen_exact_bits(24)
        bound = 1 - 2 * (1 - COS2_PI_8)  # ~0.707
        prover = provers.IdealProver(proto.ProtocolContext.plain(keys), seed=3)
        y = prover.round1()[0]
        x0 = prover.answer_preimage()
        x1 = next(iter(tcf.rabin_invert(keys, y) - {x0}))
        prover.reset()
        oracle = ex.RewindableOracle(prover, x0)
        rng = random.Random(2)
        n = keys.N.bit_length()
        hits = 0
        trials = 4000
        for _ in range(trials):
            r = rng.getrandbits(n)
            hits += oracle.query(r) == proto.parity(r & x1)
        acc = hits / trials
        # false-failure probability below 1e-69: an answer is right with
        # probability cos^4(pi/8) = 0.729 when r.x0 = r.x1 and
        # 1 - cos^2 sin^2(pi/8) = 0.875 otherwise, so 0.802 at a random r,
        # 18.8 sigma above the one-sided threshold 0.683 (exact binomial)
        assert acc > bound - 3 * math.sqrt(0.25 / trials)

    def test_random_answers_give_coin_accuracy(self):
        oracle, x1, keys = self._oracle(RandomAnswerProver, seed=5)
        rng = random.Random(3)
        n = keys.N.bit_length()
        trials = 6000
        hits = 0
        for _ in range(trials):
            r = rng.getrandbits(n)
            hits += oracle.query(r) == proto.parity(r & x1)
        # the hits of distinct r are fair coins: the two random answers give
        # a guess that is right with probability 3/4 when r.(x0 ^ x1) is odd
        # and 1/4 when it is even, and over uniform r that parity is a fair
        # coin.  A repeated r (15 of these 6,000 draws of 20 bits) is
        # answered from the cache and repeats its hit.  Under that law the
        # bound (4.6 sigma) fails by chance with probability 3.8e-6, exactly;
        # it would be 3.6e-6 for Bin(6000, 1/2), and 1.6e-4 at 4,000 queries
        assert abs(hits / trials - 0.5) < 0.03

    def test_answer_pairs_tell_computational_states_apart(self):
        # the oracle's guess rests on this: the four states predict four
        # distinct (+, -) answer pairs, whose bits agree exactly for |0> and
        # |1>, and then equal the state's bit
        pairs = {s: (proto.expected_bit(s, 1), proto.expected_bit(s, -1))
                 for s in proto.QubitState}
        assert len(set(pairs.values())) == 4
        assert {s: p for s, p in pairs.items() if p[0] == p[1]} == \
            {proto.QubitState.ZERO: (0, 0), proto.QubitState.ONE: (1, 1)}

    def test_caching(self):
        oracle, _, keys = self._oracle(TruthfulOracleProver, seed=7)
        r = 0b1101
        oracle.query(r)
        before = oracle.queries_used
        oracle.query(r)
        assert oracle.queries_used == before


class NoisyOracleProver(TruthfulOracleProver):
    """Truthful except each round-3 answer is flipped with probability p."""

    flip_p = 0.05

    def _round3_impl(self, r, d, basis_sign):
        bit = super()._round3_impl(r, d, basis_sign)
        if self._rng("flip", r, basis_sign).random() < self.flip_p:
            bit ^= 1
        return bit


class PlantedOracle:
    """r -> parity(r . secret), flipped with probability flip_p per query,
    recording the queries asked."""

    def __init__(self, secret, flip_p, seed):
        self.secret = secret
        self.flip_p = flip_p
        self.rng = random.Random(seed)
        self.asked = []

    def query(self, r):
        self.asked.append(r)
        return proto.parity(r & self.secret) ^ (self.rng.random() < self.flip_p)


class TestListDecode:
    def test_noise_free_contains_partner(self):
        keys = gen_exact_bits(16)
        prover = TruthfulOracleProver(keys, seed=1)
        y = prover.round1()[0]
        x0 = prover.answer_preimage()
        x1 = next(iter(tcf.rabin_invert(keys, y) - {x0}))
        prover.reset()
        oracle = ex.RewindableOracle(prover, x0)
        cands = ex.gl_list_decode(oracle, 16, ex.GlParams(t=4), random.Random(0))
        assert x1 in cands
        assert len(cands) <= 16

    def test_high_accuracy_oracle_mostly_succeeds(self):
        wins = 0
        for trial in range(60):
            keys = gen_exact_bits(16, seed0=100 + trial)
            prover = NoisyOracleProver(keys, seed=trial)
            y = prover.round1()[0]
            x0 = prover.answer_preimage()
            x1 = next(iter(tcf.rabin_invert(keys, y) - {x0}))
            prover.reset()
            oracle = ex.RewindableOracle(prover, x0)
            cands = ex.gl_list_decode(oracle, 16, ex.GlParams(t=6),
                                      random.Random(trial))
            wins += x1 in cands
        # false-failure probability at most 2.8e-13: each distinct r is
        # answered wrong with probability 1 - 0.95^2 = 0.0975 when r.(x0 ^ x1)
        # is even and 0.95 * 0.05 = 0.0475 when odd, and a trial loses only
        # if its six probes are linearly dependent (9.6e-4) or a bit of the
        # true sign assignment's candidate gets 32 or more wrong votes of 63
        # (at most 16 P(Bin(63, 0.0975) >= 32) = 3.0e-15), so a loss has
        # probability q <= 9.6e-4, and the exact binomial tail at that q is
        # P(Bin(60, q) >= 7) = 2.8e-13.  30,000 trials of that model on
        # random 16-bit claws all won
        assert wins >= 54  # >= 90%

    def test_coin_oracle_fails(self):
        wins = 0
        for trial in range(40):
            keys = gen_exact_bits(16, seed0=300 + trial)
            prover = RandomAnswerProver(keys, seed=trial)
            y = prover.round1()[0]
            x0 = prover.answer_preimage()
            x1 = next(iter(tcf.rabin_invert(keys, y) - {x0}))
            prover.reset()
            oracle = ex.RewindableOracle(prover, x0)
            cands = ex.gl_list_decode(oracle, 16, ex.GlParams(t=5),
                                      random.Random(trial))
            wins += x1 in cands
        # false-failure probability 1.4e-6: each distinct r is answered
        # 1 ^ r.x0 with probability 3/4 (two uniform round-3 bits), and under
        # that model x1 was among the 32 candidates in 209 of 400,000
        # simulated trials on random 16-bit claws, p = 5.2e-4; the exact
        # P(Bin(40, p) >= 3) is 1.4e-6, and 2.6e-6 at p's 99.9% upper bound
        assert wins <= 2  # <= 5%

    def test_budget_guard(self):
        oracle = None
        with pytest.raises(ex.BudgetExceeded):
            ex.gl_list_decode(oracle, 64, ex.GlParams(t=20), random.Random(0))

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 8), n=st.integers(1, 20), secret=st.integers(0, 2 ** 20 - 1),
           flip_p=st.sampled_from((0.0, 0.05, 0.2, 0.5)), seed=st.integers(0, 2 ** 16))
    def test_transform_matches_vote_loop(self, t, n, secret, flip_p, seed):
        # the Walsh-Hadamard decoder against the direct 4^t n vote loop on
        # a planted parity oracle: the same queries in the same order, the
        # same candidates in the same sigma order
        oracles = [PlantedOracle(secret % (1 << n), flip_p, seed) for _ in range(2)]
        got = ex.gl_list_decode(oracles[0], n, ex.GlParams(t), random.Random(seed))
        want = reference_gl_list_decode(oracles[1], n, ex.GlParams(t), random.Random(seed))
        assert got == want
        assert oracles[0].asked == oracles[1].asked

    def test_candidate_cap_matches_vote_loop(self, monkeypatch):
        monkeypatch.setattr(ex, "MAX_CANDIDATES", 5)
        oracles = [PlantedOracle(0b1011001, 0.3, 4) for _ in range(2)]
        got = ex.gl_list_decode(oracles[0], 7, ex.GlParams(6), random.Random(1))
        want = reference_gl_list_decode(oracles[1], 7, ex.GlParams(6), random.Random(1))
        assert got == want and len(got) == 5


class TestLemma1:
    def test_arithmetic(self):
        assert abs(lemma1_bound(0.1, 0.05) - 0.7) < 1e-12
        assert lemma1_bound(0.0, 1e-9) > 0.999999
        assert lemma1_bound(0.5, 0.1) == 0.0

    def test_parameter_checks(self):
        with pytest.raises(tcf.DomainError):
            lemma1_bound(1.5, 0.1)
        with pytest.raises(tcf.DomainError):
            lemma1_bound(0.1, 0.6)

    def test_planted_noise_families(self):
        # fifty random plants; the measured good-y fraction always clears
        # the bound computed from the measured average noise
        rng = random.Random(42)
        mu = 0.1
        for plant in range(50):
            n_y = rng.randrange(50, 200)
            rates = [rng.random() * 0.5 for _ in range(n_y)]
            measured = []
            for e in rates:
                q = 400
                flips = sum(rng.random() < e for _ in range(q))
                measured.append(flips / q)
            eps = sum(measured) / len(measured)
            assert good_fraction(measured, mu) >= lemma1_bound(eps, mu) - 1e-12


class TestExtractAndFactor:
    def test_ideal_prover_end_to_end(self):
        wins = 0
        for trial in range(25):
            keys = gen_exact_bits(28, seed0=500 + trial)
            prover = provers.IdealProver(proto.ProtocolContext.plain(keys), seed=trial)
            rng = derive_rng(900, "x", trial)
            try:
                rep = ex.extract_and_factor(prover, proto.ProtocolContext.plain(keys),
                                            ex.GlParams(t=6), rng)
            except ex.ExtractionFailed:
                continue
            assert rep.factors == (keys.p, keys.q)
            assert rep.claw is not None and rep.queries_used > 0
            wins += 1
        assert wins >= 23

    def test_cheater_never_factors(self):
        for trial in range(15):
            keys = gen_exact_bits(28, seed0=700 + trial)
            cheat = provers.CheaterProver(keys.public(), seed=trial)
            with pytest.raises(ex.ExtractionFailed):
                ex.extract_and_factor(cheat, proto.ProtocolContext.plain(keys),
                                      ex.GlParams(t=5), derive_rng(901, "x", trial))

    def test_refusing_prover_fails_at_preimage_stage(self):
        class Refuser(provers.CheaterProver):
            def answer_preimage(self):
                return 0

        keys = gen_exact_bits(24)
        prover = Refuser(keys.public(), seed=1)
        with pytest.raises(ex.ExtractionFailed):
            ex.extract_and_factor(prover, proto.ProtocolContext.plain(keys), ex.GlParams(t=4),
                                  random.Random(0))

    def test_degraded_but_useful_prover(self):
        # blend: answers truthfully with probability 0.9, else a coin; the
        # measured score clears 0.2, and the reduction still factors at a
        # rate far above one half
        class Blend(provers.IdealProver):
            def _round3_impl(self, r, d, basis_sign):
                rng = self._rng("blend", r, basis_sign)
                if rng.random() < 0.9:
                    return provers.ideal_round3(self.state, r, d, basis_sign,
                                                self._rng("m", r, basis_sign).random())
                return rng.randrange(2)

        keys0 = gen_exact_bits(24, seed0=799)
        ctx = proto.ProtocolContext.plain(keys0)
        rng = derive_rng(903, "score")
        ts = [proto.run_iteration(ctx, Blend(proto.ProtocolContext.plain(keys0), seed=99), rng,
                                  proto.IterationConfig(), i) for i in range(4000)]
        rep = proto.score(ts)
        assert float(rep.score) >= 0.2

        wins = 0
        trials = 40
        for trial in range(trials):
            keys = gen_exact_bits(24, seed0=800 + trial)
            prover = Blend(proto.ProtocolContext.plain(keys), seed=trial)
            rng = derive_rng(902, "x", trial)
            try:
                rep = ex.extract_and_factor(prover, proto.ProtocolContext.plain(keys),
                                            ex.GlParams(t=7), rng)
                wins += rep.factors == (keys.p, keys.q)
            except ex.ExtractionFailed:
                pass
        assert wins >= trials // 2
