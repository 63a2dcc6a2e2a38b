"""Gate-level builders, evaluators and resource accounting."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell import circuits as cc
from qbell import protocol as proto
from qbell import tcf

from helpers import (blum_semiprimes, build_mul3_inplace, gen_exact_bits, montgomery_stage,
                     planted_run, sequential_two_branch, validate_circuit)


class TestMul3:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_exhaustive(self, n):
        frag = build_mul3_inplace(n)
        validate_circuit(frag)
        ys, _ = cc.evaluate_classical(frag, range(1 << n))
        assert ys == [3 * x for x in range(1 << n)]

    def test_worked_values(self):
        frag = build_mul3_inplace(4)
        assert cc.evaluate_classical(frag, [5, 0])[0] == [15, 0]


class TestBuilders:
    def test_schoolbook_full_domain_77(self):
        circ = cc.build_modsquare(77)
        validate_circuit(circ)
        rp = circ.metadata["rprime"]
        ys, _ = cc.evaluate_classical(circ, range(39))
        for x, y in enumerate(ys):
            assert 0 <= y < 77
            assert y == x * x * rp % 77

    def test_wrong_bit_length_rejected(self):
        # the modulus' bit length is checked by `qbell resources` (TestCli)
        with pytest.raises(cc.CircuitError):
            cc.build_modsquare(77, method="karatsuba", cutoff=4)

    def test_semantics_all_blum_semiprimes_below_1000(self):
        # exhaustive: every input of every builder matches integer arithmetic
        for N, p, q in blum_semiprimes(1000):
            for circ in (cc.build_modsquare(N),
                         cc.build_modsquare(N, method="karatsuba", cutoff=8)):
                rp = circ.metadata["rprime"]
                bound = (N + 1) // 2
                ys, _ = cc.evaluate_classical(circ, range(bound))
                for x in range(bound):
                    assert ys[x] == x * x * rp % N, (N, x, circ.metadata["builder"])

    def test_karatsuba_recursion_matches_schoolbook(self):
        keys = gen_exact_bits(24)
        sb = cc.build_modsquare(keys.N)
        ka = cc.build_modsquare(keys.N, method="karatsuba", cutoff=8)
        rng = random.Random(0)
        xs = [rng.randrange((keys.N + 1) // 2) for _ in range(30)]
        ys_sb, _ = cc.evaluate_classical(sb, xs)
        ys_ka, _ = cc.evaluate_classical(ka, xs)
        assert ys_sb == ys_ka

    def test_lifted_builder(self):
        N = 77
        for m in (1, 2):
            circ = cc.build_modsquare(N, lift_m=m, method="schoolbook")
            validate_circuit(circ)
            k = 3 ** m
            modulus = k * k * N
            rp = circ.metadata["rprime"]
            xs = range(0, 39, 5)
            ys, _ = cc.evaluate_classical(circ, xs)
            for x, y in zip(xs, ys):
                assert y == (k * x) ** 2 * rp % modulus
                assert y % (k * k) == 0  # honest images carry the redundancy

    def test_batch_matches_scalar(self):
        # one call over many inputs equals one call per input
        circ = cc.build_modsquare(583, method="karatsuba", cutoff=8)  # 11 * 53
        xs = list(range(0, 292, 3))
        ys, garb = cc.evaluate_classical(circ, xs)
        for i, x in enumerate(xs):
            assert cc.evaluate_classical(circ, [x]) == ([ys[i]], [garb[i]])


class TestMontgomeryStage:
    def test_composed_with_classical_square(self):
        stage = montgomery_stage(7, 77)
        validate_circuit(stage)
        rp = stage.metadata["rprime"]
        undo = pow(rp, -1, 77)
        ys, _ = cc.evaluate_classical(stage, [x * x for x in range(39)])
        for x, y in enumerate(ys):
            assert y == x * x * rp % 77
            assert y * undo % 77 == x * x % 77

    def test_zero(self):
        stage = montgomery_stage(7, 77)
        assert cc.evaluate_classical(stage, [0])[0] == [0]

    def test_rprime_invertible(self):
        stage = montgomery_stage(9, 341)  # 11 * 31
        assert math.gcd(stage.metadata["rprime"], 341) == 1

    def test_even_modulus_rejected(self):
        with pytest.raises(cc.CircuitError):
            montgomery_stage(6, 34)


class TestDiscardPhase:
    def test_two_branch_phase_equals_verifier_recomputation(self):
        keys = gen_exact_bits(12)
        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        ctx = proto.ProtocolContext.for_circuit(keys, circ)
        rng = random.Random(5)
        for _ in range(30):
            x0 = rng.randrange((keys.N + 1) // 2)
            roots = tcf.rabin_invert(keys, x0 * x0 % keys.N)
            if len(roots) != 2:
                continue
            x0, x1 = sorted(roots)
            run = cc.run_two_branch(circ, x0, x1, 0.0, rng)
            pv = proto._verifier_phase_bit(ctx, x0, x1, run.h, run.h_len)
            assert run.rel_phase == (-1 if pv else 1)


class TestValidation:
    def test_builders_validate(self):
        for N, _, _ in blum_semiprimes(120)[:4]:
            validate_circuit(cc.build_modsquare(N))

    def test_use_after_discard_detected(self):
        gates = [(cc.ALLOC, 0), (cc.ALLOC, 1), (cc.CNOT, 0, 1),
                 (cc.DISCARD, (1,)), (cc.X, 1), (cc.MEASURE_Y, (0,))]
        circ = cc.Circuit(n_qubits=2, gates=gates, registers={"x": (0,)}, metadata={})
        with pytest.raises(cc.MalformedCircuit):
            validate_circuit(circ)

    def test_realloc_after_discard_allowed(self):
        gates = [(cc.ALLOC, 0), (cc.ALLOC, 1), (cc.CNOT, 0, 1),
                 (cc.DISCARD, (1,)), (cc.ALLOC, 1), (cc.X, 1), (cc.MEASURE_Y, (1,))]
        circ = cc.Circuit(n_qubits=2, gates=gates, registers={"x": (0,)}, metadata={})
        validate_circuit(circ)

    def test_double_measure_rejected(self):
        gates = [(cc.ALLOC, 0), (cc.MEASURE_Y, (0,)), (cc.MEASURE_Y, (0,))]
        circ = cc.Circuit(n_qubits=1, gates=gates, registers={"x": (0,)}, metadata={})
        with pytest.raises(cc.MalformedCircuit):
            validate_circuit(circ)

    def test_overlapping_toffoli_rejected(self):
        gates = [(cc.ALLOC, 0), (cc.ALLOC, 1), (cc.TOFFOLI, 0, 0, 1),
                 (cc.MEASURE_Y, (1,))]
        circ = cc.Circuit(n_qubits=2, gates=gates, registers={"x": (0,)}, metadata={})
        with pytest.raises(cc.MalformedCircuit):
            validate_circuit(circ)


class TestResources:
    def test_empty(self):
        circ = cc.Circuit(n_qubits=0, gates=[(cc.ALLOC, 0), (cc.MEASURE_Y, (0,))],
                          registers={"x": (0,)}, metadata={})
        rep = cc.count_resources(circ)
        assert (rep.total_gates, rep.toffoli_count, rep.depth) == (0, 0, 0)
        assert cc.gate_count(circ) == 0

    def test_disjoint_gates_depth_one(self):
        gates = [(cc.ALLOC, q) for q in range(4)]
        gates += [(cc.CNOT, 0, 1), (cc.CNOT, 2, 3), (cc.MEASURE_Y, (0,))]
        circ = cc.Circuit(n_qubits=4, gates=gates, registers={"x": ()}, metadata={})
        assert cc.count_resources(circ).depth == 1

    def test_shared_qubit_chain(self):
        gates = [(cc.ALLOC, 0), (cc.ALLOC, 1)]
        gates += [(cc.CNOT, 0, 1)] * 10
        gates.append((cc.MEASURE_Y, (1,)))
        circ = cc.Circuit(n_qubits=2, gates=gates, registers={"x": ()}, metadata={})
        rep = cc.count_resources(circ)
        assert rep.depth == 10 and rep.total_gates == 10 == cc.gate_count(circ)

    def test_monotone_in_n(self):
        prev = {"schoolbook": 0, "karatsuba": 0}
        for n in (32, 64, 128, 256):
            keys = gen_exact_bits(n)
            for name in ("schoolbook", "karatsuba"):
                circ = cc.build_modsquare(keys.N, method=name)
                got = cc.count_resources(circ).total_gates
                assert got > prev[name], (name, n)
                assert cc.gate_count(circ) == got
                prev[name] = got

    def test_karatsuba_beats_schoolbook_from_96_bits(self):
        for n in (96, 128, 160):
            keys = gen_exact_bits(n)
            sb = cc.count_resources(cc.build_modsquare(keys.N))
            ka = cc.count_resources(cc.build_modsquare(keys.N, method="karatsuba"))
            assert ka.total_gates < sb.total_gates
            assert ka.gates_clifford_t < sb.gates_clifford_t

    def test_sanity_ceiling_small(self):
        circ = cc.build_modsquare(77)
        assert cc.count_resources(circ).qubits <= 60


class _AllOnes(random.Random):
    """Every Hadamard outcome is 1, for one lane or many, so each discard
    folds the full garbage difference into the phase."""

    def getrandbits(self, k):
        return (1 << k) - 1


class TestTwoBranchRuns:
    def test_noise_free_consistency(self):
        keys = gen_exact_bits(12)
        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        rp = circ.metadata["rprime"]
        run = None
        rng = random.Random(1)
        for _ in range(10):
            x0 = rng.randrange((keys.N + 1) // 2)
            roots = tcf.rabin_invert(keys, x0 * x0 % keys.N)
            if len(roots) == 2:
                a, b = sorted(roots)
                run = cc.run_two_branch(circ, a, b, 0.0, rng)
                assert run.y0 == run.y1 == a * a * rp % keys.N
                assert (run.reg0, run.reg1) == (a, b)
        assert run is not None

    def test_batch_engine_matches_scalar_clean(self):
        keys = gen_exact_bits(12)
        circ = cc.build_modsquare(keys.N, lift_m=1, method="schoolbook")
        rng = random.Random(2)
        pairs = []
        while len(pairs) < 16:
            x0 = rng.randrange((keys.N + 1) // 2)
            roots = tcf.rabin_invert(keys, x0 * x0 % keys.N)
            if len(roots) == 2:
                pairs.append(tuple(sorted(roots)))
        out = cc.run_two_branch_batch(circ, [p[0] for p in pairs],
                                      [p[1] for p in pairs], 0.0, random.Random(3))
        k = 3
        for i, (a, b) in enumerate(pairs):
            run = cc.run_two_branch(circ, a, b, 0.0, random.Random(i))
            assert out["y0"][i] == out["y1"][i] == run.y0 == out["y_clean"][i]
            assert out["reg0"][i] == k * a and out["reg1"][i] == k * b
            assert out["creg0"][i] == k * a and out["creg1"][i] == k * b
        # clean shadow phases and prover phases see identical h draws
        assert out["phase_prover"] == out["phase_verifier"]

    def test_batch_lanes_match_single_runs(self, monkeypatch):
        # one batch call over R runs equals R single-pair calls; errors are
        # planted in one middle run only, so any cross-talk between lanes
        # (bits, phases or error counts) shows up in a neighbouring run
        keys = gen_exact_bits(12)
        circ = cc.build_modsquare(keys.N, lift_m=1, method="schoolbook")
        rng = random.Random(2)
        pairs = []
        while len(pairs) < 16:
            x0 = rng.randrange((keys.N + 1) // 2)
            roots = tcf.rabin_invert(keys, x0 * x0 % keys.N)
            if len(roots) == 2:
                pairs.append(tuple(sorted(roots)))
        unitary = [g for g in circ.gates if g[0] in (cc.X, cc.CNOT, cc.TOFFOLI)]
        plan = {u: (unitary[u][1], "XYZ"[u % 3])
                for u in random.Random(3).sample(range(len(unitary)), 40)}
        hit = 5
        # the sampler's pick 0 strikes the gate's first qubit, as the plan does
        planted = sorted((u, hit, 0, pauli) for u, (_, pauli) in plan.items())
        monkeypatch.setattr(cc, "_sampled_errors", lambda p, rng, runs: iter(planted))
        out = cc.run_two_branch_batch(circ, [a for a, _ in pairs], [b for _, b in pairs],
                                      0.5, _AllOnes())
        for i, (a, b) in enumerate(pairs):
            run = planted_run(circ, a, b, plan if i == hit else None, h=1)
            clean = planted_run(circ, a, b, h=1)
            assert (out["y0"][i], out["y1"][i]) == (run.y0, run.y1), i
            assert (out["reg0"][i], out["reg1"][i]) == (run.reg0, run.reg1), i
            assert out["phase_prover"][i] == (run.rel_phase == -1), i
            assert out["n_errors"][i] == run.n_errors, i
            assert out["y_clean"][i] == clean.y0 == clean.y1, i
            assert (out["creg0"][i], out["creg1"][i]) == (clean.reg0, clean.reg1), i
            assert out["phase_verifier"][i] == (clean.rel_phase == -1), i
        assert out["n_errors"][hit] == len(plan)
        assert (out["y0"][hit], out["reg0"][hit]) != (out["y_clean"][hit], out["creg0"][hit])

    @pytest.mark.parametrize("method, m", [("schoolbook", 0), ("schoolbook", 2),
                                           ("karatsuba", 1)])
    def test_replayed_draws_match_in_loop_draws(self, method, m):
        # run_two_branch draws from rng without evaluating gates first; its
        # runs and the rng's state afterwards equal those of a run drawing
        # inside the gate loop, from no errors up to dozens per run
        keys = gen_exact_bits(14)
        circ = cc.build_modsquare(keys.N, lift_m=m, method=method, cutoff=8)
        ng = cc.count_resources(circ).total_gates
        pick = random.Random(m)
        for p in (0.0, 0.3 / ng, 3.0 / ng, 30.0 / ng, 1.0):
            for seed in range(4):
                x0, x1 = pick.getrandbits(14), pick.getrandbits(14)
                a, b = random.Random(seed), random.Random(seed)
                assert cc.run_two_branch(circ, x0, x1, p, a) == \
                    sequential_two_branch(circ, x0, x1, p, b), (p, seed)
                assert a.random() == b.random()

    def test_block_errors_strike_only_their_run(self):
        keys = gen_exact_bits(12)
        circ = cc.build_modsquare(keys.N, lift_m=1, method="schoolbook")
        rng = random.Random(6)
        R, hit = 9, 4
        x0s = [rng.getrandbits(12) for _ in range(R)]
        x1s = [rng.getrandbits(12) for _ in range(R)]
        errors = [(u, 0, rng.randrange(6), "XYZ"[u % 3])
                  for u in sorted(rng.sample(range(circ.schedule.unitary), 30))]
        h_len = circ.schedule.h_len
        draws = [(bytes(rng.choices((0, 1), k=h_len)), errors if j == hit else [])
                 for j in range(R)]
        runs = cc.run_two_branch_block(circ, x0s, x1s, draws)
        for j in range(R):
            alone = cc.run_two_branch_block(circ, [x0s[j]], [x1s[j]], [draws[j]])
            assert runs[j] == alone[0], j
            assert runs[j].n_errors == (len(errors) if j == hit else 0), j
        clean = cc.run_two_branch_block(circ, [x0s[hit]], [x1s[hit]], [(draws[hit][0], [])])
        assert (runs[hit].y0, runs[hit].reg0) != (clean[0].y0, clean[0].reg0)

    def test_error_counts_scale(self):
        keys = gen_exact_bits(12)
        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        ng = cc.count_resources(circ).total_gates
        p = 2.0 / ng  # two errors per run on average
        out = cc.run_two_branch_batch(circ, [2] * 600, [5] * 600, p, random.Random(4))
        mean = sum(out["n_errors"]) / 600
        assert abs(mean - 2.0) < 0.35


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=70))))
def test_narrow_transpose_matches_general_path(case):
    # rows of at most 8 bits take the bytes path; padding the width to 9
    # sends the same rows through the general path
    width, rows = case
    out = cc._transpose(rows, width)
    assert out == cc._transpose(rows, 9)[:width]
    assert out == [sum(((row >> j) & 1) << i for i, row in enumerate(rows))
                   for j in range(width)]
