"""Gate-level builders, evaluators and resource accounting."""

import dataclasses
import hashlib
import itertools
import math
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell import circuits as cc
from qbell import tcf

from helpers import (blum_semiprimes, build_mul3_inplace, classical_ys, discarded_at_end,
                     gate_count, gen_exact_bits, montgomery_stage, planted_run,
                     reference_lowering, reference_run_lanes, reference_sampled_errors,
                     reference_tally, sequential_two_branch, validate_circuit)


class TestMul3:
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_exhaustive(self, n):
        frag = build_mul3_inplace(n)
        validate_circuit(frag)
        ys = classical_ys(frag, range(1 << n))
        assert ys == [3 * x for x in range(1 << n)]

    def test_worked_values(self):
        frag = build_mul3_inplace(4)
        assert classical_ys(frag, [5, 0]) == [15, 0]


class TestBuilders:
    def test_schoolbook_full_domain_77(self):
        circ = cc.build_modsquare(77)
        validate_circuit(circ)
        rp = circ.metadata["rprime"]
        ys = classical_ys(circ, range(39))
        for x, y in enumerate(ys):
            assert 0 <= y < 77
            assert y == x * x * rp % 77

    def test_wrong_bit_length_rejected(self):
        # the modulus' bit length is checked by `qbell resources` (TestCli)
        with pytest.raises(cc.CircuitError):
            cc.build_modsquare(77, method="karatsuba", cutoff=4)

    def test_modulus_needs_only_be_odd(self):
        # Montgomery reduction needs an odd modulus, not a composite one: a
        # prime builds and squares correctly, and the error names the check
        circ = cc.build_modsquare(37)
        rp = circ.metadata["rprime"]
        assert classical_ys(circ, range(19)) == [x * x * rp % 37 for x in range(19)]
        for N in (36, 13):
            for check in (cc.build_modsquare, cc.modsquare_gate_count):
                with pytest.raises(cc.CircuitError, match=r"^modulus must be odd and >= 15$"):
                    check(N, 0, "schoolbook")

    def test_semantics_all_blum_semiprimes_below_1000(self):
        # exhaustive: every input of every builder matches integer arithmetic
        for N, p, q in blum_semiprimes(1000):
            for circ in (cc.build_modsquare(N),
                         cc.build_modsquare(N, method="karatsuba", cutoff=8)):
                rp = circ.metadata["rprime"]
                bound = (N + 1) // 2
                ys = classical_ys(circ, range(bound))
                for x in range(bound):
                    assert ys[x] == x * x * rp % N, (N, x, circ.metadata["builder"])

    def test_karatsuba_recursion_matches_schoolbook(self):
        keys = gen_exact_bits(24)
        sb = cc.build_modsquare(keys.N)
        ka = cc.build_modsquare(keys.N, method="karatsuba", cutoff=8)
        rng = random.Random(0)
        xs = [rng.randrange((keys.N + 1) // 2) for _ in range(30)]
        ys_sb = classical_ys(sb, xs)
        ys_ka = classical_ys(ka, xs)
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
            ys = classical_ys(circ, xs)
            for x, y in zip(xs, ys):
                assert y == (k * x) ** 2 * rp % modulus
                assert y % (k * k) == 0  # honest images carry the redundancy

    def test_batch_matches_scalar(self):
        # one call over many inputs equals one call per input, and one
        # recomputation over many claws one per claw
        circ = cc.build_modsquare(583, method="karatsuba", cutoff=8)  # 11 * 53
        xs = list(range(0, 292, 3))
        ys = classical_ys(circ, xs)
        for i, x in enumerate(xs):
            assert classical_ys(circ, [x]) == [ys[i]]
        rng = random.Random(9)
        x1s = [rng.randrange(292) for _ in xs]
        hs = [rng.getrandbits(circ.schedule.h_len) for _ in xs]
        phases = cc.evaluate_classical(circ, xs, x1s, hs)
        assert set(phases) == {0, 1}
        for x0, x1, h, bit in zip(xs, x1s, hs, phases):
            assert cc.evaluate_classical(circ, [x0], [x1], [h]) == [bit]


class TestMontgomeryStage:
    def test_composed_with_classical_square(self):
        stage = montgomery_stage(7, 77)
        validate_circuit(stage)
        rp = stage.metadata["rprime"]
        undo = pow(rp, -1, 77)
        ys = classical_ys(stage, [x * x for x in range(39)])
        for x, y in enumerate(ys):
            assert y == x * x * rp % 77
            assert y * undo % 77 == x * x % 77

    def test_zero(self):
        stage = montgomery_stage(7, 77)
        assert classical_ys(stage, [0]) == [0]

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
        rng = random.Random(5)
        claws, phases = [], []
        for _ in range(30):
            x0 = rng.randrange((keys.N + 1) // 2)
            roots = tcf.rabin_invert(keys, x0 * x0 % keys.N)
            if len(roots) != 2:
                continue
            x0, x1 = sorted(roots)
            h, errors = cc.draw_run(circ.schedule, 0.0, rng)
            [run] = cc.run_two_branch_block(circ, [x0], [x1], [(h, errors)])
            # the settle step on this claw alone
            [pv] = cc.evaluate_classical(circ, [x0], [x1], [h])
            assert run.phase == pv
            claws.append((x0, x1, h))
            phases.append(pv)
        # the same claws settled as one block
        x0s, x1s, hs = map(list, zip(*claws))
        assert cc.evaluate_classical(circ, x0s, x1s, hs) == phases
        # and run as one noise-free block, with fresh h: run j must fold its
        # own branches' garbage, lanes j and R + j
        fresh = [rng.getrandbits(circ.schedule.h_len) for _ in claws]
        runs = cc.run_two_branch_block(circ, x0s, x1s, [(h, []) for h in fresh])
        block = [run.phase for run in runs]
        assert len(runs) > 8 and set(block) == {0, 1}
        assert block == cc.evaluate_classical(circ, x0s, x1s, fresh)


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
        assert gate_count(circ) == 0

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
        assert rep.depth == 10 and rep.total_gates == 10 == gate_count(circ)

    def test_monotone_in_n(self):
        prev = {"schoolbook": 0, "karatsuba": 0}
        for n in (32, 64, 128, 256):
            keys = gen_exact_bits(n)
            for name in ("schoolbook", "karatsuba"):
                circ = cc.build_modsquare(keys.N, method=name)
                got = cc.count_resources(circ).total_gates
                assert got > prev[name], (name, n)
                assert gate_count(circ) == got
                prev[name] = got

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("method", ["schoolbook", "karatsuba"])
    def test_gate_count_of_lifted_builds(self, method, m):
        # the lifted circuits postselect.lift_key counts, x3 chain included
        circ = cc.build_modsquare(gen_exact_bits(24).N, lift_m=m, method=method, cutoff=8)
        assert gate_count(circ) == cc.count_resources(circ).total_gates

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

    def test_gate_count_recursion_small_moduli(self, monkeypatch):
        # every Blum N <= 1000, both builders, m = 0-3, and Karatsuba's
        # cutoff at 8 and 32 (the schoolbook builder reads no cutoff); the
        # count reads the module's cutoff when it is called
        for method, cutoff in (("schoolbook", 32), ("karatsuba", 8), ("karatsuba", 32)):
            monkeypatch.setattr(cc, "KARATSUBA_CUTOFF", cutoff)
            for N, _, _ in blum_semiprimes(1000):
                for m in range(4):
                    assert cc.modsquare_gate_count(N, m, method) == gate_count(
                        cc.build_modsquare(N, m, method, cutoff)), (N, m, method, cutoff)

    @pytest.mark.parametrize("bits", [24, 64, 128])
    def test_gate_count_recursion_key_sizes(self, bits):
        N = gen_exact_bits(bits).N
        for m in (0, 1, 3):
            for method in ("schoolbook", "karatsuba"):
                assert cc.modsquare_gate_count(N, m, method) == \
                    gate_count(cc.build_modsquare(N, m, method)), (m, method)

    @pytest.mark.parametrize("cutoff", [8, 32])
    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("method", ["schoolbook", "karatsuba"])
    def test_tally_while_emitting_equals_list_count(self, method, m, cutoff):
        # `qbell resources` tallies gates as emit_modsquare emits them and
        # holds no list; the counts and the Circuit's other fields must be
        # those of the built circuit
        for N in (2063, gen_exact_bits(24).N, gen_exact_bits(80).N):
            emitted = []

            def emit(sink):
                emitted.append(cc.emit_modsquare(sink, N, m, method, cutoff))
                return emitted[0]

            rep = cc.count_resources(emit)
            built = cc.build_modsquare(N, m, method, cutoff)
            assert rep == cc.count_resources(built), (N, m, method, cutoff)
            assert (rep.total_gates, rep.toffoli_count, rep.depth) == reference_tally(built.gates)
            assert isinstance(emitted[0].entries, cc.Tally)
            assert (emitted[0].n_qubits, emitted[0].registers, emitted[0].metadata) == \
                (built.n_qubits, built.registers, built.metadata)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_reference_tally(self, data):
        n_qubits = data.draw(st.integers(3, 8))

        def distinct(k):
            return st.permutations(range(n_qubits)).map(lambda p: tuple(p[:k]))

        qubit = st.integers(0, n_qubits - 1)
        register = st.lists(qubit, min_size=1, max_size=3, unique=True).map(tuple)
        gate = st.one_of(
            qubit.map(lambda q: (cc.X, q)),
            distinct(2).map(lambda p: (cc.CNOT, *p)),
            distinct(3).map(lambda p: (cc.TOFFOLI, *p)),
            distinct(2).map(lambda p: (cc.CPHASE, p[:1], p[1], 0.5)),
            distinct(3).map(lambda p: (cc.CPHASE, p[:2], p[2], 0.25)),
            qubit.map(lambda q: (cc.ALLOC, q)),
            register.map(lambda r: (cc.DISCARD, r)),
            register.map(lambda r: (cc.MEASURE_Y, r)))
        gates = data.draw(st.lists(gate, max_size=60))
        circ = cc.Circuit(n_qubits=n_qubits, gates=gates, registers={}, metadata={})
        rep = cc.count_resources(circ)
        assert (rep.total_gates, rep.toffoli_count, rep.depth) == reference_tally(gates)
        assert rep.qubits == n_qubits


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
        runs, phases_v = cc.run_two_branch_batch(circ, [p[0] for p in pairs],
                                                 [p[1] for p in pairs], 0.0, random.Random(3))
        k = 3
        for i, (a, b) in enumerate(pairs):
            run = cc.run_two_branch(circ, a, b, 0.0, random.Random(i))
            assert runs[i].y0 == runs[i].y1 == run.y0
            assert runs[i].reg0 == k * a and runs[i].reg1 == k * b
        # clean shadow phases and prover phases see identical h draws
        assert [run.phase for run in runs] == phases_v

    def test_batch_lanes_match_single_runs(self, monkeypatch):
        # one batch call over R runs equals R single-pair calls; errors are
        # planted in one middle run only, so any cross-talk between lanes
        # (bits or phases) shows up in a neighbouring run
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
        runs, phases_v = cc.run_two_branch_batch(circ, [a for a, _ in pairs],
                                                 [b for _, b in pairs], 0.5, _AllOnes())
        ones = (1 << circ.schedule.h_len) - 1
        for i, (a, b) in enumerate(pairs):
            run = planted_run(circ, a, b, plan if i == hit else None, h=ones)
            clean = planted_run(circ, a, b, h=ones)
            assert runs[i] == run, i
            assert phases_v[i] == clean.phase, i
        clean = planted_run(circ, *pairs[hit], h=ones)
        assert (runs[hit].y0, runs[hit].reg0) != (clean.y0, clean.reg0)

    @pytest.mark.parametrize("method, m", [("schoolbook", 0), ("schoolbook", 2),
                                           ("karatsuba", 1)])
    def test_drawn_runs_match_in_loop_draws(self, method, m):
        # run_two_branch draws from rng without evaluating gates first; its
        # runs and the rng's state afterwards equal those of a run drawing
        # its errors inside the gate loop, from no errors up to dozens per
        # run
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

    @pytest.mark.parametrize("runs", [1, 25])
    def test_sampler_matches_randrange_reference(self, runs):
        # the rejection loops draw pick and Pauli as randrange does: the
        # same errors from the same stream, which is left in the same state
        for p in (0.001, 0.1, 0.7):
            a, b = random.Random(p), random.Random(p)
            got = list(itertools.islice(cc._sampled_errors(p, a, runs), 10_000))
            want = list(itertools.islice(reference_sampled_errors(p, b, runs), 10_000))
            assert got == want
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
        draws = [(rng.getrandbits(h_len), errors if j == hit else [])
                 for j in range(R)]
        runs = cc.run_two_branch_block(circ, x0s, x1s, draws)
        for j in range(R):
            alone = cc.run_two_branch_block(circ, [x0s[j]], [x1s[j]], [draws[j]])
            assert runs[j] == alone[0], j
        clean = cc.run_two_branch_block(circ, [x0s[hit]], [x1s[hit]], [(draws[hit][0], [])])
        assert (runs[hit].y0, runs[hit].reg0) != (clean[0].y0, clean[0].reg0)

    def test_error_counts_scale(self, monkeypatch):
        # the errors a batch call applies are those its sampler yields
        # before the last gate
        keys = gen_exact_bits(12)
        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        ng = cc.count_resources(circ).total_gates
        p = 2.0 / ng  # two errors per run on average
        drawn = []
        sampler = cc._sampled_errors

        def recorded(*args):
            for err in sampler(*args):
                drawn.append(err)
                yield err

        monkeypatch.setattr(cc, "_sampled_errors", recorded)
        cc.run_two_branch_batch(circ, [2] * 600, [5] * 600, p, random.Random(4))
        mean = sum(u < circ.schedule.unitary for u, _, _, _ in drawn) / 600
        # the count is Bin(600 * 1311, 2/1311), mean 1200 and sigma 34.6, and
        # the bound passes 991 to 1409 errors (6.07 sigma): it fails a correct
        # sampler with probability 2.1e-9 (2.2e-10 below, 1.9e-9 above)
        assert abs(mean - 2.0) < 0.35


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 130).flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.integers(0, (1 << w) - 1), max_size=70))))
def test_transpose_matches_bitwise_oracle(case):
    # widths 0-130 cover one byte per row, several, and a partial last byte
    width, rows = case
    assert cc._transpose(rows, width) == [
        sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(width)]


# ---------------------------------------------------------------------------
# the engine against the reference interpreter of the gate list

def _random_circuit(data):
    """A valid circuit drawn gate by gate through a QubitPool: an x
    register, then allocations, discards (of x-register qubits too, which
    the pool hands out again), X/CNOT/Toffoli/CPHASE gates and the
    builders' ripple-carry steps (_add_bit, _product_bit, _ripple) on live
    qubits, and one MEASURE_Y at a random place."""
    gates = []
    pool = cc.QubitPool(gates)
    x_reg = pool.new_register(data.draw(st.integers(1, 5)))
    live = list(x_reg)
    n_ops = data.draw(st.integers(0, 50))
    measure_at = data.draw(st.integers(0, n_ops))
    kinds = st.sampled_from(("alloc", "discard", cc.X, cc.CNOT, cc.TOFFOLI, cc.TOFFOLI,
                             cc.CNOT, cc.CPHASE, "add", "add", "product", "product",
                             "ripple"))
    arity = {cc.X: 1, cc.CNOT: 2, cc.TOFFOLI: 3, cc.CPHASE: 2}
    for i in range(n_ops + 1):
        if i == measure_at:
            ys = data.draw(st.lists(st.sampled_from(live), max_size=4, unique=True)) \
                if live else []
            gates.append((cc.MEASURE_Y, tuple(ys)))
        if i == n_ops:
            break
        kind = data.draw(kinds)
        if kind == "discard" and live:
            qs = data.draw(st.lists(st.sampled_from(live), min_size=1, max_size=3,
                                    unique=True))
            pool.discard(qs)
            live = [q for q in live if q not in qs]
        elif kind == "add" and len(live) >= 3:
            a, b, cin = data.draw(st.permutations(live))[:3]
            live.remove(cin)
            live.append(cc._add_bit(gates, pool, a, b, cin))
        elif kind == "product" and len(live) >= 2:
            # the factors may be b or cin as well
            x, y = data.draw(st.permutations(live))[:2]
            b, cin = data.draw(st.permutations(live))[:2]
            live.remove(cin)
            live.append(cc._product_bit(gates, pool, x, y, b, cin))
        elif kind == "ripple" and live:
            cin, *rest = data.draw(st.permutations(live))
            cc._ripple(gates, pool, cin, rest[:data.draw(st.integers(0, 3))])
            live.remove(cin)
        elif kind in arity and len(live) >= arity[kind]:
            qs = data.draw(st.permutations(live))[:arity[kind]]
            gates.append((cc.CPHASE, qs[:1], qs[1], 0.5) if kind == cc.CPHASE
                         else (kind, *qs))
        else:
            live.append(pool.new())
    return cc.Circuit(n_qubits=pool.peak, gates=gates, registers={"x": x_reg}, metadata={})


def _as_run(entry):
    """A program entry as the engine runs it: a macro's plain gates without
    their ALLOC events, which lowering drops like every ALLOC but an input
    load; any other entry itself."""
    gates = cc._expand(entry)
    return [g for g in gates if g[0] is not cc.ALLOC] if len(gates) > 1 else [entry]


def _is_unitary(gate):
    return gate[0] in (cc.X, cc.CNOT, cc.TOFFOLI)


def _expanded(schedule):
    """The schedule with each macro of its program as its plain gates
    without ALLOC events, and starts counted over those gates: the form
    reference_lowering gives."""
    program, starts = [], []
    for entry, u in zip(schedule.program, schedule.starts):
        for g in _as_run(entry):
            program.append(g)
            starts.append(u)
            u += _is_unitary(g)
    return cc.Schedule(program=program, unitary=schedule.unitary, h_len=schedule.h_len,
                       starts=starts)


def _macro_gates(schedule):
    """The unitary gates that lie inside macros of the program."""
    return [u for entry, start in zip(schedule.program, schedule.starts)
            if len(cc._expand(entry)) > 1
            for u in range(start, start + sum(map(_is_unitary, cc._expand(entry))))]


def _pair_rows(garbage, runs):
    """reference_run_lanes' whole discarded rows as the engine's pair rows:
    bit j the xor of lanes j and runs + j."""
    return [(row ^ row >> runs) & ((1 << runs) - 1) for row in garbage]


def _paired_reference(circuit, inputs, runs=0, errors=(), draw_h=None):
    """reference_run_lanes with its garbage as pair rows, so that it can
    stand in for cc._run_lanes."""
    lanes = reference_run_lanes(circuit, inputs, runs, errors, draw_h)
    return dataclasses.replace(lanes, garbage=_pair_rows(lanes.garbage, runs))


def _assert_lanes_equal(circuit, runs, got, want):
    """got, from cc._run_lanes with `runs` runs, against want from
    reference_run_lanes with the same arguments."""
    assert (got.y_rows, got.garbage, got.phase, got.clean_phase) == \
        (want.y_rows, _pair_rows(want.garbage, runs), want.phase, want.clean_phase)
    dead = discarded_at_end(circuit)
    for q, (a, b) in enumerate(zip(got.rows, want.rows)):
        assert a == (0 if q in dead else b), q


def _live_x(circuit):
    """Bits of the x-register value the engine must agree on: a Montgomery
    stage discards the low half of its x register, whose rows the engine
    zeroes and reference_run_lanes keeps."""
    dead = discarded_at_end(circuit)
    return sum(1 << i for i, q in enumerate(circuit.registers["x"]) if q not in dead)


def _masked_runs(runs, live):
    return [dataclasses.replace(run, reg0=run.reg0 & live, reg1=run.reg1 & live)
            for run in runs]


@pytest.fixture(scope="module")
def real_circuits():
    """Squaring circuits with every builder part, and Montgomery stages,
    whose x register T[:2n] loses qubits to a discard that the pool
    allocates again."""
    keys12, keys16 = gen_exact_bits(12), gen_exact_bits(16)
    circs = [cc.build_modsquare(keys12.N),
             cc.build_modsquare(keys12.N, lift_m=1),
             cc.build_modsquare(keys16.N, lift_m=1, method="karatsuba", cutoff=8),
             montgomery_stage(9, 341),
             montgomery_stage(16, keys16.N, "karatsuba", cutoff=8)]
    for stage in circs[3:]:
        x_reg, seen, reused = set(stage.registers["x"]), set(), False
        for gate in stage.gates:
            if gate[0] == cc.ALLOC:
                reused |= gate[1] in x_reg and gate[1] in seen
                seen.add(gate[1])
        assert reused
    return circs


class TestEngineMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_circuits_every_mode(self, data):
        circ = _random_circuit(data)
        validate_circuit(circ)
        assert _expanded(circ.schedule) == reference_lowering(circ)
        width = len(circ.registers["x"])
        runs = data.draw(st.integers(1, 4))
        xs = data.draw(st.lists(st.integers(0, (1 << width) - 1),
                                min_size=2 * runs, max_size=2 * runs))
        _assert_lanes_equal(circ, 0, cc._run_lanes(circ, xs),
                            reference_run_lanes(circ, xs))
        # two-branch lanes keeping their garbage, with planted errors,
        # several on one gate and some past the last one
        unitary = circ.schedule.unitary
        errors = sorted(data.draw(st.lists(st.tuples(
            st.integers(0, unitary + 1), st.integers(0, runs - 1), st.integers(0, 5),
            st.sampled_from("XYZ")), max_size=3 * unitary + 2)))
        _assert_lanes_equal(circ, runs, cc._run_lanes(circ, xs, runs, errors),
                            reference_run_lanes(circ, xs, runs, errors))
        # sampled errors and in-loop Hadamard draws, beside a clean pair
        p = data.draw(st.sampled_from((0.0, 0.05, 0.3, 1.0)))
        seed = data.draw(st.integers(0, 2 ** 32))
        a, b = random.Random(seed), random.Random(seed)
        got = cc._run_lanes(circ, xs + xs, runs, cc._sampled_errors(p, a, runs) if p else (),
                            draw_h=a.getrandbits)
        want = reference_run_lanes(circ, xs + xs, runs,
                                   reference_sampled_errors(p, b, runs) if p else (),
                                   draw_h=b.getrandbits)
        _assert_lanes_equal(circ, runs, got, want)
        assert a.random() == b.random()
        # an error on every gate inside a macro, two on some, in each mode
        planted = []
        for u in _macro_gates(circ.schedule):
            run, pick, pauli, twice = data.draw(st.tuples(
                st.integers(0, runs - 1), st.integers(0, 5), st.sampled_from("XYZ"),
                st.booleans()))
            planted += [(u, run, pick, pauli)] + [(u, run, 5 - pick, "Y")] * twice
        classical = [(u, 0, pick, pauli) for u, _, pick, pauli in planted]
        _assert_lanes_equal(circ, 0, cc._run_lanes(circ, xs, 0, classical),
                            reference_run_lanes(circ, xs, 0, classical))
        _assert_lanes_equal(circ, runs, cc._run_lanes(circ, xs, runs, planted),
                            reference_run_lanes(circ, xs, runs, planted))
        a, b = random.Random(seed), random.Random(seed)
        _assert_lanes_equal(
            circ, runs, cc._run_lanes(circ, xs + xs, runs, planted, draw_h=a.getrandbits),
            reference_run_lanes(circ, xs + xs, runs, planted, draw_h=b.getrandbits))
        assert a.random() == b.random()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_circuits_tally(self, data):
        # the macros' closed-form counts, from the entry list and as
        # emitted into a Tally that grows on each fresh index
        circ = _random_circuit(data)
        want = reference_tally(circ.gates)
        rep = cc.count_resources(circ)
        assert (rep.total_gates, rep.toffoli_count, rep.depth) == want
        tally = cc.Tally()
        for entry in circ.entries:
            tally.append(entry)
        assert (tally.total, tally.toffoli, max(tally.layer, default=0)) == want

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_classical_lanes(self, real_circuits, data):
        # per-input outputs, and the verifier's phases of claws drawn from
        # the same inputs
        circ = data.draw(st.sampled_from(real_circuits))
        width = len(circ.registers["x"])
        xs = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=70))
        x1s = data.draw(st.permutations(xs))
        hs = data.draw(st.lists(st.integers(0, (1 << circ.schedule.h_len) - 1),
                                min_size=len(xs), max_size=len(xs)))
        got = classical_ys(circ, xs), cc.evaluate_classical(circ, xs, x1s, hs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cc, "_run_lanes", _paired_reference)
            assert got == (classical_ys(circ, xs), cc.evaluate_classical(circ, xs, x1s, hs))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_two_branch_block(self, real_circuits, data):
        circ = data.draw(st.sampled_from(real_circuits))
        width, sched = len(circ.registers["x"]), circ.schedule
        runs = data.draw(st.integers(1, 17))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        x0s = [rng.getrandbits(width) for _ in range(runs)]
        x1s = [rng.getrandbits(width) for _ in range(runs)]
        # from no errors up to one every 2 gates, in some runs
        rate = data.draw(st.sampled_from((0.0, 0.001, 0.02, 0.1, 0.5)))
        draws = []
        for _ in range(runs):
            us = sorted(rng.sample(range(sched.unitary), int(rate * sched.unitary)))
            errors = [(u, 0, rng.randrange(6), rng.choice("XYZ")) for u in us]
            draws.append((rng.getrandbits(sched.h_len), errors))
        got = cc.run_two_branch_block(circ, x0s, x1s, draws)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cc, "_run_lanes", _paired_reference)
            want = cc.run_two_branch_block(circ, x0s, x1s, draws)
        live = _live_x(circ)
        assert got == _masked_runs(got, live) and got == _masked_runs(want, live)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_two_branch_batch(self, real_circuits, data):
        circ = data.draw(st.sampled_from(real_circuits))
        width = len(circ.registers["x"])
        runs = data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 2 ** 32))
        pick = random.Random(seed)
        x0s = [pick.getrandbits(width) for _ in range(runs)]
        x1s = [pick.getrandbits(width) for _ in range(runs)]
        # up to every gate erring in every run: dense errors, several per gate
        p = data.draw(st.sampled_from((0.0, 1e-4, 0.01, 0.1, 0.4, 1.0)))
        a, b = random.Random(seed), random.Random(seed)
        got, got_v = cc.run_two_branch_batch(circ, x0s, x1s, p, a)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cc, "_run_lanes", reference_run_lanes)
            want, want_v = cc.run_two_branch_batch(circ, x0s, x1s, p, b)
        assert a.random() == b.random()
        live = _live_x(circ)
        assert got == _masked_runs(got, live) and got == _masked_runs(want, live)
        assert got_v == want_v

    def test_dense_batch_errors(self, real_circuits):
        # at p = 0.1 over 8 runs a gate errs 0.8 times on average, and many
        # gates take several errors in one call
        circ = real_circuits[2]
        drawn = []

        def recorded(*args):
            for err in cc._sampled_errors(*args):
                drawn.append(err)
                yield err

        x0s, x1s = list(range(3, 11)), list(range(40, 48))
        a, b = random.Random(8), random.Random(8)
        errors = recorded(0.1, a, 8)
        got = cc._run_lanes(circ, [*x0s, *x1s, *x0s, *x1s], 8, errors, draw_h=a.getrandbits)
        want = reference_run_lanes(circ, [*x0s, *x1s, *x0s, *x1s], 8,
                                   reference_sampled_errors(0.1, b, 8),
                                   draw_h=b.getrandbits)
        _assert_lanes_equal(circ, 8, got, want)
        per_gate = {}
        for u, *_ in drawn[:-1]:
            per_gate[u] = per_gate.get(u, 0) + 1
        assert len(drawn) > circ.schedule.unitary / 10
        assert max(per_gate.values()) >= 3


def test_schedule_positions_unitary_gates():
    # unitary gate u is gate u - starts[i] of program entry
    # i = bisect_right(starts, u) - 1, its macro as its plain gates without
    # ALLOC events
    keys = gen_exact_bits(12)
    circ = cc.build_modsquare(keys.N, lift_m=1)
    sched = circ.schedule
    unitary = [g for g in circ.gates if g[0] in (cc.X, cc.CNOT, cc.TOFFOLI)]
    assert len(unitary) == sched.unitary

    def located(u):
        i = bisect_right(sched.starts, u) - 1
        return _as_run(sched.program[i])[u - sched.starts[i]]

    assert all(located(u) == g for u, g in enumerate(unitary))
    assert sched.h_len == sum(len(g[1]) for g in circ.gates if g[0] == cc.DISCARD)


# sha256 of repr(circuit.gates) for (N, method, cutoff, lift_m): the gate
# order the builders emit, which the noisy prover's draw order follows
GATE_DIGESTS = (
    (2063, "schoolbook", 32, 2,
     "01a7c362d250b54f3630670da307a9982216f96e664480463ffe33851fd17bb6"),
    (32783, "schoolbook", 32, 1,
     "ee79603d9ae9f1840f7fe16381d9d10dbd7911a81a927a718c4cef7324abc098"),
    (8388623, "karatsuba", 8, 0,
     "83d29f8bbfe51bcc7a55ceda55dac6b1baf9fdbe5bcaa6baebc197a4637259e4"),
    (4294967311, "karatsuba", 32, 1,
     "800731a11fd6579d423a995b5bb1c3415618f2230d835c87aec967e0e4723d6e"),
    (549755813903, "karatsuba", 8, 2,
     "2136c0e997438d18590cb7272f1f3cf1e86064b658caba1af6f9cace6d3874aa"),
)


@pytest.mark.parametrize("N,method,cutoff,m,digest", GATE_DIGESTS)
def test_builder_gate_order_pinned(N, method, cutoff, m, digest):
    circ = cc.build_modsquare(N, lift_m=m, method=method, cutoff=cutoff)
    assert hashlib.sha256(repr(circ.gates).encode()).hexdigest() == digest


@pytest.mark.parametrize("N,method,cutoff,m", [row[:4] for row in GATE_DIGESTS])
def test_lowering_matches_reference(N, method, cutoff, m):
    circ = cc.build_modsquare(N, lift_m=m, method=method, cutoff=cutoff)
    assert _expanded(circ.schedule) == reference_lowering(circ)


def _plain_macro_runs(entries):
    """Where entries spell out a macro gate by gate: a partial product
    Toffoli'd into a fresh qubit, ADDed and discarded (a PP), or a half
    adder into a fresh carry that then discards its carry-in (a HALF)."""
    found = []
    for i, (a, t, s, d) in enumerate(zip(entries, entries[1:], entries[2:], entries[3:])):
        if a[0] is cc.ALLOC and t[0] is cc.TOFFOLI and t[3] == a[1]:
            if s[0] is cc.ADD and s[1] == a[1] and d == (cc.DISCARD, (a[1],)) \
                    or s == (cc.CNOT, t[1], t[2]) and d == (cc.DISCARD, (t[1],)):
                found.append(i)
    return found


@pytest.mark.parametrize("N,method,cutoff,m", [row[:4] for row in GATE_DIGESTS])
def test_builders_store_each_step_as_one_macro(N, method, cutoff, m):
    circ = cc.build_modsquare(N, lift_m=m, method=method, cutoff=cutoff)
    assert _plain_macro_runs(circ.entries) == []
    # with each PP spelled out as ALLOC, Toffoli, ADD, DISCARD and each HALF
    # gate by gate, the finder sees every one of them
    spelled = []
    for e in circ.entries:
        if e[0] is cc.PP:
            _, x, y, a, b, cin, cout = e
            spelled += [(cc.ALLOC, a), (cc.TOFFOLI, x, y, a), (cc.ADD, a, b, cin, cout),
                        (cc.DISCARD, (a,))]
        else:
            spelled += cc._expand(e) if e[0] is cc.HALF else [e]
    macros = sum(e[0] is cc.PP or e[0] is cc.HALF for e in circ.entries)
    assert len(_plain_macro_runs(spelled)) == macros > 0
