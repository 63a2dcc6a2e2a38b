"""Redundancy lifting, validity filtering, sweeps, thresholds."""

import dataclasses
import io
import math
import random
import sys
from fractions import Fraction

import pytest

from qbell import cli
from qbell import postselect as ps
from qbell import protocol as proto
from qbell import circuits as cc
from qbell import extractor, provers, tcf, wire
from qbell.seeds import derive_rng

from helpers import (NoCrossing, classical_ys, gate_count, gen_exact_bits, record_inversions,
                     rejection_power, threshold_of)


class TestLiftKey:
    def test_identity_lift(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        lifted = ps.lift_key(keys, 0, method="schoolbook")
        assert lifted.lift_k == 1 and lifted.circuit.metadata["modulus"] == 77

    def test_single_lift(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        lifted = ps.lift_key(keys, 1, method="schoolbook")
        assert lifted.lift_k == 3 and lifted.circuit.metadata["modulus"] == 693
        assert gate_count(lifted.circuit) == cc.count_resources(lifted.circuit).total_gates

    def test_double_lift(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        assert ps.lift_key(keys, 2, method="schoolbook").circuit.metadata["modulus"] == 6237

    @pytest.mark.parametrize("cutoff", [8, 32])
    def test_builds_at_the_counted_cutoff(self, monkeypatch, cutoff):
        # the noise model takes the m = 0 gate count from modsquare_gate_count,
        # which reads KARATSUBA_CUTOFF when called; lift_key builds with it
        monkeypatch.setattr(cc, "KARATSUBA_CUTOFF", cutoff)
        keys = gen_exact_bits(48)
        for m in (0, 1):
            assert ps.lift_key(keys, m).circuit.schedule.unitary == \
                cc.modsquare_gate_count(keys.N, m, "karatsuba"), m

    def test_lifted_circuit_semantics(self):
        keys = tcf.RabinKeyPair(N=77, p=11, q=7)
        lifted = ps.lift_key(keys, 1, method="schoolbook")
        rp = lifted.circuit.metadata["rprime"]
        (y,) = classical_ys(lifted.circuit, [15])
        assert y == (3 * 15) ** 2 * rp % 693
        # 15^2 mod 77 = 71, so the unscaled lifted image is 9 * 71 = 639
        undo = lifted.circuit.metadata["r_undo"]
        assert y * undo % 693 == 639


class TestSingleSetup:
    """Every session sets up through cli.session_context, a circuit-backed
    one through its lift_key half, and each prover and its verifier share
    one context."""

    @pytest.mark.parametrize("spec, own, circuit", [
        ("ideal", {"kind": "ideal"}, None),
        ("cheater", {"kind": "cheater"}, None),
        ("noisy:F=0.5", {"kind": "noisy", "F": 0.5}, ("karatsuba", 0)),  # the defaults
        ("noisy:m=2,circuit=schoolbook", {"kind": "noisy", "F": 1.0}, ("schoolbook", 2)),
    ])
    def test_spec_splits_into_prover_and_circuit(self, spec, own, circuit):
        assert cli.parse_prover_spec(spec) == (own, circuit)

    @staticmethod
    def _spy(monkeypatch, module, name, calls):
        """Record each call of module.name in calls: [args], then [args,
        result] once it returns."""
        inner = getattr(module, name)

        def spied(*args):
            calls.append([args])
            calls[-1].append(inner(*args))
            return calls[-1][1]

        monkeypatch.setattr(module, name, spied)

    @pytest.mark.parametrize("spec", ["ideal", "cheater", "noisy:F=0.5,circuit=schoolbook,m=0",
                                      "noisy:F=0.5,circuit=schoolbook,m=1"])
    @pytest.mark.parametrize("command", ["run", "extract", "prove"])
    def test_each_role_plays_in_the_setup_of_its_spec(self, monkeypatch, tmp_path, command,
                                                      spec):
        keys = gen_exact_bits(14)
        path = tmp_path / "key.json"
        path.write_text(tcf.key_to_json(keys))
        setups, built, played = [], [], []
        self._spy(monkeypatch, cli, "session_context", setups)
        self._spy(monkeypatch, cli, "build_prover", built)
        self._spy(monkeypatch, proto, "run_session", played)
        self._spy(monkeypatch, extractor, "extract_and_factor", played)
        argv = [command, "--key", str(path), "--prover", spec]
        if command == "prove":
            frames = [{"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False)},
                      {"tag": "end"}]
            stdin = b"".join(wire.encode_frame("v", i, m)
                             for i, m in enumerate(frames))
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin)))
            monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
        else:
            argv += ["--out", str(tmp_path / "out.json")]
            argv += ["--trials", "10"] if command == "run" else ["--probes", "1"]
        assert cli.main(argv) == 0
        [((_, circuit), ctx)] = setups
        assert circuit == cli.parse_prover_spec(spec)[1]
        [(_, (prover, built_ctx))] = built
        assert built_ctx is ctx
        assert spec == "cheater" or prover.ctx is ctx
        # run and extract score in that context; prove only answers in it
        assert [any(arg is ctx for arg in call[0]) for call in played] == \
            ([] if command == "prove" else [True])

    def test_verify_plays_in_the_plain_context(self, monkeypatch, tmp_path):
        # verify names no circuit yet (ROADMAP item 4, defect 1).  With no
        # prover on stdin the session ends at the first reply: exit 3
        keys = gen_exact_bits(14)
        path = tmp_path / "key.json"
        path.write_text(tcf.key_to_json(keys))
        setups, played = [], []
        self._spy(monkeypatch, cli, "session_context", setups)
        self._spy(monkeypatch, proto, "run_session", played)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO()))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO()))
        assert cli.main(["verify", "--key", str(path), "--trials", "3"]) == 3
        [((_, circuit), ctx)] = setups
        assert circuit is None and ctx == proto.ProtocolContext.plain(keys)
        assert [call[0][0] for call in played] == [ctx]

    @staticmethod
    def _builds(monkeypatch):
        calls = []
        inner = cc.build_modsquare

        def counted(*args, **kwargs):
            calls.append(kwargs.get("lift_m", 0))
            return inner(*args, **kwargs)

        monkeypatch.setattr(cc, "build_modsquare", counted)
        return calls

    @pytest.mark.parametrize("spec", ["ideal", "noisy:F=0.5,circuit=schoolbook,m=0",
                                      "noisy:F=0.5,circuit=schoolbook,m=1"])
    def test_verifier_context_is_the_provers(self, spec):
        keys = gen_exact_bits(14)
        prover, ctx = cli.build_prover(cli.parse_prover_spec(spec), keys, 3)
        assert ctx is prover.ctx
        assert ctx.keys is keys

    def test_cheater_holds_only_the_public_key(self):
        keys = gen_exact_bits(14)
        prover, ctx = cli.build_prover(cli.parse_prover_spec("cheater"), keys, 3)
        assert not prover.ctx.keys.has_trapdoor
        assert ctx.keys.has_trapdoor and ctx.keys.public() == prover.ctx.keys

    @pytest.mark.parametrize("m,builds", [(0, [0]), (1, [1]), (2, [2])])
    def test_noisy_prover_builds(self, monkeypatch, m, builds):
        # only the lifted circuit is built: the noise model is calibrated
        # on the unlifted one's gate count, counted without building it.
        # At 40 bits the two builders' counts differ.
        keys = gen_exact_bits(40)
        base = {}
        for circuit in ("schoolbook", "karatsuba"):
            calls = self._builds(monkeypatch)
            prover, ctx = cli.build_prover(
                cli.parse_prover_spec(f"noisy:F=0.5,circuit={circuit},m={m}"), keys, 3)
            assert calls == builds
            monkeypatch.undo()
            assert ctx.lift_k == 3 ** m
            base[circuit] = gate_count(cc.build_modsquare(keys.N, method=circuit))
            assert prover.noise.n_gates == base[circuit]
        assert base["schoolbook"] != base["karatsuba"]

    @pytest.mark.parametrize("m_values,builds", [((0, 1, 3), [0, 1, 3]),
                                                 ((1, 3), [1, 3])])
    def test_sweep_builds_once_per_m(self, monkeypatch, m_values, builds):
        calls = self._builds(monkeypatch)
        keys = gen_exact_bits(12)
        cfg = ps.SweepConfig(m_values=m_values, fidelity_grid=(0.5, 1.0),
                             trials_per_point=100, seed=2, method="schoolbook")
        rows = ps.run_sweep(cfg, keys)
        assert calls == builds
        monkeypatch.undo()
        # a noise-free point discards nothing, so its overhead is the size
        # ratio of the m circuit to the unlifted one, as built
        base = gate_count(cc.build_modsquare(keys.N, method="schoolbook"))
        noise_free = [row for row in rows if row.F == 1.0]
        assert [row.m for row in noise_free] == list(m_values)
        for row in noise_free:
            assert row.discard_rate == 0.0
            assert row.runtime_overhead == gate_count(
                cc.build_modsquare(keys.N, lift_m=row.m, method="schoolbook")) / base


class TestValidity:
    def test_multiple_of_k_squared(self):
        assert ps.is_valid_y(225, 3)
        assert not ps.is_valid_y(226, 3)

    def test_k_one_accepts_everything(self):
        rng = random.Random(0)
        assert all(ps.is_valid_y(rng.getrandbits(40), 1) for _ in range(100))

    def test_rejection_power_values(self):
        assert rejection_power(3) == Fraction(8, 9)
        assert rejection_power(1) == 0
        with pytest.raises(tcf.DomainError):
            rejection_power(0)

    def test_rejection_power_monte_carlo(self):
        rng = random.Random(1)
        n = 100_000
        rejected = sum(not ps.is_valid_y(rng.getrandbits(40), 3) for _ in range(n))
        # a 10.1-sigma window: under Bin(100000, 8/9) (a uniform 40-bit y is
        # a multiple of 9 with probability 1/9 to within 2^-40) the count
        # leaves (87888, 89889) with probability 1.5e-23 (exact tails)
        assert abs(rejected / n - 8 / 9) < 0.01

    def test_full_corruption_rates_all_m(self):
        rng = random.Random(2)
        n = 50_000
        for m in (1, 2, 3):
            k = 3 ** m
            rejected = sum(not ps.is_valid_y(rng.getrandbits(48), k) for _ in range(n))
            # windows of 14.2, 40.5 and 121 sigma under Bin(50000, 1 - 1/k^2):
            # exact tails of 3.9e-44 (m = 1), 1.8e-249 (m = 2) and below
            # 1e-846 (m = 3), so the test fails by chance with p = 3.9e-44
            assert abs(rejected / n - float(rejection_power(k))) < 0.02


class TestThresholdOf:
    def row(self, F, score):
        return ps.SweepRow(m=0, F=F, p_x=1, p_m=0, score=score,
                           discard_rate=0, runtime_overhead=1, kept=100)

    def test_interpolation(self):
        rows = [self.row(0.5, -0.1), self.row(0.52, 0.1)]
        th = threshold_of(rows)
        assert 0.5 < th < 0.52
        assert abs(th - 0.51) < 1e-9

    def test_no_crossing(self):
        with pytest.raises(NoCrossing):
            threshold_of([self.row(0.5, 0.1), self.row(0.9, 0.4)])

    def test_unordered_input(self):
        rows = [self.row(0.9, 0.3), self.row(0.3, -0.3), self.row(0.6, 0.0)]
        assert abs(threshold_of(rows) - 0.6) < 1e-9


class TestSweepConfig:
    def test_invariants(self):
        with pytest.raises(tcf.DomainError):
            ps.SweepConfig(m_values=(), fidelity_grid=(0.5,), trials_per_point=200, seed=0)
        with pytest.raises(tcf.DomainError):
            ps.SweepConfig(m_values=(0,), fidelity_grid=(0.5,), trials_per_point=50, seed=0)


class TestSweep:
    def test_noise_free_point(self):
        keys = gen_exact_bits(48)
        cfg = ps.SweepConfig(m_values=(0,), fidelity_grid=(1.0,),
                             trials_per_point=2500, seed=3)
        row = ps.run_sweep(cfg, keys)[0]
        assert row.discard_rate == 0.0
        assert row.runtime_overhead == 1.0
        assert row.p_x == 1.0
        assert abs(row.score - (math.sqrt(2) - 1)) < 0.06

    def test_lift_only_raises_overhead_not_score(self):
        keys = gen_exact_bits(48)
        cfg = ps.SweepConfig(m_values=(0, 1, 2), fidelity_grid=(1.0,),
                             trials_per_point=1500, seed=4)
        rows = ps.run_sweep(cfg, keys)
        for row in rows:
            assert abs(row.score - (math.sqrt(2) - 1)) < 0.09
            assert row.discard_rate == 0.0
        assert rows[0].runtime_overhead == 1.0
        assert rows[1].runtime_overhead > 1.0
        assert rows[2].runtime_overhead > rows[1].runtime_overhead

    def test_csv_and_json_output(self):
        keys = gen_exact_bits(48)
        cfg = ps.SweepConfig(m_values=(0,), fidelity_grid=(1.0, 0.6),
                             trials_per_point=400, seed=5)
        rows = ps.run_sweep(cfg, keys)
        csv = ps.sweep_rows_to_csv(rows)
        assert csv.splitlines()[0] == "m,F,p_x,p_m,score,discard_rate,overhead"
        assert len(csv.splitlines()) == 3
        import json
        doc = json.loads(ps.sweep_rows_to_json(rows))
        assert len(doc) == 2 and doc[0]["m"] == 0

    def test_discard_rate_under_noise(self):
        keys = gen_exact_bits(48)
        cfg = ps.SweepConfig(m_values=(1,), fidelity_grid=(0.3,),
                             trials_per_point=2000, seed=6)
        row = ps.run_sweep(cfg, keys)[0]
        assert row.discard_rate > 0.3
        assert row.runtime_overhead > 1.0 / (1.0 - row.discard_rate)

    @pytest.mark.parametrize("m", [None, 1, 3])
    def test_claw_preimages_without_inversion(self, m):
        # a kept run whose base image is its sampled claw's takes the claw,
        # sorted, as its preimages: ctx.preimages of the claw's wire value
        # on the plain context (m None) and on lifted ones
        keys = gen_exact_bits(16)
        ctx = proto.ProtocolContext.plain(keys) if m is None else \
            ps.lift_key(keys, m, method="schoolbook")
        rng = random.Random(m)
        claws = [provers.sample_claw(keys, rng) for _ in range(40)]
        wires = [y for *_, y in claws] if m is None else \
            classical_ys(ctx.circuit, [x0 for x0, _, _ in claws])
        for (x0, x1, y), y_wire in zip(claws, wires):
            assert ctx.base_image(y_wire) == y
            assert (min(x0, x1), max(x0, x1)) == ctx.preimages(y_wire)

    def test_noise_free_sweep_inverts_nothing(self, monkeypatch):
        # every kept run of a noise-free point measures its claw's image
        images = record_inversions(monkeypatch)
        cfg = ps.SweepConfig(m_values=(0, 1), fidelity_grid=(1.0,),
                             trials_per_point=100, seed=8, method="schoolbook")
        assert [row.kept for row in ps.run_sweep(cfg, gen_exact_bits(16))] == [100, 100]
        assert images == []

    def test_out_of_range_images_discarded(self, monkeypatch):
        # y + k^2 N passes the prover's k^2 test but is no wire value the
        # verifier accepts (ProtocolContext.base_image), so nothing survives
        keys = gen_exact_bits(16)
        clean = cc.run_two_branch_batch

        def shifted(circuit, x0s, x1s, error_prob, rng):
            runs, phases_v = clean(circuit, x0s, x1s, 0.0, rng)
            modulus = circuit.metadata["modulus"]
            return [dataclasses.replace(run, y0=run.y0 + modulus, y1=run.y1 + modulus)
                    for run in runs], phases_v

        monkeypatch.setattr(cc, "run_two_branch_batch", shifted)
        for m in (0, 1):
            cfg = ps.SweepConfig(m_values=(m,), fidelity_grid=(1.0,),
                                 trials_per_point=100, seed=7, method="schoolbook")
            row = ps.run_sweep(cfg, keys)[0]
            assert row.kept == 0
            assert row.discard_rate == 1.0


class TestSweepMatchesMessagePath:
    def test_theta_free_statistics_agree(self):
        # the batched sweep engine and the exact per-message path must see
        # the same physics; compare quantities that do not depend on the
        # round-3 angle policy (p_x and the discard rate)
        keys = gen_exact_bits(14)
        F = 0.7
        cfg = ps.SweepConfig(m_values=(0,), fidelity_grid=(F,),
                             trials_per_point=6000, seed=13, method="schoolbook")
        row = ps.run_sweep(cfg, keys)[0]

        circ = cc.build_modsquare(keys.N, lift_m=0, method="schoolbook")
        ctx = proto.ProtocolContext.for_circuit(keys, circ)
        noise = provers.NoiseModel(F, cc.count_resources(circ).total_gates)
        prover = provers.NoisyCircuitProver(ctx, noise, seed=14)
        rng = derive_rng(15, "v")
        cfg2 = proto.IterationConfig(postselect=True)
        ts = [proto.run_iteration(ctx, prover, rng, cfg2, i) for i in range(3000)]
        discarded = sum(t.outcome is proto.Outcome.DISCARDED_INVALID_Y for t in ts)
        rep = proto.score(ts)
        se_px = (float(rep.p_x) * (1 - float(rep.p_x)) / rep.trials_x) ** 0.5 + \
            (row.p_x * (1 - row.p_x) / 3000) ** 0.5
        assert abs(float(rep.p_x) - row.p_x) < 4 * se_px + 0.02
        assert abs(discarded / 3000 - row.discard_rate) < 0.04


class TestSilentDiscardUnbiased:
    def test_scores_agree_at_full_fidelity(self):
        # protocol-level: with and without post-selection, the noise-free
        # score is the same; nothing is ever discarded
        keys = gen_exact_bits(16)
        for m in (0, 1):
            circ = cc.build_modsquare(keys.N, lift_m=m, method="schoolbook")
            ctx = proto.ProtocolContext.for_circuit(keys, circ)
            noise = provers.NoiseModel(1.0, 100)
            reports = []
            for postselect in (False, True):
                prover = provers.NoisyCircuitProver(ctx, noise, seed=30 + m)
                rng = derive_rng(31, "v", m, postselect)
                cfg = proto.IterationConfig(postselect=postselect)
                ts = [proto.run_iteration(ctx, prover, rng, cfg, i)
                      for i in range(1200)]
                assert not any(t.outcome is proto.Outcome.DISCARDED_INVALID_Y
                               for t in ts)
                reports.append(proto.score(ts))
            a, b = reports
            assert abs(float(a.score) - float(b.score)) < a.ci_halfwidth + b.ci_halfwidth
