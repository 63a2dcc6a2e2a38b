"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not tuned elsewhere.
"""

import json
import math
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from qbell import circuits as cc
from qbell import extractor as ex
from qbell import postselect as ps
from qbell import protocol as proto
from qbell import provers, tcf
from qbell.seeds import derive_rng

from helpers import StateVector, blum_semiprimes, cli_env, gen_exact_bits

SQRT2M1 = math.sqrt(2) - 1


def verdict(tag, ok, detail):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def key32():
    return gen_exact_bits(32, seed0=10)


@pytest.fixture(scope="module")
def key64():
    return gen_exact_bits(64, seed0=0)


def run_protocol(keys, prover, trials, seed):
    ctx = proto.ProtocolContext.plain(keys)
    rng = derive_rng(seed, "verifier")
    cfg = proto.IterationConfig()
    ts = [proto.run_iteration(ctx, prover, rng, cfg, i) for i in range(trials)]
    return proto.score(ts)


def test_c1_completeness(key32):
    trials = 100_000
    t0 = time.time()
    rep = run_protocol(key32, provers.IdealProver(key32, seed=1), trials, seed=101)
    elapsed = time.time() - t0
    pm = float(rep.p_m)
    sig_m = math.sqrt(proto.COS2_PI_8 * (1 - proto.COS2_PI_8) / rep.trials_m)
    score = float(rep.score)
    ok = (rep.p_x == 1
          and abs(pm - proto.COS2_PI_8) <= 3 * sig_m
          and abs(score - SQRT2M1) <= 3 * 4 * sig_m
          and elapsed < 60.0)
    verdict("C1 completeness", ok,
            f"p_x={float(rep.p_x):.6f} p_m={pm:.6f} (cos^2(pi/8)={proto.COS2_PI_8:.6f} "
            f"+-{3 * sig_m:.6f}) score={score:.6f} (sqrt2-1={SQRT2M1:.6f}) "
            f"runtime={elapsed:.1f}s")


def test_c2_soundness_saturation(key32):
    trials = 100_000
    rep = run_protocol(key32, provers.CheaterProver(key32.public(), seed=2),
                       trials, seed=102)
    pm = float(rep.p_m)
    sig_m = math.sqrt(0.75 * 0.25 / rep.trials_m)
    score = float(rep.score)
    hw = rep.ci_halfwidth
    ok = (abs(pm - 0.75) <= 3 * sig_m
          and abs(score) <= hw          # CI contains 0
          and score + hw < 0.1)         # CI excludes 0.1
    verdict("C2 soundness saturation", ok,
            f"p_m={pm:.6f} (0.75 +-{3 * sig_m:.6f}) score={score:+.6f} ci=+-{hw:.4f}")


def test_c3_extraction():
    params = ex.GlParams(t=6)
    wins = 0
    for trial in range(100):
        bits = 24 + (trial % 9)  # cycle 24..32
        keys = gen_exact_bits(bits, seed0=2000 + 20 * trial)
        prover = provers.IdealProver(keys, seed=trial)
        try:
            rep = ex.extract_and_factor(prover, keys.N, params,
                                        derive_rng(103, "gl", trial))
            wins += rep.factors == (keys.p, keys.q)
        except ex.ExtractionFailed:
            pass
    cheat_wins = 0
    for trial in range(100):
        keys = gen_exact_bits(24 + (trial % 9), seed0=5000 + 20 * trial)
        cheat = provers.CheaterProver(keys.public(), seed=trial)
        try:
            ex.extract_and_factor(cheat, keys.N, ex.GlParams(t=5),
                                  derive_rng(104, "gl", trial))
            cheat_wins += 1
        except ex.ExtractionFailed:
            pass
    ok = wins >= 90 and cheat_wins <= 1
    verdict("C3 extraction", ok,
            f"ideal prover factored {wins}/100 (need >=90), "
            f"cheater {cheat_wins}/100 (need <=1)")


def test_c4_list_decoding_lemma():
    rng = random.Random(4242)
    mu = 0.1
    worst = 1.0
    all_ok = True
    for _ in range(50):
        n_y = rng.randrange(60, 240)
        rates = [rng.random() * 0.5 for _ in range(n_y)]
        measured = []
        for e in rates:
            q = 300
            measured.append(sum(rng.random() < e for _ in range(q)) / q)
        eps = sum(measured) / len(measured)
        good = ex.good_fraction(measured, mu)
        bound = ex.lemma1_bound(eps, mu)
        worst = min(worst, good - bound)
        all_ok &= good >= bound
    verdict("C4 list-decoding lemma", all_ok,
            f"50 plants, min(good_fraction - bound)={worst:+.4f} (need >= 0)")


def test_c5_circuit_semantics():
    checked = 0
    for N, p, q in blum_semiprimes(1000):
        bound = (N + 1) // 2
        for circ in (cc.build_modsquare(N),
                     cc.build_modsquare(N, method="karatsuba", cutoff=8)):
            rp = circ.metadata["rprime"]
            ys, _ = cc.evaluate_classical(circ, range(bound))
            for x in range(bound):
                assert ys[x] == x * x * rp % N, (N, x)
            checked += bound

    # phase circuit variant 1: full state-vector evolution, every input
    sv_checked = 0
    for N in (21, 33):
        n = N.bit_length()
        circ = cc.phase_schedule(1, n, N)
        m_out = circ.metadata["m_out"]
        M = 1 << m_out
        x_reg, y_reg = circ.registers["x"], circ.registers["y"]
        phase_gates = [g for g in circ.gates if g[0] == cc.CPHASE]
        for x in range(1 << n):
            sv = StateVector(circ.n_qubits)
            base = sum(1 << q for i, q in enumerate(x_reg) if (x >> i) & 1)
            amp = 1.0 / math.sqrt(M)
            y_indices = []
            for z in range(M):
                v = base
                for i, q in enumerate(y_reg):
                    if (z >> i) & 1:
                        v |= 1 << q
                y_indices.append(v)
            sv.state[y_indices] = amp
            for g in phase_gates:
                sv.apply_gate(g)
            amps = sv.state[y_indices]
            freq = np.fft.fft(amps) / math.sqrt(M)
            zhat = int(np.argmax(np.abs(freq)))
            assert round(zhat * N / M) % N == x * x % N, (N, x)
            sv_checked += 1
    verdict("C5 circuit semantics", True,
            f"exhaustive multiplier check on {len(blum_semiprimes(1000))} moduli "
            f"({checked} evaluations); phase circuit 1 state-vector verified for "
            f"{sv_checked} inputs at N=21 and N=33")


def test_c6_resource_counts():
    keys = gen_exact_bits(128, seed0=0)
    N = keys.N
    targets = []

    sb = cc.count_resources(cc.build_modsquare(N))
    targets.append(("schoolbook qubits", sb.qubits, 515))
    targets.append(("schoolbook gates (Clifford+T)", sb.gates_clifford_t, 9.1e5))

    ka = cc.count_resources(cc.build_modsquare(N, method="karatsuba"))
    targets.append(("karatsuba qubits", ka.qubits, 942))
    targets.append(("karatsuba gates (Clifford+T)", ka.gates_clifford_t, 7.7e5))

    p1 = cc.phase_circuit_resources(1, 128)
    targets.append(("phase1 qubits", p1.qubits, 128))
    targets.append(("phase1 gates", p1.total_gates, 1.1e6))

    p2 = cc.phase_circuit_resources(2, 128)
    targets.append(("phase2 gates", p2.total_gates, 4.3e5))

    lines = []
    ok = True
    for name, got, want in targets:
        ratio = got / want
        good = 0.5 <= ratio <= 2.0
        ok &= good
        lines.append(f"{name}={got} (target {want:g}, x{ratio:.2f})")
    verdict("C6 resource counts", ok, "; ".join(lines))


def test_c7_postselection(key64):
    grids = {
        0: ((0.30, 0.42, 0.55, 0.70), 12_000),
        1: ((0.06, 0.12, 0.22, 0.40), 12_000),
        2: ((0.008, 0.02, 0.05, 0.10, 0.25), 16_000),
        3: ((0.004, 0.008, 0.02, 0.035, 0.05), 28_000),
    }
    thresholds = {}
    rows_by_m = {}
    for m, (grid, trials) in grids.items():
        cfg = ps.SweepConfig(m_values=(m,), fidelity_grid=grid,
                             trials_per_point=trials, seed=777)
        rows = ps.run_sweep(cfg, key64)
        rows_by_m[m] = rows
        try:
            thresholds[m] = ps.threshold_of(rows)
        except ps.NoCrossing:
            # positive across the whole grid: the crossing sits below it
            assert all(r.score > 0 for r in rows)
            thresholds[m] = min(grid)

    a_ok = 0.40 <= thresholds[0] <= 0.62
    order = [thresholds[m] for m in (0, 1, 2, 3)]
    b_ok = all(x >= y for x, y in zip(order, order[1:]))
    c_best = max(r.score for r in rows_by_m[3] if r.F <= 0.05)
    c_ok = c_best > 0.0

    rng = random.Random(77)
    d_ok = True
    d_lines = []
    for m in (1, 2, 3):
        k = 3 ** m
        nsamp = 60_000
        rate = sum(not ps.is_valid_y(rng.getrandbits(75), k)
                   for _ in range(nsamp)) / nsamp
        want = 1 - 9.0 ** (-m)
        d_ok &= abs(rate - want) <= 0.02
        d_lines.append(f"m={m}: {rate:.4f} vs {want:.4f}")

    # runtime overhead near F=0.1 for the best advantage-achieving m:
    # within a factor 2 of the 4.7x reference figure
    cand = [r for rows in rows_by_m.values() for r in rows
            if abs(r.F - 0.1) < 0.03 and r.score > 0]
    overhead = min((r.runtime_overhead for r in cand), default=None)
    ovh_ok = overhead is not None and 4.7 / 2 <= overhead <= 4.7 * 2

    ok = a_ok and b_ok and c_ok and d_ok and ovh_ok
    verdict("C7 post-selection", ok,
            f"(a) m=0 threshold={thresholds[0]:.3f} in [0.40, 0.62]: {a_ok}; "
            f"(b) thresholds {['%.3f' % t for t in order]} nonincreasing: {b_ok}; "
            f"(c) m=3 best score at F<=0.05: {c_best:+.3f} > 0: {c_ok}; "
            f"(d) full-corruption discard {', '.join(d_lines)} within 2%: {d_ok}; "
            f"overhead near F=0.1: {overhead:.2f} in [2.35, 9.4]: {ovh_ok}")


def test_c8_angle_adaptation():
    # argmax property on the stated grids, evaluating pm_of_theta directly
    thetas = [(-math.pi / 2 + 1e-9) + i * (math.pi - 2e-9) / 999 for i in range(1000)]
    grid = np.linspace(0.5 + 1e-6, 1.0, 20)
    worst_gap = 0.0
    for f_par in grid:
        for f_perp in grid:
            t_best = provers.optimal_theta(f_par, f_perp)
            p_best = provers.pm_of_theta(provers.AngleModel(f_par, f_perp, t_best))
            p_max = max(provers.pm_of_theta(provers.AngleModel(f_par, f_perp, th))
                        for th in thetas)
            worst_gap = max(worst_gap, p_max - p_best)
    argmax_ok = worst_gap <= 1e-9

    delta = 0.2
    keys = gen_exact_bits(24, seed0=50)
    theta_opt = provers.optimal_theta(1.0, 0.5 + delta)
    trials = 100_000

    def run(theta, seed):
        prover = provers.PhaseNoisyProver(keys, seed=seed, delta=delta, theta=theta)
        return run_protocol(keys, prover, trials, seed=200 + seed)

    rep_opt = run(theta_opt, 1)
    rep_pi4 = run(math.pi / 4, 2)
    rep_delta = run(delta, 3)

    score_opt = float(rep_opt.score)
    score_pi4 = float(rep_pi4.score)
    pm_delta = float(rep_delta.p_m)
    predicted = 0.75 + 3 * delta ** 2 / 8
    sig = math.sqrt(predicted * (1 - predicted) / rep_delta.trials_m)

    beat_ok = score_opt > 0
    classical_ok = score_pi4 <= rep_pi4.ci_halfwidth
    formula_ok = abs(pm_delta - predicted) <= 3 * sig
    ok = argmax_ok and beat_ok and classical_ok and formula_ok
    verdict("C8 angle adaptation", ok,
            f"argmax gap={worst_gap:.2e}; score(theta_opt)={score_opt:+.4f}>0: {beat_ok}; "
            f"score(pi/4)={score_pi4:+.4f}<=ci({rep_pi4.ci_halfwidth:.4f}): {classical_ok}; "
            f"p_m(theta=delta)={pm_delta:.4f} vs 3/4+3d^2/8={predicted:.4f} "
            f"+-{3 * sig:.4f}: {formula_ok}")


def test_c9_cli_determinism(tmp_path):
    key = tmp_path / "key.json"
    rc = subprocess.run([sys.executable, "-m", "qbell.cli", "keygen", "--bits", "28",
                         "--seed", "6", "--out", str(key)], env=cli_env()).returncode
    assert rc == 0
    outputs = []
    for tag in ("a", "b"):
        rep = tmp_path / f"rep_{tag}.json"
        tr = tmp_path / f"tr_{tag}.jsonl"
        rc = subprocess.run([sys.executable, "-m", "qbell.cli", "run",
                             "--key", str(key), "--prover", "ideal",
                             "--trials", "3000", "--seed", "9",
                             "--out", str(rep), "--transcripts", str(tr)],
                            env=cli_env()).returncode
        assert rc == 0
        outputs.append(rep.read_bytes() + tr.read_bytes())
    sweep_outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"sw_{tag}.csv"
        rc = subprocess.run([sys.executable, "-m", "qbell.cli", "sweep",
                             "--key", str(key), "--m-values", "0",
                             "--fidelities", "0.9", "--trials", "300",
                             "--seed", "4", "--out", str(out)], env=cli_env()).returncode
        assert rc == 0
        sweep_outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and sweep_outputs[0] == sweep_outputs[1]
    verdict("C9 determinism", ok,
            f"run+transcripts byte-identical: {outputs[0] == outputs[1]}; "
            f"sweep byte-identical: {sweep_outputs[0] == sweep_outputs[1]}")
