"""Redundancy-based error filtering experiments.

Key lifting maps the squaring function to (k x)^2 mod k^2 N with k = 3^m,
so every honest image is a multiple of k^2 and the prover can reject a
corrupted measurement without the trapdoor, at a cost of re-running the
circuit.  The verifier additionally discards (silently) any surviving y
that the trapdoor cannot invert.  Sweeps measure the protocol score, the
combined discard rate and the runtime overhead across circuit fidelities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import circuits, protocol, tcf
from .provers import (NoiseModel, ideal_round2, is_valid_y, measure_y, optimal_theta,
                      sample_claw)
from .seeds import derive_rng, derive_seed


def lift_key(keys: tcf.RabinKeyPair, m: int,
             method: str = "karatsuba") -> protocol.ProtocolContext:
    """The context that reads the wire values of the lifted circuit (x3
    chain, square, reduce) for k = 3^m: the one setup of every
    circuit-backed run."""
    circ = circuits.build_modsquare(keys.N, lift_m=m, method=method)
    return protocol.ProtocolContext.for_circuit(keys, circ)


MIN_TRIALS_PER_POINT = 100


@dataclass(frozen=True)
class SweepConfig:
    m_values: tuple
    fidelity_grid: tuple
    trials_per_point: int
    seed: int
    method: str = "karatsuba"

    def __post_init__(self):
        if not self.m_values or not self.fidelity_grid:
            raise tcf.DomainError("sweep grids must be nonempty")
        if self.trials_per_point < MIN_TRIALS_PER_POINT:
            raise tcf.DomainError(f"need at least {MIN_TRIALS_PER_POINT} trials per point")


@dataclass(frozen=True)
class SweepRow:
    m: int
    F: float
    p_x: float
    p_m: float
    score: float
    discard_rate: float
    runtime_overhead: float
    kept: int


def run_sweep(config: SweepConfig, keys: tcf.RabinKeyPair) -> list:
    """Noisy-prover protocol statistics over the (m, F) grid.

    Per-gate fidelity is calibrated on the unlifted circuit, so lifted
    circuits run at a lower overall fidelity -- that cost, plus re-running
    until a valid y appears, is the runtime overhead
    (size ratio / keep rate).  The unlifted circuit's gates are counted
    by circuits.modsquare_gate_count, so each listed m builds its circuit
    once and m = 0 is built only when listed.
    """
    base_gates = circuits.modsquare_gate_count(keys.N, 0, config.method)
    rows = []
    for m in config.m_values:
        ctx = lift_key(keys, m, config.method)
        gates = ctx.circuit.schedule.unitary
        for F in config.fidelity_grid:
            noise = NoiseModel(circuit_fidelity=F, n_gates=base_gates)
            rows.append(_sweep_point(config, m, ctx, gates, noise))
    return rows


def _sweep_point(config: SweepConfig, m: int, ctx: protocol.ProtocolContext, gates: int,
                 noise: NoiseModel) -> SweepRow:
    keys = ctx.keys
    trials = config.trials_per_point

    seed = derive_seed(config.seed, "point", m, repr(noise.circuit_fidelity))
    rng = derive_rng(seed, "rounds")
    engine_rng = derive_rng(seed, "engine")

    # stage 1: run the circuit, post-select, remember the surviving runs
    kept_runs = []
    discarded = 0
    cal_total = cal_bits = cal_state = 0
    chunk = 2048
    done = 0
    while done < trials:
        R = min(chunk, trials - done)
        done += R
        claws = [sample_claw(keys, rng) for _ in range(R)]
        x0s = [c[0] for c in claws]
        x1s = [c[1] for c in claws]
        out = circuits.run_two_branch_batch(ctx.circuit, x0s, x1s, noise.error_prob,
                                            engine_rng)
        for i in range(R):
            phase_p, phase_v = out["phase_prover"][i], out["phase_verifier"][i]
            state = measure_y(out["y0"][i], out["y1"][i], out["reg0"][i], out["reg1"][i],
                              phase_p, ctx.reg_width, rng)
            if not is_valid_y(state.y, ctx.lift_k):
                discarded += 1  # prover-side: re-run the circuit
                continue
            # device characterization against the intended (error-free)
            # computation, over the runs the prover itself can keep: the
            # clean registers hold the encoded claw
            cal_total += 1
            if state.collapsed is None and \
                    {state.x0, state.x1} == {ctx.encode_domain(x0s[i]),
                                             ctx.encode_domain(x1s[i])}:
                cal_bits += 1
                if phase_p == phase_v:
                    cal_state += 1
            preimages = ctx.preimages(state.y)
            if not preimages:
                discarded += 1  # verifier-side silent discard
                continue
            kept_runs.append((state, phase_v, preimages))

    # stage 2: calibrate the round-3 angle; the prover only sees its own
    # post-selected ensemble, not the verifier's silent discards
    theta = _calibrated_theta(cal_total, cal_bits, cal_state)

    # stage 3: play rounds against the verifier.  Its discard phase bit is
    # the clean shadow's phase_v instead of an evaluate_classical call per
    # round, and the predicted state keeps its distribution: when y inverts
    # to the sampled claw, the verifier recomputes from that claw with the
    # same h and gets phase_v; for another claw {w0, w1}, d.(w0 xor w1) is
    # uniform over the prover's d unless w0 xor w1 equals its own branch
    # difference, so the predicted sign is a fair coin under either phase.
    tx = ax = tm = am = 0
    for state, phase_v, preimages in kept_runs:
        if protocol.choose_challenge(rng) == "preimage":
            tx += 1
            ax += ctx.check_preimage_wire(state.preimage(rng), state.y)
        else:
            tm += 1
            r = rng.getrandbits(ctx.reg_width)
            d = ideal_round2(state, r, rng)
            sign = 1 if rng.random() < 0.5 else -1
            expected = protocol.expected_bit(
                protocol.predicted_state(ctx, preimages, r, d, phase_v), sign)
            # the round is won with the Born probability of the bit the
            # verifier expects; adding it instead of a sampled 0/1 keeps p_m
            # unbiased and removes the measurement's own sampling noise
            am += protocol.born_probability(state.qubit(r, d), sign * theta, expected)

    kept = tx + tm
    discard_rate = discarded / trials
    size_ratio = gates / noise.n_gates
    overhead = size_ratio / (1.0 - discard_rate) if discard_rate < 1.0 else math.inf
    p_x = ax / tx if tx else 0.0
    p_m = am / tm if tm else 0.0
    return SweepRow(m=m, F=noise.circuit_fidelity, p_x=p_x, p_m=p_m,
                    score=p_x + 4.0 * p_m - 4.0, discard_rate=discard_rate,
                    runtime_overhead=overhead, kept=kept)


def _calibrated_theta(total, bits_ok, state_ok) -> float:
    """Round-3 angle from the empirical correct-state rates.

    Post-selection cannot catch pure phase errors, so the prover measures
    at the optimum for its actual (f_par, f_perp) instead of pi/4; with
    correct bitstrings f_par is near one and the optimum angle shrinks with
    the surviving phase coherence.  Runs with wrong bitstrings hold an
    effectively random state, correct with probability one half.
    """
    if total == 0:
        return math.pi / 4
    frac_bits = bits_ok / total
    frac_state = state_ok / total
    f_par = frac_bits + (1.0 - frac_bits) * 0.5
    f_perp = frac_state + (1.0 - frac_bits) * 0.5
    if f_par <= 0.5 + 1e-9:
        return math.pi / 4
    return optimal_theta(f_par, f_perp)


def sweep_rows_to_csv(rows) -> str:
    lines = ["m,F,p_x,p_m,score,discard_rate,overhead"]
    for r in rows:
        lines.append(f"{r.m},{r.F:.6g},{r.p_x:.6f},{r.p_m:.6f},{r.score:.6f},"
                     f"{r.discard_rate:.6f},{r.runtime_overhead:.6f}")
    return "\n".join(lines) + "\n"


def sweep_rows_to_json(rows) -> str:
    return json.dumps([{
        "m": r.m, "F": r.F, "p_x": r.p_x, "p_m": r.p_m, "score": r.score,
        "discard_rate": r.discard_rate, "overhead": r.runtime_overhead,
        "kept": r.kept,
    } for r in rows], sort_keys=True)
