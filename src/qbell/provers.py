"""Prover implementations behind one rewindable interface.

The ideal prover simulates the honest quantum device exactly: the
post-round-1 state is supported on just two basis strings, so it is
represented as the pair plus a relative sign.  The trapdoor is used
internally to materialize the partner branch -- the simulator is playing
the physics, not the prover's knowledge; a real device gets the partner
from the superposition.

The cheater is the optimal classical strategy: commit to one preimage,
answer the preimage challenge perfectly, and in round 3 pretend the qubit
is |r.x0>.  The noisy prover runs an actual gate list on both branches
with Pauli errors and adapts its measurement angle if told to.

Rewinding: reset() restores the exact post-round-1 state, and all
post-reset randomness is a deterministic function of the messages received
since (keyed by a per-iteration snapshot), which is the classical-prover
rewind model the extractor relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import circuits, tcf
from .protocol import (ProtocolContext, QubitState, born_probability,
                       compute_qubit_state, expected_bit, parity)
from .seeds import derive_rng, derive_seed


class DegenerateModel(ValueError):
    """Angle adaptation is undefined at or below f_par = 1/2."""


# ---------------------------------------------------------------------------
# state and noise models

@dataclass
class TwoBranchState:
    """(|x0> + rel_phase |x1>) |y>, or a single collapsed branch."""

    x0: int
    x1: int
    rel_phase: int
    y: int
    width: int
    collapsed: int | None = None  # branch index if the superposition is gone

    @property
    def merged(self) -> bool:
        return self.collapsed is not None or self.x0 == self.x1

    @property
    def phase_bit(self) -> int:
        return 0 if self.rel_phase == 1 else 1

    def preimage(self, rng) -> int:
        """Standard-basis measurement of the input register: the surviving
        branch, or either branch with probability one half."""
        pick = rng.randrange(2) if self.collapsed is None else self.collapsed
        return (self.x0, self.x1)[pick]

    def qubit(self, r: int, d: int) -> QubitState:
        """The round-3 qubit after round 2 with vector r and equation d."""
        if self.collapsed is not None:
            branch = (self.x0, self.x1)[self.collapsed]
            return compute_qubit_state(branch, branch, r, d)
        return compute_qubit_state(self.x0, self.x1, r, d, rel_phase_bit=self.phase_bit)


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate Pauli noise calibrated so a clean run of the reference
    circuit has overall fidelity `circuit_fidelity`."""

    circuit_fidelity: float
    n_gates: int

    def __post_init__(self):
        if not 0.0 < self.circuit_fidelity <= 1.0:
            raise tcf.DomainError("circuit fidelity must be in (0, 1]")
        if self.n_gates < 1:
            raise tcf.DomainError("reference gate count must be positive")

    @property
    def per_gate_fidelity(self) -> float:
        return self.circuit_fidelity ** (1.0 / self.n_gates)

    @property
    def error_prob(self) -> float:
        return 1.0 - self.per_gate_fidelity


@dataclass(frozen=True)
class AngleModel:
    """Correct-state rates for computational (f_par) and diagonal (f_perp)
    rounds, and the round-3 measurement half-angle theta."""

    f_par: float
    f_perp: float
    theta: float

    def __post_init__(self):
        if not (0.0 <= self.f_par <= 1.0 and 0.0 <= self.f_perp <= 1.0):
            raise tcf.DomainError("state rates must lie in [0, 1]")
        if not -math.pi / 2 < self.theta < math.pi / 2:
            raise tcf.DomainError("theta must lie in (-pi/2, pi/2)")


def pm_of_theta(model: AngleModel) -> float:
    """Round-3 success rate when measuring at +/- theta instead of +/- pi/4."""
    t2 = model.theta / 2.0
    return 0.5 * (
        math.cos(t2) ** 2 * model.f_par
        + math.cos(t2 - math.pi / 4) ** 2 * model.f_perp
        + math.sin(t2) ** 2 * (1.0 - model.f_par)
        + math.sin(t2 - math.pi / 4) ** 2 * (1.0 - model.f_perp)
    )


def optimal_theta(f_par: float, f_perp: float) -> float:
    """Angle maximizing pm_of_theta: atan((2 f_perp - 1)/(2 f_par - 1))."""
    if f_par <= 0.5:
        raise DegenerateModel("optimal angle undefined for f_par <= 1/2")
    return math.atan((2.0 * f_perp - 1.0) / (2.0 * f_par - 1.0))


# ---------------------------------------------------------------------------
# functional core of the honest simulation

def sample_claw(keys, rng):
    """Uniform x0 over the domain, partner via trapdoor inversion; resamples
    until the image has a genuine colliding pair."""
    while True:
        x0 = keys.sample(rng)
        y = tcf.evaluate(keys, x0)
        preimages = tcf.invert(keys, y)
        if len(preimages) == 2:
            return x0, next(iter(preimages - {x0})), y


def ideal_round1(keys, rng, ctx: ProtocolContext | None = None):
    """Honest round 1: collapse onto a claw superposition with +1 phase."""
    ctx = ctx or ProtocolContext.plain(keys)
    x0, x1, y = sample_claw(keys, rng)
    state = TwoBranchState(
        x0=ctx.encode_domain(x0), x1=ctx.encode_domain(x1),
        rel_phase=1, y=y, width=ctx.reg_width,
    )
    return y, state


def ideal_round2(state: TwoBranchState, r: int, rng) -> int:
    """Hadamard-basis measurement string d of the input register.

    If the register is merged or r.x0 != r.x1 every d is equally likely
    (the first draw of rng).  Otherwise the branches interfere and d is
    uniform over the affine class {d : d.(x0 xor x1) = rel_phase_bit}.
    """
    d = rng.getrandbits(state.width)
    if not state.merged and parity(r & state.x0) == parity(r & state.x1):
        diff = state.x0 ^ state.x1
        if parity(d & diff) != state.phase_bit:
            # flip d at the lowest set bit of the branch difference
            d ^= diff & -diff
    return d


def ideal_round3(state: TwoBranchState, r: int, d: int, basis_sign: int, rng,
                 theta: float = math.pi / 4) -> int:
    """Sample the round-3 outcome with exact Born probabilities at the
    (possibly adapted) angle basis_sign * theta."""
    p0 = born_probability(state.qubit(r, d), basis_sign * theta, 0)
    return 0 if rng.random() < p0 else 1


# ---------------------------------------------------------------------------
# the rewindable interface

class ProverBase:
    """Session state machine: round1, then (answer_preimage | round2+round3),
    with reset() rewinding to the post-round-1 point deterministically."""

    def __init__(self, seed: int):
        self._seed = seed
        self._iteration = -1
        self._snapshot = None
        self._r = None
        self._d = None

    # -- deterministic per-message randomness since the snapshot
    def _rng(self, *labels):
        return derive_rng(self._snapshot, *labels)

    def round1(self):
        self._iteration += 1
        self._snapshot = derive_seed(self._seed, "iter", self._iteration)
        self._r = None
        self._d = None
        return self._round1_impl()

    def reset(self):
        """Rewind to the post-round-1 state (same snapshot, rounds cleared)."""
        if self._snapshot is None:
            raise RuntimeError("reset before the first round")
        self._r = None
        self._d = None

    def round2(self, r: int) -> int:
        self._r = r
        self._d = self._round2_impl(r)
        return self._d

    def round3(self, basis_sign: int) -> int:
        if self._r is None:
            raise RuntimeError("round3 before round2")
        return self._round3_impl(self._r, self._d, basis_sign)

    def _round1_impl(self):
        raise NotImplementedError

    def answer_preimage(self) -> int:
        raise NotImplementedError

    def _round2_impl(self, r):
        raise NotImplementedError

    def _round3_impl(self, r, d, basis_sign):
        raise NotImplementedError


class IdealProver(ProverBase):
    """Noise-free two-branch simulation of the honest quantum prover.

    Rounds 2 and 3 and the preimage answer measure the TwoBranchState that
    round 1 leaves in `state`, at the round-3 angle `theta`; the noisy
    provers below differ only in how round 1 prepares that state.
    """

    theta = math.pi / 4

    def __init__(self, keys, seed: int, ctx: ProtocolContext | None = None):
        super().__init__(seed)
        if not keys.has_trapdoor:
            raise tcf.DomainError("the simulated prover materializes the claw "
                                  "with the trapdoor; pass the full key")
        self.keys = keys
        self.ctx = ctx or ProtocolContext.plain(keys)
        self.state = None

    def _round1_impl(self):
        y, self.state = ideal_round1(self.keys, self._rng("round1"), self.ctx)
        return y, 0, 0

    def answer_preimage(self) -> int:
        return self.state.preimage(self._rng("preimage"))

    def _round2_impl(self, r):
        return ideal_round2(self.state, r, self._rng("d", r))

    def _round3_impl(self, r, d, basis_sign):
        return ideal_round3(self.state, r, d, basis_sign,
                            self._rng("m", r, basis_sign), theta=self.theta)


class CheaterProver(ProverBase):
    """Optimal classical strategy: p_x = 1, p_m = 3/4, score 0.

    Knows only the public key.  Commits to x0, returns it on request, and
    answers round 3 as if the qubit were |r.x0>.
    """

    def __init__(self, public_keys, seed: int, ctx: ProtocolContext | None = None):
        super().__init__(seed)
        self.keys = public_keys
        self.ctx = ctx or ProtocolContext.plain(public_keys)
        self._x0 = None
        self._x0_wire = None

    def _round1_impl(self):
        self._x0 = self.keys.sample(self._rng("round1"))
        y = tcf.evaluate(self.keys, self._x0)
        self._x0_wire = self.ctx.encode_domain(self._x0)
        return y, 0, 0

    def answer_preimage(self):
        return self._x0_wire

    def _round2_impl(self, r):
        return self._rng("d", r).getrandbits(self.ctx.reg_width)

    def _round3_impl(self, r, d, basis_sign):
        assumed = compute_qubit_state(self._x0_wire, self._x0_wire, r, d)
        return expected_bit(assumed, basis_sign)


class PhaseNoisyProver(IdealProver):
    """Correct branch strings, correct phase only with probability 1/2 + delta;
    measures round 3 at +/- theta (the sign follows the requested basis)."""

    def __init__(self, keys, seed: int, delta: float, theta: float = math.pi / 4):
        super().__init__(keys, seed)
        self.delta = delta
        self.theta = theta

    def _round1_impl(self):
        rng = self._rng("round1")
        y, self.state = ideal_round1(self.keys, rng, self.ctx)
        if rng.random() >= 0.5 + self.delta:
            self.state.rel_phase = -1
        return y, 0, 0


def measure_y(y0, y1, reg0, reg1, rel_phase, width, rng) -> TwoBranchState:
    """The y measurement after a two-branch circuit run.  If the branches'
    outputs disagree it collapses the state onto one branch chosen
    uniformly (one rng draw); equal registers leave a single branch too."""
    collapsed = None
    if y0 != y1:
        collapsed = rng.randrange(2)
    elif reg0 == reg1:
        collapsed = 0
    return TwoBranchState(x0=reg0, x1=reg1, rel_phase=rel_phase,
                          y=(y0, y1)[collapsed or 0], width=width, collapsed=collapsed)


def is_valid_y(y: int, k: int) -> bool:
    """Prover-side validity: the lifted image must be a multiple of k^2."""
    return y % (k * k) == 0


# Round 1 of the noisy circuit prover runs for this many upcoming iterations
# at a time.  Measured on the 64-bit karatsuba circuit (2-vCPU Xeon VM): one
# engine call costs about 8 ms for anywhere from 1 to 32 runs, so a run's
# share falls to about 0.6 ms at 16 runs and only 0.2 ms further at 32,
# while every iteration run ahead costs about 1 ms of claw sampling and
# replay whether it is played or not.
ROUND1_BLOCK = 16


class AttemptsExhausted(RuntimeError):
    """The noisy prover found no valid y within its attempt budget."""


class NoisyCircuitProver(IdealProver):
    """Circuit-level prover with per-gate Pauli noise and optional
    prover-side post-selection (retry until the measured y is a multiple
    of k^2, which is all the prover can check without the trapdoor).

    Round 1 of iteration i draws everything from its own stream
    derive_rng(derive_seed(seed, "iter", i), "round1"): per attempt the
    claw, the circuit run's errors and Hadamard outcomes (replay_draws),
    then the y measurement.  Round 1 runs ahead for ROUND1_BLOCK iterations
    at a time; `attempts` and `valid_attempts` count an iteration, and
    AttemptsExhausted is raised for it, only when it is played.
    """

    def __init__(self, keys, circuit, noise: NoiseModel, seed: int,
                 retry_invalid: bool = True, max_attempts: int = 1000):
        super().__init__(keys, seed, ProtocolContext.for_circuit(keys, circuit))
        if max_attempts < 1:
            raise tcf.DomainError("max_attempts must be positive")
        self.circuit = circuit
        self.noise = noise
        self.retry_invalid = retry_invalid
        self.max_attempts = max_attempts
        self.attempts = 0
        self.valid_attempts = 0
        self._ahead = {}  # iteration -> (attempts, (y, state, h) or None)

    def _round1_impl(self):
        if self._iteration not in self._ahead:
            self._ahead = self._round1_block(self._iteration)
        attempts, found = self._ahead.pop(self._iteration)
        self.attempts += attempts
        if found is None:
            raise AttemptsExhausted(f"no valid y within {self.max_attempts} attempts")
        self.valid_attempts += 1
        y, self.state, h = found
        return y, h, self.circuit.schedule.h_len

    def _round1_block(self, first: int) -> dict:
        """Round 1 of iterations first .. first + ROUND1_BLOCK - 1, in waves:
        each wave runs one attempt of every iteration still pending in one
        engine call, and an iteration stays pending while it must retry."""
        rngs = {i: derive_rng(derive_seed(self._seed, "iter", i), "round1")
                for i in range(first, first + ROUND1_BLOCK)}
        tries = dict.fromkeys(rngs, 0)
        done = {}
        while rngs:
            pending = list(rngs)
            claws, draws = [], []
            for i in pending:
                claws.append(sample_claw(self.keys, rngs[i]))
                draws.append(circuits.replay_draws(self.circuit.schedule,
                                                   self.noise.error_prob, rngs[i]))
            runs = circuits.run_two_branch_block(self.circuit, [c[0] for c in claws],
                                                 [c[1] for c in claws], draws)
            for i, run in zip(pending, runs):
                state = measure_y(run.y0, run.y1, run.reg0, run.reg1, run.rel_phase,
                                  self.ctx.reg_width, rngs[i])
                tries[i] += 1
                if not self.retry_invalid or is_valid_y(state.y, self.ctx.lift_k):
                    done[i] = (tries[i], (state.y, state, run.h))
                elif tries[i] == self.max_attempts:
                    done[i] = (tries[i], None)
                else:
                    continue
                del rngs[i]
        return done
