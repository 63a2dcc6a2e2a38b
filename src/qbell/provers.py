"""Prover implementations behind one rewindable interface.

The ideal prover simulates the honest quantum device exactly: the
post-round-1 state is supported on just two basis strings, so it is
represented as the pair plus a relative sign.  The trapdoor is used
internally to materialize the partner branch, in closed form
(keys.partner) rather than by inverting the image -- the simulator is
playing the physics, not the prover's knowledge; a real device gets the
partner from the superposition.

The cheater is the optimal classical strategy: commit to one preimage,
answer the preimage challenge perfectly, and in round 3 pretend the qubit
is |r.x0>.  The noisy prover runs an actual gate list on both branches
with Pauli errors.

Rewinding: reset() restores the exact post-round-1 state, and all
post-reset randomness is a deterministic function of the messages received
since (keyed by a per-iteration snapshot), which is the classical-prover
rewind model the extractor relies on.  Each message draws from its own
counter stream, seeds.CounterRandom(snapshot, *message labels), so an
answer depends on the snapshot and the message alone, never on what was
asked before; round 2's answer to each r is therefore kept for the snapshot
and replayed when a rewound prover is asked the same r again.  Round 1
draws through a stream object, since it may draw more than once; rounds 2
and 3 and the preimage answer draw once, and read their stream's first
bits with seeds.first_bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import tcf
from .protocol import (ProtocolContext, QubitState, born_probability,
                       compute_qubit_state, parity)
from .seeds import CounterRandom, _path, derive_rng, derive_seed, first_bits


class DegenerateModel(ValueError):
    """Angle adaptation is undefined at or below f_par = 1/2."""


# ---------------------------------------------------------------------------
# state and noise models

@dataclass
class TwoBranchState:
    """(|x0> + (-1)^phase |x1>) |y>, or a single collapsed branch."""

    x0: int
    x1: int
    phase: int
    y: int
    width: int
    collapsed: int | None = None  # branch index if the superposition is gone

    @property
    def merged(self) -> bool:
        return self.collapsed is not None or self.x0 == self.x1

    def preimage(self, coin) -> int:
        """Standard-basis measurement of the input register: the surviving
        branch, or branch coin() of the two, where coin is a fair 0/1 draw
        made only while both branches remain."""
        pick = coin() if self.collapsed is None else self.collapsed
        return (self.x0, self.x1)[pick]

    def qubit(self, r: int, d: int) -> QubitState:
        """The round-3 qubit after round 2 with vector r and equation d."""
        if self.collapsed is not None:
            branch = (self.x0, self.x1)[self.collapsed]
            return compute_qubit_state(branch, branch, r, d)
        return compute_qubit_state(self.x0, self.x1, r, d, rel_phase_bit=self.phase)


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


def optimal_theta(f_par: float, f_perp: float) -> float:
    """Round-3 half-angle maximizing the success rate for correct-state
    rates f_par (computational rounds) and f_perp (diagonal rounds):
    atan((2 f_perp - 1)/(2 f_par - 1))."""
    if f_par <= 0.5:
        raise DegenerateModel("optimal angle undefined for f_par <= 1/2")
    return math.atan((2.0 * f_perp - 1.0) / (2.0 * f_par - 1.0))


# ---------------------------------------------------------------------------
# functional core of the honest simulation

def sample_claw(keys, rng):
    """Uniform x0 over the domain, its claw partner x1 = keys.partner(x0)
    in closed form, and y = f(x0); resamples while x0 has no partner.
    Only keys.sample draws from rng."""
    while True:
        x0 = keys.sample(rng)
        x1 = keys.partner(x0)
        if x1 is not None:
            return x0, x1, tcf.evaluate(keys, x0)


def ideal_round1(ctx: ProtocolContext, rng):
    """Honest round 1: collapse onto a claw superposition with +1 phase."""
    x0, x1, y = sample_claw(ctx.keys, rng)
    state = TwoBranchState(
        x0=ctx.encode_domain(x0), x1=ctx.encode_domain(x1),
        phase=0, y=y, width=ctx.reg_width,
    )
    return y, state


def ideal_round2(state: TwoBranchState, r: int, d: int) -> int:
    """Hadamard-basis measurement string of the input register, from d, a
    uniform state.width-bit draw.

    If the register is merged or r.x0 != r.x1 every string is equally
    likely, and it is d.  Otherwise the branches interfere and the string
    is uniform over the affine class {d : d.(x0 xor x1) = phase}.
    """
    if not state.merged and parity(r & state.x0) == parity(r & state.x1):
        diff = state.x0 ^ state.x1
        if parity(d & diff) != state.phase:
            # flip d at the lowest set bit of the branch difference
            d ^= diff & -diff
    return d


def ideal_round3(state: TwoBranchState, r: int, d: int, basis_sign: int, u: float) -> int:
    """The round-3 outcome with exact Born probabilities at the angle
    basis_sign * pi/4, from u, a uniform draw in [0, 1)."""
    p0 = born_probability(state.qubit(r, d), basis_sign * (math.pi / 4), 0)
    return 0 if u < p0 else 1


# ---------------------------------------------------------------------------
# the rewindable interface

class ProverBase:
    """Session state machine: round1, then (answer_preimage | round2+round3),
    with reset() rewinding to the post-round-1 point deterministically."""

    def __init__(self, seed: int):
        self._seed = seed
        self._iteration = -1
        self._snapshot = None
        self._prefix = None  # _path(snapshot, ()) + b"|": every message path's start
        self._r = None
        self._d = None
        self._answers = {}  # r -> d, round 2's answers since the snapshot

    # -- deterministic per-message randomness since the snapshot.  A message
    # that draws once reads its stream's first bits with first_bits, from
    # self._prefix plus its labels as _path writes them (str() of each,
    # joined by "|"): the bits self._rng(*labels) would draw first
    def _rng(self, *labels):
        return CounterRandom(self._snapshot, *labels)

    def round1(self):
        self._iteration += 1
        self._snapshot = derive_seed(self._seed, "iter", self._iteration)
        self._prefix = _path(self._snapshot, ()) + b"|"
        self._r = None
        self._d = None
        self._answers = {}
        return self._round1_impl()

    def reset(self):
        """Rewind to the post-round-1 state (same snapshot, rounds cleared)."""
        if self._snapshot is None:
            raise RuntimeError("reset before the first round")
        self._r = None
        self._d = None

    def round2(self, r: int) -> int:
        """d for r: _round2_impl is a function of the snapshot and r alone,
        so a rewound prover replays its answer instead of drawing it again."""
        self._r = r
        d = self._answers.get(r)
        if d is None:
            d = self._answers[r] = self._round2_impl(r)
        self._d = d
        return d

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
    round 1 leaves in `state`; the noisy prover below differs only in how
    round 1 prepares that state.
    """

    def __init__(self, ctx: ProtocolContext, seed: int):
        super().__init__(seed)
        if not ctx.keys.has_trapdoor:
            raise tcf.DomainError("the simulated prover materializes the claw "
                                  "with the trapdoor; pass the full key")
        self.ctx = ctx
        self.state = None

    def _round1_impl(self):
        y, self.state = ideal_round1(self.ctx, self._rng("round1"))
        return y, 0, 0

    def answer_preimage(self) -> int:
        # getrandbits(1) takes one counter block; randrange(2) asks for two
        # bits and rejects half its draws
        return self.state.preimage(lambda: first_bits(self._prefix + b"preimage", 1))

    def _round2_impl(self, r):
        return ideal_round2(self.state, r,
                            first_bits(self._prefix + f"d|{r}".encode(), self.state.width))

    def _round3_impl(self, r, d, basis_sign):
        # u is CounterRandom.random()'s 53-bit float
        u = first_bits(self._prefix + f"m|{r}|{basis_sign}".encode(), 53) * 2.0 ** -53
        return ideal_round3(self.state, r, d, basis_sign, u)


class CheaterProver(ProverBase):
    """Optimal classical strategy: p_x = 1, p_m = 3/4, score 0.

    Knows only the public key.  Commits to x0, returns it on request, and
    answers round 3 as if the qubit were |r.x0>.
    """

    def __init__(self, public_keys, seed: int):
        super().__init__(seed)
        self.ctx = ProtocolContext.plain(public_keys)
        self._x0 = None
        self._x0_wire = None

    def _round1_impl(self):
        self._x0 = self.ctx.keys.sample(self._rng("round1"))
        y = tcf.evaluate(self.ctx.keys, self._x0)
        self._x0_wire = self.ctx.encode_domain(self._x0)
        return y, 0, 0

    def answer_preimage(self):
        return self._x0_wire

    def _round2_impl(self, r):
        return first_bits(self._prefix + f"d|{r}".encode(), self.ctx.reg_width)

    def _round3_impl(self, r, d, basis_sign):
        # |r.x0> predicts r.x0 in both bases
        return parity(r & self._x0_wire)


def measure_y(run, width: int, rng) -> TwoBranchState:
    """The y measurement after a two-branch circuit run (a
    circuits.TwoBranchRun).  If the branches' outputs disagree it collapses
    the state onto one branch chosen uniformly (one rng draw); equal
    registers leave a single branch too."""
    collapsed = None
    if run.y0 != run.y1:
        collapsed = rng.randrange(2)
    elif run.reg0 == run.reg1:
        collapsed = 0
    return TwoBranchState(x0=run.reg0, x1=run.reg1, phase=run.phase,
                          y=(run.y0, run.y1)[collapsed or 0], width=width,
                          collapsed=collapsed)


def is_valid_y(y: int, k: int) -> bool:
    """Prover-side validity: the lifted image must be a multiple of k^2."""
    return y % (k * k) == 0


# Round 1 of the noisy circuit prover keeps up to this many iterations
# pending, and each run_two_branch_block call runs one attempt of every
# pending one.  Measured on the 64-bit karatsuba circuit at m = 0 with
# F = 0.5 draws (2-vCPU Xeon VM, Python 3.11, best of 7): a call costs about
# 3.8 ms for 25 runs, 4.4 ms for 32, 5.9 ms for 64 and 9.4 ms for 128, so a
# run's share falls from 0.15 ms at 25 runs to 0.09 ms at 64 and 0.07 ms at
# 128, beside about 0.005 ms of draws per attempt.  A 1,000-iteration
# session at F = 0.5, m = 1 with --postselect took 0.42 s with a pool of 32,
# 0.33 s with 64 and 0.30 s with 128, in process (best of 3).
ROUND1_POOL = 64


class AttemptsExhausted(RuntimeError):
    """The noisy prover found no valid y within its attempt budget."""


class NoisyCircuitProver(IdealProver):
    """Circuit-level prover with per-gate Pauli noise and prover-side
    post-selection: it re-runs the circuit until the measured y is a
    multiple of k^2, which is all the prover can check without the
    trapdoor, up to max_attempts runs per iteration.

    Round 1 of iteration i draws everything from its own stream
    derive_rng(derive_seed(seed, "iter", i), "round1"): per attempt the
    claw, the circuit run's Hadamard outcomes in one call and then its
    Pauli errors (circuits.draw_run), then the y measurement.  Round 1 runs ahead in a pool of up to
    ROUND1_POOL pending iterations, refilled from the upcoming ones below
    the session length `trials` (None: unknown, so no bound but the pool's);
    `attempts` and `valid_attempts` count an iteration, and
    AttemptsExhausted is raised for it, only when it is played.
    """

    max_attempts = 1000

    def __init__(self, ctx: ProtocolContext, noise: NoiseModel, seed: int,
                 trials: int | None = None):
        super().__init__(ctx, seed)
        self.noise = noise
        self.trials = trials
        self.attempts = 0
        self.valid_attempts = 0
        self._pool = {}  # pending iteration -> [its round-1 rng, attempts so far]
        self._joined = 0  # the next iteration to join the pool
        self._done = {}  # iteration -> (attempts, (state, h) or None)

    def _round1_impl(self):
        while self._iteration not in self._done:
            self._round1_wave()
        attempts, found = self._done.pop(self._iteration)
        self.attempts += attempts
        if found is None:
            raise AttemptsExhausted(f"no valid y within {self.max_attempts} attempts")
        self.valid_attempts += 1
        self.state, h = found
        return self.state.y, h, self.ctx.circuit.schedule.h_len

    def _round1_wave(self):
        """Tops the pool up, then runs one attempt of every pending
        iteration in one engine call.  An iteration joins only below the
        session length, unless it is the one being played, and leaves once
        its y is valid or its attempts are spent."""
        from . import circuits  # the one prover that runs a circuit
        ctx, pool = self.ctx, self._pool
        stop = math.inf if self.trials is None else max(self.trials, self._iteration + 1)
        while len(pool) < ROUND1_POOL and self._joined < stop:
            pool[self._joined] = [derive_rng(derive_seed(self._seed, "iter", self._joined),
                                             "round1"), 0]
            self._joined += 1
        pending = list(pool)
        claws, draws = [], []
        for i in pending:
            rng = pool[i][0]
            claws.append(sample_claw(ctx.keys, rng))
            draws.append(circuits.draw_run(ctx.circuit.schedule, self.noise.error_prob, rng))
        runs = circuits.run_two_branch_block(ctx.circuit, [c[0] for c in claws],
                                             [c[1] for c in claws], draws)
        for i, run, (h, _) in zip(pending, runs, draws):
            entry = pool[i]
            state = measure_y(run, ctx.reg_width, entry[0])
            entry[1] += 1
            if is_valid_y(state.y, ctx.lift_k):
                self._done[i] = (entry[1], (state, h))
            elif entry[1] == self.max_attempts:
                self._done[i] = (entry[1], None)
            else:
                continue
            del pool[i]
