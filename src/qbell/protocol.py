"""Verifier state machine for the 3-round interactive quantumness test.

Round 1: the prover commits an image y of the trapdoor claw-free function.
The verifier then either asks for a preimage, checked by evaluating f
forward on the answer, or continues.  Round 2: the verifier
sends a random vector r, the prover returns the Hadamard-measurement
string d of its input register.  Round 3: the verifier requests one of the
two intermediate bases (rotated +/- pi/4 from Z around Y) and accepts iff
the reported bit is the more likely outcome for the single-qubit state
determined by (x0, x1, r, d).  Only that prediction needs the trapdoor
preimages (x0, x1), so the verifier inverts y after round 3 of a
measurement round, and at round 1 only when post-selection must discard an
image with no preimage before the challenge.

An iteration is played, then settled.  Playing sends every message and
makes every verifier draw; settling judges the outcome.  With a circuit
that discards qubits, the verdict on a claw needs the discard phase
(-1)^(h . (g(x0) xor g(x1))), g(x) the discarded qubits' values on input
x, which circuits.evaluate_classical recomputes from the claw and the
reported h at the cost of one gate engine call.  A
session therefore leaves those rounds pending and settles them
SETTLE_BLOCK at a time, in one call over all their claws.  No verdict goes
on the wire and no later draw depends on one, so deferring them changes no
message, transcript or report.

Conventions: bit strings are little-endian integers (bit i weights 2^i);
r . x is the parity of r & x.  Scores are kept as exact rationals.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import tcf


class InsufficientData(ValueError):
    """Scoring requires at least one trial of each challenge branch."""


def parity(x: int) -> int:
    return x.bit_count() & 1


# str() and int() convert at most 4,300 decimal digits, the interpreter's
# guard against slow conversions of peer input; longer decimals convert in
# chunks of DECIMAL_CHUNK digits
DECIMAL_CHUNK = 4000
_CHUNK_BASE = 10 ** DECIMAL_CHUNK


def _decimal(value: int) -> str:
    """str(value) for an int of any size."""
    if abs(value) < _CHUNK_BASE:
        return str(value)
    if value < 0:
        return "-" + _decimal(-value)
    chunks = []
    while value >= _CHUNK_BASE:
        value, low = divmod(value, _CHUNK_BASE)
        chunks.append(str(low).zfill(DECIMAL_CHUNK))
    return str(value) + "".join(reversed(chunks))


def json_ints(value):
    """`value` for transcripts and wire frames: every int beyond +/-2^53 (the
    exact range of a double) as a decimal string, at any depth."""
    if isinstance(value, int) and not isinstance(value, bool):
        return _decimal(value) if abs(value) > 2 ** 53 else value
    if isinstance(value, dict):
        return {k: json_ints(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_ints(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# transcripts

class Outcome(str, enum.Enum):
    ACCEPTED_PREIMAGE = "AcceptedPreimage"
    REJECTED_PREIMAGE = "RejectedPreimage"
    ACCEPTED_MEASUREMENT = "AcceptedMeasurement"
    REJECTED_MEASUREMENT = "RejectedMeasurement"
    DISCARDED_INVALID_Y = "DiscardedInvalidY"


@dataclass
class Transcript:
    """One iteration as played: msgs maps each tag, in play order, to its
    payload: image (y, h, h_len), challenge (kind: preimage | continue),
    preimage (x), vector (r, n), equation (d, n), basis (sign: rotated
    sign * pi/4 from Z around Y) and result (bit).  h holds the Hadamard
    outcomes of the qubits a discarding circuit measured away (0, with
    h_len 0, otherwise); the verifier needs them for the discard phase."""

    iteration: int
    msgs: dict = field(default_factory=dict)
    outcome: Outcome | None = None

    def to_json(self) -> str:
        body = [{"tag": tag, "payload": json_ints(payload)}
                for tag, payload in self.msgs.items()]
        return json.dumps({"iter": self.iteration, "msgs": body,
                           "outcome": self.outcome.value if self.outcome else None},
                          sort_keys=True)


class QubitState(enum.Enum):
    """A round-3 qubit; its value is the pair of bits it predicts, the more
    likely outcome at +pi/4 and at -pi/4."""

    ZERO = (0, 0)
    ONE = (1, 1)
    PLUS = (0, 1)
    MINUS = (1, 0)


# ---------------------------------------------------------------------------
# single-qubit algebra

def compute_qubit_state(x0: int, x1: int, r: int, d: int, rel_phase_bit: int = 0) -> QubitState:
    """State of the ancilla after round 2 for branch strings x0, x1.

    If r.x0 = r.x1 the state is |r.x0>; otherwise the equation string d
    fixes the sign: plus iff d.(x0 xor x1) equals the relative-phase bit
    of the branch superposition (0 for the noise-free +1 phase).
    """
    b0 = parity(r & x0)
    b1 = parity(r & x1)
    if b0 == b1:
        return QubitState.ZERO if b0 == 0 else QubitState.ONE
    sign = parity(d & (x0 ^ x1)) ^ rel_phase_bit
    return QubitState.PLUS if sign == 0 else QubitState.MINUS


def expected_bit(state: QubitState, basis_sign: int) -> int:
    """The more likely outcome (probability cos^2(pi/8)) in the
    basis_sign * pi/4 basis, for basis_sign 1 or -1."""
    return state.value[basis_sign < 0]


def born_probability(state: QubitState, angle: float, outcome: int) -> float:
    """P[measuring `state` at basis angle `angle` yields `outcome`].

    Basis vectors: |m0> = cos(a/2)|0> + sin(a/2)|1>,
                   |m1> = -sin(a/2)|0> + cos(a/2)|1>.
    """
    half = angle / 2.0
    if state is QubitState.ZERO:
        p0 = math.cos(half) ** 2
    elif state is QubitState.ONE:
        p0 = math.sin(half) ** 2
    elif state is QubitState.PLUS:
        p0 = (1.0 + math.sin(angle)) / 2.0
    else:
        p0 = (1.0 - math.sin(angle)) / 2.0
    return p0 if outcome == 0 else 1.0 - p0


# ---------------------------------------------------------------------------
# verifier-side checks

def choose_challenge(rng, ratio: float = 0.5) -> str:
    """Preimage with probability `ratio`, continue otherwise."""
    if not 0.0 < ratio <= 1.0:
        raise tcf.DomainError(f"challenge ratio must be in (0, 1], got {ratio}")
    return "preimage" if rng.random() < ratio else "continue"


# ---------------------------------------------------------------------------
# protocol context: how a key plus (optionally) a circuit defines the wire values

@dataclass
class ProtocolContext:
    """Everything the verifier needs to interpret prover messages.

    For circuit-backed provers the measured value carries the Montgomery
    factor and the lift: y_wire = (k x)^2 R' mod k^2 N.  The base image is
    recovered as (y_wire * R / k^2) mod' and the register strings compared
    in rounds 2-3 are k * x_i at the register width.
    """

    keys: object
    reg_width: int
    lift_k: int = 1
    modulus: int | None = None  # images lie in [0, modulus): N, or k^2 N with a circuit
    r_undo: int = 1             # multiplicative undo of the Montgomery factor
    circuit: object | None = None

    @classmethod
    def plain(cls, keys):
        return cls(keys=keys, reg_width=keys.width, modulus=keys.image_modulus)

    @classmethod
    def for_circuit(cls, keys, circuit):
        meta = circuit.metadata
        return cls(keys=keys, reg_width=len(circuit.registers["x"]), lift_k=meta["k"],
                   modulus=meta["modulus"], r_undo=meta["r_undo"], circuit=circuit)

    # --- wire value <-> base value

    def base_image(self, y_wire):
        """Undo Montgomery factor and lift; None if structurally invalid.
        A family without an image modulus (DDH) sends the image itself."""
        if self.modulus is None:
            return y_wire
        if not 0 <= y_wire < self.modulus:
            return None
        k2 = self.lift_k * self.lift_k
        y = y_wire * self.r_undo % self.modulus
        if y % k2:
            return None
        return y // k2

    def encode_domain(self, x) -> int:
        """Domain element -> little-endian register string."""
        return self.keys.encode(x) * self.lift_k

    def decode_domain(self, x_wire: int):
        """Register string -> domain element: the inverse of encode_domain."""
        return self.keys.decode(x_wire // self.lift_k)

    def preimages(self, y_wire) -> tuple:
        """The sorted trapdoor preimages of the base image of a wire value:
        two for a claw, one, or none when it has no base image or no
        preimage."""
        y = self.base_image(y_wire)
        return () if y is None else tuple(sorted(tcf.invert(self.keys, y)))

    def check_preimage_wire(self, x_wire: int, y_wire) -> bool:
        """Verify a round-1 preimage answer as sent on the wire: x_wire
        decodes to a domain element x with f(x) = y."""
        y = self.base_image(y_wire)
        if y is None or x_wire % self.lift_k or not 0 <= x_wire < 1 << self.reg_width:
            return False
        try:
            return tcf.evaluate(self.keys, self.decode_domain(x_wire)) == y
        except tcf.DomainError:
            return False


# ---------------------------------------------------------------------------
# one full iteration

@dataclass
class IterationConfig:
    challenge_ratio: float = 0.5
    postselect: bool = False


def predicted_state(ctx: ProtocolContext, preimages: tuple, r: int, d: int,
                    phase_bit: int) -> QubitState:
    """The qubit the verifier expects after round 2 for an image with one
    preimage, or a claw whose branches carry the discard phase phase_bit."""
    return compute_qubit_state(ctx.encode_domain(preimages[0]),
                               ctx.encode_domain(preimages[-1]), r, d,
                               rel_phase_bit=phase_bit)


# A session settles its pending claw rounds this many at a time, in one
# evaluate_classical call.  Measured on the 64-bit karatsuba circuit at
# m = 0 (2-vCPU Xeon VM, Python 3.11, best of 7): one call costs about
# 1.9 ms on 1 claw, 3.4 ms on 16, 4.0 ms on 32 and 5.1 ms on 64, so a
# round's share falls to about 0.13 ms at 32 claws and 0.08 ms at 64.  A
# block of 64 made a 600-trial noisy session (F = 0.5, m = 1, --postselect)
# 0-8% faster in process, 0.21 -> 0.19-0.21 s, but changes nothing in
# sessions with fewer than 33 pending rounds.  The bound keeps a block's size, and
# the wait for its verdicts, independent of the session's length.
SETTLE_BLOCK = 32


def judge(ctx: ProtocolContext, t: Transcript, preimages: tuple, phase_bit: int) -> None:
    """Set the outcome of t, a played measurement round whose image has the
    given preimages, from its r, d, sign and bit and the branches' discard
    phase."""
    m = t.msgs
    state = predicted_state(ctx, preimages, m["vector"]["r"], m["equation"]["d"], phase_bit)
    ok = m["result"]["bit"] == expected_bit(state, m["basis"]["sign"])
    t.outcome = Outcome.ACCEPTED_MEASUREMENT if ok else Outcome.REJECTED_MEASUREMENT


def settle(ctx: ProtocolContext, pending: list) -> None:
    """Judge every (transcript, claw preimages) in pending, then empty it.
    Each claw's discard phase comes from one evaluate_classical call over
    all of them, against the Hadamard outcomes h its image reported."""
    if not pending:
        return
    from . import circuits  # only a circuit context leaves rounds pending
    phases = circuits.evaluate_classical(ctx.circuit, [x0 for _, (x0, _) in pending],
                                         [x1 for _, (_, x1) in pending],
                                         [t.msgs["image"]["h"] for t, _ in pending])
    for (t, preimages), phase_bit in zip(pending, phases):
        judge(ctx, t, preimages, phase_bit)
    pending.clear()


def run_iteration(ctx: ProtocolContext, prover, rng, config: IterationConfig,
                  iteration: int = 0, pending: list | None = None) -> Transcript:
    """Drive one iteration against a prover implementing the 3-round interface.

    This plays the iteration: every message and every verifier draw.  The
    image is inverted once, only where its preimages are read: at round 1
    under post-selection, whose silent discard precedes the challenge, and
    otherwise after round 3 of a measurement round.  A preimage round is
    judged by evaluating f forward on the prover's answer.  A claw
    measurement round whose discard phase needs the circuit (a circuit
    context and h_len > 0) joins `pending` as (transcript, preimages), its
    outcome left None for settle to judge later; without a pending list it
    is settled at once."""
    t = Transcript(iteration=iteration)
    y_wire, h, h_len = prover.round1()
    t.msgs["image"] = {"y": y_wire, "h": h, "h_len": h_len}

    preimages = None
    if config.postselect:
        preimages = ctx.preimages(y_wire)
        if not preimages:
            # silent discard: the prover is not told, the iteration is dropped
            t.outcome = Outcome.DISCARDED_INVALID_Y
            return t

    challenge = choose_challenge(rng, config.challenge_ratio)
    t.msgs["challenge"] = {"kind": challenge}
    if challenge == "preimage":
        x_wire = prover.answer_preimage()
        t.msgs["preimage"] = {"x": x_wire}
        ok = ctx.check_preimage_wire(x_wire, y_wire)
        t.outcome = Outcome.ACCEPTED_PREIMAGE if ok else Outcome.REJECTED_PREIMAGE
        return t

    r = rng.getrandbits(ctx.reg_width)
    t.msgs["vector"] = {"r": r, "n": ctx.reg_width}
    t.msgs["equation"] = {"d": prover.round2(r), "n": ctx.reg_width}
    sign = 1 if rng.random() < 0.5 else -1
    t.msgs["basis"] = {"sign": sign}
    t.msgs["result"] = {"bit": prover.round3(sign)}

    if preimages is None:
        preimages = ctx.preimages(y_wire)
    if not preimages:
        # post-selection off: an unindexable y can never be accepted
        t.outcome = Outcome.REJECTED_MEASUREMENT
    elif len(preimages) == 1 or ctx.circuit is None or not h_len:
        judge(ctx, t, preimages, 0)
    elif pending is None:
        settle(ctx, [(t, preimages)])
    else:
        pending.append((t, preimages))
    return t


def run_session(ctx: ProtocolContext, prover, rng, config: IterationConfig,
                trials: int) -> list:
    """`trials` iterations, each played by run_iteration; their pending claw
    rounds are settled SETTLE_BLOCK at a time and once more at the end.
    Returns the transcripts, every one settled."""
    pending = []
    transcripts = []
    for i in range(trials):
        transcripts.append(run_iteration(ctx, prover, rng, config, i, pending))
        if len(pending) == SETTLE_BLOCK:
            settle(ctx, pending)
    settle(ctx, pending)
    return transcripts


# ---------------------------------------------------------------------------
# scoring

@dataclass(frozen=True)
class ScoreReport:
    trials_x: int
    accepts_x: int
    trials_m: int
    accepts_m: int
    p_x: Fraction
    p_m: Fraction
    score: Fraction
    ci_halfwidth: float

    # confidence level of ci_halfwidth
    confidence = 0.95

    @classmethod
    def from_counts(cls, trials_x, accepts_x, trials_m, accepts_m) -> "ScoreReport":
        if trials_x == 0 or trials_m == 0:
            raise InsufficientData("need at least one trial of each branch")
        p_x = Fraction(accepts_x, trials_x)
        p_m = Fraction(accepts_m, trials_m)
        score = p_x + 4 * p_m - 4
        # two-sided Hoeffding on each rate, alpha split between them,
        # combined through the linear form's coefficients 1 and 4
        alpha = (1.0 - cls.confidence) / 2.0
        hw_x = math.sqrt(math.log(2.0 / alpha) / (2.0 * trials_x))
        hw_m = math.sqrt(math.log(2.0 / alpha) / (2.0 * trials_m))
        return cls(trials_x, accepts_x, trials_m, accepts_m,
                   p_x, p_m, score, hw_x + 4.0 * hw_m)

    def to_json(self) -> str:
        return json.dumps({
            "trials_x": self.trials_x, "accepts_x": self.accepts_x,
            "trials_m": self.trials_m, "accepts_m": self.accepts_m,
            "p_x": str(self.p_x), "p_m": str(self.p_m),
            "score": str(self.score), "score_float": float(self.score),
            "ci_halfwidth": self.ci_halfwidth,
        }, sort_keys=True)


def score(transcripts) -> ScoreReport:
    """Aggregate accept rates; discarded iterations count toward nothing."""
    tx = ax = tm = am = 0
    for t in transcripts:
        if t.outcome is Outcome.ACCEPTED_PREIMAGE:
            tx += 1
            ax += 1
        elif t.outcome is Outcome.REJECTED_PREIMAGE:
            tx += 1
        elif t.outcome is Outcome.ACCEPTED_MEASUREMENT:
            tm += 1
            am += 1
        elif t.outcome is Outcome.REJECTED_MEASUREMENT:
            tm += 1
    return ScoreReport.from_counts(tx, ax, tm, am)


def transcripts_to_jsonl(transcripts) -> str:
    return "\n".join(t.to_json() for t in transcripts) + "\n"
