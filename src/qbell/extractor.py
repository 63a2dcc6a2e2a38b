"""Constructive classical soundness: turn any good rewindable prover into a
factoring algorithm.

Fixing one round-1 commitment y, the prover is replayed through rounds 2-3
for chosen vectors r, asking for the measurement outcome in both bases
(rewinding in between).  The pair is read back through the accept rule
(each protocol.QubitState's value is the pair it predicts): equal answers
mean the qubit is |r.x1>, so that bit is the guess; unequal ones mean
r.x1 = 1 xor r.x0 for the known x0.  Goldreich-Levin list decoding of this
noisy oracle for r.x1 produces a candidate list for x1; any candidate that
maps to y completes a claw and factors the modulus.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tcf
from .protocol import ProtocolContext, parity


class BudgetExceeded(RuntimeError):
    """Decoding would need more oracle queries than allowed."""


class ExtractionFailed(RuntimeError):
    """No candidate completed a claw."""

    def __init__(self, message, queries_used=0):
        super().__init__(message)
        self.queries_used = queries_used


# list decoding stops at this many distinct candidates, and refuses a probe
# count whose queries would exceed MAX_QUERIES
MAX_CANDIDATES = 4096
MAX_QUERIES = 2_000_000


@dataclass(frozen=True)
class GlParams:
    """t probes give 2^t sign assignments and 2^t - 1 majority samples per bit."""

    t: int

    def __post_init__(self):
        if self.t < 1:
            raise tcf.DomainError("need at least one probe")


class RewindableOracle:
    """Parity oracle r -> guess of r.x1 built from a rewindable prover.

    One oracle instance serves one fixed commitment y; x0 must already be
    known (from a preimage challenge before the rewind).  Answers to
    repeated r queries are cached, matching the deterministic-rewind model.
    """

    def __init__(self, prover, x0: int):
        self.prover = prover
        self.x0 = x0
        self.queries_used = 0
        self._cache = {}

    def query(self, r: int) -> int:
        if r in self._cache:
            return self._cache[r]
        self.queries_used += 1
        self.prover.reset()
        self.prover.round2(r)
        bit_plus = self.prover.round3(1)
        self.prover.reset()
        self.prover.round2(r)
        bit_minus = self.prover.round3(-1)
        # unequal answers predict a Hadamard state: r.x0 != r.x1
        guess = bit_plus if bit_plus == bit_minus else 1 ^ parity(r & self.x0)
        self._cache[r] = guess
        return guess


def gl_list_decode(oracle, n: int, params: GlParams, rng) -> list:
    """Goldreich-Levin list decoding with pairwise-independent probe sums.

    Draws t probes; for every subset-sum r_T and every bit i queries the
    oracle at r_T xor e_i, then reconstructs a candidate for each of the
    2^t assignments sigma of the probes' true parities, taking per-bit
    majorities.  Bit i's vote under sigma is the sum over masks T of
    (2 answer - 1) (-1)^(sigma . T), so one in-place Walsh-Hadamard
    transform over the masks gives every sigma's votes: O(n t 2^t).
    """
    t = params.t
    n_subsets = (1 << t) - 1
    if n_subsets * n > MAX_QUERIES:
        raise BudgetExceeded(f"{n_subsets * n} queries exceed {MAX_QUERIES}")
    probes = [rng.getrandbits(n) for _ in range(t)]
    subset_r = [0]
    for mask in range(1, 1 << t):
        low = mask & -mask
        subset_r.append(probes[low.bit_length() - 1] ^ subset_r[mask ^ low])
    votes = [[0] * n]
    for r_t in subset_r[1:]:
        votes.append([2 * oracle.query(r_t ^ (1 << i)) - 1 for i in range(n)])
    half = 1
    while half < len(votes):
        for lo in range(0, len(votes), 2 * half):
            for j in range(lo, lo + half):
                a, b = votes[j], votes[j + half]
                votes[j] = [u + v for u, v in zip(a, b)]
                votes[j + half] = [u - v for u, v in zip(a, b)]
        half *= 2
    candidates = []
    seen = set()
    for row in votes:
        cand = sum(1 << i for i, v in enumerate(row) if v > 0)
        if cand not in seen:
            seen.add(cand)
            candidates.append(cand)
        if len(candidates) >= MAX_CANDIDATES:
            break
    return candidates


@dataclass
class ExtractionReport:
    """The claw of domain elements that factored the modulus."""

    claw: tcf.Claw
    factors: tuple
    queries_used: int

    def to_json_dict(self):
        return {"x0": str(self.claw.x0), "x1": str(self.claw.x1),
                "factors": [str(f) for f in self.factors],
                "queries_used": self.queries_used}


def extract_and_factor(prover, ctx: ProtocolContext, params: GlParams,
                       rng) -> ExtractionReport:
    """Run the full reduction against a rewindable prover, reading its
    answers through ctx as the verifier does: any prover `run` can score.

    Ask the preimage challenge first (storing x0), rewind, list-decode the
    round-2/3 oracle for x1 over ctx.reg_width, keep candidates that also
    map to y, and factor with the claw of their domain elements.
    """
    y = prover.round1()[0]
    x0 = prover.answer_preimage()
    if not ctx.check_preimage_wire(x0, y):
        raise ExtractionFailed("prover's preimage answer does not match y")
    prover.reset()
    oracle = RewindableOracle(prover, x0)
    candidates = gl_list_decode(oracle, ctx.reg_width, params, rng)
    for cand in candidates:
        if cand != x0 and ctx.check_preimage_wire(cand, y):
            claw = tcf.Claw(x0=ctx.decode_domain(x0), x1=ctx.decode_domain(cand),
                            y=ctx.base_image(y))
            try:
                factors = tcf.factor_from_claw(ctx.keys.N, claw)
            except tcf.NotAClaw:
                continue
            return ExtractionReport(claw, factors, oracle.queries_used)
    raise ExtractionFailed("no candidate completed a claw",
                           queries_used=oracle.queries_used)
