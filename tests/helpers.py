"""Shared test utilities: independent simulation oracles, reference
checkers and circuit fragments, and key helpers."""

import math
import os

import numpy as np

from qbell import circuits as cc
from qbell import protocol, provers, tcf

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env():
    """Environment for a `python -m qbell.cli` child process: the source
    tree first on PYTHONPATH, so the child imports this checkout's qbell."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def gen_exact_bits(n, seed0=0):
    """Rabin key whose modulus has exactly n bits."""
    for s in range(seed0, seed0 + 80):
        keys = tcf.rabin_gen(tcf.SecurityParams(n, s))
        if keys.N.bit_length() == n:
            return keys
    raise RuntimeError(f"no exact {n}-bit modulus found")


def blum_semiprimes(limit):
    """All p*q <= limit with distinct primes p, q = 3 mod 4."""
    sieve = np.ones(limit // 2 + 1, dtype=bool)
    sieve[0] = False  # index i represents 2i+1
    for i in range(1, int(limit ** 0.5) // 2 + 1):
        if sieve[i]:
            p = 2 * i + 1
            sieve[i + p::p] = False
    primes = [int(2 * i + 1) for i in np.nonzero(sieve)[0] if (2 * i + 1) % 4 == 3]
    out = []
    for i, p in enumerate(primes):
        for q in primes[i + 1:]:
            if p * q > limit:
                break
            out.append((p * q, q, p))
    return sorted(out)


class StateVector:
    """Dense complex state-vector simulator over few qubits.

    Supports the bit gates, controlled phases, and explicit Pauli error
    operators; used as the independent oracle for the two-branch tracker.
    """

    def __init__(self, n_qubits):
        self.n = n_qubits
        self.dim = 1 << n_qubits
        self.idx = np.arange(self.dim)
        self.state = np.zeros(self.dim, complex)

    @classmethod
    def two_branch(cls, n_qubits, a, b, rel_phase=1):
        sv = cls(n_qubits)
        sv.state[a] += 1 / np.sqrt(2)
        sv.state[b] += rel_phase / np.sqrt(2)
        return sv

    def apply_gate(self, gate):
        tag = gate[0]
        if tag == cc.X:
            self.pauli("X", gate[1])
        elif tag == cc.CNOT:
            _, c, t = gate
            perm = self.idx ^ (((self.idx >> c) & 1) << t)
            self.state = self.state[perm]
        elif tag == cc.TOFFOLI:
            _, a, b, t = gate
            perm = self.idx ^ ((((self.idx >> a) & (self.idx >> b)) & 1) << t)
            self.state = self.state[perm]
        elif tag == cc.CPHASE:
            _, controls, t, angle = gate
            mask = (self.idx >> t) & 1
            for c in controls:
                mask = mask & ((self.idx >> c) & 1)
            self.state = np.where(mask == 1, self.state * np.exp(1j * angle), self.state)
        else:
            raise ValueError(f"state vector cannot apply {tag}")

    def pauli(self, which, q):
        bit = (self.idx >> q) & 1
        if which in ("X", "Y"):
            flipped = self.state[self.idx ^ (1 << q)]
        if which == "X":
            self.state = flipped
        elif which == "Z":
            self.state = np.where(bit == 1, -self.state, self.state)
        elif which == "Y":
            # Y = iXZ: phase from the pre-flip bit value
            sign = np.where(((self.idx ^ (1 << q)) >> q) & 1 == 1, -1.0, 1.0)
            self.state = 1j * sign * flipped

    def equal_up_to_global_phase(self, other_state, atol=1e-9):
        inner = np.vdot(self.state, other_state)
        return np.isclose(abs(inner), 1.0, atol=atol) and \
            np.isclose(np.linalg.norm(other_state), 1.0, atol=atol)


def hybrid_phase_run(circuit, x):
    """Amplitudes over the y register for a basis input x, walking the gate
    list with classical non-y qubits (phase circuits never write to y)."""
    y_reg = list(circuit.registers["y"])
    y_pos = {q: i for i, q in enumerate(y_reg)}
    M = 1 << len(y_reg)
    amps = np.full(M, 1.0 / np.sqrt(M), complex)
    bits = {}
    for i, q in enumerate(circuit.registers["x"]):
        bits[q] = (x >> i) & 1
    zidx = np.arange(M)
    for gate in circuit.gates:
        tag = gate[0]
        if tag == cc.ALLOC:
            if gate[1] not in y_pos and gate[1] not in bits:
                bits[gate[1]] = 0
        elif tag == cc.X:
            assert gate[1] not in y_pos
            bits[gate[1]] ^= 1
        elif tag == cc.CNOT:
            _, c, t = gate
            assert t not in y_pos and c not in y_pos
            bits[t] ^= bits[c]
        elif tag == cc.TOFFOLI:
            _, a, b, t = gate
            assert t not in y_pos
            bits[t] ^= bits[a] & bits[b]
        elif tag == cc.CPHASE:
            _, controls, t, angle = gate
            assert t in y_pos
            if all(bits[c] for c in controls):
                k = y_pos[t]
                amps = np.where((zidx >> k) & 1 == 1, amps * np.exp(1j * angle), amps)
    return amps


def sequential_two_branch(circuit, x0, x1, error_prob, rng):
    """One two-branch run, one bit per qubit and branch, drawing from rng
    inside the gate loop: the first error before the loop, each discard's
    getrandbits(width) where it stands, each next error right after the
    previous one strikes.  The reference for the draw order that
    cc.replay_draws reproduces without evaluating gates."""
    x_reg = {q: i for i, q in enumerate(circuit.registers["x"])}
    bits = ([0] * circuit.n_qubits, [0] * circuit.n_qubits)
    loaded = set()
    errors = cc._sampled_errors(error_prob, rng, 1) if error_prob > 0 else iter(())
    err = next(errors, None)
    u = -1
    phase = h = h_len = n_errors = 0
    ys = None
    for gate in circuit.gates:
        tag = gate[0]
        if tag == cc.ALLOC:
            q = gate[1]
            first = q in x_reg and q not in loaded
            loaded.add(q)
            for branch, x in zip(bits, (x0, x1)):
                branch[q] = (x >> x_reg[q]) & 1 if first else 0
        elif tag == cc.DISCARD:
            hs = rng.getrandbits(len(gate[1]))
            for i, q in enumerate(gate[1]):
                hb = (hs >> i) & 1
                phase ^= hb & (bits[0][q] ^ bits[1][q])
                h |= hb << h_len
                h_len += 1
        elif tag == cc.MEASURE_Y:
            ys = [sum(branch[q] << i for i, q in enumerate(gate[1])) for branch in bits]
        elif tag in (cc.X, cc.CNOT, cc.TOFFOLI):
            for branch in bits:
                if tag == cc.X:
                    branch[gate[1]] ^= 1
                elif tag == cc.CNOT:
                    branch[gate[2]] ^= branch[gate[1]]
                else:
                    branch[gate[3]] ^= branch[gate[1]] & branch[gate[2]]
            u += 1
            while err is not None and err[0] == u:
                _, _, pick, pauli = err
                q = gate[1 + pick % (len(gate) - 1)]
                if pauli != "X":
                    phase ^= bits[0][q] ^ bits[1][q]
                if pauli != "Z":
                    bits[0][q] ^= 1
                    bits[1][q] ^= 1
                n_errors += 1
                err = next(errors, None)
    regs = [sum(branch[q] << i for q, i in x_reg.items()) for branch in bits]
    return cc.TwoBranchRun(y0=ys[0], y1=ys[1], reg0=regs[0], reg1=regs[1],
                           rel_phase=-1 if phase else 1, h=h, h_len=h_len,
                           n_errors=n_errors)


def planted_run(circuit, x0, x1, plan=None, h=0):
    """One two-branch run with its errors pinned instead of drawn: plan
    maps the index of a unitary gate (counting only X/CNOT/Toffoli) to a
    (qubit, pauli) pair struck right after that gate; every discarded
    qubit's Hadamard outcome is h.  Runs through cc.run_two_branch_block,
    the engine call the noisy prover makes."""
    unitary = [gate[1:] for gate in circuit.gates if gate[0] in (cc.X, cc.CNOT, cc.TOFFOLI)]
    errors = [(u, 0, unitary[u].index(q), pauli) for u, (q, pauli) in (plan or {}).items()]
    draws = (bytes([h]) * circuit.schedule.h_len, errors)
    return cc.run_two_branch_block(circuit, [x0], [x1], [draws])[0]


def validate_circuit(circuit):
    """Check index bounds, control/target distinctness, single MEASURE_Y,
    and that discarded qubits are never touched again before a re-ALLOC;
    raises cc.MalformedCircuit."""
    live = set()
    measured = 0
    for gate in circuit.gates:
        tag = gate[0]
        if tag == cc.ALLOC:
            q = gate[1]
            if not 0 <= q:
                raise cc.MalformedCircuit(f"bad qubit index {q}")
            live.add(q)
            continue
        if tag == cc.DISCARD:
            for q in gate[1]:
                if q not in live:
                    raise cc.MalformedCircuit(f"discard of dead qubit {q}")
                live.discard(q)
            continue
        if tag == cc.MEASURE_Y:
            measured += 1
            qs = gate[1]
        elif tag == cc.X:
            qs = (gate[1],)
        elif tag == cc.CNOT:
            qs = (gate[1], gate[2])
            if gate[1] == gate[2]:
                raise cc.MalformedCircuit("CNOT control equals target")
        elif tag == cc.TOFFOLI:
            qs = (gate[1], gate[2], gate[3])
            if len(set(qs)) != 3:
                raise cc.MalformedCircuit("Toffoli qubits not distinct")
        elif tag == cc.CPHASE:
            qs = tuple(gate[1]) + (gate[2],)
            if len(set(qs)) != len(qs):
                raise cc.MalformedCircuit("CPHASE controls overlap target")
        else:
            raise cc.MalformedCircuit(f"unknown gate tag {tag!r}")
        for q in qs:
            if q not in live:
                raise cc.MalformedCircuit(f"use of dead or unallocated qubit {q} in {gate}")
    if measured != 1:
        raise cc.MalformedCircuit(f"expected exactly one MEASURE_Y, found {measured}")


def montgomery_stage(n, N, method="schoolbook", cutoff=32):
    """Standalone reduction fragment: input register T (2n bits) -> T*R' mod N."""
    if N.bit_length() != n:
        raise cc.CircuitError("N must be an n-bit modulus")
    if math.gcd(1 << n, N) != 1:
        raise cc.CircuitError("modulus must be odd")
    gates = []
    pool = cc.QubitPool(gates)
    T = pool.new_register(2 * n + 1)
    y_reg = cc.montgomery_reduce(gates, pool, T, N, method, cutoff)
    gates.append((cc.MEASURE_Y, y_reg))
    R = 1 << n
    return cc.Circuit(n_qubits=pool.peak, gates=gates,
                      registers={"x": T[:2 * n], "y": y_reg},
                      metadata={"builder": f"montgomery-{method}", "n": n, "N": N,
                                "rprime": pow(R, -1, N), "r_undo": R % N})


def build_mul3_inplace(n):
    """Fragment mapping x -> 3x in place on an (n+2)-wide register."""
    gates = []
    pool = cc.QubitPool(gates)
    x_reg = pool.new_register(n + 2)
    cc.mul3_inplace(gates, pool, x_reg, n)
    gates.append((cc.MEASURE_Y, x_reg))
    return cc.Circuit(n_qubits=pool.peak, gates=gates,
                      registers={"x": x_reg, "y": x_reg},
                      metadata={"builder": "mul3", "n": n})


def noisy_round1(keys, circuit, noise, rng, ctx=None):
    """One round-1 attempt of the noisy circuit prover, one run at a time:
    the claw, one cc.run_two_branch call and the y measurement, all drawn
    from rng.  Returns (y, state, run).  The sequential oracle for the
    prover's blocked round 1."""
    ctx = ctx or protocol.ProtocolContext.for_circuit(keys, circuit)
    x0, x1, _ = provers.sample_claw(keys, rng)
    run = cc.run_two_branch(circuit, x0, x1, noise.error_prob, rng)
    state = provers.measure_y(run.y0, run.y1, run.reg0, run.reg1, run.rel_phase,
                              ctx.reg_width, rng)
    return state.y, state, run
