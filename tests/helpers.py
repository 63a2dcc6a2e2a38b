"""Shared test utilities: independent simulation oracles, reference
checkers and circuit fragments, key helpers, and the models and explicit
circuits that only the tests run: the phase-estimation circuits, the
phase-noise prover and its angle model, the Lemma 1 bound, threshold
detection and the DDH claw helpers."""

import contextlib
import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, count, product
from operator import itemgetter, sub

import numpy as np

from qbell import circuits as cc
from qbell import protocol, provers, tcf, wire

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
        keys = tcf.rabin_gen(n, s)
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
    """One two-branch run, one bit per qubit and branch: its Hadamard
    outcomes first, as one getrandbits(h_len) whose bit i goes to the i-th
    discarded qubit, then its errors drawn inside the gate loop, the first
    before the loop and each next one right after the previous one
    strikes.  The reference for the draws cc.draw_run makes without
    evaluating gates."""
    x_reg = {q: i for i, q in enumerate(circuit.registers["x"])}
    bits = ([0] * circuit.n_qubits, [0] * circuit.n_qubits)
    loaded = set()
    h = rng.getrandbits(sum(len(gate[1]) for gate in circuit.gates if gate[0] == cc.DISCARD))
    errors = cc._sampled_errors(error_prob, rng, 1) if error_prob > 0 else iter(())
    err = next(errors, None)
    u = -1
    phase = k = 0  # k: the next discarded qubit
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
            for q in gate[1]:
                phase ^= (h >> k) & 1 & (bits[0][q] ^ bits[1][q])
                k += 1
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
                err = next(errors, None)
    regs = [sum(branch[q] << i for q, i in x_reg.items()) for branch in bits]
    return cc.TwoBranchRun(y0=ys[0], y1=ys[1], reg0=regs[0], reg1=regs[1], phase=phase)


def classical_ys(circuit, xs):
    """The y value of each basis input in xs, from one cc._run_lanes call
    with one lane per input."""
    xs = list(xs)
    return cc._transpose(cc._run_lanes(circuit, xs).y_rows, len(xs))


def reference_run_lanes(circuit, inputs, runs=0, errors=(), draw_h=None):
    """cc._run_lanes as it walked Circuit.gates before the engine ran the
    lowered program: every ALLOC zeroes its row (the x register's first
    ones load the inputs), a discarded row keeps its value, and each
    unitary gate bumps an error counter.  The oracle for the engine; same
    arguments, and a cc._Lanes, except that its garbage holds each
    discarded row whole, every lane's value, where the engine keeps only
    the xor of each run's two branches."""
    x_reg = circuit.registers["x"]
    if any(x < 0 or x.bit_length() > len(x_reg) for x in inputs):
        raise cc.MalformedCircuit("input does not fit the x register")
    full = (1 << len(inputs)) - 1
    pending = dict(zip(x_reg, cc._transpose(inputs, len(x_reg))))
    rows = [0] * circuit.n_qubits
    garbage = []
    run_mask = (1 << runs) - 1
    phase = clean = 0
    errors = iter(errors)
    no_error = (-1, 0, 0, "")
    err_u, err_run, err_pick, pauli = next(errors, no_error)
    u = -1  # index among X/CNOT/Toffoli gates
    y_rows = None
    for gate in circuit.gates:
        tag = gate[0]
        if tag == cc.TOFFOLI:
            _, a, b, t = gate
            rows[t] ^= rows[a] & rows[b]
        elif tag == cc.CNOT:
            _, c, t = gate
            rows[t] ^= rows[c]
        elif tag == cc.ALLOC:
            rows[gate[1]] = pending.pop(gate[1], 0)
            continue
        elif tag == cc.DISCARD:
            if draw_h is None:
                garbage.extend([rows[q] for q in gate[1]])
                continue
            hs = draw_h(runs * len(gate[1]))
            for q in gate[1]:
                h = hs & run_mask
                hs >>= runs
                row = rows[q]
                phase ^= h & (row ^ (row >> runs))
                clean ^= h & ((row >> 2 * runs) ^ (row >> 3 * runs))
            continue
        elif tag == cc.X:
            rows[gate[1]] ^= full
        elif tag == cc.MEASURE_Y:
            y_rows = [rows[q] for q in gate[1]]
            continue
        else:  # CPHASE is diagonal: no effect on basis states
            continue
        u += 1
        while u == err_u:
            q = gate[1 + err_pick % (len(gate) - 1)]
            lo, hi = err_run, err_run + runs
            row = rows[q]
            if pauli != "X":  # Z or Y: sign flip where the two branches differ
                phase ^= (((row >> lo) ^ (row >> hi)) & 1) << lo
            if pauli != "Z":  # X or Y: bit flip in both branches
                rows[q] = row ^ (1 << lo) ^ (1 << hi)
            err_u, err_run, err_pick, pauli = next(errors, no_error)
    if y_rows is None:
        raise cc.MalformedCircuit("circuit has no MEASURE_Y")
    return cc._Lanes(rows=rows, y_rows=y_rows, garbage=garbage, phase=phase,
                     clean_phase=clean)


def discarded_at_end(circuit):
    """Qubits whose last event is a DISCARD: the engine zeroes their rows
    where reference_run_lanes keeps the value they were discarded with."""
    dead = set()
    for gate in circuit.gates:
        if gate[0] == cc.ALLOC:
            dead.discard(gate[1])
        elif gate[0] == cc.DISCARD:
            dead.update(gate[1])
    return dead


def planted_run(circuit, x0, x1, plan=None, h=0):
    """One two-branch run with its errors pinned instead of drawn: plan
    maps the index of a unitary gate (counting only X/CNOT/Toffoli) to a
    (qubit, pauli) pair struck right after that gate; h holds the Hadamard
    outcomes, bit i for the i-th discarded qubit.  Runs through
    cc.run_two_branch_block, the engine call the noisy prover makes."""
    unitary = [gate[1:] for gate in circuit.gates if gate[0] in (cc.X, cc.CNOT, cc.TOFFOLI)]
    errors = [(u, 0, unitary[u].index(q), pauli) for u, (q, pauli) in (plan or {}).items()]
    return cc.run_two_branch_block(circuit, [x0], [x1], [(h, errors)])[0]


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


def reference_tally(gates):
    """(gates, Toffolis, depth) of a Circuit.gates list by the original
    dict-keyed greedy layering, the oracle for cc.count_resources."""
    total = toffoli = depth = 0
    layer = {}
    for g in gates:
        if g[0] not in cc.UNITARY_TAGS:
            continue
        qs = tuple(g[1]) + (g[2],) if g[0] == cc.CPHASE else g[1:]
        total += 1
        if g[0] == cc.TOFFOLI:
            toffoli += 1
        lv = 1 + max(layer.get(q, 0) for q in qs)
        for q in qs:
            layer[q] = lv
        depth = max(depth, lv)
    return total, toffoli, depth


def gate_count(circuit):
    """The unitary gates of a built circuit, counted by scanning its gate
    list: the oracle for cc.modsquare_gate_count, and
    count_resources(circuit).total_gates without the depth layering."""
    return sum(map(cc.UNITARY_TAGS.__contains__, map(itemgetter(0), circuit.gates)))


def reference_lowering(circuit):
    """Circuit.schedule computed in several passes: a comprehension filters
    the program, then passes over it find the bookkeeping entries' indices
    and the discarded qubits.  The oracle for Circuit.schedule's one loop."""
    load = set(circuit.registers["x"])
    program = [g for g in circuit.gates
               if g[0] is not cc.CPHASE
               and (g[0] is not cc.ALLOC or (g[1] in load and not load.remove(g[1])))]
    # program indices of the ALLOC/DISCARD/MEASURE_Y entries; the k-th has
    # index - k unitary gates before it
    bookkeeping = frozenset((cc.ALLOC, cc.DISCARD, cc.MEASURE_Y))
    at = list(compress(count(), map(bookkeeping.__contains__, map(itemgetter(0), program))))
    return cc.Schedule(
        program=program, unitary=len(program) - len(at), marks=list(map(sub, at, count())),
        h_len=sum(len(program[i][1]) for i in at if program[i][0] is cc.DISCARD))


def reference_phase_resources(variant, n):
    """Resource count of the phase circuits tallied gate by gate from
    their gate stream, the oracle for cc.phase_circuit_resources."""
    if n < 8:
        raise cc.CircuitError("resource estimates are defined for n >= 8")
    m_out = n + cc.PHASE_EXTRA_BITS
    if variant == 1:
        # one reused output qubit, qubit n
        y, qubits = (n,) * m_out, n + 1
    else:
        y = tuple(range(n, n + m_out))
        qubits = n + m_out + cc._phase_ancillas(variant, n)
    total, toffoli, depth = cc._tally(_phase_gate_stream(variant, n, y), qubits)
    return cc.ResourceReport(qubits=qubits, total_gates=total,
                             toffoli_count=toffoli, depth=depth)


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


def reference_rabin_invert(keys, y):
    """tcf.rabin_invert as a loop over all four CRT combinations of the
    roots +/-a mod p and +/-b mod q, keeping those that lie in the domain
    and square to y.  The oracle for the one-root-per-pair rule."""
    N, p, q = keys.N, keys.p, keys.q
    a = tcf.sqrt_mod_blum_prime(y, p)
    b = tcf.sqrt_mod_blum_prime(y, q)
    if a is None or b is None:
        return set()
    cp, cq = keys.crt
    bound = tcf.rabin_domain_size(N)
    roots = set()
    for sa in (a, p - a):
        for sb in (b, q - b):
            x = (sa * cp + sb * cq) % N
            if x < bound and x * x % N == y:
                roots.add(x)
    return roots


def record_inversions(monkeypatch):
    """Wrap tcf.invert for one test; returns the list of the images it is
    called on, in call order."""
    images = []
    inner = tcf.invert

    def recorded(keys, y):
        images.append(y)
        return inner(keys, y)

    monkeypatch.setattr(tcf, "invert", recorded)
    return images


def reference_getrandbits(key, counter, k):
    """A counter stream's k-bit draw by the join rule: the blocks
    blake2b(n, key=key) for n from counter on, ceil(k / 512) of them,
    joined little-endian, their top k bits kept.  Returns (value, next
    counter).  The oracle for seeds.CounterRandom.getrandbits."""
    n = -(-k // 512)
    blocks = b"".join(hashlib.blake2b(i.to_bytes(8, "little"), key=key).digest()
                      for i in range(counter, counter + n))
    return int.from_bytes(blocks, "little") >> (n * 512 - k), counter + n


def reference_encode_frame(session: str, seq: int, msg: dict) -> bytes:
    """wire.encode_frame as it was before it wrote the envelope itself: one
    json.dumps of the whole envelope per frame."""
    doc = {"v": wire.WIRE_VERSION, "session": session, "seq": seq,
           "msg": protocol.json_ints(msg)}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def reference_decode_frame(line: bytes) -> tuple[str, int, dict]:
    """wire.decode_frame as it was before it shared one decoder: json.loads
    of the stripped line.  It takes a version that equals 1 in Python
    (true, 1.0) for version 1, as that codec did."""
    ParseError = wire.ParseError
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        raise ParseError("empty frame")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}") from None
    except ValueError as e:  # an integer literal beyond int's digit limit
        raise ParseError(f"bad JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("frame is not a JSON object")
    if doc.get("v") != wire.WIRE_VERSION:
        raise ParseError(f"unsupported version {doc.get('v')!r}")
    for field in ("session", "seq", "msg"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    msg, seq = doc["msg"], doc["seq"]
    if not isinstance(doc["session"], str):
        raise ParseError(f"session id {doc['session']!r:.40} is not a string")
    if not isinstance(msg, dict):
        raise ParseError("message is not a JSON object")
    if "tag" not in msg:
        raise ParseError("message lacks a tag")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise ParseError(f"sequence number {seq!r} is not an integer")
    return doc["session"], seq, msg


def pipe_session(make_prover, ctx, trials, seed, wrap=lambda side, stream: stream):
    """One wire session over two os.pipe()s, as `verify --transport stdio`
    and `prove` play it: serve_session on ctx in this thread and
    prover_loop(make_prover) in another, each side writing through
    wrap(side, stream), side "verifier" or "prover".  A side that stops
    closes its ends, so its peer reads the end of the stream or fails to
    send.  Returns the exception each side raised, or None, as
    (verifier's, prover's)."""
    v2p_r, v2p_w = os.pipe()
    p2v_r, p2v_w = os.pipe()
    errors = {}

    def play(side, rfd, wfd, role):
        rfile, wfile = open(rfd, "rb"), open(wfd, "wb")
        try:
            role(rfile, wrap(side, wfile))
        except Exception as e:
            errors[side] = e
        finally:
            rfile.close()
            with contextlib.suppress(BrokenPipeError):  # a frame the stopped peer left unread
                wfile.close()

    thread = threading.Thread(target=play, args=(
        "prover", v2p_r, p2v_w,
        lambda rfile, wfile: wire.prover_loop(wire.Channel(rfile, wfile, None), make_prover)))
    thread.start()
    play("verifier", p2v_r, v2p_w, lambda rfile, wfile: wire.serve_session(
        wire.Channel(rfile, wfile, f"s{seed}"), ctx, trials, seed))
    thread.join(timeout=120)
    assert not thread.is_alive(), "the prover is still waiting"
    return errors.get("verifier"), errors.get("prover")


def sample_claw_by_inversion(keys, rng):
    """Uniform x0 over the domain, partner by trapdoor inversion of its
    image; resamples until the image has two preimages.  The reference
    oracle for provers.sample_claw's closed-form partner."""
    while True:
        x0 = keys.sample(rng)
        y = tcf.evaluate(keys, x0)
        preimages = tcf.invert(keys, y)
        if len(preimages) == 2:
            return x0, next(iter(preimages - {x0})), y


def noisy_round1(keys, circuit, noise, rng, ctx=None):
    """One round-1 attempt of the noisy circuit prover, one run at a time:
    the claw, the run's draws (cc.draw_run), one single-run engine call and
    the y measurement, all drawn from rng.  Returns (y, state, h), h the
    run's Hadamard outcomes.  The sequential oracle for the prover's
    blocked round 1."""
    ctx = ctx or protocol.ProtocolContext.for_circuit(keys, circuit)
    x0, x1, _ = provers.sample_claw(keys, rng)
    draw = cc.draw_run(circuit.schedule, noise.error_prob, rng)
    [run] = cc.run_two_branch_block(circuit, [x0], [x1], [draw])
    state = provers.measure_y(run, ctx.reg_width, rng)
    return state.y, state, draw[0]


def reference_gl_list_decode(oracle, n, params, rng):
    """extractor.gl_list_decode as a direct vote loop: for each of the 2^t
    sign assignments sigma, every subset row votes on every bit, 4^t n
    steps in all.  The oracle for the Walsh-Hadamard decoder; same
    arguments, same queries in the same order, same candidate list."""
    from qbell import extractor
    t = params.t
    n_subsets = (1 << t) - 1
    if n_subsets * n > extractor.MAX_QUERIES:
        raise extractor.BudgetExceeded(f"{n_subsets * n} queries exceed "
                                       f"{extractor.MAX_QUERIES}")
    probes = [rng.getrandbits(n) for _ in range(t)]
    subset_r = {}
    for mask in range(1, 1 << t):
        low = mask & -mask
        rest = mask ^ low
        subset_r[mask] = probes[low.bit_length() - 1] ^ subset_r.get(rest, 0)
    answers = {}
    for mask, r_t in subset_r.items():
        answers[mask] = [oracle.query(r_t ^ (1 << i)) for i in range(n)]
    candidates = []
    seen = set()
    for sigma in range(1 << t):
        votes = [0] * n
        for mask in subset_r:
            base = protocol.parity(sigma & mask)
            row = answers[mask]
            for i in range(n):
                votes[i] += 1 if row[i] ^ base else -1
        cand = 0
        for i in range(n):
            if votes[i] > 0:
                cand |= 1 << i
        if cand not in seen:
            seen.add(cand)
            candidates.append(cand)
        if len(candidates) >= extractor.MAX_CANDIDATES:
            break
    return candidates


# ---------------------------------------------------------------------------
# phase-estimation circuits for x^2 mod N, gate by gate: the explicit
# circuits that cc.phase_circuit_resources counts in closed form

def phase_angle(exponent_sum: int, N: int) -> float:
    """2*pi*2^s/N mod 2*pi, reduced exactly in integer arithmetic first."""
    return 2.0 * math.pi * pow(2, exponent_sum, N) / N


def _phase_gate_stream(variant, n, y):
    """Yield the controlled-phase schedule as gate tuples over integer qubits.

    x_i is qubit i and output bit k is qubit y[k]; each CPHASE carries the
    exponent s of its angle 2*pi*2^s/N in place of the angle.

    Variant 1 visits output bits one at a time (n^3/2-type count); the
    cross terms (i < j) appear once with the doubled angle, which is again
    of the canonical 2^s form with s shifted by one.

    Variant 2 tallies, for each control-sum s, the number of coincident
    pairs into a small counter register and phases off the counter bits,
    then uncomputes.  Its ancillas follow the y register: the pair flag t,
    then the counter, then the carries.
    """
    if variant == 1:
        terms = []
        for i in range(n):
            terms.append(((i,), 2 * i))
            terms.extend(((i, j), i + j + 1) for j in range(i + 1, n))
        for k, yk in enumerate(y):
            for controls, e in terms:
                yield (cc.CPHASE, controls, yk, e + k)
    elif variant == 2:
        t = n + len(y)
        counter = range(t + 1, t + 1 + cc._counter_width(n))
        carry = range(counter.stop, counter.stop + len(counter))
        increments = {}
        for s in range(2 * n - 1):
            pairs = [(i, s - i) for i in range(max(0, s - n + 1), (s + 1) // 2)]
            L = len(pairs).bit_length()
            if L not in increments:
                increments[L] = _increment_ops(L, t, counter, carry)
            compute = []
            for (i, j) in pairs:
                compute.append((cc.TOFFOLI, i, j, t))
                compute.extend(increments[L])
                compute.append((cc.TOFFOLI, i, j, t))
            yield from compute
            for b in range(L):
                for k, yk in enumerate(y):
                    yield (cc.CPHASE, (counter[b],), yk, s + 1 + b + k)
            if s % 2 == 0 and s // 2 < n:
                for k, yk in enumerate(y):
                    yield (cc.CPHASE, (s // 2,), yk, s + k)
            yield from reversed(compute)
    else:
        raise cc.CircuitError(f"unknown phase circuit variant {variant}")


def _increment_ops(L, t, counter, carry):
    """counter += t over the low L counter bits, as gate tuples.

    Forward carries from the original counter bits, CNOT updates, then the
    carry chain is uncomputed against the updated bits, leaving the carry
    ancillas clean for reuse.
    """
    ops = []
    prev = t
    for b in range(L - 1):
        ops.append((cc.TOFFOLI, prev, counter[b], carry[b]))
        prev = carry[b]
    for b in range(L - 1, -1, -1):
        src = t if b == 0 else carry[b - 1]
        ops.append((cc.CNOT, src, counter[b]))
    for b in range(L - 2, -1, -1):
        src = t if b == 0 else carry[b - 1]
        ops.append((cc.TOFFOLI, src, counter[b], carry[b]))
        ops.append((cc.CNOT, src, carry[b]))
    return ops


def phase_schedule(variant, n, N) -> cc.Circuit:
    """Explicit phase circuit over a full y register, for small-n verification.

    The y register is assumed prepared in the uniform superposition and read
    out through an inverse Fourier transform; both stand outside the gate
    list (metadata "readout").  Feasible for n up to ~16.
    """
    if not (1 << (n - 1)) <= N < (1 << n):
        raise cc.CircuitError(f"N={N} is not an {n}-bit modulus")
    m_out = n + cc.PHASE_EXTRA_BITS
    y_reg = tuple(range(n, n + m_out))
    total = n + m_out + cc._phase_ancillas(variant, n)
    gates = [(cc.ALLOC, q) for q in range(total)]
    for g in _phase_gate_stream(variant, n, y_reg):
        if g[0] == cc.CPHASE:
            g = (cc.CPHASE, g[1], g[2], phase_angle(g[3], N))
        gates.append(g)
    gates.append((cc.MEASURE_Y, y_reg))
    return cc.Circuit(
        n_qubits=total,
        gates=gates,
        registers={"x": tuple(range(n)), "y": y_reg},
        metadata={"builder": f"phase{variant}", "n": n, "N": N, "m_out": m_out,
                  "readout": "uniform y register in, inverse QFT out"},
    )


# ---------------------------------------------------------------------------
# the measurement-angle model and the phase-noise prover behind it (C8)

COS2_PI_8 = math.cos(math.pi / 8) ** 2  # honest single-round success rate


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


class PhaseNoisyProver(provers.IdealProver):
    """Correct branch strings, correct phase only with probability 1/2 + delta;
    measures round 3 at +/- theta (the sign follows the requested basis),
    with the one draw of the ideal prover's round-3 stream."""

    def __init__(self, ctx: protocol.ProtocolContext, seed: int, delta: float,
                 theta: float = math.pi / 4):
        super().__init__(ctx, seed)
        self.delta = delta
        self.theta = theta

    def _round1_impl(self):
        rng = self._rng("round1")
        y, self.state = provers.ideal_round1(self.ctx, rng)
        if rng.random() >= 0.5 + self.delta:
            self.state.phase = 1
        return y, 0, 0

    def _round3_impl(self, r, d, basis_sign):
        p0 = protocol.born_probability(self.state.qubit(r, d), basis_sign * self.theta, 0)
        return 0 if self._rng("m", r, basis_sign).random() < p0 else 1


# ---------------------------------------------------------------------------
# soundness and post-selection models (C4, C7)

def lemma1_bound(epsilon: float, mu: float) -> float:
    """Lower bound on the fraction of commitments whose conditional noise
    rate is below 1/2 - mu, given overall oracle noise epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise tcf.DomainError("epsilon must lie in [0, 1]")
    if not 0.0 < mu < 0.5:
        raise tcf.DomainError("mu must lie in (0, 1/2)")
    return max(0.0, 1.0 - 2.0 * epsilon - 2.0 * mu)


def good_fraction(noise_rates, mu: float) -> float:
    """Fraction of per-commitment noise rates below 1/2 - mu."""
    rates = list(noise_rates)
    return sum(1 for e in rates if e < 0.5 - mu) / len(rates)


class NoCrossing(ValueError):
    """Score rows never change sign."""


def rejection_power(k: int) -> Fraction:
    """Fraction 1 - 1/k^2 of uniformly corrupted images the k^2 test rejects."""
    if k < 1:
        raise tcf.DomainError("k must be >= 1")
    return Fraction(k * k - 1, k * k)


def threshold_of(rows) -> float:
    """Fidelity at which the score crosses zero, by linear interpolation."""
    pts = sorted(((row.F, row.score) for row in rows))
    for (f0, s0), (f1, s1) in zip(pts, pts[1:]):
        if s0 <= 0.0 < s1:
            return f0 + (0.0 - s0) * (f1 - f0) / (s1 - s0)
    raise NoCrossing("score never crosses zero on this grid")


# ---------------------------------------------------------------------------
# DDH claws

class TooLarge(ValueError):
    """Exact enumeration would exceed the budget."""


ENUMERATION_BUDGET = 10 ** 6


def ddh_secret_from_claw(claw: tcf.Claw) -> tuple:
    """Recover s = x0 - x1 from a claw; entries must come out as bits."""
    (b0, v0), (b1, v1) = claw.x0, claw.x1
    if (b0, b1) != (0, 1):
        raise tcf.NotAClaw("claw must pair the b=0 and b=1 branches")
    s = tuple(a - b for a, b in zip(v0, v1))
    if any(si not in (0, 1) for si in s):
        raise tcf.NotAClaw(f"difference {s} is not a bit vector")
    return s


def unpaired_fraction(k: int, m: int, s) -> Fraction:
    """Exact fraction of domain elements with no colliding partner.

    Counted by enumeration over both branches of {0,1} x Z_m^k: a (0, x)
    input is orphaned when x - s leaves the box, a (1, x) input when x + s
    does.  The result is tested against measurement, not assumed equal to
    any closed form.
    """
    if m < 2:
        raise tcf.DomainError(f"m must be >= 2, got {m}")
    if len(s) != k:
        raise tcf.DomainError("secret length must equal k")
    if m ** k > ENUMERATION_BUDGET:
        raise TooLarge(f"m^k = {m ** k} exceeds {ENUMERATION_BUDGET}")
    orphans = 0
    for x in product(range(m), repeat=k):
        if any(si == 1 and xi - 1 < 0 for xi, si in zip(x, s)):
            orphans += 1  # (0, x) has no partner
        if any(si == 1 and xi + 1 >= m for xi, si in zip(x, s)):
            orphans += 1  # (1, x) has no partner
    return Fraction(orphans, 2 * m ** k)
