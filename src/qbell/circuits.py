"""Gate-level circuits for modular squaring, and their evaluators.

The gate set is X / CNOT / Toffoli / controlled-phase plus three
bookkeeping events: ALLOC (a qubit index enters use, value 0), DISCARD
(garbage qubits are measured in the Hadamard basis and their indices
returned to the pool) and MEASURE_Y (the standard-basis readout of the
output register, exactly once per circuit).

Discarding garbage imprints a relative phase (-1)^(h . g(x)) between
superposed branches, where h is the random string of Hadamard-basis
outcomes and g(x) the garbage values on input x.  Builders here discard
eagerly -- every carry chain and partial product is measured away as soon
as it is classically dead -- so the multipliers run in essentially the
classical number of qubits.

Multiplication is schoolbook or Karatsuba; the modulo is Montgomery
reduction, which leaves a known factor R' = R^-1 mod N on the output
(recorded in the metadata, removed classically by the verifier).  A final
comparator + conditional subtraction canonicalizes the output into [0, N)
so that both branches of a claw measure the identical y.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property


class CircuitError(ValueError):
    """Bad builder parameters."""


class MalformedCircuit(ValueError):
    """Circuit violates a structural invariant."""


# gate tags
X = "X"
CNOT = "CNOT"
TOFFOLI = "TOFFOLI"
CPHASE = "CPHASE"
ALLOC = "ALLOC"
DISCARD = "DISCARD"
MEASURE_Y = "MEASURE_Y"

UNITARY_TAGS = (X, CNOT, TOFFOLI, CPHASE)


@dataclass
class Circuit:
    n_qubits: int
    gates: list
    registers: dict
    metadata: dict = field(default_factory=dict)

    @cached_property
    def schedule(self) -> "Schedule":
        """The static draw order of a two-branch run, computed on first use;
        the gate list must not change after that."""
        unitary = 0
        befores, widths, spans = [], [], []
        for gate in self.gates:
            tag = gate[0]
            if tag in (X, CNOT, TOFFOLI):
                unitary += 1
            elif tag == DISCARD:
                e, width = len(widths), len(gate[1])
                befores.append(unitary)
                widths.append(width)
                if width == 1 and spans and spans[-1][2] == 1 and spans[-1][1] == e:
                    spans[-1] = (spans[-1][0], e + 1, 1)
                else:
                    spans.append((e, e + 1, width))
        return Schedule(unitary=unitary, befores=befores, widths=widths, spans=spans,
                        h_len=sum(widths))


@dataclass(frozen=True)
class Schedule:
    """Where a two-branch run draws randomness.  Pauli errors strike the
    `unitary` X/CNOT/Toffoli gates.  DISCARD event e draws
    getrandbits(widths[e]) after befores[e] unitary gates.  `spans` covers
    the events in order with (first, end, width) triples: a single event
    wider than one qubit, or a run of one-qubit events."""

    unitary: int
    befores: list
    widths: list
    spans: list
    h_len: int


@dataclass(frozen=True)
class ResourceReport:
    qubits: int
    total_gates: int
    toffoli_count: int
    depth: int

    @property
    def gates_clifford_t(self) -> int:
        """Total after expanding each Toffoli into its standard 15-gate
        Clifford+T realization (6 CNOT, 7 T/Tdg, 2 H); other gates unchanged."""
        return self.total_gates + 14 * self.toffoli_count


class QubitPool:
    """Allocates qubit indices into a gate list, reusing discarded ones."""

    def __init__(self, gates: list):
        self.gates = gates
        self._free = []
        self._next = 0
        self._live = 0
        self.peak = 0

    def new(self) -> int:
        q = self._free.pop() if self._free else self._bump()
        self._live += 1
        self.peak = max(self.peak, self._live)
        self.gates.append((ALLOC, q))
        return q

    def _bump(self) -> int:
        q = self._next
        self._next += 1
        return q

    def new_register(self, width: int) -> tuple:
        return tuple(self.new() for _ in range(width))

    def discard(self, qs) -> None:
        if isinstance(qs, int):
            qs = (qs,)
        qs = tuple(qs)
        self.gates.append((DISCARD, qs))
        self._free.extend(qs)
        self._live -= len(qs)


# ---------------------------------------------------------------------------
# arithmetic building blocks
#
# half_adder:  (a, b, cout) -> (a, a+b, cout + carry)
# full_adder:  (a, b, cin, cout) -> (a, a+b+cin, cin, cout + carry)
# callers discard the stale carry (and the a input where it is a scratch
# partial product) immediately after each step.

def _half_adder(g, a, b, cout):
    g.append((TOFFOLI, a, b, cout))
    g.append((CNOT, a, b))


def _full_adder(g, a, b, cin, cout):
    g.append((TOFFOLI, a, b, cout))
    g.append((CNOT, a, b))
    g.append((TOFFOLI, b, cin, cout))
    g.append((CNOT, cin, b))


def add_registers(g, pool, A, B):
    """B += A (mod 2^len(B)) for quantum registers, len(A) <= len(B)."""
    if len(A) > len(B):
        raise CircuitError("register A too long to add into B")
    cin = None
    for i, a in enumerate(A):
        cout = pool.new()
        if i == 0:
            _half_adder(g, a, B[i], cout)
        else:
            _full_adder(g, a, B[i], cin, cout)
            pool.discard(cin)
        cin = cout
    for b in B[len(A):]:
        cout = pool.new()
        _half_adder(g, cin, b, cout)
        pool.discard(cin)
        cin = cout
    pool.discard(cin)


def add_constant(g, pool, value, A):
    """A += value (mod 2^len(A)) for a classical nonnegative constant."""
    if value < 0 or value.bit_length() > len(A):
        raise CircuitError("constant does not fit the register")
    cin = pool.new()
    for a in A:
        cout = pool.new()
        if value & 1:
            g.append((X, cin))
            g.append((X, a))
            _half_adder(g, cin, a, cout)
            g.append((X, a))
            g.append((X, cout))
        else:
            _half_adder(g, cin, a, cout)
        pool.discard(cin)
        cin = cout
        value >>= 1
    pool.discard(cin)


def copy_register(g, A, B):
    """B ^= A, elementwise CNOTs."""
    if len(A) > len(B):
        raise CircuitError("register B shorter than A")
    for a, b in zip(A, B):
        g.append((CNOT, a, b))


def schoolbook_mult(g, pool, A, B, C):
    """C += A*B by shift-and-add over Toffoli partial products."""
    if len(C) < len(A) + len(B):
        raise CircuitError("product register too short")
    for i, a in enumerate(A):
        cin = pool.new()
        for j, b in enumerate(B):
            d = pool.new()
            g.append((TOFFOLI, a, b, d))
            cout = pool.new()
            _full_adder(g, d, C[i + j], cin, cout)
            pool.discard(cin)
            cin = cout
            pool.discard(d)
        for c in C[i + len(B):]:
            cout = pool.new()
            _half_adder(g, cin, c, cout)
            pool.discard(cin)
            cin = cout
        pool.discard(cin)


def schoolbook_square(g, pool, A, C):
    """C += A^2, exploiting symmetry: cross terms carry double weight."""
    if len(C) < 2 * len(A):
        raise CircuitError("square register too short")
    n = len(A)
    for i in range(n):
        cin = pool.new()
        b_idx = 2 * i
        for j in range(i, n):
            if i == j:
                a = A[i]
            else:
                a = pool.new()
                g.append((TOFFOLI, A[i], A[j], a))
            b_idx = i + j + (i != j)
            cout = pool.new()
            _full_adder(g, a, C[b_idx], cin, cout)
            pool.discard(cin)
            cin = cout
            if i == j:
                b_idx += 1
                cout = pool.new()
                _half_adder(g, cin, C[b_idx], cout)
                pool.discard(cin)
                cin = cout
            else:
                pool.discard(a)
        for c in C[b_idx + 1:]:
            cout = pool.new()
            _half_adder(g, cin, c, cout)
            pool.discard(cin)
            cin = cout
        pool.discard(cin)


def schoolbook_mult_classical(g, pool, a, B, C, trunc=None):
    """C += a*B for classical a; partial products at index >= trunc dropped."""
    limit = len(C) if trunc is None else trunc
    if trunc is None and a.bit_length() + len(B) > len(C):
        raise CircuitError("product register too short")
    i = 0
    while a and i < limit:
        if a & 1:
            cin = pool.new()
            top = 0
            for j, b in enumerate(B):
                if i + j >= limit:
                    break
                cout = pool.new()
                _full_adder(g, b, C[i + j], cin, cout)
                pool.discard(cin)
                cin = cout
                top = i + j + 1
            for c in C[top:limit]:
                cout = pool.new()
                _half_adder(g, cin, c, cout)
                pool.discard(cin)
                cin = cout
            pool.discard(cin)
        a >>= 1
        i += 1


def karatsuba_mult(g, pool, A, B, C, cutoff):
    """C += A*B splitting both factors; garbage dropped at every level."""
    if len(C) < len(A) + len(B):
        raise CircuitError("product register too short")
    if min(len(A), len(B)) <= cutoff:
        schoolbook_mult(g, pool, A, B, C)
        return
    split = min(len(A), len(B)) // 2
    A_low, A_high = A[:split], A[split:]
    B_low, B_high = B[:split], B[split:]

    C_mid = pool.new_register(len(A_high) + len(B_high) + 2)
    karatsuba_mult(g, pool, A_low, B_low, C_mid, cutoff)
    add_registers(g, pool, C_mid, C)

    C_high = pool.new_register(len(A_high) + len(B_high))
    karatsuba_mult(g, pool, A_high, B_high, C_high, cutoff)
    add_registers(g, pool, C_high, C[2 * split:])
    add_registers(g, pool, C_high, C_mid)
    pool.discard(C_high)

    A_sum = pool.new_register(len(A_high) + 1)
    B_sum = pool.new_register(len(B_high) + 1)
    copy_register(g, A_low, A_sum)
    add_registers(g, pool, A_high, A_sum)
    copy_register(g, B_low, B_sum)
    add_registers(g, pool, B_high, B_sum)

    # C_mid holds low+high; two's-complement negate, then add the middle product
    for c in C_mid:
        g.append((X, c))
    add_constant(g, pool, 1, C_mid)
    karatsuba_mult(g, pool, A_sum, B_sum, C_mid, cutoff)
    add_registers(g, pool, C_mid, C[split:])

    pool.discard(A_sum)
    pool.discard(B_sum)
    pool.discard(C_mid)


def karatsuba_square(g, pool, A, C, cutoff):
    """C += A^2 via Karatsuba splitting."""
    if len(C) < 2 * len(A):
        raise CircuitError("square register too short")
    if len(A) <= cutoff:
        schoolbook_square(g, pool, A, C)
        return
    split = len(A) // 2
    A_low, A_high = A[:split], A[split:]

    C_low = pool.new_register(2 * split)
    karatsuba_square(g, pool, A_low, C_low, cutoff)
    add_registers(g, pool, C_low, C)
    pool.discard(C_low)

    C_mid = pool.new_register(len(A))
    karatsuba_mult(g, pool, A_low, A_high, C_mid, cutoff)
    add_registers(g, pool, C_mid, C[split + 1:])
    pool.discard(C_mid)

    C_high = pool.new_register(2 * len(A_high))
    karatsuba_square(g, pool, A_high, C_high, cutoff)
    add_registers(g, pool, C_high, C[2 * split:])
    pool.discard(C_high)


def karatsuba_mult_classical(g, pool, a, B, C, cutoff):
    """C += a*B for classical a, Karatsuba split."""
    if a.bit_length() + len(B) > len(C):
        raise CircuitError("product register too short")
    if min(a.bit_length(), len(B)) <= cutoff:
        schoolbook_mult_classical(g, pool, a, B, C)
        return
    split = min(a.bit_length(), len(B)) // 2
    a_low, a_high = a & ((1 << split) - 1), a >> split
    B_low, B_high = B[:split], B[split:]

    C_mid = pool.new_register(a_high.bit_length() + len(B_high) + 2)
    karatsuba_mult_classical(g, pool, a_low, B_low, C_mid, cutoff)
    add_registers(g, pool, C_mid, C)

    C_high = pool.new_register(a_high.bit_length() + len(B_high))
    karatsuba_mult_classical(g, pool, a_high, B_high, C_high, cutoff)
    add_registers(g, pool, C_high, C[2 * split:])
    add_registers(g, pool, C_high, C_mid)
    pool.discard(C_high)

    a_sum = a_low + a_high
    B_sum = pool.new_register(len(B_high) + 1)
    copy_register(g, B_low, B_sum)
    add_registers(g, pool, B_high, B_sum)

    for c in C_mid:
        g.append((X, c))
    add_constant(g, pool, 1, C_mid)
    karatsuba_mult_classical(g, pool, a_sum, B_sum, C_mid, cutoff)
    add_registers(g, pool, C_mid, C[split:])

    pool.discard(B_sum)
    pool.discard(C_mid)


# ---------------------------------------------------------------------------
# in-place multiplication by 3

def mul3_inplace(g, pool, X_reg, width):
    """x <- 3x in place on X_reg[:width+2]; X_reg[width:width+2] must be 0.

    3x = x + (x << 1).  Carries are precomputed into ancillas from the
    original bits, the register is updated top-down (so each original bit
    is still intact when consumed as the shifted addend), and the carry
    chain is discarded as garbage.  Returns the new effective width.
    """
    if len(X_reg) < width + 2:
        raise CircuitError("register too narrow for an in-place x3")
    out_w = width + 2
    # carry[i] feeds position i; positions 0 and 1 never receive a carry
    carries = {}
    prev = None
    for i in range(2, out_w):
        c = pool.new()
        xi, xim1 = X_reg[i - 1] if i - 1 < width else None, X_reg[i - 2]
        # carry_i = maj(x_{i-1}, x_{i-2}, carry_{i-1}); absent bits are 0
        if xi is not None:
            g.append((TOFFOLI, xi, xim1, c))
            if prev is not None:
                g.append((TOFFOLI, xi, prev, c))
        if prev is not None:
            g.append((TOFFOLI, xim1, prev, c))
        carries[i] = c
        prev = c
    for i in range(out_w - 1, 0, -1):
        if i - 1 < width:
            g.append((CNOT, X_reg[i - 1], X_reg[i]))
        if i in carries:
            g.append((CNOT, carries[i], X_reg[i]))
    pool.discard(tuple(carries.values()))
    return out_w


# ---------------------------------------------------------------------------
# Montgomery reduction and the y canonicalization

def montgomery_reduce(g, pool, T, modulus, method="schoolbook", cutoff=32):
    """Reduce the product register T to T * R^-1 mod modulus, R = 2^bitlen(modulus).

    Standard REDC: m = (T mod R) * N' mod R with N' = -modulus^-1 mod R,
    then T += m*modulus, whose low bits are then guaranteed zero and are
    discarded; the remainder t = (T + m*modulus)/R < 2*modulus is finally
    canonicalized into [0, modulus) by a comparator and a conditional
    subtraction whose comparison bit is discarded as garbage.

    Returns the tuple of y-register qubits holding the canonical value.
    """
    nm = modulus.bit_length()
    R = 1 << nm
    if len(T) < 2 * nm + 1:
        raise CircuitError("T register too short for reduction")
    n_prime = (-pow(modulus, -1, R)) % R

    m_reg = pool.new_register(nm)
    schoolbook_mult_classical(g, pool, n_prime, T[:nm], m_reg, trunc=nm)
    if method == "karatsuba":
        karatsuba_mult_classical(g, pool, modulus, m_reg, T, cutoff)
    else:
        schoolbook_mult_classical(g, pool, modulus, m_reg, T)
    pool.discard(m_reg)
    pool.discard(T[:nm])  # zero by construction of m

    t = T[nm:2 * nm + 1]  # value < 2*modulus
    # comparator: adding 2^(nm+1) - modulus overflows exactly when t >= modulus
    flag = pool.new()
    wide = t + (flag,)
    add_constant(g, pool, (1 << (nm + 1)) - modulus, wide)
    g.append((X, flag))  # flag = [t < modulus]
    # conditionally add modulus back (mod 2^(nm+1)) to undo the offset
    temp = pool.new_register(nm)
    for bit_pos in range(nm):
        if (modulus >> bit_pos) & 1:
            g.append((CNOT, flag, temp[bit_pos]))
    add_registers(g, pool, temp, t)
    for bit_pos in range(nm):
        if (modulus >> bit_pos) & 1:
            g.append((CNOT, flag, temp[bit_pos]))
    pool.discard(temp)
    pool.discard(flag)
    pool.discard(t[nm])  # zero after the subtraction
    return t[:nm]


# ---------------------------------------------------------------------------
# top-level builders

def build_modsquare(N, lift_m=0, method="schoolbook", cutoff=32):
    """Circuit computing (k x)^2 * R' mod k^2 N on the x register, k = 3^lift_m.

    The x register is lifted in place (a chain of x3 stages), squared into a
    product register, and Montgomery-reduced.  The measured value is
    (k x)^2 * R' mod k^2 N with R' = R^-1 recorded in the metadata; the
    domain-restriction comparator for x < ceil(N/2) is not part of the gate
    list (noted in metadata) since the simulated prover samples the domain
    directly.
    """
    if N % 2 == 0 or N < 15:
        raise CircuitError("modulus must be an odd composite >= 15")
    if method not in ("schoolbook", "karatsuba"):
        raise CircuitError(f"unknown multiplier {method!r}")
    if method == "karatsuba" and cutoff < 8:
        raise CircuitError("karatsuba cutoff must be >= 8")
    if lift_m < 0:
        raise CircuitError("lift exponent m must be >= 0")
    n = N.bit_length()
    k = 3 ** lift_m
    modulus = k * k * N
    nm = modulus.bit_length()
    width = n + 2 * lift_m

    gates = []
    pool = QubitPool(gates)
    x_reg = pool.new_register(width)
    w = n
    for _ in range(lift_m):
        w = mul3_inplace(gates, pool, x_reg, w)

    T = pool.new_register(max(2 * width, 2 * nm) + 1)
    if method == "karatsuba":
        karatsuba_square(gates, pool, x_reg[:w], T, cutoff)
    else:
        schoolbook_square(gates, pool, x_reg[:w], T)
    y_reg = montgomery_reduce(gates, pool, T, modulus, method, cutoff)
    gates.append((MEASURE_Y, y_reg))

    R = 1 << nm
    return Circuit(
        n_qubits=pool.peak,
        gates=gates,
        registers={"x": x_reg, "y": y_reg},
        metadata={
            "builder": method,
            "n": n,
            "N": N,
            "lift_m": lift_m,
            "k": k,
            "modulus": modulus,
            "rprime": pow(R, -1, modulus),
            "r_undo": R % modulus,
            "cutoff": cutoff if method == "karatsuba" else None,
            "comparator_excluded": True,
        },
    )


# ---------------------------------------------------------------------------
# evaluation: one gate loop over bit-sliced lanes
#
# Row q of the state is an int whose bit j is qubit q's value in lane j, the
# bit-slicing of Biham's software DES, so one int operation applies a gate
# to every lane.  A lane is one input (classical evaluation) or one branch
# of one run (two-branch evaluation).

# lane j of the narrow transpose path: each byte read as "1" where its bit j is set
_LANE_DIGITS = tuple(bytes(b"01"[(b >> j) & 1] for b in range(256)) for j in range(8))


def _transpose(rows, width) -> list:
    """Bit-matrix transpose: bit j of rows[i] becomes bit i of out[j], for
    rows below 2**width.  Packs per-lane values into qubit rows, and
    unpacks rows into per-lane values."""
    if not width:
        return []
    if not rows:
        return [0] * width
    if width <= 8:
        # one byte per row, most significant first; each lane is then one
        # translate of those bytes into binary digits
        data = bytes(reversed(rows))
        return [int(data.translate(digits), 2) for digits in _LANE_DIGITS[:width]]
    fmt = f"0{width}b"
    columns = zip(*(format(row, fmt) for row in reversed(rows)))
    return [int("".join(col), 2) for col in columns][::-1]


def _bit_rows(seqs, n) -> list:
    """n rows of len(seqs) bits: bit j of row i is seqs[j][i], for byte
    strings of 0/1 values and length n.  Eight sequences at a time become
    eight bit positions of one int, one byte per row."""
    rows = None
    for g in range(0, len(seqs), 8):
        acc = 0
        for j, seq in enumerate(seqs[g:g + 8]):
            acc |= int.from_bytes(seq, "little") << j
        part = acc.to_bytes(n, "little")
        rows = list(part) if rows is None else [row | b << g for row, b in zip(rows, part)]
    return [0] * n if rows is None else rows


def _sampled_errors(error_prob, rng, runs):
    """Erring (unitary gate, run) pairs in gate-major order: each pair errs
    independently with probability error_prob, found by geometric skips.

    Yields (gate, run, pick, pauli).  The struck qubit is
    touched[pick % len(touched)]; pick is uniform over range(6), a multiple
    of every touched-qubit count, so the qubit is uniform too.
    """
    log_keep = math.log1p(-error_prob) if error_prob < 1 else -math.inf
    pos = -1
    while True:
        pos += 1 + int(math.log(1.0 - rng.random()) / log_keep)
        gate, run = divmod(pos, runs)
        yield gate, run, rng.randrange(6), "XYZ"[rng.randrange(3)]


_NO_ERROR = (-1, 0, 0, "")


@dataclass
class _Lanes:
    rows: list  # final row of every qubit
    y_rows: list  # rows of the y register at MEASURE_Y
    garbage: list  # discarded rows in discard order (classical lanes only)
    phase: int  # noisy-pair phase bits, bit j for run j
    clean_phase: int  # the same h against the clean pair
    n_errors: list  # per run


def _run_lanes(circuit: Circuit, inputs, runs=0, errors=(), h_rows=None,
               draw_h=None) -> _Lanes:
    """Run the gate list once over one lane per input (x register = input).

    With runs = R > 0 the lanes are blocks of R: noisy branch 0, noisy
    branch 1 and, when given, clean branch 0 and clean branch 1.  errors,
    (unitary gate, run, pick, pauli) in gate-major order as _sampled_errors
    yields them, strike the noisy pair of their run right after the gate.
    The i-th discarded qubit takes the R Hadamard outcomes h_rows[i], bit j
    for run j, or, with draw_h, one draw_h(R * width) per discard event
    whose qubit i takes bits [i R, (i + 1) R).  It folds h & (b0 xor b1)
    into the noisy pair's phase and, with the same h, into the clean
    pair's: the phase the verifier recomputes from the claw.
    """
    x_reg = circuit.registers["x"]
    if any(x < 0 or x.bit_length() > len(x_reg) for x in inputs):
        raise MalformedCircuit("input does not fit the x register")
    full = (1 << len(inputs)) - 1
    # input rows are loaded when the x register's qubits are first allocated
    pending = dict(zip(x_reg, _transpose(inputs, len(x_reg))))
    rows = [0] * circuit.n_qubits
    garbage = []
    k = 0  # next discarded qubit
    run_mask = (1 << runs) - 1
    phase = clean = 0
    n_errors = [0] * runs
    errors = iter(errors)
    err_u, err_run, err_pick, pauli = next(errors, _NO_ERROR)
    u = -1  # index among X/CNOT/Toffoli gates
    y_rows = None
    for gate in circuit.gates:
        tag = gate[0]
        if tag == TOFFOLI:
            _, a, b, t = gate
            rows[t] ^= rows[a] & rows[b]
        elif tag == CNOT:
            _, c, t = gate
            rows[t] ^= rows[c]
        elif tag == ALLOC:
            rows[gate[1]] = pending.pop(gate[1], 0)
            continue
        elif tag == DISCARD:
            if not runs:
                garbage.extend([rows[q] for q in gate[1]])
                continue
            hs = draw_h(runs * len(gate[1])) if draw_h else None
            for q in gate[1]:
                if hs is None:
                    h = h_rows[k]
                    k += 1
                else:
                    h = hs & run_mask
                    hs >>= runs
                row = rows[q]
                phase ^= h & (row ^ (row >> runs))
                clean ^= h & ((row >> 2 * runs) ^ (row >> 3 * runs))
            continue
        elif tag == X:
            rows[gate[1]] ^= full
        elif tag == MEASURE_Y:
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
            n_errors[err_run] += 1
            err_u, err_run, err_pick, pauli = next(errors, _NO_ERROR)
    if y_rows is None:
        raise MalformedCircuit("circuit has no MEASURE_Y")
    return _Lanes(rows=rows, y_rows=y_rows, garbage=garbage, phase=phase,
                  clean_phase=clean, n_errors=n_errors)


def evaluate_classical(circuit: Circuit, xs):
    """Run the circuit on each basis input in xs; returns (ys, garbage).

    Both are per-input ints; bit i of a garbage int is the i-th discarded
    qubit, in discard order and little-endian within each event.  CPHASE
    gates are diagonal and have no effect on basis states.
    """
    xs = list(xs)
    lanes = _run_lanes(circuit, xs)
    return _transpose(lanes.y_rows, len(xs)), _transpose(lanes.garbage, len(xs))


# ---------------------------------------------------------------------------
# two-branch evaluation (exact simulation of a claw superposition)

@dataclass
class TwoBranchRun:
    """Result of running both branches of (|x0> + |x1>) through the circuit."""

    y0: int
    y1: int
    reg0: int  # x-register value, branch 0
    reg1: int
    rel_phase: int  # +1 / -1
    h: int  # Hadamard outcomes, bit i for the i-th discarded qubit
    h_len: int
    n_errors: int


def replay_draws(schedule: Schedule, error_prob: float, rng):
    """The draws one two-branch run makes from rng, without evaluating a
    gate: returns (h, errors), h its Hadamard outcomes as one 0/1 byte per
    discarded qubit, in discard order, and errors its Pauli errors as
    _sampled_errors yields them, (gate, 0, pick, pauli).

    A run draws its first error, then walks the gates: each DISCARD draws
    getrandbits(width), and each error, once applied after its gate, draws
    the next one.  Where discards fall among the unitary gates is static
    (the schedule), so the order of the draws follows from the error
    positions alone, and the discards between two errors are one map over
    their widths.
    """
    draw, widths = rng.getrandbits, schedule.widths
    values, errors = [], []
    if error_prob > 0:
        for err in _sampled_errors(error_prob, rng, 1):
            if err[0] >= schedule.unitary:  # drawn, but past the last gate
                break
            stop = bisect_right(schedule.befores, err[0])
            values.extend(map(draw, widths[len(values):stop]))
            errors.append(err)
    values.extend(map(draw, widths[len(values):]))
    h = b"".join(bytes(values[a:b]) if width == 1 else
                 bytes((values[a] >> i) & 1 for i in range(width))
                 for a, b, width in schedule.spans)
    return h, errors


def run_two_branch_block(circuit: Circuit, x0s, x1s, draws) -> list:
    """len(x0s) two-branch runs in one engine call, run j on the claw
    (x0s[j], x1s[j]) with the draws draws[j] = (h, errors) of replay_draws.
    Returns one TwoBranchRun per run."""
    R = len(x0s)
    h_len = circuit.schedule.h_len
    errors = sorted((u, j, pick, pauli) for j, (_, errs) in enumerate(draws)
                    for u, _, pick, pauli in errs)
    lanes = _run_lanes(circuit, [*x0s, *x1s], R, errors,
                       _bit_rows([h for h, _ in draws], h_len))
    ys = _transpose(lanes.y_rows, 2 * R)
    regs = _transpose([lanes.rows[q] for q in circuit.registers["x"]], 2 * R)
    return [TwoBranchRun(y0=ys[j], y1=ys[R + j], reg0=regs[j], reg1=regs[R + j],
                         rel_phase=-1 if lanes.phase >> j & 1 else 1,
                         h=_transpose(draws[j][0], 1)[0], h_len=h_len,
                         n_errors=lanes.n_errors[j])
            for j in range(R)]


def run_two_branch(circuit: Circuit, x0: int, x1: int, error_prob: float, rng):
    """One two-branch run on the claw (x0, x1), with the draws replay_draws
    makes from rng: run_two_branch_block on a single run.

    Each X/CNOT/Toffoli gate independently errs with probability
    error_prob: a Pauli error (uniform over X, Y, Z) on one of its qubits.
    X flips the struck bit in both branches; Z multiplies the relative
    phase by (-1)^(b0 xor b1) of the struck qubit; Y does both.  Discards
    draw a uniform h and apply the (-1)^(h . (g0 xor g1)) rule.  The
    package itself runs blocks; bench/layers.py traces this name.
    """
    return run_two_branch_block(circuit, [x0], [x1],
                                [replay_draws(circuit.schedule, error_prob, rng)])[0]


def run_two_branch_batch(circuit: Circuit, x0s, x1s, error_prob, rng):
    """R = len(x0s) independent two-branch runs, each beside a clean shadow.

    The runs share one stream: the engine draws each discard's R outcomes
    and the errors of all runs from rng as it goes.  The shadow pair
    evolves the same inputs without errors and meets the same Hadamard
    outcomes h at each discard, producing the phase the verifier would
    reconstruct from the true claw.  Returns a dict of per-run lists:
    noisy/clean y values and x-register values, the prover and verifier
    (shadow) phase bits, and error counts.
    """
    R = len(x0s)
    errors = _sampled_errors(error_prob, rng, R) if error_prob > 0 else ()
    lanes = _run_lanes(circuit, [*x0s, *x1s, *x0s, *x1s], R, errors,
                       draw_h=rng.getrandbits)
    ys = _transpose(lanes.y_rows, 4 * R)
    regs = _transpose([lanes.rows[q] for q in circuit.registers["x"]], 4 * R)
    return {
        "y0": ys[:R],
        "y1": ys[R:2 * R],
        "y_clean": ys[2 * R:3 * R],
        "reg0": regs[:R],
        "reg1": regs[R:2 * R],
        "creg0": regs[2 * R:3 * R],
        "creg1": regs[3 * R:],
        "phase_prover": _transpose([lanes.phase], R),
        "phase_verifier": _transpose([lanes.clean_phase], R),
        "n_errors": lanes.n_errors,
    }


# ---------------------------------------------------------------------------
# resource accounting

def _tally(ops) -> tuple:
    """(gates, Toffolis, depth) of a stream of (tag, qubits) pairs, the
    depth by greedy qubit-disjoint layering."""
    total = toffoli = depth = 0
    layer = {}
    for tag, qs in ops:
        total += 1
        if tag == TOFFOLI:
            toffoli += 1
        lv = 1 + max(layer.get(q, 0) for q in qs)
        for q in qs:
            layer[q] = lv
        if lv > depth:
            depth = lv
    return total, toffoli, depth


def gate_count(circuit: Circuit) -> int:
    """count_resources(circuit).total_gates without the depth layering."""
    return sum(g[0] in UNITARY_TAGS for g in circuit.gates)


def count_resources(circuit: Circuit) -> ResourceReport:
    """Gate totals plus a greedy qubit-disjoint layering depth.

    ALLOC/DISCARD/MEASURE_Y are bookkeeping, not gates; they do not count
    toward totals or depth.
    """
    total, toffoli, depth = _tally(
        (g[0], tuple(g[1]) + (g[2],) if g[0] == CPHASE else g[1:])
        for g in circuit.gates if g[0] in UNITARY_TAGS)
    return ResourceReport(qubits=circuit.n_qubits, total_gates=total,
                          toffoli_count=toffoli, depth=depth)


# ---------------------------------------------------------------------------
# phase-estimation circuits for x^2 mod N
#
# The multiply-to-phase approach: with the output register prepared in a
# uniform superposition, apply controlled phases exp(2*pi*i*2^(i+j+k)/N)
# for control pair (x_i, x_j) and output qubit k, then an inverse Fourier
# transform reads out x^2 mod N.  The rotation angle depends only on the
# exponent sum, the basis of the gate-merging in variant 2.

def phase_angle(exponent_sum: int, N: int) -> float:
    """2*pi*2^s/N mod 2*pi, reduced exactly in integer arithmetic first."""
    return 2.0 * math.pi * pow(2, exponent_sum, N) / N


def _phase_gate_stream(variant, n, m_out):
    """Yield the controlled-phase schedule; targets index the y register 0..m_out-1.

    Variant 1 visits output bits one at a time (n^3/2-type count); the
    cross terms (i < j) appear once with the doubled angle, which is again
    of the canonical 2^s form with s shifted by one.

    Variant 2 tallies, for each control-sum s, the number of coincident
    pairs into a small counter register and phases off the counter bits,
    then uncomputes.  Ancilla indices are returned via the special target
    tags ("counter", b), ("t",), ("carry", i).
    """
    if variant == 1:
        for k in range(m_out):
            for i in range(n):
                yield (CPHASE, (("x", i),), ("y", k), 2 * i + k)
                for j in range(i + 1, n):
                    yield (CPHASE, (("x", i), ("x", j)), ("y", k), i + j + k + 1)
    elif variant == 2:
        for s in range(2 * n - 1):
            pairs = [(i, s - i) for i in range(max(0, s - n + 1), (s + 1) // 2)]
            L = len(pairs).bit_length()
            compute = []
            for (i, j) in pairs:
                compute.append((TOFFOLI, ("x", i), ("x", j), ("t",)))
                compute.extend(_increment_ops(L))
                compute.append((TOFFOLI, ("x", i), ("x", j), ("t",)))
            for op in compute:
                yield op
            for b in range(L):
                for k in range(m_out):
                    yield (CPHASE, (("counter", b),), ("y", k), s + 1 + b + k)
            if s % 2 == 0 and s // 2 < n:
                for k in range(m_out):
                    yield (CPHASE, (("x", s // 2),), ("y", k), s + k)
            for op in reversed(compute):
                yield op
    else:
        raise CircuitError(f"unknown phase circuit variant {variant}")


def _increment_ops(L):
    """Counter += t as (gate, ...) ops over symbolic ancilla labels.

    Forward carries from the original counter bits, CNOT updates, then the
    carry chain is uncomputed against the updated bits, leaving the carry
    ancillas clean for reuse.
    """
    ops = []
    prev = ("t",)
    for b in range(L - 1):
        ops.append((TOFFOLI, prev, ("counter", b), ("carry", b)))
        prev = ("carry", b)
    for b in range(L - 1, -1, -1):
        src = ("t",) if b == 0 else ("carry", b - 1)
        ops.append((CNOT, src, ("counter", b)))
    for b in range(L - 2, -1, -1):
        src = ("t",) if b == 0 else ("carry", b - 1)
        ops.append((TOFFOLI, src, ("counter", b), ("carry", b)))
        ops.append((CNOT, src, ("carry", b)))
    return ops


def _phase_qubit_map(variant, n, m_out):
    """Assign concrete indices to the symbolic labels of the phase stream."""
    mapping = {}
    idx = 0
    for i in range(n):
        mapping[("x", i)] = idx
        idx += 1
    for k in range(m_out):
        mapping[("y", k)] = idx
        idx += 1
    if variant == 2:
        L_max = (n // 2 + 1).bit_length()
        mapping[("t",)] = idx
        idx += 1
        for b in range(L_max):
            mapping[("counter", b)] = idx
            idx += 1
        for b in range(L_max):
            mapping[("carry", b)] = idx
            idx += 1
    return mapping, idx


def phase_schedule(variant, n, N, extra_bits=3) -> Circuit:
    """Explicit phase circuit over a full y register, for small-n verification.

    The y register is assumed prepared in the uniform superposition and read
    out through an inverse Fourier transform; both stand outside the gate
    list (metadata "readout").  Feasible for n up to ~16.
    """
    if not (1 << (n - 1)) <= N < (1 << n):
        raise CircuitError(f"N={N} is not an {n}-bit modulus")
    m_out = n + extra_bits
    mapping, total = _phase_qubit_map(variant, n, m_out)
    gates = [(ALLOC, q) for q in range(total)]
    for op in _phase_gate_stream(variant, n, m_out):
        if op[0] == CPHASE:
            _, controls, target, s = op
            gates.append((CPHASE, tuple(mapping[c] for c in controls),
                          mapping[target], phase_angle(s, N)))
        else:
            gates.append((op[0],) + tuple(mapping[lbl] for lbl in op[1:]))
    x_reg = tuple(mapping[("x", i)] for i in range(n))
    y_reg = tuple(mapping[("y", k)] for k in range(m_out))
    gates.append((MEASURE_Y, y_reg))
    return Circuit(
        n_qubits=total,
        gates=gates,
        registers={"x": x_reg, "y": y_reg},
        metadata={"builder": f"phase{variant}", "n": n, "N": N, "m_out": m_out,
                  "readout": "uniform y register in, inverse QFT out"},
    )


def phase_circuit_resources(variant, n, extra_bits=3) -> ResourceReport:
    """Resource count of the phase circuits without materializing gate lists.

    Variant 1 reuses a single output qubit, measured and reset once per
    output bit, so its qubit count is n + 1; the per-bit Hadamards and the
    classically conditioned readout rotations fall outside the counted gate
    set.  Variant 2 keeps the full output register plus the pair counter.
    """
    if n < 8:
        raise CircuitError("resource estimates are defined for n >= 8")
    m_out = n + extra_bits
    if variant == 1:
        qubits = n + 1
    else:
        L_max = (n // 2 + 1).bit_length()
        qubits = n + m_out + 1 + 2 * L_max

    def ops():
        for op in _phase_gate_stream(variant, n, m_out):
            if op[0] == CPHASE:
                yield CPHASE, op[1] + (("y", 0) if variant == 1 else op[2],)
            else:
                yield op[0], op[1:]

    total, toffoli, depth = _tally(ops())
    return ResourceReport(qubits=qubits, total_gates=total,
                          toffoli_count=toffoli, depth=depth)
