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
from functools import cache, cached_property
from itertools import takewhile


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

UNITARY_TAGS = frozenset((X, CNOT, TOFFOLI, CPHASE))


@dataclass
class Circuit:
    """A gate list over qubits 0..n_qubits-1.  Its tags are this module's
    constants, which the engine tells apart by identity.  `schedule` is
    lowered on first use, in one pass over the gate list; the gate list
    must not change after that."""

    n_qubits: int
    gates: list
    registers: dict
    metadata: dict = field(default_factory=dict)

    @cached_property
    def schedule(self) -> "Schedule":
        load = set(self.registers["x"])
        program, marks = [], []
        append, mark = program.append, marks.append
        unitary = h_len = 0
        for g in self.gates:
            tag = g[0]
            if tag in UNITARY_TAGS:
                if tag is not CPHASE:
                    append(g)
                    unitary += 1
                continue
            if tag is ALLOC:
                if g[1] not in load:
                    continue
                load.remove(g[1])
            elif tag is DISCARD:
                h_len += len(g[1])
            mark(unitary)
            append(g)
        return Schedule(program=program, unitary=unitary, h_len=h_len, marks=marks)


@dataclass(frozen=True)
class Schedule:
    """A circuit lowered for the engine.  `program` is its gate list as the
    engine runs it: CPHASE gates (diagonal, no effect on basis states) and
    ALLOC events dropped, except the first ALLOC of each x-register qubit,
    which loads its input row; a DISCARD zeroes its rows, so a re-allocated
    qubit starts at 0.  A two-branch run's Pauli errors strike the
    `unitary` X/CNOT/Toffoli gates, and its `h_len` discarded qubits each
    take one Hadamard outcome.  marks[k] counts the unitary gates before
    the k-th other entry of the program, so unitary gate u stands at
    program index u + bisect_right(marks, u)."""

    program: list
    unitary: int
    h_len: int
    marks: list


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
        # the next fresh index; one is handed out only when none is free,
        # so this is also the peak number of live qubits
        self.peak = 0

    def new(self) -> int:
        if self._free:
            q = self._free.pop()
        else:
            q = self.peak
            self.peak += 1
        self.gates.append((ALLOC, q))
        return q

    def new_register(self, width: int) -> tuple:
        return tuple(self.new() for _ in range(width))

    def discard(self, qs) -> None:
        qs = (qs,) if isinstance(qs, int) else tuple(qs)
        self.gates.append((DISCARD, qs))
        self._free.extend(qs)


# ---------------------------------------------------------------------------
# arithmetic building blocks
#
# half_adder:  (a, b, cout) -> (a, a+b, cout + carry)
# full_adder:  (a, b, cin, cout) -> (a, a+b+cin, cin, cout + carry)
# _add_bit and _ripple discard the stale carry after each step; callers
# discard the a input where it is a scratch partial product.

def _half_adder(g, a, b, cout):
    g.append((TOFFOLI, a, b, cout))
    g.append((CNOT, a, b))


def _full_adder(g, a, b, cin, cout):
    g.append((TOFFOLI, a, b, cout))
    g.append((CNOT, a, b))
    g.append((TOFFOLI, b, cin, cout))
    g.append((CNOT, cin, b))


def _add_bit(g, pool, a, b, cin):
    """One ripple step: b += a + cin into a fresh carry-out, which is
    returned; the spent carry-in is discarded."""
    cout = pool.new()
    _full_adder(g, a, b, cin, cout)
    pool.discard(cin)
    return cout


def _ripple(g, pool, cin, C):
    """Propagate the carry cin through C by half adders, then discard the
    last carry."""
    for c in C:
        cout = pool.new()
        _half_adder(g, cin, c, cout)
        pool.discard(cin)
        cin = cout
    pool.discard(cin)


def add_registers(g, pool, A, B):
    """B += A (mod 2^len(B)) for quantum registers, len(A) <= len(B)."""
    if len(A) > len(B):
        raise CircuitError("register A too long to add into B")
    cin = pool.new()
    _half_adder(g, A[0], B[0], cin)
    for a, b in zip(A[1:], B[1:]):
        cin = _add_bit(g, pool, a, b, cin)
    _ripple(g, pool, cin, B[len(A):])


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
            cin = _add_bit(g, pool, d, C[i + j], cin)
            pool.discard(d)
        _ripple(g, pool, cin, C[i + len(B):])


def schoolbook_square(g, pool, A, C):
    """C += A^2, exploiting symmetry: cross terms carry double weight."""
    if len(C) < 2 * len(A):
        raise CircuitError("square register too short")
    n = len(A)
    for i in range(n):
        # the diagonal term A[i] at weight 2i, then its carry into 2i + 1
        cin = _add_bit(g, pool, A[i], C[2 * i], pool.new())
        cout = pool.new()
        _half_adder(g, cin, C[2 * i + 1], cout)
        pool.discard(cin)
        cin = cout
        for j in range(i + 1, n):
            a = pool.new()
            g.append((TOFFOLI, A[i], A[j], a))
            cin = _add_bit(g, pool, a, C[i + j + 1], cin)
            pool.discard(a)
        _ripple(g, pool, cin, C[i + n + 1:])


def schoolbook_mult_classical(g, pool, a, B, C, trunc=None):
    """C += a*B for classical a; partial products at index >= trunc dropped."""
    limit = len(C) if trunc is None else trunc
    if trunc is None and a.bit_length() + len(B) > len(C):
        raise CircuitError("product register too short")
    i = 0
    while a and i < limit:
        if a & 1:
            cin = pool.new()
            for b, c in zip(B, C[i:limit]):
                cin = _add_bit(g, pool, b, c, cin)
            _ripple(g, pool, cin, C[i + len(B):limit])
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

# operand width at or below which the Karatsuba recursion multiplies by
# schoolbook
KARATSUBA_CUTOFF = 32


def montgomery_reduce(g, pool, T, modulus, method="schoolbook", cutoff=KARATSUBA_CUTOFF):
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

def build_modsquare(N, lift_m=0, method="schoolbook", cutoff=KARATSUBA_CUTOFF):
    """Circuit computing (k x)^2 * R' mod k^2 N on the x register, k = 3^lift_m.

    The x register is lifted in place (a chain of x3 stages), squared into a
    product register, and Montgomery-reduced.  The measured value is
    (k x)^2 * R' mod k^2 N.  The metadata records the builder, k, the
    modulus k^2 N, R' = R^-1 ("rprime") and its undo R ("r_undo").  The
    domain-restriction comparator for x < ceil(N/2) is not part of the gate
    list, since the simulated prover samples the domain directly.
    """
    _check_modsquare(N, lift_m, method, cutoff)
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
            "k": k,
            "modulus": modulus,
            "rprime": pow(R, -1, modulus),
            "r_undo": R % modulus,
        },
    )


def _check_modsquare(N, lift_m, method, cutoff):
    """build_modsquare's parameter checks.  Montgomery reduction needs only
    an odd modulus, so a prime passes."""
    if N % 2 == 0 or N < 15:
        raise CircuitError("modulus must be odd and >= 15")
    if method not in ("schoolbook", "karatsuba"):
        raise CircuitError(f"unknown multiplier {method!r}")
    if method == "karatsuba" and cutoff < 8:
        raise CircuitError("karatsuba cutoff must be >= 8")
    if lift_m < 0:
        raise CircuitError("lift exponent m must be >= 0")


def modsquare_gate_count(N, lift_m, method) -> int:
    """The number of X/CNOT/Toffoli gates build_modsquare emits with the same
    arguments and its default cutoff, counted without building it.  Each
    helper counts the gates of the builder it is named after from register
    widths and classical constants; the Karatsuba ones on widths alone are
    memoised."""
    cutoff = KARATSUBA_CUTOFF
    _check_modsquare(N, lift_m, method, cutoff)

    def add_registers(a, b):
        # a half adder, a - 1 full adders, then a ripple through b - a bits
        return 2 * (a + b) - 2

    def add_constant(value, width):
        # a half adder per bit, and four X gates around it per set bit
        return 2 * width + 4 * value.bit_count()

    def schoolbook_mult(a, b, c):
        return sum(5 * b + 2 * (c - i - b) for i in range(a))

    def schoolbook_square(n, c):
        return sum(6 + 5 * (n - 1 - i) + 2 * (c - i - n - 1) for i in range(n))

    def schoolbook_mult_classical(a, b, c, limit=None):
        limit = c if limit is None else limit
        return sum(4 * min(b, limit - i) + 2 * max(0, limit - i - b)
                   for i in range(min(a.bit_length(), limit)) if a >> i & 1)

    @cache
    def karatsuba_mult(a, b, c):
        if min(a, b) <= cutoff:
            return schoolbook_mult(a, b, c)
        s = min(a, b) // 2
        ah, bh = a - s, b - s
        mid = ah + bh + 2
        return (karatsuba_mult(s, s, mid) + add_registers(mid, c)
                + karatsuba_mult(ah, bh, ah + bh) + add_registers(ah + bh, c - 2 * s)
                + add_registers(ah + bh, mid) + 2 * s + add_registers(ah, ah + 1)
                + add_registers(bh, bh + 1) + mid + add_constant(1, mid)
                + karatsuba_mult(ah + 1, bh + 1, mid) + add_registers(mid, c - s))

    @cache
    def karatsuba_square(n, c):
        if n <= cutoff:
            return schoolbook_square(n, c)
        s, h = n // 2, n - n // 2
        return (karatsuba_square(s, 2 * s) + add_registers(2 * s, c)
                + karatsuba_mult(s, h, n) + add_registers(n, c - s - 1)
                + karatsuba_square(h, 2 * h) + add_registers(2 * h, c - 2 * s))

    def karatsuba_mult_classical(a, b, c):
        if min(a.bit_length(), b) <= cutoff:
            return schoolbook_mult_classical(a, b, c)
        s = min(a.bit_length(), b) // 2
        lo, hi, bh = a & ((1 << s) - 1), a >> s, b - s
        high = hi.bit_length() + bh
        mid = high + 2
        return (karatsuba_mult_classical(lo, s, mid) + add_registers(mid, c)
                + karatsuba_mult_classical(hi, bh, high) + add_registers(high, c - 2 * s)
                + add_registers(high, mid) + s + add_registers(bh, bh + 1) + mid
                + add_constant(1, mid) + karatsuba_mult_classical(lo + hi, bh + 1, mid)
                + add_registers(mid, c - s))

    def montgomery_reduce(t, modulus):
        nm = modulus.bit_length()
        R = 1 << nm
        mult = karatsuba_mult_classical if method == "karatsuba" else schoolbook_mult_classical
        # m = T * N' mod R, T += m * modulus, the comparator and its flag's
        # X, then the conditional add of the modulus between its CNOTs
        return (schoolbook_mult_classical(-pow(modulus, -1, R) % R, nm, nm, nm)
                + mult(modulus, nm, t) + add_constant((1 << (nm + 1)) - modulus, nm + 2)
                + 1 + 2 * modulus.bit_count() + add_registers(nm, nm + 1))

    n = N.bit_length()
    k = 3 ** lift_m
    modulus = k * k * N
    width = n + 2 * lift_m
    # the x3 chain: 2w CNOTs per stage of width w, and its carries' Toffolis
    gates = sum(2 * w + max(0, 3 * w - 4) for w in range(n, width, 2))
    t = max(2 * width, 2 * modulus.bit_length()) + 1
    square = karatsuba_square if method == "karatsuba" else schoolbook_square
    return gates + square(width, t) + montgomery_reduce(t, modulus)


# ---------------------------------------------------------------------------
# evaluation: one gate loop over bit-sliced lanes
#
# Row q of the state is an int whose bit j is qubit q's value in lane j, the
# bit-slicing of Biham's software DES, so one int operation applies a gate
# to every lane.  A lane is one input (classical evaluation) or one branch
# of one run (two-branch evaluation).

# _LANE_DIGITS[j] reads a byte as the binary digit "1" where its bit j is set
_LANE_DIGITS = tuple(bytes(b"01"[(b >> j) & 1] for b in range(256)) for j in range(8))


def _transpose(rows, width) -> list:
    """Bit-matrix transpose: bit j of rows[i] becomes bit i of out[j], for
    rows below 2**width.  Packs per-lane values into qubit rows, and
    unpacks rows into per-lane values.

    Each row becomes nb = ceil(width / 8) little-endian bytes, last row
    first; lane j is then byte j >> 3 of every row, one slice of the
    packed data, translated into binary digits by its bit j & 7."""
    if not width:
        return []
    if not rows:
        return [0] * width
    nb = (width + 7) >> 3
    if nb == 1:
        data = bytes(reversed(rows))
    else:
        data = b"".join([row.to_bytes(nb, "little") for row in reversed(rows)])
    return [int(data[j >> 3::nb].translate(_LANE_DIGITS[j & 7]), 2) for j in range(width)]


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


@dataclass
class _Lanes:
    rows: list  # final row of every qubit; a discarded qubit's row is 0
    y_rows: list  # rows of the y register at MEASURE_Y
    garbage: list  # discarded rows in discard order (without draw_h)
    phase: int  # noisy-pair phase bits, bit j for run j
    clean_phase: int  # the same h against the clean pair


def _run_lanes(circuit: Circuit, inputs, runs=0, errors=(), draw_h=None) -> _Lanes:
    """Run the circuit's program once over one lane per input (x register
    = input).

    With runs = R > 0 the lanes are blocks of R: noisy branch 0, noisy
    branch 1 and, when given, clean branch 0 and clean branch 1.  errors,
    (unitary gate, run, pick, pauli) in gate-major order as _sampled_errors
    yields them, strike the noisy pair of their run right after the gate;
    the program runs in error-free slices between them, each next error
    taken once the previous one has struck; a Z or Y error folds into the
    noisy pair's phase.

    A discarded row joins `garbage`, unless draw_h is given: then each
    discard event takes draw_h(R * width), whose bits [i R, (i + 1) R) are
    the R Hadamard outcomes h of its qubit i, and folds h & (b0 xor b1)
    into the noisy pair's phase and, with the same h, into the clean
    pair's: the phase the verifier recomputes from the claw.
    """
    x_reg = circuit.registers["x"]
    if any(x < 0 or x.bit_length() > len(x_reg) for x in inputs):
        raise MalformedCircuit("input does not fit the x register")
    schedule = circuit.schedule
    program = schedule.program
    full = (1 << len(inputs)) - 1
    loads = dict(zip(x_reg, _transpose(inputs, len(x_reg))))
    rows = [0] * circuit.n_qubits
    garbage = []
    run_mask = (1 << runs) - 1
    phase = clean = 0
    y_rows = None
    errors = iter(errors)
    err = next(errors, None)
    if err is not None:
        unitary, marks = schedule.unitary, schedule.marks
    start = 0
    while True:
        if err is not None and err[0] < unitary:
            u = err[0]
            stop = u + bisect_right(marks, u) + 1  # just past gate u
            segment = program[start:stop]
        else:
            err = None
            segment = program[start:] if start else program
        for gate in segment:
            tag = gate[0]
            if tag is TOFFOLI:
                rows[gate[3]] ^= rows[gate[1]] & rows[gate[2]]
            elif tag is CNOT:
                rows[gate[2]] ^= rows[gate[1]]
            elif tag is DISCARD:
                if draw_h is not None:
                    hs = draw_h(runs * len(gate[1]))
                    for q in gate[1]:
                        row = rows[q]
                        rows[q] = 0
                        h = hs & run_mask
                        hs >>= runs
                        row ^= row >> runs  # b0 xor b1, and 2R lanes up c0 xor c1
                        phase ^= h & row
                        clean ^= h & (row >> 2 * runs)
                else:
                    for q in gate[1]:
                        garbage.append(rows[q])
                        rows[q] = 0
            elif tag is X:
                rows[gate[1]] ^= full
            elif tag is ALLOC:
                rows[gate[1]] = loads[gate[1]]
            elif tag is MEASURE_Y:
                y_rows = [rows[q] for q in gate[1]]
        if err is None:
            break
        _, lo, pick, pauli = err
        gate = program[stop - 1]
        q = gate[1 + pick % (len(gate) - 1)]
        hi = lo + runs
        row = rows[q]
        if pauli != "X":  # Z or Y: sign flip where the two branches differ
            phase ^= (((row >> lo) ^ (row >> hi)) & 1) << lo
        if pauli != "Z":  # X or Y: bit flip in both branches
            rows[q] = row ^ (1 << lo) ^ (1 << hi)
        start = stop
        err = next(errors, None)
    if y_rows is None:
        raise MalformedCircuit("circuit has no MEASURE_Y")
    return _Lanes(rows=rows, y_rows=y_rows, garbage=garbage, phase=phase,
                  clean_phase=clean)


def evaluate_classical(circuit: Circuit, xs):
    """Run the circuit on each basis input in xs; returns (ys, garbage).

    Both are per-input ints; bit i of a garbage int is the i-th discarded
    qubit, in discard order and little-endian within each event.  CPHASE
    gates are diagonal and have no effect on basis states.
    """
    xs = list(xs)
    lanes = _run_lanes(circuit, xs)
    return _transpose(lanes.y_rows, len(xs)), _transpose(lanes.garbage, len(xs))


def fold_discard_phases(hs, garbage) -> list:
    """The discard phase bit parity(h . (g0 xor g1)) of each run j: its
    Hadamard outcomes h = hs[j] against its branches' garbage strings
    g0 = garbage[j] and g1 = garbage[R + j], R = len(hs), laid out as
    evaluate_classical returns them.  Discarding leaves the branches the
    relative phase (-1)^bit."""
    R = len(hs)
    return [(h & (g0 ^ g1)).bit_count() & 1 for h, g0, g1 in zip(hs, garbage, garbage[R:])]


# ---------------------------------------------------------------------------
# two-branch evaluation (exact simulation of a claw superposition)

@dataclass
class TwoBranchRun:
    """Result of running both branches of (|x0> + |x1>) through the circuit."""

    y0: int
    y1: int
    reg0: int  # x-register value, branch 0
    reg1: int
    phase: int  # relative phase bit: the branches carry (-1)^phase
    h: int  # Hadamard outcomes, bit i for the i-th discarded qubit


def draw_run(schedule: Schedule, error_prob: float, rng):
    """The draws of one two-branch run from rng: returns (h, errors).  First
    its Hadamard outcomes h, one getrandbits(h_len) whose bit i is the i-th
    discarded qubit's; then its Pauli errors as _sampled_errors yields them,
    (gate, 0, pick, pauli), up to the last unitary gate."""
    h = rng.getrandbits(schedule.h_len)
    errors = _sampled_errors(error_prob, rng, 1) if error_prob > 0 else ()
    unitary = schedule.unitary
    return h, list(takewhile(lambda err: err[0] < unitary, errors))


def run_two_branch_block(circuit: Circuit, x0s, x1s, draws) -> list:
    """len(x0s) two-branch runs in one engine call, run j on the claw
    (x0s[j], x1s[j]) with the draws draws[j] = (h, errors) of draw_run.
    The engine keeps the noisy branches' garbage, as evaluate_classical
    does; each run's phase is its Z errors' bit xor the discard phase that
    fold_discard_phases takes from its h and that garbage, the verifier's
    rule.  Returns one TwoBranchRun per run."""
    R = len(x0s)
    errors = sorted((u, j, pick, pauli) for j, (_, errs) in enumerate(draws)
                    for u, _, pick, pauli in errs)
    lanes = _run_lanes(circuit, [*x0s, *x1s], R, errors)
    ys = _transpose(lanes.y_rows, 2 * R)
    regs = _transpose([lanes.rows[q] for q in circuit.registers["x"]], 2 * R)
    hs = [h for h, _ in draws]
    discard = fold_discard_phases(hs, _transpose(lanes.garbage, 2 * R))
    return [TwoBranchRun(y0=ys[j], y1=ys[R + j], reg0=regs[j], reg1=regs[R + j],
                         phase=(lanes.phase >> j & 1) ^ discard[j], h=hs[j])
            for j in range(R)]


def run_two_branch(circuit: Circuit, x0: int, x1: int, error_prob: float, rng):
    """One two-branch run on the claw (x0, x1), with the draws draw_run
    makes from rng: run_two_branch_block on a single run.

    Each X/CNOT/Toffoli gate independently errs with probability
    error_prob: a Pauli error (uniform over X, Y, Z) on one of its qubits.
    X flips the struck bit in both branches; Z multiplies the relative
    phase by (-1)^(b0 xor b1) of the struck qubit; Y does both.  Discards
    draw a uniform h and apply the (-1)^(h . (g0 xor g1)) rule.  The
    package itself runs blocks; bench/layers.py traces this name.
    """
    return run_two_branch_block(circuit, [x0], [x1],
                                [draw_run(circuit.schedule, error_prob, rng)])[0]


def run_two_branch_batch(circuit: Circuit, x0s, x1s, error_prob, rng):
    """R = len(x0s) independent two-branch runs, each beside a clean shadow.

    The runs share one stream: the engine draws each discard's R outcomes
    and the errors of all runs from rng as it goes.  The shadow pair
    evolves the same inputs without errors and meets the same Hadamard
    outcomes h at each discard, producing the phase the verifier would
    reconstruct from the true claw.  Returns a dict of per-run lists: the
    noisy pair's y values and x-register values, and the prover and
    verifier (shadow) phase bits.
    """
    R = len(x0s)
    errors = _sampled_errors(error_prob, rng, R) if error_prob > 0 else ()
    lanes = _run_lanes(circuit, [*x0s, *x1s, *x0s, *x1s], R, errors,
                       draw_h=rng.getrandbits)
    noisy = (1 << 2 * R) - 1  # the first 2R lanes are the noisy pair
    ys = _transpose([row & noisy for row in lanes.y_rows], 2 * R)
    regs = _transpose([lanes.rows[q] & noisy for q in circuit.registers["x"]], 2 * R)
    return {
        "y0": ys[:R],
        "y1": ys[R:],
        "reg0": regs[:R],
        "reg1": regs[R:],
        "phase_prover": _transpose([lanes.phase], R),
        "phase_verifier": _transpose([lanes.clean_phase], R),
    }


# ---------------------------------------------------------------------------
# resource accounting

def _tally(gates, n_qubits) -> tuple:
    """(gates, Toffolis, depth) of gate tuples in the Circuit.gates shape over
    qubits 0..n_qubits-1, the depth by greedy qubit-disjoint layering.

    ALLOC/DISCARD/MEASURE_Y are bookkeeping, not gates; they do not count
    toward totals or depth.  A CPHASE's last field is not read.
    """
    total = toffoli = depth = 0
    layer = [0] * n_qubits
    for g in gates:
        tag = g[0]
        if tag == TOFFOLI:
            _, a, b, t = g
            toffoli += 1
            lv = layer[a]
            if layer[b] > lv:
                lv = layer[b]
            if layer[t] > lv:
                lv = layer[t]
            lv += 1
            layer[a] = layer[b] = layer[t] = lv
        elif tag == CNOT:
            _, a, t = g
            lv = layer[a]
            if layer[t] > lv:
                lv = layer[t]
            lv += 1
            layer[a] = layer[t] = lv
        elif tag == CPHASE:
            _, controls, t, _ = g
            lv = layer[t]
            for c in controls:
                if layer[c] > lv:
                    lv = layer[c]
            lv += 1
            layer[t] = lv
            for c in controls:
                layer[c] = lv
        elif tag == X:
            t = g[1]
            lv = layer[t] = layer[t] + 1
        else:
            continue
        total += 1
        if lv > depth:
            depth = lv
    return total, toffoli, depth


def count_resources(circuit: Circuit) -> ResourceReport:
    """Gate totals plus a greedy qubit-disjoint layering depth.

    ALLOC/DISCARD/MEASURE_Y are bookkeeping, not gates; they do not count
    toward totals or depth.
    """
    total, toffoli, depth = _tally(circuit.gates, circuit.n_qubits)
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

# output bits beyond n the phase circuits read out
PHASE_EXTRA_BITS = 3


def _counter_width(n):
    """Bits of variant 2's pair counter: a control sum has at most n // 2
    coincident pairs."""
    return (n // 2 + 1).bit_length()


def _phase_ancillas(variant, n):
    """Qubits variant 2 adds after the y register: t, counter and carries."""
    return 1 + 2 * _counter_width(n) if variant == 2 else 0


def phase_circuit_resources(variant, n) -> ResourceReport:
    """Resource count of the phase circuits, in closed form from n.

    Variant 1 reuses a single output qubit (qubit n), measured and reset
    once per output bit, so its qubit count is n + 1 and, since every gate
    touches that qubit, its depth equals its gate count: one CPHASE per
    output bit and term.  The per-bit Hadamards and the classically
    conditioned readout rotations fall outside the counted gate set.
    Variant 2 keeps the full output register plus the pair counter, laid
    out as in tests/helpers.py's phase_schedule, and is counted one control
    sum at a time.
    """
    if n < 8:
        raise CircuitError("resource estimates are defined for n >= 8")
    m = n + PHASE_EXTRA_BITS
    if variant == 1:
        gates = depth = m * n * (n + 1) // 2
        return ResourceReport(qubits=n + 1, total_gates=gates, toffoli_count=0, depth=depth)
    if variant != 2:
        raise CircuitError(f"unknown phase circuit variant {variant}")
    # The block of control sum s has P pairs.  Each pair is two Toffolis
    # onto the pair flag t around an L-bit increment of 4L - 3 gates
    # (2L - 2 Toffolis), in compute and in uncompute; between them run L
    # counter rows of m CPHASEs and, for even s, the x_{s/2} row.
    # Depth: each block with pairs begins and ends with a Toffoli on t, and
    # the pairless first and last blocks share x_0 and x_{n-1} with their
    # neighbours, so the blocks run one after another and the depth is a
    # sum over blocks.  Within a block, each pair advances t by 3L layers in
    # compute and 3L in uncompute; the counter rows add m - 4 to that
    # (m - 2 when L = 1).  The x_{s/2} row is never on the critical path.
    gates = toffoli = depth = 0
    for s in range(2 * n - 1):
        P = (s + 1) // 2 - max(0, s - n + 1)
        L = P.bit_length()
        gates += 2 * P * (4 * L - 1) + L * m + (0 if s % 2 else m)
        toffoli += 4 * P * L
        depth += m + (6 * L * P - 4 if L >= 2 else 4 if P == 1 else 0)
    return ResourceReport(qubits=n + m + _phase_ancillas(2, n), total_gates=gates,
                          toffoli_count=toffoli, depth=depth)
