"""Trapdoor claw-free function families and their number-theory support.

Two constructions are provided. The first is Rabin's squaring function
x^2 mod N over a Blum modulus N = p*q (p, q = 3 mod 4), with the domain
restricted to [0, ceil(N/2)) so that the trivial collisions (x, N-x) are
removed and every image has at most one colliding pair. The second is a
matrix Diffie-Hellman family over a prime-order subgroup: f_b(x) =
g^(M(x + b*s)) evaluated elementwise, invertible with the trapdoor (M, s)
because the vector entries are small enough for brute-force discrete logs.

Finding a claw for the Rabin family factors N (gcd of the root sums);
finding one for the DDH family reveals the secret shift s.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd


class DomainError(ValueError):
    """Input outside the function's domain or parameter range."""


class NotAClaw(ValueError):
    """Alleged claw yields no nontrivial factor."""


class KeyFormatError(DomainError):
    """A key document that key_to_json could not have written."""


MILLER_RABIN_ROUNDS = 40
MIN_MODULUS_BITS = 6


# ---------------------------------------------------------------------------
# number-theory helpers

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, rng: random.Random) -> bool:
    """Miller-Rabin with MILLER_RABIN_ROUNDS random bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(MILLER_RABIN_ROUNDS):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def gen_prime(bits: int, rng: random.Random, residue_3mod4: bool = False) -> int:
    """Random prime of exactly `bits` bits, optionally forced to 3 mod 4."""
    if bits < 2:
        raise DomainError(f"cannot sample a {bits}-bit prime")
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if residue_3mod4:
            c |= 3
        if c.bit_length() != bits:
            continue
        if is_probable_prime(c, rng):
            return c


def sqrt_mod_blum_prime(y: int, p: int):
    """Square root of y mod p for p = 3 mod 4, or None if y is a non-residue."""
    a = pow(y % p, (p + 1) // 4, p)
    if a * a % p == y % p:
        return a
    return None


def matrix_inv_mod(mat, q: int):
    """Inverse of a square matrix over Z_q (q prime), or None if singular."""
    k = len(mat)
    aug = [list(row) + [int(i == j) for j in range(k)] for i, row in enumerate(mat)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if aug[r][col] % q != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, q)
        aug[col] = [v * inv % q for v in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] % q != 0:
                factor = aug[r][col]
                aug[r] = [(v - factor * w) % q for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


# ---------------------------------------------------------------------------
# key material

@dataclass(frozen=True)
class RabinKeyPair:
    """Public modulus N = p*q with the factorization as trapdoor."""

    N: int
    p: int | None = None
    q: int | None = None

    @property
    def family(self) -> str:
        return "rabin"

    @property
    def has_trapdoor(self) -> bool:
        return self.p is not None and self.q is not None

    def public(self) -> "RabinKeyPair":
        return RabinKeyPair(N=self.N)

    # Domain members.  A domain element x in [0, ceil(N/2)) is its own
    # register string, N.bit_length() bits wide; an image is one integer
    # in [0, N).
    image_len = None

    @property
    def image_modulus(self) -> int:
        return self.N

    @property
    def width(self) -> int:
        return self.N.bit_length()

    def sample(self, rng) -> int:
        return rng.randrange(rabin_domain_size(self.N))

    def encode(self, x: int) -> int:
        return x

    decode = encode

    # Trapdoor members.  The roots of x^2 in the domain are x and x*u mod N
    # folded into it, where u = cp - cq is the nontrivial square root of 1
    # from the CRT basis (u = 1 mod p, -1 mod q).
    @cached_property
    def crt(self) -> tuple:
        """CRT basis (cp, cq): cp = 1 mod p, 0 mod q; cq = 0 mod p, 1 mod q."""
        N, p, q = self.N, self.p, self.q
        return q * pow(q, -1, p) % N, p * pow(p, -1, q) % N

    def partner(self, x: int):
        """The other preimage of x^2 in the domain, or None when x is 0 or
        shares a factor with N (then x^2 has x as its only root there)."""
        if not self.has_trapdoor:
            raise DomainError("the claw partner requires the trapdoor (p, q)")
        if not (0 <= x < rabin_domain_size(self.N)):
            raise DomainError(f"x={x} outside [0, {rabin_domain_size(self.N)}) for N={self.N}")
        cp, cq = self.crt
        z = x * (cp - cq) % self.N
        z = min(z, self.N - z)
        return None if z == x else z


@dataclass(frozen=True)
class DdhKeyPair:
    """Matrix DDH key over a prime-order-q subgroup of Z_P^*.

    gM[i][j] = g^M[i][j]; gMs[i] = g^((M s)[i]).  The secrets M and s are
    None in the published form.
    """

    P: int
    q: int
    g: int
    k: int
    m: int
    gM: tuple
    gMs: tuple
    M: tuple | None = None
    s: tuple | None = None

    @property
    def family(self) -> str:
        return "ddh"

    @property
    def has_trapdoor(self) -> bool:
        return self.M is not None and self.s is not None

    def public(self) -> "DdhKeyPair":
        return replace(self, M=None, s=None)

    # Domain members.  A domain element (b, vec) of {0,1} x Z_m^k is the
    # register string b | vec[i] << (1 + i*per), per = bitlen(m - 1); an
    # image is a vector of k group elements, checked by inversion alone.
    image_modulus = None

    @property
    def image_len(self) -> int:
        return self.k

    @property
    def width(self) -> int:
        return 1 + self.k * (self.m - 1).bit_length()

    def sample(self, rng) -> tuple:
        return (rng.randrange(2), tuple(rng.randrange(self.m) for _ in range(self.k)))

    def encode(self, x) -> int:
        b, vec = x
        per = (self.m - 1).bit_length()
        return b | sum(v << (1 + i * per) for i, v in enumerate(vec))

    def decode(self, bits: int) -> tuple:
        per = (self.m - 1).bit_length()
        return (bits & 1, tuple(bits >> (1 + i * per) & ((1 << per) - 1)
                                for i in range(self.k)))

    # Trapdoor members.  f_0(v) = f_1(v - s), so (0, v) and (1, v - s) are
    # partners whenever both lie in the box.
    @cached_property
    def M_inv(self) -> tuple:
        """M^-1 over Z_q; ddh_gen samples M invertible."""
        return matrix_inv_mod(self.M, self.q)

    def partner(self, x):
        """(0, v) -> (1, v - s) and (1, v) -> (0, v + s), or None when that
        leaves Z_m^k."""
        if not self.has_trapdoor:
            raise DomainError("the claw partner requires the trapdoor (M, s)")
        b, vec = x
        if b not in (0, 1) or len(vec) != self.k or any(not (0 <= v < self.m) for v in vec):
            raise DomainError(f"x={x} outside {{0,1}} x Z_{self.m}^{self.k}")
        sign = 1 if b else -1
        other = tuple(v + sign * si for v, si in zip(vec, self.s))
        if all(0 <= v < self.m for v in other):
            return (1 - b, other)
        return None


@dataclass(frozen=True)
class Claw:
    """Colliding pair x0 != x1 with f(x0) = f(x1) = y."""

    x0: object
    x1: object
    y: object

    def __post_init__(self):
        if self.x0 == self.x1:
            raise DomainError("a claw needs two distinct preimages")


# ---------------------------------------------------------------------------
# Rabin family

def rabin_domain_size(N: int) -> int:
    """Domain is [0, ceil(N/2)); N is odd so this is (N+1)//2."""
    return (N + 1) // 2


def rabin_gen(n_bits: int, seed: int) -> RabinKeyPair:
    """Sample a Blum modulus of n_bits (+/- 1) bits; all key randomness
    derives from seed.

    Primes are drawn at ceil(n/2) and floor(n/2) bits.  At tiny sizes a bit
    pool can contain a single 3-mod-4 prime (e.g. only 7 at 3 bits), which
    would force p == q forever; after repeated collisions the p pool is
    widened by one bit, moving N to n_bits + 1 which the contract allows.
    """
    if n_bits < MIN_MODULUS_BITS:
        raise DomainError(f"n_bits must be >= {MIN_MODULUS_BITS}, got {n_bits}")
    rng = random.Random(seed)
    p_bits = (n_bits + 1) // 2
    q_bits = n_bits // 2
    collisions = 0
    while True:
        p = gen_prime(p_bits, rng, residue_3mod4=True)
        q = gen_prime(q_bits, rng, residue_3mod4=True)
        if p == q:
            collisions += 1
            if collisions >= 25:
                p_bits += 1
                collisions = 0
            continue
        N = p * q
        if abs(N.bit_length() - n_bits) <= 1:
            return RabinKeyPair(N=N, p=max(p, q), q=min(p, q))


def rabin_eval(N: int, x: int) -> int:
    """x^2 mod N on the restricted domain [0, ceil(N/2))."""
    if not (0 <= x < rabin_domain_size(N)):
        raise DomainError(f"x={x} outside [0, {rabin_domain_size(N)}) for N={N}")
    return x * x % N


def rabin_invert(keys: RabinKeyPair, y: int) -> set:
    """All square roots of y mod N inside the restricted domain.

    Size 2 for a quadratic residue coprime to N (a claw), size 1 in the
    degenerate gcd cases, empty when y is not an image.  The four CRT
    combinations of the roots +/-a mod p and +/-b mod q are two pairs of
    negatives mod N, x and N - x, and exactly one of each pair,
    min(x, N - x), lies in the domain; so one root is computed per pair,
    (a cp + b cq) and (a cp - b cq) mod N.  Every root is verified by
    squaring before it is returned.
    """
    if not keys.has_trapdoor:
        raise DomainError("inversion requires the trapdoor (p, q)")
    N, p, q = keys.N, keys.p, keys.q
    if not (0 <= y < N):
        raise DomainError(f"y={y} outside [0, {N})")
    a = sqrt_mod_blum_prime(y, p)
    if a is None:
        return set()
    b = sqrt_mod_blum_prime(y, q)
    if b is None:
        return set()
    cp, cq = keys.crt
    ap, bq = a * cp, b * cq
    roots = set()
    for x in ((ap + bq) % N, (ap - bq) % N):
        x = min(x, N - x)
        if x * x % N == y:
            roots.add(x)
    return roots


def factor_from_claw(N: int, claw: Claw):
    """Recover (p, q) from a claw; gcd(x0 + x1, N) or gcd(|x0 - x1|, N) is a factor."""
    for candidate in (claw.x0 + claw.x1, abs(claw.x0 - claw.x1)):
        g = gcd(candidate, N)
        if 1 < g < N:
            return (max(g, N // g), min(g, N // g))
    raise NotAClaw(f"gcds of {claw.x0}+/-{claw.x1} with {N} are trivial")


# ---------------------------------------------------------------------------
# DDH family

def _find_subgroup(group_bits: int, rng: random.Random):
    """Prime q of group_bits bits, prime P = c*q + 1, and a generator of order q."""
    while True:
        q = gen_prime(group_bits, rng)
        for c in range(2, 64 * group_bits, 2):
            P = c * q + 1
            if is_probable_prime(P, rng):
                while True:
                    h = rng.randrange(2, P - 1)
                    g = pow(h, c, P)
                    if g != 1:
                        return P, q, g


def ddh_m_for_dimension(k: int) -> int:
    """Smallest power of two >= k^2."""
    target = k * k
    m = 1
    while m < target:
        m *= 2
    return m


def ddh_min_group_bits(k: int) -> int:
    """The smallest group_bits ddh_gen accepts for dimension k."""
    return ddh_m_for_dimension(k).bit_length() + 1


def ddh_gen(k: int, group_bits: int, seed: int) -> DdhKeyPair:
    """Sample a DDH key: subgroup, invertible M in Z_q^{k x k}, secret bits s."""
    if k < 1:
        raise DomainError(f"dimension k must be >= 1, got {k}")
    m = ddh_m_for_dimension(k)
    if group_bits < ddh_min_group_bits(k):
        raise DomainError(f"group_bits={group_bits} too small for m={m}")
    rng = random.Random(seed)
    P, q, g = _find_subgroup(group_bits, rng)
    while True:
        M = tuple(tuple(rng.randrange(q) for _ in range(k)) for _ in range(k))
        if matrix_inv_mod(M, q) is not None:
            break
    s = tuple(rng.randrange(2) for _ in range(k))
    Ms = tuple(sum(M[i][j] * s[j] for j in range(k)) % q for i in range(k))
    gM = tuple(tuple(pow(g, M[i][j], P) for j in range(k)) for i in range(k))
    gMs = tuple(pow(g, Ms[i], P) for i in range(k))
    return DdhKeyPair(P=P, q=q, g=g, k=k, m=m, gM=gM, gMs=gMs, M=M, s=s)


def ddh_eval(key: DdhKeyPair, b: int, x) -> tuple:
    """f_b(x) = g^(Mx) * (g^(Ms))^b, elementwise, from public data only."""
    if b not in (0, 1):
        raise DomainError(f"branch bit must be 0 or 1, got {b}")
    if len(x) != key.k or any(not (0 <= xi < key.m) for xi in x):
        raise DomainError(f"x={x} outside Z_{key.m}^{key.k}")
    out = []
    for i in range(key.k):
        acc = 1
        for j in range(key.k):
            acc = acc * pow(key.gM[i][j], x[j], key.P) % key.P
        if b:
            acc = acc * key.gMs[i] % key.P
        out.append(acc)
    return tuple(out)


def _dlog_small(key: DdhKeyPair, z: int):
    """Brute-force discrete log of z base g over [0, m]; None if absent.

    The inclusive upper end m catches images of f_1 whose shifted entries
    reach m before s is subtracted.
    """
    acc = 1
    for e in range(key.m + 1):
        if acc == z:
            return e
        acc = acc * key.g % key.P
    return None


def ddh_invert(key: DdhKeyPair, y) -> set:
    """All preimages of y: combine M^-1 rows in the exponent, brute-force logs.

    Size 2, {(0, x0), (1, x1)}, when both branches invert (a claw), size 1
    when only one does, empty when y is not an image.  Every preimage is
    verified by evaluation before it is returned.
    """
    if not key.has_trapdoor:
        raise DomainError("inversion requires the trapdoor (M, s)")
    if len(y) != key.k:
        raise DomainError(f"image vector must have length {key.k}")
    Minv = key.M_inv
    v = []
    for i in range(key.k):
        z = 1
        for j in range(key.k):
            z = z * pow(y[j], Minv[i][j], key.P) % key.P
        e = _dlog_small(key, z)
        if e is None:
            return set()
        v.append(e)
    preimages = set()
    for b, x in ((0, tuple(v)), (1, tuple(vi - si for vi, si in zip(v, key.s)))):
        if all(0 <= xi < key.m for xi in x) and ddh_eval(key, b, x) == tuple(y):
            preimages.add((b, x))
    return preimages


# ---------------------------------------------------------------------------
# family-generic helpers

def evaluate(keys, x):
    """Public evaluation for either family; x is (b, vec) for DDH."""
    if isinstance(keys, RabinKeyPair):
        return rabin_eval(keys.N, x)
    b, vec = x
    return ddh_eval(keys, b, vec)


def invert(keys, y) -> set:
    """Trapdoor inversion for either family: the set of preimages of y."""
    if isinstance(keys, RabinKeyPair):
        return rabin_invert(keys, y)
    return ddh_invert(keys, y)


# ---------------------------------------------------------------------------
# serialization: canonical JSON, big integers as decimal strings

def key_to_json(keys, include_secret: bool = True) -> str:
    if isinstance(keys, RabinKeyPair):
        doc = {"family": "rabin", "N": str(keys.N)}
        if include_secret and keys.has_trapdoor:
            doc["p"] = str(keys.p)
            doc["q"] = str(keys.q)
    elif isinstance(keys, DdhKeyPair):
        doc = {
            "family": "ddh",
            "P": str(keys.P),
            "q": str(keys.q),
            "g": str(keys.g),
            "k": keys.k,
            "m": keys.m,
            "gM": [[str(v) for v in row] for row in keys.gM],
            "gMs": [str(v) for v in keys.gMs],
        }
        if include_secret and keys.has_trapdoor:
            doc["M"] = [[str(v) for v in row] for row in keys.M]
            doc["s"] = list(keys.s)
    else:
        raise TypeError(f"unknown key type {type(keys)!r}")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _decimal(value, field: str, least: int = 0) -> int:
    """A key integer, written as a JSON integer or a decimal string, that
    is at least `least`; KeyFormatError for anything else."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            value = int(value)
        except ValueError:  # more digits than int() converts
            pass
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise KeyFormatError(f"key field {field!r} must be an integer >= {least}, "
                             f"got {value!r:.40}")
    return value


def _vector(value, k: int, field: str) -> tuple:
    if not isinstance(value, list) or len(value) != k:
        raise KeyFormatError(f"key field {field!r} must be a list of {k} integers")
    return tuple(_decimal(v, field) for v in value)


def _matrix(value, k: int, field: str) -> tuple:
    if not isinstance(value, list) or len(value) != k:
        raise KeyFormatError(f"key field {field!r} must be a {k} x {k} matrix")
    return tuple(_vector(row, k, field) for row in value)


def key_from_json(text: str | bytes):
    """The key a key_to_json document describes.  Any other text, from a
    key file or a wire frame, is a KeyFormatError.  Checked: a JSON object
    of a known family, integers as JSON integers or decimal strings; an
    odd Rabin modulus N >= 15 and, with the trapdoor, coprime p, q with
    p q = N; a DDH dimension k >= 1 with m = ddh_m_for_dimension(k), a
    k x k gM and a k-long gMs and, with the trapdoor, a k x k M invertible
    modulo q and a k-long bit vector s with gM = g^M and gMs = g^(M s)."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        raise KeyFormatError(f"key is not JSON: {e}") from None
    if not isinstance(doc, dict):
        raise KeyFormatError("key is not a JSON object")
    family = doc.get("family")
    if family == "rabin":
        N = _decimal(doc.get("N"), "N", 15)
        if N % 2 == 0:
            raise KeyFormatError(f"key field 'N' must be odd, got {N}")
        if "p" not in doc and "q" not in doc:
            return RabinKeyPair(N=N)
        p, q = _decimal(doc.get("p"), "p", 3), _decimal(doc.get("q"), "q", 3)
        if p * q != N or gcd(p, q) != 1:
            raise KeyFormatError("p and q must be coprime factors of N")
        return RabinKeyPair(N=N, p=p, q=q)
    if family == "ddh":
        k = _decimal(doc.get("k"), "k", 1)
        m = _decimal(doc.get("m"), "m")
        if m != ddh_m_for_dimension(k):
            raise KeyFormatError(f"key field 'm' must be {ddh_m_for_dimension(k)} for "
                                 f"k = {k}, got {m}")
        key = DdhKeyPair(P=_decimal(doc.get("P"), "P", 2), q=_decimal(doc.get("q"), "q", 2),
                         g=_decimal(doc.get("g"), "g"), k=k, m=m,
                         gM=_matrix(doc.get("gM"), k, "gM"),
                         gMs=_vector(doc.get("gMs"), k, "gMs"))
        if "M" not in doc and "s" not in doc:
            return key
        M, s = _matrix(doc.get("M"), k, "M"), _vector(doc.get("s"), k, "s")
        if any(si > 1 for si in s):
            raise KeyFormatError("key field 's' must be a bit vector")
        try:
            invertible = matrix_inv_mod(M, key.q) is not None
        except ValueError:  # a pivot with no inverse: q is not prime
            invertible = False
        if not invertible:
            raise KeyFormatError("key field 'M' must be invertible modulo q")
        Ms = tuple(sum(a * b for a, b in zip(row, s)) % key.q for row in M)
        if (key.gM != tuple(tuple(pow(key.g, v, key.P) for v in row) for row in M)
                or key.gMs != tuple(pow(key.g, v, key.P) for v in Ms)):
            raise KeyFormatError("the trapdoor (M, s) does not fit gM and gMs")
        return replace(key, M=M, s=s)
    raise KeyFormatError(f"unknown key family {family!r:.40}")
