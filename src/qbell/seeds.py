"""Deterministic RNG derivation.

Every source of randomness in the package is a `random.Random` keyed by an
explicit integer seed, so identical seeds reproduce identical runs byte for
byte, independent of platform hash randomization.  Key generation seeds a
Mersenne Twister with the key seed itself (`tcf`); every other stream is
keyed by a seed plus a label path, in one of two generators:

- `derive_rng`: a Mersenne Twister seeded from the SHA-256 of the path.  It
  serves the streams seeded once per session or iteration and drawn from at
  length: the verifier's, the sweep's, the extractor's probes and the noisy
  prover's round-1 attempts.
- `CounterRandom`: a counter-based stream.  It serves a simulated prover's
  per-message streams (`provers.ProverBase._rng`): the ideal and cheater
  provers' round 1, every preimage answer and every prover's rounds 2 and
  3.  Those are keyed once per message, and rewinding keys them again, so
  they skip the Twister's 624-word seeding.  A message that draws once
  (rounds 2 and 3 and the preimage answer) reads block 0 of its path's
  stream directly through `first_bits`: the same bits, with no stream
  object.

Snapshots and child seeds are `derive_seed` values.
"""

from __future__ import annotations

import hashlib
import random


def _path(seed, labels) -> bytes:
    return "|".join([str(int(seed)), *map(str, labels)]).encode()


def derive_seed(seed, *labels) -> int:
    """Hash (seed, labels...) into a 64-bit child seed."""
    return int.from_bytes(hashlib.sha256(_path(seed, labels)).digest()[:8], "little")


def derive_rng(seed, *labels) -> random.Random:
    """A fresh Mersenne Twister stream for the given label path."""
    return random.Random(derive_seed(seed, *labels))


_BLOCK_BITS = 512  # one blake2b digest


def _bits(key: bytes, counter: int, k: int) -> int:
    """The top k bits of the ceil(k / 512) blocks from `counter` on, joined
    little-endian, where block n is blake2b(n, key=key).  A draw of 1 to
    512 bits reads its one block with no join, and gets the same bits; a
    draw of 0 bits reads no block."""
    if 0 < k <= _BLOCK_BITS:
        block = hashlib.blake2b(counter.to_bytes(8, "little"), key=key).digest()
        return int.from_bytes(block, "little") >> (_BLOCK_BITS - k)
    if k < 0:
        raise ValueError("number of bits must be non-negative")
    n = -(-k // _BLOCK_BITS)
    blocks = b"".join([hashlib.blake2b(i.to_bytes(8, "little"), key=key).digest()
                       for i in range(counter, counter + n)])
    return int.from_bytes(blocks, "little") >> (n * _BLOCK_BITS - k)


def first_bits(path: bytes, k: int) -> int:
    """CounterRandom(seed, *labels).getrandbits(k) on a fresh stream, from
    the path's bytes, path = _path(seed, labels), with no stream object."""
    return _bits(hashlib.blake2b(path).digest(), 0, k)


class CounterRandom(random.Random):
    """The stream of a label path as keyed hashes of a counter (Salmon et
    al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011).

    The key is the blake2b digest of the path, and block n is
    blake2b(n, key=key): 512 bits.  getrandbits(k) joins the next
    ceil(k / 512) blocks and keeps their top k bits (`_bits`); random()
    takes 53.
    The key and the counter are the whole state, so the inherited
    randrange, choice and the like draw through getrandbits, and the
    methods that would seed, save or restore the Twister's state, or keep
    gauss's cached second value, raise instead.
    """

    def __init__(self, seed, *labels):
        # Python 3.11's C Random seeds in __init__, which this replaces, so
        # no Twister is seeded; 3.10 seeded in __new__ from these arguments
        self._key = hashlib.blake2b(_path(seed, labels)).digest()
        self._counter = 0

    def getrandbits(self, k: int) -> int:
        bits = _bits(self._key, self._counter, k)
        self._counter += -(-k // _BLOCK_BITS)
        return bits

    def random(self) -> float:
        return self.getrandbits(53) * 2.0 ** -53

    def _unsupported(self, *args, **kwargs):
        raise NotImplementedError("a counter stream is fixed by its label path; "
                                  "it has no state to seed, save or restore")

    seed = getstate = setstate = gauss = _unsupported
