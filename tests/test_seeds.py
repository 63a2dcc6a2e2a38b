"""The counter-based stream behind a simulated prover's messages."""

import copy
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbell.seeds import CounterRandom, _path, derive_seed, first_bits

from helpers import cli_env, reference_getrandbits

WIDTHS = (0, 1, 53, 511, 512, 513, 1500)


def draws(seed, *labels):
    rng = CounterRandom(seed, *labels)
    return [rng.getrandbits(k) for k in WIDTHS]


def test_getrandbits_fits_its_width():
    for seed in range(20):
        for k, v in zip(WIDTHS, draws(seed, "w")):
            assert 0 <= v < 2 ** k
    # the widest draws use their top bits too
    assert max(draws(seed, "w")[-1] for seed in range(20)).bit_length() > 1490


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_draws_do_not_depend_on_the_process(hash_seed):
    # str hashing is randomized per process; the stream must not be
    env = dict(cli_env(), PYTHONHASHSEED=hash_seed)
    code = ("import json; from qbell.seeds import CounterRandom; "
            f"r = CounterRandom(7, 'a', 3); print(json.dumps([r.getrandbits(k) for k in {WIDTHS}]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == draws(7, "a", 3)


def test_distinct_label_paths_give_distinct_streams():
    paths = [(s, *labels) for s in (0, 1, derive_seed(5, "iter", 0))
             for labels in [("d", 3), ("d", 4), ("m", 3, 1), ("m", 3, -1), ("d", 3, 1),
                            ("round1",), ("preimage",), ()]]
    assert len({CounterRandom(*p).getrandbits(512) for p in paths}) == len(paths)


BOUNDARY_WIDTHS = [0, 1, 53, 511, 512, 513, 1024, 1025]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64 - 1),
       st.lists(st.one_of(st.sampled_from(BOUNDARY_WIDTHS), st.integers(0, 1100)),
                max_size=24))
@example(7, BOUNDARY_WIDTHS + BOUNDARY_WIDTHS[::-1])
def test_getrandbits_matches_the_join_rule(seed, widths):
    # the one-block path for 1 to 512 bits draws what joining would
    rng = CounterRandom(seed, "w")
    counter = 0
    for k in widths:
        expected, counter = reference_getrandbits(rng._key, counter, k)
        assert rng.getrandbits(k) == expected, (k, widths)
    assert rng._counter == counter


@settings(max_examples=200, deadline=None)
@given(st.integers(-2 ** 80, 2 ** 80),
       st.lists(st.text(max_size=6) | st.integers(-2 ** 100, 2 ** 100), min_size=1,
                max_size=4),
       st.integers(0, 1536))
@example(-1, ["d", 2 ** 70], 1536)
def test_first_bits_is_a_fresh_streams_first_draw(seed, labels, k):
    # a single-draw message's path as a prover builds it: the seed's path
    # prefix, then the labels as _path writes them
    path = _path(seed, ()) + b"|" + "|".join(map(str, labels)).encode()
    assert path == _path(seed, labels)
    for width in (k, 0, 512, 513, 1024):
        assert first_bits(path, width) == CounterRandom(seed, *labels).getrandbits(width)
    assert first_bits(path, 53) * 2.0 ** -53 == CounterRandom(seed, *labels).random()


def test_random_lies_in_unit_interval():
    rng = CounterRandom(3, "u")
    xs = [rng.random() for _ in range(5000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert min(xs) < 0.01 and max(xs) > 0.99


@pytest.mark.parametrize("paths", [True, False], ids=["first-draw-per-path", "one-path"])
def test_randrange_chi_square(paths):
    # 10 cells, 9 degrees of freedom: chi^2 exceeds 33.72 with probability
    # 1e-4, so each case fails by chance with probability 1e-4.  The first
    # case draws as a prover does, once from each of many message streams
    n, cells = 20_000, 10
    if paths:
        values = [CounterRandom(11, "d", i).randrange(cells) for i in range(n)]
    else:
        rng = CounterRandom(11, "one")
        values = [rng.randrange(cells) for _ in range(n)]
    counts = [values.count(c) for c in range(cells)]
    chi2 = sum((c - n / cells) ** 2 / (n / cells) for c in counts)
    assert chi2 < 33.72


@pytest.mark.parametrize("call", [
    lambda r: r.seed(1),
    lambda r: r.getstate(),
    lambda r: r.setstate((3, tuple(range(625)), None)),
    lambda r: r.gauss(0.0, 1.0),
    copy.copy,
], ids=["seed", "getstate", "setstate", "gauss", "copy"])
def test_state_methods_raise(call):
    # no method may read, write or reseed the base class's unseeded state
    with pytest.raises(NotImplementedError):
        call(CounterRandom(1, "s"))


def test_negative_width_raises():
    with pytest.raises(ValueError):
        CounterRandom(1, "s").getrandbits(-1)
    with pytest.raises(ValueError):
        first_bits(_path(1, ("s",)), -1)
