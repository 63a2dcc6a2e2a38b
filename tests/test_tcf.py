"""Tests for the trapdoor claw-free families."""

import copy
import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell import tcf

from helpers import (TooLarge, blum_semiprimes, ddh_secret_from_claw, reference_rabin_invert,
                     unpaired_fraction)

KEY77 = tcf.RabinKeyPair(N=77, p=11, q=7)
KEYS64 = [tcf.rabin_gen(64, s) for s in range(3)]


@st.composite
def key_and_image(draw):
    """A 64-bit key and y in [0, N): any value, a square, 0, or a multiple
    of p or of q, and the square of one."""
    keys = draw(st.sampled_from(KEYS64))
    N, p, q = keys.N, keys.p, keys.q
    kind = draw(st.sampled_from(["any", "square", "zero", "p", "q", "p-square", "q-square"]))
    if kind == "any":
        return keys, draw(st.integers(0, N - 1))
    if kind == "square":
        x = draw(st.integers(0, tcf.rabin_domain_size(N) - 1))
        return keys, x * x % N
    if kind == "zero":
        return keys, 0
    factor, other = (p, q) if kind[0] == "p" else (q, p)
    y = factor * draw(st.integers(0, other - 1))
    return keys, (y * y % N if kind.endswith("square") else y)


class TestRabinEval:
    def test_worked_square(self):
        assert tcf.rabin_eval(77, 9) == 4  # 81 - 77

    def test_zero(self):
        assert tcf.rabin_eval(77, 0) == 0

    def test_out_of_domain(self):
        with pytest.raises(tcf.DomainError):
            tcf.rabin_eval(77, 40)
        with pytest.raises(tcf.DomainError):
            tcf.rabin_eval(77, -1)

    def test_domain_boundary(self):
        # ceil(77/2) = 39, so 38 is the largest valid input
        assert tcf.rabin_eval(77, 38) == 38 * 38 % 77
        with pytest.raises(tcf.DomainError):
            tcf.rabin_eval(77, 39)


class TestRabinInvert:
    def test_claw_of_four(self):
        # roots of 4 mod 77 are {2, 9, 68, 75}; only 2 and 9 are below 38.5
        assert tcf.rabin_invert(KEY77, 4) == {2, 9}

    def test_nonresidue(self):
        # 5 is a quadratic non-residue mod 7
        assert tcf.rabin_invert(KEY77, 5) == set()

    def test_zero_single_root(self):
        assert tcf.rabin_invert(KEY77, 0) == {0}

    def test_matches_enumeration_for_all_small_blum_moduli(self):
        for N, p, q in blum_semiprimes(10000):
            keys = tcf.RabinKeyPair(N=N, p=p, q=q)
            bound = tcf.rabin_domain_size(N)
            by_image = {}
            for x in range(bound):
                by_image.setdefault(x * x % N, set()).add(x)
            for y in range(N):
                assert tcf.rabin_invert(keys, y) == by_image.get(y, set()), (N, y)

    @settings(max_examples=400, deadline=None)
    @given(key_and_image())
    def test_matches_four_candidate_loop_on_64_bit_keys(self, case):
        keys, y = case
        assert tcf.rabin_invert(keys, y) == reference_rabin_invert(keys, y)


class TestFactorFromClaw:
    def test_worked_claw(self):
        assert tcf.factor_from_claw(77, tcf.Claw(2, 9, 4)) == (11, 7)

    def test_small_modulus(self):
        # 2^2 = 4 and 5^2 = 25 = 4 mod 21
        assert tcf.factor_from_claw(21, tcf.Claw(2, 5, 4)) == (7, 3)

    def test_trivial_partner_rejected(self):
        # 75 = -2 mod 77: gcd(77, 77) and gcd(73, 77) are both trivial
        with pytest.raises(tcf.NotAClaw):
            tcf.factor_from_claw(77, tcf.Claw(2, 75, 4))

    def test_every_inverted_claw_factors(self):
        keys = tcf.rabin_gen(24, 4)
        rng = random.Random(0)
        for _ in range(50):
            x = rng.randrange(tcf.rabin_domain_size(keys.N))
            roots = tcf.rabin_invert(keys, tcf.rabin_eval(keys.N, x))
            if len(roots) == 2:
                a, b = sorted(roots)
                p, q = tcf.factor_from_claw(keys.N, tcf.Claw(a, b, x * x % keys.N))
                assert p * q == keys.N and p not in (1, keys.N)


class TestRabinGen:
    def test_invariants(self):
        keys = tcf.rabin_gen(32, 1)
        assert keys.N == keys.p * keys.q
        assert keys.p != keys.q
        assert keys.p % 4 == 3 and keys.q % 4 == 3
        rng = random.Random(0)
        assert tcf.is_probable_prime(keys.p, rng)
        assert tcf.is_probable_prime(keys.q, rng)
        assert abs(keys.N.bit_length() - 32) <= 1

    def test_smallest_size(self):
        keys = tcf.rabin_gen(6, 0)
        assert keys.p % 4 == 3 and keys.q % 4 == 3
        assert abs(keys.N.bit_length() - 6) <= 1

    def test_precondition(self):
        with pytest.raises(tcf.DomainError):
            tcf.rabin_gen(4, 0)

    def test_deterministic_given_seed(self):
        a = tcf.rabin_gen(40, 123)
        b = tcf.rabin_gen(40, 123)
        assert a == b

    def test_round_trip_inversion(self):
        keys = tcf.rabin_gen(40, 7)
        rng = random.Random(1)
        for _ in range(200):
            x = rng.randrange(tcf.rabin_domain_size(keys.N))
            y = tcf.rabin_eval(keys.N, x)
            assert x in tcf.rabin_invert(keys, y)


# the worked 2x2 key over the subgroup of order 11 in Z_23
DDH_KEY = tcf.DdhKeyPair(
    P=23, q=11, g=2, k=2, m=4,
    gM=((2, 4), (8, 16)),
    gMs=(2, 8),
    M=((1, 2), (3, 4)), s=(1, 0),
)


class TestDdh:
    def test_eval_worked(self):
        # M x = (3, 7) for x = (1, 1): outputs (2^3, 2^7) = (8, 13)
        assert tcf.ddh_eval(DDH_KEY, 0, (1, 1)) == (8, 13)

    def test_eval_identity(self):
        assert tcf.ddh_eval(DDH_KEY, 0, (0, 0)) == (1, 1)

    def test_claw_pair(self):
        assert tcf.ddh_eval(DDH_KEY, 1, (0, 1)) == tcf.ddh_eval(DDH_KEY, 0, (1, 1))

    def test_eval_uses_public_data_only(self):
        pub = DDH_KEY.public()
        assert tcf.ddh_eval(pub, 0, (1, 1)) == (8, 13)

    def test_eval_domain_check(self):
        with pytest.raises(tcf.DomainError):
            tcf.ddh_eval(DDH_KEY, 0, (4, 0))

    def test_invert_claw(self):
        assert tcf.ddh_invert(DDH_KEY, (8, 13)) == {(0, (1, 1)), (1, (0, 1))}

    def test_invert_boundary_single(self):
        # x0 = (0,0) has x1 = -s out of range
        assert tcf.ddh_invert(DDH_KEY, (1, 1)) == {(0, (0, 0))}

    def test_invert_not_in_image(self):
        # 5 generates a coset outside <g> = subgroup of order 11
        assert tcf.ddh_invert(DDH_KEY, (5, 1)) == set()

    def test_secret_from_claw(self):
        x0, x1 = sorted(tcf.ddh_invert(DDH_KEY, (8, 13)))
        claw = tcf.Claw(x0=x0, x1=x1, y=(8, 13))
        assert ddh_secret_from_claw(claw) == DDH_KEY.s

    def test_gen_invariants(self):
        key = tcf.ddh_gen(2, 10, seed=5)
        assert key.m == 4
        assert pow(key.g, key.q, key.P) == 1 and key.g != 1
        assert tcf.matrix_inv_mod(key.M, key.q) is not None
        for i in range(key.k):
            for j in range(key.k):
                assert key.gM[i][j] == pow(key.g, key.M[i][j], key.P)

    def test_gen_precondition(self):
        with pytest.raises(tcf.DomainError):
            tcf.ddh_gen(0, 10, seed=1)

    def test_round_trip(self):
        key = tcf.ddh_gen(2, 10, seed=9)
        rng = random.Random(2)
        for _ in range(200):
            x = (rng.randrange(2), tuple(rng.randrange(key.m) for _ in range(key.k)))
            y = tcf.evaluate(key, x)
            assert x in tcf.invert(key, y)

    def test_invert_matches_brute_force(self):
        for seed in (1, 2, 3):
            key = tcf.ddh_gen(2, 7, seed=seed)
            if key.P > 100:
                continue
            table = {}
            for b in (0, 1):
                for x0 in range(key.m):
                    for x1 in range(key.m):
                        y = tcf.ddh_eval(key, b, (x0, x1))
                        table.setdefault(y, set()).add((b, (x0, x1)))
            for y, pre in table.items():
                assert tcf.invert(key, y) == pre

    def test_claw_fraction_matches_enumeration(self):
        key = tcf.ddh_gen(2, 10, seed=11)
        total = 0
        unpaired = 0
        for b in (0, 1):
            for x0 in range(key.m):
                for x1 in range(key.m):
                    total += 1
                    y = tcf.ddh_eval(key, b, (x0, x1))
                    if len(tcf.invert(key, y)) != 2:
                        unpaired += 1
        assert Fraction(unpaired, total) == unpaired_fraction(key.k, key.m, key.s)


class TestUnpairedFraction:
    def test_single_coordinate(self):
        assert unpaired_fraction(1, 4, (1,)) == Fraction(1, 4)

    def test_zero_secret(self):
        assert unpaired_fraction(2, 4, (0, 0)) == 0

    def test_tiny_range(self):
        assert unpaired_fraction(1, 2, (1,)) == Fraction(1, 2)

    def test_budget(self):
        with pytest.raises(TooLarge):
            unpaired_fraction(21, 2, (1,) * 21)

    def test_closed_form_exponent_is_hamming_weight(self):
        # enumerated truth: the orphan fraction depends on hw(s), not on k
        for k, s in ((3, (1, 0, 0)), (3, (1, 1, 0)), (3, (1, 1, 1))):
            got = unpaired_fraction(k, 4, s)
            hw = sum(s)
            assert got == 1 - Fraction(3, 4) ** hw


class TestDomain:
    """Each key class owns its domain: sampling, register width and the
    register-string encoding."""

    KEYS = (KEY77, tcf.ddh_gen(2, 10, seed=3), tcf.ddh_gen(3, 12, seed=2))

    def test_sample_draws_in_family_order(self):
        ddh = self.KEYS[1]
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            assert KEY77.sample(rng) == ref.randrange(39)
            assert ddh.sample(rng) == (ref.randrange(2), (ref.randrange(ddh.m),
                                                          ref.randrange(ddh.m)))
            assert rng.random() == ref.random()

    def test_ddh_register_layout(self):
        ddh = self.KEYS[1]  # k = 2, m = 4: two bits per entry
        assert ddh.width == 5
        assert ddh.encode((1, (3, 2))) == 1 | 3 << 1 | 2 << 3
        assert ddh.decode(1 | 3 << 1 | 2 << 3) == (1, (3, 2))

    @pytest.mark.parametrize("keys", KEYS, ids=("rabin", "ddh2", "ddh3"))
    def test_register_round_trip(self, keys):
        rng = random.Random(1)
        for _ in range(200):
            x = keys.sample(rng)
            bits = keys.encode(x)
            assert 0 <= bits < 1 << keys.width
            assert keys.decode(bits) == x


def inverted_partner(keys, x):
    """The other element of tcf.invert's preimages of f(x), or None."""
    preimages = tcf.invert(keys, tcf.evaluate(keys, x))
    assert x in preimages
    return next(iter(preimages - {x})) if len(preimages) == 2 else None


RABIN_KEYS = (KEY77,) + tuple(tcf.rabin_gen(n, n)
                              for n in (16, 32, 64))
DDH_KEYS = (DDH_KEY, tcf.ddh_gen(2, 10, seed=9), tcf.ddh_gen(3, 12, seed=24))


class TestPartner:
    """keys.partner(x) is the closed-form claw partner: the other preimage
    trapdoor inversion finds for f(x), or None where it finds only x."""

    @given(st.sampled_from(RABIN_KEYS), st.sampled_from(("any", "p", "q")),
           st.integers(min_value=0, max_value=2 ** 80))
    @settings(max_examples=300, deadline=None)
    def test_rabin_matches_invert(self, keys, kind, raw):
        size = tcf.rabin_domain_size(keys.N)
        # x = 0 and multiples of p or q have x as the only root of x^2
        step = {"any": 1, "p": keys.p, "q": keys.q}[kind]
        x = step * (raw % ((size - 1) // step + 1))
        assert keys.partner(x) == inverted_partner(keys, x)
        if kind != "any":
            assert keys.partner(x) is None

    def test_rabin_exhaustive_on_small_moduli(self):
        for N, p, q in blum_semiprimes(600):
            keys = tcf.RabinKeyPair(N=N, p=p, q=q)
            for x in range(tcf.rabin_domain_size(N)):
                assert keys.partner(x) == inverted_partner(keys, x), (N, x)

    @given(st.sampled_from(DDH_KEYS), st.integers(0, 1),
           st.lists(st.integers(min_value=0, max_value=2 ** 16), min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_ddh_matches_invert(self, key, b, raw):
        x = (b, tuple(r % key.m for r in raw[:key.k]))
        assert key.partner(x) == inverted_partner(key, x)

    @pytest.mark.parametrize("key", DDH_KEYS[1:], ids=("k2", "k3"))
    def test_ddh_unpaired_samples(self, key):
        # (0, v) with v_i = 0 where s_i = 1, and (1, v) with v_i = m - 1
        for i in (i for i, si in enumerate(key.s) if si):
            for b, edge in ((0, 0), (1, key.m - 1)):
                x = (b, tuple(edge if j == i else 1 for j in range(key.k)))
                assert key.partner(x) is None
                assert inverted_partner(key, x) is None
        unpaired = sum(key.partner((b, v)) is None
                       for b in (0, 1) for v in product(range(key.m), repeat=key.k))
        assert Fraction(unpaired, 2 * key.m ** key.k) == \
            unpaired_fraction(key.k, key.m, key.s)

    @pytest.mark.parametrize("keys, x", [(KEY77, 2), (DDH_KEY, (0, (1, 1)))],
                             ids=("rabin", "ddh"))
    def test_public_key_has_no_partner(self, keys, x):
        assert keys.partner(x) is not None
        with pytest.raises(tcf.DomainError):
            keys.public().partner(x)

    @pytest.mark.parametrize("keys, x", [(KEY77, 39), (KEY77, -1), (DDH_KEY, (0, (4, 0))),
                                         (DDH_KEY, (2, (1, 1)))])
    def test_outside_domain(self, keys, x):
        with pytest.raises(tcf.DomainError):
            keys.partner(x)

    def test_cached_constants_leave_the_key_as_it_was(self):
        for keys in (tcf.rabin_gen(40, 3),
                     tcf.ddh_gen(3, 12, seed=24)):
            text = tcf.key_to_json(keys)
            fresh = tcf.key_from_json(text)
            x = keys.sample(random.Random(0))
            keys.partner(x)
            tcf.invert(keys, tcf.evaluate(keys, x))
            assert keys == fresh and hash(keys) == hash(fresh)
            assert keys.public() == fresh.public()
            assert tcf.key_to_json(keys) == text


class TestSerialization:
    def test_rabin_round_trip(self):
        keys = tcf.rabin_gen(40, 3)
        assert tcf.key_from_json(tcf.key_to_json(keys)) == keys

    def test_rabin_public_form_omits_secrets(self):
        text = tcf.key_to_json(KEY77, include_secret=False)
        assert '"p"' not in text and '"q"' not in text
        pub = tcf.key_from_json(text)
        assert pub == KEY77.public() and not pub.has_trapdoor

    def test_ddh_round_trip(self):
        key = tcf.ddh_gen(3, 12, seed=2)
        assert tcf.key_from_json(tcf.key_to_json(key)) == key
        pub = tcf.key_from_json(tcf.key_to_json(key, include_secret=False))
        assert pub == key.public()

    def test_big_integers_as_decimal_strings(self):
        keys = tcf.rabin_gen(96, 0)
        import json
        doc = json.loads(tcf.key_to_json(keys))
        assert doc["N"] == str(keys.N) and isinstance(doc["N"], str)

    # every size keygen is run at in the tests and the bench
    @pytest.mark.parametrize("family, size", [("rabin", n) for n in (6, 16, 24, 28, 32, 40, 64,
                                                                      96, 128)]
                             + [("ddh", kb) for kb in ((1, 2), (2, 7), (2, 10), (2, 24),
                                                       (2, 60), (3, 12))])
    def test_keygen_output_round_trips(self, family, size):
        for seed in range(5):
            keys = (tcf.rabin_gen(size, seed) if family == "rabin"
                    else tcf.ddh_gen(*size, seed))
            assert tcf.key_from_json(tcf.key_to_json(keys)) == keys
            pub = tcf.key_to_json(keys, include_secret=False)
            assert tcf.key_from_json(pub) == keys.public()


    @pytest.mark.parametrize("keys, field, value", [
        (KEY77, "p", "7"),  # p q != N
        (DDH_KEY, "gMs", ["8", "2"]),  # gMs != g^(M s)
        (DDH_KEY, "M", [["2", "1"], ["3", "4"]]),  # gM != g^M
    ])
    def test_trapdoor_must_fit_the_public_key(self, keys, field, value):
        doc = dict(json.loads(tcf.key_to_json(keys)), **{field: value})
        with pytest.raises(tcf.KeyFormatError):
            tcf.key_from_json(json.dumps(doc))


DELETE = object()  # an edit that removes the field
# JSON values an edit may put in place of a key field or of one entry of it
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats(allow_nan=False)
    | st.text(max_size=6) | st.integers(-10 ** 6, 10 ** 6).map(str) | st.just("9" * 5000),
    lambda inner: st.lists(inner, max_size=3), max_leaves=10)
KEY_DOCS = [json.loads(tcf.key_to_json(keys, include_secret=full))
            for keys in (KEY77, DDH_KEY, tcf.ddh_gen(3, 12, seed=2)) for full in (True, False)]


@st.composite
def edited_key_documents(draw):
    """A key_to_json document with up to three fields, or entries of
    them, replaced or removed."""
    doc = copy.deepcopy(draw(st.sampled_from(KEY_DOCS)))
    for field, index, value in draw(st.lists(st.tuples(
            st.sampled_from(["family", "N", "p", "q", "P", "g", "k", "m", "gM", "gMs", "M",
                             "s"]),
            st.none() | st.integers(0, 2), JSON_VALUES | st.just(DELETE)), max_size=3)):
        if value is DELETE:
            doc.pop(field, None)
        elif index is not None and isinstance(doc.get(field), list) and index < len(doc[field]):
            doc[field][index] = value
        else:
            doc[field] = value
    return doc


@given(edited_key_documents() | JSON_VALUES)
@settings(max_examples=400, deadline=None)
def test_key_from_json_returns_a_working_key_or_key_format_error(doc):
    # a document is a key whose sampling, evaluation and trapdoor work, or
    # a KeyFormatError
    try:
        keys = tcf.key_from_json(json.dumps(doc))
    except tcf.KeyFormatError:
        return
    x = keys.sample(random.Random(0))
    y = tcf.evaluate(keys, x)
    if keys.has_trapdoor:
        keys.partner(x)
        tcf.invert(keys, y)


@given(st.integers(min_value=0, max_value=38))
@settings(max_examples=40, deadline=None)
def test_eval_invert_round_trip_property(x):
    y = tcf.rabin_eval(77, x)
    assert x in tcf.rabin_invert(KEY77, y)


def test_claw_requires_distinct_preimages():
    with pytest.raises(tcf.DomainError):
        tcf.Claw(x0=3, x1=3, y=9)
