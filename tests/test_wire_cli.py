"""Wire frames, process separation, CLI subcommands, determinism."""

import functools
import io
import json
import os
import random
import re
import socket
import subprocess
import sys
import threading
import time
import tracemalloc
from io import BytesIO
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qbell import circuits as cc
from qbell import protocol as proto
from qbell import cli, provers, tcf, wire
from qbell.cli import main as cli_main

from helpers import (cli_env, gate_count, gen_exact_bits, pipe_session, record_inversions,
                     reference_decode_frame, reference_encode_frame)


MISSING = object()  # a key frame without the field

DDH_KEY = tcf.ddh_gen(2, 10, seed=3)

# key documents that are no key, as text: not an object, a modulus that
# is not a decimal, has more digits than int() converts or is negative, and
# DDH keys whose m or gM does not fit their dimension k = 2; `full` holds
# the secret key too, as a verifier's key file does
def malformed_keys(full):
    ddh = json.loads(tcf.key_to_json(DDH_KEY, include_secret=full))
    rabin = {"p": "7", "q": "-1"} if full else {}
    docs = {"list": [1], "N-not-decimal": {"family": "rabin", "N": "abc"},
            "N-5000-digits": {"family": "rabin", "N": "9" * 5000},
            "N-negative": {"family": "rabin", "N": "-7", **rabin},
            "ddh-m-0": dict(ddh, m=0), "ddh-gM-1x1": dict(ddh, gM=[["2"]])}
    return {name: json.dumps(doc) for name, doc in docs.items()}


def session_length(value):
    """The session length a key frame's `trials` value announces: None
    when absent or null, else a nonnegative integer sent as a JSON integer
    or a string of ASCII digits after an optional "-", the only strings
    protocol.json_ints writes; wire.ParseError for anything else."""
    if value is MISSING or value is None:
        return None
    if isinstance(value, str):
        if not re.fullmatch(r"-?[0-9]+", value):
            return wire.ParseError
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        return wire.ParseError
    return value


def long_field_line(field):
    """A frame line whose v or seq is a 100,000-character string."""
    doc = {"msg": {"tag": "end"}, "seq": 0, "session": "s", "v": 1}
    doc[field] = "9" * 10 ** 5
    return json.dumps(doc).encode()


@functools.lru_cache(maxsize=None)
def noisy_setup():
    """A lifted 16-bit circuit context and half-fidelity noise for it."""
    keys = gen_exact_bits(16)
    circ = cc.build_modsquare(keys.N, lift_m=1, method="schoolbook")
    return (proto.ProtocolContext.for_circuit(keys, circ),
            provers.NoiseModel(0.5, gate_count(circ)))


class TestFrames:
    def test_round_trip(self):
        session, seq, msg = wire.decode_frame(
            wire.encode_frame("abc", 3, {"tag": "vector", "r": 12345678901234567890}))
        assert session == "abc" and seq == 3
        assert msg["tag"] == "vector"
        assert int(msg["r"]) == 12345678901234567890

    @given(st.integers(min_value=0, max_value=2 ** 128), st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, r, seq):
        line = wire.encode_frame("s", seq, {"tag": "vector", "r": r})
        _, back_seq, msg = wire.decode_frame(line)
        assert int(msg["r"]) == r and back_seq == seq

    def test_truncated_line(self):
        with pytest.raises(wire.ParseError):
            wire.decode_frame(b'{"v": 1, "session": "x"')

    def test_unknown_version(self):
        with pytest.raises(wire.ParseError, match="version"):
            wire.decode_frame(b'{"v": 9, "session": "x", "seq": 0, "msg": {"tag": "end"}}')

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_version_must_be_the_integer_1(self, version):
        # true and 1.0 compare equal to 1 in Python; the wire takes only 1
        line = b'{"msg":{"tag":"end"},"seq":0,"session":"s","v":%s}' % version.encode()
        with pytest.raises(wire.ParseError, match="^unsupported version "):
            wire.decode_frame(line)

    @pytest.mark.parametrize("field, error", [
        ("v", "unsupported version '{}"), ("seq", "sequence number '{} is not an integer")])
    def test_long_version_or_seq_is_quoted_to_40_characters(self, field, error):
        with pytest.raises(wire.ParseError) as e:
            wire.decode_frame(long_field_line(field))
        assert str(e.value) == error.format("9" * 39)

    def test_missing_tag(self):
        with pytest.raises(wire.ParseError):
            wire.decode_frame(b'{"v": 1, "session": "x", "seq": 0, "msg": {}}')

    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
        max_leaves=20))
    @settings(max_examples=300, deadline=None)
    def test_any_json_line_is_frame_or_parse_error(self, value):
        # the value as a whole line, as the sequence number and as the message
        for doc in (value,
                    {"v": 1, "session": "s", "seq": value, "msg": {"tag": "end"}},
                    {"v": 1, "session": "s", "seq": 0, "msg": value}):
            line = json.dumps(doc).encode() + b"\n"
            try:
                session, seq, msg = wire.decode_frame(line)
            except wire.ParseError:
                continue
            assert isinstance(session, str) and isinstance(seq, int) and isinstance(msg, dict)

    @given(st.lists(st.tuples(st.fixed_dictionaries(
        {"tag": st.sampled_from(["round1", "challenge", "vector", "basis", "end",
                                 "image", "key", "bogus"])},
        optional={field: st.none() | st.booleans() | st.integers() | st.floats()
                  | st.text(max_size=8) | st.integers().map(str)
                  | st.lists(st.integers(), max_size=2)
                  for field in ("r", "sign")}),
        # a frame's session: "v" in two of five draws, else another
        st.just("v") | st.just("v") | st.text(max_size=2) | st.none() | st.integers()),
        max_size=12),
        st.sampled_from(["ideal", "cheater", "noisy"]),
        st.one_of(st.just(MISSING), st.none(), st.booleans(), st.integers(-3, 100),
                  st.integers(), st.integers(10 ** 6, 10 ** 40), st.floats(),
                  st.text(max_size=8), st.integers().map(str),
                  st.lists(st.integers(), max_size=2)))
    @settings(max_examples=300, deadline=None)
    def test_any_message_sequence_is_answered_or_typed_error(self, msgs, kind, trials):
        # the key frame's session length is optional; a bool, non-integer
        # or negative one is a ParseError before any prover is built, and
        # however long the session, no engine call exceeds the pool.  The
        # prover adopts the key frame's session "v": it answers in that
        # session and reads no frame past the first from another one, which
        # is a ParseError
        keys = gen_exact_bits(16)
        key_frame = {"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False)}
        if trials is not MISSING:
            key_frame["trials"] = trials
        lines = [json.dumps({"v": 1, "session": session, "seq": i, "msg": m}).encode() + b"\n"
                 for i, (m, session) in enumerate([(key_frame, "v")] + msgs)]
        rfile, wfile = BytesIO(b"".join(lines)), BytesIO()
        ch = wire.Channel(rfile, wfile, None)
        built, sizes = [], []
        block = cc.run_two_branch_block

        def counted(circuit, x0s, x1s, draws):
            sizes.append(len(x0s))
            return block(circuit, x0s, x1s, draws)

        def make_prover(key_json, seed, length):
            built.append(length)
            if kind == "ideal":
                return provers.IdealProver(proto.ProtocolContext.plain(keys), seed)
            if kind == "cheater":
                return provers.CheaterProver(tcf.key_from_json(key_json), seed)
            ctx, noise = noisy_setup()
            return provers.NoisyCircuitProver(ctx, noise, seed, length)

        error = None
        with mock.patch.object(cc, "run_two_branch_block", counted):
            try:
                wire.prover_loop(ch, make_prover)
            except (wire.ParseError, wire.TransportError) as e:
                error = e
        expected = session_length(trials)
        assert built == ([] if expected is wire.ParseError else [expected])
        assert max(sizes, default=0) <= provers.ROUND1_POOL
        assert ch.session == "v"
        assert all(json.loads(line)["session"] == "v"
                   for line in wfile.getvalue().splitlines())
        foreign = next((i for i, (_, session) in enumerate(msgs, 1) if session != "v"), None)
        if foreign is not None:
            read_to = sum(map(len, lines[:foreign + 1]))
            assert rfile.tell() <= read_to
            if rfile.tell() == read_to:
                assert isinstance(error, wire.ParseError)

    @pytest.mark.parametrize("r, answered", [(0, True), (2 ** 16 - 1, True), (-1, False),
                                              (2 ** 16, False)])
    def test_prover_answers_only_a_vector_of_its_register_width(self, r, answered):
        # the 16-bit key's register is 16 bits wide, and an honest verifier
        # draws r below 2^16
        keys = gen_exact_bits(16)
        frames = [{"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False)},
                  {"tag": "round1"}, {"tag": "vector", "r": r}, {"tag": "end"}]
        ch = wire.Channel(BytesIO(b"".join(wire.encode_frame("v", i, m)
                                           for i, m in enumerate(frames))), BytesIO(), None)

        def play():
            wire.prover_loop(ch, lambda key_json, seed, trials: provers.CheaterProver(
                tcf.key_from_json(key_json), seed))

        if answered:
            play()
            assert wire.decode_frame(ch.wfile.getvalue().splitlines()[-1])[2]["tag"] == "equation"
        else:
            with pytest.raises(wire.ParseError, match=r"outside \[0, 2\^16\)"):
                play()

    @pytest.mark.parametrize("call, reply", [
        (lambda rp: rp.round1(), {"tag": "image", "y": "12", "h": "x"}),
        (lambda rp: rp.answer_preimage(), {"tag": "preimage"}),
        (lambda rp: rp.round2(3), {"tag": "equation", "d": 1.5}),
        (lambda rp: rp.round3(1), {"tag": "image", "y": "1"}),  # wrong reply
        # strings int() reads but json_ints never writes
        (lambda rp: rp.round1(), {"tag": "image", "y": " 7 "}),
        (lambda rp: rp.answer_preimage(), {"tag": "preimage", "x": "+5"}),
        (lambda rp: rp.round2(3), {"tag": "equation", "d": "1_000"}),
        (lambda rp: rp.round3(1), {"tag": "result", "bit": "\u0663"}),  # Arabic-Indic 3
        # Hadamard outcomes that no h_len-qubit discard can produce
        (lambda rp: rp.round1(), {"tag": "image", "y": "12", "h": 0, "h_len": -1}),
        (lambda rp: rp.round1(), {"tag": "image", "y": "12", "h": -1, "h_len": 3}),
        (lambda rp: rp.round1(), {"tag": "image", "y": "12", "h": 8, "h_len": 3}),
        (lambda rp: rp.round1(), {"tag": "image", "y": "12", "h": 1}),
        # an h_len beyond int's digit limit, which the error quotes
        (lambda rp: rp.round1(), {"tag": "image", "y": "12", "h": 0, "h_len": "-" + "9" * 5000}),
    ])
    def test_remote_prover_rejects_bad_replies(self, call, reply):
        line = json.dumps({"v": 1, "session": "v", "seq": 0, "msg": reply}).encode()
        remote = wire.RemoteProver(wire.Channel(BytesIO(line + b"\n"), BytesIO(), "v"),
                                   tcf.RabinKeyPair(N=77, p=11, q=7))
        with pytest.raises(wire.ParseError):
            call(remote)

    @pytest.mark.parametrize("family, y", [
        ("rabin", ["1", "2"]),  # a DDH-shaped image under a Rabin key
        ("ddh", "12"),
        ("ddh", ["1", "2", "3"]),  # one component too many for k = 2
    ])
    def test_image_of_wrong_shape_is_a_parse_error(self, family, y):
        keys = gen_exact_bits(16) if family == "rabin" else tcf.ddh_gen(2, 10, seed=3)
        line = json.dumps({"v": 1, "session": "v", "seq": 0,
                           "msg": {"tag": "image", "y": y}}).encode()
        remote = wire.RemoteProver(wire.Channel(BytesIO(line + b"\n"), BytesIO(), "v"), keys)
        with pytest.raises(wire.ParseError):
            proto.run_iteration(proto.ProtocolContext.plain(keys), remote,
                                random.Random(0), proto.IterationConfig())

    @given(st.integers(-2 ** 128, 2 ** 128),
           st.lists(st.integers(-2 ** 128, 2 ** 128), max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_no_json_number_beyond_2_53(self, scalar, vector):
        # frames and transcripts share one rule: a JSON number up to 2^53,
        # a decimal string beyond, and _int reads both forms back
        frame = wire.encode_frame("s", 0, {"tag": "image", "y": vector, "h": scalar,
                                          "h_len": 3})
        msg = json.loads(frame)["msg"]
        t = proto.Transcript(0, {"image": {"y": tuple(vector), "h": scalar, "h_len": 3},
                                 "vector": {"r": scalar, "n": 3}})
        payloads = [m["payload"] for m in json.loads(t.to_json())["msgs"]]
        for doc in (msg, payloads[0]):
            assert wire._int(doc["h"], "h") == scalar
            assert [wire._int(v, "y") for v in doc["y"]] == vector
        assert wire._int(payloads[1]["r"], "r") == scalar
        for v in [msg["h"], payloads[0]["h"], payloads[1]["r"]] + msg["y"] + payloads[0]["y"]:
            assert isinstance(v, str) == (abs(wire._int(v, "v")) > 2 ** 53)

    @pytest.mark.parametrize("field", ["seq", "y"])
    def test_oversized_integer_literal_is_a_parse_error(self, field):
        # json.loads refuses an integer literal longer than the interpreter's
        # digit limit (4,300 by default) with a plain ValueError
        values = {"seq": "0", "y": "1", field: "9" * 5000}
        line = f'{{"v": 1, "session": "s", "seq": {values["seq"]}, ' \
               f'"msg": {{"tag": "image", "y": {values["y"]}}}}}'.encode()
        with pytest.raises(wire.ParseError):
            wire.decode_frame(line)

    def test_big_ints_as_decimal_strings(self):
        doc = json.loads(wire.encode_frame("s", 0, {"tag": "image", "y": 2 ** 90}))
        assert doc["msg"]["y"] == str(2 ** 90)

    def test_image_beyond_the_digit_limit_round_trips(self):
        # h = 2^20000 - 1 has 6,021 digits, more than str() and int()
        # convert: the prover's image frame carries it and the verifier
        # reads it back
        h = 2 ** 20000 - 1
        sent = BytesIO()
        wire.Channel(BytesIO(), sent, "v").send({"tag": "image", "y": 5, "h": h, "h_len": 20000})
        remote = wire.RemoteProver(wire.Channel(BytesIO(sent.getvalue()), BytesIO(), "v"),
                                   gen_exact_bits(16))
        assert remote.round1() == (5, h, 20000)


# any code point, lone surrogates included: str.encode would refuse them,
# so the codec must escape them
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)

# payload values a message may carry: ints of any size (json_ints turns
# those beyond 2^53 into decimal strings), floats, any text, and lists,
# tuples and objects of them
PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 300, 2 ** 300)
    | st.floats() | ANY_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(ANY_TEXT, inner, max_size=4),
    max_leaves=12)

# every frame a Channel sends: a session named by the verifier (None before
# the prover adopts one) and a sequence number counted up from 0.  A bool
# seq is outside this domain: the envelope writes a seq as an int literal,
# where json.dumps would write true or false
FRAMES = st.tuples(st.none() | ANY_TEXT,
                   st.integers(min_value=0) | st.integers(2 ** 60, 2 ** 200),
                   st.builds(lambda tag, rest: {**rest, "tag": tag}, ANY_TEXT | PAYLOADS,
                             st.dictionaries(ANY_TEXT, PAYLOADS, max_size=4)))


def _outcome(decode, line):
    """decode(line) as comparable data: the frame's repr (NaN != NaN), or
    the ParseError's message."""
    try:
        return "frame", repr(decode(line))
    except wire.ParseError as e:
        return "ParseError", str(e)


@st.composite
def frame_lines(draw):
    """Lines near a frame: a frame or an envelope holding NaN, Infinity or
    an integer literal beyond the digit limit, with a BOM, whitespace,
    trailing data or a second object around it, and maybe invalid UTF-8."""
    frame = draw(FRAMES)
    body = reference_encode_frame(*frame).rstrip(b"\n")
    special = draw(st.sampled_from([None, "float", "digits"]))
    if special:  # the literal in place of the seq, of y or of y's first entry
        literal = (json.dumps(draw(st.floats())) if special == "float"
                   else "9" * draw(st.sampled_from([4300, 4301, 5000])))
        at = draw(st.sampled_from(["seq", "y", "y.0"]))
        doc = {"v": 1, "session": "s", "seq": 0,
               "msg": {"tag": "image", "y": ["@", 1] if at == "y.0" else 1}}
        if at == "seq":
            doc["seq"] = "@"
        elif at == "y":
            doc["msg"]["y"] = "@"
        body = json.dumps(doc, separators=(",", ":")).replace('"@"', literal).encode()
    space = st.sampled_from([b"", b" ", b"\t", b"\r\n", b"\x0b\x0c", b"\x1c\x1f",
                             "\u00a0\u3000".encode(), "\u0085".encode()])
    prefix = draw(space) + draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + draw(space)
    suffix = draw(st.sampled_from([b"", b"x", b"]", b",", b"{}", b" {}", body, b" " + body,
                                   b"\xff"])) + draw(space) + draw(st.sampled_from([b"", b"\n"]))
    line = prefix + body + suffix
    if draw(st.booleans()):  # invalid UTF-8: a lone byte, a cut sequence, a surrogate
        at = draw(st.integers(0, len(line)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]))
        line = line[:at] + bad + line[at:]
    return line


class TestCodecMatchesReference:
    """The frame codec against the json.dumps/json.loads one it replaced
    (tests/helpers.py): the same bytes for every frame a Channel sends, and
    the same frame or ParseError message for any line nested less deeply
    than the JSON scanner recurses.  Two kinds of line are outside the
    reference's domain.  On deeper lines it lets the scanner's
    RecursionError escape, and test_deep_nesting_is_a_parse_error pins
    what the codec raises.  It takes a "v" of true or 1.0 for version 1,
    and test_version_must_be_the_integer_1 pins the codec's ParseError;
    frame_lines() always writes the integer 1.  It also quotes a v or a
    non-integer seq in full, where the codec cuts the repr at 40 characters
    (test_long_version_or_seq_is_quoted_to_40_characters); the only
    non-integer seq frame_lines() writes is a float, whose repr is shorter."""

    @given(FRAMES)
    @settings(max_examples=500, deadline=None)
    def test_encode_gives_the_reference_bytes(self, frame):
        assert wire.encode_frame(*frame) == reference_encode_frame(*frame)

    @given(frame_lines())
    @settings(max_examples=500, deadline=None)
    def test_decode_matches_the_reference(self, line):
        assert _outcome(wire.decode_frame, line) == _outcome(reference_decode_frame, line)

    @pytest.mark.parametrize("line, error", [
        (b'{"msg":{"tag":"end"},"seq":0,"session":"s","v":1}{}', "bad JSON: Extra data"),
        (b'{"msg":{"tag":"end"},"seq":0,"session":"s","v":1} 7\n', "bad JSON: Extra data"),
        (b'\xef\xbb\xbf{"msg":{"tag":"end"},"seq":0,"session":"s","v":1}',
         "bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"),
        (b'{"msg":{"tag":"end"},"seq":NaN,"session":"s","v":1}',
         "sequence number nan is not an integer"),
        (b'{"msg":{"tag":"end"},"seq":0,"session":"s\xff","v":1}\xff', "bad JSON: Extra data"),
    ])
    def test_decode_error_messages(self, line, error):
        for decode in (wire.decode_frame, reference_decode_frame):
            with pytest.raises(wire.ParseError) as e:
                decode(line)
            assert str(e.value) == error

    @pytest.mark.parametrize("depth", [2000, 10 ** 4, 10 ** 5])
    @pytest.mark.parametrize("opener, closer", [("[", "]"), ('{"a":', "}")])
    def test_deep_nesting_is_a_parse_error(self, depth, opener, closer):
        # a bare run of openers, and a frame whose y nests that deep
        nested = opener * depth + "0" + closer * depth
        for line in ((opener * depth).encode(),
                     b'{"msg":{"tag":"image","y":%s},"seq":0,"session":"s","v":1}'
                     % nested.encode()):
            with pytest.raises(wire.ParseError, match="^bad JSON: nesting too deep$"):
                wire.decode_frame(line)


def run_cli(*argv):
    return cli_main(list(argv))


class TestCli:
    @pytest.fixture()
    def keyfiles(self, tmp_path):
        key = tmp_path / "key.json"
        pub = tmp_path / "key_pub.json"
        rc = run_cli("keygen", "--family", "rabin", "--bits", "28", "--seed", "5",
                     "--out", str(key), "--public-out", str(pub))
        assert rc == 0
        return key, pub

    def test_keygen_files(self, keyfiles):
        key, pub = keyfiles
        full = tcf.key_from_json(key.read_text())
        public = tcf.key_from_json(pub.read_text())
        assert full.has_trapdoor and not public.has_trapdoor
        assert full.N == public.N

    def test_keygen_ddh(self, tmp_path):
        out = tmp_path / "ddh.json"
        assert run_cli("keygen", "--family", "ddh", "--bits", "10", "--k", "2",
                       "--seed", "1", "--out", str(out)) == 0
        key = tcf.key_from_json(out.read_text())
        assert key.family == "ddh" and key.has_trapdoor

    def test_run_ideal(self, keyfiles, tmp_path):
        key, _ = keyfiles
        out = tmp_path / "rep.json"
        assert run_cli("run", "--key", str(key), "--prover", "ideal",
                       "--trials", "2000", "--seed", "1", "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["p_x"] == "1"
        assert 0.3 < rep["score_float"] < 0.5

    def test_run_deterministic(self, keyfiles, tmp_path):
        key, _ = keyfiles
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("run", "--key", str(key), "--prover", "cheater",
                           "--trials", "1500", "--seed", "7", "--out", str(out),
                           "--transcripts", str(out) + ".jsonl") == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.jsonl").read_bytes() == \
            (tmp_path / "b.json.jsonl").read_bytes()

    def test_run_noisy_prover_spec(self, keyfiles, tmp_path):
        key, _ = keyfiles
        out = tmp_path / "noisy.json"
        assert run_cli("run", "--key", str(key),
                       "--prover", "noisy:F=1.0,circuit=schoolbook,m=1",
                       "--trials", "400", "--seed", "2", "--out", str(out)) == 0
        rep = json.loads(out.read_text())
        assert rep["p_x"] == "1"

    def test_resources_row(self, tmp_path):
        out = tmp_path / "res.json"
        assert run_cli("resources", "--builder", "karatsuba", "--n", "128",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["qubits"] > 400 and doc["gates"] > 50_000

    def test_resources_holds_no_gate_list(self, tmp_path):
        # the 256-bit karatsuba circuit has 342,575 gates; a list of them
        # peaked at about 46 MB under tracemalloc, and tallying them as they
        # are emitted holds only the per-qubit layers
        tracemalloc.start()
        try:
            assert run_cli("resources", "--builder", "karatsuba", "--n", "256",
                           "--out", str(tmp_path / "res.json")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("builder", ["schoolbook", "karatsuba"])
    def test_resources_counts_through_count_resources(self, monkeypatch, tmp_path, builder):
        # bench/layers.py times circuits.count_resources and hooks
        # circuits.build_modsquare by name: one `resources` call is one
        # count_resources call, and it builds no gate list
        calls = {"count_resources": 0, "build_modsquare": 0}
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(cc, name), **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(cc, name, counted)
        assert run_cli("resources", "--builder", builder, "--n", "40",
                       "--out", str(tmp_path / "res.json")) == 0
        assert calls == {"count_resources": 1, "build_modsquare": 0}

    def test_resources_modulus_of_another_width(self, capsys):
        assert run_cli("resources", "--builder", "schoolbook", "--n", "16",
                       "--modulus", "65537") == 2
        assert capsys.readouterr().err == "error: --modulus 65537 has 17 bits, but --n is 16\n"

    def test_extract_cli(self, keyfiles, tmp_path):
        key, _ = keyfiles
        out = tmp_path / "ex.json"
        assert run_cli("extract", "--key", str(key), "--prover", "ideal",
                       "--probes", "6", "--seed", "3", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["success"] is True
        keys = tcf.key_from_json(key.read_text())
        assert sorted(int(f) for f in doc["factors"]) == sorted((keys.p, keys.q))

    @pytest.mark.parametrize("prover", ["ideal", "noisy:F=1.0,circuit=schoolbook,m=0",
                                        "noisy:F=1.0,circuit=karatsuba,m=1"])
    def test_extract_factors_with_any_scored_prover(self, tmp_path, prover):
        # the extractor reads a circuit-backed prover's answers through the
        # context `run` scores them with, so the noise-free ones factor too
        key, out = tmp_path / "rabin16.json", tmp_path / "ex.json"
        assert run_cli("keygen", "--bits", "16", "--seed", "3", "--out", str(key)) == 0
        assert run_cli("extract", "--key", str(key), "--prover", prover, "--seed", "41",
                       "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        keys = tcf.key_from_json(key.read_text())
        assert doc["success"] is True
        assert sorted(int(f) for f in doc["factors"]) == sorted((keys.p, keys.q))

    def test_sweep_csv(self, tmp_path):
        key = tmp_path / "k64.json"
        keys = gen_exact_bits(48)
        key.write_text(tcf.key_to_json(keys))
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--key", str(key), "--m-values", "0",
                       "--fidelities", "1.0", "--trials", "400",
                       "--seed", "1", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,F,p_x,p_m,score,discard_rate,overhead"
        assert len(lines) == 2

    def test_exhausted_attempt_budget_exits_protocol_error(self, monkeypatch, tmp_path):
        key = tmp_path / "key16.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        build = cli.build_prover

        def small_budget(spec, keys, seed, trials):
            prover, ctx = build(spec, keys, seed, trials)
            prover.max_attempts = 2  # y is valid with probability ~1/729 here
            return prover, ctx

        monkeypatch.setattr(cli, "build_prover", small_budget)
        assert run_cli("run", "--key", str(key), "--prover",
                       "noisy:F=0.0001,circuit=schoolbook,m=3", "--trials", "3",
                       "--out", str(tmp_path / "rep.json")) == 4

    @pytest.mark.parametrize("command, prover_spec, trials", [
        (["run", "--trials", "25"], "noisy:F=1.0,circuit=schoolbook,m=0", 25),
        (["run", "--trials", str(provers.ROUND1_POOL)], "noisy:F=1.0,circuit=schoolbook,m=0",
         provers.ROUND1_POOL),
        (["run", "--trials", str(provers.ROUND1_POOL + 1)],
         "noisy:F=1.0,circuit=schoolbook,m=0", provers.ROUND1_POOL + 1),
        (["run", "--trials", "25", "--postselect"], "noisy:F=0.5,circuit=schoolbook,m=1", 25),
        (["run", "--trials", "150", "--postselect"], "noisy:F=0.5,circuit=schoolbook,m=1",
         150),
        (["extract"], "noisy:F=1.0,circuit=schoolbook,m=0", 1),  # round 1 once, then rewinds
    ], ids=["run-25", "run-pool", "run-pool+1", "run-25-m1", "run-150-m1", "extract"])
    def test_round1_runs_only_the_session(self, monkeypatch, tmp_path, command, prover_spec,
                                          trials):
        # one engine call per wave of at most ROUND1_POOL runs, and one
        # draw_run call per attempt of a played iteration: none runs at
        # or past the session's length.  At F = 1 and m = 0 every attempt
        # is valid, so the session is full waves and one partial wave: 25
        # iterations are one call of 25 runs
        key = tmp_path / "key16.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        sizes, draws, built = [], [], []
        block, draw, build = cc.run_two_branch_block, cc.draw_run, cli.build_prover

        def counted_block(circuit, x0s, x1s, draws):
            sizes.append(len(x0s))
            return block(circuit, x0s, x1s, draws)

        def counted_draw(schedule, error_prob, rng):
            draws.append(1)
            return draw(schedule, error_prob, rng)

        def kept(spec, keys, seed, trials):
            prover, ctx = build(spec, keys, seed, trials)
            built.append(prover)
            return prover, ctx

        monkeypatch.setattr(cc, "run_two_branch_block", counted_block)
        monkeypatch.setattr(cc, "draw_run", counted_draw)
        monkeypatch.setattr(cli, "build_prover", kept)
        assert run_cli(*command, "--key", str(key), "--prover", prover_spec,
                       "--out", str(tmp_path / "out.json")) == 0
        assert built[0].trials == trials
        assert len(draws) == built[0].attempts
        assert max(sizes) <= provers.ROUND1_POOL
        if prover_spec.startswith("noisy:F=1.0"):
            full, rest = divmod(trials, provers.ROUND1_POOL)
            assert sizes == [provers.ROUND1_POOL] * full + [rest] * (rest > 0)
            assert len(draws) == trials

    def test_usage_error_exit_code(self, tmp_path, capsys):
        # an unknown command, and paths that cannot be read or written:
        # a missing key file, a directory, an --out in a missing directory
        key = tmp_path / "key.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        assert run_cli("frobnicate") == 2
        for argv in (["run", "--key", "/nonexistent", "--prover", "bogus"],
                     ["run", "--key", str(tmp_path), "--trials", "3"],
                     ["run", "--key", str(key), "--trials", "40",
                      "--out", str(tmp_path / "missing" / "x.json")]):
            capsys.readouterr()
            assert run_cli(*argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv

    def test_malformed_frame_exits_protocol_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio"],
            input=b"[1]\n", capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("field", ["v", "seq"])
    def test_long_version_or_seq_to_prover_exits_protocol_error(self, field):
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio"],
            input=long_field_line(field) + b"\n", capture_output=True, timeout=120,
            env=cli_env())
        assert proc.returncode == 4, proc.stderr[:200]
        assert proc.stderr.startswith(b"protocol error: ")
        assert len(proc.stderr) < 120, proc.stderr[:200]

    @pytest.mark.parametrize("at, field, value", [(0, "prover_seed", "9" * 5000),
                                                  (2, "r", "9" * 5000), (3, "sign", "9" * 5000),
                                                  (0, "trials", "-" + "9" * 5000)],
                             ids=["prover_seed", "r", "sign", "trials"])
    def test_decimal_beyond_the_digit_limit_to_prover_exits_protocol_error(self, at, field,
                                                                           value):
        # the prover writes its seed and each r in decimal into its label
        # paths, and an error quoting the int of a refused sign or length
        # would convert it: each fails with a ValueError on a 5,000-digit value
        keys = gen_exact_bits(16)
        frames = [{"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False)},
                  {"tag": "round1"}, {"tag": "vector", "r": 5}, {"tag": "basis", "sign": 1},
                  {"tag": "end"}]
        frames[at][field] = value
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio",
             "--prover", "cheater"],
            input=b"".join(wire.encode_frame("v", i, m) for i, m in enumerate(frames)),
            capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr[-300:]
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"protocol error: ") and len(proc.stderr) < 120

    # qbell's help, a subcommand's help and an unknown command's error, as
    # printed at 80 columns
    HELP_TEXTS = {
        ("-h",): (0, """\
usage: qbell [-h] {keygen,run,verify,prove,sweep,resources,extract} ...

Interactive quantumness-test laboratory

positional arguments:
  {keygen,run,verify,prove,sweep,resources,extract}
    keygen              generate a key pair
    run                 run verifier and prover in process
    verify              serve the verifier role
    prove               run the prover role
    sweep               post-selection fidelity sweep
    resources           circuit resource estimates
    extract             run the soundness extractor

options:
  -h, --help            show this help message and exit
""", ""),
        ("run", "-h"): (0, """\
usage: qbell run [-h] [--trials TRIALS] [--seed SEED] [--ratio RATIO]
                 [--postselect] [--transcripts TRANSCRIPTS] --key KEY
                 [--prover PROVER] [--out OUT]

options:
  -h, --help            show this help message and exit
  --trials TRIALS
  --seed SEED
  --ratio RATIO
  --postselect
  --transcripts TRANSCRIPTS
  --key KEY
  --prover PROVER
  --out OUT
""", ""),
        ("bogus",): (2, "", """\
usage: qbell [-h] {keygen,run,verify,prove,sweep,resources,extract} ...
qbell: error: argument command: invalid choice: 'bogus' (choose from 'keygen', \
'run', 'verify', 'prove', 'sweep', 'resources', 'extract')
"""),
    }

    @pytest.mark.parametrize("argv", list(HELP_TEXTS))
    def test_help_and_unknown_command_pinned(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code = run_cli(*argv)
        out = capsys.readouterr()
        assert (code, out.out, out.err) == self.HELP_TEXTS[argv]

    @pytest.mark.parametrize("argv", [
        ("run", "-h"), ("verify", "--help"), ("prove", "-h"), ("resources", "-h"),
        ("run",), ("run", "--key", "k", "--bogus"), ("keygen", "--bits"),
        ("prove", "--transport", "udp"), ("sweep", "--trials", "x", "--key", "k"),
        ("extract", "--probes")])
    def test_command_parser_parses_as_the_full_one(self, monkeypatch, capsys, argv):
        # main builds only the named command's parser: the same output, exit
        # code and namespace as with every command's
        monkeypatch.setenv("COLUMNS", "80")

        def parse(parser):
            try:
                result = vars(parser.parse_args(argv))
            except SystemExit as e:
                result = e.code
            out = capsys.readouterr()
            return result, out.out, out.err

        assert parse(cli.make_parser(argv[0])) == parse(cli.make_parser())

    def test_resources_help_states_the_cutoff_default(self, monkeypatch, capsys):
        # the help reads the default from circuits when it is shown
        for cutoff in (cc.KARATSUBA_CUTOFF, 13):
            monkeypatch.setattr(cc, "KARATSUBA_CUTOFF", cutoff)
            assert run_cli("resources", "--help") == 0
            help_text = capsys.readouterr().out
            assert re.search(r"default\s+(\d+)\)", help_text).group(1) == str(cutoff)

    def test_deeply_nested_line_to_prover_exits_protocol_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio"],
            input=b"[" * 2000 + b"\n", capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr
        assert b"Traceback" not in proc.stderr
        assert b"nesting too deep" in proc.stderr

    def test_deeply_nested_reply_to_verifier_exits_protocol_error(self, tmp_path):
        # a scripted prover reads the key frame and the first round1, and
        # answers with the line
        key = tmp_path / "key.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        verifier = subprocess.Popen(
            [sys.executable, "-m", "qbell.cli", "verify", "--transport", "stdio",
             "--key", str(key), "--trials", "3"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=cli_env())
        try:
            tags = [wire.decode_frame(verifier.stdout.readline())[2]["tag"] for _ in range(2)]
            verifier.stdin.write(b"[" * 2000 + b"\n")
            verifier.stdin.close()
            stderr = verifier.stderr.read()
            rc = verifier.wait(timeout=120)
        finally:
            verifier.kill()
            verifier.wait()
            verifier.stdout.close()
            verifier.stderr.close()
        assert tags == ["key", "round1"]
        assert rc == 4, stderr
        assert b"Traceback" not in stderr
        assert b"nesting too deep" in stderr

    def test_first_frame_other_than_key_exits_protocol_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio"],
            input=wire.encode_frame("v", 0, {"tag": "round1"}),
            capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("msgs", [
        [{"tag": "round1"}, {"tag": "basis", "sign": 1}],  # basis before vector
        [{"tag": "vector", "r": 5}],  # vector before round1
        [{"tag": "round1"}, {"tag": "vector", "r": "abc"}],
        [{"tag": "round1"}, {"tag": "vector"}],  # no r
        [{"tag": "round1"}, {"tag": "vector", "r": 5}, {"tag": "basis", "sign": 7}],
        [{"tag": "bogus"}],  # a tag the protocol does not have
        # integers as strings int() reads but json_ints never writes
        [{"tag": "round1"}, {"tag": "vector", "r": "1_000"}],
        [{"tag": "round1"}, {"tag": "vector", "r": 5}, {"tag": "basis", "sign": "+1"}],
    ])
    def test_prover_payload_and_order_faults_exit_protocol_error(self, msgs):
        keys = gen_exact_bits(16)
        frames = [{"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False)}]
        stdin = b"".join(wire.encode_frame("v", i, m)
                         for i, m in enumerate(frames + msgs))
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio",
             "--prover", "cheater"],
            input=stdin, capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("role", ["prove", "verify"])
    @pytest.mark.parametrize("session, rc", [("own", 3), ("w", 4)])
    def test_frame_from_another_session_exits_protocol_error(self, tmp_path, role, session,
                                                              rc):
        # `prove` adopts the key frame's session "v" and `verify --seed 5`
        # names its own, "s5".  Each reads one frame and then the end of
        # its input: from its own session that is a transport error (3),
        # from another a protocol error (4)
        keys = gen_exact_bits(16)
        key = tmp_path / "key.json"
        key.write_text(tcf.key_to_json(keys))
        if role == "prove":
            own, argv = "v", ["--prover", "cheater"]
            frames = [("v", 0, {"tag": "key", "key_json": tcf.key_to_json(
                keys, include_secret=False)})]
            reply = {"tag": "round1"}
        else:
            own, argv = "s5", ["--key", str(key), "--seed", "5", "--trials", "3"]
            frames = []
            reply = {"tag": "image", "y": 4}
        frames.append((own if session == "own" else session, len(frames), reply))
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", role, "--transport", "stdio"] + argv,
            input=b"".join(wire.encode_frame(*frame) for frame in frames), capture_output=True,
            timeout=120, env=cli_env())
        assert proc.returncode == rc, proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("key_json", [*malformed_keys(False).values(), "{not json"],
                             ids=[*malformed_keys(False), "not-json"])
    def test_malformed_key_frame_exits_protocol_error(self, key_json):
        frames = [{"tag": "key", "key_json": key_json, "trials": 2}, {"tag": "round1"},
                  {"tag": "end"}]
        stdin = b"".join(wire.encode_frame("v", i, m)
                         for i, m in enumerate(frames))
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio",
             "--prover", "cheater"],
            input=stdin, capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", malformed_keys(True).values(), ids=malformed_keys(True))
    def test_malformed_key_file_exits_usage_error(self, tmp_path, capsys, text):
        key = tmp_path / "key.json"
        key.write_text(text)
        assert run_cli("run", "--key", str(key), "--trials", "4") == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("trials", [True, -1, 2.5, "many"])
    def test_bad_session_length_exits_protocol_error(self, trials):
        keys = gen_exact_bits(16)
        key_frame = {"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False),
                     "trials": trials}
        stdin = b"".join(wire.encode_frame("v", i, m)
                         for i, m in enumerate([key_frame, {"tag": "end"}]))
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio",
             "--prover", "cheater"],
            input=stdin, capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("field, length", [({"trials": 7}, 7), ({"trials": "300"}, 300),
                                               ({}, None), ({"trials": None}, None)])
    def test_prove_builds_for_the_announced_length(self, monkeypatch, tmp_path, field,
                                                   length):
        keys = gen_exact_bits(16)
        key_path = tmp_path / "key.json"
        key_path.write_text(tcf.key_to_json(keys))
        key_frame = {"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False),
                     **field}
        stdin = b"".join(wire.encode_frame("v", i, m)
                         for i, m in enumerate([key_frame, {"tag": "end"}]))
        built = []
        build = cli.build_prover

        def kept(spec, keys, seed, trials):
            built.append(trials)
            return build(spec, keys, seed, trials)

        monkeypatch.setattr(cli, "build_prover", kept)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(BytesIO(stdin)))
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(BytesIO()))
        assert run_cli("prove", "--transport", "stdio", "--key", str(key_path),
                       "--prover", "noisy:F=1.0,circuit=schoolbook,m=0") == 0
        assert built == [length]

    @pytest.mark.parametrize("session, key_file, rc", [
        ("ddh", "ddh", 0),  # the key file of the session key
        ("ddh", "ddh-other", 3),
        ("rabin", "ddh", 3),
        ("ddh", "rabin", 3),
        ("rabin", "rabin-other", 3),
    ])
    def test_prove_key_must_match_session_key(self, tmp_path, session, key_file, rc):
        keys = {"ddh": tcf.ddh_gen(2, 10, seed=3), "ddh-other": tcf.ddh_gen(2, 10, seed=4),
                "rabin": gen_exact_bits(16), "rabin-other": gen_exact_bits(16, seed0=40)}
        path = tmp_path / "key.json"
        path.write_text(tcf.key_to_json(keys[key_file]))
        frames = [{"tag": "key", "key_json": tcf.key_to_json(keys[session],
                                                             include_secret=False)},
                  {"tag": "round1"}, {"tag": "end"}]
        stdin = b"".join(wire.encode_frame("v", i, m)
                         for i, m in enumerate(frames))
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio",
             "--prover", "ideal", "--key", str(path)],
            input=stdin, capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == rc, proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("prover_args", [
        ["--prover", "cheater"],
        ["--prover", "ideal", "--key", "{key}"],
    ])
    def test_prove_rejects_leaked_trapdoor(self, tmp_path, prover_args):
        # a key frame carrying the secret key is refused before any key
        # file is compared with it
        keys = gen_exact_bits(16)
        path = tmp_path / "key.json"
        path.write_text(tcf.key_to_json(keys))
        frames = [{"tag": "key", "key_json": tcf.key_to_json(keys)}, {"tag": "end"}]
        stdin = b"".join(wire.encode_frame("v", i, m)
                         for i, m in enumerate(frames))
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio"]
            + [a.format(key=path) for a in prover_args],
            input=stdin, capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 3, proc.stderr
        assert b"verifier leaked trapdoor data" in proc.stderr

    @pytest.mark.parametrize("argv", [
        # a modulus of the wrong bit length, one that is not a number, and
        # builder parameters build_modsquare rejects
        ("resources", "--builder", "schoolbook", "--n", "8", "--modulus", "77"),
        ("resources", "--builder", "schoolbook", "--n", "8", "--modulus", "abc"),
        ("resources", "--builder", "phase1", "--n", "4"),
        ("resources", "--builder", "karatsuba", "--n", "7", "--modulus", "77",
         "--cutoff", "4"),
        # malformed prover specs and sweep grids
        ("run", "--key", "{rabin}", "--prover", "noisy:F=abc"),
        ("run", "--key", "{rabin}", "--prover", "noisy:m=x"),
        ("run", "--key", "{rabin}", "--prover", "noisy:m=-1", "--trials", "1"),
        ("sweep", "--key", "{rabin}", "--m-values", "x"),
        # the circuits, the sweep and the extractor need a Rabin key
        ("extract", "--key", "{ddh}"),
        ("sweep", "--key", "{ddh}", "--m-values", "0", "--fidelities", "1.0",
         "--trials", "100"),
        # argument values outside their range
        ("run", "--key", "{rabin}", "--trials", "0"),
        ("run", "--key", "{rabin}", "--ratio", "0", "--trials", "5"),
        ("run", "--key", "{rabin}", "--ratio", "1.5", "--trials", "5"),
        ("verify", "--key", "{rabin}", "--ratio", "0"),
        ("run", "--key", "{rabin}", "--ratio", "1", "--trials", "5"),
        ("verify", "--key", "{rabin}", "--ratio", "1"),
        ("extract", "--key", "{rabin}", "--probes", "0"),
        ("sweep", "--key", "{rabin}", "--trials", "10"),
        ("sweep", "--key", "{rabin}", "--m-values", "0", "--fidelities", "0",
         "--trials", "100"),
        ("run", "--key", "{rabin}", "--prover", "noisy:F=0", "--trials", "1"),
        ("run", "--key", "{rabin}", "--prover", "noisy:F=2", "--trials", "1"),
        # the simulated provers need the trapdoor
        ("extract", "--key", "{rabin_pub}", "--prover", "ideal"),
        ("extract", "--key", "{rabin_pub}", "--prover", "noisy:F=1.0"),
        # sizes the key generators reject, and a modulus the phase circuits
        # would ignore
        ("keygen", "--bits", "4"),
        ("keygen", "--family", "ddh", "--k", "0", "--bits", "24"),
        ("keygen", "--family", "ddh", "--bits", "2"),
        ("resources", "--builder", "schoolbook", "--n", "4"),
        ("resources", "--builder", "phase1", "--n", "8", "--modulus", "129"),
        # only the Karatsuba builder has a cutoff
        ("resources", "--builder", "schoolbook", "--n", "16", "--cutoff", "4"),
        ("resources", "--builder", "phase2", "--n", "16", "--cutoff", "4"),
        # more probes than the extractor's query budget allows, and a
        # negative lift exponent in a sweep grid
        ("extract", "--key", "{rabin}", "--prover", "ideal", "--probes", "17"),
        ("sweep", "--key", "{rabin}", "--m-values", "-1"),
        # transport options outside their range, refused before any socket
        ("verify", "--key", "{rabin}", "--transport", "tcp", "--port", "99999"),
        ("prove", "--transport", "tcp", "--port", "99999"),
        ("prove", "--transport", "tcp", "--timeout", "-1"),
        ("prove", "--transport", "tcp", "--timeout", "nan"),
    ])
    def test_bad_arguments_exit_usage_error(self, tmp_path, capsys, argv):
        paths = {"rabin": tmp_path / "rabin.json", "ddh": tmp_path / "ddh.json",
                 "rabin_pub": tmp_path / "rabin.pub.json"}
        rabin = gen_exact_bits(16)
        paths["rabin"].write_text(tcf.key_to_json(rabin))
        paths["rabin_pub"].write_text(tcf.key_to_json(rabin, include_secret=False))
        paths["ddh"].write_text(tcf.key_to_json(tcf.ddh_gen(2, 10, seed=3)))
        assert run_cli(*(a.format(**paths) for a in argv)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_extract_rejects_mu(self, tmp_path, capsys):
        # extract has no --mu: the probe count alone sets the decoder's work
        key = tmp_path / "rabin.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        assert run_cli("extract", "--key", str(key), "--mu", "0.05") == 2
        assert "unrecognized arguments: --mu 0.05" in capsys.readouterr().err

    def test_resources_without_exact_modulus_exits_usage_error(self):
        # no rabin_gen seed gives a 6-bit modulus; the search must end
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "resources", "--builder", "karatsuba",
             "--n", "6"], capture_output=True, timeout=60, env=cli_env())
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: ")

    def test_transcripts_of_an_80_bit_circuit_run(self, tmp_path):
        # the karatsuba circuit of an 80-bit key discards 16,873 qubits, so
        # each image's h is a decimal of more than 4,300 digits
        key = tmp_path / "key.json"
        keys = gen_exact_bits(80)
        key.write_text(tcf.key_to_json(keys))
        out = tmp_path / "t.jsonl"
        assert run_cli("run", "--key", str(key), "--prover", "noisy:F=1.0,circuit=karatsuba,m=0",
                       "--trials", "10", "--seed", "1", "--out", str(tmp_path / "rep.json"),
                       "--transcripts", str(out)) == 0
        images = [json.loads(line)["msgs"][0]["payload"] for line in out.read_text().splitlines()]
        assert len(images) == 10
        assert all(len(image["h"]) > 4300 and 0 <= wire._int(image["h"], "h") < 2 ** image["h_len"]
                   for image in images)

    def test_wrong_key_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run_cli("run", "--key", str(bad), "--prover", "ideal")
        assert rc != 0


class _Replace:
    """A write stream that writes `replace(line)` in place of the n-th line
    (from 0) written through it."""

    def __init__(self, stream, n, replace):
        self.stream, self.n, self.replace = stream, n, replace

    def write(self, line):
        self.n -= 1
        return self.stream.write(self.replace(line) if self.n == -1 else line)

    def flush(self):
        self.stream.flush()


def _with_field(line, pick, literal):
    """The frame `line` with one field, chosen by `pick` among the message's
    and the envelope's, set to the JSON text `literal`."""
    doc = json.loads(line)
    fields = [(doc["msg"], key) for key in sorted(doc["msg"])] + [(doc, key) for key in sorted(doc)]
    parent, key = fields[pick % len(fields)]
    parent[key] = "@@"
    return json.dumps(doc, separators=(",", ":")).replace('"@@"', literal).encode() + b"\n"


def _decimal_string(digits, pick):
    """The fault that sets field `pick` (as _with_field picks it) to a
    decimal string of `digits` digits."""
    return lambda line: _with_field(line, pick, '"%s"' % ("9" * digits))


# one line a peer may send in place of a frame: arbitrary bytes, nesting
# up to 10^4 levels (bare or as a field), a field of the wrong type, or an
# integer literal or a decimal string beyond int's digit limit
FAULTS = st.one_of(
    st.binary(max_size=64).map(lambda b: lambda line: b.replace(b"\n", b" ") + b"\n"),
    st.tuples(st.integers(1, 10 ** 4), st.booleans(), st.integers(0, 20)).map(
        lambda t: lambda line: b"[" * t[0] + b"\n" if t[1]
        else _with_field(line, t[2], "[" * t[0] + "]" * t[0])),
    st.tuples(st.none() | st.booleans() | st.floats() | st.lists(st.integers(), max_size=2)
              | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
              st.integers(0, 20)).map(
        lambda t: lambda line: _with_field(line, t[1], json.dumps(t[0]))),
    st.tuples(st.integers(4301, 6000), st.integers(0, 20)).map(
        lambda t: lambda line: _with_field(line, t[1], "9" * t[0])),
    st.builds(_decimal_string, st.integers(4301, 6000), st.integers(0, 20)),
)


class TestSessionFaults:
    @given(st.sampled_from(["ideal", "cheater"]), st.sampled_from(["verifier", "prover"]),
           st.integers(0, 8), FAULTS)
    @settings(max_examples=150, deadline=None)
    # the verifier's key frame with a 5,000-digit prover_seed (its field 1)
    # and its first vector frame, line 2 at seed 7, with a 5,000-digit r
    @example("cheater", "verifier", 0, _decimal_string(5000, 1))
    @example("ideal", "verifier", 2, _decimal_string(5000, 0))
    def test_any_replaced_line_ends_in_a_typed_error(self, kind, side, n, fault):
        # one line of a short session replaced, the key frame included: each
        # role finishes, or stops on a ParseError, or on a TransportError once
        # its peer has stopped.  Unreplaced (n past a side's last line), the
        # session at seed 7 plays both branches, so the verifier scores it
        keys = gen_exact_bits(16)
        verifier_error, prover_error = pipe_session(
            lambda key_json, seed, trials: cli.build_prover(
                cli.parse_prover_spec(kind), keys, seed, trials)[0],
            cli.session_context(keys, None), 3, 7,
            lambda at, stream: _Replace(stream, n, fault) if at == side else stream)
        for error in (verifier_error, prover_error):
            assert error is None or isinstance(error, (wire.ParseError, wire.TransportError)), \
                repr(error)[:200]

    @pytest.mark.parametrize("version", [b"true", b"1.0"])
    @pytest.mark.parametrize("side, n", [("verifier", 1), ("prover", 0)])
    def test_round1_frame_with_a_version_equal_to_1_is_a_parse_error(self, side, n, version):
        # the verifier's round1 request (its second line) or the prover's
        # image reply (its first) sent with v = true or 1.0: its reader
        # stops on a ParseError, not on the frame's content
        keys = gen_exact_bits(16)
        errors = pipe_session(
            lambda key_json, seed, trials: cli.build_prover(
                cli.parse_prover_spec("cheater"), keys, seed, trials)[0],
            cli.session_context(keys, None), 3, 7,
            lambda at, stream: _Replace(
                stream, n, lambda line: line.replace(b'"v":1}', b'"v":%s}' % version))
            if at == side else stream)
        reader_error = errors[1] if side == "verifier" else errors[0]
        assert isinstance(reader_error, wire.ParseError), repr(errors)
        assert str(reader_error) == f"unsupported version {json.loads(version)!r}"


class TestStdioPair:
    def _pipe_pair(self, verifier_args, prover_args):
        v2p_r, v2p_w = os.pipe()
        p2v_r, p2v_w = os.pipe()
        verifier = subprocess.Popen(
            [sys.executable, "-m", "qbell.cli"] + verifier_args,
            stdin=p2v_r, stdout=v2p_w, stderr=subprocess.PIPE, env=cli_env())
        prover = subprocess.Popen(
            [sys.executable, "-m", "qbell.cli"] + prover_args,
            stdin=v2p_r, stdout=p2v_w, stderr=subprocess.PIPE, env=cli_env())
        for fd in (v2p_r, v2p_w, p2v_r, p2v_w):
            os.close(fd)
        rc_v = verifier.wait(timeout=180)
        rc_p = prover.wait(timeout=180)
        return rc_v, rc_p, verifier.stderr.read(), prover.stderr.read()

    def test_cheater_over_stdio(self, tmp_path):
        key = tmp_path / "key.json"
        keys = gen_exact_bits(28)
        key.write_text(tcf.key_to_json(keys))
        rep_path = tmp_path / "rep.json"
        rc_v, rc_p, err_v, err_p = self._pipe_pair(
            ["verify", "--key", str(key), "--transport", "stdio",
             "--trials", "2500", "--seed", "11", "--out", str(rep_path)],
            ["prove", "--prover", "cheater", "--transport", "stdio"])
        assert rc_v == 0, err_v
        assert rc_p == 0, err_p
        rep = json.loads(rep_path.read_text())
        assert abs(rep["score_float"]) < 0.1
        assert rep["p_x"] == "1"

    def test_ideal_over_stdio(self, tmp_path):
        key = tmp_path / "key.json"
        keys = gen_exact_bits(28)
        key.write_text(tcf.key_to_json(keys))
        rep_path = tmp_path / "rep.json"
        rc_v, rc_p, err_v, err_p = self._pipe_pair(
            ["verify", "--key", str(key), "--transport", "stdio",
             "--trials", "2500", "--seed", "12", "--out", str(rep_path)],
            ["prove", "--prover", "ideal", "--key", str(key),
             "--transport", "stdio"])
        assert rc_v == 0 and rc_p == 0, (err_v, err_p)
        rep = json.loads(rep_path.read_text())
        assert 0.3 < rep["score_float"] < 0.5

    def test_lifted_prover_against_plain_verifier(self, tmp_path):
        # `verify` builds a plain context, where the lifted prover's images
        # of [0, 9N) beyond N are invalid: scored, not a session abort
        key = tmp_path / "key.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        rc_v, rc_p, err_v, err_p = self._pipe_pair(
            ["verify", "--key", str(key), "--transport", "stdio", "--trials", "60",
             "--seed", "9", "--out", str(tmp_path / "rep.json")],
            ["prove", "--prover", "noisy:F=0.5,circuit=schoolbook,m=1", "--key", str(key),
             "--transport", "stdio"])
        assert rc_v == 0, err_v
        assert rc_p == 0, err_p

    def test_prover_side_never_sees_trapdoor(self, tmp_path):
        # capture every byte the verifier emits; no secret may appear
        keys = gen_exact_bits(28)
        ctx = proto.ProtocolContext.plain(keys)
        sent = BytesIO()
        server_ch = wire.Channel(None, sent, "s")
        inner = provers.CheaterProver(keys.public(), seed=0)

        class TappedProver:
            """In-process prover that mirrors what the verifier would send."""

            def round1(self):
                server_ch.send({"tag": "round1"})
                return inner.round1()

            def answer_preimage(self):
                server_ch.send({"tag": "challenge", "kind": "preimage"})
                return inner.answer_preimage()

            def round2(self, r):
                server_ch.send({"tag": "vector", "r": r})
                return inner.round2(r)

            def round3(self, sign):
                server_ch.send({"tag": "basis", "sign": sign})
                return inner.round3(sign)

        server_ch.send({"tag": "key",
                        "key_json": tcf.key_to_json(keys, include_secret=False)})
        rng = random.Random(0)
        cfg = proto.IterationConfig()
        tapped = TappedProver()
        for i in range(40):
            proto.run_iteration(ctx, tapped, rng, cfg, i)
        payload = sent.getvalue().decode()
        assert str(keys.p) not in payload
        assert str(keys.q) not in payload
        assert str(keys.N) in payload


class TestTcpTransport:
    def _tcp_session(self, keys, trials, seed, config=None):
        """serve_session's (report, transcripts) against a cheater over TCP."""
        ctx = proto.ProtocolContext.plain(keys)
        srv = wire.open_tcp_listener("127.0.0.1", 0)
        port = srv.getsockname()[1]
        results = {}

        def server():
            conn, _ = srv.accept()
            ch = wire.channel_from_socket(conn, "t", timeout=60)
            results["session"] = wire.serve_session(ch, ctx, trials, seed=seed,
                                                    config=config)

        th = threading.Thread(target=server)
        th.start()
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        ch = wire.channel_from_socket(sock, "t", timeout=60)
        wire.prover_loop(ch, lambda key_json, seed_, trials_:
                         provers.CheaterProver(tcf.key_from_json(key_json), seed_))
        th.join(timeout=60)
        srv.close()
        return results["session"]

    def test_tcp_session_scores_like_cheater(self):
        rep, _ = self._tcp_session(gen_exact_bits(24), trials=600, seed=42)
        assert rep.p_x == 1
        assert abs(float(rep.p_m) - 0.75) < 0.08

    def test_stdio_and_tcp_reports_agree_for_same_seed(self, tmp_path):
        keys = gen_exact_bits(24)
        key = tmp_path / "k.json"
        key.write_text(tcf.key_to_json(keys))
        rep_path = tmp_path / "rep.json"
        v2p_r, v2p_w = os.pipe()
        p2v_r, p2v_w = os.pipe()
        verifier = subprocess.Popen(
            [sys.executable, "-m", "qbell.cli", "verify", "--key", str(key),
             "--transport", "stdio", "--trials", "600", "--seed", "42",
             "--out", str(rep_path)],
            stdin=p2v_r, stdout=v2p_w, stderr=subprocess.PIPE, env=cli_env())
        prover = subprocess.Popen(
            [sys.executable, "-m", "qbell.cli", "prove", "--prover", "cheater",
             "--transport", "stdio"],
            stdin=v2p_r, stdout=p2v_w, stderr=subprocess.PIPE, env=cli_env())
        for fd in (v2p_r, v2p_w, p2v_r, p2v_w):
            os.close(fd)
        assert verifier.wait(timeout=120) == 0, verifier.stderr.read()
        assert prover.wait(timeout=120) == 0
        stdio_rep = json.loads(rep_path.read_text())
        tcp_rep = json.loads(self._tcp_session(keys, trials=600, seed=42)[0].to_json())
        assert stdio_rep == tcp_rep

    @pytest.mark.parametrize("postselect", [False, True])
    def test_session_inverts_only_where_preimages_are_read(self, monkeypatch, postselect):
        # the verifier inverts each measurement round's image once, after
        # round 3, and no preimage round's; under post-selection it inverts
        # every image at round 1
        images = record_inversions(monkeypatch)
        _, ts = self._tcp_session(gen_exact_bits(24), trials=200, seed=42,
                                  config=proto.IterationConfig(postselect=postselect))
        measured = [t.msgs["image"]["y"] for t in ts if "vector" in t.msgs]
        assert 60 < len(measured) < 140
        assert images == ([t.msgs["image"]["y"] for t in ts] if postselect else measured)

    def test_verify_without_prover_times_out(self, tmp_path):
        # --timeout bounds the wait for a prover to connect: the verifier
        # exits 3 on its own; the child is killed at the test's deadline
        key = tmp_path / "k.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        verifier = subprocess.Popen(
            [sys.executable, "-m", "qbell.cli", "verify", "--key", str(key),
             "--transport", "tcp", "--port", "0", "--timeout", "1"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=cli_env())
        try:
            _, err = verifier.communicate(timeout=15)
        finally:
            verifier.kill()
            verifier.wait()
        assert verifier.returncode == 3
        assert err.startswith(b"transport error: ")

    def test_second_prover_is_refused_while_a_session_runs(self, tmp_path):
        # the verifier stops listening once its one prover is in, so a second
        # prove exits 3 at once instead of waiting out its --timeout
        key = tmp_path / "k.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = str(probe.getsockname()[1])
        verifier = subprocess.Popen(
            [sys.executable, "-m", "qbell.cli", "verify", "--key", str(key),
             "--transport", "tcp", "--port", port, "--timeout", "30"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=cli_env())
        try:
            # the first prover is this test: it takes the key frame, then stalls
            deadline = time.monotonic() + 15
            while True:
                try:
                    first = socket.create_connection(("127.0.0.1", port), timeout=15)
                    break
                except ConnectionRefusedError:
                    assert time.monotonic() < deadline
                    time.sleep(0.05)
            with first, first.makefile("rb") as rfile:
                assert wire.decode_frame(rfile.readline())[2]["tag"] == "key"
                start = time.monotonic()
                second = subprocess.run(
                    [sys.executable, "-m", "qbell.cli", "prove", "--prover", "cheater",
                     "--transport", "tcp", "--port", port, "--timeout", "10"],
                    capture_output=True, timeout=60, env=cli_env())
                elapsed = time.monotonic() - start
        finally:
            verifier.kill()
            verifier.wait()
        assert second.returncode == 3, second.stderr
        assert second.stderr.startswith(b"transport error: ")
        assert b"Traceback" not in second.stderr
        assert elapsed < 1.0


# the modules that keygen, a run with the ideal or cheater prover and the
# wire roles do not run
DEFERRED = ("qbell.circuits", "qbell.postselect", "qbell.extractor", "socket")

# a child process that runs qbell's main on argv[2:] and writes its exit code
# and the DEFERRED modules it loaded to the file argv[1]
LOADED_CHILD = f"""import json, sys
from qbell.cli import main
rc = main(sys.argv[2:])
with open(sys.argv[1], "w") as f:
    json.dump([rc, [m for m in {DEFERRED!r} if m in sys.modules]], f)
"""


class TestDeferredImports:
    @staticmethod
    def _child(out, argv, **kwargs):
        return subprocess.Popen([sys.executable, "-c", LOADED_CHILD, str(out)] + argv,
                                env=cli_env(), **kwargs)

    def test_roles_load_only_the_modules_they_run(self, tmp_path):
        key = tmp_path / "key.json"
        runs = [
            (["keygen", "--bits", "16", "--seed", "3", "--out", str(key)], []),
            (["run", "--key", str(key), "--prover", "ideal", "--trials", "20",
              "--out", str(tmp_path / "ideal.json")], []),
            # the control: a circuit-backed run loads the engine and the lift
            (["run", "--key", str(key), "--prover", "noisy:F=1.0,circuit=schoolbook",
              "--trials", "20", "--out", str(tmp_path / "noisy.json")],
             ["qbell.circuits", "qbell.postselect"]),
        ]
        for i, (argv, loaded) in enumerate(runs):
            out = tmp_path / f"loaded{i}.json"
            assert self._child(out, argv).wait(timeout=120) == 0, argv
            assert json.loads(out.read_text()) == [0, loaded], argv

    def test_wire_pair_loads_no_deferred_module(self, tmp_path):
        key = tmp_path / "key.json"
        key.write_text(tcf.key_to_json(gen_exact_bits(16)))
        outs = tmp_path / "verifier.json", tmp_path / "prover.json"
        v2p_r, v2p_w = os.pipe()
        p2v_r, p2v_w = os.pipe()
        children = [
            self._child(outs[0], ["verify", "--key", str(key), "--trials", "30",
                                  "--out", str(tmp_path / "rep.json")],
                        stdin=p2v_r, stdout=v2p_w),
            self._child(outs[1], ["prove", "--prover", "cheater"], stdin=v2p_r, stdout=p2v_w)]
        for fd in (v2p_r, v2p_w, p2v_r, p2v_w):
            os.close(fd)
        for child in children:
            assert child.wait(timeout=120) == 0
        assert [json.loads(out.read_text()) for out in outs] == [[0, []], [0, []]]

    def test_circuit_error_exits_usage_error_in_a_child(self):
        # main maps a CircuitError to exit 2 by the circuits module it finds loaded
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "resources", "--builder", "karatsuba",
             "--n", "7", "--modulus", "77", "--cutoff", "4"],
            capture_output=True, timeout=60, env=cli_env())
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(b"error: ")
