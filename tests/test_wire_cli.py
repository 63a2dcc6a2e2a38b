"""Wire frames, process separation, CLI subcommands, determinism."""

import json
import os
import random
import socket
import subprocess
import sys
import threading
from io import BytesIO

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbell import protocol as proto
from qbell import cli, provers, tcf, wire
from qbell.cli import main as cli_main

from helpers import cli_env, gen_exact_bits


class TestFrames:
    def test_round_trip(self):
        frame = wire.WireFrame(session="abc", seq=3,
                               msg={"tag": "vector", "r": 12345678901234567890})
        back = wire.decode_frame(wire.encode_frame(frame))
        assert back.session == "abc" and back.seq == 3
        assert back.msg["tag"] == "vector"
        assert int(back.msg["r"]) == 12345678901234567890

    @given(st.integers(min_value=0, max_value=2 ** 128), st.integers(0, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, r, seq):
        frame = wire.WireFrame(session="s", seq=seq, msg={"tag": "vector", "r": r})
        back = wire.decode_frame(wire.encode_frame(frame))
        assert int(back.msg["r"]) == r and back.seq == seq

    def test_truncated_line(self):
        with pytest.raises(wire.ParseError):
            wire.decode_frame(b'{"v": 1, "session": "x"')

    def test_unknown_version(self):
        with pytest.raises(wire.ParseError, match="version"):
            wire.decode_frame(b'{"v": 9, "session": "x", "seq": 0, "msg": {"tag": "end"}}')

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
                frame = wire.decode_frame(line)
            except wire.ParseError:
                continue
            assert isinstance(frame, wire.WireFrame)
            assert isinstance(frame.seq, int) and isinstance(frame.msg, dict)

    @given(st.lists(st.fixed_dictionaries(
        {"tag": st.sampled_from(["round1", "challenge", "vector", "basis", "end",
                                 "image", "key", "bogus"])},
        optional={field: st.none() | st.booleans() | st.integers() | st.floats()
                  | st.text(max_size=8) | st.integers().map(str)
                  | st.lists(st.integers(), max_size=2)
                  for field in ("r", "sign")}), max_size=12), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_message_sequence_is_answered_or_typed_error(self, msgs, ideal):
        keys = gen_exact_bits(16)
        frames = [{"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False)}]
        frames += msgs
        lines = b"".join(json.dumps({"v": 1, "session": "v", "seq": i, "msg": m}).encode()
                         + b"\n" for i, m in enumerate(frames))
        ch = wire.Channel(BytesIO(lines), BytesIO(), "p")

        def make_prover(key_json, seed):
            if ideal:
                return provers.IdealProver(keys, seed)
            return provers.CheaterProver(tcf.key_from_json(key_json), seed)

        try:
            wire.prover_loop(ch, make_prover)
        except (wire.ParseError, wire.TransportError):
            pass

    @pytest.mark.parametrize("call, reply", [
        (lambda rp: rp.round1(), {"tag": "image", "y": "12", "h": "x"}),
        (lambda rp: rp.answer_preimage(), {"tag": "preimage"}),
        (lambda rp: rp.round2(3), {"tag": "equation", "d": 1.5}),
        (lambda rp: rp.round3(1), {"tag": "image", "y": "1"}),  # wrong reply
    ])
    def test_remote_prover_rejects_bad_replies(self, call, reply):
        line = json.dumps({"v": 1, "session": "p", "seq": 0, "msg": reply}).encode()
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
        line = json.dumps({"v": 1, "session": "p", "seq": 0,
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
        frame = wire.encode_frame(wire.WireFrame(
            "s", 0, {"tag": "image", "y": vector, "h": scalar, "h_len": 3}))
        msg = json.loads(frame)["msg"]
        t = proto.Transcript(0, [proto.ImageMsg(y=tuple(vector), h=scalar, h_len=3),
                                 proto.VectorMsg(r=scalar, n=3)])
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
        frame = wire.WireFrame(session="s", seq=0, msg={"tag": "image", "y": 2 ** 90})
        doc = json.loads(wire.encode_frame(frame))
        assert doc["msg"]["y"] == str(2 ** 90)


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

    def test_extract_cli(self, keyfiles, tmp_path):
        key, _ = keyfiles
        out = tmp_path / "ex.json"
        assert run_cli("extract", "--key", str(key), "--prover", "ideal",
                       "--probes", "6", "--seed", "3", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["success"] is True
        keys = tcf.key_from_json(key.read_text())
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

        def small_budget(spec, keys, seed):
            prover, ctx = build(spec, keys, seed)
            prover.max_attempts = 2  # y is valid with probability ~1/729 here
            return prover, ctx

        monkeypatch.setattr(cli, "build_prover", small_budget)
        assert run_cli("run", "--key", str(key), "--prover",
                       "noisy:F=0.0001,circuit=schoolbook,m=3", "--trials", "3",
                       "--out", str(tmp_path / "rep.json")) == 4

    def test_usage_error_exit_code(self):
        assert run_cli("frobnicate") == 2
        assert run_cli("run", "--key", "/nonexistent", "--prover", "bogus") in (2, 3)

    def test_malformed_frame_exits_protocol_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio"],
            input=b"[1]\n", capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr
        assert b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("msgs", [
        [{"tag": "round1"}, {"tag": "basis", "sign": 1}],  # basis before vector
        [{"tag": "vector", "r": 5}],  # vector before round1
        [{"tag": "round1"}, {"tag": "vector", "r": "abc"}],
        [{"tag": "round1"}, {"tag": "vector"}],  # no r
        [{"tag": "round1"}, {"tag": "vector", "r": 5}, {"tag": "basis", "sign": 7}],
    ])
    def test_prover_payload_and_order_faults_exit_protocol_error(self, msgs):
        keys = gen_exact_bits(16)
        frames = [{"tag": "key", "key_json": tcf.key_to_json(keys, include_secret=False)}]
        stdin = b"".join(wire.encode_frame(wire.WireFrame("v", i, m))
                         for i, m in enumerate(frames + msgs))
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio",
             "--prover", "cheater"],
            input=stdin, capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == 4, proc.stderr
        assert b"Traceback" not in proc.stderr

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
        stdin = b"".join(wire.encode_frame(wire.WireFrame("v", i, m))
                         for i, m in enumerate(frames))
        proc = subprocess.run(
            [sys.executable, "-m", "qbell.cli", "prove", "--transport", "stdio",
             "--prover", "ideal", "--key", str(path)],
            input=stdin, capture_output=True, timeout=120, env=cli_env())
        assert proc.returncode == rc, proc.stderr
        assert b"Traceback" not in proc.stderr

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
    ])
    def test_bad_arguments_exit_usage_error(self, tmp_path, capsys, argv):
        paths = {"rabin": tmp_path / "rabin.json", "ddh": tmp_path / "ddh.json"}
        paths["rabin"].write_text(tcf.key_to_json(gen_exact_bits(16)))
        paths["ddh"].write_text(tcf.key_to_json(tcf.ddh_gen(2, 10, seed=3)))
        assert run_cli(*(a.format(**paths) for a in argv)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_wrong_key_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = run_cli("run", "--key", str(bad), "--prover", "ideal")
        assert rc != 0


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
    def _tcp_report(self, keys, trials, seed):
        ctx = proto.ProtocolContext.plain(keys)
        srv = wire.open_tcp_listener("127.0.0.1", 0)
        port = srv.getsockname()[1]
        results = {}

        def server():
            conn, _ = srv.accept()
            ch = wire.channel_from_socket(conn, "t", timeout=60)
            report, _ = wire.serve_session(ch, ctx, trials, seed=seed)
            results["report"] = report

        th = threading.Thread(target=server)
        th.start()
        sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        ch = wire.channel_from_socket(sock, "t", timeout=60)
        wire.prover_loop(ch, lambda key_json, seed_:
                         provers.CheaterProver(tcf.key_from_json(key_json), seed_))
        th.join(timeout=60)
        srv.close()
        return results["report"]

    def test_tcp_session_scores_like_cheater(self):
        rep = self._tcp_report(gen_exact_bits(24), trials=600, seed=42)
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
        tcp_rep = json.loads(self._tcp_report(keys, trials=600, seed=42).to_json())
        assert stdio_rep == tcp_rep
