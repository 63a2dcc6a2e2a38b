"""Line-delimited wire protocol separating verifier and prover processes.

One JSON frame per newline-terminated line: {"v": 1, "session": ..,
"seq": .., "msg": {"tag": .., ...payload}}.  The encoder keeps each
frame's bytes fixed: the envelope's keys in sorted order
({"msg":..,"seq":..,"session":..,"v":1}), the message's keys sorted
too, "," and ":" as separators with no spaces, ASCII only (JSON's
escapes, and \\uXXXX for every non-ASCII character), and one "\\n"
ending the line.  Payload integers follow the transcripts' rule
(protocol.json_ints): a JSON number up to 2^53 in magnitude, a decimal
string beyond; readers accept either form.  The verifier drives: it
sends the public key and the session length, then for each iteration
the message sequence of the protocol; the prover answers synchronously.
A final {"tag": "end"} frame closes the session.  The verifier names
the session, the prover adopts that name from the key frame, and either
side rejects a frame from another session.
"""

from __future__ import annotations

import json
import socket

from . import protocol, tcf

WIRE_VERSION = 1


class ParseError(ValueError):
    pass


class TransportError(RuntimeError):
    pass


# one encoder and one decoder for every frame: json.dumps and json.loads
# would build or look up theirs, and serialize or check a whole
# envelope, on each call
_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_DECODE = json.JSONDecoder().raw_decode


def encode_frame(session: str, seq: int, msg: dict) -> bytes:
    """The frame's line: the envelope written around the message's JSON,
    its keys in the order sort_keys gives them."""
    return (f'{{"msg":{_ENCODE(protocol.json_ints(msg))},"seq":{seq},'
            f'"session":{_ENCODE(session)},"v":{WIRE_VERSION}}}\n').encode()


def decode_frame(line: bytes) -> tuple[str, int, dict]:
    """The (session, seq, msg) of one line, or a ParseError."""
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        raise ParseError("empty frame")
    # json.loads(text) in one pass of the shared decoder, with its errors
    if text[0] == "\ufeff":
        raise ParseError("bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")
    try:
        doc, end = _DECODE(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}") from None
    except ValueError as e:  # an integer literal beyond int's digit limit
        raise ParseError(f"bad JSON: {e}") from None
    except RecursionError:  # the scanner recurses once per nesting level
        raise ParseError("bad JSON: nesting too deep") from None
    if end != len(text):  # text is stripped: no JSON whitespace ends it
        raise ParseError("bad JSON: Extra data")
    if not isinstance(doc, dict):
        raise ParseError("frame is not a JSON object")
    version = doc.get("v")
    # the JSON integer 1: true and 1.0 compare equal to it in Python
    if type(version) is not int or version != WIRE_VERSION:
        raise ParseError(f"unsupported version {version!r}")
    for field in ("session", "seq", "msg"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    session, seq, msg = doc["session"], doc["seq"], doc["msg"]
    if not isinstance(session, str):
        raise ParseError(f"session id {session!r:.40} is not a string")
    if not isinstance(msg, dict):
        raise ParseError("message is not a JSON object")
    if "tag" not in msg:
        raise ParseError("message lacks a tag")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise ParseError(f"sequence number {seq!r} is not an integer")
    return session, seq, msg


# ---------------------------------------------------------------------------
# transports

class Channel:
    """Synchronous framed channel over a pair of byte streams.  With session
    None it adopts the first frame's; a frame from another is a ParseError."""

    def __init__(self, rfile, wfile, session: str | None):
        self.rfile = rfile
        self.wfile = wfile
        self.session = session
        self._seq_out = 0
        self._seq_in = -1

    def send(self, msg: dict) -> None:
        seq = self._seq_out
        self._seq_out = seq + 1
        try:
            self.wfile.write(encode_frame(self.session, seq, msg))
            self.wfile.flush()
        except (BrokenPipeError, OSError) as e:
            raise TransportError(f"send failed: {e}") from None

    def recv(self) -> dict:
        try:
            line = self.rfile.readline()
        except OSError as e:
            raise TransportError(f"recv failed: {e}") from None
        if not line:
            raise TransportError("peer closed the stream")
        session, seq, msg = decode_frame(line)
        if self.session is None:
            self.session = session
        elif session != self.session:
            raise ParseError(f"frame from session {session!r:.40}, "
                             f"expected {self.session!r}")
        if seq <= self._seq_in:
            raise ParseError(f"sequence went backwards: {seq}")
        self._seq_in = seq
        return msg


def open_tcp_listener(host: str, port: int) -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    return srv


def channel_from_socket(sock: socket.socket, session: str | None,
                        timeout: float = 30.0) -> Channel:
    sock.settimeout(timeout)
    return Channel(sock.makefile("rb"), sock.makefile("wb"), session)


# ---------------------------------------------------------------------------
# verifier / prover drivers

def _from_decimal(digits: str) -> int:
    """int(digits) for ASCII digits of any length: halved until each part
    has at most protocol.DECIMAL_CHUNK digits."""
    if len(digits) <= protocol.DECIMAL_CHUNK:
        return int(digits)
    k = len(digits) // 2
    return _from_decimal(digits[:-k]) * 10 ** k + _from_decimal(digits[-k:])


def _int(value, field: str) -> int:
    """A payload integer as protocol.json_ints writes it: a JSON integer, or
    a string of ASCII digits after an optional "-"; ParseError for anything
    else, a missing field (None) included."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    digits = value.removeprefix("-") if isinstance(value, str) else ""
    if digits.isascii() and digits.isdigit():
        n = _from_decimal(digits)
        return -n if value.startswith("-") else n
    raise ParseError(f"field {field!r} is missing or not an integer: {value!r:.40}")


class RemoteProver:
    """Prover proxy on the verifier side: each protocol round is one
    request/response exchange on the channel.  `keys` (public data
    suffices) fixes the shape of a valid image."""

    def __init__(self, channel: Channel, keys):
        self.ch = channel
        self.keys = keys

    def _exchange(self, request: dict, reply_tag: str) -> dict:
        self.ch.send(request)
        msg = self.ch.recv()
        if msg["tag"] != reply_tag:
            raise ParseError(f"expected {reply_tag}, got {msg['tag']!r:.40}")
        return msg

    def round1(self):
        msg = self._exchange({"tag": "round1"}, "image")
        y, n = msg.get("y"), self.keys.image_len
        if n is None:
            y = _int(y, "y")
        elif isinstance(y, list) and len(y) == n:
            y = tuple(_int(v, "y") for v in y)
        else:
            raise ParseError(f"image is not a list of {n} integers: {y!r:.40}")
        h, h_len = _int(msg.get("h", 0), "h"), _int(msg.get("h_len", 0), "h_len")
        # h holds one Hadamard outcome per discarded qubit: h_len bits
        if h_len < 0 or h < 0 or h.bit_length() > h_len:
            raise ParseError(f"h does not fit h_len = {h_len!r:.40}")
        return y, h, h_len

    def answer_preimage(self):
        msg = self._exchange({"tag": "challenge", "kind": "preimage"}, "preimage")
        return _int(msg.get("x"), "x")

    def round2(self, r):
        msg = self._exchange({"tag": "vector", "r": r}, "equation")
        return _int(msg.get("d"), "d")

    def round3(self, sign):
        msg = self._exchange({"tag": "basis", "sign": sign}, "result")
        return _int(msg.get("bit"), "bit")


def serve_session(channel: Channel, ctx, trials: int, seed: int, config=None):
    """Verifier-side session loop; returns (ScoreReport, transcripts)."""
    from .seeds import derive_rng
    config = config or protocol.IterationConfig()
    channel.send({"tag": "key", "key_json": tcf.key_to_json(ctx.keys, include_secret=False),
                  "trials": trials, "prover_seed": seed})
    remote = RemoteProver(channel, ctx.keys)
    transcripts = protocol.run_session(ctx, remote, derive_rng(seed, "verifier"), config,
                                       trials)
    channel.send({"tag": "end"})
    return protocol.score(transcripts), transcripts


# the verifier frames that may follow each one in a session (None: the key)
_NEXT = {
    None: ("round1",),
    "round1": ("round1", "challenge", "vector"),  # round1 again: silent discard
    "challenge": ("round1",),
    "vector": ("basis",),
    "basis": ("round1",),
}


def prover_loop(channel: Channel, make_prover):
    """Prover-side session loop: builds the prover as make_prover(key_json,
    seed, trials) from the key frame and answers until the end frame.  The
    session length `trials` is None when the key frame omits it.  A frame
    out of protocol order, of an unknown tag, or with a missing or
    non-integer field raises ParseError, and so does a negative length."""
    hello = channel.recv()
    if hello["tag"] != "key":
        raise ParseError("expected key frame first")
    if not isinstance(hello.get("key_json"), str):
        raise ParseError("key frame lacks the key_json string")
    trials = hello.get("trials")
    if trials is not None:
        trials = _int(trials, "trials")
        if trials < 0:
            raise ParseError(f"session length must be nonnegative, got {trials!r:.40}")
    prover = make_prover(hello["key_json"], _int(hello.get("prover_seed", 0), "prover_seed"),
                         trials)
    last = None
    while True:
        msg = channel.recv()
        tag = msg["tag"]
        if tag == "end":
            return
        if not isinstance(tag, str) or tag not in _NEXT:
            raise ParseError(f"unexpected frame {tag!r:.40}")
        if tag not in _NEXT[last]:
            raise ParseError(f"{tag!r} frame after {last!r}")
        last = tag
        if tag == "round1":
            y, h, h_len = prover.round1()
            channel.send({"tag": "image", "y": y, "h": h, "h_len": h_len})
        elif tag == "challenge":
            channel.send({"tag": "preimage", "x": prover.answer_preimage()})
        elif tag == "vector":
            channel.send({"tag": "equation", "d": prover.round2(_int(msg.get("r"), "r"))})
        else:
            sign = _int(msg.get("sign"), "sign")
            if sign not in (1, -1):
                raise ParseError(f"basis sign must be +1 or -1, got {sign!r:.40}")
            channel.send({"tag": "result", "bit": prover.round3(sign)})
