"""Line-delimited wire protocol separating verifier and prover processes.

One JSON frame per newline-terminated line: {"v": 1, "session": ..,
"seq": .., "msg": {"tag": .., ...payload}}.  Payload integers follow the
transcripts' rule (protocol.json_ints): a JSON number up to 2^53 in
magnitude, a decimal string beyond; readers accept either form.  The
verifier drives: it sends the public key, then for each iteration the
message sequence of the protocol; the prover answers synchronously.  A
final {"tag": "end"} frame closes the session.
"""

from __future__ import annotations

import json
import socket
from dataclasses import dataclass

from . import protocol, tcf

WIRE_VERSION = 1


class ParseError(ValueError):
    def __init__(self, message, offset=0):
        super().__init__(message)
        self.offset = offset


class TransportError(RuntimeError):
    pass


@dataclass(frozen=True)
class WireFrame:
    session: str
    seq: int
    msg: dict
    version: int = WIRE_VERSION


def encode_frame(frame: WireFrame) -> bytes:
    doc = {"v": frame.version, "session": frame.session, "seq": frame.seq,
           "msg": protocol.json_ints(frame.msg)}
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()


def decode_frame(line: bytes) -> WireFrame:
    text = line.decode("utf-8", errors="replace").strip()
    if not text:
        raise ParseError("empty frame")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", offset=e.pos) from None
    except ValueError as e:  # an integer literal beyond int's digit limit
        raise ParseError(f"bad JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("frame is not a JSON object")
    if doc.get("v") != WIRE_VERSION:
        raise ParseError(f"unsupported version {doc.get('v')!r}")
    for field in ("session", "seq", "msg"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    msg, seq = doc["msg"], doc["seq"]
    if not isinstance(msg, dict):
        raise ParseError("message is not a JSON object")
    if "tag" not in msg:
        raise ParseError("message lacks a tag")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise ParseError(f"sequence number {seq!r} is not an integer")
    return WireFrame(session=doc["session"], seq=seq, msg=msg)


# ---------------------------------------------------------------------------
# transports

class Channel:
    """Synchronous framed channel over a pair of byte streams."""

    def __init__(self, rfile, wfile, session: str):
        self.rfile = rfile
        self.wfile = wfile
        self.session = session
        self._seq_out = 0
        self._seq_in = -1

    def send(self, msg: dict) -> None:
        frame = WireFrame(session=self.session, seq=self._seq_out, msg=msg)
        self._seq_out += 1
        try:
            self.wfile.write(encode_frame(frame))
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
        frame = decode_frame(line)
        if frame.seq <= self._seq_in:
            raise ParseError(f"sequence went backwards: {frame.seq}")
        self._seq_in = frame.seq
        return frame.msg


def open_tcp_listener(host: str, port: int) -> socket.socket:
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    srv.bind((host, port))
    srv.listen(1)
    return srv


def channel_from_socket(sock: socket.socket, session: str, timeout: float = 30.0) -> Channel:
    sock.settimeout(timeout)
    return Channel(sock.makefile("rb"), sock.makefile("wb"), session)


# ---------------------------------------------------------------------------
# verifier / prover drivers

def _int(value, field: str) -> int:
    """A payload integer, sent as a JSON integer or a decimal string;
    ParseError for anything else, a missing field (None) included."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
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
        return y, _int(msg.get("h", 0), "h"), _int(msg.get("h_len", 0), "h_len")

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
    rng = derive_rng(seed, "verifier")
    transcripts = []
    for i in range(trials):
        transcripts.append(protocol.run_iteration(ctx, remote, rng, config, i))
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
    """Prover-side session loop: builds the prover from the received public
    key and answers until the end frame.  A frame out of protocol order or
    a missing or non-integer field raises ParseError."""
    hello = channel.recv()
    if hello["tag"] != "key":
        raise TransportError("expected key frame first")
    if not isinstance(hello.get("key_json"), str):
        raise ParseError("key frame lacks the key_json string")
    prover = make_prover(hello["key_json"], _int(hello.get("prover_seed", 0), "prover_seed"))
    last = None
    while True:
        msg = channel.recv()
        tag = msg["tag"]
        if tag == "end":
            return
        if not isinstance(tag, str) or tag not in _NEXT:
            raise TransportError(f"unexpected frame {tag!r:.40}")
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
