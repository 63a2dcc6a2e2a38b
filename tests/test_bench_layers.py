"""The bench's traced runs (`bench/run.py --trace 1`) wrap package functions
by name from outside: every name they patch must exist, the patching
must undo cleanly, and the wire rows must count every frame."""

import importlib
import os
import random
import types
from collections import Counter
from io import BytesIO

from qbell import circuits as cc
from qbell import wire

from helpers import gate_count, gen_exact_bits

LAYERS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "layers.py")


def _load_layers():
    """bench/layers.py as a fresh module, executed from its source so that
    nothing (not even bytecode) is written under bench/."""
    module = types.ModuleType("bench_layers")
    module.__file__ = LAYERS
    with open(LAYERS) as f:
        exec(compile(f.read(), LAYERS, "exec"), module.__dict__)
    return module


def _bindings(layers, mods):
    """Every binding install() may replace: the attribute of each target in
    every module namespace, and the class entry of each method target."""
    out = {}
    for mod_name, attr in layers.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[mod_name], cls_name)
            out[cls, meth] = cls.__dict__[meth]
        else:
            for mod in mods.values():
                out[mod, attr] = mod.__dict__.get(attr)
    return out


def test_trace_targets_resolve_and_uninstall_restores():
    layers = _load_layers()
    mods = {m: importlib.import_module(f"qbell.{m}") for m in layers.MODULES}
    for mod_name, attr in layers.TARGETS:
        owner = mods[mod_name]
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (mod_name, attr)

    before = _bindings(layers, mods)
    tracer = layers.Tracer()
    tracer.install()
    try:
        patched = _bindings(layers, mods)
        for mod_name, attr in layers.TARGETS:
            if "." not in attr:
                key = (mods[mod_name], attr)
                assert patched[key] is not before[key], (mod_name, attr)
        # a traced call records its span and its hook's count
        circ = cc.build_modsquare(gen_exact_bits(12).N)
        cc.run_two_branch(circ, 3, 5, 0.0, random.Random(0))
        assert "circuits.run_two_branch" in tracer.names
        assert tracer.counters["scalar_gate_evals"] == gate_count(circ)
    finally:
        tracer.uninstall()
    after = _bindings(layers, mods)
    assert all(after[key] is before[key] for key in before)


def test_traced_channels_count_every_frame():
    # wire.frames, wire.bytes, wire.encode_s and wire.decode_s come from the
    # wrapped codec, which Channel reaches through wire's module globals
    layers = _load_layers()
    msgs = [{"tag": "round1"}, {"tag": "image", "y": 12345, "h": 5, "h_len": 3},
            {"tag": "vector", "r": 2 ** 80}, {"tag": "end"}]
    sent = BytesIO()
    tracer = layers.Tracer()
    tracer.install()
    try:
        sender = wire.Channel(BytesIO(), sent, "s")
        for msg in msgs:
            sender.send(msg)
        receiver = wire.Channel(BytesIO(sent.getvalue()), BytesIO(), None)
        tags = [receiver.recv()["tag"] for _ in msgs]
    finally:
        tracer.uninstall()
    assert tags == [msg["tag"] for msg in msgs]
    spans = Counter(tracer.names[i] for i in tracer.name)
    assert spans["wire.encode_frame"] == spans["wire.decode_frame"] == len(msgs)
    metrics = layers.layer_metrics(tracer.tally())
    assert metrics["wire.frames"] == len(msgs)
    assert metrics["wire.bytes"] == len(sent.getvalue())
    assert metrics["wire.encode_s"] > 0 and metrics["wire.decode_s"] > 0
