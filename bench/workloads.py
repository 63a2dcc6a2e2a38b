"""The four benchmark workloads: their keys, their operations and the check
each operation's output must pass.

Every workload is a closed loop: one caller runs a fixed list of `qbell`
CLI calls (a pass) and waits for each reply.  All inputs come from the
workload seed: the keys, and for each of a few input instances the
`--seed` of every call.  Passes cycle through the instances, so passes of
one instance must print the same bytes.

Why each workload exists:
  protocol   the C1-C3 path users run most (`run` with the ideal and cheater
             provers on Rabin and DDH keys, `extract`); it uses no circuits
             and no wire, so a circuit-engine change must not move it.
  sweep      the C6/C7 path: batched two-branch circuit runs, circuit builds,
             resource counting and post-selection.
  noisy_run  the same circuits layer one run at a time (`run` with the
             circuit-level noisy prover), plus the verifier's recomputation.
  wire       verifier and prover as two processes over stdio pipes; the only
             workload that exercises framing and the pipe round trip.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

COS2_PI_8 = math.cos(math.pi / 8) ** 2
EXTRACT_BITS = (24, 26, 28, 30, 32)
RESOURCE_BUILDERS = ("schoolbook", "karatsuba", "phase1", "phase2")
# C6 reference table at n = 128: (field, target); a count passes within x2
RESOURCE_TARGETS = {
    "schoolbook": (("qubits", 515), ("gates_clifford_t", 9.1e5)),
    "karatsuba": (("qubits", 942), ("gates_clifford_t", 7.7e5)),
    "phase1": (("qubits", 128), ("gates", 1.1e6)),
    "phase2": (("gates", 4.3e5),),
}
SWEEP_GRIDS = {  # fidelities bracketing each m's threshold, plus F = 1.0
    0: (0.3, 0.7, 1.0),
    1: (0.06, 0.4, 1.0),
    3: (0.004, 0.05, 1.0),
}
SWEEP_TRIALS = 512
# The ideal prover's extractor must succeed on at least this many of a
# pass's len(EXTRACT_BITS) keys; the package's tests expect it to win 23 of
# 25 extractions.
MIN_EXTRACTIONS = 3
# Input instances a run cycles through.  More instances average out how the
# cost of a noisy run or a sweep point depends on its random inputs.  A wire
# session's cost hardly depends on them, and every new instance costs an
# in-process replay for its check, so wire keeps one and takes its medians
# over more repeats of the same sessions instead.
INSTANCES = {"protocol": 3, "sweep": 3, "noisy_run": 5, "wire": 1}


def sub_seed(seed: int, *labels) -> int:
    """A 31-bit seed for one input of the workload, derived from its seed."""
    h = hashlib.sha256(repr((seed,) + labels).encode()).digest()
    return int.from_bytes(h[:4], "little") >> 1


@dataclass
class Op:
    """One timed qbell call.

    kind: "iter" (protocol iterations; `units` of them), "extract",
    "sweep" (`units` circuit trials over `points` sweep points) or
    "resources".  A wire op has `prover_argv` set and runs as two
    processes; `argv` is then the verifier's.  `check(text)` returns a list
    of failure reasons, one entry per failed operation inside the call.
    """

    name: str
    kind: str
    argv: list
    units: int
    check: object
    prover_argv: list | None = None
    points: int = 1
    known_defect: str | None = None
    replay: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        """Operations inside the call: iterations, sweep points, or one."""
        if self.kind == "iter":
            return self.units
        if self.kind == "sweep":
            return self.points
        return 1


# ---------------------------------------------------------------------------
# checks


def _report(text):
    doc = json.loads(text)
    from fractions import Fraction
    return doc, float(Fraction(doc["p_x"])), float(Fraction(doc["p_m"]))


def _within(p, target, n, sigmas=4.0):
    return n > 0 and abs(p - target) <= sigmas * math.sqrt(target * (1 - target) / n)


def check_honest(text):
    """p_x = 1 and p_m within 4 sigma of cos^2(pi/8)."""
    doc, px, pm = _report(text)
    if px != 1.0 or not _within(pm, COS2_PI_8, doc["trials_m"]):
        return [f"honest prover scored p_x={px:.4f} p_m={pm:.4f} "
                f"over {doc['trials_m']} measurement rounds"]
    return []


def check_cheater(text):
    """p_x = 1 and p_m within 4 sigma of 3/4."""
    doc, px, pm = _report(text)
    if px != 1.0 or not _within(pm, 0.75, doc["trials_m"]):
        return [f"cheater scored p_x={px:.4f} p_m={pm:.4f}"]
    return []


def check_rates(text):
    """Both rates lie in [0, 1]."""
    _, px, pm = _report(text)
    if not (0.0 <= px <= 1.0 and 0.0 <= pm <= 1.0):
        return [f"rates out of range: p_x={px} p_m={pm}"]
    return []


def check_extract(factors):
    def check(text):
        doc = json.loads(text)
        if doc["success"] and sorted(int(f) for f in doc["factors"]) != factors:
            return [f"extraction returned {doc['factors']}, key has {factors}"]
        return []
    return check


def check_extractions(ops, texts):
    """The check of a whole pass: if the extractor succeeded on fewer than
    MIN_EXTRACTIONS of its keys, each extraction that gave up counts as a
    failed operation.  `texts` maps op name to the output of each call that
    exited 0.  Returns (failed operations, reason or None)."""
    outcomes = []
    for op in ops:
        if op.kind == "extract" and op.name in texts:
            try:
                outcomes.append(json.loads(texts[op.name])["success"])
            except (ValueError, KeyError, TypeError):
                outcomes.append(None)  # already failed by the op's own check
    n = sum(op.kind == "extract" for op in ops)
    wins = outcomes.count(True)
    if not n or wins >= MIN_EXTRACTIONS:
        return 0, None
    return outcomes.count(False), (f"the extractor succeeded on {wins} of {n} keys, "
                                   f"fewer than {MIN_EXTRACTIONS}")


def check_sweep(text):
    fails = []
    for row in json.loads(text):
        rates = [row["p_x"], row["p_m"], row["discard_rate"]]
        if not all(0.0 <= r <= 1.0 for r in rates):
            fails.append(f"m={row['m']} F={row['F']}: rates {rates} out of [0, 1]")
        elif row["F"] == 1.0 and not (
                row["p_x"] == 1.0 and row["discard_rate"] == 0.0
                and _within(row["p_m"], COS2_PI_8, row["kept"] // 2)):
            fails.append(f"m={row['m']} F=1.0: p_x={row['p_x']} p_m={row['p_m']} "
                         f"discard_rate={row['discard_rate']}")
    return fails


def check_resources(builder):
    def check(text):
        doc = json.loads(text)
        return [f"{builder} {k}={doc[k]} outside x2 of {want:g}"
                for k, want in RESOURCE_TARGETS[builder]
                if not 0.5 <= doc[k] / want <= 2.0]
    return check


def check_replay(expected_text):
    """The wire verifier's report equals the in-process replay's bytes."""
    def check(text):
        if text != expected_text:
            return [f"wire report {text.strip()} != in-process {expected_text.strip()}"]
        return []
    return check


# ---------------------------------------------------------------------------
# workloads: key specs for set-up, and the ops of one pass


def _rabin(name, bits, seed):
    return {"name": name, "family": "rabin", "bits": bits, "seed": sub_seed(seed, name)}


def key_specs(workload: str, seed: int) -> list:
    if workload == "protocol":
        return ([_rabin("rabin64", 64, seed),
                 {"name": "ddh", "family": "ddh", "bits": 24, "k": 2,
                  "seed": sub_seed(seed, "ddh")}]
                + [_rabin(f"rabin{b}", b, seed) for b in EXTRACT_BITS])
    if workload in ("sweep", "noisy_run"):
        return [_rabin("rabin64", 64, seed)]
    if workload == "wire":
        return [_rabin("rabin16", 16, seed)]
    raise ValueError(f"unknown workload {workload!r}")


def ops(workload: str, seed: int, instance: int, keys: dict, out: str) -> list:
    """The operations of one pass over input instance `instance`.  `keys`
    maps key name to its path and the loaded key; `out` is the directory
    for the calls' output files."""
    s = lambda *labels: str(sub_seed(seed, instance, *labels))  # noqa: E731
    o = lambda name: f"{out}/{name}.out"  # noqa: E731

    if workload == "protocol":
        k64 = keys["rabin64"]["path"]
        result = [
            Op("run-ideal-rabin64", "iter",
               ["run", "--key", k64, "--prover", "ideal", "--trials", "2000",
                "--seed", s("ideal"), "--out", o("run-ideal-rabin64")], 2000, check_honest),
            Op("run-cheater-rabin64", "iter",
               ["run", "--key", k64, "--prover", "cheater", "--trials", "2000",
                "--seed", s("cheater"), "--out", o("run-cheater-rabin64")], 2000, check_cheater),
            Op("run-ideal-ddh", "iter",
               ["run", "--key", keys["ddh"]["path"], "--prover", "ideal", "--trials", "1000",
                "--seed", s("ddh"), "--out", o("run-ideal-ddh")], 1000, check_honest),
        ]
        for b in EXTRACT_BITS:
            key = keys[f"rabin{b}"]
            name = f"extract-rabin{b}"
            result.append(Op(
                name, "extract",
                ["extract", "--key", key["path"], "--prover", "ideal", "--probes", "6",
                 "--seed", s(name), "--out", o(name)], 1,
                check_extract(sorted((key["keys"].p, key["keys"].q)))))
        return result

    if workload == "sweep":
        k64 = keys["rabin64"]["path"]
        result = []
        for m, grid in SWEEP_GRIDS.items():
            name = f"sweep-m{m}"
            result.append(Op(
                name, "sweep",
                ["sweep", "--key", k64, "--builder", "karatsuba", "--m-values", str(m),
                 "--fidelities", ",".join(map(str, grid)), "--trials", str(SWEEP_TRIALS),
                 "--seed", s(name), "--json", "--out", o(name)],
                SWEEP_TRIALS * len(grid), check_sweep, points=len(grid)))
        for b in RESOURCE_BUILDERS:
            name = f"resources-{b}"
            result.append(Op(name, "resources",
                             ["resources", "--builder", b, "--n", "128", "--out", o(name)],
                             1, check_resources(b)))
        return result

    if workload == "noisy_run":
        k64 = keys["rabin64"]["path"]
        return [
            Op("run-noisy-F1-m0", "iter",
               ["run", "--key", k64, "--prover", "noisy:F=1.0,circuit=karatsuba,m=0",
                "--trials", "25", "--seed", s("noisy-m0"), "--out", o("run-noisy-F1-m0")],
               25, check_honest),
            Op("run-noisy-F0.5-m1-postselect", "iter",
               ["run", "--key", k64, "--prover", "noisy:F=0.5,circuit=karatsuba,m=1",
                "--postselect", "--trials", "25", "--seed", s("noisy-m1"),
                "--out", o("run-noisy-F0.5-m1-postselect")],
               25, check_rates),
        ]

    if workload == "wire":
        key = keys["rabin16"]["path"]
        result = []
        for name, prover, trials in (
                ("wire-cheater", ["--prover", "cheater"], 3000),
                ("wire-ideal", ["--prover", "ideal", "--key", key], 3000),
                ("wire-noisy", ["--prover", "noisy:F=1.0,circuit=schoolbook,m=0",
                                "--key", key], 200)):
            vseed = sub_seed(seed, instance, name)
            op = Op(name, "iter",
                    ["verify", "--key", key, "--transport", "stdio", "--trials", str(trials),
                     "--seed", str(vseed), "--out", o(name)], trials, None,
                    prover_argv=["prove", "--transport", "stdio"] + prover,
                    replay={"prover": prover[1], "seed": vseed, "trials": trials})
            if name == "wire-noisy":
                op.known_defect = (
                    "ROADMAP item 4: `qbell verify` builds a plain protocol context, so "
                    "a circuit-backed prover over the wire scores p_x = 0 where "
                    "`qbell run` scores p_x = 1")
            result.append(op)
        return result

    raise ValueError(f"unknown workload {workload!r}")


def replay_report(keys, prover_spec: str, seed: int, trials: int) -> str:
    """The report `qbell run` semantics give a wire session: the verifier
    stream derive_rng(seed, "verifier"), prover seed `seed`, and the protocol
    context `qbell run` builds for that prover."""
    from qbell import cli, protocol
    from qbell.seeds import derive_rng
    prover, ctx = cli.build_prover(cli.parse_prover_spec(prover_spec), keys, seed)
    rng = derive_rng(seed, "verifier")
    config = protocol.IterationConfig()
    transcripts = [protocol.run_iteration(ctx, prover, rng, config, i)
                   for i in range(trials)]
    return protocol.score(transcripts).to_json() + "\n"


def is_known_defect(op: Op, reasons: list, text: str | None, expected: str) -> bool:
    """The wire noisy session fails exactly as documented: both roles exit
    0, the wire verifier scores p_x = 0 and the replay scores p_x = 1."""
    if op.known_defect is None or len(reasons) != 1 or text is None:
        return False
    return json.loads(text)["p_x"] == "0" and json.loads(expected)["p_x"] == "1"
