"""Traced runs: wrap qbell's public functions from outside and turn the
spans into per-layer metrics.

The wrappers live here, not in the package: `install` replaces each target
in every qbell module namespace that holds it (provers and postselect bind
`sample_claw` and the protocol helpers by `from ... import`), and on the
class for methods.  A span records its name, start, end, parent span and
the protocol iteration it belongs to.  Spans stay in memory until the
traced calls are done; then `dump` writes them to SPANS_DIR and `tally`
summarizes them into additive numbers and samples.  Tallies from several
processes add up before `layer_metrics` turns them into the named
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import statistics
from array import array
from time import perf_counter

# Each traced pass overwrites its span files here, so the directory holds
# the spans of the last traced pass of each workload.
SPANS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         ".bench-spans")

MODULES = ("tcf", "provers", "protocol", "circuits", "postselect", "extractor",
           "wire", "cli")

# (module, attribute or Class.method); the span is named "<module>.<attr>"
TARGETS = (
    ("tcf", "rabin_gen"), ("tcf", "ddh_gen"),
    ("tcf", "invert"), ("tcf", "rabin_invert"), ("tcf", "ddh_invert"),
    ("tcf", "evaluate"), ("tcf", "rabin_eval"), ("tcf", "ddh_eval"),
    ("provers", "sample_claw"),
    ("provers", "ProverBase.round1"), ("provers", "ProverBase.round2"),
    ("provers", "ProverBase.round3"), ("provers", "ProverBase.reset"),
    ("protocol", "run_iteration"), ("protocol", "score"),
    ("circuits", "build_modsquare"), ("circuits", "run_two_branch"),
    ("circuits", "run_two_branch_batch"), ("circuits", "evaluate_classical"),
    ("circuits", "count_resources"), ("circuits", "phase_circuit_resources"),
    ("postselect", "run_sweep"), ("postselect", "lift_key"),
    ("extractor", "extract_and_factor"), ("extractor", "gl_list_decode"),
    ("extractor", "RewindableOracle.query"),
    ("wire", "serve_session"), ("wire", "prover_loop"),
    ("wire", "encode_frame"), ("wire", "decode_frame"), ("wire", "Channel.recv"),
    ("wire", "RemoteProver.round1"), ("wire", "RemoteProver.answer_preimage"),
    ("wire", "RemoteProver.round2"), ("wire", "RemoteProver.round3"),
    ("cli", "main"), ("cli", "build_prover"),
)

INVERT = ("tcf.invert", "tcf.rabin_invert", "tcf.ddh_invert")
EVAL = ("tcf.evaluate", "tcf.rabin_eval", "tcf.ddh_eval")
KEYGEN = ("tcf.rabin_gen", "tcf.ddh_gen")
RTT = ("wire.RemoteProver.round1", "wire.RemoteProver.answer_preimage",
       "wire.RemoteProver.round2", "wire.RemoteProver.round3")
OUTCOMES = ("AcceptedPreimage", "RejectedPreimage", "AcceptedMeasurement",
            "RejectedMeasurement", "DiscardedInvalidY")


class Tracer:
    """In-memory span store plus the counters recorded at wrapped boundaries."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.clear()
        self._patches = []

    def clear(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.iteration = array("i")
        self._stack = []
        self._iter = -1
        self.counters = {}
        self.provers = []
        self.unitary = {}  # id(circuit) -> unitary gate count

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _unitary_gates(self, circuit, fresh=False):
        n = None if fresh else self.unitary.get(id(circuit))
        if n is None:
            from qbell.circuits import UNITARY_TAGS
            n = sum(1 for g in circuit.gates if g[0] in UNITARY_TAGS)
            self.unitary[id(circuit)] = n
        return n

    # ------------------------------------------------------------------
    # wrapping

    def wrap(self, span_name, fn):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        hook = _HOOKS.get(span_name)
        sets_iteration = span_name == "protocol.run_iteration"
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            i = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            saved = tracer._iter
            if sets_iteration:
                tracer._iter = args[4] if len(args) > 4 else kwargs.get("iteration", 0)
            tracer.iteration.append(tracer._iter)
            tracer.end.append(0.0)
            stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[i] = perf_counter()
                stack.pop()
                tracer._iter = saved
                if hook:
                    hook(tracer, args, None, exc)
                raise
            tracer.end[i] = perf_counter()
            stack.pop()
            tracer._iter = saved
            if hook:
                hook(tracer, args, result, None)
            return result

        return wrapper

    def install(self):
        """Patch every target; `uninstall` restores the originals."""
        import importlib
        mods = {m: importlib.import_module(f"qbell.{m}") for m in MODULES}
        for mod_name, attr in TARGETS:
            span_name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod_name], cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(span_name, orig))
                continue
            orig = getattr(mods[mod_name], attr)
            wrapped = self.wrap(span_name, orig)
            for mod in mods.values():
                if mod.__dict__.get(attr) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------------
    # output

    def harvest(self):
        """Move per-object counts (noisy prover attempts) into the counters."""
        for p in self.provers:
            self.count("noisy_attempts", p.attempts)
            self.count("noisy_valid", p.valid_attempts)
        self.provers = []

    def dump(self, name):
        """Write the spans and counters out as one JSON document,
        SPANS_DIR/<name>.json."""
        self.harvest()
        doc = {"names": self.names, "name": list(self.name),
               "start": list(self.start), "end": list(self.end),
               "parent": list(self.parent), "iteration": list(self.iteration),
               "counters": self.counters}
        os.makedirs(SPANS_DIR, exist_ok=True)
        with open(os.path.join(SPANS_DIR, name + ".json"), "w") as f:
            json.dump(doc, f)

    def tally(self):
        """Summarize the spans recorded since `clear` (see `summarize`)."""
        self.harvest()
        return summarize(self.names, self.name, self.start, self.end,
                         self.parent, self.counters)


# ---------------------------------------------------------------------------
# hooks: counts taken where the work happens

def _hook_build(tr, args, circ, exc):
    if circ is None:
        return
    unitary = tr._unitary_gates(circ, fresh=True)
    tr.count("gates", unitary)
    tr.count("bookkeeping", len(circ.gates) - unitary)
    tr.counters["qubits"] = max(tr.counters.get("qubits", 0), circ.n_qubits)


def _hook_scalar(tr, args, result, exc):
    tr.count("scalar_gate_evals", tr._unitary_gates(args[0]))


def _hook_batch(tr, args, result, exc):
    runs = len(args[1])
    tr.count("batch_runs", runs)
    tr.count("batch_gate_evals", runs * tr._unitary_gates(args[0]))


def _hook_iteration(tr, args, transcript, exc):
    if transcript is not None and transcript.outcome is not None:
        tr.count("outcome." + transcript.outcome.value)


def _hook_sweep(tr, args, rows, exc):
    if rows is not None:
        tr.count("sweep_kept", sum(r.kept for r in rows))
        tr.count("sweep_trials", args[0].trials_per_point * len(rows))


def _hook_extract(tr, args, report, exc):
    tr.count("extractions")
    if report is not None:
        tr.count("extract_success")
        tr.count("queries", report.queries_used)
    else:
        tr.count("queries", getattr(exc, "queries_used", 0))


def _hook_decode(tr, args, candidates, exc):
    if candidates is not None:
        tr.count("candidates", len(candidates))


def _hook_encode(tr, args, data, exc):
    if data is not None:
        tr.count("frame_bytes", len(data))


def _hook_build_prover(tr, args, result, exc):
    from qbell.provers import NoisyCircuitProver
    if result is not None and isinstance(result[0], NoisyCircuitProver):
        tr.provers.append(result[0])


_HOOKS = {
    "circuits.build_modsquare": _hook_build,
    "circuits.run_two_branch": _hook_scalar,
    "circuits.run_two_branch_batch": _hook_batch,
    "protocol.run_iteration": _hook_iteration,
    "postselect.run_sweep": _hook_sweep,
    "extractor.extract_and_factor": _hook_extract,
    "extractor.gl_list_decode": _hook_decode,
    "wire.encode_frame": _hook_encode,
    "cli.build_prover": _hook_build_prover,
}


# ---------------------------------------------------------------------------
# spans -> tally -> metrics

def summarize(names, name, start, end, parent, counters) -> dict:
    """Additive per-layer totals of one span set.

    Self time is a span's duration minus its direct children's.  A group
    total (inversions, evaluations) counts only spans with no ancestor in
    the same group, so invert -> rabin_invert is one inversion.
    """
    n = len(name)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    sname = [names[k] for k in name]

    def flags(pred):
        """flag[i]: some proper ancestor of span i satisfies pred."""
        out = [False] * n
        for i in range(n):
            p = parent[i]
            out[i] = p >= 0 and (out[p] or pred(p))
        return out

    in_group = {}
    for group in (INVERT, EVAL, KEYGEN):
        nested = flags(lambda p, g=group: sname[p] in g)
        in_group[group] = [i for i in range(n) if sname[i] in group and not nested[i]]
    under_iter = flags(lambda p: sname[p] == "protocol.run_iteration")
    under_claw = flags(lambda p: sname[p] == "provers.sample_claw")

    t = {k: float(v) for k, v in counters.items() if k != "qubits"}
    t["qubits"] = [counters.get("qubits", 0)]
    t["rtt_us"] = []

    def add(key, value):
        t[key] = t.get(key, 0.0) + value

    for group, label in ((INVERT, "invert"), (EVAL, "eval"), (KEYGEN, "keygen")):
        idx = in_group[group]
        add(f"{label}_calls", len(idx))
        add(f"{label}_s", sum(dur[i] for i in idx))
    add("claw_images", sum(1 for i in in_group[INVERT] if under_claw[i]))
    add("spans", n)
    for i in range(n):
        s = sname[i]
        add(s + ".calls", 1)
        add(s + ".s", dur[i])
        add(s + ".self_s", dur[i] - child[i])
        if s == "circuits.evaluate_classical" and under_iter[i]:
            add("phase_recompute_calls", 1)
            add("phase_recompute_s", dur[i])
        elif s in RTT:
            t["rtt_us"].append(dur[i] * 1e6)
    return t


def add_tallies(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out[k] + v if k in out else v
    return out


def _pct(samples, q):
    if not samples:
        return 0.0
    s = sorted(samples)
    return s[min(len(s) - 1, int(q * len(s)))]


def layer_metrics(t: dict) -> dict:
    """The per-layer metrics of one traced pass, from its summed tally."""
    g = lambda k: t.get(k, 0.0)  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {
        "tcf.keygen_s": g("keygen_s"),
        "tcf.invert_calls": g("invert_calls"),
        "tcf.invert_s": g("invert_s"),
        "tcf.eval_calls": g("eval_calls"),
        "tcf.eval_s": g("eval_s"),
        "provers.sample_claw_calls": g("provers.sample_claw.calls"),
        "provers.sample_claw_s": g("provers.sample_claw.s"),
        "provers.claw_yield": ratio(g("provers.sample_claw.calls"), g("claw_images")),
        "provers.round1_s": g("provers.ProverBase.round1.s"),
        "provers.round2_s": g("provers.ProverBase.round2.s"),
        "provers.round3_s": g("provers.ProverBase.round3.s"),
        "provers.reset_calls": g("provers.ProverBase.reset.calls"),
        "provers.noisy_attempts": g("noisy_attempts"),
        "provers.noisy_valid_ratio": ratio(g("noisy_valid"), g("noisy_attempts")),
        "protocol.verifier_self_s": g("protocol.run_iteration.self_s"),
        "protocol.phase_recompute_calls": g("phase_recompute_calls"),
        "protocol.phase_recompute_s": g("phase_recompute_s"),
        "protocol.score_s": g("protocol.score.s"),
    }
    for o in OUTCOMES:
        m["protocol.outcome." + o] = g("outcome." + o)
    scalar_s = g("circuits.run_two_branch.s")
    batch_s = g("circuits.run_two_branch_batch.s")
    m.update({
        "circuits.build_s": g("circuits.build_modsquare.s"),
        "circuits.gates": g("gates"),
        "circuits.bookkeeping_events": g("bookkeeping"),
        "circuits.qubits": float(max(t.get("qubits", [0]))),
        "circuits.scalar_runs": g("circuits.run_two_branch.calls"),
        "circuits.scalar_s": scalar_s,
        "circuits.scalar_gate_evals_per_s": ratio(g("scalar_gate_evals"), scalar_s),
        "circuits.classical_evals": g("circuits.evaluate_classical.calls"),
        "circuits.classical_s": g("circuits.evaluate_classical.s"),
        "circuits.batch_calls": g("circuits.run_two_branch_batch.calls"),
        "circuits.batch_runs": g("batch_runs"),
        "circuits.batch_s": batch_s,
        "circuits.batch_us_per_run": ratio(batch_s * 1e6, g("batch_runs")),
        "circuits.batch_gate_evals_per_s": ratio(g("batch_gate_evals"), batch_s),
        "circuits.count_resources_s": g("circuits.count_resources.s"),
        "circuits.phase_resources_s": g("circuits.phase_circuit_resources.s"),
        "postselect.self_s": g("postselect.run_sweep.self_s"),
        "postselect.lift_key_s": g("postselect.lift_key.s"),
        "postselect.kept_ratio": ratio(g("sweep_kept"), g("sweep_trials")),
        "extractor.queries": g("queries"),
        "extractor.query_s": g("extractor.RewindableOracle.query.self_s"),
        "extractor.decode_self_s": g("extractor.gl_list_decode.self_s"),
        "extractor.candidates": g("candidates"),
        "extractor.success_ratio": ratio(g("extract_success"), g("extractions")),
        "wire.frames": g("wire.encode_frame.calls"),
        "wire.bytes": g("frame_bytes"),
        "wire.encode_s": g("wire.encode_frame.s"),
        "wire.decode_s": g("wire.decode_frame.s"),
        "wire.recv_wait_s": g("wire.Channel.recv.self_s"),
        "wire.rtt_p50_us": _pct(t.get("rtt_us", []), 0.50),
        "wire.rtt_p99_us": _pct(t.get("rtt_us", []), 0.99),
        "wire.rtt_samples": float(len(t.get("rtt_us", []))),
        "cli.self_s": g("cli.main.self_s"),
        "trace.spans": g("spans"),
    })
    return m


# metrics that must repeat exactly for one seed
EXACT = ("circuits.gates", "extractor.queries", "provers.noisy_attempts",
         "postselect.kept_ratio") + tuple("protocol.outcome." + o for o in OUTCOMES)


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
