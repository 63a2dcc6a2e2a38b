"""qbell benchmark: closed-loop workloads driven through the qbell CLI.

    python3 bench/run.py --workload {protocol,sweep,noisy_run,wire} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  The run sets up the workload's keys (five times, in child
processes, reporting the median), then repeats passes of the workload's
operations until S seconds have gone by and each input instance has had
a pass.  Every operation's output is checked; a failed check counts toward
`failed` and never stops the run.

The run pins itself and its child processes to one CPU and times a fixed
pure-Python loop around every timed interval; end-to-end times are scaled
to a reference host speed (see REF_LOOP_S).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics from the traced ones,
with the tracing overhead measured on the same inputs.  Each traced pass
writes its spans to .bench-spans/ (see layers.SPANS_DIR).  A traced run
also repeats one pass in a fresh process and checks that its exact counts
equal those of the passes before.

The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")
SETUP_REPEATS = 5
PROBES_PER_OP = 5
PROBE_EVERY_S = 0.1
# Nominal duration of `host_probe`.  A shared virtual machine (2 vCPU Intel
# Xeon) switches between speed states about 30% apart for tens of seconds at
# a time, so raw wall times of identical work spread by more than any usable
# bound across runs.  End-to-end times are therefore reported at a reference
# host speed: each timed interval is scaled by REF_LOOP_S over the probe
# time around it (`HostSpeed`).  The raw values are printed beside them.
REF_LOOP_S = 0.004
WAIT_S = 20  # per child-process wait; a healthy session takes about a second

E2E_UNITS = {"setup_s": "s", "iters_per_s": "1/s", "mix_s": "s",
             "peak_rss_mb": "MB", "pass_rate": "ratio"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("protocol", "sweep", "noisy_run", "wire"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up: key generation in a fresh process (process start, imports, keygen,
# key files)


def set_up(workload, seed, work, trace, speed):
    """Returns the keys, the median set-up seconds (raw, and at reference
    host speed) and the median key-generation time of a traced set-up."""
    import workloads
    spec = json.dumps(workloads.key_specs(workload, seed))
    times, scaled, tallies, first = [], [], [], None
    for rep in range(SETUP_REPEATS):
        d = os.path.join(work, f"keys{rep}")
        os.mkdir(d)
        cmd = [sys.executable, LAUNCHER, "keys", spec, d]
        if trace:
            cmd += ["--trace", f"{workload}-setup"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # a blocking wait, not wait(timeout=...), which polls in steps of up
        # to 50 ms and would round the set-up time to them
        watchdog = threading.Timer(WAIT_S, proc.kill)
        watchdog.start()
        rc = proc.wait()
        times.append(time.perf_counter() - t0)
        watchdog.cancel()
        scaled.append(times[-1] * speed.scale(times[-1]))
        if rc != 0:
            raise RuntimeError(f"key set-up exited {rc}")
        if trace:
            with open(os.path.join(d, "tally.json")) as f:
                tallies.append(json.load(f)["tally"])
        files = {}
        for name in sorted(os.listdir(d)):
            if name != "tally.json":
                with open(os.path.join(d, name), "rb") as f:
                    files[name] = f.read()
        if first is None:
            first = files
        elif files != first:
            raise RuntimeError("key set-up is not deterministic for one seed")
    from qbell import tcf
    keydir = os.path.join(work, "keys0")
    keys = {}
    for k in workloads.key_specs(workload, seed):
        path = os.path.join(keydir, k["name"] + ".json")
        with open(path) as f:
            keys[k["name"]] = {"path": path, "keys": tcf.key_from_json(f.read())}
    keygen_s = statistics.median(t.get("keygen_s", 0.0) for t in tallies) if tallies else 0.0
    return keys, statistics.median(times), statistics.median(scaled), keygen_s


def key_provenance(keys):
    out = {}
    for name, k in keys.items():
        key = k["keys"]
        if hasattr(key, "N"):
            out[name] = {"family": "rabin", "bits": key.N.bit_length(), "N": str(key.N)}
        else:
            out[name] = {"family": "ddh", "k": key.k, "m": key.m, "P": str(key.P),
                         "q": str(key.q), "q_bits": key.q.bit_length()}
    return out


def provenance():
    import numpy
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "pinned_cpus": sorted(os.sched_getaffinity(0)), "cpu": cpu}


def host_probe():
    """Seconds for a fixed pure-Python loop: the host's speed at the moment,
    independent of the program under test."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """Probes taken around every timed interval.  The interval's scale to
    reference host speed is REF_LOOP_S over the mean of the probe medians
    just before and just after it."""

    def __init__(self):
        self.samples = []
        self._last = self._probe(PROBES_PER_OP)

    def _probe(self, n):
        p = statistics.median(host_probe() for _ in range(n))
        self.samples.append(p)
        return p

    def scale(self, seconds):
        """Call right after a timed interval of `seconds`; the one before
        ended at the previous call.  Longer intervals get more probes, about
        one per 0.1 s, so that their scale is as precise as the sum of many
        short ones."""
        before = self._last
        self._last = self._probe(max(PROBES_PER_OP, round(seconds / PROBE_EVERY_S)))
        return REF_LOOP_S / ((before + self._last) / 2)


# ---------------------------------------------------------------------------
# running one operation


def run_in_process(op):
    from qbell import cli
    t0 = time.perf_counter()
    try:
        rc = cli.main(op.argv)
    except Exception as e:  # a traceback is a failed operation, not a crashed run
        rc = f"raised {type(e).__name__}: {e}"
    return rc, time.perf_counter() - t0


def run_fresh(ops, work, name):
    """One traced pass of `ops` in a fresh process; returns its tally, or
    None if a call failed."""
    path = os.path.join(work, "fresh.json")
    proc = subprocess.Popen([sys.executable, LAUNCHER, "calls",
                             json.dumps([op.argv for op in ops]), path, "--trace", name])
    watchdog = threading.Timer(len(ops) * WAIT_S, proc.kill)
    watchdog.start()
    rc = proc.wait()
    watchdog.cancel()
    if rc != 0:
        return None
    with open(path) as f:
        doc = json.load(f)
    return doc["tally"] if not any(doc["rcs"]) else None


def _spawn(argv, stdin, stdout, result, err, trace):
    ready_r, ready_w = os.pipe()
    go_r, go_w = os.pipe()
    cmd = [sys.executable, LAUNCHER, "session", "--ready-fd", str(ready_w),
           "--go-fd", str(go_r), "--result", result]
    if trace:
        cmd += ["--trace", trace]
    proc = subprocess.Popen(cmd + ["--"] + argv, stdin=stdin, stdout=stdout, stderr=err,
                            pass_fds=(ready_w, go_r))
    os.close(ready_w)
    os.close(go_r)
    return proc, ready_r, go_w


def run_session(op, work, traced):
    """Verifier and prover wired crosswise over two pipes, as the stdio
    transport expects.  Returns (rc, verifier call seconds, ready seconds,
    summed tally of both processes or None)."""
    v2p_r, v2p_w = os.pipe()
    p2v_r, p2v_w = os.pipe()
    res = [os.path.join(work, f"{op.name}.{role}.json") for role in ("v", "p")]
    for path in res:
        if os.path.exists(path):
            os.remove(path)
    procs, fds = [], []
    t0 = time.perf_counter()
    with open(os.path.join(work, f"{op.name}.stderr"), "wb") as err:
        for role, argv, stdin, stdout, path in (
                ("verifier", op.argv, p2v_r, v2p_w, res[0]),
                ("prover", op.prover_argv, v2p_r, p2v_w, res[1])):
            proc, ready, go = _spawn(argv, stdin, stdout, path, err,
                                     traced and f"{op.name}-{role}")
            procs.append(proc)
            fds.append((ready, go))
        for fd in (v2p_r, v2p_w, p2v_r, p2v_w):
            os.close(fd)
        try:
            ok = True
            for ready, _ in fds:
                r, _, _ = select.select([ready], [], [], WAIT_S)
                ok &= bool(r) and os.read(ready, 1) == b"r"
            ready_s = time.perf_counter() - t0
            for _, go in fds:
                if ok:
                    try:
                        os.write(go, b"g")
                    except OSError:  # the role died; its exit code reports it
                        pass
            for ready, go in fds:
                os.close(ready)
                os.close(go)
            watchdog = threading.Timer(WAIT_S, lambda: [p.kill() for p in procs])
            watchdog.start()
            rcs = [proc.wait() for proc in procs]  # -9: killed by the watchdog
            watchdog.cancel()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    if not ok or rcs != [0, 0]:
        return f"roles exited {rcs}", 0.0, ready_s, None
    docs = []
    for path in res:
        with open(path) as f:
            docs.append(json.load(f))
    summed = None
    if traced:
        import layers
        summed = layers.add_tallies(docs[0]["tally"], docs[1]["tally"])
    return 0, docs[0]["seconds"], ready_s, summed


# ---------------------------------------------------------------------------


class Result:
    """Outcome bookkeeping across all passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.known = {}
        self.durations = {}   # (op name, instance, traced, scaled) -> [seconds]
        self.first_output = {}

    def record(self, op, instance, rc, seconds, scale, text, expected, traced):
        import workloads
        self.attempted += op.attempted
        if rc != 0:
            reasons = [f"exit {rc}"]
        else:
            for scaled, t in ((False, seconds), (True, seconds * scale)):
                self.durations.setdefault((op.name, instance, traced, scaled), []).append(t)
            try:
                reasons = op.check(text)
            except (ValueError, KeyError, TypeError) as e:
                reasons = [f"unreadable output: {e}"]
            if self.first_output.setdefault((op.name, instance), text) != text:
                reasons.append("output differs from an earlier pass with the same seeds")
        if not reasons:
            return
        self.failed += op.attempted if op.kind == "iter" else min(len(reasons), op.attempted)
        if workloads.is_known_defect(op, reasons, text if rc == 0 else None, expected):
            self.known[op.name] = (op.known_defect, reasons[0])
        else:
            self.unexpected.append(f"{op.name}: {reasons[0]}")

    def record_pass(self, failed, reason):
        """A failed check of a whole pass (see workloads.check_extractions)."""
        if reason:
            self.failed += failed
            self.unexpected.append(reason)

    def op_seconds(self, name, traced=False, scaled=False):
        """Mean over input instances of the median time of the op's calls,
        or None if no call of it succeeded."""
        meds = [statistics.median(v) for (n, _, t, sc), v in self.durations.items()
                if n == name and t == traced and sc == scaled]
        return sum(meds) / len(meds) if meds else None

    def rates(self, ops, traced=False, scaled=False):
        """(iterations per second, seconds per pass of the whole mix)."""
        secs = {op.name: self.op_seconds(op.name, traced, scaled) for op in ops}
        timed = [op for op in ops if secs[op.name] is not None]
        iters = [op for op in timed if op.kind in ("iter", "sweep")]
        iter_s = sum(secs[op.name] for op in iters)
        mix_s = sum(secs[op.name] for op in timed)
        return (sum(op.units for op in iters) / iter_s if iter_s else 0.0), mix_s


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qbell", "cli.py")):
        print(f"error: no qbell source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import workloads

    # One CPU for the run and every process it starts: the host probe then
    # times the CPU the work runs on, and the two wire roles, which take
    # turns, hand over on one CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    work = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        return _run(args, work, layers, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work, layers, workloads):
    wl, trace = args.workload, bool(args.trace)
    in_process = wl != "wire"
    speed = HostSpeed()
    keys, setup_s, scaled_setup_s, setup_keygen_s = set_up(wl, args.seed, work, trace, speed)
    out = os.path.join(work, "out")
    os.mkdir(out)
    op_sets = [workloads.ops(wl, args.seed, i, keys, out)
               for i in range(workloads.INSTANCES[wl])]
    ops = op_sets[0]
    expected = {}

    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print("keys " + json.dumps(key_provenance(keys), sort_keys=True))

    result = Result()
    tracer = layers.Tracer() if trace and in_process else None
    per_pass, ready_times, scaled_ready = [], [], []
    passes = 0
    t_start = time.perf_counter()
    # an untraced run passes over every input instance at least once, so a
    # slow host measures the same inputs as a fast one
    min_passes = 2 if trace else len(op_sets)
    while passes < min_passes or time.perf_counter() - t_start < args.seconds:
        traced = trace and passes % 2 == 1
        # a traced run keeps to instance 0, so traced and untraced passes
        # see the same inputs and the exact counts can be compared
        instance = 0 if trace else passes % len(op_sets)
        for op in op_sets[instance]:
            if op.replay and (op.name, instance) not in expected:
                expected[(op.name, instance)] = workloads.replay_report(
                    keys["rabin16"]["keys"], op.replay["prover"], op.replay["seed"],
                    op.replay["trials"])
                op.check = workloads.check_replay(expected[(op.name, instance)])
        pass_tally = {"keygen_s": setup_keygen_s}
        if tracer and traced:
            tracer.clear()
            tracer.install()
        texts = {}
        try:
            for op in op_sets[instance]:
                if in_process:
                    rc, seconds = run_in_process(op)
                    scale = speed.scale(seconds)
                    tally = None
                else:
                    rc, seconds, ready_s, tally = run_session(op, work, traced)
                    scale = speed.scale(seconds + ready_s)
                    ready_times.append(ready_s)
                    scaled_ready.append(ready_s * scale)
                text = None
                if rc == 0:
                    with open(op.argv[op.argv.index("--out") + 1]) as f:
                        text = texts[op.name] = f.read()
                result.record(op, instance, rc, seconds, scale, text,
                              expected.get((op.name, instance)), traced)
                if tally:
                    pass_tally = layers.add_tallies(pass_tally, tally)
        finally:
            if tracer and traced:
                tracer.uninstall()
        result.record_pass(*workloads.check_extractions(op_sets[instance], texts))
        if traced:
            if tracer:
                tracer.dump(wl)
                pass_tally = layers.add_tallies(pass_tally, tracer.tally())
                tracer.clear()
            per_pass.append(layers.layer_metrics(pass_tally))
        passes += 1

    if not in_process:
        setup_s += statistics.median(ready_times)
        scaled_setup_s += statistics.median(scaled_ready)
    usage = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    if in_process:
        usage.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    iters_per_s, mix_s = result.rates(ops)
    ref_loop_s = statistics.median(speed.samples)

    drift = 0
    if trace:
        metrics = layers.median_metrics(per_pass)
        compare = per_pass[1:]
        if in_process:  # the wire roles already run in fresh processes
            fresh = run_fresh(op_sets[0], work, f"{wl}-fresh")
            if fresh is None:
                result.unexpected.append("the traced pass in a fresh process failed")
            else:
                compare.append(layers.layer_metrics(fresh))
        for p in compare:
            drift += any(p[k] != per_pass[0][k] for k in layers.EXACT)
        t_iters, t_mix = result.rates(ops, traced=True)
        metrics.update({
            "host.ref_loop_ms": ref_loop_s * 1e3,
            "trace.count_drift": float(drift),
            "trace.overhead_ratio": t_mix / mix_s,
            "trace.iters_per_s": t_iters,
            "trace.untraced_iters_per_s": iters_per_s,
            "trace.mix_s": t_mix,
            "trace.untraced_mix_s": mix_s,
            "e2e.extractions_per_s": _per_s(result, ops, "extract"),
            "e2e.resources_s": float(sum(_timed(result, ops, "resources"))),
        })
        units = {k: _layer_unit(k) for k in metrics}
        print("exact counts " + json.dumps({k: metrics[k] for k in layers.EXACT},
                                           sort_keys=True))
        if drift:
            result.unexpected.append(f"exact counts drifted in {drift} traced pass(es)")
    else:
        scaled = result.rates(ops, scaled=True)
        metrics = {
            "setup_s": scaled_setup_s,
            "iters_per_s": scaled[0],
            "mix_s": scaled[1],
            "peak_rss_mb": max(usage) / 1024.0,
            "pass_rate": 1.0 - result.failed / result.attempted,
        }
        units = E2E_UNITS

    print(f"workload {wl} seed {args.seed}: {passes} passes "
          f"({'alternately traced' if trace else 'untraced'})")
    print(f"  host reference loop {ref_loop_s * 1e3:.4f} ms (median of {len(speed.samples)}, "
          f"nominal {REF_LOOP_S * 1e3:g} ms); raw setup_s = {setup_s:.6g} s, "
          f"iters_per_s = {iters_per_s:.6g} 1/s, mix_s = {mix_s:.6g} s")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    print(f"  fail_rate = {result.failed}/{result.attempted} = "
          f"{result.failed / result.attempted:.6g}")
    for name, (defect, reason) in result.known.items():
        print(f"  known defect, counted as failed: {name}: {defect}; {reason}")
    for reason in result.unexpected:
        print(f"  FAILED: {reason}")
    print(json.dumps({
        "correct": not result.unexpected,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _timed(result, ops, kind):
    times = [result.op_seconds(op.name) for op in ops if op.kind == kind]
    return [t for t in times if t is not None]


def _per_s(result, ops, kind):
    times = _timed(result, ops, kind)
    return len(times) / sum(times) if times else 0.0


def _layer_unit(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us") or "_us_" in name:
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    if name == "wire.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
