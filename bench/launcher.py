"""Child-process entry for the benchmark: imports qbell, optionally installs
the tracing wrappers, and calls `qbell.cli.main`.

    launcher.py keys SPEC OUTDIR [--trace NAME]
        Generate the workload's key files (the benchmark's set-up).  SPEC is
        a JSON list of {"name", "family", "bits", "seed"[, "k"]}; a Rabin
        key is regenerated with the next seed until its modulus has exactly
        `bits` bits.  Traced, the tally goes to OUTDIR/tally.json.

    launcher.py calls ARGVS RESULT [--trace NAME]
        Run a JSON list of qbell argument lists, one after another, in this
        fresh process.  RESULT receives {"rcs": [...]} and, traced, the
        tally.

    launcher.py session --ready-fd R --go-fd G --result PATH [--trace NAME]
                        -- ARGS
        One wire role.  After the imports it writes a byte to R and blocks
        until a byte arrives on G, so process start and imports stay out of
        the timed call `qbell.cli.main(ARGS)`.  stdin/stdout carry the wire.
        RESULT receives {"rc", "seconds"} and, traced, the tally.

With --trace the calls run under `layers.Tracer`, and the spans are written
to layers.SPANS_DIR/NAME.json when the calls are done.

The qbell source tree is taken from ../src relative to this file.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qbell import cli, tcf  # noqa: E402

import layers  # noqa: E402


def make_keys(spec, outdir):
    for key in spec:
        path = os.path.join(outdir, key["name"] + ".json")
        pub = os.path.join(outdir, key["name"] + "_pub.json")
        seed = key["seed"]
        while True:
            argv = ["keygen", "--family", key["family"], "--bits", str(key["bits"]),
                    "--seed", str(seed), "--out", path, "--public-out", pub]
            if key["family"] == "ddh":
                argv += ["--k", str(key["k"])]
            if cli.main(argv) != 0:
                raise SystemExit(f"keygen failed: {argv}")
            if key["family"] == "ddh":
                break
            with open(path) as f:
                if tcf.key_from_json(f.read()).N.bit_length() == key["bits"]:
                    break
            seed += 1


def main(argv):
    mode = argv[0]
    sep = argv.index("--") if "--" in argv else len(argv)
    opts, qbell_args = argv[:sep], argv[sep + 1:]
    tracer = None
    if "--trace" in opts:
        tracer = layers.Tracer()
        tracer.install()

    def finish(doc, path):
        if tracer:
            tracer.uninstall()
            tracer.dump(opts[opts.index("--trace") + 1])
            doc["tally"] = tracer.tally()
        with open(path, "w") as f:
            json.dump(doc, f)

    if mode == "keys":
        make_keys(json.loads(argv[1]), argv[2])
        if tracer:
            finish({}, os.path.join(argv[2], "tally.json"))
        return 0
    if mode == "calls":
        rcs = [cli.main(a) for a in json.loads(argv[1])]
        finish({"rcs": rcs}, argv[2])
        return 0
    ready_fd = int(opts[opts.index("--ready-fd") + 1])
    go_fd = int(opts[opts.index("--go-fd") + 1])
    os.write(ready_fd, b"r")
    os.close(ready_fd)
    if os.read(go_fd, 1) != b"g":
        return 3
    os.close(go_fd)
    t0 = time.perf_counter()
    rc = cli.main(qbell_args)
    seconds = time.perf_counter() - t0
    finish({"rc": rc, "seconds": seconds}, opts[opts.index("--result") + 1])
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
