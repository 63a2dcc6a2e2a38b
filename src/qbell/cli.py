"""Command-line front end.

Subcommands: keygen, run (both roles in process), verify / prove (wire
roles over stdio or tcp), sweep, resources, extract.  Every run is fully
determined by --seed; reports are canonical JSON/CSV so identical
invocations are byte-identical.

Exit codes: 0 ok, 2 usage, 3 transport failure, 4 protocol violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import circuits, extractor, postselect, protocol, provers, tcf, wire
from .seeds import derive_rng, derive_seed

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TRANSPORT = 3
EXIT_PROTOCOL = 4


class UsageError(ValueError):
    pass


def _number(kind, text: str, what: str):
    """kind(text), or a UsageError naming the malformed argument."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{what} must be a number, got {text!r}") from None


def _rabin_only(keys, what: str):
    """The circuits, the sweep and the extractor square modulo N."""
    if keys.family != "rabin":
        raise UsageError(f"{what} needs a rabin key")


def parse_prover_spec(spec: str):
    """'ideal' | 'cheater' | 'noisy:F=<float>,circuit=<name>,m=<int>'."""
    if spec == "ideal":
        return {"kind": "ideal"}
    if spec == "cheater":
        return {"kind": "cheater"}
    if spec.startswith("noisy:"):
        out = {"kind": "noisy", "F": 1.0, "circuit": "karatsuba", "m": 0}
        for part in spec[len("noisy:"):].split(","):
            key, _, val = part.partition("=")
            if key == "F":
                out["F"] = _number(float, val, "noisy option F")
            elif key == "circuit":
                if val not in ("schoolbook", "karatsuba"):
                    raise UsageError(f"unknown circuit {val!r}")
                out["circuit"] = val
            elif key == "m":
                out["m"] = _number(int, val, "noisy option m")
            else:
                raise UsageError(f"unknown noisy option {key!r}")
        return out
    raise UsageError(f"unknown prover spec {spec!r}")


def build_prover(spec: dict, keys, seed: int):
    """Prover plus the protocol context the verifier should use for it."""
    if spec["kind"] == "ideal":
        ctx = protocol.ProtocolContext.plain(keys)
        return provers.IdealProver(keys, seed, ctx), ctx
    if spec["kind"] == "cheater":
        ctx = protocol.ProtocolContext.plain(keys)
        return provers.CheaterProver(keys.public(), seed, ctx), ctx
    _rabin_only(keys, "a circuit-backed prover")
    circ = circuits.build_modsquare(keys.N, lift_m=spec["m"], method=spec["circuit"])
    base_gates = circuits.gate_count(
        circ if spec["m"] == 0 else
        circuits.build_modsquare(keys.N, lift_m=0, method=spec["circuit"]))
    noise = provers.NoiseModel(circuit_fidelity=spec["F"], n_gates=base_gates)
    ctx = protocol.ProtocolContext.for_circuit(keys, circ)
    return provers.NoisyCircuitProver(keys, circ, noise, seed), ctx


def _write_out(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_keygen(args):
    if args.family == "rabin":
        keys = tcf.rabin_gen(tcf.SecurityParams(n_bits=args.bits, rng_seed=args.seed))
    else:
        keys = tcf.ddh_gen(args.k, args.bits, args.seed)
    _write_out(args.out, tcf.key_to_json(keys) + "\n")
    if args.public_out:
        _write_out(args.public_out, tcf.key_to_json(keys, include_secret=False) + "\n")
    return EXIT_OK


def _load_keys(path):
    with open(path) as f:
        return tcf.key_from_json(f.read())


def cmd_run(args):
    keys = _load_keys(args.key)
    if not keys.has_trapdoor:
        raise UsageError("the verifier role needs the secret key file")
    spec = parse_prover_spec(args.prover)
    prover, ctx = build_prover(spec, keys, derive_seed(args.seed, "prover"))
    rng = derive_rng(args.seed, "verifier")
    config = protocol.IterationConfig(challenge_ratio=args.ratio,
                                      postselect=args.postselect)
    transcripts = [protocol.run_iteration(ctx, prover, rng, config, i)
                   for i in range(args.trials)]
    report = protocol.score(transcripts)
    _write_out(args.out, report.to_json() + "\n")
    if args.transcripts:
        _write_out(args.transcripts, protocol.transcripts_to_jsonl(transcripts))
    return EXIT_OK


def cmd_verify(args):
    keys = _load_keys(args.key)
    if not keys.has_trapdoor:
        raise UsageError("the verifier role needs the secret key file")
    ctx = protocol.ProtocolContext.plain(keys)
    config = protocol.IterationConfig(challenge_ratio=args.ratio,
                                      postselect=args.postselect)
    if args.transport == "stdio":
        ch = wire.Channel(sys.stdin.buffer, sys.stdout.buffer, session=f"s{args.seed}")
        report_stream = sys.stderr
    else:
        srv = wire.open_tcp_listener(args.host, args.port)
        conn, _ = srv.accept()
        ch = wire.channel_from_socket(conn, session=f"s{args.seed}", timeout=args.timeout)
        report_stream = sys.stdout
    report, transcripts = wire.serve_session(ch, ctx, args.trials, args.seed, config)
    text = report.to_json() + "\n"
    if args.out:
        _write_out(args.out, text)
    else:
        report_stream.write(text)
        report_stream.flush()
    if args.transcripts:
        _write_out(args.transcripts, protocol.transcripts_to_jsonl(transcripts))
    return EXIT_OK


def cmd_prove(args):
    spec = parse_prover_spec(args.prover)

    def make_prover(key_json, seed):
        keys = tcf.key_from_json(key_json)
        if keys.has_trapdoor:
            raise wire.TransportError("verifier leaked trapdoor data")
        if spec["kind"] == "cheater":
            return provers.CheaterProver(keys, seed)
        if spec["kind"] == "ideal":
            raise UsageError("the ideal prover simulation needs the trapdoor; "
                             "use --key to supply the full key file")
        raise UsageError("noisy prover over the wire needs --key")

    def make_prover_with_key(key_json, seed):
        keys = _load_keys(args.key)
        if keys.public() != tcf.key_from_json(key_json):
            raise wire.TransportError("key file does not match the session key")
        return build_prover(spec, keys, seed)[0]

    factory = make_prover_with_key if args.key else make_prover
    if args.transport == "stdio":
        ch = wire.Channel(sys.stdin.buffer, sys.stdout.buffer, session="prover")
    else:
        sock = wire.socket.create_connection((args.host, args.port), timeout=args.timeout)
        ch = wire.channel_from_socket(sock, session="prover", timeout=args.timeout)
    wire.prover_loop(ch, factory)
    return EXIT_OK


def cmd_sweep(args):
    keys = _load_keys(args.key)
    _rabin_only(keys, "sweep")
    config = postselect.SweepConfig(
        m_values=tuple(_number(int, v, "--m-values") for v in args.m_values.split(",")),
        fidelity_grid=tuple(_number(float, v, "--fidelities")
                            for v in args.fidelities.split(",")),
        trials_per_point=args.trials,
        seed=args.seed,
        method=args.builder,
    )
    rows = postselect.run_sweep(config, keys)
    text = postselect.sweep_rows_to_json(rows) + "\n" if args.json \
        else postselect.sweep_rows_to_csv(rows)
    _write_out(args.out, text)
    return EXIT_OK


def cmd_resources(args):
    builder = args.builder
    if builder in ("schoolbook", "karatsuba"):
        if args.modulus:
            N = _number(int, args.modulus, "--modulus")
            if N.bit_length() != args.n:
                raise UsageError(f"--modulus {N} is not an {args.n}-bit modulus")
        else:
            rng_seed = 0
            while True:
                keys = tcf.rabin_gen(tcf.SecurityParams(args.n, rng_seed))
                if keys.N.bit_length() == args.n:
                    N = keys.N
                    break
                rng_seed += 1
        rep = circuits.count_resources(
            circuits.build_modsquare(N, method=builder, cutoff=args.cutoff))
    elif builder in ("phase1", "phase2"):
        rep = circuits.phase_circuit_resources(int(builder[-1]), args.n)
    else:
        raise UsageError(f"unknown builder {builder!r}")
    doc = {"builder": builder, "n": args.n, "qubits": rep.qubits,
           "gates": rep.total_gates, "toffoli": rep.toffoli_count,
           "depth": rep.depth, "gates_clifford_t": rep.gates_clifford_t}
    _write_out(args.out, json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_extract(args):
    keys = _load_keys(args.key)
    _rabin_only(keys, "extract")
    spec = parse_prover_spec(args.prover)
    prover, _ = build_prover(spec, keys, derive_seed(args.seed, "prover"))
    params = extractor.GlParams(t=args.probes, mu=args.mu)
    rng = derive_rng(args.seed, "extract")
    try:
        report = extractor.extract_and_factor(prover, keys.N, params, rng)
        doc = dict(report.to_json_dict(), success=True)
    except extractor.ExtractionFailed as e:
        doc = {"success": False, "queries_used": e.queries_used, "error": str(e)}
    _write_out(args.out, json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qbell",
                                description="Interactive quantumness-test laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--family", choices=("rabin", "ddh"), default="rabin")
    kg.add_argument("--bits", type=int, required=True)
    kg.add_argument("--k", type=int, default=2, help="ddh dimension")
    kg.add_argument("--seed", type=int, default=0)
    kg.add_argument("--out", default="-")
    kg.add_argument("--public-out", default=None)
    kg.set_defaults(func=cmd_keygen)

    rn = sub.add_parser("run", help="run verifier and prover in process")
    rn.add_argument("--key", required=True)
    rn.add_argument("--prover", default="ideal")
    rn.add_argument("--trials", type=int, default=1000)
    rn.add_argument("--seed", type=int, default=0)
    rn.add_argument("--ratio", type=float, default=0.5)
    rn.add_argument("--postselect", action="store_true")
    rn.add_argument("--out", default="-")
    rn.add_argument("--transcripts", default=None)
    rn.set_defaults(func=cmd_run)

    vf = sub.add_parser("verify", help="serve the verifier role")
    vf.add_argument("--key", required=True)
    vf.add_argument("--transport", choices=("stdio", "tcp"), default="stdio")
    vf.add_argument("--host", default="127.0.0.1")
    vf.add_argument("--port", type=int, default=9177)
    vf.add_argument("--trials", type=int, default=1000)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--ratio", type=float, default=0.5)
    vf.add_argument("--postselect", action="store_true")
    vf.add_argument("--timeout", type=float, default=30.0)
    vf.add_argument("--out", default=None)
    vf.add_argument("--transcripts", default=None)
    vf.set_defaults(func=cmd_verify)

    pv = sub.add_parser("prove", help="run the prover role")
    pv.add_argument("--prover", default="cheater")
    pv.add_argument("--key", default=None,
                    help="full key file (simulated quantum provers only)")
    pv.add_argument("--transport", choices=("stdio", "tcp"), default="stdio")
    pv.add_argument("--host", default="127.0.0.1")
    pv.add_argument("--port", type=int, default=9177)
    pv.add_argument("--timeout", type=float, default=30.0)
    pv.set_defaults(func=cmd_prove)

    sw = sub.add_parser("sweep", help="post-selection fidelity sweep")
    sw.add_argument("--key", required=True)
    sw.add_argument("--m-values", default="0,1,2,3")
    sw.add_argument("--fidelities", default="0.05,0.1,0.2,0.4,0.6,0.8,1.0")
    sw.add_argument("--trials", type=int, default=2000)
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--builder", choices=("schoolbook", "karatsuba"), default="karatsuba")
    sw.add_argument("--json", action="store_true")
    sw.add_argument("--out", default="-")
    sw.set_defaults(func=cmd_sweep)

    rs = sub.add_parser("resources", help="circuit resource estimates")
    rs.add_argument("--builder", required=True,
                    choices=("schoolbook", "karatsuba", "phase1", "phase2"))
    rs.add_argument("--n", type=int, required=True)
    rs.add_argument("--modulus", default=None)
    rs.add_argument("--cutoff", type=int, default=32)
    rs.add_argument("--out", default="-")
    rs.set_defaults(func=cmd_resources)

    ex = sub.add_parser("extract", help="run the soundness extractor")
    ex.add_argument("--key", required=True)
    ex.add_argument("--prover", default="ideal")
    ex.add_argument("--probes", type=int, default=6)
    ex.add_argument("--mu", type=float, default=0.05)
    ex.add_argument("--seed", type=int, default=0)
    ex.add_argument("--out", default="-")
    ex.set_defaults(func=cmd_extract)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, circuits.CircuitError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except wire.TransportError as e:
        print(f"transport error: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except OSError as e:
        print(f"transport error: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (wire.ParseError, tcf.DomainError, protocol.InsufficientData,
            provers.AttemptsExhausted) as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL


if __name__ == "__main__":
    sys.exit(main())
