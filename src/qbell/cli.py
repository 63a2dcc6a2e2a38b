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

# every wire role runs these; circuits, postselect, extractor and socket are
# imported by the functions that run them, so keygen, verify and the ideal and
# cheater provers never load them
from . import protocol, provers, tcf, wire
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


def _fidelity(text: str, what: str) -> float:
    """A circuit fidelity: a number in (0, 1]."""
    F = _number(float, text, what)
    if not 0.0 < F <= 1.0:
        raise UsageError(f"{what} must lie in (0, 1], got {text!r}")
    return F


def _iteration_config(args):
    """The verifier's --trials, --ratio and --postselect, range-checked."""
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    if not 0.0 < args.ratio < 1.0:
        # ratio 1 would leave no measurement round to score
        raise UsageError(f"--ratio must lie in (0, 1), got {args.ratio}")
    return protocol.IterationConfig(challenge_ratio=args.ratio,
                                    postselect=args.postselect)


def _rabin_only(keys, what: str):
    """The circuits, the sweep and the extractor square modulo N."""
    if keys.family != "rabin":
        raise UsageError(f"{what} needs a rabin key")


def parse_prover_spec(spec: str):
    """'ideal' | 'cheater' | 'noisy:F=<float>,circuit=<name>,m=<int>' as the
    prover's own part (kind, and F) and the session's circuit: (builder, m) or None."""
    if spec in ("ideal", "cheater"):
        return {"kind": spec}, None
    if spec.startswith("noisy:"):
        own, builder, m = {"kind": "noisy", "F": 1.0}, "karatsuba", 0
        for part in spec[len("noisy:"):].split(","):
            key, _, val = part.partition("=")
            if key == "F":
                own["F"] = _fidelity(val, "noisy option F")
            elif key == "circuit":
                if val not in ("schoolbook", "karatsuba"):
                    raise UsageError(f"unknown circuit {val!r}")
                builder = val
            elif key == "m":
                m = _number(int, val, "noisy option m")
            else:
                raise UsageError(f"unknown noisy option {key!r}")
        return own, (builder, m)
    raise UsageError(f"unknown prover spec {spec!r}")


def session_context(keys, circuit):
    """The one session setup, the context every role reads a session in: plain
    without a circuit, else (builder, m)'s lift by postselect.lift_key."""
    if circuit is None:
        return protocol.ProtocolContext.plain(keys)
    _rabin_only(keys, "a circuit-backed prover")
    from . import postselect
    return postselect.lift_key(keys, circuit[1], circuit[0])


def build_prover(spec, keys, seed: int, trials: int | None = None):
    """(prover, context) for a parsed spec: session_context on its circuit, the prover
    on it (the cheater holds only the public key).  Noise is calibrated on the unlifted
    circuit's gate count; round 1 runs ahead only below the session length `trials`."""
    own, circuit = spec
    if own["kind"] != "cheater" and not keys.has_trapdoor:
        raise UsageError(f"the {own['kind']} prover simulation needs the trapdoor; "
                         "pass the full key file")
    ctx = session_context(keys, circuit)
    if own["kind"] == "cheater":
        return provers.CheaterProver(keys.public(), seed), ctx
    if own["kind"] == "ideal":
        return provers.IdealProver(ctx, seed), ctx
    from . import circuits
    n_gates = circuits.modsquare_gate_count(keys.N, 0, circuit[0])
    noise = provers.NoiseModel(circuit_fidelity=own["F"], n_gates=n_gates)
    return provers.NoisyCircuitProver(ctx, noise, seed, trials), ctx


def _write_out(path, text):
    """text to path, or to stdout for None or "-"; an unwritable path is a usage error."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as f:
            f.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from None


def _check_transport(args):
    """--port and --timeout, range-checked before any socket is made."""
    if not 0 <= args.port <= 65535:
        raise UsageError(f"--port must lie in [0, 65535], got {args.port}")
    if not 0.0 < args.timeout < math.inf:
        raise UsageError(f"--timeout must be positive and finite, got {args.timeout}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_keygen(args):
    if args.family == "rabin":
        if args.bits < tcf.MIN_MODULUS_BITS:
            raise UsageError(f"--bits must be at least {tcf.MIN_MODULUS_BITS}, got {args.bits}")
        keys = tcf.rabin_gen(args.bits, args.seed)
    else:
        if args.k < 1:
            raise UsageError(f"--k must be at least 1, got {args.k}")
        least = tcf.ddh_min_group_bits(args.k)
        if args.bits < least:
            raise UsageError(f"--bits must be at least {least} for --k {args.k}, "
                             f"got {args.bits}")
        keys = tcf.ddh_gen(args.k, args.bits, args.seed)
    _write_out(args.out, tcf.key_to_json(keys) + "\n")
    if args.public_out:
        _write_out(args.public_out, tcf.key_to_json(keys, include_secret=False) + "\n")
    return EXIT_OK


def _load_keys(path):
    """The key in the file at path; a path that cannot be read, or a file
    that holds no key, is a usage error."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from None
    try:
        return tcf.key_from_json(data)
    except tcf.KeyFormatError as e:
        raise UsageError(f"{path}: {e}") from None


def _load_verifier_keys(path):
    """The verifier's key: the key file's, with the trapdoor."""
    keys = _load_keys(path)
    if not keys.has_trapdoor:
        raise UsageError("the verifier role needs the secret key file")
    return keys


def cmd_run(args):
    keys = _load_verifier_keys(args.key)
    spec = parse_prover_spec(args.prover)
    prover, ctx = build_prover(spec, keys, derive_seed(args.seed, "prover"), args.trials)
    rng = derive_rng(args.seed, "verifier")
    config = _iteration_config(args)
    transcripts = protocol.run_session(ctx, prover, rng, config, args.trials)
    _write_out(args.out, protocol.score(transcripts).to_json() + "\n")
    if args.transcripts:
        _write_out(args.transcripts, protocol.transcripts_to_jsonl(transcripts))
    return EXIT_OK


def cmd_verify(args):
    _check_transport(args)
    # no circuit yet: a circuit prover is scored in the plain context (defect 1)
    ctx = session_context(_load_verifier_keys(args.key), None)
    config = _iteration_config(args)
    if args.transport == "stdio":
        ch = wire.Channel(sys.stdin.buffer, sys.stdout.buffer, session=f"s{args.seed}")
        report_stream = sys.stderr
    else:
        # closed once the one prover is in: a second one is refused at once
        with wire.open_tcp_listener(args.host, args.port) as srv:
            srv.settimeout(args.timeout)  # no prover within it: TimeoutError, exit 3
            conn, _ = srv.accept()
        ch = wire.channel_from_socket(conn, session=f"s{args.seed}", timeout=args.timeout)
        report_stream = sys.stdout
    report, transcripts = wire.serve_session(ch, ctx, args.trials, args.seed, config)
    if args.out:
        _write_out(args.out, report.to_json() + "\n")
    else:
        print(report.to_json(), file=report_stream, flush=True)
    if args.transcripts:
        _write_out(args.transcripts, protocol.transcripts_to_jsonl(transcripts))
    return EXIT_OK


def cmd_prove(args):
    _check_transport(args)
    spec = parse_prover_spec(args.prover)

    def make_prover(key_json, seed, trials):
        """The prover for the session key and length; with --key, for the
        full key in that file, which must be the session key."""
        keys = tcf.key_from_json(key_json)
        if keys.has_trapdoor:
            raise wire.TransportError("verifier leaked trapdoor data")
        if args.key:
            full = _load_keys(args.key)
            if full.public() != keys:
                raise wire.TransportError("key file does not match the session key")
            keys = full
        return build_prover(spec, keys, seed, trials)[0]

    if args.transport == "stdio":
        ch = wire.Channel(sys.stdin.buffer, sys.stdout.buffer, session=None)
    else:
        import socket
        sock = socket.create_connection((args.host, args.port), timeout=args.timeout)
        ch = wire.channel_from_socket(sock, session=None, timeout=args.timeout)
    wire.prover_loop(ch, make_prover)
    return EXIT_OK


def cmd_sweep(args):
    from . import postselect
    keys = _load_keys(args.key)
    _rabin_only(keys, "sweep")
    if args.trials < postselect.MIN_TRIALS_PER_POINT:
        raise UsageError(f"--trials must be at least {postselect.MIN_TRIALS_PER_POINT}, "
                         f"got {args.trials}")
    m_values = tuple(_number(int, v, "--m-values") for v in args.m_values.split(","))
    if min(m_values) < 0:
        raise UsageError(f"--m-values must be nonnegative, got {args.m_values!r}")
    config = postselect.SweepConfig(
        m_values=m_values,
        fidelity_grid=tuple(_fidelity(v, "--fidelities") for v in args.fidelities.split(",")),
        trials_per_point=args.trials,
        seed=args.seed,
        method=args.builder,
    )
    rows = postselect.run_sweep(config, keys)
    text = postselect.sweep_rows_to_json(rows) + "\n" if args.json \
        else postselect.sweep_rows_to_csv(rows)
    _write_out(args.out, text)
    return EXIT_OK


# seeds tried for an exact n-bit modulus: every n from 7 to 512 finds one by
# seed 5; n = 6 never does, since 7 is the only 3-bit prime = 3 mod 4
MODULUS_SEEDS = 100


def _exact_modulus(n: int) -> int:
    """The modulus of the first rabin_gen seed whose N has exactly n bits."""
    if n < tcf.MIN_MODULUS_BITS:
        raise UsageError(f"--n must be at least {tcf.MIN_MODULUS_BITS}, got {n}")
    for seed in range(MODULUS_SEEDS):
        keys = tcf.rabin_gen(n, seed)
        if keys.N.bit_length() == n:
            return keys.N
    raise UsageError(f"no {n}-bit Blum modulus in {MODULUS_SEEDS} seeds; pass --modulus")


def cmd_resources(args):
    from . import circuits
    builder = args.builder
    if args.cutoff is not None and builder != "karatsuba":
        raise UsageError(f"--cutoff applies only to --builder karatsuba, not {builder}")
    if builder in ("schoolbook", "karatsuba"):
        if args.modulus:
            N = _number(int, args.modulus, "--modulus")
            if N.bit_length() != args.n:
                raise UsageError(f"--modulus {N} has {N.bit_length()} bits, but --n is {args.n}")
        else:
            N = _exact_modulus(args.n)
        cutoff = circuits.KARATSUBA_CUTOFF if args.cutoff is None else args.cutoff
        rep = circuits.count_resources(
            lambda sink: circuits.emit_modsquare(sink, N, method=builder, cutoff=cutoff))
    else:
        if args.modulus:
            # the phase circuits' counts depend on n alone
            raise UsageError(f"--modulus does not apply to --builder {builder}")
        rep = circuits.phase_circuit_resources(int(builder[-1]), args.n)
    doc = {"builder": builder, "n": args.n, "qubits": rep.qubits,
           "gates": rep.total_gates, "toffoli": rep.toffoli_count,
           "depth": rep.depth, "gates_clifford_t": rep.gates_clifford_t}
    _write_out(args.out, json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_extract(args):
    from . import extractor
    keys = _load_keys(args.key)
    _rabin_only(keys, "extract")
    if args.probes < 1:
        raise UsageError(f"--probes must be at least 1, got {args.probes}")
    spec = parse_prover_spec(args.prover)
    # the extractor plays round 1 once, then rewinds
    prover, ctx = build_prover(spec, keys, derive_seed(args.seed, "prover"), 1)
    try:
        report = extractor.extract_and_factor(prover, ctx, extractor.GlParams(t=args.probes),
                                              derive_rng(args.seed, "extract"))
        doc = dict(report.to_json_dict(), success=True)
    except extractor.ExtractionFailed as e:
        doc = {"success": False, "queries_used": e.queries_used, "error": str(e)}
    except extractor.BudgetExceeded as e:
        raise UsageError(f"--probes {args.probes} is too many: {e}") from None
    _write_out(args.out, json.dumps(doc, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------

class _HelpFormatter(argparse.HelpFormatter):
    """Fills a help text's {KARATSUBA_CUTOFF} from circuits, imported only
    when the help is shown."""

    def _get_help_string(self, action):
        if "{KARATSUBA_CUTOFF}" not in action.help:
            return action.help
        from . import circuits
        return action.help.format(KARATSUBA_CUTOFF=circuits.KARATSUBA_CUTOFF)


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qbell",
                                description="Interactive quantumness-test laboratory")
    sub = p.add_subparsers(dest="command", required=True)
    # the verifier's session options (run, verify) and the wire's (verify, prove)
    session = argparse.ArgumentParser(add_help=False)
    session.add_argument("--trials", type=int, default=1000)
    session.add_argument("--seed", type=int, default=0)
    session.add_argument("--ratio", type=float, default=0.5)
    session.add_argument("--postselect", action="store_true")
    session.add_argument("--transcripts", default=None)
    transport = argparse.ArgumentParser(add_help=False)
    transport.add_argument("--transport", choices=("stdio", "tcp"), default="stdio")
    transport.add_argument("--host", default="127.0.0.1")
    transport.add_argument("--port", type=int, default=9177)
    transport.add_argument("--timeout", type=float, default=30.0)

    kg = sub.add_parser("keygen", help="generate a key pair")
    kg.add_argument("--family", choices=("rabin", "ddh"), default="rabin")
    kg.add_argument("--bits", type=int, required=True)
    kg.add_argument("--k", type=int, default=2, help="ddh dimension")
    kg.add_argument("--seed", type=int, default=0)
    kg.add_argument("--out", default="-")
    kg.add_argument("--public-out", default=None)
    kg.set_defaults(func=cmd_keygen)

    rn = sub.add_parser("run", parents=[session], help="run verifier and prover in process")
    rn.add_argument("--key", required=True)
    rn.add_argument("--prover", default="ideal")
    rn.add_argument("--out", default="-")
    rn.set_defaults(func=cmd_run)

    vf = sub.add_parser("verify", parents=[session, transport],
                        help="serve the verifier role")
    vf.add_argument("--key", required=True)
    vf.add_argument("--out", default=None)
    vf.set_defaults(func=cmd_verify)

    pv = sub.add_parser("prove", parents=[transport], help="run the prover role")
    pv.add_argument("--prover", default="cheater")
    pv.add_argument("--key", default=None,
                    help="full key file (simulated quantum provers only)")
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

    rs = sub.add_parser("resources", help="circuit resource estimates",
                        formatter_class=_HelpFormatter)
    rs.add_argument("--builder", required=True,
                    choices=("schoolbook", "karatsuba", "phase1", "phase2"))
    rs.add_argument("--n", type=int, required=True)
    rs.add_argument("--modulus", default=None)
    rs.add_argument("--cutoff", type=int, default=None,
                    help="Karatsuba recursion cutoff (karatsuba only; default "
                         "{KARATSUBA_CUTOFF})")
    rs.add_argument("--out", default="-")
    rs.set_defaults(func=cmd_resources)

    ex = sub.add_parser("extract", help="run the soundness extractor")
    ex.add_argument("--key", required=True)
    ex.add_argument("--prover", default="ideal")
    ex.add_argument("--probes", type=int, default=6)
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
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (wire.TransportError, OSError) as e:  # OSError from a socket: paths are usage errors
        print(f"transport error: {e}", file=sys.stderr)
        return EXIT_TRANSPORT
    except (wire.ParseError, tcf.DomainError, protocol.InsufficientData,
            provers.AttemptsExhausted) as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except ValueError as e:  # after the protocol errors, which are ValueErrors too
        # a CircuitError is a usage error; without circuits loaded none was raised
        circuits = sys.modules.get(f"{__package__}.circuits")
        if circuits is None or not isinstance(e, circuits.CircuitError):
            raise
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
