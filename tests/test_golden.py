"""Byte identity of seeded CLI output.

Each case runs one `qbell` subcommand in process, and each stdio case a
`verify`/`prove` pair of processes, at a fixed seed and pins the sha256
digest of every file it writes.  A change that moves any of
these bytes must say which random stream or format moved and why, and
update the digest with it.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from qbell import cli, tcf
from qbell.cli import main

from helpers import cli_env

# (name, argv, output files); "{d}" is the output directory, and later cases
# read the key files the keygen cases wrote
CASES = (
    ("keygen-rabin16", ["keygen", "--bits", "16", "--seed", "3", "--out", "{d}/rabin16.json"],
     ("rabin16.json",)),
    ("keygen-rabin32", ["keygen", "--bits", "32", "--seed", "5", "--out", "{d}/rabin32.json",
                        "--public-out", "{d}/rabin32.pub.json"],
     ("rabin32.json", "rabin32.pub.json")),
    ("keygen-ddh24", ["keygen", "--family", "ddh", "--bits", "24", "--k", "2", "--seed", "7",
                      "--out", "{d}/ddh24.json", "--public-out", "{d}/ddh24.pub.json"],
     ("ddh24.json", "ddh24.pub.json")),
    # k = 3 with s = (1, 1, 1): about 18% of claw samples have no partner
    ("keygen-ddh24k3", ["keygen", "--family", "ddh", "--bits", "24", "--k", "3", "--seed", "24",
                        "--out", "{d}/ddh24k3.json"],
     ("ddh24k3.json",)),
    ("run-ideal-ddh24k3",
     ["run", "--key", "{d}/ddh24k3.json", "--prover", "ideal", "--trials", "300",
      "--seed", "29", "--out", "{d}/ideal-ddh24k3.json",
      "--transcripts", "{d}/ideal-ddh24k3.jsonl"],
     ("ideal-ddh24k3.json", "ideal-ddh24k3.jsonl")),
) + tuple(
    (f"run-{prover}-{key}",
     ["run", "--key", f"{{d}}/{key}.json", "--prover", prover, "--trials", "300",
      "--seed", "11", "--out", f"{{d}}/{prover}-{key}.json",
      "--transcripts", f"{{d}}/{prover}-{key}.jsonl"],
     (f"{prover}-{key}.json", f"{prover}-{key}.jsonl"))
    for key in ("rabin32", "ddh24") for prover in ("ideal", "cheater")
) + (
    ("run-noisy-rabin16",
     ["run", "--key", "{d}/rabin16.json", "--prover", "noisy:F=0.5,circuit=schoolbook,m=1",
      "--postselect", "--trials", "40", "--seed", "13", "--out", "{d}/noisy.json",
      "--transcripts", "{d}/noisy.jsonl"],
     ("noisy.json", "noisy.jsonl")),
    # 56 deferred measurement rounds: a full settle block, then a partial one
    ("run-noisy-blocks-rabin16",
     ["run", "--key", "{d}/rabin16.json", "--prover", "noisy:F=0.7,circuit=schoolbook,m=0",
      "--trials", "120", "--seed", "23", "--out", "{d}/noisy-blocks.json",
      "--transcripts", "{d}/noisy-blocks.jsonl"],
     ("noisy-blocks.json", "noisy-blocks.jsonl")),
    # 300 iterations, several round-1 pools of retries
    ("run-noisy-300-rabin16",
     ["run", "--key", "{d}/rabin16.json", "--prover", "noisy:F=0.5,circuit=schoolbook,m=1",
      "--postselect", "--trials", "300", "--seed", "31", "--out", "{d}/noisy300.json",
      "--transcripts", "{d}/noisy300.jsonl"],
     ("noisy300.json", "noisy300.jsonl")),
    ("extract-noisy-rabin16",
     ["extract", "--key", "{d}/rabin16.json", "--prover", "noisy:F=1.0,circuit=schoolbook,m=0",
      "--seed", "41", "--out", "{d}/extract-noisy.json"],
     ("extract-noisy.json",)),
    ("extract-rabin32",
     ["extract", "--key", "{d}/rabin32.json", "--prover", "ideal", "--seed", "17",
      "--out", "{d}/extract.json"],
     ("extract.json",)),
    ("sweep-rabin16",
     ["sweep", "--key", "{d}/rabin16.json", "--builder", "schoolbook", "--m-values", "0,1",
      "--fidelities", "0.2,0.6,1.0", "--trials", "300", "--seed", "19",
      "--out", "{d}/sweep.csv"],
     ("sweep.csv",)),
    ("resources-phase2",
     ["resources", "--builder", "phase2", "--n", "32", "--out", "{d}/phase2.json"],
     ("phase2.json",)),
    ("resources-phase1",
     ["resources", "--builder", "phase1", "--n", "16", "--out", "{d}/phase1.json"],
     ("phase1.json",)),
    # the bench's size: n = 128, the largest counts the CLI prints
    ("resources-phase2-128",
     ["resources", "--builder", "phase2", "--n", "128", "--out", "{d}/phase2-128.json"],
     ("phase2-128.json",)),
    ("resources-phase1-128",
     ["resources", "--builder", "phase1", "--n", "128", "--out", "{d}/phase1-128.json"],
     ("phase1-128.json",)),
    ("resources-schoolbook",
     ["resources", "--builder", "schoolbook", "--n", "16", "--out", "{d}/schoolbook.json"],
     ("schoolbook.json",)),
    # cutoff 8 below n = 40, so the Karatsuba recursion runs
    ("resources-karatsuba",
     ["resources", "--builder", "karatsuba", "--n", "40", "--cutoff", "8",
      "--out", "{d}/karatsuba.json"],
     ("karatsuba.json",)),
)

# the report, transcripts and prover of each case that plays the noisy
# prover: their digests move with its round-1 stream, and the checks below
# hold whatever that stream draws
NOISY_RUNS = (
    ("noisy.json", "noisy.jsonl", "noisy:F=0.5,circuit=schoolbook,m=1"),
    ("noisy-blocks.json", "noisy-blocks.jsonl", "noisy:F=0.7,circuit=schoolbook,m=0"),
    ("noisy300.json", "noisy300.jsonl", "noisy:F=0.5,circuit=schoolbook,m=1"),
    ("stdio-noisy.json", "stdio-noisy.jsonl", "noisy:F=0.5,circuit=schoolbook,m=1"),
)

# (name, verifier argv, prover argv, output files): `verify` and `prove` as
# two processes joined by stdio pipes, after every case above
STDIO_CASES = (
    ("stdio-noisy-rabin16",
     ["verify", "--key", "{d}/rabin16.json", "--transport", "stdio", "--trials", "100",
      "--seed", "37", "--out", "{d}/stdio-noisy.json",
      "--transcripts", "{d}/stdio-noisy.jsonl"],
     ["prove", "--prover", "noisy:F=0.5,circuit=schoolbook,m=1", "--key", "{d}/rabin16.json",
      "--transport", "stdio"],
     ("stdio-noisy.json", "stdio-noisy.jsonl")),
)

DIGESTS = {
    "cheater-ddh24.json": "21cf9b9d706dbd9cfb97478e36217b91fb8e7bdd16e80b0243060f322599bae1",
    "cheater-ddh24.jsonl": "284b6413561fe1d0bc3fdf400c5e5e58b7373ee28fe61b7cd3b00f04807fd139",
    "cheater-rabin32.json": "d5ff9cd1cdd0361e24909afd6b75ac9b5082377e68ab3b3a51c0867e5fed4392",
    "cheater-rabin32.jsonl": "411bd82fa7f3bff4f087e3c0b7bb2c84b37f9178fb56dc79ab3bcfcd90b15bf3",
    "ddh24.json": "0cbeaa9235fd1096d0a6429fb7f08a3f524ac0506565aebce41da411b35e51f8",
    "ddh24.pub.json": "6400dc687d228b2ed9a935755f7c2f84cc5490a59e6a1015196828715a532879",
    "ddh24k3.json": "e16094af820a545d3fa64429fd5f0e88a4660412a8c42e86fc5d53d68e4ad13c",
    "extract.json": "876de0cc885bc4901658dc47a12f5a537c4c2d65093c41eff0c741c69dfc2049",
    "extract-noisy.json": "964a580abe201b4dffe1c2481e2c2aa72851ccc32e014ef8b10090361dcb2036",
    "ideal-ddh24.json": "fc3484f68778be2f5d238eaf58c4abb1e4001a2c282fc7cb50f4027e091d467a",
    "ideal-ddh24.jsonl": "3bf9b7d6e7609377ed01af54e5190c60d3648f7221219563c2105692a630256b",
    "ideal-ddh24k3.json": "76a891f60a1f5d98b0e740c377490ea0f5503b6490a5272ad26b70104bf1d67e",
    "ideal-ddh24k3.jsonl": "f3f72d8bb30127a98ca6635142f82c30f3fea688f62f5e03346d6351165b8b58",
    "ideal-rabin32.json": "d14de658b9a20062d29919cae3cd70361b10eb94e6df4c41883cc70673761752",
    "ideal-rabin32.jsonl": "739236bdfb7839d626a4d161668431298975c16920191781693cd7168479aac5",
    "karatsuba.json": "56de21d43bf89ec6be2036b1d8b1d083ac6399bd938effdd3b1e3600fe5b12be",
    "noisy.json": "4112caf6e0150a09c95f7bc8172c6e215c42cffd25a3b9f88d2d5040529c8222",
    "noisy.jsonl": "7f4c314a5cebf8819122095e7c0f017a3a71bba1a855bb4308878c245b93a960",
    "noisy-blocks.json": "e592d3001416f2a0c6bc1584db66334a2a5e18590da6c36aca367eebdd9d9f40",
    "noisy-blocks.jsonl": "9bf135be4fc1d34a493f33128072647fc7460b63d626e879f5a3b0675e3b6c2e",
    "noisy300.json": "38daf63ed74093ab3e19611f2290f7c7b1229e319d2030eb17e0647aa9b23324",
    "noisy300.jsonl": "e340d91c8e361d5c83f4e3077a47e909c7ecfecbf331b0c134d401c7702857ed",
    "phase1.json": "858fb06c5797dca52aeb9e4fcd4e40150b86398c44dd330db7c46a3b4de151ff",
    "phase1-128.json": "0fb9533c35ff51e477a23e993d0238d1ced1617f73fb6bcda5c1261904adc97f",
    "phase2.json": "bedee618276c6af518bd0b189a45c9ab2dfe392bd6dfe021f9bf0b06f20f215d",
    "phase2-128.json": "51e5388f29a70a56f5815b9e5182460b6af1490959a33c8179ddbd620b939463",
    "rabin16.json": "bb34be37e268f078751d4d2e705dcf80f0653fcd8317d260057ad29bd154c37a",
    "rabin32.json": "e54588ec6f08d000cb738350105cfcc0960ae4b32c24326e9a49d5a36b54d4fd",
    "rabin32.pub.json": "8de828468261c1a65b57cf39c416f2bf345c8b36f762a62d936fdec0d231e3ff",
    "schoolbook.json": "d3fa75aea5930a85b88133beb1062aba9cc874d5b13509cf6f99331554af90d7",
    "stdio-noisy.json": "c2454cbedfe4f685904190b77d295d8cb67a897176e8033b2a088aa6e06d7cbd",
    "stdio-noisy.jsonl": "02768b5f4992626975cbf78813ac5493e109ed5c5c84e4c9770edec395753030",
    "sweep.csv": "8d22b3fc1bb9fdab1663d92bad8f5a7f854197d61b060457c9d3d91b897ec238",
}


def run_stdio_pair(verifier_argv, prover_argv):
    """Return codes of `qbell` verifier and prover processes whose stdout
    feeds the other's stdin."""
    v2p_r, v2p_w = os.pipe()
    p2v_r, p2v_w = os.pipe()
    command = [sys.executable, "-m", "qbell.cli"]
    verifier = subprocess.Popen(command + verifier_argv, stdin=p2v_r, stdout=v2p_w,
                                env=cli_env())
    prover = subprocess.Popen(command + prover_argv, stdin=v2p_r, stdout=p2v_w,
                              env=cli_env())
    for fd in (v2p_r, v2p_w, p2v_r, p2v_w):
        os.close(fd)
    return verifier.wait(timeout=180), prover.wait(timeout=180)


def write_outputs(directory) -> dict:
    """Run every case into `directory`; {file name: sha256 hex digest}."""
    def fill(argv):
        return [a.replace("{d}", str(directory)) for a in argv]

    files = []
    for name, argv, outputs in CASES:
        assert main(fill(argv)) == 0, name
        files += outputs
    for name, verifier_argv, prover_argv, outputs in STDIO_CASES:
        assert run_stdio_pair(fill(verifier_argv), fill(prover_argv)) == (0, 0), name
        files += outputs
    out = {}
    for f in files:
        with open(os.path.join(directory, f), "rb") as fh:
            out[f] = hashlib.sha256(fh.read()).hexdigest()
    return out


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def digests(golden_dir):
    return write_outputs(golden_dir)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_is_byte_identical(digests, name):
    assert digests[name] == DIGESTS[name]


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(DIGESTS)


def test_noisy_extraction_factors(digests, golden_dir):
    # the digest of extract-noisy.json pins a success with the key's factors
    doc = json.loads((golden_dir / "extract-noisy.json").read_text())
    keys = tcf.key_from_json((golden_dir / "rabin16.json").read_text())
    assert doc["success"] is True
    assert sorted(int(f) for f in doc["factors"]) == sorted((keys.p, keys.q))


def _transcripts(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


@pytest.mark.parametrize("report, transcripts, spec", NOISY_RUNS)
def test_noisy_report_counts_its_transcripts(digests, golden_dir, report, transcripts, spec):
    rep = json.loads((golden_dir / report).read_text())
    n = Counter(t["outcome"] for t in _transcripts(golden_dir / transcripts))
    assert (rep["accepts_x"], rep["trials_x"], rep["accepts_m"], rep["trials_m"]) == (
        n["AcceptedPreimage"], n["AcceptedPreimage"] + n["RejectedPreimage"],
        n["AcceptedMeasurement"], n["AcceptedMeasurement"] + n["RejectedMeasurement"])


@pytest.mark.parametrize("report, transcripts, spec", NOISY_RUNS)
def test_noisy_images_fit_the_circuit(digests, golden_dir, report, transcripts, spec):
    # every image carries one Hadamard outcome per discarded qubit of the
    # circuit the prover runs
    keys = tcf.key_from_json((golden_dir / "rabin16.json").read_text())
    h_len = cli.build_prover(cli.parse_prover_spec(spec), keys, 0)[1].circuit.schedule.h_len
    firsts = [t["msgs"][0] for t in _transcripts(golden_dir / transcripts)]
    assert firsts and h_len
    for msg in firsts:
        assert msg["tag"] == "image"
        assert msg["payload"]["h_len"] == h_len
        assert 0 <= int(msg["payload"]["h"]) < 2 ** h_len
