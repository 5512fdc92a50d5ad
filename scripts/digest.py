"""Run every maglogic subcommand and print exit codes and output hashes.

Run from anywhere:

    python3 scripts/digest.py [--root CHECKOUT] > digest.txt

The calls cover the shipped configs (every unit of the demo topology
under every key and under no key, ``--key=-x`` and the rejected
``--key -x`` form, ``design``, both machines, ``net`` with and without
``--seed 7``, ``validate``) and the inputs that ``bench/gen_inputs.py``
writes for seeds 1-3. Each call is a fresh interpreter importing the
``src/`` of CHECKOUT (default: the checkout holding this script), run
in a temporary directory on copies of the inputs, so printed paths are
relative and two checkouts can be compared line by line:

    call <name> exit <code> stdout <sha256> stderr <sha256>
    file <output path> <sha256>

Output bytes depend on the BLAS kernel numpy dispatches to, so compare
two checkouts on one host and never commit a digest as a golden file.
Only the standard library is used.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONSOLE = "import sys; from maglogic.cli import main; sys.exit(main())"
SEEDS = (1, 2, 3)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _shipped_calls(work: str, cfg: str) -> list:
    with open(os.path.join(work, cfg, "demo_topology.json"), encoding="utf-8") as fh:
        topo = json.load(fh)
    demo = f"{cfg}/demo_topology.json"
    calls = []
    for unit in topo["units"]:
        for key in [None] + [k["label"] for k in topo["key_set"]]:
            name = f"landscape_{unit['id']}_{key or 'nokey'}"
            argv = ["landscape", demo, "--unit", unit["id"]]
            argv += [] if key is None else [f"--key={key}"]
            calls.append((name, argv + ["--out", f"out/{name}.csv"]))
    calls += [
        ("landscape_gamma_space_-x", ["landscape", demo, "--unit", "gamma",
                                      "--key", "-x", "--out", "out/bad.csv"]),
        ("landscape_degenerate", ["landscape", f"{cfg}/degenerate_array.json",
                                  "--unit", "m0", "--out", "out/degenerate.csv"]),
        ("design", ["design", f"{cfg}/pair_design_space.json", "--budget", "300",
                    "--out", "out/design.json"]),
        ("fsm_mission", ["fsm", f"{cfg}/mission_machine.json",
                         f"{cfg}/mission.prog", "--out", "out/mission.csv"]),
        ("fsm_engine", ["fsm", f"{cfg}/engine_machine.json",
                        f"{cfg}/engine.prog", "--out", "out/engine.csv"]),
        ("net", ["net", f"{cfg}/demo_campaign.json", "--out", "out/net.csv"]),
        ("net_seed7", ["net", f"{cfg}/demo_campaign.json", "--seed", "7",
                       "--out", "out/net7.csv"]),
        ("validate", ["validate", *(f"{cfg}/{n}"
                                    for n in sorted(os.listdir(os.path.join(work, cfg))))]),
    ]
    return calls


def _generated_calls(work: str, gen: str, seed: int) -> list:
    out = f"out/seed{seed}"
    return [
        ("design", ["design", f"{gen}/design_3x2x3.json", "--budget", "120",
                    "--seed", str(seed), "--out", f"{out}/design.json"]),
        ("fsm", ["fsm", f"{gen}/physical_machine.json", f"{gen}/round_robin.prog",
                 "--out", f"{out}/physical.csv"]),
        ("net", ["net", f"{gen}/campaign_5x5.json", "--out", f"{out}/net.csv"]),
        ("landscape_nan", ["landscape", f"{gen}/invalid_nan_magnitude.json",
                           "--unit", "alpha", "--key=+x", "--out", f"{out}/nan.csv"]),
        ("validate", ["validate", *(f"{gen}/{n}"
                                    for n in sorted(os.listdir(os.path.join(work, gen)))
                                    if not n.startswith("invalid_"))]),
        ("validate_string", ["validate", f"{gen}/invalid_string_magnitude.json"]),
    ]


def digest(root: str, work: str):
    """Yield the digest lines of every call, run under ``work``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    shutil.copytree(os.path.join(root, "src", "maglogic", "configs"),
                    os.path.join(work, "shipped"))
    calls = [(f"shipped/{n}", a) for n, a in _shipped_calls(work, "shipped")]
    for seed in SEEDS:
        gen = f"seed{seed}"
        subprocess.run([sys.executable, os.path.join(root, "bench", "gen_inputs.py"),
                        "--seed", str(seed), "--out", gen],
                       cwd=work, check=True, stdout=subprocess.DEVNULL)
        calls += [(f"{gen}/{n}", a) for n, a in _generated_calls(work, gen, seed)]
    for name, argv in calls:
        before = _files(work)
        proc = subprocess.run([sys.executable, "-c", CONSOLE, *argv], cwd=work,
                              env=env, capture_output=True, timeout=600)
        yield (f"call {name} exit {proc.returncode} "
               f"stdout {_sha(proc.stdout)} stderr {_sha(proc.stderr)}")
        for path in sorted(_files(work) - before):
            with open(os.path.join(work, path), "rb") as fh:
                yield f"file {path} {_sha(fh.read())}"


def _files(work: str) -> set:
    out = os.path.join(work, "out")
    return {os.path.relpath(os.path.join(d, f), work).replace(os.sep, "/")
            for d, _, files in os.walk(out) for f in files}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE,
                        help="checkout whose src/ and bench/ to run "
                             "(default: the one holding this script)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="maglogic-digest-") as work:
        for seed in SEEDS:
            os.makedirs(os.path.join(work, "out", f"seed{seed}"))
        for line in digest(os.path.abspath(args.root), work):
            print(line, flush=True)


if __name__ == "__main__":
    main()
