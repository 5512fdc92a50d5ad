"""Run every maglogic subcommand and print exit codes and output hashes.

Run from anywhere:

    python3 scripts/digest.py [--root CHECKOUT] > digest.txt

The calls cover the shipped configs (every unit of the demo topology
under every key and under no key, ``--key=-x`` and the rejected
``--key -x`` form, ``design``, both machines, ``net`` with and without
``--seed 7``, ``validate``) and the inputs that ``bench/gen_inputs.py``
writes for seeds 1-3. Library calls follow, each printing the ``repr`` of
its result: on the demo candidate four ``sensitivity_sweep`` runs (coaxial
fraction, cone angle, trials and seed 0.1, 20, 4, 1 and 0.3, 10, 3, 7;
0.1, 60, 2, 1, whose first cone fails; 0.0, 20, 3, 1, without offsets),
``evaluate_candidate`` (matrix, fidelity, entropy), ``cross_interference``
and the ``selectivity_filter`` matrix of the demo units under the 27
directions of the keys' 20 degree cones (labelled ``<label>#<i>``), the
1025-sample ``sample_profile`` energy and force of every demo unit under
those 27 keys and no key, and ``decisions_for_keys`` under the demo keys
and no key with every mover latched mid-stroke; ``decisions_for_keys`` on
two movers 20 mm apart over weak stators, latched mid-stroke, under no
key, a repeated key and keys whose orientation solves take 14 to 156
iterations (two past the damping switch at 100); with the stator of unit
``alpha`` split into 27 sub-dipoles (``discretize=3``), its field at one
point, alpha's 1025-sample profile under ``+x`` and ``decisions_for_keys``
under ``+x`` and no key; the canonical placements and hash of every
candidate that ``enumerate_candidates`` samples (budget 150, seed 3) from
two units on a 2x2x2 cube whose allowed orientations and track axes are
not axis-aligned, so the images' rounding shows; then ``run_pipeline`` +
``rank`` on the seed-1 ``design_3x2x3.json`` with budget 120 and on the
seed-2 one with budget 45 (every candidate's hash, full
``SelectivityMatrix`` with its margins and barriers, fidelity, compactness
and entropy, and the ranked hashes); on a 5x5 grid at 10 mm pitch with a
10 mT threshold, where neighbours fire, the ``truth_table`` events of the
75 demo commands (so their magnitude floats) and three 400-cycle
``endurance_campaign`` runs of a composite master under angle-only,
magnitude-only and combined noise; and a canonical walk of every
``presets`` fixture and program and of the commands for that grid (floats
as ``float.hex``, arrays as dtype, shape and bytes, dicts with sorted
keys, lists and tuples kept apart), so the demo data cannot move unseen.
The last line, ``config_mutants``, pins what ``configio`` makes of broken
documents: in one process, every shipped JSON config has each node (the
root included) replaced in turn by ``"x"``, ``[]``, ``{}``, ``None``,
``True``, ``0``, ``-1``, ``2.5``, ``1e308`` and ``-1e308``, each field of
each object dropped, and an ``extra`` field added to each object; for
each mutant it prints ``validate_document``'s outcome (the class and
message of a ``MaglogicError``, ``ok`` and the sha256 of the canonical
``*_to_doc`` re-serialization, or the class of any other exception) with
the warnings raised on the way.
Each call is a fresh interpreter importing the ``src/`` of CHECKOUT
(default: the checkout holding this script), run in a temporary directory
on copies of the inputs, so printed paths are relative and two checkouts
can be compared line by line:

    call <name> exit <code> stdout <sha256> stderr <sha256>
    file <output path> <sha256>
    lib <name> exit <code> stdout <sha256> stderr <sha256>

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
DEMO = ("from maglogic import configio, design as dg, landscape as ls, netbus as nb, "
        "presets as pr\n"
        "from maglogic.errors import MaglogicError\n"
        "from maglogic.magnetics import FieldKey, MagnetSource, MagnetSpec, dipole_field_at, "
        "source_from_spec\n"
        "import dataclasses\n"
        "cand = dg.CandidateTopology(tuple(pr.demo_topology()), "
        "tuple(pr.demo_keys()))\n"
        "cone = [FieldKey(tuple(d), k.magnitude, f'{k.label}#{i}') for k in cand.key_set "
        "for i, d in enumerate(dg.cone_directions(k.direction, 20.0))]\n"
        "grid10 = [nb.NodeSpec(f'n{i}{j}', (0.01 * i, 0.01 * j, 0.0), "
        "pr.demo_grid()[0].channels, 0.01) for i in range(5) for j in range(5)]\n"
        "import numpy as np\n"
        "def walk(o):\n"
        "    if isinstance(o, float):\n"
        "        return (type(o).__name__, o.hex())\n"
        "    if isinstance(o, np.ndarray):\n"
        "        return ('ndarray', str(o.dtype), o.shape, o.tobytes())\n"
        "    if isinstance(o, (list, tuple)):\n"
        "        return (type(o).__name__, [walk(v) for v in o])\n"
        "    if isinstance(o, dict):\n"
        "        return ('dict', [(k, walk(v)) for k, v in sorted(o.items())])\n"
        "    if hasattr(o, '__dict__'):\n"
        "        return (type(o).__name__, walk(vars(o)))\n"
        "    return (type(o).__name__, repr(o))\n"
        "def screened(seed, budget):\n"
        "    lattice, template, keys, n_units, thresholds, _ = "
        "configio.load_design(f'seed{seed}/design_3x2x3.json')\n"
        "    reports = dg.run_pipeline(lattice, n_units, keys, template, budget, "
        "seed=seed, thresholds=thresholds)\n"
        "    return ([(r.candidate_hash, r.matrix, r.fidelity, r.compactness, r.entropy) "
        "for r in reports], [r.candidate_hash for r in dg.rank(reports)])\n"
        "def json_paths(o, path=()):\n"
        "    yield path, o\n"
        "    items = o.items() if isinstance(o, dict) else "
        "enumerate(o) if isinstance(o, list) else ()\n"
        "    for k, v in items:\n"
        "        yield from json_paths(v, path + (k,))\n"
        "def outcome(doc):\n"
        "    import hashlib, warnings\n"
        "    with warnings.catch_warnings(record=True) as caught:\n"
        "        warnings.simplefilter('always')\n"
        "        try:\n"
        "            loaded = configio.validate_document(doc)\n"
        "            to_doc = getattr(configio, doc['format'].split('-')[1] + '_to_doc')\n"
        "            text = configio.dumps_canonical(to_doc(*loaded) if "
        "isinstance(loaded, tuple) else to_doc(loaded))\n"
        "            result = 'ok ' + hashlib.sha256(text.encode()).hexdigest()\n"
        "        except MaglogicError as exc:\n"
        "            result = f'{type(exc).__name__}: {exc}'\n"
        "        except Exception as exc:\n"
        "            result = type(exc).__name__\n"
        "    return result, [f'{w.category.__name__}: {w.message}' for w in caught]\n"
        "def config_mutants():\n"
        "    import json, os\n"
        "    out = []\n"
        "    for name in sorted(n for n in os.listdir('shipped') if n.endswith('.json')):\n"
        "        with open(f'shipped/{name}', encoding='utf-8') as fh:\n"
        "            text = fh.read()\n"
        "        for path, node in json_paths(json.loads(text)):\n"
        "            edits = [('=', v) for v in ('x', [], {}, None, True, 0, -1, 2.5, "
        "1e308, -1e308)]\n"
        "            if isinstance(node, dict):\n"
        "                edits += [('-', k) for k in node] + [('+', 'extra')]\n"
        "            for op, arg in edits:\n"
        "                doc = json.loads(text)\n"
        "                if op == '=' and not path:\n"
        "                    doc = arg\n"
        "                else:\n"
        "                    parent = doc\n"
        "                    for step in path[:-1 if op == '=' else None]:\n"
        "                        parent = parent[step]\n"
        "                    if op == '=':\n"
        "                        parent[path[-1]] = arg\n"
        "                    elif op == '-':\n"
        "                        del parent[arg]\n"
        "                    else:\n"
        "                        parent[arg] = 1.0\n"
        "                out.append((name, path, op, arg, outcome(doc)))\n"
        "    return out\n")
LIBRARY = (
    ("sensitivity_sweep_0.1_20_4_1", "dg.sensitivity_sweep(cand, 0.1, 20.0, 4, 1)"),
    ("sensitivity_sweep_0.3_10_3_7", "dg.sensitivity_sweep(cand, 0.3, 10.0, 3, 7)"),
    ("sensitivity_sweep_0.1_60_2_1", "dg.sensitivity_sweep(cand, 0.1, 60.0, 2, 1)"),
    ("sensitivity_sweep_0.0_20_3_1", "dg.sensitivity_sweep(cand, 0.0, 20.0, 3, 1)"),
    ("evaluate_candidate", "(lambda r: (r.matrix, r.fidelity, r.entropy))"
                           "(dg.evaluate_candidate(cand))"),
    ("cross_interference", "dg.cross_interference(cand)"),
    ("selectivity_filter_cone_20",
     "dg.selectivity_filter(dg.CandidateTopology(cand.units, tuple(cone)))"),
    ("sample_profile_1025_cone_20",
     "[(p.energy.tolist(), p.force_axial.tolist()) for u in cand.units "
     "for k in [*cone, None] for p in [ls.sample_profile(cand.units, u.id, k, 1025)]]"),
    ("decisions_for_keys_mid_stroke",
     "ls.decisions_for_keys(cand.units, [*cand.key_set, None], mover_positions={"
     "u.id: 0.5 * (u.track.x_in + u.track.x_out) for u in cand.units})"),
    ("decisions_for_keys_coupled_pair",
     "ls.decisions_for_keys([ls.UnitTriplet(f'm{i}', (MagnetSource((x, 0, -0.01), "
     "(0, 0, 0.02)),), ls.MoverTrack((0, 0, 1), (x, 0, 0), (0.0, 0.004), MagnetSpec("
     "'cylinder', (0.004, 0.008), 0.3, (0, 0, 1)), 1e-3)) for i, x in enumerate((0.01, -0.01))], "
     "[None, *(FieldKey(d, 0.005, l) for d, l in (((1, 0, 0), '+x'), ((0, 1, 0), '+y'), "
     "((1, 0, 0), '+x'), ((0, 0, -1), '-z'))), FieldKey((0, 0, 1), 0.02, '+z')], "
     "mover_positions={'m0': 0.002, 'm1': 0.002})"),
    ("discretized_stator_27",
     "(lambda units: (dipole_field_at(units[0].stators[0], (0.004, 0.003, 0.03)).tolist(), "
     "[(p.energy.tolist(), p.force_axial.tolist()) "
     "for p in [ls.sample_profile(units, 'alpha', cand.key_set[0], 1025)]], "
     "ls.decisions_for_keys(units, [cand.key_set[0], None])))("
     "[dataclasses.replace(u, stators=tuple(source_from_spec(s.spec, s.position, "
     "discretize=3) for s in u.stators)) if u.id == 'alpha' else u for u in cand.units])"),
    ("enumerate_candidates_cube_oblique",
     "[(c.placements, c.candidate_hash) for c in dg.enumerate_candidates(dg.Lattice("
     "0.03, ((0, 1), (0, 1), (0, 1)), ((1, 2, 0), (1, 1, 1), (0, -3, 4), (-1, 0, 0)), "
     "((1, 1, 1), (0, -3, 4), (-1, 0, 0))), 2, (), dg.UnitTemplate(MagnetSpec("
     "'cylinder', (0.008, 0.016), 0.05, (1, 0, 0)), MagnetSpec('cylinder', (0.004, 0.008), "
     "0.3, (1, 0, 0)), 0.013, 0.008, 4.5e-4), 150, seed=3)]"),
    ("run_pipeline_rank_seed1_3x2x3", "screened(1, 120)"),
    ("run_pipeline_rank_seed2_3x2x3_45", "screened(2, 45)"),
    ("truth_table_events_10mm",
     "nb.truth_table(grid10, pr.demo_bus_commands(grid10)).events"),
    ("endurance_composite_10mm",
     "[nb.endurance_campaign(grid10, nb.Command(nb.pose_over(grid10[12], "
     "nb.calibrate_master(0.005, 0.12, 'composite', field_direction=(0, 0, 1)), "
     "0.005), ('n22', 'gamma')), 400, noise, seed=5) for noise in ("
     "{'angle_sigma_deg': 10.0}, {'magnitude_sigma_T': 0.06}, "
     "{'angle_sigma_deg': 6.0, 'magnitude_sigma_T': 0.04})]"),
    ("presets_fixtures",
     "walk([pr.demo_keys(), pr.demo_topology(), pr.pair_antiparallel(), "
     "pr.pair_keys_antiparallel(), pr.pair_orthogonal(), pr.pair_keys_orthogonal(), "
     "pr.degenerate_array(), pr.demo_key_targets(), pr.mission_machine(), "
     "pr.MISSION_PROGRAM, pr.engine_machine(), pr.ENGINE_PROGRAM, pr.engine_coupler(), "
     "pr.demo_grid(), pr.demo_bus_commands(), pr.demo_bus_commands(grid10), "
     "pr.node_ejector(), pr.pair_design_space(), pr.demo_campaign_doc()])"),
    ("config_mutants", "config_mutants()"),
)


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
        yield _run("call", name, ["-c", CONSOLE, *argv], work, env)
        for path in sorted(_files(work) - before):
            with open(os.path.join(work, path), "rb") as fh:
                yield f"file {path} {_sha(fh.read())}"
    for name, expr in LIBRARY:
        yield _run("lib", name, ["-c", f"{DEMO}print(repr({expr}))"], work, env)


def _run(kind: str, name: str, args: list, work: str, env: dict) -> str:
    proc = subprocess.run([sys.executable, *args], cwd=work, env=env,
                          capture_output=True, timeout=600)
    return (f"{kind} {name} exit {proc.returncode} "
            f"stdout {_sha(proc.stdout)} stderr {_sha(proc.stderr)}")


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
