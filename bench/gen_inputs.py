"""Write the benchmark's generated input documents for one workload seed.

    python3 bench/gen_inputs.py --seed 1 --out .bench_run/inputs

Only the standard library is used: the documents are built as plain
JSON in the formats of ``docs/formats.md``, starting from the shipped
``demo_topology.json`` and ``pair_design_space.json``. Files written:

* ``campaign_5x5.json``: 25 release nodes on a 5 x 5 grid at the demo
  pitch, all 75 (node, channel) commands in truth-table column order, a
  master calibrated 10 % above the node threshold, pose noise, and the
  seed as the endurance seed;
* ``design_3x2x3.json``: a 3 x 2 x 3 lattice at the demo pitch, stator
  moments and track axes along +-x and +-z, two units and the +-x keys;
* ``physical_machine.json`` and ``round_robin.prog``: the demo topology
  as a physical-decode machine (alpha and gamma ratchet, beta toggles)
  and a 30-pulse round-robin program whose starting key the seed picks;
* ``invalid_nan_magnitude.json`` and ``invalid_string_magnitude.json``:
  the demo topology with the first key magnitude replaced by NaN and by
  the string "0.02". These two do not depend on the seed.
"""

from __future__ import annotations

import argparse
import copy
import json
import os

CONFIG_DIR = os.path.join("src", "maglogic", "configs")
GRID_SIDE = 5
PITCH = 0.030  # m, the demo node pitch
THRESHOLD = 0.120  # T
MASTER_FIELD = 0.132  # T at the working depth, 10 % over threshold
DEPTH = 0.005  # m
CHANNELS = (("alpha", [1.0, 0.0, 0.0]), ("beta", [0.0, 1.0, 0.0]),
            ("gamma", [0.0, 0.0, 1.0]))
NOISE = {"angle_sigma_deg": 3.0, "magnitude_sigma_T": 0.005}
ENDURANCE_CYCLES = 800
# stator moments and track axes along +-x and +-z: about one candidate in
# eight passes, so every seed's sample of 120 has passing candidates
XZ_AXES = [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
ROUND_ROBIN = ("+x", "+z", "-x")
ROUNDS = 10
PULSE = "20mT 0.05s"


def _dump(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_shipped(root: str, name: str) -> dict:
    with open(os.path.join(root, CONFIG_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def campaign_doc(seed: int) -> dict:
    grid = [
        {
            "id": f"n{i}{j}",
            "position": [PITCH * i, PITCH * j, 0.0],
            "channels": [{"label": lbl, "direction": d} for lbl, d in CHANNELS],
            "threshold": THRESHOLD,
            "cone_half_angle": 20.0,
        }
        for i in range(GRID_SIDE) for j in range(GRID_SIDE)
    ]
    return {
        "format": "maglogic-campaign",
        "version": 1,
        "metadata": {"name": f"5x5 release-node grid, seed {seed}"},
        "grid": grid,
        "master": {"style": "auto", "depth": DEPTH, "field": MASTER_FIELD},
        "commands": [{"node": n["id"], "channel": c["label"], "dwell": 1.0}
                     for n in grid for c in n["channels"]],
        "cycles": ENDURANCE_CYCLES,
        "noise": dict(NOISE),
        "seed": seed,
    }


def design_doc(root: str) -> dict:
    doc = _load_shipped(root, "pair_design_space.json")
    doc["metadata"] = {"name": "3x2x3 two-unit lattice, x-z orientations"}
    doc["lattice"] = {"spacing": doc["lattice"]["spacing"],
                      "extents": [[0, 2], [0, 1], [0, 2]],
                      "allowed_orientations": XZ_AXES,
                      "allowed_track_axes": XZ_AXES}
    return doc


def machine_doc(root: str) -> dict:
    topo = _load_shipped(root, "demo_topology.json")
    return {
        "format": "maglogic-machine",
        "version": 1,
        "metadata": {"name": "demo topology, physical decode"},
        "units": [{"id": "alpha", "role": "accumulator"},
                  {"id": "beta", "role": "buffer"},
                  {"id": "gamma", "role": "accumulator"}],
        "decode": {"mode": "physical", "topology": {"units": topo["units"]}},
        "n_samples": 256,
    }


def round_robin_program(seed: int) -> str:
    start = seed % len(ROUND_ROBIN)
    order = ROUND_ROBIN[start:] + ROUND_ROBIN[:start]
    body = "; ".join(f"{label} {PULSE}" for label in order)
    return f"# {ROUNDS} round-robin passes starting at {order[0]}\n" \
           f"repeat {ROUNDS} {{ {body} }}\n"


def invalid_topologies(root: str) -> dict:
    base = _load_shipped(root, "demo_topology.json")
    nan_doc, str_doc = copy.deepcopy(base), copy.deepcopy(base)
    nan_doc["key_set"][0]["magnitude"] = float("nan")
    str_doc["key_set"][0]["magnitude"] = "0.02"
    return {"invalid_nan_magnitude.json": nan_doc,
            "invalid_string_magnitude.json": str_doc}


def generate(root: str, seed: int, out: str) -> dict:
    """Write every input for ``seed`` under ``out``; returns name -> path."""
    os.makedirs(out, exist_ok=True)
    docs = {
        "campaign_5x5.json": campaign_doc(seed),
        "design_3x2x3.json": design_doc(root),
        "physical_machine.json": machine_doc(root),
        **invalid_topologies(root),
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = os.path.join(out, name)
        _dump(paths[name], doc)
    paths["round_robin.prog"] = os.path.join(out, "round_robin.prog")
    with open(paths["round_robin.prog"], "w", encoding="utf-8") as fh:
        fh.write(round_robin_program(seed))
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in generate(root, args.seed, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
