"""Print exact work counts of three fixed runs of the landscape engine.

Run from anywhere:

    python3 scripts/work_counts.py [--root CHECKOUT]

The runs are the seed-1 demo sweep (``sensitivity_sweep`` of the shipped
demo candidate at coaxial fraction 0.1, cone 20 degrees, 4 trials, seed
1, as the benchmark's ``sweep`` workload runs it), ``design`` on the
shipped ``pair_design_space.json`` with budget 300 and seed 1 (the
``run_pipeline`` call of the CLI), and the seed-1 ``screen``: the
``run_pipeline`` call of the benchmark's ``screen`` workload, budget 120
and seed 1, on that file's template, keys and thresholds over the
3x2x3 lattice that ``bench/gen_inputs.py`` writes (extents (0, 2),
(0, 1), (0, 2), moments and track axes along +-x and +-z), built here
without importing ``bench/``. For each it prints one line per count,
``<count> <run>.<name>``:

* ``engine_calls`` and ``decided_pairs``: calls of
  ``landscape._decisions_for_topologies`` and the (topology, key) pairs
  they decide;
* ``lockstep_steps``: calls of ``landscape._step``, one per lockstep
  step of root finding;
* ``kernel_calls`` and, per kind, ``<kind>.calls`` and ``<kind>.pairs``:
  calls of ``landscape._evaluate`` and their (fixed source x point)
  pairs. A call on groups of one point is a ``row`` call, one on
  ``landscape._BASIN_GRID``-point groups a ``basin_grid`` call, and any
  other a ``profile_grid`` call.

The counts come from wrapping those three functions of the ``src/`` of
CHECKOUT (default: the checkout holding this script), imported in this
process, so they do not depend on the host or its load.
"""

import argparse
import collections
import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
XZ_AXES = ((1, 0, 0), (-1, 0, 0), (0, 0, 1), (0, 0, -1))


def _counted(ls, counts):
    """Wrap the engine, the lockstep step and the kernel call of ``ls``
    to add to ``counts``."""
    engine, step, evaluate = ls._decisions_for_topologies, ls._step, ls._evaluate

    def counted_engine(topologies, keys, *args, **kwargs):
        topologies, keys = list(topologies), list(keys)
        counts["engine_calls"] += 1
        counts["decided_pairs"] += len(topologies) * len(keys)
        return engine(topologies, keys, *args, **kwargs)

    def counted_step(stacked, asks):
        counts["lockstep_steps"] += 1
        return step(stacked, asks)

    def counted_evaluate(origin, axis, m_mag, pos, m, key, has_key, const, xs):
        groups, n = xs.shape
        kind = ("row" if n == 1 else "basin_grid" if n == ls._BASIN_GRID
                else "profile_grid")
        counts["kernel_calls"] += 1
        counts[f"{kind}.calls"] += 1
        counts[f"{kind}.pairs"] += pos.shape[1] * groups * n
        return evaluate(origin, axis, m_mag, pos, m, key, has_key, const, xs)

    ls._decisions_for_topologies = counted_engine
    ls._step = counted_step
    ls._evaluate = counted_evaluate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE,
                        help="checkout whose src/maglogic to count "
                             "(default: the one holding this script)")
    root = os.path.abspath(parser.parse_args().root)
    sys.path.insert(0, os.path.join(root, "src"))
    from maglogic import configio, design, landscape, presets

    space = os.path.join(root, "src", "maglogic", "configs", "pair_design_space.json")
    lattice, template, keys, n_units, thresholds, _ = configio.load_design(space)
    candidate = design.CandidateTopology(presets.demo_topology(), presets.demo_keys())
    xz_lattice = dataclasses.replace(lattice, extents=((0, 2), (0, 1), (0, 2)),
                                     allowed_orientations=XZ_AXES,
                                     allowed_track_axes=XZ_AXES)
    runs = {
        "sweep": lambda: design.sensitivity_sweep(candidate, 0.1, 20.0, 4, 1),
        "design": lambda: design.run_pipeline(lattice, n_units, keys, template, 300,
                                              seed=1, thresholds=thresholds),
        "screen": lambda: design.run_pipeline(xz_lattice, n_units, keys, template, 120,
                                              seed=1, thresholds=thresholds),
    }
    counts = collections.Counter()
    _counted(landscape, counts)
    kinds = ("profile_grid", "basin_grid", "row")
    names = ["engine_calls", "decided_pairs", "lockstep_steps", "kernel_calls",
             *(f"{kind}.{what}" for kind in kinds for what in ("calls", "pairs"))]
    for run, call in runs.items():
        counts.clear()
        call()
        for name in names:
            print(f"{counts[name]} {run}.{name}")


if __name__ == "__main__":
    main()
