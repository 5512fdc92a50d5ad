"""The four benchmark workloads: inputs, one round of operations, checks.

A workload loads its inputs once (the set-up), then the driver repeats
``run_round`` for the measured time. Every round performs the same
operations on the same inputs, so rounds must give identical outputs;
``digest`` reduces an output to what is compared across rounds.
``check`` holds the cheap per-round checks and ``check_deep`` the oracle
comparisons, which run once on the first round's output.

All four run in one process with ``design`` threads = 1; ``cli`` starts
one ``maglogic`` child process at a time.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import oracles

SHIPPED = ("degenerate_array.json", "demo_campaign.json", "demo_topology.json",
           "engine.prog", "engine_machine.json", "mission.prog",
           "mission_machine.json", "pair_design_space.json")
DENSE_SAMPLES = 2001
FD_TOLERANCE = 1e-3  # of the profile's peak |F|, for 256 samples
CP_TOLERANCE = 1e-9
CONSOLE = "import sys; from maglogic.cli import main; sys.exit(main())"


def child_env(root: str) -> dict:
    """Environment of a child interpreter that imports maglogic from src/."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


@dataclasses.dataclass
class Round:
    attempted: int
    failed: int
    output: object
    op_seconds: dict = dataclasses.field(default_factory=dict)


class Workload:
    name = ""
    setup_files = ()

    def __init__(self, root: str, inputs: dict, seed: int, workdir: str):
        self.root = root
        self.inputs = inputs
        self.seed = seed
        self.workdir = workdir

    def shipped(self, name: str) -> str:
        return os.path.join(self.root, "src", "maglogic", "configs", name)

    def load(self):
        raise NotImplementedError

    def run_round(self, span_dir: str | None = None, tick=None) -> Round:
        """One round; ``span_dir`` asks ``cli`` for traced children and
        ``tick`` is called between its child processes."""
        raise NotImplementedError

    def digest(self, output):
        return output

    def check(self, output) -> list:
        return []

    def check_deep(self, output) -> list:
        return []


def _fd_problems(what, xs, energy, force) -> list:
    residual = oracles.fd_force_residual(xs, energy, force)
    if residual > FD_TOLERANCE:
        return [f"{what}: |F + dU/dx| reaches {residual:.3g} of peak |F|"]
    return []


class Sweep(Workload):
    """``sensitivity_sweep`` on the shipped three-unit demo candidate."""

    name = "sweep"
    COAX_FRAC = 0.10
    CONE_DEG = 20.0
    TRIALS = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.setup_files = (self.shipped("demo_topology.json"),)

    def load(self):
        from maglogic import configio, design

        path = self.setup_files[0]
        self.units, self.keys, _ = configio.load_topology(path)
        self.candidate = design.CandidateTopology(self.units, self.keys)
        with open(path, encoding="utf-8") as fh:
            self.doc = json.load(fh)

    def run_round(self, span_dir=None, tick=None):
        from maglogic import design

        report = design.sensitivity_sweep(
            self.candidate, self.COAX_FRAC, self.CONE_DEG, self.TRIALS, self.seed)
        return Round(1, 0, report)

    def digest(self, report):
        return dataclasses.astuple(report)

    def check(self, r):
        problems = []
        if r.cone_directions != 9 * len(self.keys):
            problems.append(f"{r.cone_directions} cone directions, want 9 per key")
        if r.coax_trials != self.TRIALS or r.coax_violations or r.cone_violations:
            problems.append(f"violations at 10 %/20 deg: {r}")
        if not 20.0 <= r.angle_margin_deg <= 85.0:
            problems.append(f"angle margin {r.angle_margin_deg} outside [20, 85]")
        if not r.worst_margin > 0.0:
            problems.append(f"worst margin {r.worst_margin} not positive")
        return problems

    def check_deep(self, report):
        from maglogic import design, landscape

        problems = []
        for key in self.keys:
            want = {u.id for u in self.units if u.assigned_key == key.label}
            got = set(design.activation_pattern(self.units, key))
            if got != want:
                problems.append(f"key {key.label} activates {got}, assigned {want}")
            for u in self.units:
                prof = landscape.sample_profile(self.units, u.id, key)
                problems += _fd_problems(f"{u.id} under {key.label}",
                                         prof.xs, prof.energy, prof.force_axial)
        thresholds = {"drive_min": 0.1, "anchor_min": 0.0}
        passed, driven = oracles.one_hot_verdict(self.doc, thresholds, DENSE_SAMPLES)
        want = {u.assigned_key: u.id for u in self.units}
        if not passed or driven != want:
            problems.append(f"dense oracle: passed={passed}, drives {driven}")
        return problems


class Screen(Workload):
    """Seeded sampled search of a 3x2x3 lattice, then ``rank``."""

    name = "screen"
    BUDGET = 120
    ORACLE_FAILING = 4  # failing candidates re-judged by the dense oracle

    def __init__(self, *args):
        super().__init__(*args)
        self.setup_files = (self.inputs["design_3x2x3.json"],)

    def load(self):
        from maglogic import configio

        (self.lattice, self.template, self.keys, self.n_units,
         self.thresholds, _) = configio.load_design(self.setup_files[0])

    def run_round(self, span_dir=None, tick=None):
        from maglogic import design
        from maglogic.errors import NoPassingCandidateError

        reports = design.run_pipeline(
            self.lattice, self.n_units, self.keys, self.template, self.BUDGET,
            seed=self.seed, thresholds=self.thresholds, threads=1)
        try:
            ranked = design.rank(reports)
        except NoPassingCandidateError:
            ranked = []
        return Round(len(reports), 0, (reports, ranked))

    def digest(self, output):
        reports, ranked = output
        return (tuple((r.candidate_hash, r.matrix.passed, r.fidelity)
                      for r in reports),
                tuple(r.candidate_hash for r in ranked))

    def check(self, output):
        reports, ranked = output
        problems = []
        hashes = [r.candidate_hash for r in reports]
        if len(reports) != self.BUDGET:
            problems.append(f"screened {len(reports)}, budget {self.BUDGET}")
        if len(set(hashes)) != len(hashes):
            problems.append("candidate hashes repeat")
        if not ranked:
            problems.append("no candidate passes")
        passing = {r.candidate_hash for r in reports if r.matrix.passed}
        if {r.candidate_hash for r in ranked} != passing:
            problems.append("ranking does not hold exactly the passing candidates")
        for a, b in zip(ranked, ranked[1:]):
            if a.fidelity < b.fidelity or (
                    a.fidelity == b.fidelity and a.candidate_hash > b.candidate_hash):
                problems.append(f"ranking out of order at {a.candidate_hash}")
        return problems

    def check_deep(self, output):
        from maglogic import configio

        reports, _ = output
        failing = [r for r in reports if not r.matrix.passed]
        sample = random.Random(self.seed).sample(
            failing, min(self.ORACLE_FAILING, len(failing)))
        problems = []
        for r in [r for r in reports if r.matrix.passed] + sample:
            doc = configio.topology_to_doc(r.candidate.units, r.candidate.key_set)
            passed, driven = oracles.one_hot_verdict(
                json.loads(json.dumps(doc)), self.thresholds, DENSE_SAMPLES)
            want = dict(r.matrix.assignment) if r.matrix.passed else None
            if passed != r.matrix.passed or (passed and driven != want):
                problems.append(
                    f"candidate {r.candidate_hash}: pipeline passed="
                    f"{r.matrix.passed}, dense oracle passed={passed}")
        return problems


class Bus(Workload):
    """Truth table of a 5x5 node grid, then a noisy endurance campaign."""

    name = "bus"
    CENTRE = "n22"
    ISOLATION = 0.75

    def __init__(self, *args):
        super().__init__(*args)
        self.setup_files = (self.inputs["campaign_5x5.json"],)

    def load(self):
        from maglogic import configio

        self.campaign = configio.load_campaign(self.setup_files[0])
        channel = ("alpha", "beta", "gamma")[self.seed % 3]
        self.endurance = next(c for c in self.campaign.commands
                              if c.intended == (self.CENTRE, channel))

    def run_round(self, span_dir=None, tick=None):
        from maglogic import netbus

        c = self.campaign
        table = netbus.truth_table(c.grid, c.commands)
        stats = netbus.endurance_campaign(
            c.grid, self.endurance, c.cycles, c.noise, seed=c.seed)
        return Round(len(c.commands) + 1, 0, (table, stats))

    def digest(self, output):
        table, stats = output
        return table.rows, dataclasses.astuple(stats)

    def check(self, output):
        table, stats = output
        n = len(self.campaign.commands)
        problems = []
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        if table.rows != identity or not all(table.exclusive):
            problems.append("zero-noise truth table is not the identity")
        if stats.n_cycles != self.campaign.cycles:
            problems.append(f"{stats.n_cycles} endurance cycles run")
        for alpha, upper in ((0.05, stats.p_upper_one_sided),
                             (0.025, stats.p_upper_two_sided)):
            res = oracles.clopper_pearson_residual(
                stats.failures, stats.n_cycles, alpha, upper)
            if res > CP_TOLERANCE:
                problems.append(f"Clopper-Pearson bound at {alpha}: tail off by {res}")
        return problems

    def check_deep(self, output):
        problems = []
        nodes = self.campaign.grid
        for cmd in self.campaign.commands:
            base = cmd.pose.position
            dipoles = [(tuple(b + o for b, o in zip(base, off)), m)
                       for off, m in cmd.pose.dipoles]
            for node in nodes:
                field = oracles.master_field(dipoles, node.position)
                b = sum(c * c for c in field) ** 0.5
                if node.id == cmd.intended[0]:
                    if b < node.threshold:
                        problems.append(f"{cmd.intended}: {b} T below threshold")
                elif b >= self.ISOLATION * node.threshold:
                    problems.append(f"{cmd.intended}: {b} T at {node.id}")
        return problems


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _csv_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class Cli(Workload):
    """Fresh ``maglogic`` processes, one at a time."""

    name = "cli"
    INVALID = ("landscape_nan", "validate_string")

    def __init__(self, *args):
        super().__init__(*args)
        self.setup_files = tuple(self.shipped(n) for n in SHIPPED
                                 if n.endswith(".json"))
        out, gen = self.out, self.inputs
        self.ops = (
            ("design", ["design", self.shipped("pair_design_space.json"),
                        "--budget", "300", "--seed", str(self.seed),
                        "--out", out("design.json")]),
            ("validate", ["validate", *(self.shipped(n) for n in SHIPPED),
                          gen["campaign_5x5.json"], gen["design_3x2x3.json"],
                          gen["physical_machine.json"], gen["round_robin.prog"],
                          out("design_top1.json")]),
            ("landscape", ["landscape", self.shipped("demo_topology.json"),
                           "--unit", "alpha", "--key", "+x",
                           "--out", out("alpha.csv")]),
            ("fsm", ["fsm", gen["physical_machine.json"], gen["round_robin.prog"],
                     "--out", out("physical.csv")]),
            ("fsm_mission", ["fsm", self.shipped("mission_machine.json"),
                             self.shipped("mission.prog"),
                             "--out", out("mission.csv")]),
            ("net", ["net", self.shipped("demo_campaign.json"),
                     "--out", out("net.csv")]),
            ("landscape_nan", ["landscape", gen["invalid_nan_magnitude.json"],
                               "--unit", "alpha", "--key", "+x",
                               "--out", out("nan.csv")]),
            ("validate_string", ["validate", gen["invalid_string_magnitude.json"]]),
        )
        self.env = child_env(self.root)

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def load(self):
        pass  # every call parses its own inputs

    def run_round(self, span_dir=None, tick=None):
        results, seconds, failed = {}, {}, 0
        bootstrap = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                 "traced_child.py")
        for name, argv in self.ops:
            if tick is not None:
                tick()
            if span_dir is None:
                cmd = [sys.executable, "-c", CONSOLE, *argv]
            else:
                cmd = [sys.executable, bootstrap,
                       os.path.join(span_dir, f"{name}.json"), *argv]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=self.env, cwd=self.workdir,
                                  capture_output=True, text=True, timeout=150)
            seconds[name] = time.perf_counter() - t0
            if name in self.INVALID:
                # the wanted behaviour: a typed config error, exit code 2
                ok = proc.returncode == 2 and "Traceback" not in proc.stderr and \
                    any(line.startswith("error:") for line in proc.stderr.splitlines())
            else:
                ok = proc.returncode == 0
            failed += not ok
            results[name] = (proc.returncode, ok, proc.stdout, proc.stderr)
        return Round(len(self.ops), failed, results, seconds)

    def digest(self, results):
        files = ("design.json", "design_top1.json", "alpha.csv", "physical.csv",
                 "mission.csv", "net.csv", "net_stats.txt")
        return (tuple((n, rc) for n, (rc, _, _, _) in sorted(results.items())),
                tuple(_sha(self.out(f)) for f in files
                      if os.path.exists(self.out(f))))

    def check(self, results):
        problems = [f"{name} exited {rc}: {err.strip()[-300:]}"
                    for name, (rc, ok, _, err) in results.items()
                    if not ok and name not in self.INVALID]
        if problems:
            return problems
        rows = _csv_rows(self.out("alpha.csv"))[1:]
        xs, energy, force = ([float(r[i]) for r in rows] for i in range(3))
        problems += _fd_problems("landscape CSV", xs, energy, force)
        final = tuple(int(v) for v in _csv_rows(self.out("physical.csv"))[-1][1:4])
        if final != (10, 0, 10):
            problems.append(f"physical FSM ends at {final}, want (10, 0, 10)")
        mission = _csv_rows(self.out("mission.csv"))[1:]
        final = tuple(int(v) for v in mission[-1][1:5])
        fired = [a for r in mission for a in r[5].split(";") if a]
        if final != (1, 1, 2, 0) or sorted(fired) != ["cutting", "removal"]:
            problems.append(f"mission ends at {final} firing {fired}")
        with open(self.out("net_stats.txt"), encoding="utf-8") as fh:
            stats = dict(line.split() for line in fh if line.strip())
        n = int(stats["endurance_cycles"])
        if int(stats["failures"]) != 0 or n != 5000:
            problems.append(f"net stats: {stats}")
        for alpha, field in ((0.05, "p_upper_one_sided_95"),
                             (0.025, "p_upper_two_sided_95")):
            got = float(stats[field])
            # the closed form for 0 failures carries ~2e-13 relative rounding
            if abs(got - (1.0 - alpha ** (1.0 / n))) > 1e-12 * got or \
                    oracles.clopper_pearson_residual(0, n, alpha, got) > CP_TOLERANCE:
                problems.append(f"net {field} = {got}")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Screen, Bus, Cli)}
