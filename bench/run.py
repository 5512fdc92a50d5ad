"""maglogic benchmark driver.

    python3 bench/run.py --workload {sweep,screen,bus,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/`` (pure Python, nothing to build). Inputs are generated from the
seed under ``.bench_run/`` and removed afterwards. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

``--trace 0`` measures the end-to-end metrics with nothing wrapped:
set-up time (fresh interpreters importing ``maglogic.cli`` and loading
the workload's documents), the median time of one round of the
workload's operations in reference units, and peak resident memory.

A reference unit is the wall time of a fixed pure-Python dipole
computation (:func:`reference_seconds`) run right before and after each
round and each set-up probe, and before each child process in ``cli``.
The host this was written on changes speed by 15 % or more from minute
to minute with its neighbours' load; the reference slows with it, so the
ratio keeps the program's own cost. ``setup_s`` is the median probe in
reference units times ``REFERENCE_NOMINAL_S``: seconds on a host where
the reference takes that long. The raw wall times go to standard error.

``--trace 1`` alternates untraced and traced rounds for the measured
time, and reports per-layer calls, work, self time, the share of
distinct ``unit_decision`` cells, import times and the tracing overhead
(median traced minus median untraced round, in reference units). The
spans of the traced rounds are written to
``.bench_run/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_PROBES = 5
REFERENCE_NOMINAL_S = 0.1
PROBE = ("import sys\nfrom maglogic import cli, configio as c\n"
         "for p in sys.argv[1:]: c.validate_document(c.load_document(p), p)")
CLI_CALLS = ("validate", "landscape", "design", "fsm", "net")
_FIELDS = {"calls": ("calls", "count"), "pairs": ("work", "count"),
           "yielded": ("work", "count"), "self_s": ("self_s", "s")}
REFERENCE_POINTS = 12000  # about 0.1 s
_REF_SOURCES = (((0.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
                ((0.01, 0.0, 0.0), (1.0, 0.0, 0.0)))

sys.path.insert(0, BENCH)

import gen_inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402


def reference_seconds() -> float:
    """Wall time of a fixed field-and-force sum over two point dipoles."""
    t0 = time.perf_counter()
    for i in range(REFERENCE_POINTS):
        p = (0.003 + 1e-6 * (i % 97), 0.002, 0.004)
        for pos, m in _REF_SOURCES:
            oracles.dipole_force(pos, m, p, (0.0, 1.0, 0.0))
            oracles.dipole_field(pos, m, p)
    return time.perf_counter() - t0


def setup_seconds(files) -> tuple:
    """Fresh interpreters doing the workload's set-up, one at a time.

    -> (median probe in reference units x REFERENCE_NOMINAL_S, median
    raw wall seconds); the reference is timed before and after each probe.
    """
    refs, walls = [reference_seconds()], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", PROBE, *files],
                       env=workloads.child_env(ROOT), check=True,
                       capture_output=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        refs.append(reference_seconds())
    units = [w / statistics.mean(refs[i:i + 2]) for i, w in enumerate(walls)]
    return REFERENCE_NOMINAL_S * statistics.median(units), statistics.median(walls)


def peak_rss_mib(workload) -> float:
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def import_seconds() -> tuple:
    """(maglogic.cli, scipy) cumulative import times from -X importtime.

    scipy counts every scipy module imported directly by a non-scipy one.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import maglogic.cli"],
        env=workloads.child_env(ROOT), check=True, capture_output=True, text=True,
        timeout=120)
    cli_us = scipy_us = 0
    pending = []  # (depth, name, cumulative us) awaiting their parent
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cum, depth, name = int(m.group(1)), len(m.group(2)) // 2, m.group(3)
        children = [p for p in pending if p[0] == depth + 1]
        pending = [p for p in pending if p[0] <= depth]
        if not name.startswith("scipy"):
            scipy_us += sum(c[2] for c in children if c[1].startswith("scipy"))
        pending.append((depth, name, cum))
        if name == "maglogic.cli":
            cli_us = cum
    return cli_us * 1e-6, scipy_us * 1e-6


class Runner:
    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.problems = []
        self.refs = []

    def round(self, span_dir=None) -> tuple:
        """One round -> (reference units, wall seconds, Round)."""
        refs = [reference_seconds()]
        t0 = time.perf_counter()
        r = self.w.run_round(span_dir, tick=lambda: refs.append(reference_seconds()))
        seconds = time.perf_counter() - t0
        if r.op_seconds:  # cli: child wall times, without the interleaved refs
            seconds = sum(r.op_seconds.values())
        refs.append(reference_seconds())
        self.refs += refs
        self.attempted += r.attempted
        self.failed += r.failed
        digest = self.w.digest(r.output)
        if self.first is None:
            self.first = (r, digest)
            self.problems += self.w.check(r.output)
        elif digest != self.first[1]:
            self.problems.append("a repeated round gave a different output")
        return seconds / statistics.mean(refs), seconds, r

    def rounds(self, seconds: float, one_round=None) -> list:
        """Whole rounds until ``seconds`` have passed; at least one."""
        out = []
        stop = time.perf_counter() + seconds
        while True:
            out.append((one_round or self.round)())
            if time.perf_counter() >= stop:
                return out

    def finish(self) -> None:
        self.problems += self.w.check_deep(self.first[0].output)


def _merge(summary: dict, part: dict) -> None:
    for name, row in part.items():
        acc = summary.setdefault(name, {"calls": 0, "work": 0, "self_s": 0.0})
        for k in acc:
            acc[k] += row[k]


def _configio_seconds(spans) -> float:
    """Inclusive time of the outermost configio spans."""
    by_id = {s[0]: s for s in spans}
    total = 0
    for sid, parent, name, t0, t1, _ in spans:
        if name.startswith("configio.") and not (
                parent >= 0 and by_id[parent][2].startswith("configio.")):
            total += t1 - t0
    return total * 1e-9


def traced_metrics(runner, seconds: float, run_dir: str) -> dict:
    w = runner.w
    metrics = {}
    if w.name != "cli":
        tracer = Tracer().install()
        try:
            w.load()
        finally:
            tracer.uninstall()
        load_s = _configio_seconds(tracer.spans)
    span_dir = os.path.join(run_dir, "spans")
    os.makedirs(span_dir)

    def traced_round():
        """-> (reference units, (summary, distinct cells, configio s, spans))."""
        if w.name != "cli":
            tracer = Tracer().install()
            try:
                units, _, _ = runner.round()
            finally:
                tracer.uninstall()
            return units, (tracer.summary(), len(tracer.cells), None, tracer.spans)
        units, _, _ = runner.round(span_dir)
        summary, cells, cio_s, spans = {}, set(), 0.0, []
        for name, _ in w.ops:
            with open(os.path.join(span_dir, f"{name}.json"), encoding="utf-8") as fh:
                dump = json.load(fh)
            _merge(summary, dump["summary"])
            cells.update(dump["cells"])
            cio_s += _configio_seconds(dump["spans"])
            spans.append([name, dump["spans"]])
        return units, (summary, len(cells), cio_s, spans)

    # untraced and traced rounds alternate, so both see the same host speed
    pairs = runner.rounds(seconds, lambda: (runner.round(), traced_round()))
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    for call in CLI_CALLS:
        metrics[f"cli.{call}_s"] = (statistics.median(
            r.op_seconds.get(call, 0.0) for _, _, r in untraced), "s")
    per_round = [entry for _, entry in traced]
    n = len(per_round)
    summary = {}
    for s, _, _, _ in per_round:
        _merge(summary, s)

    for name, fields in LAYER_METRICS:
        row = summary.get(name, {"calls": 0, "work": 0, "self_s": 0.0})
        for field in fields:
            key, unit = _FIELDS[field]
            total = row[key]
            # per round; counts repeat exactly from round to round
            value = total // n if unit == "count" and total % n == 0 else total / n
            metrics[f"{name}.{field}"] = (value, unit)
    ratios = [cells / s["landscape.unit_decision"]["calls"]
              for s, cells, _, _ in per_round if "landscape.unit_decision" in s]
    metrics["landscape.unit_decision.distinct_ratio"] = (
        statistics.mean(ratios) if ratios else 0.0, "ratio")

    if w.name == "cli":
        load_s = statistics.mean(r[2] for r in per_round)
    metrics["configio.load_s"] = (load_s, "s")
    cli_s, scipy_s = import_seconds()
    metrics["cli.import_s"] = (cli_s, "s")
    metrics["cli.import_scipy_s"] = (scipy_s, "s")
    metrics["trace.overhead_ref"] = (
        statistics.median(units for units, _ in traced)
        - statistics.median(units for units, _, _ in untraced), "ref")

    with open(os.path.join(RUN_DIR, f"spans-{w.name}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": w.name, "rounds": [r[3] for r in per_round]}, fh,
                  separators=(",", ":"))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="maglogic benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "screen", "bus", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "maglogic", "__init__.py")):
        print(f"error: no maglogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # one CPU for the workload, the reference computation and every child
    # process (they inherit the mask), so the reference sees the speed the
    # workload gets
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    oracles.self_check()
    run_dir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        inputs = gen_inputs.generate(ROOT, args.seed, os.path.join(run_dir, "inputs"))
        w = workloads.WORKLOADS[args.workload](ROOT, inputs, args.seed, run_dir)
        runner = Runner(w)
        if args.trace:
            metrics = traced_metrics(runner, args.seconds, run_dir)
        else:
            setup, setup_wall = setup_seconds(w.setup_files)
            w.load()
            rounds = runner.rounds(args.seconds)
            metrics = {
                "setup_s": (setup, "s"),
                "round_ref": (statistics.median(r[0] for r in rounds), "ref"),
                "peak_rss_mib": (peak_rss_mib(w), "MiB"),
            }
            print(f"{len(rounds)} rounds, wall median "
                  f"{statistics.median(r[1] for r in rounds):.4f} s; reference "
                  f"median {statistics.median(runner.refs):.4f} s; set-up wall "
                  f"median {setup_wall:.4f} s", file=sys.stderr)
        runner.finish()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
