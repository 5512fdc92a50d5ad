"""Command-line front end for the whole pipeline.

One binary, five subcommands:

* ``landscape``: sweep one unit's energy/force profile under a key and
  classify it (CSV profile + JSON decision record).
* ``design``: run the lattice search pipeline and rank survivors
  (JSON report + the top topologies re-serialized as topology files).
* ``fsm``: execute a pulse program against a machine (trace CSV).
* ``net``: evaluate a release-node campaign (truth table CSV, event
  log CSV, stats text, optional endurance run).
* ``validate``: parse any config file and report its kind.

Exit codes: 0 success, 1 domain failure (physics or empty search),
2 usage or parse error. All randomized paths take ``--seed`` and
default to seed 0 (campaign files may carry their own). Output files
are written atomically; numbers are emitted with 17 significant
digits, locale-independent.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import os
import sys

from . import configio as cio
from . import design as dg
from . import fsm
from . import landscape as ls
from . import netbus as nb
from .errors import ConfigError, MaglogicError, NoPassingCandidateError

DEFAULT_SEED = 0
TOP_K = 3


def _g17(value) -> str:
    return format(float(value), ".17g")


def _stem(path: str) -> str:
    return os.path.splitext(os.fspath(path))[0]


def _read_text(path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    cio.write_atomic(path, buf.getvalue())


def _seed(text: str) -> int:
    """argparse type of ``--seed``: numpy seeds must be non-negative integers."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_landscape(args) -> int:
    units, keys, _ = cio.load_topology(args.topology)
    key = None
    if args.key is not None:
        key = next((k for k in keys if k.label == args.key), None)
        if key is None:
            raise ConfigError(
                f"{args.topology}: no key labeled {args.key!r} in key_set")
    samples = ls.DEFAULT_SAMPLES if args.samples is None else args.samples
    profile = ls.sample_profile(units, args.unit, key, samples)
    decision = ls.decide(ls.refine_equilibria(profile))
    _write_csv(
        args.out, ("x_m", "energy_J", "force_axial_N"),
        [(_g17(x), _g17(u), _g17(f))
         for x, u, f in zip(profile.xs, profile.energy, profile.force_axial)],
    )
    record = dataclasses.asdict(decision)
    record["n_samples"] = samples
    decision_path = _stem(args.out) + "_decision.json"
    cio.write_atomic(decision_path, cio.dumps_canonical(record))
    print(f"{args.unit} under {args.key or 'no key'}: {decision.clazz}, "
          f"snap_through={decision.snap_through}; wrote {args.out} "
          f"and {decision_path}")
    return 0


def cmd_design(args) -> int:
    lattice, template, keys, n_units, thresholds, _ = cio.load_design(args.space)
    samples = ls.DEFAULT_SAMPLES if args.samples is None else args.samples
    reports = dg.run_pipeline(
        lattice, n_units, keys, template, args.budget, seed=args.seed,
        thresholds=thresholds, n_samples=samples)
    try:
        ranked = dg.rank(reports)
    except NoPassingCandidateError:
        raise NoPassingCandidateError(
            f"no passing candidate among {len(reports)} screened")
    ranking = []
    for i, rep in enumerate(ranked):
        ranking.append({
            "rank": i + 1,
            "candidate_hash": rep.candidate_hash,
            "fidelity": rep.fidelity,
            "compactness": rep.compactness,
            "control_entropy_bits": rep.entropy,
            "assignment": dict(sorted(rep.matrix.assignment)),
            "total_magnet_volume_m3": rep.matrix.total_magnet_volume,
        })
    report_doc = {
        "screened": len(reports),
        "passing": len(ranked),
        "budget": args.budget,
        "seed": args.seed,
        "n_samples": samples,
        "ranking": ranking,
    }
    cio.write_atomic(args.out, cio.dumps_canonical(report_doc))
    written = [os.fspath(args.out)]
    for i, rep in enumerate(ranked[:TOP_K]):
        by_unit = {unit: label for label, unit in rep.matrix.assignment}
        units = tuple(
            dataclasses.replace(u, assigned_key=by_unit.get(u.id))
            for u in rep.candidate.units
        )
        path = f"{_stem(args.out)}_top{i + 1}.json"
        cio.save_topology(path, units, rep.candidate.key_set,
                          {"name": f"design candidate {rep.candidate_hash}"})
        written.append(path)
    print(f"screened {len(reports)} candidates, {len(ranked)} passing; "
          f"wrote {', '.join(written)}")
    return 0


def cmd_fsm(args) -> int:
    machine, _ = cio.load_machine(args.machine)
    program = fsm.parse_program(_read_text(args.program))
    trace = fsm.run(machine, program)
    header = ["time_s"] + [f"count_{u.id}" for u in machine.units] + ["fired"]
    rows = [
        [_g17(step.time), *[str(v) for v in step.state],
         ";".join(step.fired)]
        for step in trace
    ]
    _write_csv(args.out, header, rows)
    fired = [a for step in trace for a in step.fired]
    print(f"ran {len(program)} pulses: final state {trace[-1].state}, "
          f"actions {fired if fired else 'none'}; wrote {args.out}")
    return 0


def cmd_net(args) -> int:
    campaign = cio.load_campaign(args.campaign)
    table = nb.truth_table(campaign.grid, campaign.commands)
    header = ["command", "intended_node", "intended_channel"]
    header += [f"fired_{node}_{channel}" for node, channel in table.columns]
    header += ["exclusive"]
    rows = []
    for i, row in enumerate(table.rows):
        node, channel = table.intended[i]
        rows.append([str(i), node, channel, *[str(v) for v in row],
                     "1" if table.exclusive[i] else "0"])
    _write_csv(args.out, header, rows)

    events_path = _stem(args.out) + "_events.csv"
    _write_csv(
        events_path,
        ("time_s", "node", "channel", "field_T", "intended"),
        [(_g17(e.time), e.node_id, e.channel, _g17(e.magnitude),
          "1" if e.intended else "0") for e in table.events],
    )
    rate = nb.error_rate(table.events)
    lines = [
        f"commands {len(campaign.commands)}",
        f"events {len(table.events)}",
        f"error_rate {_g17(rate)}",
        f"exclusive_rows {sum(table.exclusive)}/{len(table.rows)}",
    ]
    if campaign.cycles > 0:
        if not campaign.commands:
            raise ConfigError("endurance cycles need at least one command")
        seed = campaign.seed if args.seed is None else args.seed
        stats = nb.endurance_campaign(
            campaign.grid, campaign.commands[0], campaign.cycles,
            campaign.noise, seed=seed)
        lines += [
            f"endurance_cycles {stats.n_cycles}",
            f"endurance_seed {seed}",
            f"false_triggers {stats.false_triggers}",
            f"misses {stats.misses}",
            f"failures {stats.failures}",
            f"p_upper_one_sided_95 {_g17(stats.p_upper_one_sided)}",
            f"p_upper_two_sided_95 {_g17(stats.p_upper_two_sided)}",
        ]
    stats_path = _stem(args.out) + "_stats.txt"
    text = "\n".join(lines) + "\n"
    cio.write_atomic(stats_path, text)
    sys.stdout.write(text)
    print(f"wrote {args.out}, {events_path} and {stats_path}")
    return 0


def cmd_validate(args) -> int:
    for path in args.files:
        if os.fspath(path).endswith(".prog"):
            program = fsm.parse_program(_read_text(path))
            print(f"ok {path} (pulse program, {len(program)} pulses)")
            continue
        doc = cio.load_document(path)
        cio.validate_document(doc, os.fspath(path))
        print(f"ok {path} ({cio.document_kind(doc)})")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maglogic",
        description="Selective magnetic actuation pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "landscape", help="profile one unit under one key")
    p.add_argument("topology", help="topology config file")
    p.add_argument("--unit", required=True, help="unit id to sweep")
    p.add_argument("--key", default=None,
                   help="key label from the file's key_set (default: none); "
                        "write a label that starts with '-' as --key=-x")
    p.add_argument("--samples", type=int, default=None,
                   help=f"profile samples (default {ls.DEFAULT_SAMPLES})")
    p.add_argument("--out", required=True, help="profile CSV path")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("design", help="search a lattice design space")
    p.add_argument("space", help="design-space config file")
    p.add_argument("--budget", type=int, required=True,
                   help="max candidates to screen")
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                   help=f"sampling seed (default {DEFAULT_SEED})")
    p.add_argument("--samples", type=int, default=None,
                   help=f"profile samples (default {ls.DEFAULT_SAMPLES})")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("fsm", help="run a pulse program on a machine")
    p.add_argument("machine", help="machine config file")
    p.add_argument("program", help="pulse program file (*.prog)")
    p.add_argument("--out", required=True, help="trace CSV path")
    p.set_defaults(func=cmd_fsm)

    p = sub.add_parser("net", help="evaluate a release-node campaign")
    p.add_argument("campaign", help="campaign config file")
    p.add_argument("--seed", type=_seed, default=None,
                   help="override the campaign file's endurance seed")
    p.add_argument("--out", required=True, help="truth table CSV path")
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("validate", help="parse config files and report kinds")
    p.add_argument("files", nargs="+", help="config or program files")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MaglogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
