"""End-to-end CLI tests against the shipped configs.

Exit code contract: 0 success, 1 domain failure, 2 usage/parse error.
Numeric CSV fields are emitted with repr-faithful 17-digit formatting,
so parsing them back gives the exact float.
"""

import csv
import functools
import importlib.util
import json
import os
import subprocess
import sys

import pytest

import maglogic
from maglogic import cli
from maglogic import configio as cio
from maglogic import presets as pr

CONFIG_DIR = os.path.join(os.path.dirname(maglogic.__file__), "configs")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def shipped(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_validate_all_shipped_configs(capsys):
    files = sorted(os.listdir(CONFIG_DIR))
    assert len(files) == 8
    rc = cli.main(["validate"] + [shipped(f) for f in files])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("ok ") == len(files)


def test_landscape_on_a_collapsed_stroke_exits_2(tmp_path, capsys):
    """A track origin so far out that both stops round to one point was a
    flat profile with exit 0; it is a config error now."""
    with open(shipped("demo_topology.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["units"][0]["track"]["origin"][0] = 1e308
    far = tmp_path / "far.json"
    far.write_text(json.dumps(doc))
    rc = cli.main(["landscape", str(far), "--unit", "alpha", "--out", str(tmp_path / "far.csv")])
    assert rc == 2
    assert "track stops must be two distinct finite points" in capsys.readouterr().err
    assert not (tmp_path / "far.csv").exists()


def test_landscape_profile_and_decision(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    rc = cli.main(["landscape", shipped("demo_topology.json"),
                   "--unit", "alpha", "--key", "+x", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["x_m", "energy_J", "force_axial_N"]
    assert len(rows) >= 256
    xs = [float(r[0]) for r in rows]
    assert xs[0] == pytest.approx(0.013) and xs[-1] == pytest.approx(0.021)
    assert xs == sorted(xs)
    with open(tmp_path / "profile_decision.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["unit_id"] == "alpha"
    assert record["snap_through"] is True
    assert record["clazz"] == "monostable_outer"
    # driving peak also appears in the CSV force column
    forces = [float(r[2]) for r in rows]
    assert max(forces) == pytest.approx(record["driving_peak"], rel=1e-12)
    assert "snap_through=True" in capsys.readouterr().out


def test_landscape_key_label_starting_with_dash(tmp_path):
    # argparse reads "--key -x" as a missing value; "--key=-x" passes the label
    out = tmp_path / "gamma.csv"
    assert cli.main(["landscape", shipped("demo_topology.json"), "--unit", "gamma",
                     "--key=-x", "--out", str(out)]) == 0
    with open(tmp_path / "gamma_decision.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["unit_id"] == "gamma" and record["key_label"] == "-x"
    assert record["snap_through"] is True


def test_landscape_without_key_is_anchored(tmp_path):
    out = tmp_path / "rest.csv"
    rc = cli.main(["landscape", shipped("demo_topology.json"),
                   "--unit", "alpha", "--out", str(out)])
    assert rc == 0
    with open(tmp_path / "rest_decision.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["key_label"] == ""
    assert record["snap_through"] is False
    assert record["anchoring_force"] is not None
    assert record["anchoring_force"] > 0


def test_fsm_mission_trace(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = cli.main(["fsm", shipped("mission_machine.json"),
                   shipped("mission.prog"), "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["time_s", "count_alpha", "count_beta", "count_gamma",
                      "count_sigma", "fired"]
    states = [tuple(int(v) for v in r[1:5]) for r in rows]
    assert states[0] == (0, 0, 0, 0)
    assert (0, 0, 2, 1) in states
    assert states[-1] == (1, 1, 2, 0)
    fired = [r[5] for r in rows]
    assert fired.count("cutting") == 1
    assert fired.count("removal") == 1
    assert "final state (1, 1, 2, 0)" in capsys.readouterr().out


def test_fsm_empty_program(tmp_path):
    prog = tmp_path / "empty.prog"
    prog.write_text("# nothing scheduled\n")
    out = tmp_path / "trace.csv"
    rc = cli.main(["fsm", shipped("mission_machine.json"), str(prog),
                   "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0][1:5] == ["0", "0", "0", "0"]


def test_design_report_and_topology_outputs(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["design", shipped("pair_design_space.json"),
                   "--budget", "100", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["screened"] == 4
    assert report["passing"] == 2
    assert [r["rank"] for r in report["ranking"]] == [1, 2]
    fidelities = [r["fidelity"] for r in report["ranking"]]
    assert fidelities == sorted(fidelities, reverse=True)
    # the winners are serialized as loadable topology files
    for i in (1, 2):
        units, keys, meta = cio.load_topology(tmp_path / f"report_top{i}.json")
        assert len(units) == 2
        assert sorted(u.assigned_key for u in units) == ["+x", "-x"]
    assert "2 passing" in capsys.readouterr().out


def test_design_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert cli.main(["design", shipped("pair_design_space.json"),
                     "--budget", "100", "--out", str(out_a)]) == 0
    assert cli.main(["design", shipped("pair_design_space.json"),
                     "--budget", "100", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert (tmp_path / "a_top1.json").read_bytes() == \
        (tmp_path / "b_top1.json").read_bytes()


def test_design_has_no_threads_flag(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", shipped("pair_design_space.json"), "--budget", "100",
                  "--threads", "2", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2
    assert not (tmp_path / "r.json").exists()


def test_design_no_passing_candidate_is_domain_failure(tmp_path, capsys):
    from maglogic import design as dg
    lattice = dg.Lattice(0.024, ((0, 0), (0, 0), (0, 1)),
                         allowed_orientations=((1, 0, 0),),
                         allowed_track_axes=((1, 0, 0),))
    demo = pr.pair_design_space()[1]
    template = dg.UnitTemplate(demo.stator, demo.mover, 0.013, 0.008, 4.5e-4)
    doc = cio.design_to_doc(lattice, template, pr.pair_keys_antiparallel(), 2)
    space = tmp_path / "parallel.json"
    cio.write_atomic(space, cio.dumps_canonical(doc))
    rc = cli.main(["design", str(space), "--budget", "100",
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "no passing candidate" in err and "1 screened" in err


def test_net_campaign_outputs(tmp_path, capsys):
    doc = pr.demo_campaign_doc(cycles=40, seed=7)
    campaign_path = tmp_path / "campaign.json"
    cio.write_atomic(campaign_path, cio.dumps_canonical(doc))
    out = tmp_path / "table.csv"
    rc = cli.main(["net", str(campaign_path), "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header[:3] == ["command", "intended_node", "intended_channel"]
    assert header[-1] == "exclusive"
    assert len(rows) == 9
    for i, row in enumerate(rows):
        fired = [int(v) for v in row[3:-1]]
        assert fired[i] == 1 and sum(fired) == 1
        assert row[-1] == "1"
    _, events = read_csv(tmp_path / "table_events.csv")
    assert len(events) == 9
    assert all(e[4] == "1" for e in events)
    stats = (tmp_path / "table_stats.txt").read_text()
    assert "error_rate 0\n" in stats
    assert "endurance_cycles 40" in stats
    assert "endurance_seed 7" in stats
    assert "failures 0" in stats
    out_text = capsys.readouterr().out
    assert "error_rate 0" in out_text


def test_net_seed_flag_overrides_campaign_seed(tmp_path):
    doc = pr.demo_campaign_doc(cycles=10, seed=3)
    campaign_path = tmp_path / "campaign.json"
    cio.write_atomic(campaign_path, cio.dumps_canonical(doc))
    out = tmp_path / "t.csv"
    assert cli.main(["net", str(campaign_path), "--seed", "11",
                     "--out", str(out)]) == 0
    stats = (tmp_path / "t_stats.txt").read_text()
    assert "endurance_seed 11" in stats


def test_endurance_without_commands_fails_validate_and_net_alike(tmp_path, capsys):
    doc = pr.demo_campaign_doc(cycles=10)
    doc["commands"] = []
    path = _write_json(tmp_path / "campaign.json", doc)
    for argv in (["validate", path], ["net", path, "--out", str(tmp_path / "n.csv")]):
        assert cli.main(argv) == 2
        assert f"{path}: endurance cycles need at least one command" in \
            capsys.readouterr().err
    assert not (tmp_path / "n.csv").exists()
    doc["cycles"] = 0  # a table without commands is empty, not an error
    assert cli.main(["validate", _write_json(tmp_path / "campaign.json", doc)]) == 0


def test_exit_codes_for_bad_inputs(tmp_path, capsys):
    rc = cli.main(["landscape", str(tmp_path / "missing.json"),
                   "--unit", "alpha", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "missing.json" in capsys.readouterr().err

    rc = cli.main(["landscape", shipped("demo_topology.json"),
                   "--unit", "zeta", "--out", str(tmp_path / "x.csv")])
    assert rc == 2

    rc = cli.main(["landscape", shipped("demo_topology.json"),
                   "--unit", "alpha", "--key", "+q",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "+q" in capsys.readouterr().err

    for budget in ("0", "1000000000000"):
        rc = cli.main(["design", shipped("pair_design_space.json"),
                       "--budget", budget, "--out", str(tmp_path / "r.json")])
        assert rc == 2

    # 0 is too few samples, not the default; 10**12 is past the bound
    for samples in ("0", "8", "1000000000000"):
        rc = cli.main(["landscape", shipped("demo_topology.json"),
                       "--unit", "alpha", "--samples", samples,
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        rc = cli.main(["design", shipped("pair_design_space.json"),
                       "--budget", "10", "--samples", samples,
                       "--out", str(tmp_path / "s.json")])
        assert rc == 2
    assert not (tmp_path / "s.csv").exists() and not (tmp_path / "s.json").exists()

    with open(shipped("demo_campaign.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["master"]["style"] = "lateral"  # cannot aim at the gamma channels
    lateral = tmp_path / "lateral.json"
    lateral.write_text(json.dumps(doc))
    capsys.readouterr()
    rc = cli.main(["net", str(lateral), "--out", str(tmp_path / "n.csv")])
    assert rc == 2
    assert "transverse" in capsys.readouterr().err
    assert not (tmp_path / "n.csv").exists()

    bad_prog = tmp_path / "bad.prog"
    bad_prog.write_text("+q 27mT 0.05s\n")
    rc = cli.main(["fsm", shipped("mission_machine.json"), str(bad_prog),
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 2

    broken = tmp_path / "broken.json"
    broken.write_text('{"format": "maglogic-topology", ')
    rc = cli.main(["validate", str(broken)])
    assert rc == 2

    for path, value in ((("key_set", 0, "magnitude"), float("nan")),
                        (("key_set", 0, "magnitude"), "0.02"),
                        (("key_set", 0, "direction"), 5),
                        (("units", 0, "track", "mass"), float("nan"))):
        with open(shipped("demo_topology.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
        bad_doc = tmp_path / "bad_doc.json"
        bad_doc.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = cli.main(["landscape", str(bad_doc), "--unit", "alpha",
                       "--key", doc["key_set"][0]["label"],
                       "--out", str(tmp_path / "k.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        rc = cli.main(["validate", str(bad_doc)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["design", shipped("pair_design_space.json"),
                  "--budget", "ten", "--out", "r.json"])
    assert exc.value.code == 2


def _write_json(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_generated_benchmark_inputs_validate(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "gen_inputs", os.path.join(ROOT, "bench", "gen_inputs.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    files = []
    for seed in (1, 2, 3):
        paths = gen.generate(ROOT, seed, str(tmp_path / f"seed{seed}"))
        files += [p for name, p in paths.items() if not name.startswith("invalid_")]
    assert cli.main(["validate", *files]) == 0
    assert capsys.readouterr().out.count("ok ") == len(files) == 12


@pytest.mark.parametrize("field, value", [
    ("name", 1), ("name", None), ("scale", "x"), ("scale", True), ("notes", []),
    ("calibration", "x"), ("calibration", {"a": 1}),
])
def test_metadata_value_types_are_checked(tmp_path, capsys, field, value):
    doc = cio.load_document(shipped("demo_topology.json"))
    doc["metadata"][field] = value
    assert cli.main(["validate", _write_json(tmp_path / "m.json", doc)]) == 2
    assert f"metadata.{field}" in capsys.readouterr().err


def test_empty_unit_lists_are_config_errors(tmp_path, capsys):
    topo = cio.load_document(shipped("demo_topology.json"))
    topo["units"] = []
    assert cli.main(["validate", _write_json(tmp_path / "t.json", topo)]) == 2
    assert "units must not be empty" in capsys.readouterr().err
    machine = _write_json(tmp_path / "machine.json", {
        "format": "maglogic-machine", "version": 1,
        "units": [{"id": "alpha", "role": "accumulator"}],
        "decode": {"mode": "physical", "topology": {"units": []}},
    })
    assert cli.main(["validate", machine]) == 2
    assert cli.main(["fsm", machine, shipped("engine.prog"),
                     "--out", str(tmp_path / "trace.csv")]) == 2
    assert "at least one unit" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def _json_paths(node, path=()):
    """The path of the root, of every object and list, and of every leaf."""
    yield path
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _json_paths(child, path + (key,))


RAW_1E999 = "__raw_1e999__"  # written into the file as the bare literal 1e999
MUTANTS = (float("nan"), RAW_1E999, "x", [], {}, None, True, 1e308, -1e308)


def test_every_config_mutation_is_a_result_or_a_config_error(
        tmp_path, capsys, monkeypatch):
    """Each leaf, list and object of every shipped config, replaced in turn.

    ``validate`` must exit 0 or 2 and never raise; a NaN or an overflowing
    number anywhere must exit 2 with an ``error:`` line.
    """
    # building the argument parser is most of an in-process call; build it once
    monkeypatch.setattr(cli, "build_parser", functools.lru_cache(cli.build_parser))
    target = str(tmp_path / "mutant.json")
    failures, runs = [], 0
    for name in sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".json")):
        with open(shipped(name), encoding="utf-8") as fh:
            doc = json.load(fh)
        for path in _json_paths(doc):
            parent = doc
            for step in path[:-1]:
                parent = parent[step]
            for value in MUTANTS:
                if path:
                    saved, parent[path[-1]] = parent[path[-1]], value
                text = json.dumps(doc if path else value)
                if path:
                    parent[path[-1]] = saved
                with open(target, "w", encoding="utf-8") as fh:
                    fh.write(text.replace(f'"{RAW_1E999}"', "1e999"))
                runs += 1
                try:
                    rc = cli.main(["validate", target])
                except Exception as exc:  # noqa: BLE001 - reported below
                    rc = repr(exc)
                err = capsys.readouterr().err
                if value is RAW_1E999 or value != value:  # non-finite: exit 2
                    ok = rc == 2 and "error:" in err
                else:
                    ok = rc in (0, 2)
                if not ok:
                    failures.append((name, path, value, rc))
    assert runs > 3000
    assert not failures, f"{len(failures)} of {runs} mutants: {failures[:10]}"

    for argv in (["design", shipped("pair_design_space.json"), "--budget", "1"],
                 ["net", shipped("demo_campaign.json")]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--seed", "-1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2


def test_cli_import_loads_no_scipy():
    code = ("import sys, maglogic.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(maglogic.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_unwritable_outputs_and_oversized_programs_exit_2(tmp_path):
    """An --out path in a missing directory or on a directory, and a
    repeat count past the pulse bound, each end a fresh process with exit
    code 2 and one error line, no traceback and no temp file left."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(maglogic.__file__))
    prog = tmp_path / "big.prog"
    prog.write_text("repeat 99999999999999999999 { +x 20mT 1s }\n", encoding="utf-8")
    (tmp_path / "sub").mkdir()
    landscape = ["landscape", shipped("demo_topology.json"), "--unit", "alpha", "--out"]
    calls = [([*landscape, str(tmp_path / "missing" / "a.csv")], "error: cannot write "),
             ([*landscape, str(tmp_path / "sub")], "error: cannot write "),
             (["validate", str(prog)], "error: program expands to more than ")]
    for args, line in calls:
        out = subprocess.run([sys.executable, "-m", "maglogic.cli", *args],
                             capture_output=True, text=True, env=env, timeout=120)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith(line) and out.stderr.count("\n") == 1, out.stderr
        assert "Traceback" not in out.stderr
    assert sorted(os.listdir(tmp_path)) == ["big.prog", "sub"]
    assert os.listdir(tmp_path / "sub") == []


def test_outputs_leave_no_temp_files(tmp_path):
    out = tmp_path / "trace.csv"
    assert cli.main(["fsm", shipped("engine_machine.json"),
                     shipped("engine.prog"), "--out", str(out)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["trace.csv"]
    header, rows = read_csv(out)
    # nine engine pulses, all three counters end at 3
    assert len(rows) == 10
    assert rows[-1][1:4] == ["3", "3", "3"]


def test_validate_of_an_overflowing_master_exits_2(tmp_path):
    """A campaign whose master cannot be calibrated in floating point is a
    config error in a fresh process: exit 2, one error line, no traceback."""
    doc = pr.demo_campaign_doc()
    doc["master"]["depth"] = 1e308
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = _run_fresh("-m", "maglogic.cli", "validate", str(path))
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1, out.stderr
    assert "cannot be calibrated in floating point" in out.stderr
    assert "Traceback" not in out.stderr


def _run_fresh(*args):
    """``python *args`` in a fresh interpreter that imports maglogic from
    this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(maglogic.__file__))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("args, loaded", [
    ((), []),
    (("landscape", "demo_topology.json", "--unit", "alpha"), []),
    (("design", "pair_design_space.json", "--budget", "20"), ["maglogic.design"]),
    (("fsm", "mission_machine.json", "mission.prog"), ["maglogic.fsm"]),
    (("net", "demo_campaign.json"), ["maglogic.netbus"]),
    (("validate", "demo_topology.json"), []),
    (("validate", "mission.prog"), ["maglogic.fsm"]),
], ids=["import", "landscape", "design", "fsm", "net", "validate-topology",
        "validate-prog"])
def test_each_subcommand_loads_only_its_modules(tmp_path, args, loaded):
    """Every CLI call is a fresh process that compiles what it imports, so
    ``design``, ``fsm`` and ``netbus`` load only when a subcommand needs them."""
    argv = [shipped(a) if a.endswith((".json", ".prog")) else a for a in args]
    if argv and argv[0] != "validate":
        argv += ["--out", str(tmp_path / "out")]
    code = ("import sys\nfrom maglogic import cli\n"
            "rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(rc, [m for m in ('maglogic.design', 'maglogic.fsm', "
            "'maglogic.netbus') if m in sys.modules])")
    out = _run_fresh("-c", code, *argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == f"0 {loaded}"


def test_noise_free_net_leaves_numpy_random_unloaded(tmp_path):
    """The shipped campaign has no noise, so its endurance run draws
    nothing and makes no generator: numpy.random, about 6 MiB resident
    once loaded, stays unloaded."""
    code = ("import sys\nfrom maglogic import cli\nrc = cli.main(sys.argv[1:])\n"
            "print(rc, 'numpy.random' in sys.modules)")
    out = _run_fresh("-c", code, "net", shipped("demo_campaign.json"),
                     "--out", str(tmp_path / "net.csv"))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 False"


def test_undecodable_and_over_deep_inputs_exit_2(tmp_path):
    """A document or program that is not UTF-8, JSON nested 100,000 deep and
    repeat blocks nested 2,000 deep each end a fresh process with exit code
    2 and one error line, no traceback."""
    bad_json = tmp_path / "bad.json"
    bad_json.write_bytes(b'{"format": "maglogic-topology", \xff}\n')
    bad_prog = tmp_path / "bad.prog"
    bad_prog.write_bytes(b"+x 20mT 1s\n\xff\n")
    deep_json = tmp_path / "deep.json"
    deep_json.write_text("[" * 100_000, encoding="utf-8")
    deep_prog = tmp_path / "deep.prog"
    deep_prog.write_text("repeat 1 { " * 2000 + "+x 20mT 1s" + " }" * 2000,
                         encoding="utf-8")
    machine = shipped("mission_machine.json")
    calls = [(["validate", str(bad_json)],
              f"error: cannot read {bad_json}: not UTF-8 text"),
             (["validate", str(bad_prog)],
              f"error: cannot read {bad_prog}: not UTF-8 text"),
             (["fsm", machine, str(bad_prog), "--out", str(tmp_path / "x.csv")],
              f"error: cannot read {bad_prog}: not UTF-8 text"),
             (["validate", str(deep_json)],
              f"error: {deep_json}: JSON nested too deeply"),
             (["validate", str(deep_prog)],
              "error: repeat blocks nested too deeply"),
             (["fsm", machine, str(deep_prog), "--out", str(tmp_path / "x.csv")],
              "error: repeat blocks nested too deeply")]
    for args, line in calls:
        out = _run_fresh("-m", "maglogic.cli", *args)
        assert out.returncode == 2, out.stderr
        assert out.stderr.startswith(line) and out.stderr.count("\n") == 1, out.stderr
        assert "Traceback" not in out.stderr
    assert not os.path.exists(tmp_path / "x.csv")
