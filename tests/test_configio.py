"""Round-trip and validation tests for the config document layer.

The shipped files under maglogic/configs are the reference corpus:
each must parse, re-serialize canonically, and re-parse to the same
document. Loaders must reject unknown fields at any depth.
"""

import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

import maglogic
from maglogic import configio as cio
from maglogic import fsm
from maglogic import netbus as nb
from maglogic import presets as pr
from maglogic.errors import ConfigError

CONFIG_DIR = os.path.join(os.path.dirname(maglogic.__file__), "configs")

SHIPPED_JSON = (
    "demo_topology.json",
    "degenerate_array.json",
    "pair_design_space.json",
    "mission_machine.json",
    "engine_machine.json",
    "demo_campaign.json",
)
SHIPPED_PROG = ("mission.prog", "engine.prog")


def shipped(name: str) -> str:
    return os.path.join(CONFIG_DIR, name)


def reserialize(doc: dict) -> str:
    kind = cio.document_kind(doc)
    if kind == cio.TOPOLOGY_FORMAT:
        units, keys, meta = cio.topology_from_doc(doc)
        return cio.dumps_canonical(cio.topology_to_doc(units, keys, meta))
    if kind == cio.DESIGN_FORMAT:
        lattice, template, keys, n_units, thresholds, meta = (
            cio.design_from_doc(doc))
        return cio.dumps_canonical(cio.design_to_doc(
            lattice, template, keys, n_units, thresholds, meta))
    if kind == cio.MACHINE_FORMAT:
        machine, meta = cio.machine_from_doc(doc)
        return cio.dumps_canonical(cio.machine_to_doc(machine, meta))
    campaign = cio.campaign_from_doc(doc)
    return cio.dumps_canonical(cio.campaign_to_doc(campaign))


def test_shipped_configs_exist_and_are_canonical():
    for name in SHIPPED_JSON:
        with open(shipped(name), encoding="utf-8") as fh:
            text = fh.read()
        doc = json.loads(text)
        assert cio.dumps_canonical(doc) == text, name


def test_shipped_configs_round_trip():
    for name in SHIPPED_JSON:
        doc = cio.load_document(shipped(name))
        once = reserialize(doc)
        again = reserialize(json.loads(once))
        assert once == again, name
        assert json.loads(once) == doc, name


def test_shipped_programs_round_trip():
    for name in SHIPPED_PROG:
        with open(shipped(name), encoding="utf-8") as fh:
            text = fh.read()
        program = fsm.parse_program(text)
        assert program
        canonical = fsm.serialize_program(program)
        assert fsm.parse_program(canonical) == program


def test_presets_load_the_shipped_files():
    # stators compare by identity, so topologies compare as documents
    units, keys, _ = cio.load_topology(shipped("demo_topology.json"))
    assert pr.demo_keys() == keys
    assert (cio.topology_to_doc(pr.demo_topology(), keys)
            == cio.topology_to_doc(units, keys))
    bare, _, _ = cio.load_topology(shipped("degenerate_array.json"))
    assert (cio.topology_to_doc(pr.degenerate_array(), keys)
            == cio.topology_to_doc(bare, keys))
    assert pr.demo_key_targets() == {"+x": "alpha", "+z": "beta", "-x": "gamma"}
    for name in ("mission", "engine"):
        machine = getattr(pr, f"{name}_machine")()
        assert machine == cio.load_machine(shipped(f"{name}_machine.json"))[0]
        program = getattr(pr, f"{name.upper()}_PROGRAM")
        assert program == cio.read_text(shipped(f"{name}.prog"))
    assert (pr.pair_design_space()
            == cio.load_design(shipped("pair_design_space.json"))[:4])
    campaign = cio.load_campaign(shipped("demo_campaign.json"))
    assert pr.demo_grid() == list(campaign.grid)
    assert pr.demo_bus_commands() == list(campaign.commands)
    assert (pr.demo_campaign_doc(campaign.cycles, campaign.seed)
            == cio.load_document(shipped("demo_campaign.json")))
    doc = pr.demo_campaign_doc(cycles=3, seed=4)
    assert (doc["cycles"], doc["seed"]) == (3, 4)

    # every call returns fresh objects that a caller may mutate
    for loader in (pr.demo_keys, pr.demo_topology, pr.pair_antiparallel,
                   pr.pair_orthogonal, pr.degenerate_array, pr.demo_grid,
                   pr.demo_bus_commands, pr.demo_campaign_doc,
                   pr.mission_machine, pr.pair_design_space):
        first, second = loader(), loader()
        assert first is not second, loader.__name__
        if isinstance(first, (list, dict)):
            first.clear()
            assert second, loader.__name__


def test_topology_round_trip_preserves_values():
    units, keys, meta = cio.load_topology(shipped("demo_topology.json"))
    assert [u.id for u in units] == ["alpha", "beta", "gamma"]
    assert [u.assigned_key for u in units] == ["+x", "+z", "-x"]
    assert [k.label for k in keys] == ["+x", "+z", "-x"]
    again, _, _ = cio.topology_from_doc(
        json.loads(cio.dumps_canonical(cio.topology_to_doc(units, keys, meta))))
    for a, b in zip(units, again):
        assert a.track == b.track
        assert [tuple(s.position) for s in a.stators] == [
            tuple(s.position) for s in b.stators]
        assert [tuple(s.moment) for s in a.stators] == [
            tuple(s.moment) for s in b.stators]


def test_machine_round_trip_equality():
    machine, meta = cio.load_machine(shipped("mission_machine.json"))
    doc = cio.machine_to_doc(machine, meta)
    machine2, _ = cio.machine_from_doc(json.loads(cio.dumps_canonical(doc)))
    assert machine2 == machine


def test_physical_machine_embeds_topology():
    topo = pr.demo_topology()
    machine = fsm.MachineDef(
        (fsm.UnitDef("alpha", "buffer"), fsm.UnitDef("beta", "buffer"),
         fsm.UnitDef("gamma", "buffer")),
        "physical", topology=topo)
    doc = cio.machine_to_doc(machine, {"name": "physical demo"})
    machine2, _ = cio.machine_from_doc(doc)
    assert [u.id for u in machine2.topology] == ["alpha", "beta", "gamma"]
    assert machine2.topology[0].track == topo[0].track
    pulse = fsm.parse_program("+x 20mT 0.05s")[0]
    state = fsm.initial_state(machine2)
    assert fsm.decode_pulse(machine2, state, pulse) == frozenset({"alpha"})


def test_campaign_builds_calibrated_commands():
    campaign = cio.load_campaign(shipped("demo_campaign.json"))
    assert len(campaign.grid) == 3
    assert len(campaign.commands) == 9
    assert campaign.cycles == 5000
    assert campaign.seed == 0
    assert campaign.noise is None
    first = campaign.commands[0]
    assert first.intended == ("node0", "alpha")
    # master hovers 5 mm above the commanded node
    assert first.pose.position[2] == pytest.approx(0.005)


def test_every_master_style_aims_along_the_channel():
    for style, labels in (("lateral", ("alpha", "beta")),
                          ("axial", ("gamma",)), ("composite", ("gamma",))):
        doc = pr.demo_campaign_doc(cycles=0)
        doc["master"]["style"] = style
        for node in doc["grid"]:
            node["channels"] = [c for c in node["channels"]
                                if c["label"] in labels]
        doc["commands"] = [c for c in doc["commands"] if c["channel"] in labels]
        campaign = cio.campaign_from_doc(doc)
        table = nb.truth_table(campaign.grid, campaign.commands)
        n = len(campaign.commands)
        assert table.rows == tuple(
            tuple(int(i == j) for j in range(n)) for i in range(n))
        assert all(table.exclusive)
    # the demo's z channels cannot be reached by a lateral master
    doc = pr.demo_campaign_doc(cycles=0)
    doc["master"]["style"] = "lateral"
    with pytest.raises(ConfigError, match=r"commands\[2\].*transverse"):
        cio.campaign_from_doc(doc)


def test_unknown_fields_rejected_at_depth():
    doc = cio.load_document(shipped("demo_topology.json"))
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d["units"][0].update(extra=1),
        lambda d: d["units"][0]["track"].update(extra=1),
        lambda d: d["units"][0]["track"]["mover"].update(extra=1),
        lambda d: d["key_set"][0].update(extra=1),
        lambda d: d["metadata"].update(extra=1),
    ):
        broken = json.loads(json.dumps(doc))
        mutate(broken)
        with pytest.raises(ConfigError, match="extra"):
            cio.topology_from_doc(broken)


def test_missing_fields_rejected():
    doc = cio.load_document(shipped("demo_topology.json"))
    broken = json.loads(json.dumps(doc))
    del broken["units"][0]["track"]["mass"]
    with pytest.raises(ConfigError, match="mass"):
        cio.topology_from_doc(broken)
    broken = json.loads(json.dumps(doc))
    del broken["key_set"]
    with pytest.raises(ConfigError, match="key_set"):
        cio.topology_from_doc(broken)


def test_header_validation():
    doc = cio.load_document(shipped("demo_topology.json"))
    wrong = dict(doc, format="maglogic-campaign")
    with pytest.raises(ConfigError):
        cio.topology_from_doc(wrong)
    with pytest.raises(ConfigError, match="version"):
        cio.topology_from_doc(dict(doc, version=99))
    with pytest.raises(ConfigError, match="format"):
        cio.document_kind({"format": "mystery"})


def test_semantic_cross_checks():
    doc = cio.load_document(shipped("demo_topology.json"))
    broken = json.loads(json.dumps(doc))
    broken["units"][0]["assigned_key"] = "+q"
    with pytest.raises(ConfigError, match="\\+q"):
        cio.topology_from_doc(broken)
    broken = json.loads(json.dumps(doc))
    broken["units"][1]["id"] = "alpha"
    with pytest.raises(ConfigError, match="duplicate"):
        cio.topology_from_doc(broken)

    mdoc = cio.load_document(shipped("mission_machine.json"))
    broken = json.loads(json.dumps(mdoc))
    broken["decode"]["map"].append(["-y", "alpha"])
    with pytest.raises(ConfigError):
        cio.machine_from_doc(broken)
    broken = json.loads(json.dumps(mdoc))
    broken["gates"][0]["terms"][0] = {"done": "cutting", "unit": "alpha"}
    with pytest.raises(ConfigError):
        cio.machine_from_doc(broken)

    cdoc = cio.load_document(shipped("demo_campaign.json"))
    broken = json.loads(json.dumps(cdoc))
    broken["commands"][0]["node"] = "ghost"
    with pytest.raises(ConfigError, match="ghost"):
        cio.campaign_from_doc(broken)
    broken = json.loads(json.dumps(cdoc))
    broken["commands"][0]["channel"] = "delta"
    with pytest.raises(ConfigError, match="delta"):
        cio.campaign_from_doc(broken)
    broken = json.loads(json.dumps(cdoc))
    broken["master"]["style"] = "helical"
    with pytest.raises(ConfigError, match="helical"):
        cio.campaign_from_doc(broken)
    broken = json.loads(json.dumps(cdoc))
    broken["cycles"] = -1
    with pytest.raises(ConfigError, match="cycles"):
        cio.campaign_from_doc(broken)
    broken = json.loads(json.dumps(cdoc))
    broken["noise"] = {"wobble": 1.0}
    with pytest.raises(ConfigError, match="wobble"):
        cio.campaign_from_doc(broken)

    ddoc = cio.load_document(shipped("pair_design_space.json"))
    broken = json.loads(json.dumps(ddoc))
    broken["thresholds"]["mystery"] = 1.0
    with pytest.raises(ConfigError, match="mystery"):
        cio.design_from_doc(broken)
    for n_units in (2.5, True, 0):
        broken = json.loads(json.dumps(ddoc))
        broken["n_units"] = n_units
        with pytest.raises(ConfigError, match="n_units"):
            cio.design_from_doc(broken)
    for field, value in (("cycles", True), ("seed", -1), ("seed", True)):
        broken = json.loads(json.dumps(cdoc))
        broken[field] = value
        with pytest.raises(ConfigError, match=field):
            cio.campaign_from_doc(broken)


def test_load_document_errors(tmp_path):
    with pytest.raises(ConfigError, match="missing.json"):
        cio.load_document(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": broken')
    with pytest.raises(ConfigError, match="line 1"):
        cio.load_document(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError, match="object"):
        cio.load_document(arr)
    # JSON has no NaN or infinities; Python's parser accepts them by default
    for literal in ("NaN", "Infinity", "-Infinity", "1e999", "-1e999"):
        odd = tmp_path / "odd.json"
        odd.write_text('{"a": [1, %s]}' % literal)
        with pytest.raises(ConfigError, match="odd.json"):
            cio.load_document(odd)
    fine = tmp_path / "fine.json"
    fine.write_text('{"a": [1e308, -0.0, 5e-324]}')
    assert cio.load_document(fine) == {"a": [1e308, -0.0, 5e-324]}


def test_write_atomic_overwrites_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out.json"
    cio.write_atomic(target, "first\n")
    cio.write_atomic(target, "second\n")
    assert target.read_text() == "second\n"
    leftovers = [p for p in os.listdir(tmp_path) if p != "out.json"]
    assert leftovers == []


def _writer_fixtures():
    from maglogic import design as dg
    from maglogic import landscape as ls
    from maglogic.magnetics import FieldKey, MagnetSpec, source_from_spec

    spec = MagnetSpec("cylinder", (0.004, 0.008), 1, (0, 0, 1))
    track = ls.MoverTrack((0, 0, 1), (0, 0, 0), (0.01, 0.02), spec, 1, 0)
    unit = ls.UnitTriplet("alpha", (source_from_spec(spec, (0, 0, -0.01)),), track)
    key = FieldKey((1, 0, 0), 0, "+x")
    lattice = dg.Lattice(1, ((np.int64(0), np.int64(2)), (0, 0), (-1, 1)))
    template = dg.UnitTemplate(spec, spec, 1, 1, 1, 0)
    machine = fsm.MachineDef(
        (fsm.UnitDef("a", "accumulator", np.int64(3)), fsm.UnitDef("b", "buffer")),
        "declared", (("+x", "a"),), n_samples=np.int64(64))
    campaign = dataclasses.replace(
        cio.campaign_from_doc(pr.demo_campaign_doc(cycles=0)),
        cycles=np.int64(7), seed=np.int64(3))
    return unit, key, lattice, template, machine, campaign


def test_writers_keep_floats_and_integers_apart():
    """Integer-valued float fields are written as floats; counts, extents
    and seeds stay integers (numpy integers included); a None optional
    field is left out."""
    unit, key, lattice, template, machine, campaign = _writer_fixtures()
    doc = json.loads(cio.dumps_canonical(cio.topology_to_doc([unit], [key])))
    (udoc,) = doc["units"]
    assert "assigned_key" not in udoc
    track = udoc["track"]
    assert (track["mass"], track["friction_force"]) == (1.0, 0.0)
    assert type(track["mass"]) is float and type(track["friction_force"]) is float
    assert type(track["mover"]["remanence"]) is float
    assert type(udoc["stators"][0]["spec"]["remanence"]) is float
    assert type(doc["key_set"][0]["magnitude"]) is float
    assert '"remanence": 1.0' in cio.dumps_canonical(doc)

    doc = cio.design_to_doc(lattice, template, [key], np.int64(2))
    assert doc["lattice"]["extents"] == [[0, 2], [0, 0], [-1, 1]]
    assert all(type(v) is int for pair in doc["lattice"]["extents"] for v in pair)
    assert type(doc["lattice"]["spacing"]) is float
    assert type(doc["n_units"]) is int
    assert all(type(doc["template"][k]) is float
               for k in ("inner_offset", "stroke_length", "mass", "friction_force"))

    doc = cio.machine_to_doc(machine)
    assert doc["units"] == [{"id": "a", "role": "accumulator", "max_count": 3},
                            {"id": "b", "role": "buffer"}]
    assert type(doc["units"][0]["max_count"]) is int
    assert type(doc["n_samples"]) is int and type(doc["external_load"]) is float

    doc = cio.campaign_to_doc(campaign)
    assert (doc["cycles"], doc["seed"]) == (7, 3)
    assert type(doc["cycles"]) is int and type(doc["seed"]) is int
    assert "noise" not in doc
    assert all(type(n["cone_half_angle"]) is float for n in doc["grid"])
    # every document above is JSON as written, numpy scalars included
    for written in (cio.topology_to_doc([unit], [key]), cio.machine_to_doc(machine),
                    cio.design_to_doc(lattice, template, [key], np.int64(2)), doc):
        json.loads(cio.dumps_canonical(written))


def test_bare_and_discretized_stators_are_not_serializable():
    from maglogic.magnetics import MagnetSource, source_from_spec

    unit, key, *_ = _writer_fixtures()
    spec = unit.stators[0].spec
    for stator, what in ((MagnetSource((0, 0, -0.01), (0, 0, 1)), "bare dipole"),
                         (source_from_spec(spec, (0, 0, -0.01), discretize=3),
                          "discretized")):
        broken = dataclasses.replace(unit, stators=(stator,))
        with pytest.raises(ConfigError) as exc:
            cio.topology_to_doc([broken], [key])
        assert str(exc.value) == (
            f"unit 'alpha' stator: {what} sources are not serializable")


def test_dumps_canonical_is_order_insensitive():
    a = {"b": 1, "a": [1.5, 2.25], "nested": {"y": None, "x": True}}
    b = {"nested": {"x": True, "y": None}, "a": [1.5, 2.25], "b": 1}
    assert cio.dumps_canonical(a) == cio.dumps_canonical(b)
    assert cio.dumps_canonical(a).endswith("\n")


def _sizes():
    """Each bounded size, its bound and a call that checks it."""
    from maglogic import design as dg
    from maglogic import landscape as ls

    lattice = dg.Lattice(0.03, ((0, 2), (0, 0), (0, 0)))
    spec = pr.demo_topology()[0].track.mover
    template = dg.UnitTemplate(spec, spec, 0.013, 0.008, 4.5e-4)
    candidate = dg.CandidateTopology(tuple(pr.demo_topology()), tuple(pr.demo_keys()))
    grid = pr.demo_grid()
    return [
        ("n_samples", ls.MAX_SAMPLES,
         lambda v: ls.sample_profile(pr.demo_topology(), "alpha", None, v)),
        ("n_samples", ls.MAX_SAMPLES,
         lambda v: dataclasses.replace(pr.mission_machine(), n_samples=v)),
        ("budget", dg.MAX_BUDGET,
         lambda v: next(dg.enumerate_candidates(lattice, 1, (), template, v))),
        ("n_trials", dg.MAX_TRIALS,
         lambda v: dg.sensitivity_sweep(candidate, 0.1, 20.0, v, 3)),
        ("n_cycles", nb.MAX_CYCLES,
         lambda v: nb.endurance_campaign(grid, pr.demo_bus_commands(grid)[0], v,
                                         {"angle_sigma_deg": 1.0})),
        ("cycles", nb.MAX_CYCLES,
         lambda v: cio.campaign_from_doc(pr.demo_campaign_doc(cycles=v), "c.json")),
    ]


@pytest.mark.parametrize("case", range(len(_sizes())))
def test_sizes_past_their_bound_fail_before_any_array_is_built(case):
    """One past each bound, and 10**12, are config errors raised while
    less than 1 MiB has been allocated."""
    name, bound, call = _sizes()[case]
    for value in (bound + 1, 10**12):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"{name} must be an integer .*<= {bound}"):
                call(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
