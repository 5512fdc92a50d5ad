"""Structured config documents for the CLI pipeline.

Four JSON document kinds, discriminated by a ``format`` header field:

* ``maglogic-topology``: a concrete magnet assembly (units + key set).
* ``maglogic-design``: a lattice search space for the design pipeline.
* ``maglogic-machine``: a pulse-count machine (units, decode, gates).
* ``maglogic-campaign``: a release-node grid with a calibrated master
  model and a command schedule.

Pulse programs are the separate plain-text format handled by
:func:`maglogic.fsm.parse_program` (conventionally ``*.prog``).

Importing this module loads ``errors``, ``landscape`` and ``magnetics``
only; each document kind's own module (``design``, ``fsm`` or ``netbus``)
is imported the first time a document of that kind is read or written,
because every CLI call is a fresh process that compiles and runs each
module it imports.

An object's document fields are its dataclass's parameters: ``_build``
reads them (checked, then passed to the constructor by name) and
``_plain`` writes them. Only parts whose document shape differs from
their dataclass (sources, channels, gates, ``done`` terms, the campaign's
master and commands, the header) are read and written by hand.

Loaders reject unknown fields so that typos fail loudly instead of being
silently ignored. Serialization is canonical (sorted keys, two-space
indent, trailing newline) so identical inputs produce byte-identical
files, and all writes go through a temp file plus rename.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import tempfile
from typing import TYPE_CHECKING

from . import landscape as ls
from . import magnetics as mag
from .errors import ConfigError

if TYPE_CHECKING:  # for the annotations; loaded on first use (see above)
    from . import design as dg
    from . import fsm

SCHEMA_VERSION = 1
TOPOLOGY_FORMAT = "maglogic-topology"
DESIGN_FORMAT = "maglogic-design"
MACHINE_FORMAT = "maglogic-machine"
CAMPAIGN_FORMAT = "maglogic-campaign"

_METADATA_FIELDS = ("name", "scale", "notes", "calibration")


# ---------------------------------------------------------------------------
# plumbing


def dumps_canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def write_atomic(path, text: str) -> None:
    """Write text to path via a sibling temp file and an atomic rename; a
    path that cannot be written is a ConfigError."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".maglogic-", suffix=".part")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.chmod(tmp, 0o644)  # mkstemp defaults to owner-only
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def read_text(path) -> str:
    """The UTF-8 text of ``path``; an unreadable or non-UTF-8 file is a
    ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text "
                          f"(byte {exc.object[exc.start]:#04x})") from exc


def load_document(path) -> dict:
    path = os.fspath(path)

    def non_finite(literal):
        raise ConfigError(f"{path}: {literal} is not a finite number")

    def finite_float(literal):
        value = float(literal)
        return value if math.isfinite(value) else non_finite(literal)

    try:
        doc = json.loads(read_text(path), parse_constant=non_finite,
                         parse_float=finite_float)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _check_fields(obj, where: str, required, optional=()) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    missing = sorted(set(required) - obj.keys())
    if missing:
        raise ConfigError(f"{where}: missing fields {missing}")
    unknown = sorted(obj.keys() - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown fields {unknown}")


def _build(cls, doc, where: str, required, optional=(), /, **parse):
    """``cls`` built from the fields of the object ``doc`` at ``where``.

    Each field is read in ``required`` then ``optional`` order, by
    ``parse[name](value, f"{where}.{name}")`` if ``parse`` names it and as
    it is otherwise; a missing optional takes the dataclass default.
    """
    _check_fields(doc, where, required, optional)
    fields = {name: parse[name](doc[name], f"{where}.{name}") if name in parse
              else doc[name] for name in (*required, *optional) if name in doc}
    return cls(**fields)


def _plain(value, /, **given):
    """The document form of ``value``: a string stays itself, a number
    becomes a float, a dataclass a dict of its non-None fields (each field
    named in ``given`` written by its function) and any other sequence a
    list."""
    if isinstance(value, str):
        return value
    if isinstance(value, (float, int, numbers.Number)):  # the ABC check last: it is slow
        return float(value)
    if dataclasses.is_dataclass(value):
        fields = ((f.name, getattr(value, f.name)) for f in dataclasses.fields(value))
        return {name: given[name](v) if name in given else _plain(v)
                for name, v in fields if v is not None}
    return [_plain(v) for v in value]


def _list(value, where: str, size: int | None = None) -> list:
    if not isinstance(value, list) or size not in (None, len(value)):
        raise ConfigError(f"{where} must be a list"
                          + ("" if size is None else f" of {size} items"))
    return value


def _check_header(doc: dict, fmt: str, where: str, body_required, body_optional):
    _check_fields(doc, where, ("format", "version", *body_required),
                  ("metadata", *body_optional))
    if doc["format"] != fmt:
        raise ConfigError(f"{where}: format is {doc['format']!r}, expected {fmt!r}")
    if mag.finite(doc["version"], f"{where}.version", integer=True) != SCHEMA_VERSION:
        raise ConfigError(f"{where}: unsupported version {doc['version']!r}")
    metadata = doc.get("metadata", {})
    mw = f"{where}.metadata"
    _check_fields(metadata, mw, (), _METADATA_FIELDS)
    for name in ("name", "notes"):
        if name in metadata:
            mag.text(metadata[name], f"{mw}.{name}")
    if "scale" in metadata:
        mag.finite(metadata["scale"], f"{mw}.scale")
    calibration = metadata.get("calibration", {})
    if not isinstance(calibration, dict):
        raise ConfigError(f"{mw}.calibration must be an object")
    for name, value in calibration.items():
        mag.text(value, f"{mw}.calibration.{name}")
    return dict(metadata)


def _header(fmt: str, metadata: dict | None) -> dict:
    doc = {"format": fmt, "version": SCHEMA_VERSION}
    if metadata:
        doc["metadata"] = dict(metadata)
    return doc


# ---------------------------------------------------------------------------
# magnet specs and keys (shared fragments)


def _spec_from_doc(doc, where: str) -> mag.MagnetSpec:
    return _build(mag.MagnetSpec, doc, where, ("shape", "dims", "remanence", "easy_axis"))


def _keys_from_doc(items, where: str) -> tuple:
    keys = tuple(_build(mag.FieldKey, entry, f"{where}[{i}]",
                        ("label", "direction", "magnitude"))
                 for i, entry in enumerate(_list(items, where)))
    labels = [k.label for k in keys]
    if len(set(labels)) != len(labels):
        raise ConfigError(f"{where}: duplicate key labels")
    return keys


# ---------------------------------------------------------------------------
# topology documents


def _source_to_doc(source: mag.MagnetSource, where: str) -> dict:
    if source.spec is None:
        raise ConfigError(f"{where}: bare dipole sources are not serializable")
    if source.subdipoles is not None:
        raise ConfigError(f"{where}: discretized sources are not serializable")
    return {
        "position": _plain(source.position),
        "axis": _plain(mag.unit(source.moment, f"{where} moment")),
        "spec": _plain(source.spec),
    }


def _source_from_doc(doc, where: str) -> mag.MagnetSource:
    _check_fields(doc, where, ("position", "axis", "spec"))
    spec = _spec_from_doc(doc["spec"], f"{where}.spec")
    # a null axis would silently mean the spec's easy axis
    return mag.source_from_spec(spec, doc["position"],
                                axis=mag.vector(doc["axis"], f"{where}.axis"))


def _unit_to_doc(unit: ls.UnitTriplet) -> dict:
    where = f"unit {unit.id!r} stator"
    return _plain(unit, stators=lambda stators: [_source_to_doc(s, where)
                                                 for s in stators])


def _track_from_doc(doc, where: str) -> ls.MoverTrack:
    return _build(ls.MoverTrack, doc, where,
                  ("axis", "origin", "stroke", "mover", "mass"),
                  ("friction_force",), mover=_spec_from_doc)


def _stators_from_doc(items, where: str) -> tuple:
    return tuple(_source_from_doc(s, f"{where}[{i}]")
                 for i, s in enumerate(_list(items, where)))


def _unit_from_doc(doc, where: str) -> ls.UnitTriplet:
    return _build(ls.UnitTriplet, doc, where, ("id", "track", "stators"),
                  ("assigned_key",), track=_track_from_doc,
                  stators=_stators_from_doc)


def _units_from_doc(items, where: str) -> tuple:
    """The unit list at ``where.units``; unit ids must be unique."""
    units = tuple(_unit_from_doc(u, f"{where}.units[{i}]")
                  for i, u in enumerate(_list(items, f"{where}.units")))
    ids = [u.id for u in units]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{where}: duplicate unit ids")
    return units


def topology_to_doc(units, keys, metadata: dict | None = None) -> dict:
    doc = _header(TOPOLOGY_FORMAT, metadata)
    doc["units"] = [_unit_to_doc(u) for u in units]
    doc["key_set"] = _plain(keys)
    return doc


def topology_from_doc(doc: dict, where: str = "topology") -> tuple:
    """-> (units tuple, keys tuple, metadata dict)."""
    metadata = _check_header(doc, TOPOLOGY_FORMAT, where,
                             ("units", "key_set"), ())
    units = _units_from_doc(doc["units"], where)
    if not units:
        raise ConfigError(f"{where}.units must not be empty")
    keys = _keys_from_doc(doc["key_set"], f"{where}.key_set")
    labels = {k.label for k in keys}
    for u in units:
        if u.assigned_key is not None and u.assigned_key not in labels:
            raise ConfigError(
                f"{where}: unit {u.id!r} assigned to unknown key "
                f"{u.assigned_key!r}")
    return units, keys, metadata


def load_topology(path) -> tuple:
    return topology_from_doc(load_document(path), os.fspath(path))


def save_topology(path, units, keys, metadata: dict | None = None) -> None:
    write_atomic(path, dumps_canonical(topology_to_doc(units, keys, metadata)))


# ---------------------------------------------------------------------------
# design-space documents


def design_to_doc(lattice: dg.Lattice, template: dg.UnitTemplate, keys,
                  n_units: int, thresholds: dict | None = None,
                  metadata: dict | None = None) -> dict:
    from . import design as dg

    doc = _header(DESIGN_FORMAT, metadata)
    doc["lattice"] = _plain(lattice, extents=lambda extents: [
        [int(lo), int(hi)] for lo, hi in extents])
    doc["template"] = _plain(template)
    doc["key_set"] = _plain(keys)
    doc["n_units"] = int(n_units)
    doc["thresholds"] = dict(
        dg.DEFAULT_THRESHOLDS if thresholds is None else thresholds)
    return doc


def design_from_doc(doc: dict, where: str = "design") -> tuple:
    """-> (lattice, template, keys tuple, n_units, thresholds, metadata)."""
    from . import design as dg

    metadata = _check_header(
        doc, DESIGN_FORMAT, where,
        ("lattice", "template", "key_set", "n_units"), ("thresholds",))
    lattice = _build(dg.Lattice, doc["lattice"], f"{where}.lattice",
                     ("spacing", "extents"),
                     ("allowed_orientations", "allowed_track_axes"),
                     extents=_list, allowed_orientations=_list,
                     allowed_track_axes=_list)
    template = _build(dg.UnitTemplate, doc["template"], f"{where}.template",
                      ("stator", "mover", "inner_offset", "stroke_length", "mass"),
                      ("friction_force",), stator=_spec_from_doc,
                      mover=_spec_from_doc)
    keys = _keys_from_doc(doc["key_set"], f"{where}.key_set")
    n_units = mag.finite(doc["n_units"], f"{where}.n_units", 1, inclusive=True,
                         integer=True)
    thresholds = dict(dg.DEFAULT_THRESHOLDS)
    if "thresholds" in doc:
        _check_fields(doc["thresholds"], f"{where}.thresholds", (),
                      tuple(dg.DEFAULT_THRESHOLDS))
        for name, value in doc["thresholds"].items():
            mag.finite(value, f"{where}.thresholds.{name}")
        thresholds.update(doc["thresholds"])
    return lattice, template, keys, n_units, thresholds, metadata


def load_design(path) -> tuple:
    return design_from_doc(load_document(path), os.fspath(path))


# ---------------------------------------------------------------------------
# machine documents


def _term_to_doc(term) -> dict:
    from . import fsm

    if isinstance(term, fsm.GateDone):
        return {"done": term.gate}
    return _plain(term, value=int)


def _term_from_doc(doc, where: str):
    from . import fsm

    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object")
    if "done" in doc:
        _check_fields(doc, where, ("done",))
        return fsm.GateDone(doc["done"])
    return _build(fsm.UnitPredicate, doc, where, ("unit", "op", "value"))


def machine_to_doc(machine: fsm.MachineDef,
                   metadata: dict | None = None) -> dict:
    doc = _header(MACHINE_FORMAT, metadata)
    doc["units"] = [_plain(u, max_count=int) for u in machine.units]
    decode = {"mode": machine.decode_mode}
    if machine.decode_map:
        decode["map"] = [[label, unit] for label, unit in machine.decode_map]
    if machine.topology is not None:
        decode["topology"] = {"units": [_unit_to_doc(u)
                                        for u in machine.topology]}
    doc["decode"] = decode
    doc["gates"] = [
        {"name": g.name, "terms": [_term_to_doc(t) for t in g.terms],
         "action": g.output_action}
        for g in machine.gates
    ]
    doc["external_load"] = float(machine.external_load)
    doc["n_samples"] = int(machine.n_samples)
    return doc


def machine_from_doc(doc: dict, where: str = "machine") -> tuple:
    """-> (MachineDef, metadata dict).

    For physical decode the topology is embedded inline under
    decode.topology.units (same unit layout as a topology file); pulses
    carry their own field vectors, so no key set is stored here.
    """
    from . import fsm

    metadata = _check_header(
        doc, MACHINE_FORMAT, where, ("units", "decode"),
        ("gates", "external_load", "n_samples"))
    units = tuple(_build(fsm.UnitDef, entry, f"{where}.units[{i}]", ("id", "role"),
                         ("max_count", "reset_key"))
                  for i, entry in enumerate(_list(doc["units"], f"{where}.units")))
    ddoc = doc["decode"]
    _check_fields(ddoc, f"{where}.decode", ("mode",), ("map", "topology"))
    topology = None
    if "topology" in ddoc:
        tw = f"{where}.decode.topology"
        _check_fields(ddoc["topology"], tw, ("units",))
        topology = _units_from_doc(ddoc["topology"]["units"], tw)
    mw = f"{where}.decode.map"
    decode_map = [_list(pair, f"{mw}[{i}]", 2)
                  for i, pair in enumerate(_list(ddoc.get("map", []), mw))]
    gates = []
    for i, g in enumerate(_list(doc.get("gates", []), f"{where}.gates")):
        gw = f"{where}.gates[{i}]"
        _check_fields(g, gw, ("name", "terms", "action"))
        terms = tuple(_term_from_doc(t, f"{gw}.terms[{j}]")
                      for j, t in enumerate(_list(g["terms"], f"{gw}.terms")))
        gates.append(fsm.GateExpr(g["name"], terms, g["action"]))
    machine = fsm.MachineDef(
        units, ddoc["mode"], decode_map, topology, tuple(gates),
        doc.get("external_load", 0.0),
        doc.get("n_samples", ls.DEFAULT_SAMPLES),
    )
    return machine, metadata


def load_machine(path) -> tuple:
    return machine_from_doc(load_document(path), os.fspath(path))


# ---------------------------------------------------------------------------
# campaign documents


@dataclasses.dataclass(frozen=True)
class Campaign:
    """A loaded campaign: grid, calibrated commands, endurance settings.

    ``master`` keeps the declarative calibration record (style, depth,
    field, separation), so the campaign re-serializes without loss.
    ``commands`` are the posed, calibrated netbus commands in schedule
    order; each one's intended (node, channel) and dwell is the schedule.
    """

    grid: tuple
    master: dict
    commands: tuple
    cycles: int
    noise: dict | None
    seed: int
    metadata: dict


def campaign_to_doc(campaign: Campaign) -> dict:
    def channels(items) -> list:
        return [{"label": c.label, "direction": _plain(c.key_direction)} for c in items]

    doc = _header(CAMPAIGN_FORMAT, campaign.metadata)
    doc["grid"] = [_plain(n, channels=channels) for n in campaign.grid]
    doc["master"] = dict(campaign.master)
    doc["commands"] = [
        {"node": cmd.intended[0], "channel": cmd.intended[1], "dwell": float(cmd.dwell)}
        for cmd in campaign.commands
    ]
    doc["cycles"] = int(campaign.cycles)
    if campaign.noise is not None:
        doc["noise"] = dict(campaign.noise)
    doc["seed"] = int(campaign.seed)
    return doc


def campaign_from_doc(doc: dict, where: str = "campaign") -> Campaign:
    from . import netbus as nb

    metadata = _check_header(
        doc, CAMPAIGN_FORMAT, where, ("grid", "master", "commands"),
        ("cycles", "noise", "seed"))

    def channel(cdoc, cw: str) -> nb.Channel:
        _check_fields(cdoc, cw, ("label", "direction"))
        return nb.Channel(cdoc["label"], cdoc["direction"])

    def channels(items, cw: str) -> tuple:
        return tuple(channel(c, f"{cw}[{j}]") for j, c in enumerate(_list(items, cw)))

    grid = [_build(nb.NodeSpec, ndoc, f"{where}.grid[{i}]",
                   ("id", "position", "channels", "threshold"),
                   ("cone_half_angle",), channels=channels)
            for i, ndoc in enumerate(_list(doc["grid"], f"{where}.grid"))]
    ids = [n.id for n in grid]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{where}: duplicate node ids")
    mdoc = doc["master"]
    _check_fields(mdoc, f"{where}.master", ("depth", "field"),
                  ("style", "separation"))
    master = {"style": mdoc.get("style", "auto"),
              "depth": mdoc["depth"], "field": mdoc["field"]}
    if mdoc.get("separation") is not None:
        master["separation"] = mdoc["separation"]
    if master["style"] not in ("auto", "lateral", "axial", "composite"):
        raise ConfigError(
            f"{where}.master: unknown style {master['style']!r}")
    for name in ("depth", "field", "separation"):  # checked with no command too
        if name in master:
            mag.finite(master[name], f"{where}.master.{name}", 0.0)
    commands = []
    for i, cdoc in enumerate(_list(doc["commands"], f"{where}.commands")):
        cw = f"{where}.commands[{i}]"
        _check_fields(cdoc, cw, ("node", "channel"), ("dwell",))
        node = next((n for n in grid if n.id == cdoc["node"]), None)
        if node is None:
            raise ConfigError(f"{cw}: unknown node {cdoc['node']!r}")
        channel = next((c for c in node.channels
                        if c.label == cdoc["channel"]), None)
        if channel is None:
            raise ConfigError(
                f"{cw}: node {node.id!r} has no channel {cdoc['channel']!r}")
        try:
            reference = nb.calibrate_master(
                master["depth"], master["field"], master["style"],
                field_direction=channel.key_direction,
                separation=master.get("separation"))
        except ConfigError as exc:  # a style that cannot aim at this channel
            raise ConfigError(f"{cw}: {exc}") from None
        pose = nb.pose_over(node, reference, master["depth"])
        commands.append(nb.Command(pose, (node.id, channel.label),
                                   cdoc.get("dwell", 1.0)))
    cycles = mag.finite(doc.get("cycles", 0), f"{where}.cycles", 0,
                        inclusive=True, integer=True, high=nb.MAX_CYCLES)
    if cycles > 0 and not commands:
        raise ConfigError(f"{where}: endurance cycles need at least one command")
    noise = doc.get("noise")
    if noise is not None:
        _check_fields(noise, f"{where}.noise", (),
                      ("angle_sigma_deg", "magnitude_sigma_T"))
        for name, value in noise.items():
            mag.finite(value, f"{where}.noise.{name}", 0.0, inclusive=True)
    seed = mag.finite(doc.get("seed", 0), f"{where}.seed", 0, inclusive=True,
                      integer=True)
    return Campaign(tuple(grid), master, tuple(commands), cycles,
                    None if noise is None else dict(noise), seed, metadata)


def load_campaign(path) -> Campaign:
    return campaign_from_doc(load_document(path), os.fspath(path))


# ---------------------------------------------------------------------------
# generic validation (cli `validate`)


_LOADERS = {
    TOPOLOGY_FORMAT: topology_from_doc,
    DESIGN_FORMAT: design_from_doc,
    MACHINE_FORMAT: machine_from_doc,
    CAMPAIGN_FORMAT: campaign_from_doc,
}


def document_kind(doc: dict) -> str:
    fmt = doc.get("format")
    if not isinstance(fmt, str) or fmt not in _LOADERS:  # a list is unhashable
        raise ConfigError(f"unknown document format {fmt!r}")
    return fmt


def validate_document(doc: dict, where: str = "document"):
    """Parse any known document kind; returns the loaded value."""
    return _LOADERS[document_kind(doc)](doc, where)
