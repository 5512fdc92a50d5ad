"""Loaders for the shipped reference configs.

The JSON and ``.prog`` files under ``maglogic/configs`` are the only copy
of the demo data; each function here reads its file through
:mod:`maglogic.configio` and returns fresh objects on every call, so a
caller may mutate what it gets. The files' metadata holds the calibration
notes: magnet grades and sizes are chosen so the three-unit demo actuates
at 20 mT with ~0.26 N peaks, ejects at ~2 m/s with the given mover mass,
and fits in ~3 stator diameters. The remaining fixtures are derived from
those files in code.
"""

from __future__ import annotations

import os

from . import configio as cio
from . import fsm
from . import landscape as ls
from . import netbus


def _path(name: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs", name)


def demo_keys():
    return cio.load_topology(_path("demo_topology.json"))[1]


def demo_topology():
    """Three-unit one-hot demo; key -> unit map is +x->alpha, +z->beta, -x->gamma.

    alpha and gamma are an antiparallel coaxial pair on the z arms; beta sits
    on a y arm far enough out that the x keys leave it several mN of margin.
    """
    return list(cio.load_topology(_path("demo_topology.json"))[0])


def pair_antiparallel():
    """The demo's alpha/gamma arms alone (collinear keys decouple them)."""
    return [u for u in demo_topology() if u.id in ("alpha", "gamma")]


def pair_keys_antiparallel():
    return tuple(k for k in demo_keys() if k.label in ("+x", "-x"))


def pair_orthogonal():
    """alpha plus the y-arm unit: cross-axis keys tilt each other's mover."""
    return [u for u in demo_topology() if u.id in ("alpha", "beta")]


def pair_keys_orthogonal():
    return tuple(k for k in demo_keys() if k.label in ("+x", "+z"))


def degenerate_array():
    """Three bare parallel movers: no stator shapes any landscape.

    Friction dominates the tiny mover-mover attraction, so no key produces
    any activation and the key->pattern map carries zero information.
    """
    return list(cio.load_topology(_path("degenerate_array.json"))[0])


def demo_key_targets():
    return {u.assigned_key: u.id for u in demo_topology()}


def mission_machine():
    """Four-unit pipeline robot: two counters, two toggle bits.

    State order (alpha count, beta bit, gamma count, sigma bit). The
    cutting gate needs the gamma arm ratcheted twice with the sigma latch
    set; removal additionally needs cutting done and one alpha stroke.
    """
    return cio.load_machine(_path("mission_machine.json"))[0]


MISSION_PROGRAM = cio.read_text(_path("mission.prog"))


def engine_machine():
    """Three unbounded counters driven round-robin into a crank."""
    return cio.load_machine(_path("engine_machine.json"))[0]


ENGINE_PROGRAM = cio.read_text(_path("engine.prog"))


def engine_coupler(stroke_to_angle=40.0):
    return fsm.CrankCoupler(("alpha", "beta", "gamma"), stroke_to_angle)


def demo_grid():
    """Three release nodes along x, three orthogonal channels each."""
    return list(cio.load_campaign(_path("demo_campaign.json")).grid)


def demo_bus_commands(grid=None):
    """One command per (node, channel), in truth-table column order, with
    the demo campaign's master depth and field."""
    campaign = cio.load_campaign(_path("demo_campaign.json"))
    depth, field = campaign.master["depth"], campaign.master["field"]
    commands = []
    for node in campaign.grid if grid is None else grid:
        for ch in node.channels:
            ref = netbus.calibrate_master(depth, field, "auto",
                                          field_direction=ch.key_direction)
            pose = netbus.pose_over(node, ref, depth)
            commands.append(netbus.Command(pose, (node.id, ch.label)))
    return commands


def node_ejector():
    """Millimeter-scale release unit sized for a fast payload jet.

    The demo unit scaled to a quarter size ejects its mover at the same
    ~2 m/s (scale-invariant); a payload at a quarter of the mover's mass
    then leaves at twice that, comfortably above 3.8 m/s as an inviscid
    bound.
    """
    scaled = ls.scale_topology(demo_topology(), 0.25)
    payload_mass = 0.25 * scaled[0].track.mass
    keys = demo_keys()
    return scaled, keys, payload_mass


def pair_design_space():
    """Two-site lattice search whose survivors are antiparallel pairs:
    (lattice, template, keys, n_units)."""
    return cio.load_design(_path("pair_design_space.json"))[:4]


def demo_campaign_doc(cycles=5000, seed=0):
    """Campaign document: 3-node bus, all 9 commands, endurance run."""
    doc = cio.load_document(_path("demo_campaign.json"))
    doc.update(cycles=cycles, seed=seed)
    return doc
