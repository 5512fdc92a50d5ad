"""Shipped reference geometries.

The numbers here are calibration, not physics: magnet grades and sizes are
chosen so the three-unit demo actuates at 20 mT with ~0.26 N peaks, ejects
at ~2 m/s with the given mover mass, and fits in ~3 stator diameters. The
same objects are serialized into the packaged JSON configs; tests and the
CLI treat the JSON files as the source of truth and this module as their
generator.
"""

from __future__ import annotations

from . import design
from . import fsm
from . import landscape as ls
from . import netbus
from . import magnetics as mag
from .magnetics import FieldKey, MagnetSpec

KEY_MAGNITUDE = 0.02  # tesla

STATOR_SPEC_AXIS_X = MagnetSpec("cylinder", (8e-3, 16e-3), 0.05, (1.0, 0.0, 0.0))
MOVER_SPEC = MagnetSpec("cylinder", (4e-3, 8e-3), 0.3, (1.0, 0.0, 0.0))
MOVER_MASS = 4.5e-4  # kg, calibrated for ~2 m/s ejection
STROKE = (0.013, 0.021)


def _stator(moment_axis, position):
    spec = MagnetSpec("cylinder", (8e-3, 16e-3), 0.05, tuple(moment_axis))
    return mag.source_from_spec(spec, position)


def _unit(uid, stator_axis, stator_pos, track_axis, key_label):
    stator = _stator(stator_axis, stator_pos)
    track = ls.MoverTrack(track_axis, stator_pos, STROKE, MOVER_SPEC, MOVER_MASS)
    return ls.UnitTriplet(uid, (stator,), track, key_label)


def demo_keys():
    return (
        FieldKey((1, 0, 0), KEY_MAGNITUDE, "+x"),
        FieldKey((0, 0, 1), KEY_MAGNITUDE, "+z"),
        FieldKey((-1, 0, 0), KEY_MAGNITUDE, "-x"),
    )


def demo_topology():
    """Three-unit one-hot demo; key -> unit map is +x->alpha, +z->beta, -x->gamma.

    alpha and gamma are an antiparallel coaxial pair on the z arms; beta sits
    on a y arm far enough out that the x keys leave it several mN of margin.
    """
    return [
        _unit("alpha", (-1, 0, 0), (0, 0, 0.012), (1, 0, 0), "+x"),
        _unit("beta", (0, 0, -1), (0, 0.024, 0), (0, 0, 1), "+z"),
        _unit("gamma", (1, 0, 0), (0, 0, -0.012), (-1, 0, 0), "-x"),
    ]


def pair_antiparallel():
    """The demo's alpha/gamma arms alone (collinear keys decouple them)."""
    return [
        _unit("alpha", (-1, 0, 0), (0, 0, 0.012), (1, 0, 0), "+x"),
        _unit("gamma", (1, 0, 0), (0, 0, -0.012), (-1, 0, 0), "-x"),
    ]


def pair_keys_antiparallel():
    return (
        FieldKey((1, 0, 0), KEY_MAGNITUDE, "+x"),
        FieldKey((-1, 0, 0), KEY_MAGNITUDE, "-x"),
    )


def pair_orthogonal():
    """alpha plus the y-arm unit: cross-axis keys tilt each other's mover."""
    return [
        _unit("alpha", (-1, 0, 0), (0, 0, 0.012), (1, 0, 0), "+x"),
        _unit("beta", (0, 0, -1), (0, 0.024, 0), (0, 0, 1), "+z"),
    ]


def pair_keys_orthogonal():
    return (
        FieldKey((1, 0, 0), KEY_MAGNITUDE, "+x"),
        FieldKey((0, 0, 1), KEY_MAGNITUDE, "+z"),
    )


def degenerate_array():
    """Three bare parallel movers: no stator shapes any landscape.

    Friction dominates the tiny mover-mover attraction, so no key produces
    any activation and the key->pattern map carries zero information.
    """
    units = []
    for i in range(3):
        track = ls.MoverTrack(
            (1, 0, 0), (0, 0.1 * i, 0), STROKE, MOVER_SPEC,
            mass=MOVER_MASS, friction_force=0.01,
        )
        units.append(ls.UnitTriplet(f"m{i}", (), track, None))
    return units


def demo_key_targets():
    return {"+x": "alpha", "+z": "beta", "-x": "gamma"}


def mission_machine():
    """Four-unit pipeline robot: two counters, two toggle bits.

    State order (alpha count, beta bit, gamma count, sigma bit). The
    cutting gate needs the gamma arm ratcheted twice with the sigma latch
    set; removal additionally needs cutting done and one alpha stroke.
    """
    units = (
        fsm.UnitDef("alpha", "accumulator", max_count=5),
        fsm.UnitDef("beta", "buffer"),
        fsm.UnitDef("gamma", "accumulator", max_count=5),
        fsm.UnitDef("sigma", "buffer"),
    )
    gates = (
        fsm.GateExpr(
            "cutting",
            (fsm.UnitPredicate("gamma", "ge", 2),
             fsm.UnitPredicate("sigma", "eq", 1)),
            "cut",
        ),
        fsm.GateExpr(
            "removal",
            (fsm.GateDone("cutting"),
             fsm.UnitPredicate("alpha", "ge", 1)),
            "remove",
        ),
    )
    return fsm.MachineDef(
        units, "declared",
        decode_map=(("-x", "alpha"), ("+z", "beta"), ("+x", "gamma"),
                    ("-z", "sigma")),
        gates=gates,
    )


MISSION_PROGRAM = (
    "# ratchet gamma twice, set sigma, cut; release sigma, set beta,\n"
    "# ratchet alpha, remove\n"
    "+x 27mT 0.05s; +x 27mT 0.05s; -z 35mT 0.05s\n"
    "-z 35mT 0.05s; +z 35mT 0.05s; -x 27mT 0.05s\n"
)


def engine_machine():
    """Three unbounded counters driven round-robin into a crank."""
    units = (
        fsm.UnitDef("alpha", "accumulator"),
        fsm.UnitDef("beta", "accumulator"),
        fsm.UnitDef("gamma", "accumulator"),
    )
    return fsm.MachineDef(
        units, "declared",
        decode_map=(("-x", "alpha"), ("+z", "beta"), ("+x", "gamma")),
    )


ENGINE_PROGRAM = "repeat 3 { -x 27mT 0.05s; +z 35mT 0.05s; +x 27mT 0.05s }\n"


def engine_coupler(stroke_to_angle=40.0):
    return fsm.CrankCoupler(("alpha", "beta", "gamma"), stroke_to_angle)


BUS_DEPTH = 0.005  # m, master working height over a node
BUS_FIELD = 0.120  # T, address threshold at the target node
BUS_SPACING = 0.030  # m, demo node pitch
BUS_CHANNELS = (("alpha", (1, 0, 0)), ("beta", (0, 1, 0)), ("gamma", (0, 0, 1)))


def demo_grid():
    """Three release nodes along x, three orthogonal channels each."""
    return [
        netbus.NodeSpec(
            f"node{i}", (BUS_SPACING * i, 0.0, 0.0),
            tuple(netbus.Channel(lbl, d) for lbl, d in BUS_CHANNELS),
            BUS_FIELD,
        )
        for i in range(3)
    ]


def demo_bus_commands(grid=None):
    """One command per (node, channel), in truth-table column order."""
    grid = demo_grid() if grid is None else grid
    commands = []
    for node in grid:
        for ch in node.channels:
            ref = netbus.calibrate_master(BUS_DEPTH, BUS_FIELD, "auto",
                                          field_direction=ch.key_direction)
            pose = netbus.pose_over(node, ref, BUS_DEPTH)
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
    """Two-site lattice search whose survivors are antiparallel pairs."""
    lattice = design.Lattice(
        0.024, ((0, 0), (0, 0), (0, 1)),
        allowed_orientations=((1, 0, 0), (-1, 0, 0)),
        allowed_track_axes=((1, 0, 0), (-1, 0, 0)),
    )
    template = design.UnitTemplate(
        STATOR_SPEC_AXIS_X, MOVER_SPEC, STROKE[0], STROKE[1] - STROKE[0],
        MOVER_MASS)
    return lattice, template, pair_keys_antiparallel(), 2


def demo_campaign_doc(cycles=5000, seed=0):
    """Campaign document: 3-node bus, all 9 commands, endurance run."""
    grid = demo_grid()
    return {
        "format": "maglogic-campaign",
        "version": 1,
        "metadata": {
            "name": "three-node addressing campaign",
            "notes": "identity truth table; endurance on the first command",
            "calibration": {
                "master": "moment solved for 0.120 T at 5 mm depth",
            },
        },
        "grid": [
            {
                "id": n.id,
                "position": list(n.position),
                "channels": [
                    {"label": c.label, "direction": list(c.key_direction)}
                    for c in n.channels
                ],
                "threshold": n.threshold,
                "cone_half_angle": n.cone_half_angle,
            }
            for n in grid
        ],
        "master": {"style": "auto", "depth": BUS_DEPTH, "field": BUS_FIELD},
        "commands": [
            {"node": n.id, "channel": c.label, "dwell": 1.0}
            for n in grid for c in n.channels
        ],
        "cycles": cycles,
        "seed": seed,
    }
