"""Tests for the release-node bus: decode, calibration, campaigns.

Frozen oracles, all recomputable by hand from mu0 = 4*pi*1e-7:

* Lateral master for 0.120 T at 5 mm: the equatorial dipole field is
  mu0*m/(4*pi*d^3), so m = d^3 * B / 1e-7 = 0.15 A*m^2, times the
  1e-6 calibration headroom = 0.15000015.  Axial uses the on-axis
  field mu0*2m/(4*pi*d^3), half the moment: 0.075000075.
* Target field therefore lands at 0.120 * (1 + 1e-6) = 0.12000012 T.
* Clopper-Pearson upper bound with zero failures in n trials is
  1 - alpha**(1/n): for n = 5000, alpha = 0.05 -> 5.989670023148763e-4
  and alpha = 0.025 -> 7.375038011081525e-4.  For k > 0 the bound p*
  satisfies the binomial tail identity sum_{i<=k} C(n,i) p*^i
  (1-p*)^(n-i) = alpha, checked directly with math.comb.
* Ejector: quarter-scale demo unit has mover mass 4.5e-4 * 0.25^3 =
  7.03125e-6 kg; a payload at a quarter of that is 1.7578125e-6 kg.
  Ejection speed is scale-invariant (~2 m/s for the mover), and a
  quarter-mass payload takes the same kinetic energy at twice the
  speed: v = 3.9912 m/s.
"""

import math
import os
import warnings

import numpy as np
import pytest

import maglogic
from maglogic import configio as cio
from maglogic import landscape as ls
from maglogic import netbus as nb
from maglogic import presets as pr
from maglogic.errors import ConfigError, MaglogicError

MU0_OVER_4PI = 1e-7
DEPTH = 0.005
FIELD = 0.120


def three_channel_node(threshold=FIELD, cone=20.0, position=(0.0, 0.0, 0.0)):
    return nb.NodeSpec(
        "n", position,
        (nb.Channel("alpha", (1, 0, 0)),
         nb.Channel("beta", (0, 1, 0)),
         nb.Channel("gamma", (0, 0, 1))),
        threshold, cone,
    )


def test_node_and_master_validation():
    ch = nb.Channel("a", (1, 0, 0))
    with pytest.raises(ConfigError):
        nb.NodeSpec("n", (0, 0), (ch,), 0.1)
    with pytest.raises(ConfigError):
        nb.NodeSpec("n", (0, 0, 0), (), 0.1)
    with pytest.raises(ConfigError):
        nb.NodeSpec("n", (0, 0, 0), (ch, nb.Channel("b", (1, 0, 0))), 0.1)
    with pytest.raises(ConfigError):
        nb.NodeSpec("n", (0, 0, 0), (ch, nb.Channel("a", (0, 1, 0))), 0.1)
    with pytest.raises(ConfigError):
        nb.NodeSpec("n", (0, 0, 0), (ch,), 0.0)
    with pytest.raises(ConfigError):
        nb.NodeSpec("n", (0, 0, 0), (ch,), 0.1, 90.0)
    with pytest.raises(ConfigError):
        nb.MasterPose((0, 0, 0), ())
    with pytest.raises(ConfigError):
        nb.MasterPose((0, 0, 0), (((0, 0, 0), (0, 0, 0)),))
    with pytest.raises(ConfigError):
        nb.Command(nb.MasterPose.single((0, 0, 0), (0, 0, 1)), ("n", "a"), 0.0)


_POSE = nb.MasterPose.single((0.0, 0.0, DEPTH), (0.15, 0.0, 0.0))


@pytest.mark.parametrize("call, match", [
    (lambda: nb.Command(_POSE, 5), "intended must be"),
    (lambda: nb.Command(_POSE, "ab"), "intended must be"),
    (lambda: nb.Command(_POSE, ("node0",)), "intended must be"),
    (lambda: nb.Command(_POSE, ("node0", "alpha", "beta")), "intended must be"),
    (lambda: nb.Command(_POSE, ("node0", 1)), "intended channel label"),
    (lambda: nb.Command(_POSE, (None, "alpha")), "intended node id"),
    (lambda: nb.Command("notapose", ("node0", "alpha")), "MasterPose"),
    (lambda: nb.MasterPose((0, 0, 0), 5), "pairs"),
    (lambda: nb.MasterPose((0, 0, 0), (5,)), "pairs"),
    (lambda: nb.MasterPose((0, 0, 0), (((0, 0, 0),),)), "pairs"),
    (lambda: nb.MasterPose((0, 0, 0), (((0, 0, 0), (0, 0, 1), (0, 0, 0)),)), "pairs"),
    (lambda: nb.MasterPose((0, 0, 0), (((0, 0), (0, 0, 1)),)), "dipole offset"),
    (lambda: nb.calibrate_master(DEPTH, FIELD, field_direction="xyz"), "field direction"),
    (lambda: nb.calibrate_master(DEPTH, FIELD, "auto", field_direction=5), "field direction"),
    (lambda: nb.calibrate_master(DEPTH, FIELD, "axial", field_direction=(0, 0, "z")),
     "field direction"),
    (lambda: nb.calibrate_master(DEPTH, FIELD, "composite", field_direction=(0, 0, 0)),
     "zero vector"),
], ids=["int_intended", "string_intended", "one_string", "three_strings",
        "int_label", "none_id", "string_pose", "int_dipoles", "int_dipole",
        "one_vector", "three_vectors", "short_offset", "string_direction",
        "int_direction", "string_component", "zero_direction"])
def test_netbus_boundary_types_are_config_errors(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


def test_command_intended_accepts_a_list_pair():
    assert nb.Command(_POSE, ["node0", "alpha"]).intended == ("node0", "alpha")


def test_master_field_matches_dipole_closed_forms():
    m = 0.075
    pose = nb.MasterPose.single((0.0, 0.0, 0.0), (0.0, 0.0, m))
    on_axis = nb.master_field_at(pose, (0.0, 0.0, -DEPTH))
    want = MU0_OVER_4PI * 2 * m / DEPTH**3
    assert on_axis == pytest.approx([0.0, 0.0, want], abs=1e-15)
    equatorial = nb.master_field_at(pose, (DEPTH, 0.0, 0.0))
    assert equatorial == pytest.approx([0.0, 0.0, -want / 2], abs=1e-15)
    # inverse-cube law: doubling the stand-off divides the field by 8
    far = nb.master_field_at(pose, (0.0, 0.0, -2 * DEPTH))
    assert np.linalg.norm(on_axis) / np.linalg.norm(far) == pytest.approx(
        8.0, rel=1e-12)


def test_composite_field_is_superposition_of_parts():
    comp = nb.calibrate_master(DEPTH, FIELD, "composite")
    assert len(comp.dipoles) == 2
    point = (0.003, -0.002, -DEPTH)
    total = nb.master_field_at(comp, point)
    parts = sum(
        nb.master_field_at(
            nb.MasterPose.single(np.add(comp.position, off), mom), point)
        for off, mom in comp.dipoles
    )
    assert total == pytest.approx(parts, rel=1e-12)


def test_calibration_closed_forms_and_target_field():
    lat = nb.calibrate_master(DEPTH, FIELD, "lateral")
    (_, m_lat), = lat.dipoles
    assert np.linalg.norm(m_lat) == pytest.approx(0.15000015, rel=1e-12)
    axial = nb.calibrate_master(DEPTH, FIELD, "axial", field_direction=(0, 0, 1))
    (_, m_ax), = axial.dipoles
    assert np.linalg.norm(m_ax) == pytest.approx(0.075000075, rel=1e-12)
    for style in ("lateral", "axial", "composite"):
        pose = nb.calibrate_master(DEPTH, FIELD, style)
        b = nb.master_field_at(pose, np.add(pose.position, (0, 0, -DEPTH)))
        assert np.linalg.norm(b) == pytest.approx(0.12000012, rel=1e-9)
    # the lateral field at the target points along the requested direction
    lat_y = nb.calibrate_master(DEPTH, FIELD, "lateral", field_direction=(0, 1, 0))
    b = nb.master_field_at(lat_y, np.add(lat_y.position, (0, 0, -DEPTH)))
    assert b / np.linalg.norm(b) == pytest.approx([0.0, 1.0, 0.0], abs=1e-12)


def test_calibration_rejects_bad_requests():
    with pytest.raises(ConfigError):
        nb.calibrate_master(0.0, FIELD)
    with pytest.raises(ConfigError):
        nb.calibrate_master(DEPTH, -1.0)
    with pytest.raises(ConfigError):
        nb.calibrate_master(DEPTH, FIELD, "helical")
    with pytest.raises(ConfigError):
        nb.calibrate_master(DEPTH, FIELD, "lateral", field_direction=(0, 0, 1))
    with pytest.raises(ConfigError):
        nb.calibrate_master(DEPTH, FIELD, "axial", field_direction=(1, 0, 0))
    with pytest.raises(ConfigError):
        nb.calibrate_master(DEPTH, FIELD, "composite", separation=0.0)
    for depth, field in ((float("nan"), FIELD), (DEPTH, float("nan")), ("5", FIELD)):
        with pytest.raises(ConfigError):
            nb.calibrate_master(depth, field)


def test_auto_calibration_follows_the_field_direction():
    for direction, style in (((0, 0, 1), "axial"), ((0, 0, -1), "axial"),
                             ((1, 0, 0), "lateral"), ((0, -1, 0), "lateral")):
        assert nb.calibrate_master(DEPTH, FIELD, "auto", field_direction=direction) \
            == nb.calibrate_master(DEPTH, FIELD, style, field_direction=direction)


def test_decode_threshold_and_cone():
    node = three_channel_node()
    assert nb.decode_node(node, (0.119, 0.0, 0.0)) is None
    assert nb.decode_node(node, (0.125, 0.0, 0.0)) == "alpha"
    assert nb.decode_node(node, (0.0, 0.0, 0.125)) == "gamma"
    # 25 degrees off +x is outside every 20-degree cone
    off = 0.125 * np.array([math.cos(math.radians(25)),
                            math.sin(math.radians(25)), 0.0])
    assert nb.decode_node(node, off) is None
    # the cone boundary itself is accepted
    edge = 0.125 * np.array([math.cos(math.radians(20)),
                             math.sin(math.radians(20)), 0.0])
    assert nb.decode_node(node, edge) == "alpha"
    assert nb.decode_node(node, (0.0, 0.0, 0.0)) is None


def test_decode_tie_resolves_to_earliest_channel():
    node = nb.NodeSpec(
        "n", (0, 0, 0),
        (nb.Channel("first", (1, 0, 0)),
         nb.Channel("second", (math.cos(math.radians(30)),
                               math.sin(math.radians(30)), 0.0))),
        0.1, 20.0,
    )
    halfway = 0.2 * np.array([math.cos(math.radians(15)),
                              math.sin(math.radians(15)), 0.0])
    assert nb.decode_node(node, halfway) == "first"


def _decode_reference(node, field):
    """The per-channel scalar loop that the batched decoder replaced."""
    field = np.asarray(field, dtype=float)
    norm = float(np.linalg.norm(field))
    if norm < node.threshold:
        return None
    fdir = field / norm
    best = None
    for idx, ch in enumerate(node.channels):
        cosang = float(np.clip(fdir @ np.asarray(ch.key_direction), -1.0, 1.0))
        angle = float(np.degrees(np.arccos(cosang)))
        if best is None or angle < best[0]:
            best = (angle, idx, ch.label)
    return best[2] if best[0] <= node.cone_half_angle else None


def test_batched_decoder_matches_channel_loop():
    rng = np.random.default_rng(11)
    tie = nb.NodeSpec(
        "tie", (0, 0, 0),
        (nb.Channel("first", (1, 0, 0)),
         nb.Channel("second", (math.cos(math.radians(30)),
                               math.sin(math.radians(30)), 0.0))),
        0.1, 20.0)
    # nodes with 1 to 4 channels, so that the decoder pads the shorter ones
    grid = [
        nb.NodeSpec("one", (0, 0, 0), (nb.Channel("z", (0, 0, 1)),), 0.05, 40.0),
        tie,
        three_channel_node(cone=35.0),
        nb.NodeSpec("four", (0, 0, 0), tuple(
            nb.Channel(f"c{i}", d) for i, d in enumerate(
                ((1, 1, 0), (-1, 1, 0), (0, -1, 1), (0.2, -0.3, -0.9)))),
            0.08, 25.0),
    ]
    # a field whose decoded angle is exactly the cone of one node and just
    # outside that of another: the cone check is inclusive
    slant = 0.2 * np.array([math.cos(math.radians(25)),
                            math.sin(math.radians(25)), 0.0])
    on_cone = float(np.degrees(np.arccos(slant[0] / np.linalg.norm(slant))))
    grid += [nb.NodeSpec(f"cone{i}", (0, 0, 0), (nb.Channel("x", (1, 0, 0)),),
                         0.1, cone)
             for i, cone in enumerate((on_cone, np.nextafter(on_cone, 0.0)))]
    which, fields = [], []
    for j, node in enumerate(grid[:4]):
        for _ in range(1500):
            ch = node.channels[rng.integers(len(node.channels))]
            d = np.asarray(ch.key_direction)
            d = d + rng.normal(0.0, 0.5) * rng.normal(size=3)
            scale = node.threshold * rng.uniform(0.5, 1.5)
            which.append(j)
            fields.append(scale * d / np.linalg.norm(d))
    halfway = 0.2 * np.array([math.cos(math.radians(15)),
                              math.sin(math.radians(15)), 0.0])
    edge = 0.125 * np.array([math.cos(math.radians(35)),
                             math.sin(math.radians(35)), 0.0])
    at_threshold = (FIELD, 0.0, 0.0)
    below = (np.nextafter(FIELD, 0.0), 0.0, 0.0)
    special = [(1, halfway), (2, edge), (2, at_threshold), (2, below),
               (2, (0.0, 0.0, 0.0)), (0, (0.0, 0.0, -0.2)),
               (4, slant), (5, slant)]
    for j, f in special:
        which.append(j)
        fields.append(np.asarray(f, dtype=float))
    norms, fired = nb._decode_rows(nb._Nodes(grid), np.array(which),
                                   np.array(fields))
    got = [None if k < 0 else grid[j].channels[k].label
           for j, k in zip(which, fired.tolist())]
    want = [_decode_reference(grid[j], f) for j, f in zip(which, fields)]
    assert got == want
    assert got == [nb.decode_node(grid[j], f) for j, f in zip(which, fields)]
    assert norms.tolist() == [float(np.linalg.norm(f)) for f in fields]
    assert got[-8:] == ["first", "alpha", "alpha", None, None, None, "x", None]
    for j, node in enumerate(grid[:4]):
        labels = [g for g, w in zip(got, which) if w == j]
        assert None in labels
        assert {c.label for c in node.channels} <= set(labels)


def _perturbed_reference(pose, rng, angle_sigma_deg, magnitude_sigma_T, nominal_B):
    """One noisy cycle's master, drawn and built as a per-cycle pose."""
    dipoles = pose.dipoles
    if angle_sigma_deg > 0.0:
        theta = np.radians(rng.normal(0.0, angle_sigma_deg))
        phi = rng.uniform(0.0, 2 * np.pi)
        axis = np.array([np.cos(phi), np.sin(phi), 0.0])
        c, s = np.cos(theta), np.sin(theta)
        ux, uy, uz = axis
        K = np.array([[0, -uz, uy], [uz, 0, -ux], [-uy, ux, 0]])
        R = np.eye(3) + s * K + (1 - c) * (K @ K)
        dipoles = [(R @ off, R @ m) for off, m in dipoles]
    if magnitude_sigma_T > 0.0:
        factor = 1.0 + rng.normal(0.0, magnitude_sigma_T) / nominal_B
        dipoles = [(off, factor * np.asarray(m)) for off, m in dipoles]
    return nb.MasterPose(pose.position, tuple(dipoles))


def _hits_reference(grid, pose):
    """Fired (node id, label) set of one pose, decoded node by node."""
    return {(n.id, label) for n in grid
            if (label := _decode_reference(n, nb.master_field_at(pose, n.position)))
            is not None}


def _scalar_noisy_sources(pose, rng, n_cycles, angle_sigma_deg, magnitude_sigma_T,
                          nominal_B):
    """``_noisy_sources`` as it was with one scalar ``normal``/``uniform``
    call per draw, the loop kept verbatim, then the same rotation and
    scaling."""
    draws = np.zeros((n_cycles, 3))
    for row in range(n_cycles):
        if angle_sigma_deg > 0.0:
            draws[row, 0] = rng.normal(0.0, angle_sigma_deg)
            draws[row, 1] = rng.uniform(0.0, 2 * np.pi)
        if magnitude_sigma_T > 0.0:
            draws[row, 2] = rng.normal(0.0, magnitude_sigma_T)
    offsets = np.broadcast_to([off for off, _ in pose.dipoles],
                              (n_cycles, len(pose.dipoles), 3))
    moments = np.broadcast_to([m for _, m in pose.dipoles], offsets.shape)
    if angle_sigma_deg > 0.0:
        theta, phi = np.radians(draws[:, 0]), draws[:, 1]
        ux, uy, uz = np.cos(phi), np.sin(phi), np.zeros(n_cycles)
        zero = np.zeros(n_cycles)
        K = np.stack([np.stack(row, axis=-1) for row in (
            (zero, -uz, uy), (uz, zero, -ux), (-uy, ux, zero))], axis=-2)
        c, s = np.cos(theta)[:, None, None], np.sin(theta)[:, None, None]
        R = np.eye(3) + s * K + (1 - c) * (K @ K)
        offsets = np.matmul(R[:, None], offsets[..., None])[..., 0]
        moments = np.matmul(R[:, None], moments[..., None])[..., 0]
    if magnitude_sigma_T > 0.0:
        moments = (1.0 + draws[:, 2] / nominal_B)[:, None, None] * moments
    return np.asarray(pose.position) + offsets, moments


def test_primitive_draws_match_the_scalar_draw_loop():
    # numpy defines normal(loc, scale) as loc + scale * standard_normal()
    # and uniform(low, high) as low + (high - low) * random(); 2000 cycles
    # reach the ziggurat's slow path (about 0.7 % of normal draws)
    composite = nb.calibrate_master(DEPTH, FIELD, "composite")
    pose = nb.pose_over(pr.demo_grid()[2], composite, DEPTH)
    for seed in range(3):
        for args in ((12.0, 0.0, 0.0), (0.0, 0.03, FIELD), (7.0, 0.02, FIELD)):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            pos, moments = nb._noisy_sources(pose, rng, 2000, *args)
            ref_pos, ref_moments = _scalar_noisy_sources(pose, ref_rng, 2000, *args)
            assert pos.shape == moments.shape == (2000, 2, 3)
            assert pos.tobytes() == ref_pos.tobytes()
            assert moments.tobytes() == ref_moments.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_batched_endurance_matches_per_cycle_poses():
    demo = pr.demo_grid()
    # 8 mm pitch at a quarter of the threshold: neighbours fire too
    dense = [nb.NodeSpec(f"n{i}{j}", (0.008 * i, 0.008 * j, 0.0),
                         demo[0].channels, FIELD / 4)
             for i in range(3) for j in range(3)]
    composite = nb.calibrate_master(DEPTH, FIELD, "composite",
                                    field_direction=(0, 0, 1))
    cases = [(demo, pr.demo_bus_commands(demo)[3]),
             (demo, nb.Command(nb.pose_over(demo[2], composite, DEPTH),
                               ("node2", "gamma"))),
             (dense, pr.demo_bus_commands(dense)[13]),
             (dense, nb.Command(nb.pose_over(dense[4], composite, DEPTH),
                                ("n11", "gamma")))]
    noises = ({"angle_sigma_deg": 15.0}, {"magnitude_sigma_T": 0.08},
              {"angle_sigma_deg": 8.0, "magnitude_sigma_T": 0.05})
    totals = np.zeros(3, dtype=int)
    for seed, (grid, cmd) in enumerate(cases):
        node = next(n for n in grid if n.id == cmd.intended[0])
        nominal_B = float(np.linalg.norm(nb.master_field_at(cmd.pose, node.position)))
        for noise in noises:
            args = (noise.get("angle_sigma_deg", 0.0),
                    noise.get("magnitude_sigma_T", 0.0), nominal_B)
            rng = np.random.default_rng(seed)
            poses = [_perturbed_reference(cmd.pose, rng, *args) for _ in range(120)]
            pos, moments = nb._noisy_sources(
                cmd.pose, np.random.default_rng(seed), 120, *args)
            assert pos.tobytes() == np.array(
                [[np.add(p.position, off) for off, _ in p.dipoles] for p in poses]).tobytes()
            assert moments.tobytes() == np.array(
                [[m for _, m in p.dipoles] for p in poses], dtype=float).tobytes()
            want = [_hits_reference(grid, p) for p in poses]
            nodes = nb._Nodes(grid)
            got = [set() for _ in poses]
            master, cols, _ = nb._hits(nodes, pos, moments)
            for m, col in zip(master.tolist(), cols.tolist()):
                got[m].add(nodes.columns[col])
            assert got == want
            bad = [len(h - {cmd.intended}) for h in want]
            missed = [cmd.intended not in h for h in want]
            counts = [sum(bad), sum(missed),
                      sum(b > 0 or m for b, m in zip(bad, missed))]
            stats = nb.endurance_campaign(grid, cmd, 120, noise, seed=seed)
            assert (stats.false_triggers, stats.misses, stats.failures) == tuple(counts)
            totals += counts
    # the cases exercise misses, neighbour triggers and clean cycles alike
    assert totals[0] > 0 and 0 < totals[1] and totals[2] < 12 * 120


def test_demo_truth_table_is_identity():
    grid = pr.demo_grid()
    commands = pr.demo_bus_commands(grid)
    table = nb.truth_table(grid, commands)
    assert len(table.columns) == 9 and len(table.rows) == 9
    for i, row in enumerate(table.rows):
        assert row[i] == 1 and sum(row) == 1
    assert all(table.exclusive)
    assert table.intended == tuple(c.intended for c in commands)
    assert table.columns == tuple(
        (n.id, c.label) for n in grid for c in n.channels)
    log, t = [], 0.0
    for cmd in commands:
        log.extend(nb.execute_command(grid, cmd, t))
        t += cmd.dwell
    assert table.events == tuple(log) and len(log) == 9
    empty = nb.truth_table(grid, [])
    assert empty.rows == () and empty.exclusive == () and empty.events == ()


def _tilted(pose, angle_deg, axis, scale):
    """``pose`` rotated by ``angle_deg`` about ``axis`` and its moments scaled."""
    ux, uy, uz = np.asarray(axis) / np.linalg.norm(axis)
    K = np.array([[0, -uz, uy], [uz, 0, -ux], [-uy, ux, 0]])
    theta = math.radians(angle_deg)
    R = np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)
    return nb.MasterPose(pose.position, tuple(
        (R @ np.asarray(off), scale * (R @ np.asarray(m)))
        for off, m in pose.dipoles))


def test_execute_command_matches_node_by_node_decode():
    campaign = cio.load_campaign(os.path.join(
        os.path.dirname(maglogic.__file__), "configs", "demo_campaign.json"))
    cases = [(campaign.grid, cmd) for cmd in campaign.commands]
    # a 5x5 grid at 10 mm pitch, so that stronger poses reach neighbors
    grid = [nb.NodeSpec(f"n{i}{j}", (0.01 * i, 0.01 * j, 0.0),
                        campaign.grid[0].channels, FIELD)
            for i in range(5) for j in range(5)]
    rng = np.random.default_rng(5)
    for cmd in pr.demo_bus_commands(grid):
        for scale in (0.9, 1.0, 1.3, 25.0):
            pose = _tilted(cmd.pose, rng.normal(0.0, 15.0),
                           (*rng.normal(size=2), 0.0), scale)
            cases.append((grid, nb.Command(pose, cmd.intended)))
    fired = []
    for nodes, cmd in cases:
        want = []
        for node in nodes:
            field = nb.master_field_at(cmd.pose, node.position)
            label = nb.decode_node(node, field)
            if label is not None:
                want.append((node.id, label, float(np.linalg.norm(field))))
        got = [(e.node_id, e.channel, e.magnitude)
               for e in nb.execute_command(nodes, cmd)]
        assert got == want  # the same labels and the same magnitude floats
        fired.append(len(got))
    assert min(fired) == 0 and max(fired) > 2


def _hex_events(events):
    """Events with their floats as ``float.hex``, so equality is bitwise."""
    return [(e.time.hex(), e.node_id, e.channel, e.magnitude.hex(), e.intended)
            for e in events]


def _assert_table_matches_commands(grid, commands):
    """The one-pass table against one ``execute_command`` per command at
    the accumulated dwell times; returns the number of events."""
    table = nb.truth_table(grid, commands)
    columns = tuple((n.id, c.label) for n in grid for c in n.channels)
    log, t = [], 0.0
    for i, cmd in enumerate(commands):
        events = nb.execute_command(grid, cmd, t)
        t += cmd.dwell
        hits = [(e.node_id, e.channel) for e in events]
        assert table.fired[i] == tuple(columns.index(h) for h in hits)
        assert table.exclusive[i] == (hits == [cmd.intended])
        log.extend(events)
    assert table.columns == columns
    assert _hex_events(table.events) == _hex_events(log)
    assert table.events == tuple(log)
    return len(log)


def _counted_kernel(monkeypatch):
    """Record the sources shape of every ``dipole_field`` call."""
    shapes = []
    real = nb.mag.dipole_field

    def counted(src_pos, *args):
        shapes.append(np.shape(src_pos))
        return real(src_pos, *args)

    monkeypatch.setattr(nb.mag, "dipole_field", counted)
    return shapes


def _dense_grid():
    """5x5 at 10 mm pitch with a 10 mT threshold: neighbours fire as well."""
    return [nb.NodeSpec(f"n{i}{j}", (0.01 * i, 0.01 * j, 0.0),
                        pr.demo_grid()[0].channels, 0.010)
            for i in range(5) for j in range(5)]


def test_truth_table_matches_execute_command_on_dense_grid(monkeypatch):
    grid = _dense_grid()
    commands = pr.demo_bus_commands(grid)
    rng = np.random.default_rng(5)
    # tilted and rescaled poses with uneven dwells
    commands += [nb.Command(_tilted(cmd.pose, rng.normal(0.0, 15.0),
                                    (*rng.normal(size=2), 0.0), scale),
                            cmd.intended, dwell)
                 for cmd, scale, dwell in zip(commands[::19], (0.9, 1.3, 25.0, 1.0),
                                              (0.5, 0.1, 3.0, 1e-3))]
    shapes = _counted_kernel(monkeypatch)
    table = nb.truth_table(grid, commands)
    assert shapes == [(len(commands), 1, 3)]  # one block, one kernel call
    monkeypatch.undo()
    assert _assert_table_matches_commands(grid, commands) > 2 * len(commands)
    assert not all(table.exclusive) and any(table.exclusive)


def test_truth_table_blocks_follow_the_dipole_count(monkeypatch):
    grid = pr.demo_grid()
    composite = nb.calibrate_master(DEPTH, FIELD, "composite",
                                    field_direction=(0, 0, 1))
    singles = pr.demo_bus_commands(grid)
    pairs = [nb.Command(nb.pose_over(node, composite, 0.7 * DEPTH),
                        (node.id, "gamma"), 0.25) for node in grid]
    commands = singles[:4] + pairs[:2] + singles[4:5] + pairs[2:] + singles[5:]
    shapes = _counted_kernel(monkeypatch)
    nb.truth_table(grid, commands)
    assert shapes == [(4, 1, 3), (2, 2, 3), (1, 1, 3), (1, 2, 3), (4, 1, 3)]
    # DECODE_PAIRS caps the (command, node, dipole) pairs of one block: 2
    # one-dipole commands here
    shapes.clear()
    monkeypatch.setattr(nb, "DECODE_PAIRS", 2 * len(grid) + 1)
    capped = nb.truth_table(grid, singles)
    assert shapes == [(2, 1, 3)] * 4 + [(1, 1, 3)]
    monkeypatch.undo()
    whole = nb.truth_table(grid, singles)
    assert capped == whole
    assert _hex_events(capped.events) == _hex_events(whole.events)
    assert _assert_table_matches_commands(grid, commands) >= len(commands)


def test_truth_table_matches_execute_command_on_mixed_channel_counts():
    diagonal = (math.sqrt(0.5), math.sqrt(0.5), 0.0)
    channel_sets = (
        (nb.Channel("down", (0, 0, -1)),),
        (nb.Channel("x", (1, 0, 0)), nb.Channel("up", (0, 0, 1))),
        (nb.Channel("y", (0, 1, 0)), nb.Channel("diag", diagonal),
         nb.Channel("-x", (-1, 0, 0))),
        (nb.Channel("a", (1, 0, 0)), nb.Channel("b", (0, 1, 0)),
         nb.Channel("c", (0, 0, 1)), nb.Channel("d", (0, 0, -1))),
    )
    # 8 mm pitch at an eighth of the threshold: neighbours fire too
    grid = [nb.NodeSpec(f"m{i}{j}", (0.008 * i, 0.008 * j, 0.0),
                        channel_sets[(i + 2 * j) % 4], FIELD / 8, 30.0)
            for i in range(3) for j in range(3)]
    composite = nb.calibrate_master(DEPTH, FIELD, "composite")
    commands = pr.demo_bus_commands(grid)
    commands[3:3] = [nb.Command(nb.pose_over(node, composite, DEPTH),
                                (node.id, node.channels[-1].label))
                     for node in grid[::2]]
    # a master 1 m above the grid fires no node: a block of its own between
    # blocks that fire several, and the first command of a block
    commands[11:11] = [nb.Command(nb.pose_over(grid[4], composite, 1.0), ("m11", "up"))]
    commands[0:0] = [nb.Command(nb.pose_over(grid[4], commands[0].pose, 1.0), ("m11", "up"))]
    assert _assert_table_matches_commands(grid, commands) > len(commands)
    fired = nb.truth_table(grid, commands).fired
    assert fired[0] == fired[12] == ()
    assert sum(map(len, fired[9:12])) > 3 and sum(map(len, fired[13:])) > 3


def test_empty_grid_decides_no_events():
    commands = pr.demo_bus_commands()
    assert nb.execute_command([], commands[0]) == []
    table = nb.truth_table([], commands)
    assert table.columns == () and table.events == ()
    assert table.rows == ((),) * len(commands)
    assert table.fired == ((),) * len(commands)
    assert table.exclusive == (False,) * len(commands)
    assert nb.truth_table([], []) == nb.TruthTable((), (), (), (), ())


def test_execute_command_time_must_be_a_finite_number():
    grid = pr.demo_grid()
    cmd = pr.demo_bus_commands(grid)[0]
    for bad in ("x", float("nan"), float("inf"), -float("inf"), None, True, 1j):
        with pytest.raises(ConfigError, match="command time"):
            nb.execute_command(grid, cmd, bad)
    assert [e.time for e in nb.execute_command(grid, cmd, 2)] == [2.0]


def test_commands_must_be_commands():
    grid = pr.demo_grid()
    commands = pr.demo_bus_commands(grid)
    for bad in ("cmd", None, commands[0].pose, (commands[0].pose, ("node0", "alpha"))):
        with pytest.raises(ConfigError, match="must be a Command"):
            nb.truth_table(grid, [*commands[:2], bad])
        with pytest.raises(ConfigError, match="must be a Command"):
            nb.execute_command(grid, bad)
        with pytest.raises(ConfigError, match="must be a Command"):
            nb.endurance_campaign(grid, bad, 10)


def test_grid_nodes_must_be_node_specs():
    grid = pr.demo_grid()
    commands = pr.demo_bus_commands(grid)
    for bad in ("node3", None, grid[0].channels[0], {"id": "node3"}):
        with pytest.raises(ConfigError, match="must be a NodeSpec"):
            nb.truth_table([*grid, bad], commands)
        with pytest.raises(ConfigError, match="must be a NodeSpec"):
            nb.execute_command([bad, *grid], commands[0])
        with pytest.raises(ConfigError, match="must be a NodeSpec"):
            nb.endurance_campaign([*grid, bad], commands[0], 10)


def test_grid_node_ids_must_be_unique():
    grid = pr.demo_grid()
    commands = pr.demo_bus_commands(grid)
    twin = nb.NodeSpec(grid[0].id, (0.0, 0.09, 0.0), grid[0].channels,
                       grid[0].threshold)
    for bad in ([*grid, twin], [twin, *grid]):
        with pytest.raises(ConfigError, match="duplicate node ids"):
            nb.truth_table(bad, commands)
        with pytest.raises(ConfigError, match="duplicate node ids"):
            nb.execute_command(bad, commands[0])
        with pytest.raises(ConfigError, match="duplicate node ids"):
            nb.endurance_campaign(bad, commands[0], 10)


def test_demo_commands_leave_neighbors_far_below_threshold():
    grid = pr.demo_grid()
    worst = 0.0
    for cmd in pr.demo_bus_commands(grid):
        for node in grid:
            if node.id == cmd.intended[0]:
                continue
            b = nb.master_field_at(cmd.pose, node.position)
            worst = max(worst, float(np.linalg.norm(b)))
    # 30 mm pitch leaves ~1 mT at the nearest neighbor
    assert worst < 0.002
    assert worst < 0.75 * FIELD


def test_error_rate_counts_unintended_events():
    grid = pr.demo_grid()
    commands = pr.demo_bus_commands(grid)
    log = []
    t = 0.0
    for cmd in commands:
        log.extend(nb.execute_command(grid, cmd, t))
        t += cmd.dwell
    rate = nb.error_rate(log)
    assert rate == 0.0 and type(rate) is float
    empty = nb.error_rate([])
    assert empty == 0.0 and type(empty) is float
    mixed = nb.error_rate(log[:3] + [nb.Event(9.0, "node0", "beta", 0.13, False)])
    assert mixed == pytest.approx(0.25) and type(mixed) is float


def test_pose_over_translates_reference_master():
    node = three_channel_node(position=(0.03, 0.0, 0.0))
    ref = nb.calibrate_master(DEPTH, FIELD, "lateral")
    pose = nb.pose_over(node, ref, DEPTH)
    assert pose.position == pytest.approx([0.03, 0.0, DEPTH])
    assert pose.dipoles == ref.dipoles
    b = nb.master_field_at(pose, node.position)
    assert np.linalg.norm(b) == pytest.approx(0.12000012, rel=1e-9)


def test_min_spacing_shrinks_with_threshold_and_isolates_neighbors():
    lat = nb.calibrate_master(DEPTH, FIELD, "lateral")
    spacings = [nb.min_spacing(lat, th, (1, 0, 0), DEPTH)
                for th in (0.06, 0.09, 0.12)]
    assert spacings[0] > spacings[1] > spacings[2] > 0
    assert spacings[2] == pytest.approx(3.6712646484375e-3, abs=2e-6)
    # a neighbor placed at the published spacing stays quiet
    s = spacings[2]
    grid = [three_channel_node(), three_channel_node(position=(s, 0.0, 0.0))]
    grid[1] = nb.NodeSpec("far", (s, 0.0, 0.0), grid[1].channels,
                          grid[1].threshold, grid[1].cone_half_angle)
    pose = nb.pose_over(grid[0], lat, DEPTH)
    events = nb.execute_command(grid, nb.Command(pose, ("n", "alpha")))
    assert {e.node_id for e in events} == {"n"}
    # tightening the isolation fraction to 1.0 allows closer packing
    relaxed = nb.min_spacing(lat, 0.12, (1, 0, 0), DEPTH, isolation_frac=1.0)
    assert relaxed < s
    with pytest.raises(MaglogicError):
        nb.min_spacing(lat, 0.15, (1, 0, 0), DEPTH)
    with pytest.raises(ConfigError):
        nb.min_spacing(lat, 0.12, (1, 0, 0), DEPTH, isolation_frac=0.0)
    bad = {"threshold": (float("nan"), "0.12", None, 0.0, -0.12),
           "axis": ((1, 0), "x", None, (1, float("nan"), 0), (0, 0, 0)),
           "depth": (-0.005, 0.0, float("inf"), "0.005"),
           "isolation_frac": ("0.75", float("nan"), 1.5, True)}
    good = {"threshold": 0.12, "axis": (1, 0, 0), "depth": DEPTH,
            "isolation_frac": 0.75}
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ConfigError):
                nb.min_spacing(lat, **{**good, name: value})


def test_min_spacing_follows_composite_footprint_anisotropy():
    comp = nb.calibrate_master(DEPTH, FIELD, "composite")
    along_split = nb.min_spacing(comp, FIELD, (0, 1, 0), DEPTH)
    across_split = nb.min_spacing(comp, FIELD, (1, 0, 0), DEPTH)
    # the two-lobe master is elongated along its split axis (y), so the
    # field there decays from a wider footprint and needs more room
    assert along_split > across_split


def test_endurance_zero_noise_matches_clopper_pearson():
    grid = pr.demo_grid()
    cmd = pr.demo_bus_commands(grid)[0]
    stats = nb.endurance_campaign(grid, cmd, 5000, None, seed=0)
    assert stats.n_cycles == 5000
    assert stats.false_triggers == 0 and stats.misses == 0
    assert stats.failures == 0
    assert stats.p_upper_one_sided == pytest.approx(
        1 - 0.05 ** (1 / 5000), rel=1e-12)
    assert stats.p_upper_one_sided == pytest.approx(5.989670023148763e-4,
                                                    rel=1e-12)
    assert stats.p_upper_two_sided == pytest.approx(
        1 - 0.025 ** (1 / 5000), rel=1e-12)
    assert stats.p_upper_two_sided == pytest.approx(7.375038011081525e-4,
                                                    rel=1e-12)


def test_endurance_with_angle_noise_is_seeded_and_can_miss():
    grid = pr.demo_grid()
    cmd = pr.demo_bus_commands(grid)[0]
    noisy = nb.endurance_campaign(grid, cmd, 200,
                                  {"angle_sigma_deg": 30.0}, seed=1)
    assert noisy.misses > 0
    assert noisy.failures >= noisy.misses > 0
    assert noisy.p_upper_one_sided > 0.1
    again = nb.endurance_campaign(grid, cmd, 200,
                                  {"angle_sigma_deg": 30.0}, seed=1)
    assert again == noisy
    gentle = nb.endurance_campaign(grid, cmd, 50,
                                   {"angle_sigma_deg": 1e-6}, seed=2)
    assert gentle.failures == 0
    # frozen counts: the noise is drawn in the same order, cycle by cycle
    assert (noisy.false_triggers, noisy.misses, noisy.failures) == (1, 100, 100)
    both = nb.endurance_campaign(
        grid, pr.demo_bus_commands(grid)[8], 200,
        {"angle_sigma_deg": 12.0, "magnitude_sigma_T": 0.01}, seed=3)
    assert (both.false_triggers, both.misses, both.failures) == (0, 118, 118)


def test_noise_free_endurance_decodes_one_cycle(monkeypatch):
    grid = pr.demo_grid()
    cmd = pr.demo_bus_commands(grid)[0]
    shapes = _counted_kernel(monkeypatch)
    for noise in (None, {"angle_sigma_deg": 0.0, "magnitude_sigma_T": 0.0}):
        shapes.clear()
        stats = nb.endurance_campaign(grid, cmd, 5000, noise, seed=0)
        assert shapes == [(1, 1, 3)]  # one kernel call, one master row
        assert stats.failures == 0


def test_capped_endurance_blocks_match_the_uncapped_run(monkeypatch):
    grid = pr.demo_grid()
    cmd = pr.demo_bus_commands(grid)[4]
    noise = {"angle_sigma_deg": 20.0, "magnitude_sigma_T": 0.03}
    whole = nb.endurance_campaign(grid, cmd, 100, noise, seed=4)
    shapes = _counted_kernel(monkeypatch)
    # DECODE_PAIRS caps the (cycle, node, dipole) pairs of one block: 33
    # one-dipole cycles here
    monkeypatch.setattr(nb, "DECODE_PAIRS", 100)
    capped = nb.endurance_campaign(grid, cmd, 100, noise, seed=4)
    assert shapes[1:] == [(33, 1, 3)] * 3 + [(1, 1, 3)]  # after the nominal field
    assert capped == whole
    assert 0 < whole.failures < 100


def test_endurance_blocks_bound_the_kernel_buffer(monkeypatch):
    # 8000 cycles are 200,000 (cycle, node) rows, which one block would
    # decode in about 30 MiB of kernel scratch
    grid = _dense_grid()
    cmd = pr.demo_bus_commands(grid)[36]
    noise = {"angle_sigma_deg": 3.0, "magnitude_sigma_T": 0.005}
    monkeypatch.setattr(nb.mag, "_buffer", np.empty(0))
    capped = nb.endurance_campaign(grid, cmd, 8000, noise, seed=1)
    # 20 doubles a (master, node, dipole) pair, plus the alignment slack
    assert nb.mag._buffer.size <= 20 * nb.DECODE_PAIRS + 7
    monkeypatch.setattr(nb, "DECODE_PAIRS", len(grid) * 8000)
    shapes = _counted_kernel(monkeypatch)
    whole = nb.endurance_campaign(grid, cmd, 8000, noise, seed=1)
    assert shapes[1:] == [(8000, 1, 3)]  # after the nominal field: one block
    assert capped == whole
    assert 0 < whole.failures < 8000


def test_noise_free_endurance_counts_every_cycle():
    grid = pr.demo_grid()
    weak = nb.Command(nb.pose_over(
        grid[0], nb.calibrate_master(DEPTH, FIELD / 2, "lateral"), DEPTH),
        ("node0", "alpha"))
    stats = nb.endurance_campaign(grid, weak, 700)
    assert stats.misses == stats.failures == 700
    assert stats.false_triggers == 0
    assert stats.p_upper_one_sided == stats.p_upper_two_sided == 1.0
    # a pose aimed at alpha but meant for beta misses and false-triggers
    cmd = pr.demo_bus_commands(grid)[0]
    wrong = nb.Command(cmd.pose, ("node0", "beta"))
    stats = nb.endurance_campaign(grid, wrong, 300)
    assert stats.false_triggers == stats.misses == stats.failures == 300


def test_endurance_argument_errors():
    grid = pr.demo_grid()
    cmd = pr.demo_bus_commands(grid)[0]
    with pytest.raises(ConfigError):
        nb.endurance_campaign(grid, cmd, 0)
    with pytest.raises(ConfigError):
        nb.endurance_campaign(grid, cmd, 10, {"wobble": 1.0})
    stranger = nb.Command(cmd.pose, ("ghost", "alpha"))
    with pytest.raises(ConfigError):
        nb.endurance_campaign(grid, stranger, 10)
    unlabelled = nb.Command(cmd.pose, ("node0", "nolabel"))
    with pytest.raises(ConfigError, match="node 'node0' has no channel 'nolabel'"):
        nb.endurance_campaign(grid, unlabelled, 10)
    for bad in ("abc", 5, [], ()):
        with pytest.raises(ConfigError, match="noise must be a dict"):
            nb.endurance_campaign(grid, cmd, 10, bad)
    for name in ("angle_sigma_deg", "magnitude_sigma_T"):
        for bad in (float("nan"), float("inf"), -1.0, "3", None, True):
            with pytest.raises(ConfigError, match=name):
                nb.endurance_campaign(grid, cmd, 10, {name: bad})


def test_public_field_arguments_are_checked():
    node = three_channel_node()
    pose = nb.MasterPose.single((0.0, 0.0, DEPTH), (0.15, 0.0, 0.0))
    for bad in ((0.2, 0.0), (float("nan"), 0.0, 0.2), (0.2, float("inf"), 0.0),
                "xyz", None):
        with pytest.raises(ConfigError, match="field"):
            nb.decode_node(node, bad)
        with pytest.raises(ConfigError, match="field point"):
            nb.master_field_at(pose, bad)


def test_magnitude_noise_needs_a_field_at_the_intended_node():
    grid = pr.demo_grid()
    cmd = pr.demo_bus_commands(grid)[0]
    # so far away that the field at node0 underflows to exactly 0
    far = nb.Command(nb.MasterPose((1e200, 0.0, DEPTH), cmd.pose.dipoles),
                     cmd.intended)
    assert not np.any(nb.master_field_at(far.pose, grid[0].position))
    for noise in ({"magnitude_sigma_T": 0.01},
                  {"angle_sigma_deg": 3.0, "magnitude_sigma_T": 0.01}):
        with pytest.raises(ConfigError, match="magnitude_sigma_T"):
            nb.endurance_campaign(grid, far, 10, noise)
    tilted = nb.endurance_campaign(grid, far, 10, {"angle_sigma_deg": 3.0})
    assert tilted.misses == tilted.failures == 10


def test_clopper_pearson_upper_bound_binomial_identity():
    for k, n in ((1, 2), (1, 20), (3, 100), (400, 800), (7, 5000), (4999, 5000)):
        for alpha in (0.05, 0.025):
            p = nb._cp_upper(k, n, alpha)
            # log of the exact coefficient: C(5000, 2500) overflows a float
            tail = math.fsum(
                math.exp(math.log(math.comb(n, i)) + i * math.log(p)
                         + (n - i) * math.log1p(-p))
                for i in range(k + 1))
            assert tail == pytest.approx(alpha, abs=1e-9)
    assert nb._cp_upper(5, 5, 0.05) == 1.0
    assert nb._cp_upper(0, 20, 0.05) == pytest.approx(1 - 0.05 ** (1 / 20),
                                                      rel=1e-12)


def test_sealing_check_requires_intended_event_first():
    node = three_channel_node()
    mk = lambda t, ch, ok: nb.Event(t, "n", ch, 0.13, ok)
    assert nb.sealing_check(node, [])
    assert nb.sealing_check(node, [mk(0.0, "alpha", True),
                                   mk(1.0, "beta", False)])
    assert not nb.sealing_check(node, [mk(0.0, "beta", False),
                                       mk(1.0, "alpha", True)])
    other = [nb.Event(0.0, "elsewhere", "beta", 0.13, False),
             mk(1.0, "alpha", True)]
    assert nb.sealing_check(node, other)


def test_node_ejector_jet_clears_target_speed():
    topology, keys, payload = pr.node_ejector()
    assert payload == pytest.approx(1.7578125e-6, rel=1e-12)
    profile = ls.sample_profile(topology, "alpha", keys[0])
    v = nb.jet_velocity(profile, payload)
    assert v >= 3.8
    assert v == pytest.approx(3.9911763716, rel=1e-6)
    heavier = nb.jet_velocity(profile, 2 * payload)
    assert v / heavier == pytest.approx(math.sqrt(2), rel=1e-12)
    for friction in (float("nan"), "0.01", -0.01):
        with pytest.raises(ConfigError):
            nb.jet_velocity(profile, payload, friction_force=friction)


@pytest.mark.parametrize("style, depth, field, separation", [
    ("axial", 1e308, FIELD, None),
    ("lateral", 1e308, FIELD, None),
    ("auto", 1e308, FIELD, None),
    ("composite", 1e200, FIELD, None),  # the field at the target underflows to 0
    ("composite", DEPTH, FIELD, 1e308),
    ("composite", 1e308, FIELD, None),
    ("composite", DEPTH, 1e308, None),
    ("axial", DEPTH, 1e308, None),
])
def test_calibrate_master_out_of_float_range_is_a_config_error(
        style, depth, field, separation):
    """No OverflowError, ZeroDivisionError or RuntimeWarning escapes."""
    direction = (1.0, 0.0, 0.0) if style == "lateral" else (0.0, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="cannot be calibrated in floating point"):
            nb.calibrate_master(depth, field, style, field_direction=direction,
                                separation=separation)
