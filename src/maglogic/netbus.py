"""Wireless field-bus simulation over a grid of decode nodes.

A handheld master magnet (one or two point dipoles) broadcasts to nodes
that each carry a release threshold and a set of channel directions. Field
magnitude is the address bus: a node only listens when |B| meets its
threshold, which confines addressing to the volume right under the master.
Field direction is the control bus: the nearest channel direction within
the node's acceptance cone is the one that fires. A command evaluates the
master's field at every node in one kernel call, and only nodes that reach
their threshold decode a channel.

The master's moment is calibrated against a target field at a working
depth, so the shipped demos state their assumptions as two numbers (120 mT
at 5 mm) rather than a hardware model; every style aims the master along
the commanded channel direction. Endurance campaigns perturb the master
pose with seeded Gaussian angle/magnitude noise (without noise, the one
nominal pose is decoded once and counted for every cycle) and report exact
binomial (Clopper-Pearson) upper confidence bounds on the failure rate,
found by bisection on the exact binomial tail. Zero-failure bounds are
reported in both conventions, one-sided 1 - 0.05^(1/n) and two-sided
1 - 0.025^(1/n), because published figures rarely say which one they
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import landscape as ls
from . import magnetics as mag
from .errors import ConfigError, MaglogicError

DOWN = np.array([0.0, 0.0, -1.0])  # master hovers above its target node
DEFAULT_ISOLATION_FRAC = 0.75  # neighbor must fall below this x threshold
_CALIBRATION_HEADROOM = 1e-6  # keeps the target strictly at/above threshold
_SPACING_XTOL = 1e-6  # m, bisection stop of min_spacing


@dataclass(frozen=True)
class Channel:
    label: str
    key_direction: tuple

    def __post_init__(self):
        mag.text(self.label, "channel label")
        d = mag.unit(mag.vector(self.key_direction, "channel direction"))
        object.__setattr__(self, "key_direction", tuple(float(c) for c in d))


@dataclass(frozen=True)
class NodeSpec:
    id: str
    position: tuple
    channels: tuple
    threshold: float
    cone_half_angle: float = 20.0

    def __post_init__(self):
        mag.text(self.id, "node id")
        object.__setattr__(self, "position", mag.vector(self.position, "node position"))
        object.__setattr__(self, "channels", tuple(self.channels))
        if not self.channels:
            raise ConfigError("node needs at least one channel")
        dirs = [c.key_direction for c in self.channels]
        if len(set(dirs)) != len(dirs):
            raise ConfigError("channel directions must be pairwise distinct")
        labels = [c.label for c in self.channels]
        if len(set(labels)) != len(labels):
            raise ConfigError("channel labels must be unique")
        mag.finite(self.threshold, "threshold", 0.0)
        if not 0.0 < mag.finite(self.cone_half_angle, "cone half-angle") < 90.0:
            raise ConfigError("cone half-angle must lie in (0, 90) degrees")


@dataclass(frozen=True)
class MasterPose:
    """Master magnet as 1-2 point dipoles; orientation lives in the moments.

    ``dipoles`` is a tuple of (offset, moment) pairs in the world frame,
    offsets relative to ``position``.
    """

    position: tuple
    dipoles: tuple

    def __post_init__(self):
        object.__setattr__(self, "position",
                           mag.vector(self.position, "master position"))
        dips = [(mag.vector(off, "dipole offset"), mag.vector(m, "dipole moment"))
                for off, m in self.dipoles]
        if not dips:
            raise ConfigError("master needs at least one dipole")
        total = sum(np.linalg.norm(m) for _, m in dips)
        if total <= 0.0:
            raise ConfigError("master moment must be non-zero")
        object.__setattr__(self, "dipoles", tuple(dips))

    @classmethod
    def single(cls, position, moment):
        return cls(position, (((0.0, 0.0, 0.0), moment),))


@dataclass(frozen=True)
class Command:
    pose: MasterPose
    intended: tuple  # (node id, channel label)
    dwell: float = 1.0

    def __post_init__(self):
        mag.finite(self.dwell, "dwell", 0.0)
        object.__setattr__(self, "intended", tuple(self.intended))


@dataclass(frozen=True, slots=True)
class Event:
    time: float
    node_id: str
    channel: str
    magnitude: float  # T at the node
    intended: bool


def _master_field(pose: MasterPose, points: np.ndarray) -> np.ndarray:
    """Master field at each row of ``points`` (n, 3), one kernel call."""
    base = np.asarray(pose.position)
    pos = np.array([base + np.asarray(off) for off, _ in pose.dipoles])
    moments = np.array([m for _, m in pose.dipoles])
    return mag.dipole_field(pos, moments, points)


def master_field_at(pose: MasterPose, point) -> np.ndarray:
    """Superposed dipole field of the master composite, tesla."""
    return _master_field(pose, np.asarray(point, dtype=float)[None, :])[0]


def decode_node(node: NodeSpec, field) -> str | None:
    """Channel label fired by this field, or None.

    Address test: |field| >= threshold. Control test: the channel nearest
    in angle must lie within the acceptance cone (inclusive); angle ties
    resolve to the earliest channel in the list.
    """
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
    if best[0] <= node.cone_half_angle:
        return best[2]
    return None


def _positions(grid) -> np.ndarray:
    """Node positions stacked as an (n, 3) array."""
    return np.array([n.position for n in grid], dtype=float).reshape(-1, 3)


def _fired(grid, positions: np.ndarray, pose: MasterPose) -> list:
    """(node, channel label, |B|) for every node of ``grid`` that fires.

    One kernel call gives the field at all ``positions``; only nodes at or
    above their threshold go through :func:`decode_node`. The norm is
    ``sqrt(vecdot)``, which matches ``np.linalg.norm`` of each row bit for
    bit (``np.linalg.norm(..., axis=1)`` does not).
    """
    fields = _master_field(pose, positions)
    norms = np.sqrt(np.vecdot(fields, fields)).tolist()
    fired = []
    for i, (node, norm) in enumerate(zip(grid, norms)):
        if norm >= node.threshold:
            label = decode_node(node, fields[i])
            if label is not None:
                fired.append((node, label, norm))
    return fired


def execute_command(grid, command: Command, t: float = 0.0) -> list:
    """Decode one command at every node; events carry the intended flag."""
    grid = list(grid)
    return [Event(t, node.id, label, norm, (node.id, label) == command.intended)
            for node, label, norm in _fired(grid, _positions(grid), command.pose)]


@dataclass(frozen=True)
class TruthTable:
    columns: tuple  # (node id, channel label) pairs
    fired: tuple  # per command, the indices of the columns that fired
    exclusive: tuple  # per-row: exactly one 1 and it is the intended one
    intended: tuple  # per-row (node id, channel label)
    events: tuple  # every Event in command order, times accumulated from dwell

    def _row(self, indices: tuple) -> tuple:
        row = [0] * len(self.columns)
        for i in indices:
            row[i] = 1
        return tuple(row)

    @property
    def rows(self) -> tuple:
        """Per command, one 0/1 int per column (1 where it fired)."""
        return tuple(self._row(f) for f in self.fired)

    def row_dict(self, i: int) -> dict:
        return dict(zip(self.columns, self._row(self.fired[i])))


def truth_table(grid, commands) -> TruthTable:
    grid = list(grid)
    columns = tuple((n.id, c.label) for n in grid for c in n.channels)
    fired, exclusive, intended, log = [], [], [], []
    t = 0.0
    for cmd in commands:
        events = execute_command(grid, cmd, t)
        t += cmd.dwell
        hits = {(e.node_id, e.channel) for e in events}
        fired.append(tuple(i for i, col in enumerate(columns) if col in hits))
        exclusive.append(hits == {cmd.intended})
        intended.append(cmd.intended)
        log.extend(events)
    return TruthTable(columns, tuple(fired), tuple(exclusive), tuple(intended),
                      tuple(log))


class ErrorRate(float):
    """Unintended/total event ratio; ``no_events`` marks the 0/0 case."""

    no_events: bool

    def __new__(cls, rate: float, no_events: bool):
        obj = super().__new__(cls, rate)
        obj.no_events = no_events
        return obj


def error_rate(log) -> ErrorRate:
    log = list(log)
    if not log:
        return ErrorRate(0.0, True)
    bad = sum(1 for e in log if not e.intended)
    return ErrorRate(bad / len(log), False)


def calibrate_master(depth: float, field: float, style: str = "lateral",
                     field_direction=None,
                     separation: float | None = None) -> MasterPose:
    """Master pose at height ``depth`` over the origin hitting |B| = field.

    ``field_direction`` is the wanted field direction at the target:
    transverse for "lateral" (the equatorial field points opposite the
    moment, default +x), +-z for "axial" and "composite" (the on-axis field
    is parallel to the moment, default -z). "auto" is "axial" for a
    mostly-z ``field_direction`` and "lateral" otherwise, aimed along it.
    "composite" splits the moment over two dipoles separated along y
    (default ``depth/2``), which is the variant with anisotropic lateral
    decay. A tiny headroom factor keeps the target strictly at threshold
    under float round-off.
    """
    mag.finite(depth, "master depth", 0.0)
    mag.finite(field, "master field", 0.0)
    boost = 1.0 + _CALIBRATION_HEADROOM
    position = (0.0, 0.0, depth)
    if style == "auto":
        style = "axial" if field_direction is not None \
            and abs(mag.unit(field_direction)[2]) > 0.5 else "lateral"
    if style in ("axial", "composite"):
        fdir = np.array([0.0, 0.0, -1.0]) if field_direction is None \
            else mag.unit(field_direction)
        if abs(fdir[0]) > 1e-12 or abs(fdir[1]) > 1e-12:
            raise ConfigError(f"{style} master needs a +-z field direction")
        if style == "axial":
            m = 2.0 * np.pi * depth**3 * field / mag.MU0 * boost
            return MasterPose.single(position, tuple(m * fdir))
        gap = depth / 2 if separation is None \
            else mag.finite(separation, "separation", 0.0)
        raw = MasterPose(position, (
            ((0.0, -gap / 2, 0.0), tuple(fdir)),
            ((0.0, +gap / 2, 0.0), tuple(fdir)),
        ))
        got = float(np.linalg.norm(master_field_at(raw, (0.0, 0.0, 0.0))))
        return MasterPose(position, tuple(
            (off, field / got * boost * np.asarray(m)) for off, m in raw.dipoles))
    if style == "lateral":
        fdir = np.array([1.0, 0.0, 0.0]) if field_direction is None \
            else mag.unit(field_direction)
        if abs(fdir[2]) > 1e-12:
            raise ConfigError("lateral master needs a transverse field direction")
        m = 4.0 * np.pi * depth**3 * field / mag.MU0 * boost
        return MasterPose.single(position, tuple(-m * fdir))
    raise ConfigError(f"unknown master style {style!r}")


def pose_over(node: NodeSpec, reference: MasterPose, depth: float) -> MasterPose:
    """The calibrated reference master translated directly over ``node``."""
    target = np.asarray(node.position)
    return MasterPose(tuple(target - depth * DOWN), reference.dipoles)


def min_spacing(pose: MasterPose, threshold: float, axis, depth: float,
                isolation_frac: float = DEFAULT_ISOLATION_FRAC) -> float:
    """Smallest neighbor offset whose field drops below the isolation level.

    The target sits ``depth`` below the master; neighbors are scanned along
    ``axis`` in the target plane. Isolation level = isolation_frac x
    threshold (default 0.75, i.e. a 90 mT ceiling for a 120 mT threshold).
    The master must reach the threshold at the target itself.
    """
    if not 0.0 < isolation_frac <= 1.0:
        raise ConfigError("isolation_frac must lie in (0, 1]")
    a = mag.unit(axis)
    target = np.asarray(pose.position) + depth * DOWN
    level = isolation_frac * threshold

    def excess(offset):
        point = target + offset * a
        return float(np.linalg.norm(master_field_at(pose, point))) - level

    at_target = float(np.linalg.norm(master_field_at(pose, target)))
    if at_target < threshold:
        raise MaglogicError(
            f"master reaches only {at_target:.3g} T at depth, "
            f"below the {threshold:.3g} T threshold"
        )
    lo, hi = 0.0, depth
    for _ in range(200):
        if excess(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise MaglogicError("field never falls below the isolation level")
    while hi - lo > _SPACING_XTOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) < 0.0:
            hi = mid
        else:
            lo = mid
    return hi


# endurance


@dataclass(frozen=True)
class EnduranceStats:
    n_cycles: int
    false_triggers: int
    misses: int
    failures: int
    p_upper_one_sided: float
    p_upper_two_sided: float


def _cp_upper(k: int, n: int, alpha: float) -> float:
    """Exact binomial upper confidence bound at level 1 - alpha.

    For 1 <= k < n this is the p with P(X <= k | n, p) = alpha, bisected on
    the tail (which falls as p grows) until the bracket is two adjacent
    floats; the upper end is returned.
    """
    if k >= n:
        return 1.0
    if k == 0:
        return 1.0 - alpha ** (1.0 / n)
    log_comb = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                for i in range(k + 1)]

    def tail(p):
        lp, lq = math.log(p), math.log1p(-p)
        return math.fsum(math.exp(c + i * lp + (n - i) * lq)
                         for i, c in enumerate(log_comb))

    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if tail(mid) > alpha:
            lo = mid
        else:
            hi = mid


def _perturbed(pose: MasterPose, rng, angle_sigma_deg: float,
               magnitude_sigma_T: float, nominal_B: float) -> MasterPose:
    """``pose`` tilted and rescaled by seeded noise; a sigma of 0 draws nothing."""
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
    return MasterPose(pose.position, tuple(dipoles))


def _outcome(hits: set, intended: tuple) -> tuple:
    """(false triggers, missed, failed) of one cycle's fired columns."""
    bad = len(hits - {intended})
    missed = intended not in hits
    return bad, int(missed), int(bad > 0 or missed)


def endurance_campaign(grid, command: Command, n_cycles: int,
                       noise: dict | None = None, seed: int = 0) -> EnduranceStats:
    """Repeat one command with seeded pose noise; exact binomial bounds.

    ``noise`` keys: "angle_sigma_deg" (tilt of the whole master) and
    "magnitude_sigma_T" (field error at the intended node, converted to a
    moment scale factor), each >= 0. A failure is any cycle with a false
    trigger or a missed intended activation. Without noise every cycle is
    the nominal pose, so that pose is decoded once and counted n_cycles
    times.
    """
    n_cycles = mag.finite(n_cycles, "n_cycles", 1, inclusive=True, integer=True)
    noise = dict(noise or {})
    angle_sigma = mag.finite(noise.pop("angle_sigma_deg", 0.0),
                             "angle_sigma_deg", 0.0, inclusive=True)
    mag_sigma = mag.finite(noise.pop("magnitude_sigma_T", 0.0),
                           "magnitude_sigma_T", 0.0, inclusive=True)
    if noise:
        raise ConfigError(f"unknown noise fields {sorted(noise)}")
    grid = list(grid)
    node = next((n for n in grid if n.id == command.intended[0]), None)
    if node is None:
        raise ConfigError(f"intended node {command.intended[0]!r} not in grid")
    if angle_sigma == 0.0 and mag_sigma == 0.0:
        hits = {(e.node_id, e.channel) for e in execute_command(grid, command)}
        totals = [n_cycles * c for c in _outcome(hits, command.intended)]
    else:
        positions = _positions(grid)
        nominal_B = float(np.linalg.norm(
            master_field_at(command.pose, node.position)))
        rng = np.random.default_rng(seed)
        totals = [0, 0, 0]
        for _ in range(n_cycles):
            pose = _perturbed(command.pose, rng, angle_sigma, mag_sigma, nominal_B)
            hits = {(n.id, label) for n, label, _ in _fired(grid, positions, pose)}
            totals = [a + b for a, b in zip(totals, _outcome(hits, command.intended))]
    false_triggers, misses, failures = totals
    return EnduranceStats(
        n_cycles, false_triggers, misses, failures,
        _cp_upper(failures, n_cycles, 0.05),
        _cp_upper(failures, n_cycles, 0.025),
    )


def sealing_check(node: NodeSpec, pressure_proxy: float, log) -> bool:
    """True iff the node stayed sealed until its first intended command.

    Any event on this node earlier than its first intended event is a leak.
    The pressure proxy is a bookkeeping scalar for the caller's reservoir
    model; it must be non-negative but does not enter the quasi-static
    check.
    """
    mag.finite(pressure_proxy, "pressure proxy", 0.0, inclusive=True)
    events = sorted((e for e in log if e.node_id == node.id),
                    key=lambda e: e.time)
    first_intended = next((e.time for e in events if e.intended), None)
    for e in events:
        if first_intended is None or e.time < first_intended:
            if not e.intended:
                return False
    return True


def jet_velocity(profile, ejected_mass: float,
                 friction_force: float | None = None) -> float:
    """Inviscid upper bound on the ejection jet speed, m/s.

    Energy balance of the snap-through stroke applied to the effective
    ejected mass; fluid viscosity is not modeled, so real jets are slower.
    """
    return ls.ejection_velocity(profile, mass=ejected_mass,
                                friction_force=friction_force)
