"""Wireless field-bus simulation over a grid of decode nodes.

A handheld master magnet (one or two point dipoles) broadcasts to nodes
that each carry a release threshold and a set of channel directions. Field
magnitude is the address bus: a node only listens when |B| meets its
threshold, which confines addressing to the volume right under the master.
Field direction is the control bus: the nearest channel direction within
the node's acceptance cone is the one that fires. A list of commands is
decided in blocks: the masters of a block's commands are stacked as
grouped kernel sources, one kernel call gives every master's field at
every node, and one batched pass decodes each (command, node) row. A
single command is the one-command block.

The master's moment is calibrated against a target field at a working
depth, so the shipped demos state their assumptions as two numbers (120 mT
at 5 mm) rather than a hardware model; every style aims the master along
the commanded channel direction. Endurance campaigns perturb the master
pose with seeded Gaussian angle/magnitude noise and report exact binomial
(Clopper-Pearson) upper confidence bounds on the failure rate. The noise
stream keeps its cycle-by-cycle order but is drawn in one pass as
primitive standard normals and uniforms, then scaled, with the bits of
one scaled draw at a time. The tilted and rescaled masters are decided
like a truth table's commands: stacked as grouped kernel sources, one
kernel call and one decode per block of (cycle, node) rows. Without noise,
the one nominal pose is decoded once and counted for every cycle.
The bounds are found by bisection on the exact binomial tail. Zero-failure
bounds are reported in both conventions, one-sided 1 - 0.05^(1/n) and
two-sided 1 - 0.025^(1/n), because published figures rarely say which one
they used.
"""

from __future__ import annotations

import itertools
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
# the most endurance cycles: 200 times the shipped campaign's 5000, checked
# before any per-cycle array is built; also a cap on a block of _hits, in
# (master, node) rows
MAX_CYCLES = 1_000_000
# the most (master x node x dipole) pairs of one _hits block, and so of one
# decode kernel call: the kernel's scratch buffer keeps the size of its
# largest call, which this holds to 20 * DECODE_PAIRS doubles (5 MiB). An
# 800-cycle one-dipole run on a 5x5 grid (20,000 pairs) is still one block
DECODE_PAIRS = 4 * mag.GROUP_PAIRS


@dataclass(frozen=True)
class Channel:
    label: str
    key_direction: tuple

    def __post_init__(self):
        mag.text(self.label, "channel label")
        d = mag.unit(mag.vector(self.key_direction, "channel direction"), "channel direction")
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
    offsets relative to ``position``. Raises ConfigError unless each
    dipole is such a pair of 3-vectors.
    """

    position: tuple
    dipoles: tuple

    def __post_init__(self):
        object.__setattr__(self, "position",
                           mag.vector(self.position, "master position"))
        try:
            pairs = [tuple(d) for d in self.dipoles]
        except TypeError:
            pairs = [()]
        if any(len(pair) != 2 for pair in pairs):
            raise ConfigError("master dipoles must be (offset, moment) pairs, "
                              f"got {self.dipoles!r}")
        dips = [(mag.vector(off, "dipole offset"), mag.vector(m, "dipole moment"))
                for off, m in pairs]
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
    """One master pose held for ``dwell`` seconds, meant to fire the
    ``intended`` (node id, channel label). Raises ConfigError unless
    ``pose`` is a MasterPose and ``intended`` two strings."""

    pose: MasterPose
    intended: tuple
    dwell: float = 1.0

    def __post_init__(self):
        if not isinstance(self.pose, MasterPose):
            raise ConfigError(f"command pose must be a MasterPose, got {self.pose!r}")
        intended = tuple(self.intended) if isinstance(self.intended, (tuple, list)) else ()
        if len(intended) != 2:
            raise ConfigError("intended must be a (node id, channel label) pair, "
                              f"got {self.intended!r}")
        mag.text(intended[0], "intended node id")
        mag.text(intended[1], "intended channel label")
        mag.finite(self.dwell, "dwell", 0.0)
        object.__setattr__(self, "intended", intended)


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
    return _master_field(pose, np.array(mag.vector(point, "field point"))[None, :])[0]


class _Nodes:
    """A grid as arrays, built once per call.

    ``positions`` (n, 3); ``thresholds`` and ``cones`` (n,); ``dirs``
    (n, C, 3), C the most channels of any node (1 for an empty grid);
    ``pad`` (n, C) is 0 on a node's own channels and +inf past them, so a
    padded slot is never the nearest channel. ``columns`` are the truth
    table's (node id, channel label) pairs and ``offsets`` (n,) each
    node's first column, so channel k of node j is column offsets[j] + k.
    Raises ConfigError unless every node is a NodeSpec with its own id.
    """

    def __init__(self, grid):
        self.grid = list(grid)
        for node in self.grid:
            if not isinstance(node, NodeSpec):
                raise ConfigError(f"grid node must be a NodeSpec, got {node!r}")
        ids = [node.id for node in self.grid]
        if len(set(ids)) != len(ids):
            raise ConfigError("grid has duplicate node ids")
        n = len(self.grid)
        width = max((len(node.channels) for node in self.grid), default=1)
        self.dirs = np.zeros((n, width, 3))
        self.pad = np.full((n, width), np.inf)
        for i, node in enumerate(self.grid):
            self.dirs[i, :len(node.channels)] = [c.key_direction for c in node.channels]
            self.pad[i, :len(node.channels)] = 0.0
        self.positions = np.array([node.position for node in self.grid],
                                  dtype=float).reshape(-1, 3)
        self.thresholds = np.array([node.threshold for node in self.grid], dtype=float)
        self.cones = np.array([node.cone_half_angle for node in self.grid], dtype=float)
        self.columns = tuple((node.id, c.label) for node in self.grid
                             for c in node.channels)
        self.offsets = np.cumsum([0] + [len(node.channels) for node in self.grid])[:-1]


def _decode_rows(nodes: _Nodes, which: np.ndarray, fields: np.ndarray) -> tuple:
    """|B| of each row of ``fields`` (R, 3) and the channel index it fires, or -1.

    Row i is the field at node ``which[i]``. Address test first: |B| >=
    threshold, with |B| = ``sqrt(vecdot)``, the bits of ``np.linalg.norm``
    of the row. Control test: the channel nearest in angle (the earliest
    on ties) must lie within the acceptance cone (inclusive). The cosines
    come from ``np.vecdot``, which has the bits of a 1-D ``fdir @ dir``
    (a matmul against the stacked directions may round differently).
    """
    norms = np.sqrt(np.vecdot(fields, fields))
    fired = np.full(len(fields), -1)
    rows = np.flatnonzero(norms >= nodes.thresholds[which])
    at = which[rows]
    fdir = fields[rows] / norms[rows, None]
    cosang = np.clip(np.vecdot(fdir[:, None, :], nodes.dirs[at]), -1.0, 1.0)
    angles = np.degrees(np.arccos(cosang)) + nodes.pad[at]
    best = np.argmin(angles, axis=1)
    inside = angles[np.arange(len(rows)), best] <= nodes.cones[at]
    fired[rows[inside]] = best[inside]
    return norms, fired


def decode_node(node: NodeSpec, field) -> str | None:
    """Channel label fired by this field, or None.

    Address test: |field| >= threshold. Control test: the channel nearest
    in angle must lie within the acceptance cone (inclusive); angle ties
    resolve to the earliest channel in the list.
    """
    field = np.array(mag.vector(field, "field"))
    _, fired = _decode_rows(_Nodes([node]), np.zeros(1, dtype=int), field[None, :])
    return None if fired[0] < 0 else node.channels[fired[0]].label


def _commands(commands) -> list:
    """``commands`` as a list; raises ConfigError unless each is a Command."""
    commands = list(commands)
    for cmd in commands:
        if not isinstance(cmd, Command):
            raise ConfigError(f"command must be a Command, got {cmd!r}")
    return commands


def _hits(nodes: _Nodes, pos: np.ndarray, moments: np.ndarray) -> tuple:
    """Every fired (master, node) row, in that order: three arrays of the
    master's index, the column it fires and |B| at the node.

    ``pos`` and ``moments`` (G, D, 3) are G masters of D dipoles each,
    decided in blocks of at most ``MAX_CYCLES`` (master, node) rows and
    ``DECODE_PAIRS`` (master, node, dipole) pairs (one master a block when
    it alone has more). A block's masters are grouped kernel sources and
    the node positions every group's points, so one kernel call gives every
    field, and one :func:`_decode_rows` pass decodes every (master, node)
    row. Rows are independent, so the blocks move no bit.
    """
    n = len(nodes.grid)
    rows = min(MAX_CYCLES, DECODE_PAIRS // pos.shape[1])
    per_block = max(1, rows // max(n, 1))
    blocks = []
    for lo in range(0, len(pos), per_block):
        sources = pos[lo:lo + per_block], moments[lo:lo + per_block]
        g = len(sources[0])
        fields = mag.dipole_field(*sources, np.broadcast_to(nodes.positions, (g, n, 3)))
        norms, fired = _decode_rows(nodes, np.tile(np.arange(n), g), fields.reshape(-1, 3))
        fired, norms = fired.reshape(g, n), norms.reshape(g, n)
        at, j = np.nonzero(fired >= 0)
        blocks.append((lo + at, nodes.offsets[j] + fired[at, j], norms[at, j]))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def _decide(nodes: _Nodes, commands: list, t: float) -> list:
    """Per command, in order, the columns it fires and its events; the
    first command acts at ``t`` and each later one a dwell after the one
    before (``t += cmd.dwell``).

    Each run of commands whose masters have the same dipole count is
    stacked and decided by one :func:`_hits` call.
    """
    out = []
    for _, run in itertools.groupby(commands, key=lambda cmd: len(cmd.pose.dipoles)):
        run = list(run)
        dipoles = np.array([cmd.pose.dipoles for cmd in run])  # (G, D, 2, 3)
        base = np.array([cmd.pose.position for cmd in run])[:, None]
        master, cols, norms = _hits(nodes, base + dipoles[:, :, 0], dipoles[:, :, 1])
        bounds = np.searchsorted(master, np.arange(len(run) + 1)).tolist()
        cols, norms = cols.tolist(), norms.tolist()
        for cmd, lo, hi in zip(run, bounds, bounds[1:]):
            out.append((tuple(cols[lo:hi]),
                        [Event(t, *nodes.columns[col], norm,
                               nodes.columns[col] == cmd.intended)
                         for col, norm in zip(cols[lo:hi], norms[lo:hi])]))
            t += cmd.dwell
    return out


def execute_command(grid, command: Command, t: float = 0.0) -> list:
    """Decode one command at every node; events carry the intended flag.

    ``t`` is the events' time, a finite number.
    """
    t = mag.finite(t, "command time")
    (_, events), = _decide(_Nodes(grid), _commands([command]), t)
    return events


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
    """Decode every command at every node: the 0/1 table and the event log.

    Command i acts at the sum of the dwells before it. The commands are
    decided in blocks: a block is a run of consecutive commands whose
    masters have the same dipole count, within the caps of :func:`_hits`,
    and takes one grouped kernel call and one decode. The events have the
    bits of :func:`execute_command` at each command's time: the dipole
    kernel is elementwise with a running sum over the dipoles, so a group
    gets the bits of a shared-source call on its points, and the decode is
    per row.
    """
    nodes = _Nodes(grid)
    commands = _commands(commands)
    decided = _decide(nodes, commands, 0.0)
    return TruthTable(
        nodes.columns,
        tuple(cols for cols, _ in decided),
        tuple(len(events) == 1 and events[0].intended for _, events in decided),
        tuple(cmd.intended for cmd in commands),
        tuple(e for _, events in decided for e in events))


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
    under float round-off. A master whose moment overflows, or whose field
    at the target underflows to zero, is a ConfigError.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _calibrate(depth, field, style, field_direction, separation)
    except ArithmeticError:
        raise ConfigError(f"{style} master cannot be calibrated in floating point "
                          f"(depth {depth:g}, field {field:g})") from None


def _calibrate(depth, field, style, field_direction, separation) -> MasterPose:
    mag.finite(depth, "master depth", 0.0)
    mag.finite(field, "master field", 0.0)
    if field_direction is not None:
        field_direction = mag.unit(mag.vector(field_direction, "field direction"),
                                   "field direction")
    boost = 1.0 + _CALIBRATION_HEADROOM
    position = (0.0, 0.0, depth)
    if style == "auto":
        style = "axial" if field_direction is not None \
            and abs(field_direction[2]) > 0.5 else "lateral"
    if style in ("axial", "composite"):
        fdir = np.array([0.0, 0.0, -1.0]) if field_direction is None else field_direction
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
        fdir = np.array([1.0, 0.0, 0.0]) if field_direction is None else field_direction
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
    threshold = mag.finite(threshold, "threshold", 0.0)
    depth = mag.finite(depth, "depth", 0.0)
    if not mag.finite(isolation_frac, "isolation_frac", 0.0) <= 1.0:
        raise ConfigError("isolation_frac must lie in (0, 1]")
    a = mag.unit(mag.vector(axis, "spacing axis"), "spacing axis")
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


def _noisy_sources(pose: MasterPose, rng, n_cycles: int, angle_sigma_deg: float,
                   magnitude_sigma_T: float, nominal_B: float) -> tuple:
    """Dipole positions and moments (n_cycles, D, 3) of ``pose`` under seeded noise.

    Each cycle draws, in this order, a tilt (normal, degrees) and the
    azimuth of its in-plane axis (uniform), then a field error at the
    intended node (normal, tesla) that scales the moments by
    1 + error / ``nominal_B``; a sigma of 0 draws nothing. The stream is
    drawn in one pass as ``standard_normal`` and ``random`` primitives,
    then scaled as numpy's ``normal(0, s)`` and ``uniform(0, 2 pi)`` scale
    them (``0.0 + s * x``, signed zeros included), so its bits equal
    those of one scaled call per draw. The tilt rotates the offsets and
    moments about ``pose.position`` with one stacked matmul, which keeps
    each cycle's bits equal to ``R @ v``.
    """
    calls, scales = [], []
    if angle_sigma_deg > 0.0:
        calls += [rng.standard_normal, rng.random]
        scales += [angle_sigma_deg, 2 * np.pi]
    if magnitude_sigma_T > 0.0:
        calls.append(rng.standard_normal)
        scales.append(magnitude_sigma_T)
    draws = np.fromiter((f() for _ in range(n_cycles) for f in calls), float,
                        n_cycles * len(calls)).reshape(n_cycles, len(calls))
    draws = draws * scales + 0.0
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
        moments = (1.0 + draws[:, -1] / nominal_B)[:, None, None] * moments
    return np.asarray(pose.position) + offsets, moments


def endurance_campaign(grid, command: Command, n_cycles: int,
                       noise: dict | None = None, seed: int = 0) -> EnduranceStats:
    """Repeat one command with seeded pose noise; exact binomial bounds.

    ``noise`` keys: "angle_sigma_deg" (tilt of the whole master) and
    "magnitude_sigma_T" (field error at the intended node, converted to a
    moment scale factor), each >= 0. A failure is any cycle with a false
    trigger or a missed intended activation. Every cycle's master comes
    from :func:`_noisy_sources` and one :func:`_hits` call decodes them
    all, like a truth table's commands; the counts come from its arrays,
    per cycle against the intended column. Magnitude noise needs a
    non-zero nominal field at the intended node. Without noise every
    cycle is the nominal pose, so one cycle is decoded and counted
    n_cycles times.
    """
    n_cycles = mag.finite(n_cycles, "n_cycles", 1, inclusive=True, integer=True,
                          high=MAX_CYCLES)
    seed = mag.finite(seed, "seed", 0, inclusive=True, integer=True)
    if not isinstance(noise, dict | None):
        raise ConfigError(f"noise must be a dict or None, got {noise!r}")
    noise = dict(noise or {})
    angle_sigma = mag.finite(noise.pop("angle_sigma_deg", 0.0),
                             "angle_sigma_deg", 0.0, inclusive=True)
    mag_sigma = mag.finite(noise.pop("magnitude_sigma_T", 0.0),
                           "magnitude_sigma_T", 0.0, inclusive=True)
    if noise:
        raise ConfigError(f"unknown noise fields {sorted(noise)}")
    nodes = _Nodes(grid)
    _commands([command])
    node = next((n for n in nodes.grid if n.id == command.intended[0]), None)
    if node is None:
        raise ConfigError(f"intended node {command.intended[0]!r} not in grid")
    if command.intended not in nodes.columns:
        raise ConfigError(f"node {node.id!r} has no channel {command.intended[1]!r}")
    nominal_B = 0.0
    if mag_sigma > 0.0:
        nominal_B = float(np.linalg.norm(master_field_at(command.pose, node.position)))
        if nominal_B == 0.0:
            raise ConfigError("magnitude_sigma_T needs a non-zero master field "
                              f"at node {node.id!r}; it is 0 there")
    noisy = angle_sigma > 0.0 or mag_sigma > 0.0
    drawn = n_cycles if noisy else 1
    # without draws no generator is made: numpy loads numpy.random (about
    # 6 MiB) on first use
    rng = np.random.default_rng(seed) if noisy else None
    master, cols, _ = _hits(nodes, *_noisy_sources(command.pose, rng, drawn, angle_sigma,
                                                   mag_sigma, nominal_B))
    hit = cols == nodes.columns.index(command.intended)
    bad = np.bincount(master[~hit], minlength=drawn)
    missed = np.bincount(master[hit], minlength=drawn) == 0
    false_triggers, misses, failures = (n_cycles // drawn * int(c.sum())
                                        for c in (bad, missed, missed | (bad > 0)))
    return EnduranceStats(
        n_cycles, false_triggers, misses, failures,
        _cp_upper(failures, n_cycles, 0.05),
        _cp_upper(failures, n_cycles, 0.025),
    )


def sealing_check(node: NodeSpec, log) -> bool:
    """True iff the node stayed sealed until its first intended command.

    Any event on this node earlier than its first intended event is a leak.
    """
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
