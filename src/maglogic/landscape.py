"""One-dimensional potential landscapes of track-guided movers.

A *unit* is a triplet of fixed stator magnets, a mover magnet sliding between
two hard stops on a straight track, and the stops themselves. A spatially
uniform broadcast key adds ``-m . B_key`` to the energy; because the key is
uniform it exerts no translational force directly. Selectivity comes from the
mover's rotational degree of freedom: the mover moment relaxes to torque
equilibrium with the local total field (stators + other movers + key), so a
key that overpowers the local stator field flips the mover and turns stator
attraction into repulsion, destabilizing the inner basin.

With every moment either fixed (stators, frozen movers) or at torque
equilibrium (the swept mover), the axial force equals the exact derivative
``-dU/dx``: the orientation response contributes nothing at equilibrium.

Non-target movers are frozen at their current latched coordinates with
orientations equilibrated once per (key, mover positions), with every mover,
the target included, at its latched coordinate; they are then treated as
fixed sources while the target sweeps. The equilibrium does not depend on
which unit sweeps, so one set-up pass serves every unit, every key and
every topology of a call: one orientation solve runs a set per (topology,
key) in lockstep, one array pass per fixed-point iteration, and one
elementwise pass gives the pair energies of the fixed assembly in every
set. :func:`decisions_for_keys` is the one-topology case; the design
screen sets a batch of candidate topologies of one shape up together.
This keeps the force/energy consistency exact and captures the
leading-order coupling between units.

One evaluator computes U(x) and F(x) of a mover everywhere, in groups of
points, each on one profile's sources. The 256-point grids of every
(topology, key, unit) of an engine call, and the 1025-point basin grids
asked for in one lockstep step, are one group each, and consecutive
groups share a call while they hold at most ``magnetics.GROUP_PAIRS``
(fixed dipole x point) pairs: 12 demo profile grids, 3 demo basin grids
or 5 of a two-unit screen candidate per call. A lockstep step's rows are
one call with groups of one point. The ``magnetics`` module docstring
gives the layout and the bit rules of its one fused pass; groups are
independent, so how they are split into calls moves no bit. A mover in
zero field keeps the direction of the row before it in its group, and a
group's first row takes the track axis.

Root finding runs as a lockstep engine. Bisection, the stability energy
triples, the barrier energies and root polishing are generator "machines"
on one (key, unit) profile each; every step gathers the points all open
machines ask for and evaluates them in one pass. A bisection asks in one
step for the midpoints of its next BISECT_LEVELS levels, the tree below
its bracket, and walks them with the sign test and stop rules of a
one-point loop: it takes the same path to the same root in about a
quarter of the steps. Each machine keeps its own brackets and stop
rules, and each row has the bits of a one-point evaluation, so a
multi-key or multi-topology call decides exactly what one call per key
and topology would.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from . import magnetics as mag
from .errors import (
    ConfigError,
    EnergyBudgetError,
    MaglogicError,
    NotAnchoredError,
)
from .magnetics import FieldKey, MagnetSource, MagnetSpec

DEFAULT_SAMPLES = 256
FORCE_EPS = 1e-12  # newtons; |F| below this is "zero" for classification
ENERGY_EPS = 1e-18  # joules
EQUILIBRIUM_XTOL = 1e-9  # meters, bisection stop
# bisection levels per lockstep step, 2**L - 1 midpoints asked at once.
# Median CPU time per round over alternating rounds (three runs of 7-15
# rounds, one pinned CPU of a 2-core x86-64 VM): L = 3, 4 and 5 lie
# within 5 % of each other on the demo sweep and on the 120-candidate
# screen, and L = 1, one midpoint per step, is 15-30 % slower on the
# sweep. L = 4 cuts a demo sweep's lockstep steps from 1093 to 346.
BISECT_LEVELS = 4
# fraction of the basin adjacent to a barrier crest excluded from the margin
# minimum (the restoring force vanishes exactly at the crest, so the literal
# minimum would always be zero there)
CREST_EXCLUSION = 0.01
_BASIN_GRID = 1025
# the most samples per profile, about 1000 times a basin grid; checked
# before any grid is built
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class MoverTrack:
    """Straight 1-DoF track: mover center sits at ``origin + x * axis``.

    stroke = (x_in, x_out) are the hard-stop coordinates in meters along the
    axis, x_out > x_in, at two distinct finite points. ``mover`` fixes the
    mover magnet's |m|; its moment direction is a fast rotational degree of
    freedom (see module docstring).
    """

    axis: tuple
    origin: tuple
    stroke: tuple
    mover: MagnetSpec
    mass: float
    friction_force: float = 0.0

    def __post_init__(self):
        axis = mag.unit(mag.vector(self.axis, "track axis"), "track axis")
        object.__setattr__(self, "axis", tuple(float(c) for c in axis))
        object.__setattr__(self, "origin", mag.vector(self.origin, "track origin"))
        x_in, x_out = mag.vector(self.stroke, "stroke", 2)
        if not x_out > x_in:
            raise ConfigError("stroke must satisfy x_out > x_in")
        object.__setattr__(self, "stroke", (x_in, x_out))
        # far from the origin the stops can overflow or round to one point
        with np.errstate(over="ignore"):
            ends = self.point(self.stroke)
        if not (np.isfinite(ends).all() and (ends[0] != ends[1]).any()):
            raise ConfigError(f"track stops must be two distinct finite points, "
                              f"got {ends.tolist()}")
        mag.finite(self.mass, "mover mass", 0.0)
        mag.finite(self.friction_force, "friction force", 0.0, inclusive=True)

    @property
    def x_in(self) -> float:
        return self.stroke[0]

    @property
    def x_out(self) -> float:
        return self.stroke[1]

    def point(self, x) -> np.ndarray:
        """World position(s) of the mover center at track coordinate(s) x."""
        x = np.asarray(x, dtype=float)
        return np.asarray(self.origin) + np.multiply.outer(x, np.asarray(self.axis))

    def mover_moment_mag(self) -> float:
        return float(np.linalg.norm(mag.moment_from_spec(self.mover)))


@dataclass(frozen=True)
class UnitTriplet:
    """One addressable unit: stators + guided mover + hard stops."""

    id: str
    stators: tuple
    track: MoverTrack
    assigned_key: str | None = None

    def __post_init__(self):
        mag.text(self.id, "unit id")
        mag.text(self.assigned_key, "assigned key", optional=True)
        stators = tuple(self.stators)
        if not all(isinstance(s, MagnetSource) for s in stators):
            raise ConfigError("stators must be MagnetSource instances")
        object.__setattr__(self, "stators", stators)
        # a stator on the sweep segment would be struck by the mover
        ends = self.track.point(self.track.stroke)
        for s in stators:
            if point_segment_distance(s.position, *ends) < 1e-9:
                raise ConfigError(
                    f"stator of unit {self.id!r} lies on the stroke segment"
                )


@np.errstate(over="ignore", invalid="ignore")
def point_segment_distance(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from ``point`` to the segment from ``a`` to ``b``. A segment
    whose squared length overflows or rounds to zero can give NaN, which
    is below no distance."""
    ab = b - a
    t = float(np.clip((point - a) @ ab / (ab @ ab), 0.0, 1.0))
    return float(np.linalg.norm(point - (a + t * ab)))


def rest_positions(topology) -> dict:
    """All movers latched at their inner stops."""
    return {u.id: u.track.x_in for u in topology}


def equilibrate_orientations(topology, positions, key: FieldKey | None):
    """Torque-equilibrium moment directions for every mover.

    Fixed point of u_i = unit(B(stators + key + other movers) at mover i),
    iterated to 1e-13. Movers in near-zero total field keep the track axis.
    The one-key case of the lockstep solve that :func:`decisions_for_keys`
    runs for all of its keys at once.
    """
    units = list(topology)
    _, _, dirs = _batch_orientations([units], [positions], *_key_vectors([key]))
    return {u.id: dirs[0, 0, i] for i, u in enumerate(units)}


def _key_vectors(keys):
    """Key vectors (Q, 3), zero for a None key, and the (Q,) has-key mask.

    Every entry point passes its keys through here; raises ConfigError
    unless ``keys`` is a list or tuple of FieldKey or None.
    """
    if not (isinstance(keys, (list, tuple))
            and all(k is None or isinstance(k, FieldKey) for k in keys)):
        raise ConfigError(f"keys must be a sequence of FieldKey or None, got {keys!r}")
    return (np.array([np.zeros(3) if k is None else k.vector for k in keys]).reshape(-1, 3),
            np.array([k is not None for k in keys], dtype=bool))


def _shape(units) -> tuple:
    """What topologies must share to be set up and decided together: the
    unit count, stators per unit and sub-dipoles per stator (None for a
    point dipole)."""
    return tuple(tuple(None if s.subdipoles is None else len(s.subdipoles)
                       for s in u.stators) for u in units)


def _stator_dipoles(topologies) -> list:
    """Positions and moments (T, S, 3) of every stator dipole of each of T
    topologies of one :func:`_shape`, in unit order."""
    return [np.reshape([d for units in topologies for u in units
                        for s in u.stators for d in f(s)], (len(topologies), -1, 3))
            for f in (MagnetSource.dipole_positions, MagnetSource.dipole_moments)]


def _batch_orientations(topologies, positions, kvecs, has_key):
    """Mover centres (T, n, 3), moment magnitudes (T, n) and the directions
    (T, Q, n, 3) of T topologies of one :func:`_shape`, each latched at its
    ``positions`` dict, under Q keys (:func:`_key_vectors`).

    One lockstep :func:`magnetics.equilibrium_directions` solve takes a set
    per (topology, key). The stator field at the movers is one per-row
    kernel call over every stator dipole of each topology, in unit order,
    added to zeros, then each key is added to it. The kernel's running sum
    then has the bits of summing stator by stator from zeros wherever no
    stator after a topology's first has sub-dipoles.
    """
    for units in topologies:
        if not units:
            raise ConfigError("topology has no units")
        if len({u.id for u in units}) != len(units):
            raise ConfigError("unit ids must be unique")
    pts = np.array([[u.track.point(p[u.id]) for u in units]
                    for units, p in zip(topologies, positions)])
    mags = np.array([[u.track.mover_moment_mag() for u in units] for units in topologies])
    axes = np.array([[u.track.axis for u in units] for units in topologies])
    n_topo, n = mags.shape
    # every stator dipole of each topology, once per mover of that topology
    per_row = [np.repeat(a, n, axis=0) for a in _stator_dipoles(topologies)]
    base = np.zeros((n_topo, len(kvecs), n, 3))
    base += mag.dipole_field(*per_row, pts.reshape(-1, 3)).reshape(n_topo, 1, n, 3)
    np.add(base, kvecs[:, None, :], out=base, where=has_key[:, None, None])

    def per_set(a):  # one copy per key
        return np.repeat(a, len(kvecs), axis=0)

    dirs = mag.equilibrium_directions(per_set(pts), per_set(mags),
                                      base.reshape(-1, n, 3), per_set(axes))
    return pts, mags, dirs.reshape(base.shape)


@dataclass(frozen=True)
class Equilibrium:
    position: float
    stable: bool


@dataclass(frozen=True)
class LandscapeProfile:
    """Sampled landscape of one unit under one key.

    xs are track coordinates (endpoints included), energy in joules (full
    assembly energy with the target at x), force_axial in newtons (axial
    component of the net magnetic force on the target mover). ``track`` is
    the unit's track and ``_args`` the profile's rows of :func:`_evaluate`'s
    arguments but ``xs``, built by :func:`_batch_profiles`: without them
    the profile cannot be evaluated off its samples.
    """

    unit_id: str
    key: FieldKey
    xs: np.ndarray
    energy: np.ndarray
    force_axial: np.ndarray
    equilibria: tuple | None = None
    track: MoverTrack | None = None
    _args: tuple | None = None

    @property
    def x_in(self) -> float:
        return float(self.xs[0])

    @property
    def x_out(self) -> float:
        return float(self.xs[-1])


def _evaluate(origin, axis, m_mag, pos, m, key, has_key, const, xs):
    """Energy and axial force (G, n) of G groups of mover positions.

    Group g is the n track coordinates ``xs[g]`` on the profile whose
    :func:`_evaluate` arguments are the g-th rows of the others, as
    :func:`_stack` stacks them: sources ``pos``, ``m`` (G, K, 3). One
    :func:`magnetics.field_and_forces` pass serves every group, ``key``
    added to the field where ``has_key``, the moments by the zero-field
    rule of the module docstring, with the norms and the zero-field mask
    in the pass's scratch buffer; the two results are arrays of their own.
    """
    n = xs.shape[1]

    def orient(B, u, work):
        np.add(B, key.T[..., None], out=B, where=has_key[:, None])
        # np.linalg.norm's order, (x x + y y) + z z
        norms, square, flags = work
        np.multiply(B[0], B[0], out=norms)
        norms += np.multiply(B[1], B[1], out=square)
        norms += np.multiply(B[2], B[2], out=square)
        np.sqrt(norms, out=norms)
        # the zero-field mask takes the first n bytes of each row of flags
        ok = np.greater(norms, 1e-30, out=flags.view(bool)[:, :n])
        np.divide(B, norms, out=u, where=ok)
        if not ok.all():
            u[:, ~ok] = np.broadcast_to(axis.T[..., None], B.shape)[:, ~ok]
            prev = np.maximum.accumulate(np.where(ok, np.arange(n), -1), axis=1)
            fill = ~ok & (prev >= 0)
            u[:, fill] = u[:, np.nonzero(fill)[0], prev[fill]]
        u *= m_mag[:, None]

    mb, force = mag.field_and_forces(pos, m, origin, axis, xs, orient)
    return np.subtract(const[:, None], mb, out=mb), force


def _stack(profiles) -> tuple:
    """:func:`_evaluate`'s arguments, one group per profile, of profiles
    of topologies of one :func:`_shape`.

    Every such profile has the same fixed-dipole count K (all stators plus
    every mover but its own), so the fixed dipoles stack into (P, K, 3)
    arrays without padding.
    """
    if any(p._args is None for p in profiles):
        raise MaglogicError("profile lost its evaluation context")
    return tuple(np.stack(a) for a in zip(*(p._args for p in profiles)))


def _group_calls(stacked, rows, xs):
    """Yield (slice, energy, axial force) of each :func:`_evaluate` call on
    the groups ``xs``, a sequence of G equal-length grids, group g on
    profile ``rows[g]`` of :func:`_stack`'s ``stacked``.

    Consecutive groups go to one call while their (fixed dipole x point)
    pairs stay within ``magnetics.GROUP_PAIRS``, so a call passes it only
    when a single group does. Groups are independent, so the split moves
    no bit.
    """
    per_call = max(1, mag.GROUP_PAIRS // max(1, stacked[3].shape[1] * len(xs[0])))
    for at in range(0, len(xs), per_call):
        part = slice(at, at + per_call)
        yield part, *_evaluate(*(a[rows[part]] for a in stacked), np.asarray(xs[part]))


def _evaluate_groups(stacked, rows, xs):
    """Energy and axial force (G, n) of the groups ``xs`` (G, n), as
    :func:`_group_calls` evaluates them."""
    energy, force = np.empty(xs.shape), np.empty(xs.shape)
    for part, part_energy, part_force in _group_calls(stacked, rows, xs):
        energy[part], force[part] = part_energy, part_force
    return energy, force


def _evaluate_rows(stacked, rows, xs):
    """Energy and axial force of profile ``rows[i]`` at ``xs[i]``, each
    row a group of one point."""
    energy, force = _evaluate_groups(stacked, rows, xs[:, None])
    return energy[:, 0], force[:, 0]


def _step(stacked, asks):
    """Yield (machine, reply) for one lockstep step's (machine, points)
    asks, machine i on profile i of ``stacked``.

    A list of track coordinates asks for rows, each a group of one point,
    and an array for one group of its points. The rows of every ask are
    one :func:`_evaluate_rows` pass; the grids of each length follow in
    :func:`_group_calls` calls, each call's replies yielded before the
    next call is made. A reply is the (energy, axial force) arrays of its
    points.
    """
    rows = [(i, xs) for i, xs in asks if isinstance(xs, list)]
    if rows:
        yield from _split(rows, *_evaluate_rows(
            stacked, np.repeat([i for i, _ in rows], [len(xs) for _, xs in rows]),
            np.array([x for _, xs in rows for x in xs])))
    grids = [(i, xs) for i, xs in asks if not isinstance(xs, list)]
    for n in dict.fromkeys(len(xs) for _, xs in grids):
        same = [(i, xs) for i, xs in grids if len(xs) == n]
        for part, energy, force in _group_calls(stacked, np.array([i for i, _ in same]),
                                                [xs for _, xs in same]):
            yield from zip((i for i, _ in same[part]), zip(energy, force))


def _lockstep(profiles, machines):
    """Run root-finding machines in lockstep; return their results in order.

    ``machines[i]`` is a generator on profile ``profiles[i]``: it yields
    track coordinates, a list of rows or an array for one grid, is sent
    their (energy, axial force) arrays back, and returns its result. Each
    step evaluates every open machine's points together (:func:`_step`),
    so a machine sees exactly what a call on its points alone would give
    it, whatever else runs beside it.
    """
    if not machines:
        return []
    stacked = _stack(profiles)
    run = _gather(machines, flat=False)
    replies = None
    while True:
        try:
            asks = run.send(replies)
        except StopIteration as done:
            return done.value
        replies = _step(stacked, asks)


def _gather(machines, flat=True):
    """Machines in lockstep as one machine: each step asks for every open
    machine's points at once; returns their results in order.

    Flat, a step asks for the concatenated list of their points and is
    sent one (energy, force) pair of arrays to split. Otherwise it asks
    for the (machine index, points) pairs and is sent an iterable of
    (machine index, reply) pairs, which it sends on as they come.
    """
    results = [None] * len(machines)
    asks = {}

    def send(i, reply):
        try:
            asks[i] = machines[i].send(reply)
        except StopIteration as done:
            asks.pop(i, None)
            results[i] = done.value

    for i in range(len(machines)):
        send(i, None)
    while asks:
        order = list(asks.items())
        if flat:
            replies = _split(order, *(yield [x for _, xs in order for x in xs]))
        else:
            replies = yield order
        for i, reply in replies:
            send(i, reply)
    return results


def _split(asks, energy, force):
    """(machine, reply) of each (machine, points) ask, in order, from the
    energy and force arrays of all their points in a row."""
    at = np.cumsum([0, *(len(xs) for _, xs in asks)])
    return ((i, (energy[a:b], force[a:b])) for (i, _), a, b in zip(asks, at, at[1:]))


def _unit_index(units, unit_id: str) -> int:
    for i, u in enumerate(units):
        if u.id == unit_id:
            return i
    raise ConfigError(f"unknown unit id {unit_id!r}")


def sample_profile(
    topology,
    unit_id: str,
    key: FieldKey | None,
    n_samples: int = DEFAULT_SAMPLES,
    mover_positions: dict | None = None,
) -> LandscapeProfile:
    """Sample U(x) and F_axial(x) of one unit's mover over its stroke.

    All other movers are held at ``mover_positions`` (default: inner stops)
    as fixed sources; see the module docstring for the orientation model.
    """
    units = list(topology)
    target = _unit_index(units, unit_id)
    positions = _latched_positions(units, n_samples, mover_positions)
    return _batch_profiles([units], [target], [key], n_samples, [positions])[0]


def _latched_positions(units, n_samples, mover_positions) -> dict:
    """Every mover's latched coordinate: inner stops, then ``mover_positions``.

    Checks ``n_samples`` too. A position must name a unit of the topology
    and be a finite real inside that unit's stroke, ends included.
    """
    mag.finite(n_samples, "n_samples", 16, inclusive=True, integer=True,
               high=MAX_SAMPLES)
    if not isinstance(mover_positions, (dict, type(None))):
        raise ConfigError(f"mover positions must be a dict, got {mover_positions!r}")
    positions = rest_positions(units)
    tracks = {u.id: u.track for u in units}
    for uid, x in (mover_positions or {}).items():
        if uid not in tracks:
            raise ConfigError(f"mover position names unknown unit id {uid!r}")
        x = mag.finite(x, f"mover position of unit {uid!r}")
        if not tracks[uid].x_in <= x <= tracks[uid].x_out:
            raise ConfigError(
                f"mover position of unit {uid!r} must lie in its stroke "
                f"{tracks[uid].stroke}, got {x!r}")
        positions[uid] = x
    return positions


def _batch_profiles(topologies, targets, keys, n_samples, positions) -> list:
    """Profile of each ``targets`` index of each topology under each key,
    topology-major, then key-major, every other mover a fixed source.

    The topologies share one :func:`_shape`, and topology i has its movers
    latched at ``positions[i]``. One lockstep orientation solve
    (:func:`_batch_orientations`) serves every (topology, key), and one pass
    gives every (topology, key, target) constant energy:
    ``assembly_energy`` of the stators and the other movers. The stacked
    :func:`_evaluate` arguments and grids of every (topology, key, target)
    are array operations over all the topologies at once: one shape is one
    fixed-row layout, so one ``fixed`` index array picks each target's
    fixed dipoles out of every topology, and one ``linspace`` makes every
    grid. The grids are one group each of one :func:`_evaluate_groups`
    pass.
    """
    kvecs, has_key = _key_vectors(keys)
    if not keys or not topologies:
        return []
    pts, mags, dirs = _batch_orientations(topologies, positions, kvecs, has_key)
    mover_m = mags[:, None, :, None] * dirs
    n_topo, n_keys, n = dirs.shape[:3]
    consts = mag.assembly_energies(
        [[s for u in units for s in u.stators] for units in topologies for _ in keys],
        np.repeat(pts, n_keys, axis=0), mover_m.reshape(-1, *pts.shape[1:]),
        np.tile(kvecs, (n_topo, 1)), np.tile(has_key, n_topo),
        targets).reshape(n_topo, n_keys, -1)
    # dipole rows: every stator dipole, then every mover. A target's fixed
    # dipoles are each unit's stators then its mover, in unit order, but
    # its own mover
    s_pos, s_m = _stator_dipoles(topologies)
    at = np.cumsum([0, *(sum(1 if d is None else d for d in u) for u in _shape(topologies[0]))])
    order = np.array([r for i in range(n) for r in (*range(at[i], at[i + 1]), at[-1] + i)])
    fixed = np.array([order[order != at[-1] + t] for t in targets])
    pos = np.concatenate([s_pos, pts], axis=1)[:, None, fixed]
    m = np.concatenate([np.broadcast_to(s_m[:, None], (n_topo, n_keys, *s_m.shape[1:])),
                        mover_m], axis=2)[:, :, fixed]
    tracks = [units[t].track for units in topologies for t in targets]
    origin, axis, stroke = (np.reshape([getattr(tr, f) for tr in tracks], (n_topo, 1, -1, k))
                            for f, k in (("origin", 3), ("axis", 3), ("stroke", 2)))
    groups = (n_topo, n_keys, len(targets))

    def rows(a, *shape):  # one row per (topology, key, target)
        out = np.empty(groups + shape, a.dtype)
        out[...] = a  # broadcasts
        return out.reshape(n_topo * n_keys * len(targets), *shape)

    stacked = (rows(origin, 3), rows(axis, 3), rows(mags[:, None, targets]),
               rows(pos, *pos.shape[-2:]), rows(m, *m.shape[-2:]),
               rows(kvecs[:, None], 3), rows(has_key[:, None]), rows(consts))
    grid = np.linspace(stroke[..., 0], stroke[..., 1], n_samples, axis=-1)
    if (np.subtract(stroke[..., 1], stroke[..., 0]) / (n_samples - 1) == 0).any():
        # a step that underflows sends every grid of one linspace call down
        # numpy's subnormal branch: make each grid alone, as one track would
        grid = np.reshape([np.linspace(*tr.stroke, n_samples) for tr in tracks], grid.shape)
    xs = rows(grid, n_samples)
    energy, force = _evaluate_groups(stacked, np.arange(len(xs)), xs)
    named = [(units[t].id, key, units[t].track)
             for units in topologies for key in keys for t in targets]
    return [LandscapeProfile(uid, key, xs[g], energy[g], force[g], None, track,
                             tuple(a[g, ...] for a in stacked))
            for g, (uid, key, track) in enumerate(named)]


def refine_equilibria(profile: LandscapeProfile):
    """Bisect every interior sign change of F_axial to |dx| < EQUILIBRIUM_XTOL.

    Stability comes from the local curvature of U (positive second
    difference = stable). Returns a copy of the profile with ``equilibria``.
    The one-profile case of the lockstep engine that
    :func:`decisions_for_keys` runs over many profiles.
    """
    eqs = _lockstep([profile], [_equilibria(profile)])[0]
    return replace(profile, equilibria=eqs)


def _equilibria(profile: LandscapeProfile):
    """Machine of :func:`refine_equilibria`: every bracket bisects in
    lockstep, then one step takes every root's stability triple."""
    xs, F = profile.xs, profile.force_axial
    f0, f1 = F[:-1], F[1:]
    touch = (f0 == 0.0) & (np.abs(f1) > 0)
    roots = yield from _gather([
        _bisect(float(xs[i]), float(xs[i + 1]), float(F[i]))
        for i in np.nonzero(touch | (f0 * f1 < 0.0))[0]
    ])
    if not roots:
        return ()
    h = max(1e-7, (profile.x_out - profile.x_in) * 1e-5)
    triples = []
    for r in roots:
        triples += [max(r - h, profile.x_in), r, min(r + h, profile.x_out)]
    energy, _ = yield triples
    return tuple(Equilibrium(r, bool((lo - mid) + (hi - mid) > 0.0))
                 for r, (lo, mid, hi) in zip(roots, energy.reshape(-1, 3).tolist()))


def _midpoints(a: float, b: float, levels: int) -> list:
    """Midpoints of the next ``levels`` bisection levels of [a, b],
    breadth first: point j halves the bracket of node j, whose left and
    right halves are nodes 2j + 1 and 2j + 2."""
    brackets, xs = [(a, b)], []
    for j in range(2 ** levels - 1):
        lo, hi = brackets[j]
        m = 0.5 * (lo + hi)
        xs.append(m)
        brackets += [(lo, m), (m, hi)]
    return xs


def _tree_bisect(a: float, b: float, up: bool, steps: int, done):
    """Machine: bisect [a, b] for at most ``steps`` halvings, ``up`` the
    sign test ``F(a) > 0``; returns the final (a, b).

    Each lockstep step asks for the midpoints of the next BISECT_LEVELS
    levels (:func:`_midpoints`), then walks them as the one-point loop
    would: a midpoint whose ``F > 0`` matches ``up`` becomes ``a`` (so
    ``up`` stays the sign test of ``F(a)``), any other becomes ``b``.
    ``done(a, b, m, fm)``, asked before evaluating midpoint ``m`` (``fm``
    None) and after each halving, stops the walk, so the bracket is the
    one-point loop's bit for bit.
    """
    while steps:
        levels = min(BISECT_LEVELS, steps)
        xs = _midpoints(a, b, levels)
        force = (yield xs)[1]
        j = 0
        for _ in range(levels):
            m = xs[j]
            if done(a, b, m, None):
                return a, b
            fm = float(force[j])
            if (fm > 0) == up:
                a, j = m, 2 * j + 2
            else:
                b, j = m, 2 * j + 1
            steps -= 1
            if done(a, b, m, fm):
                return a, b
    return a, b


def _bisect(a: float, b: float, fa: float):
    """Machine: bisect the force sign change in [a, b]; returns the root,
    ``a`` itself when the force vanishes there."""
    if fa == 0.0:
        return a

    # keep halving past EQUILIBRIUM_XTOL until the residual force is
    # negligible, so re-evaluating at the root gives |F| < 1e-9 N even
    # for stiff profiles (steep dF/dx)
    def done(a, b, m, fm):
        return fm is not None and (
            b - a < EQUILIBRIUM_XTOL and abs(fm) < 1e-10 or b - a < 1e-14)

    a, b = yield from _tree_bisect(a, b, fa > 0, 200, done)
    return 0.5 * (a + b)


@dataclass(frozen=True)
class LandscapeDecision:
    """Classified landscape: stability class plus actuation figures."""

    unit_id: str
    key_label: str
    clazz: str  # monostable_inner | monostable_outer | bistable
    snap_through: bool
    degenerate: bool
    barrier_out: float  # J, escape barrier from the inner state (0 if none)
    anchoring_force: float | None  # N, None when not anchored
    driving_peak: float  # N, max axial force over the stroke
    inner_attractor: float | None
    outer_attractor: float | None
    force_at_inner_stop: float  # N, signed axial force at x_in


def _attractor_from(side_inner: bool, profile: LandscapeProfile):
    """Where a mover left at the inner (``side_inner``) or the outer stop
    comes to rest, walking from that stop: the first force above FORCE_EPS
    either presses it into the stop or slides it to the first stable
    equilibrium ahead, else to the other stop."""
    step = 1 if side_inner else -1
    xs, F = profile.xs[::step], profile.force_axial[::step]
    eqs = (profile.equilibria or ())[::step]
    i = next((i for i, f in enumerate(F) if abs(f) > FORCE_EPS), None)
    if i is None or F[i] * step < 0:
        return float(xs[0])  # flat, or pressed into this stop
    # an unstable point ahead is a U-maximum the force pushed toward,
    # only possible from a tangency: the mover keeps sliding past it
    return next((e.position for e in eqs if step * e.position > step * xs[i] and e.stable),
                float(xs[-1]))


def decide(profile: LandscapeProfile) -> LandscapeDecision:
    """Classify a (refined) profile. Refines equilibria if not done yet.

    Snap-through must beat the track's friction force. The one-profile case
    of the lockstep engine that :func:`decisions_for_keys` runs over many
    profiles.
    """
    return _lockstep([profile], [_decision(profile)])[0]


def _decision(profile: LandscapeProfile):
    """Machine of :func:`decide`, refining first when needed."""
    F, U = profile.force_axial, profile.energy
    label = profile.key.label if profile.key is not None else ""
    degenerate = (
        np.abs(F).max() < FORCE_EPS and (U.max() - U.min()) < ENERGY_EPS
    )
    if degenerate:
        return LandscapeDecision(
            profile.unit_id, label, "monostable_inner", False, True,
            0.0, None, float(F.max()), profile.x_in, None, float(F[0]),
        )
    if profile.equilibria is None:
        profile = replace(profile, equilibria=(yield from _equilibria(profile)))
    a_in = _attractor_from(True, profile)
    a_out = _attractor_from(False, profile)
    bist = abs(a_in - a_out) > 1e-9
    if bist:
        clazz = "bistable"
    else:
        mid = 0.5 * (profile.x_in + profile.x_out)
        clazz = "monostable_inner" if a_in <= mid else "monostable_outer"
    anchored = abs(a_in - profile.x_out) > 1e-9
    snap = (not anchored) and bool(
        F[1:-1].min() > profile.track.friction_force)
    barrier = 0.0
    margin = None
    if anchored:
        crest = next(
            (e.position for e in profile.equilibria
             if not e.stable and e.position > a_in + 1e-12),
            None,
        )
        energy, _ = yield [a_in] if crest is None else [a_in, crest]
        u_inner = float(energy[0])
        if crest is not None:
            barrier = float(energy[1]) - u_inner
        else:
            seg = U[profile.xs >= a_in - 1e-12]
            barrier = float(seg.max() - u_inner) if len(seg) else 0.0
        margin = yield from _basin_margin(profile, a_in, crest)
    return LandscapeDecision(
        profile.unit_id, label, clazz, snap, False, float(barrier),
        margin, float(F.max()),
        a_in if anchored else None,
        a_out if abs(a_out - profile.x_in) > 1e-9 else None,
        float(F[0]),
    )


def _polish_root(x0: float, lo_cap: float, hi_cap: float):
    """Machine: re-bisect a force zero near x0 down to floating-point resolution.

    The coarse refinement stops at 1e-9 m, which is plenty for positions
    but leaks a first-order error into margins evaluated at points placed
    relative to the root (geometric-scale covariance wants ~1e-15).
    """
    delta = max(4e-9, abs(x0) * 1e-8)
    for _ in range(60):
        lo = max(lo_cap, x0 - delta)
        hi = min(hi_cap, x0 + delta)
        flo, fhi = (float(f) for f in (yield [lo, hi])[1])
        if (flo > 0) != (fhi > 0):
            break
        if lo == lo_cap and hi == hi_cap:
            return x0
        delta *= 4.0
    else:
        return x0

    def done(lo, hi, m, fm):  # the bracket is down to adjacent floats
        return fm is None and (m <= lo or m >= hi)

    lo, hi = yield from _tree_bisect(lo, hi, flo > 0, 90, done)
    return 0.5 * (lo + hi)


def _basin_margin(profile: LandscapeProfile, a_in: float, crest: float | None):
    """Machine: min restoring force over the inner basin, zero-force ends
    excluded.

    The restoring force vanishes exactly at a barrier crest and at an
    interior stable equilibrium, so a CREST_EXCLUSION fraction of the basin
    is trimmed at each such end; a boundary-anchored crestless basin (mover
    pressed against the inner stop, force nonzero out to the outer stop) is
    evaluated over its full extent. The crest is polished first, then the
    inner attractor capped by the polished crest; the grid is asked for as
    one group on the profile's own sources.
    """
    start = a_in
    end = crest if crest is not None else profile.x_out
    if crest is not None:
        end = yield from _polish_root(crest, start, profile.x_out)
    if a_in > profile.x_in + 1e-12:
        start = yield from _polish_root(a_in, profile.x_in, end)
    span = end - start
    if crest is not None:
        end = start + (1.0 - CREST_EXCLUSION) * span
    if a_in > profile.x_in + 1e-12:
        start = start + CREST_EXCLUSION * span
    if end - start < 1e-12:
        return 0.0
    _, F = yield np.linspace(start, end, _BASIN_GRID)
    return float(np.min(-F))


def unit_decision(
    topology,
    unit_id: str,
    key: FieldKey | None,
    n_samples: int = DEFAULT_SAMPLES,
    mover_positions: dict | None = None,
) -> LandscapeDecision:
    """sample + decide in one call (:func:`decide` refines)."""
    prof = sample_profile(topology, unit_id, key, n_samples, mover_positions)
    return decide(prof)


def decisions_for_key(
    topology,
    key: FieldKey | None,
    n_samples: int = DEFAULT_SAMPLES,
    mover_positions: dict | None = None,
) -> dict:
    """Decision of every unit under one key: :func:`decisions_for_keys`'s
    one-key case."""
    return decisions_for_keys(topology, [key], n_samples, mover_positions)[0]


def decisions_for_keys(
    topology,
    keys,
    n_samples: int = DEFAULT_SAMPLES,
    mover_positions: dict | None = None,
) -> list:
    """Decision of every unit under each key (movers latched elsewhere).

    Returns one ``{unit id: LandscapeDecision}`` dict per key, in key order;
    each entry equals that unit's ``unit_decision``. The one-topology case
    of :func:`_decisions_for_topologies`.
    """
    return _decisions_for_topologies([topology], keys, n_samples, mover_positions)[0]


def _decisions_for_topologies(topologies, keys, n_samples=DEFAULT_SAMPLES,
                              mover_positions=None) -> list:
    """:func:`decisions_for_keys` of each topology, with one set-up and one
    lockstep run for all of them.

    The topologies must share one :func:`_shape` (every candidate of one
    design template does) and each has its movers latched at
    ``mover_positions``. One lockstep orientation solve and one
    constant-energy pass serve every (topology, key, unit) profile (see
    :func:`_batch_profiles`). Their bisections, stability checks and root
    polishing then advance in lockstep, with one batched evaluation per
    step (see :func:`_lockstep`). Each row keeps its one-point bits, so
    every topology is decided exactly as it would be on its own.
    """
    topologies = [list(units) for units in topologies]
    if isinstance(keys, Iterable):  # a bare key or None is refused by _key_vectors
        keys = list(keys)
    positions = [_latched_positions(units, n_samples, mover_positions)
                 for units in topologies]
    if len({_shape(units) for units in topologies}) > 1:
        raise MaglogicError("topologies decided together must share one shape")
    targets = range(len(topologies[0]) if topologies else 0)
    profiles = _batch_profiles(topologies, targets, keys, n_samples, positions)
    decided = iter(_lockstep(profiles, [_decision(p) for p in profiles]))
    return [[{u.id: next(decided) for u in units} for _ in keys] for units in topologies]


def anchoring_margin(topology, unit_id: str, key: FieldKey | None) -> float:
    """Minimum restoring force (N) holding the mover in its inner basin.

    Raises NotAnchoredError when the unit has no stable inner state under
    this key (i.e. the key drives it or leaves it free).
    """
    dec = unit_decision(topology, unit_id, key)
    if dec.anchoring_force is None:
        raise NotAnchoredError(
            f"unit {unit_id!r} is not anchored under key {key.label if key else None!r}"
        )
    return dec.anchoring_force


def ejection_velocity(
    profile: LandscapeProfile,
    mass: float | None = None,
    friction_force: float | None = None,
) -> float:
    """Exit speed from the full-stroke energy budget.

    v = sqrt(2 (U(x_in) - U(x_out) - friction * stroke) / mass). Raises
    EnergyBudgetError when the budget is negative.
    """
    track = profile.track
    if mass is None:
        if track is None:
            raise ConfigError("mass required when the profile has no track")
        mass = track.mass
    if friction_force is None:
        friction_force = track.friction_force if track is not None else 0.0
    mag.finite(mass, "mass", 0.0)
    mag.finite(friction_force, "friction force", 0.0, inclusive=True)
    stroke = profile.x_out - profile.x_in
    budget = float(profile.energy[0] - profile.energy[-1]) - friction_force * stroke
    if budget <= 0.0:
        raise EnergyBudgetError("friction consumes the full energy drop")
    return float(np.sqrt(2.0 * budget / mass))


def force_density(topology, decisions) -> float:
    """Peak driving force per magnet volume, mN/mm^3.

    Uses the max driving peak over snap-through decisions and the total
    volume of every magnet in the topology (stators and movers).
    """
    peaks = [d.driving_peak for d in decisions if d.snap_through]
    if not peaks:
        raise MaglogicError("no snap-through decision to take a peak from")
    vol = total_magnet_volume(topology)
    if not vol:
        raise ConfigError("total magnet volume unknown or zero")
    return (max(peaks) * 1e3) / (vol * 1e9)


def total_magnet_volume(topology) -> float | None:
    """Volume of every stator and mover, m^3; None if a stator has no spec."""
    vol = 0.0
    for u in topology:
        for s in u.stators:
            if s.spec is None:
                return None
            vol += mag.volume(s.spec)
        vol += mag.volume(u.track.mover)
    return vol


def scale_topology(topology, s: float):
    """Geometrically similar topology: lengths x s, masses x s^3, friction x s^2.

    Moments then scale as s^3 and dipole fields are scale-invariant, so
    orientations are preserved, energies scale s^3 and forces s^2. Every
    copy is a ``dataclasses.replace`` of the original, so a field it does
    not scale is kept as it is.
    """
    mag.finite(s, "scale factor", 0.0)

    def spec(sp):
        return replace(sp, dims=tuple(d * s for d in sp.dims))

    def stator(st):
        subs = (None if st.subdipoles is None
                else tuple((np.asarray(o) * s, f) for o, f in st.subdipoles))
        if st.spec is None:
            # bare dipole: |m| = B_r V / mu0 scales with volume
            return replace(st, position=st.position * s, moment=st.moment * s**3,
                           subdipoles=subs)
        src = mag.source_from_spec(spec(st.spec), st.position * s,
                                   mag.unit(st.moment, "stator moment"))
        return replace(src, subdipoles=subs)

    out = []
    for u in topology:
        t = u.track
        track = replace(t, origin=tuple(np.asarray(t.origin) * s),
                        stroke=(t.x_in * s, t.x_out * s), mover=spec(t.mover),
                        mass=t.mass * s**3, friction_force=t.friction_force * s**2)
        out.append(replace(u, stators=tuple(map(stator, u.stators)), track=track))
    return out
