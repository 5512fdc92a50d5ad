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

One evaluator computes U(x) and F(x) of a mover everywhere, in groups
of points on one profile's sources: the 256-point grids of every unit
under one (topology, key) are one call with a group per unit, a
1025-point basin grid is a call with one group, and a lockstep step is a
call with groups of one point. The ``magnetics`` module docstring gives
the layout and the bit rules of its one fused pass. A mover in zero
field keeps the direction of the row before it in its group, and a
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
    axis, x_out > x_in. ``mover`` fixes the mover magnet's |m|; its moment
    direction is a fast rotational degree of freedom (see module docstring).
    """

    axis: tuple
    origin: tuple
    stroke: tuple
    mover: MagnetSpec
    mass: float
    friction_force: float = 0.0

    def __post_init__(self):
        axis = mag.unit(mag.vector(self.axis, "track axis"))
        object.__setattr__(self, "axis", tuple(float(c) for c in axis))
        object.__setattr__(self, "origin", mag.vector(self.origin, "track origin"))
        x_in, x_out = mag.vector(self.stroke, "stroke", 2)
        if not x_out > x_in:
            raise ConfigError("stroke must satisfy x_out > x_in")
        object.__setattr__(self, "stroke", (x_in, x_out))
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
    per_row = [np.repeat(np.reshape([d for units in topologies for u in units
                                     for s in u.stators for d in f(s)], (n_topo, -1, 3)),
                         n, axis=0)
               for f in (MagnetSource.dipole_positions, MagnetSource.dipole_moments)]
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


def _evaluate_at(profile: LandscapeProfile, xs):
    """Energy and axial force of ``profile`` at track coordinates xs (any
    length), one group."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    energy, force = _evaluate(*(a[None] for a in profile._args), xs[None])
    return energy[0], force[0]


def _evaluate(origin, axis, m_mag, pos, m, key, has_key, const, xs):
    """Energy and axial force (G, n) of G groups of mover positions.

    Group g is the n track coordinates ``xs[g]`` on the profile whose
    :func:`_evaluate` arguments are the g-th rows of the others, as
    :func:`_stack` stacks them: sources ``pos``, ``m`` (G, K, 3). One
    :func:`magnetics.field_and_forces` pass serves every group, ``key``
    added to the field where ``has_key``, the moments by the zero-field
    rule of the module docstring; ``force . axis`` is a per-group matmul.
    """
    n = xs.shape[1]
    pts = origin[:, None, :] + xs[..., None] * axis[:, None, :]

    def orient(B):
        np.add(B, key.T[..., None], out=B, where=has_key[:, None])
        # np.linalg.norm's order, (x x + y y) + z z
        norms = B[0] * B[0]
        norms += B[1] * B[1]
        norms += B[2] * B[2]
        np.sqrt(norms, out=norms)
        ok = norms > 1e-30
        u = np.empty_like(B)
        np.divide(B, norms, out=u, where=ok)
        if not ok.all():
            u[:, ~ok] = np.broadcast_to(axis.T[..., None], B.shape)[:, ~ok]
            prev = np.maximum.accumulate(np.where(ok, np.arange(n), -1), axis=1)
            fill = ~ok & (prev >= 0)
            u[:, fill] = u[:, np.nonzero(fill)[0], prev[fill]]
        u *= m_mag[:, None]
        return u

    mb, force = mag.field_and_forces(pos, m, pts, orient)
    return const[:, None] - mb, np.matmul(force, axis[:, :, None])[..., 0]


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


def _evaluate_rows(stacked, rows, xs):
    """Energy and axial force of profile ``rows[i]`` at ``xs[i]``, one pass
    of groups of one point."""
    energy, force = _evaluate(*(a[rows] for a in stacked), xs[:, None])
    return energy[:, 0], force[:, 0]


def _lockstep(profiles, machines):
    """Run root-finding machines in lockstep; return their results in order.

    ``machines[i]`` is a generator on profile ``profiles[i]``: it yields a list
    of track coordinates, is sent their (energy, axial force) arrays back,
    and returns its result. Each step evaluates the points of every open
    machine in one :func:`_evaluate_rows` pass, so a machine sees exactly
    what 1-point calls would give it, whatever else runs beside it.
    """
    if not machines:
        return []
    stacked = _stack(profiles)
    run = _gather([_tagged(i, m) for i, m in enumerate(machines)])
    reply = None
    while True:
        try:
            asks = run.send(reply)
        except StopIteration as done:
            return done.value
        reply = _evaluate_rows(stacked, np.array([i for i, _ in asks]),
                               np.array([x for _, x in asks]))


def _tagged(i, machine):
    """``machine``, each point it asks for paired with its profile ``i``."""
    reply = None
    while True:
        try:
            xs = machine.send(reply)
        except StopIteration as done:
            return done.value
        reply = yield [(i, x) for x in xs]


def _gather(machines):
    """Machines in lockstep as one machine: each step asks for every open
    machine's points at once; returns their results in order."""
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
        energy, force = yield [x for _, xs in order for x in xs]
        at = 0
        for i, xs in order:
            n = len(xs)
            send(i, (energy[at:at + n], force[at:at + n]))
            at += n
    return results


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
    ``assembly_energy`` of the stators and the other movers. The grids of
    every target under one (topology, key) are one grouped
    :func:`_evaluate` call, on one ``linspace`` per track and topology.
    """
    kvecs, has_key = _key_vectors(keys)
    if not keys or not topologies:
        return []
    pts, mags, dirs = _batch_orientations(topologies, positions, kvecs, has_key)
    mover_m = mags[:, None, :, None] * dirs
    n_keys = len(keys)
    consts = mag.assembly_energies(
        [[s for u in units for s in u.stators] for units in topologies for _ in keys],
        np.repeat(pts, n_keys, axis=0), mover_m.reshape(-1, *pts.shape[1:]),
        np.tile(kvecs, (len(topologies), 1)), np.tile(has_key, len(topologies)),
        targets).reshape(len(topologies), n_keys, -1)
    out = []
    for units, t_pts, t_mags, t_m, t_consts in zip(topologies, pts, mags, mover_m, consts):
        # every fixed dipole in unit order, each unit's stators then its
        # mover; a target drops its own mover's row
        pos, m, mover_rows = [], [], []
        for i, u in enumerate(units):
            for s in u.stators:
                pos.append(s.dipole_positions())
                m.append(np.broadcast_to(s.dipole_moments(), (n_keys, len(pos[-1]), 3)))
            mover_rows.append(sum(map(len, pos)))
            pos.append(t_pts[i:i + 1])
            m.append(t_m[:, i:i + 1])
        pos, m = np.concatenate(pos), np.concatenate(m, axis=1)
        fixed = np.array([np.delete(np.arange(len(pos)), mover_rows[t]) for t in targets])
        tracks = [units[t].track for t in targets]
        grids = np.array([np.linspace(tr.x_in, tr.x_out, n_samples) for tr in tracks])
        shared = (np.array([tr.origin for tr in tracks]),
                  np.array([tr.axis for tr in tracks]), t_mags[targets], pos[fixed])
        for q, key in enumerate(keys):
            # one group per target: its own fixed dipoles and constant energy
            args = (*shared, m[q][fixed], np.broadcast_to(kvecs[q], (len(tracks), 3)),
                    np.broadcast_to(has_key[q], len(tracks)), t_consts[q])
            energy, force = _evaluate(*args, grids)
            for i, (t, track) in enumerate(zip(targets, tracks)):
                out.append(LandscapeProfile(units[t].id, key, grids[i], energy[i], force[i],
                                            None, track, tuple(a[i, ...] for a in args)))
    return out


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
    inner attractor capped by the polished crest; the grid is one N-row
    call on the profile's own sources.
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
    grid = np.linspace(start, end, _BASIN_GRID)
    _, F = _evaluate_at(profile, grid)
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
        src = mag.source_from_spec(spec(st.spec), st.position * s, mag.unit(st.moment))
        return replace(src, subdipoles=subs)

    out = []
    for u in topology:
        t = u.track
        track = replace(t, origin=tuple(np.asarray(t.origin) * s),
                        stroke=(t.x_in * s, t.x_out * s), mover=spec(t.mover),
                        mass=t.mass * s**3, friction_force=t.friction_force * s**2)
        out.append(replace(u, stators=tuple(map(stator, u.stators)), track=track))
    return out
