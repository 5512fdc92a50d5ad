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
(topology, key, unit) of an engine call, and its 1025-point basin grids,
are one group each, and consecutive groups share a call while they hold
at most ``magnetics.GROUP_PAIRS`` (fixed dipole x point) pairs: 12 demo
profile grids, 3 demo basin grids or 5 of a two-unit screen candidate
per call. The points of a root-finding pass are groups of one point, in
calls of the same bound. The ``magnetics`` module docstring gives the
layout and the bit rules of its one fused pass; groups are independent,
so how they are split into calls moves no bit. A mover in zero field
keeps the direction of the row before it in its group, and a group's
first row takes the track axis.

Root finding runs in passes over arrays. An engine call decides all of
its profiles together, stage by stage, each stage one pass over every
profile that reaches it: the bisection of every sign change, every
stability triple, every barrier energy, the polish of every crest and
then of every inner attractor, and every basin grid. A bisection pass
asks for the midpoints of the next BISECT_LEVELS levels of every open
bracket, the tree below it, and walks them with the sign test and stop
rules of a one-point loop: each bracket takes the same path to the same
root in about a quarter of the passes. Each bracket keeps its own stop
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
# bisection levels per pass, 2**L - 1 midpoints asked at once. Median
# CPU time per seed-1 round over 7 and 9 alternating rounds, one pinned
# CPU of a 2-core x86-64 VM: L = 3, 4 and 5 lie within 3 % of each other
# on the demo sweep and on the 120-candidate screen, and L = 1, one
# midpoint per pass, is 20 % slower on the sweep and 10 % on the screen.
# L = 4 cuts a seed-1 demo sweep's row calls from 705 to 218.
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


def _group_calls(stacked, rows, n, grids):
    """Yield (slice, energy, axial force) of each :func:`_evaluate` call on
    ``len(rows)`` groups of ``n`` points, group g on profile ``rows[g]``
    of :func:`_stack`'s ``stacked``. ``grids(part)`` gives the points
    (groups, n) of the groups in the slice ``part``, so they can be made
    call by call.

    Consecutive groups go to one call while their (fixed dipole x point)
    pairs stay within ``magnetics.GROUP_PAIRS``, so a call passes it only
    when a single group does. Groups are independent, so the split moves
    no bit.
    """
    per_call = max(1, mag.GROUP_PAIRS // max(1, stacked[3].shape[1] * n))
    for at in range(0, len(rows), per_call):
        part = slice(at, at + per_call)
        yield part, *_evaluate(*(a[rows[part]] for a in stacked), grids(part))


def _evaluate_groups(stacked, rows, xs):
    """Energy and axial force (G, n) of the groups ``xs`` (G, n), as
    :func:`_group_calls` evaluates them."""
    energy, force = np.empty(xs.shape), np.empty(xs.shape)
    for part, part_energy, part_force in _group_calls(stacked, rows, xs.shape[1],
                                                      xs.__getitem__):
        energy[part], force[part] = part_energy, part_force
    return energy, force


def _evaluate_rows(stacked, rows, xs):
    """Energy and axial force of profile ``rows[i]`` at ``xs[i]``, each
    row a group of one point."""
    energy, force = _evaluate_groups(stacked, rows, xs[:, None])
    return energy[:, 0], force[:, 0]


def _rows_at(stacked):
    """``at(which, xs)``: energy and axial force (M, L) of profile
    ``which[i]`` of ``stacked`` at the track coordinates ``xs[i]``, every
    point a row of one :func:`_evaluate_rows` pass."""
    def at(which, xs):
        energy, force = _evaluate_rows(stacked, np.repeat(which, xs.shape[1]), xs.ravel())
        return energy.reshape(xs.shape), force.reshape(xs.shape)
    return at


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
    The one-profile case of :func:`_equilibria`, which
    :func:`decisions_for_keys` runs over many profiles at once.
    """
    eqs = _equilibria(_rows_at(_stack([profile])), [profile], [0])[0]
    return replace(profile, equilibria=eqs)


def _equilibria(at, profiles, which) -> list:
    """Equilibria of each profile, ``profiles[k]`` being profile
    ``which[k]`` of ``at`` (:func:`_rows_at`).

    A bracket whose force vanishes at its inner end has that end for its
    root. Every other sign-change bracket of every profile is bisected in
    one :func:`_bisect` call, then one row pass takes the stability
    triple of every root.
    """
    owner, a, b, fa = [], [], [], []
    for k, p in enumerate(profiles):
        f0, f1 = p.force_axial[:-1], p.force_axial[1:]
        i = np.nonzero((f0 == 0.0) & (np.abs(f1) > 0) | (f0 * f1 < 0.0))[0]
        owner += [k] * len(i)
        a += p.xs[i].tolist()
        b += p.xs[i + 1].tolist()
        fa += f0[i].tolist()
    owner, a, b, fa = np.array(owner, int), np.array(a), np.array(b), np.array(fa)
    rows, roots, cut = np.asarray(which, int)[owner], a.copy(), fa != 0.0
    roots[cut] = _bisect(at, rows[cut], a[cut], b[cut], fa[cut] > 0, 200, False)
    eqs = [[] for _ in profiles]
    if len(roots):
        x_in, x_out = (np.array([getattr(p, f) for p in profiles])[owner]
                       for f in ("x_in", "x_out"))
        h = np.maximum((x_out - x_in) * 1e-5, 1e-7)
        # np.maximum and np.minimum return their second argument on a tie
        # of signed zeros, as max and min return their first
        energy = at(rows, np.stack([np.maximum(x_in, roots - h), roots,
                                    np.minimum(x_out, roots + h)], axis=1))[0]
        stable = (energy[:, 0] - energy[:, 1]) + (energy[:, 2] - energy[:, 1]) > 0.0
        for k, r, s in zip(owner.tolist(), roots.tolist(), stable.tolist()):
            eqs[k].append(Equilibrium(r, s))
    return [tuple(e) for e in eqs]


def _bisect(at, which, a, b, up, steps, polish):
    """Bisect each bracket [a[i], b[i]] on profile ``which[i]`` of ``at``
    for at most ``steps`` halvings, ``up[i]`` its sign test F(a) > 0;
    returns the midpoints of the final brackets.

    A pass asks ``at`` for the 2**L - 1 midpoints of the next L =
    BISECT_LEVELS levels of every open bracket, the tree below it, made
    level by level as ``0.5 * (lo + hi)`` of its breakpoints, and walks
    them as a one-point loop would: a midpoint whose ``F > 0`` matches
    ``up`` becomes ``a``, any other ``b``. A bracket stops after a
    halving once it is narrower than EQUILIBRIUM_XTOL with |F| < 1e-10 N
    at the midpoint, or narrower than 1e-14 m, so that re-evaluating at
    the root gives |F| < 1e-9 N even on stiff profiles (steep dF/dx). A
    ``polish`` bracket stops instead before a midpoint that is no longer
    strictly inside it: its ends are adjacent floats. Every root so has
    the one-point loop's bits.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    live = np.arange(len(a))
    while steps and live.size:
        levels = min(BISECT_LEVELS, steps)
        steps -= levels
        n = 2 ** levels
        # the tree's breakpoints in order, level k halving every n >> k;
        # the walk indexes them and their forces flat, row by row
        grid = np.empty((live.size, n + 1))
        lo, hi = a[live], b[live]
        grid[:, 0], grid[:, -1] = lo, hi
        for k in range(levels):
            w = n >> k
            grid[:, w // 2::w] = 0.5 * (grid[:, :-1:w] + grid[:, w::w])
        force = np.zeros(grid.shape)
        force[:, 1:-1] = at(which[live], grid[:, 1:-1])[1]
        rises = ((force > 0) == up[live, None]).ravel()
        small = (np.abs(force) < 1e-10).ravel()
        grid, node = grid.ravel(), np.arange(0, grid.size, n + 1)
        walking = np.ones(live.size, bool)
        for k in range(levels):
            j = node + (n >> (k + 1))
            m = grid[j]
            if polish:
                walking &= ~((m <= lo) | (m >= hi))
            rise = walking & rises[j]
            lo, hi = np.where(rise, m, lo), np.where(walking ^ rise, m, hi)
            node = np.where(rise, j, node)
            if not polish:
                width = hi - lo
                walking &= ~((width < EQUILIBRIUM_XTOL) & small[j] | (width < 1e-14))
        a[live], b[live] = lo, hi
        live = live[walking]
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

    Snap-through must beat the track's friction force. The one-profile
    case of :func:`_decide_all`, which :func:`decisions_for_keys` runs
    over many profiles at once.
    """
    return _decide_all([profile])[0]


def _decide_all(profiles) -> list:
    """:func:`decide` of each profile, each stage one pass over every
    profile that reaches it.

    The unrefined profiles are refined together (:func:`_equilibria`).
    One row pass then takes the energy at the inner attractor of every
    anchored profile, and at the first crest past it where it has one,
    and :func:`_basin_margins` takes every anchoring margin.
    """
    stacked = _stack(profiles)
    at = _rows_at(stacked)
    flat = [np.abs(p.force_axial).max() < FORCE_EPS
            and (p.energy.max() - p.energy.min()) < ENERGY_EPS for p in profiles]
    todo = [i for i, p in enumerate(profiles) if not flat[i] and p.equilibria is None]
    profiles = list(profiles)
    for i, eqs in zip(todo, _equilibria(at, [profiles[i] for i in todo], todo)):
        profiles[i] = replace(profiles[i], equilibria=eqs)
    fields, held, inner, crests = [], [], [], []  # fields: all but the anchoring pair
    for i, p in enumerate(profiles):
        F = p.force_axial
        label = p.key.label if p.key is not None else ""
        if flat[i]:
            fields.append((p.unit_id, label, "monostable_inner", False, True,
                           float(F.max()), p.x_in, None, float(F[0])))
            continue
        a_in, a_out = _attractor_from(True, p), _attractor_from(False, p)
        if abs(a_in - a_out) > 1e-9:
            clazz = "bistable"
        else:
            mid = 0.5 * (p.x_in + p.x_out)
            clazz = "monostable_inner" if a_in <= mid else "monostable_outer"
        anchored = abs(a_in - p.x_out) > 1e-9
        if anchored:
            held.append(i)
            inner.append(a_in)
            crests.append(next((e.position for e in p.equilibria
                                if not e.stable and e.position > a_in + 1e-12), np.nan))
        snap = (not anchored) and bool(F[1:-1].min() > p.track.friction_force)
        fields.append((p.unit_id, label, clazz, snap, False, float(F.max()),
                       a_in if anchored else None,
                       a_out if abs(a_out - p.x_in) > 1e-9 else None, float(F[0])))
    anchoring = {}  # (barrier, margin) of each anchored profile
    if held:
        held, a_in, crest = np.array(held), np.array(inner), np.array(crests)
        tip = ~np.isnan(crest)
        energy = at(np.concatenate([held, held[tip]]),
                    np.concatenate([a_in, crest[tip]])[:, None])[0][:, 0]
        u_inner, u_crest = energy[:len(held)], iter(energy[len(held):])
        x_in, x_out = (np.array([getattr(profiles[i], f) for i in held])
                       for f in ("x_in", "x_out"))
        margins = _basin_margins(stacked, at, held, a_in, crest, x_in, x_out)
        for j, i in enumerate(held.tolist()):
            if tip[j]:
                barrier = next(u_crest) - u_inner[j]
            else:
                seg = profiles[i].energy[profiles[i].xs >= a_in[j] - 1e-12]
                barrier = seg.max() - u_inner[j] if len(seg) else 0.0
            anchoring[i] = float(barrier), float(margins[j])
    return [LandscapeDecision(*f[:5], *anchoring.get(i, (0.0, None)), *f[5:])
            for i, f in enumerate(fields)]


def _polish(at, which, x0, lo_cap, hi_cap):
    """Re-bisect the force zero near each x0[i] on profile ``which[i]`` of
    ``at`` down to floating-point resolution, inside [lo_cap[i], hi_cap[i]].

    The coarse refinement stops at 1e-9 m, which is plenty for positions
    but leaks a first-order error into margins evaluated at points placed
    relative to the root (geometric-scale covariance wants ~1e-15). Each
    widening pass asks for the ends of a bracket around every open x0,
    max(4e-9 m, 1e-8 |x0|) to a side at first, four times that each pass
    after, cut at the caps. The first with a force sign change goes to
    :func:`_bisect`; an x0 with none in 60 passes, or none once both ends
    are at the caps, is its own polished root.
    """
    delta = np.maximum(np.abs(x0) * 1e-8, 4e-9)
    lo, hi, up, found = x0.copy(), x0.copy(), np.zeros(len(x0), bool), np.zeros(len(x0), bool)
    live = np.arange(len(x0))
    for _ in range(60):
        if not live.size:
            break
        lo[live] = np.maximum(x0[live] - delta[live], lo_cap[live])
        hi[live] = np.minimum(x0[live] + delta[live], hi_cap[live])
        force = at(which[live], np.stack([lo[live], hi[live]], axis=1))[1]
        up[live] = force[:, 0] > 0
        found[live] = up[live] != (force[:, 1] > 0)
        capped = (lo[live] == lo_cap[live]) & (hi[live] == hi_cap[live])
        live = live[~found[live] & ~capped]
        delta[live] *= 4.0
    root = x0.copy()
    root[found] = _bisect(at, which[found], lo[found], hi[found], up[found], 90, True)
    return root


def _basin_margins(stacked, at, which, a_in, crest, x_in, x_out):
    """Min restoring force over each inner basin, zero-force ends excluded:
    profile ``which[i]`` anchored at ``a_in[i]``, ``crest[i]`` the first
    crest past it or NaN.

    The restoring force vanishes exactly at a barrier crest and at an
    interior stable equilibrium, so a CREST_EXCLUSION fraction of the basin
    is trimmed at each such end; a boundary-anchored crestless basin (mover
    pressed against the inner stop, force nonzero out to the outer stop) is
    evaluated over its full extent. Every crest is polished first, then
    every inner attractor capped by its polished crest. The basin grids
    are made and evaluated call by call (:func:`_group_calls`), keeping
    each call's minima.
    """
    tip, deep = ~np.isnan(crest), a_in > x_in + 1e-12
    end = np.where(tip, crest, x_out)
    end[tip] = _polish(at, which[tip], crest[tip], a_in[tip], x_out[tip])
    start = a_in.copy()
    start[deep] = _polish(at, which[deep], a_in[deep], x_in[deep], end[deep])
    span = end - start
    end = np.where(tip, start + (1.0 - CREST_EXCLUSION) * span, end)
    start = np.where(deep, start + CREST_EXCLUSION * span, start)
    margins = np.zeros(len(which))
    wide = np.nonzero(~(end - start < 1e-12))[0]
    for part, _, force in _group_calls(
            stacked, which[wide], _BASIN_GRID,
            lambda part: np.linspace(start[wide[part]], end[wide[part]], _BASIN_GRID, axis=-1)):
        margins[wide[part]] = np.min(-force, axis=1)
    return margins


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
    root-finding run for all of them.

    The topologies must share one :func:`_shape` (every candidate of one
    design template does) and each has its movers latched at
    ``mover_positions``. One lockstep orientation solve and one
    constant-energy pass serve every (topology, key, unit) profile (see
    :func:`_batch_profiles`). :func:`_decide_all` then takes their
    bisections, stability checks, root polishing and basin grids, each
    stage one pass over every profile. Each row keeps its one-point bits,
    so every topology is decided exactly as it would be on its own.
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
    decided = iter(_decide_all(profiles))
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
