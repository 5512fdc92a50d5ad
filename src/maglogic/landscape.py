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
which unit sweeps, so :func:`decisions_for_keys` sets every key up in one
pass for all units: one orientation solve runs every key in lockstep, one
array pass per fixed-point iteration, and one elementwise pass gives the
pair energies of the fixed assembly under every key. This keeps the
force/energy consistency exact and captures the leading-order coupling
between units.

One evaluator computes U(x) and F(x) of a mover everywhere. With one
profile's sources it evaluates a grid: the 256- and 1025-point grids are
one N-row call per profile. With per-row sources it evaluates each row on
its own profile. A mover in zero field keeps the direction of the row
before it on its grid, and the first row takes the track axis; a row of
a per-row pass is a grid of one point, so it takes its own track axis.

Root finding runs as a lockstep engine. Bisection, the stability energy
triples, the barrier energies and root polishing are generator "machines"
on one (key, unit) profile each; every step gathers the points all open
machines ask for and evaluates them in one per-row pass. Each machine
keeps its own brackets and stop rules, and each row has the bits of a
one-point evaluation, so a multi-key call decides exactly what one call
per key would.
"""

from __future__ import annotations

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
# fraction of the basin adjacent to a barrier crest excluded from the margin
# minimum (the restoring force vanishes exactly at the crest, so the literal
# minimum would always be zero there)
CREST_EXCLUSION = 0.01
_BASIN_GRID = 1025


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


def point_segment_distance(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Distance from ``point`` to the segment from ``a`` to ``b``."""
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
    _, _, dirs = _orientations(units, positions, *_key_vectors([key]))
    return {u.id: dirs[0, i] for i, u in enumerate(units)}


def _key_vectors(keys):
    """Key vectors (Q, 3), zero for a None key, and the (Q,) has-key mask."""
    return (np.array([np.zeros(3) if k is None else k.vector for k in keys]).reshape(-1, 3),
            np.array([k is not None for k in keys], dtype=bool))


def _orientations(units, positions, kvecs, has_key):
    """Mover centres (n, 3), moment magnitudes (n,) and the directions
    (Q, n, 3) of :func:`equilibrate_orientations` under Q keys
    (:func:`_key_vectors`), solved in lockstep by
    :func:`magnetics.equilibrium_directions`. The stator field at the
    movers is computed once and each key added to it.
    """
    if not units:
        raise ConfigError("topology has no units")
    if len({u.id for u in units}) != len(units):
        raise ConfigError("unit ids must be unique")
    pts = np.array([u.track.point(positions[u.id]) for u in units])
    mags = np.array([u.track.mover_moment_mag() for u in units])
    # summed stator by stator from zeros, then the key
    base = np.zeros((len(kvecs), *pts.shape))
    for s in (s for u in units for s in u.stators):
        base += mag.dipole_field(s.dipole_positions(), s.dipole_moments(), pts)
    np.add(base, kvecs[:, None, :], out=base, where=has_key[:, None, None])
    axes = np.array([u.track.axis for u in units])
    return pts, mags, mag.equilibrium_directions(pts, mags, base, axes)


@dataclass(frozen=True)
class Equilibrium:
    position: float
    stable: bool


@dataclass(frozen=True)
class LandscapeProfile:
    """Sampled landscape of one unit under one key.

    xs are track coordinates (endpoints included), energy in joules (full
    assembly energy with the target at x), force_axial in newtons (axial
    component of the net magnetic force on the target mover).
    """

    unit_id: str
    key: FieldKey
    xs: np.ndarray
    energy: np.ndarray
    force_axial: np.ndarray
    equilibria: tuple | None = None
    _ctx: "_ProfileContext | None" = None

    @property
    def x_in(self) -> float:
        return float(self.xs[0])

    @property
    def x_out(self) -> float:
        return float(self.xs[-1])


class _ProfileContext:
    """Re-evaluation closure bound to one (topology, unit, key) combination.

    ``args`` are :func:`_evaluate`'s arguments but ``xs``, built by
    :func:`_profiles`.
    """

    def __init__(self, track, args):
        self.track = track
        self.args = args

    def evaluate(self, xs):
        """Energy and axial force at track coordinates xs (any length)."""
        return _evaluate(*self.args, xs)


def _evaluate(origin, axis, m_mag, pos, m, key, has_key, const, xs):
    """Energy and axial force of a mover at track coordinates ``xs``.

    The source shape picks the path, as in :func:`magnetics.dipole_field`.
    Shared sources ``pos``, ``m`` (K, 3) evaluate a grid on one context:
    N-row kernel calls and ``force @ axis``. Per-row sources (N, K, 3), with
    every other argument stacked per row too, evaluate row i on its own
    context with the bits of a 1-point grid there, since the kernels and
    the stacked matmul keep 1-row bits. The kernels work on component
    planes but return C-ordered (N, 3) arrays, which the energy's
    ``einsum("nc,nc->n")`` needs for its bits. ``key`` is added where
    ``has_key``; the module docstring gives the zero-field rule.
    """
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    per_row = pos.ndim == 3
    pts = origin + xs[:, None] * axis
    B = mag.dipole_field(pos, m, pts)
    np.add(B, key, out=B, where=has_key[..., None])
    norms = np.linalg.norm(B, axis=1)
    ok = norms > 1e-30
    # C-ordered like B: einsum's bits depend on its operands' memory layout
    u_dirs = np.empty_like(B)
    np.divide(B, norms[:, None], out=u_dirs, where=ok[:, None])
    if not ok.all():
        u_dirs[~ok] = np.broadcast_to(axis, B.shape)[~ok]
        if not per_row:
            prev = np.maximum.accumulate(np.where(ok, np.arange(len(B)), -1))
            u_dirs[prev >= 0] = u_dirs[prev[prev >= 0]]
    moments = m_mag[..., None] * u_dirs
    energy = const - np.einsum("nc,nc->n", moments, B)
    force = mag.dipole_forces(pos, m, pts, moments)
    if per_row:
        return energy, np.matmul(force[:, None, :], axis[:, :, None])[:, 0, 0]
    return energy, force @ axis


def _stack(ctxs) -> tuple:
    """:func:`_evaluate`'s per-row arguments of contexts of one topology.

    Every context of a topology has the same fixed-dipole count K (all
    stators plus every mover but its own), so the fixed dipoles stack into
    (C, K, 3) arrays without padding.
    """
    return tuple(np.stack(a) for a in zip(*(c.args for c in ctxs)))


def _evaluate_rows(stacked, rows, xs):
    """Energy and axial force of context ``rows[i]`` at ``xs[i]``, one pass."""
    return _evaluate(*(a[rows] for a in stacked), xs)


def _lockstep(ctxs, machines):
    """Run root-finding machines in lockstep; return their results in order.

    ``machines[i]`` is a generator on context ``ctxs[i]``: it yields a list
    of track coordinates, is sent their (energy, axial force) arrays back,
    and returns its result. Each step evaluates the points of every open
    machine in one :func:`_evaluate_rows` pass, so a machine sees exactly
    what 1-point calls would give it, whatever else runs beside it.
    """
    if not machines:
        return []
    stacked = _stack(ctxs)
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
    """``machine``, each point it asks for paired with its context ``i``."""
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
    return _profiles(units, [target], [key], n_samples, positions)[0]


def _latched_positions(units, n_samples, mover_positions) -> dict:
    """Every mover's latched coordinate: inner stops, then ``mover_positions``.

    Checks ``n_samples`` too. A position must name a unit of the topology
    and be a finite real inside that unit's stroke, ends included.
    """
    mag.finite(n_samples, "n_samples", 16, inclusive=True, integer=True)
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


def _profiles(units, targets, keys, n_samples, positions) -> list:
    """Profile of each ``targets`` index under each key, key-major, every
    other mover a fixed source.

    Movers are latched at ``positions``. One lockstep orientation solve
    serves every key, and one pass gives every (key, target) constant
    energy: ``assembly_energy`` of the stators and the other movers.
    """
    if not keys:
        return []
    kvecs, has_key = _key_vectors(keys)
    pts, mags, dirs = _orientations(units, positions, kvecs, has_key)
    mover_m = mags[:, None] * dirs
    consts = mag.assembly_energies([s for u in units for s in u.stators], pts, mover_m,
                                   kvecs, has_key, targets)
    # every fixed dipole in unit order, each unit's stators then its mover;
    # a target drops its own mover's row
    pos, m, mover_rows = [], [], []
    for i, u in enumerate(units):
        for s in u.stators:
            pos.append(s.dipole_positions())
            m.append(np.broadcast_to(s.dipole_moments(), (len(keys), len(pos[-1]), 3)))
        mover_rows.append(sum(map(len, pos)))
        pos.append(pts[i:i + 1])
        m.append(mover_m[:, i:i + 1])
    pos, m = np.concatenate(pos), np.concatenate(m, axis=1)
    fixed = [np.delete(np.arange(len(pos)), mover_rows[t]) for t in targets]
    out = []
    for q, key in enumerate(keys):
        for t, rows, const in zip(targets, fixed, consts[q]):
            track = units[t].track
            ctx = _ProfileContext(track, (
                np.asarray(track.origin), np.asarray(track.axis),
                np.asarray(mags[t]), pos[rows], m[q, rows],
                kvecs[q], np.asarray(has_key[q]), np.asarray(const)))
            xs = np.linspace(track.x_in, track.x_out, n_samples)
            energy, force = ctx.evaluate(xs)
            out.append(LandscapeProfile(units[t].id, key, xs, energy, force, None, ctx))
    return out


def _context(profile: LandscapeProfile) -> "_ProfileContext":
    if profile._ctx is None:
        raise MaglogicError("profile lost its evaluation context")
    return profile._ctx


def refine_equilibria(profile: LandscapeProfile):
    """Bisect every interior sign change of F_axial to |dx| < EQUILIBRIUM_XTOL.

    Stability comes from the local curvature of U (positive second
    difference = stable). Returns a copy of the profile with ``equilibria``.
    The one-profile case of the lockstep engine that
    :func:`decisions_for_keys` runs over many profiles.
    """
    eqs = _lockstep([_context(profile)], [_equilibria(profile)])[0]
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


def _bisect(a: float, b: float, fa: float):
    """Machine: bisect the force sign change in [a, b]; returns the root,
    ``a`` itself when the force vanishes there."""
    if fa == 0.0:
        return a
    # keep halving past EQUILIBRIUM_XTOL until the residual force is
    # negligible, so re-evaluating at the root gives |F| < 1e-9 N even
    # for stiff profiles (steep dF/dx)
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = float((yield [m])[1][0])
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
        if b - a < EQUILIBRIUM_XTOL and abs(fm) < 1e-10:
            break
        if b - a < 1e-14:
            break
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
    xs, F = profile.xs, profile.force_axial
    eqs = profile.equilibria or ()
    if side_inner:
        order = range(len(xs))
        stop, other = profile.x_in, profile.x_out
        outward = 1.0
        eq_candidates = list(eqs)
    else:
        order = range(len(xs) - 1, -1, -1)
        stop, other = profile.x_out, profile.x_in
        outward = -1.0
        eq_candidates = list(reversed(eqs))
    start_sign = 0.0
    start_x = stop
    for i in order:
        if abs(F[i]) > FORCE_EPS:
            start_sign = np.sign(F[i]) * outward
            start_x = float(xs[i])
            break
    if start_sign == 0.0:
        return stop  # flat: stays where it rests
    if start_sign < 0.0:
        return stop  # pressed into this stop
    # slides away from the stop: lands on the first equilibrium ahead
    for eq in eq_candidates:
        ahead = eq.position > start_x if side_inner else eq.position < start_x
        # an unstable point ahead is a U-maximum the force pushed toward,
        # only possible from a tangency: the mover keeps sliding past it
        if ahead and eq.stable:
            return eq.position
    return other


def decide(profile: LandscapeProfile) -> LandscapeDecision:
    """Classify a (refined) profile. Refines equilibria if not done yet.

    Snap-through must beat the track's friction force. The one-profile case
    of the lockstep engine that :func:`decisions_for_keys` runs over many
    profiles.
    """
    return _lockstep([_context(profile)], [_decision(profile)])[0]


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
        F[1:-1].min() > profile._ctx.track.friction_force)
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
    for _ in range(90):
        m = 0.5 * (lo + hi)
        if m <= lo or m >= hi:
            break
        fm = float((yield [m])[1][0])
        if (fm > 0) == (flo > 0):
            lo, flo = m, fm
        else:
            hi = m
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
    call on the profile's own context.
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
    _, F = profile._ctx.evaluate(grid)
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
    each entry equals that unit's ``unit_decision``. One lockstep
    orientation solve and one constant-energy pass serve every key and unit
    (see :func:`_profiles`). The bisections, stability checks and root
    polishing of every (key, unit) profile then advance in lockstep, with
    one batched evaluation per step (see :func:`_lockstep`).
    """
    units = list(topology)
    try:
        keys = list(keys)
        ok = all(k is None or isinstance(k, FieldKey) for k in keys)
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"keys must be a sequence of FieldKey or None, got {keys!r}")
    positions = _latched_positions(units, n_samples, mover_positions)
    profiles = _profiles(units, range(len(units)), keys, n_samples, positions)
    decided = _lockstep([p._ctx for p in profiles], [_decision(p) for p in profiles])
    n = len(units)
    return [
        {p.unit_id: d for p, d in zip(profiles[i:i + n], decided[i:i + n])}
        for i in range(0, len(profiles), n)
    ]


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
    ctx = profile._ctx
    track = ctx.track if ctx is not None else None
    if mass is None:
        if track is None:
            raise ConfigError("mass required when the profile has no context")
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
    orientations are preserved, energies scale s^3 and forces s^2.
    """
    mag.finite(s, "scale factor", 0.0)
    out = []
    for u in topology:
        stators = []
        for st in u.stators:
            if st.spec is None:
                # bare dipole: |m| = B_r V / mu0 scales with volume
                stators.append(
                    MagnetSource(np.asarray(st.position) * s, np.asarray(st.moment) * s**3)
                )
                continue
            spec = MagnetSpec(
                st.spec.shape,
                tuple(d * s for d in st.spec.dims),
                st.spec.remanence,
                st.spec.easy_axis,
            )
            axis = mag.unit(st.moment)
            src = mag.source_from_spec(spec, np.asarray(st.position) * s, axis)
            if st.subdipoles is not None:
                subs = tuple((np.asarray(o) * s, f) for o, f in st.subdipoles)
                src = MagnetSource(src.position, src.moment, spec=spec, subdipoles=subs)
            stators.append(src)
        mt = u.track
        mover = MagnetSpec(
            mt.mover.shape,
            tuple(d * s for d in mt.mover.dims),
            mt.mover.remanence,
            mt.mover.easy_axis,
        )
        track = MoverTrack(
            mt.axis,
            tuple(np.asarray(mt.origin) * s),
            (mt.x_in * s, mt.x_out * s),
            mover,
            mt.mass * s**3,
            mt.friction_force * s**2,
        )
        out.append(UnitTriplet(u.id, tuple(stators), track, u.assigned_key))
    return out
