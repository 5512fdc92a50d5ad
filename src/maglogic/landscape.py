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
which unit sweeps, so :func:`decisions_for_key` solves it once for all
units. This keeps the force/energy consistency exact and captures the
leading-order coupling between units.
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
    """
    units = list(topology)
    stator_sources = [s for u in units for s in u.stators]
    pts = np.array([u.track.point(positions[u.id]) for u in units])
    mags = np.array([u.track.mover_moment_mag() for u in units])
    base = mag.field_of_sources(stator_sources, pts, key)
    base = np.atleast_2d(base)
    u_dirs = np.empty_like(base)
    for i, u in enumerate(units):
        n = np.linalg.norm(base[i])
        u_dirs[i] = base[i] / n if n > 1e-30 else np.asarray(u.track.axis)
    n_units = len(units)
    damping = 1.0
    for it in range(500):
        new = np.empty_like(u_dirs)
        for i in range(n_units):
            B = base[i].copy()
            for j in range(n_units):
                if j == i:
                    continue
                B += mag.dipole_field(
                    pts[j][None, :], (mags[j] * u_dirs[j])[None, :], pts[i]
                )
            n = np.linalg.norm(B)
            new[i] = B / n if n > 1e-30 else u_dirs[i]
        if damping < 1.0:
            new = u_dirs + damping * (new - u_dirs)
            norms = np.linalg.norm(new, axis=1, keepdims=True)
            # an exactly antipodal flip cancels to zero: that mover already
            # sits at a zero-torque (antiparallel) point, keep its direction
            dead = norms[:, 0] < 1e-30
            new[dead] = u_dirs[dead]
            norms[dead] = 1.0
            new = new / norms
        delta = np.abs(new - u_dirs).max()
        u_dirs = new
        if delta < 1e-13:
            break
        if it == 100:
            damping = 0.5
    else:
        raise MaglogicError("mover orientation fixed point did not converge")
    return {units[i].id: u_dirs[i] for i in range(n_units)}


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
    """Re-evaluation closure bound to one (topology, unit, key) combination."""

    def __init__(self, track, m_mag, fixed_pos, fixed_m, key, const_energy):
        self.track = track
        self.m_mag = m_mag
        self.fixed_pos = fixed_pos  # (K, 3) flattened fixed dipoles
        self.fixed_m = fixed_m
        self.key = key
        self.const_energy = const_energy

    def evaluate(self, xs: np.ndarray):
        """Energy and axial force at track coordinates xs (any length)."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        pts = self.track.point(xs)
        B = mag.dipole_field(self.fixed_pos, self.fixed_m, pts)
        B = np.atleast_2d(B)
        if self.key is not None:
            B = B + self.key.vector[None, :]
        u_dirs = _unit_rows(B, np.asarray(self.track.axis))
        moments = self.m_mag * u_dirs
        energy = self.const_energy - np.einsum("nc,nc->n", moments, B)
        force = mag.dipole_forces(self.fixed_pos, self.fixed_m, pts, moments)
        f_axial = force @ np.asarray(self.track.axis)
        return energy, f_axial

    def force_at(self, x: float) -> float:
        return float(self.evaluate([x])[1][0])

    def energy_at(self, x: float) -> float:
        return float(self.evaluate([x])[0][0])


def _unit_rows(B: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Row-normalize B; zero rows inherit the previous valid direction."""
    norms = np.linalg.norm(B, axis=1)
    ok = norms > 1e-30
    out = np.empty_like(B)
    out[ok] = B[ok] / norms[ok, None]
    if not ok.all():
        idx = np.where(ok, np.arange(len(B)), -1)
        idx = np.maximum.accumulate(idx)
        for i in np.nonzero(~ok)[0]:
            out[i] = out[idx[i]] if idx[i] >= 0 else fallback
    return out


def _find_unit(topology, unit_id: str) -> UnitTriplet:
    for u in topology:
        if u.id == unit_id:
            return u
    raise ConfigError(f"unknown unit id {unit_id!r}")


def _latched(units, key, n_samples: int, mover_positions) -> tuple:
    """Mover positions (default: inner stops) and their equilibrium orientations."""
    mag.finite(n_samples, "n_samples", 16, inclusive=True, integer=True)
    positions = rest_positions(units)
    if mover_positions:
        positions.update(mover_positions)
    return positions, equilibrate_orientations(units, positions, key)


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
    target = _find_unit(units, unit_id)
    positions, orientations = _latched(units, key, n_samples, mover_positions)
    return _profile(units, target, key, n_samples, positions, orientations)


def _profile(units, target, key, n_samples, positions, orientations):
    """Profile of ``target`` with every other mover frozen as a fixed source."""
    stators, movers, by_unit = [], [], []
    for u in units:
        stators.extend(u.stators)
        by_unit.extend(u.stators)
        if u.id != target.id:
            movers.append(MagnetSource(
                u.track.point(positions[u.id]),
                u.track.mover_moment_mag() * orientations[u.id],
            ))
            by_unit.append(movers[-1])
    empty = np.zeros((0, 3))
    fixed_pos = np.concatenate([empty, *(s.dipole_positions() for s in by_unit)])
    fixed_m = np.concatenate([empty, *(s.dipole_moments() for s in by_unit)])
    # x-independent part of the assembly energy: fixed pairs + fixed key terms
    const = mag.assembly_energy(stators + movers, key)

    track = target.track
    ctx = _ProfileContext(track, track.mover_moment_mag(), fixed_pos, fixed_m, key, const)
    xs = np.linspace(track.x_in, track.x_out, n_samples)
    energy, force = ctx.evaluate(xs)
    return LandscapeProfile(target.id, key, xs, energy, force, None, ctx)


def refine_equilibria(profile: LandscapeProfile):
    """Bisect every interior sign change of F_axial to |dx| < EQUILIBRIUM_XTOL.

    Stability comes from the local curvature of U (positive second
    difference = stable). Returns a copy of the profile with ``equilibria``.
    """
    ctx = profile._ctx
    if ctx is None:
        raise MaglogicError("profile lost its evaluation context")
    xs, F = profile.xs, profile.force_axial
    roots = []
    for i in range(len(xs) - 1):
        f0, f1 = F[i], F[i + 1]
        if f0 == 0.0 and abs(f1) > 0:
            roots.append(float(xs[i]))
            continue
        if f0 * f1 < 0.0:
            a, b, fa = float(xs[i]), float(xs[i + 1]), float(f0)
            # keep halving past EQUILIBRIUM_XTOL until the residual force is
            # negligible, so re-evaluating at the root gives |F| < 1e-9 N even
            # for stiff profiles (steep dF/dx)
            for _ in range(200):
                m = 0.5 * (a + b)
                fm = ctx.force_at(m)
                if (fm > 0) == (fa > 0):
                    a, fa = m, fm
                else:
                    b = m
                if b - a < EQUILIBRIUM_XTOL and abs(fm) < 1e-10:
                    break
                if b - a < 1e-14:
                    break
            roots.append(0.5 * (a + b))
    h = max(1e-7, (profile.x_out - profile.x_in) * 1e-5)
    eqs = []
    for r in roots:
        lo = max(r - h, profile.x_in)
        hi = min(r + h, profile.x_out)
        u_lo, u_mid, u_hi = (ctx.energy_at(v) for v in (lo, r, hi))
        stable = (u_lo - u_mid) + (u_hi - u_mid) > 0.0
        eqs.append(Equilibrium(r, bool(stable)))
    return replace(profile, equilibria=tuple(eqs))


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


def decide(
    profile: LandscapeProfile, friction_force: float | None = None
) -> LandscapeDecision:
    """Classify a (refined) profile. Refines equilibria if not done yet."""
    if profile.equilibria is None or profile._ctx is None:
        profile = refine_equilibria(profile)  # raises without a context
    ctx = profile._ctx
    if friction_force is None:
        friction_force = ctx.track.friction_force
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
    a_in = _attractor_from(True, profile)
    a_out = _attractor_from(False, profile)
    bist = abs(a_in - a_out) > 1e-9
    if bist:
        clazz = "bistable"
    else:
        mid = 0.5 * (profile.x_in + profile.x_out)
        clazz = "monostable_inner" if a_in <= mid else "monostable_outer"
    anchored = abs(a_in - profile.x_out) > 1e-9
    snap = (not anchored) and bool(F[1:-1].min() > friction_force)
    barrier = 0.0
    margin = None
    if anchored:
        crest = next(
            (e.position for e in profile.equilibria or ()
             if not e.stable and e.position > a_in + 1e-12),
            None,
        )
        u_inner = ctx.energy_at(a_in)
        if crest is not None:
            barrier = ctx.energy_at(crest) - u_inner
        else:
            seg = U[profile.xs >= a_in - 1e-12]
            barrier = float(seg.max() - u_inner) if len(seg) else 0.0
        margin = _basin_margin(profile, a_in, crest)
    return LandscapeDecision(
        profile.unit_id, label, clazz, snap, False, float(barrier),
        margin, float(F.max()),
        a_in if anchored else None,
        a_out if abs(a_out - profile.x_in) > 1e-9 else None,
        float(F[0]),
    )


def _polish_root(ctx: "_ProfileContext", x0: float, lo_cap: float, hi_cap: float):
    """Re-bisect a force zero near x0 down to floating-point resolution.

    The coarse refinement stops at 1e-9 m, which is plenty for positions
    but leaks a first-order error into margins evaluated at points placed
    relative to the root (geometric-scale covariance wants ~1e-15).
    """
    delta = max(4e-9, abs(x0) * 1e-8)
    lo, hi = x0, x0
    flo = fhi = ctx.force_at(x0)
    for _ in range(60):
        lo = max(lo_cap, x0 - delta)
        hi = min(hi_cap, x0 + delta)
        flo, fhi = ctx.force_at(lo), ctx.force_at(hi)
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
        fm = ctx.force_at(m)
        if (fm > 0) == (flo > 0):
            lo, flo = m, fm
        else:
            hi = m
    return 0.5 * (lo + hi)


def _basin_margin(profile: LandscapeProfile, a_in: float, crest: float | None):
    """Min restoring force over the inner basin, zero-force ends excluded.

    The restoring force vanishes exactly at a barrier crest and at an
    interior stable equilibrium, so a CREST_EXCLUSION fraction of the basin
    is trimmed at each such end; a boundary-anchored crestless basin (mover
    pressed against the inner stop, force nonzero out to the outer stop) is
    evaluated over its full extent.
    """
    ctx = profile._ctx
    start = a_in
    end = crest if crest is not None else profile.x_out
    if crest is not None:
        end = _polish_root(ctx, crest, start, profile.x_out)
    if a_in > profile.x_in + 1e-12:
        start = _polish_root(ctx, a_in, profile.x_in, end)
    span = end - start
    if crest is not None:
        end = start + (1.0 - CREST_EXCLUSION) * span
    if a_in > profile.x_in + 1e-12:
        start = start + CREST_EXCLUSION * span
    if end - start < 1e-12:
        return 0.0
    grid = np.linspace(start, end, _BASIN_GRID)
    _, F = ctx.evaluate(grid)
    return float(np.min(-F))


def unit_decision(
    topology,
    unit_id: str,
    key: FieldKey | None,
    n_samples: int = DEFAULT_SAMPLES,
    mover_positions: dict | None = None,
) -> LandscapeDecision:
    """sample + refine + decide in one call."""
    prof = sample_profile(topology, unit_id, key, n_samples, mover_positions)
    return decide(refine_equilibria(prof))


def decisions_for_key(
    topology,
    key: FieldKey | None,
    n_samples: int = DEFAULT_SAMPLES,
    mover_positions: dict | None = None,
) -> dict:
    """Decision of every unit under one key (movers latched elsewhere).

    One orientation solve serves every unit; each entry equals that unit's
    ``unit_decision``.
    """
    units = list(topology)
    positions, orientations = _latched(units, key, n_samples, mover_positions)
    return {
        u.id: decide(refine_equilibria(
            _profile(units, u, key, n_samples, positions, orientations)))
        for u in units
    }


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
