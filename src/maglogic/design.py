"""Lattice-constrained inverse design of addressable topologies.

The pipeline enumerates candidate stator/track placements on an integer
lattice, screens each candidate with the landscape module (one key must
snap-through exactly one unit while every other unit stays anchored), and
scores survivors:

* fidelity: worst-case (driving peak x weakest non-target barrier), divided
  by total magnet volume^(5/3). Forces scale s^2 and barriers s^3 under
  geometric scaling, so the exponent 5/3 makes the score scale-free.
* compactness: longest edge of the physical bounding box (mover bodies
  swept over their strokes) in units of the largest stator dimension. A
  lone stator scores exactly 1 by construction.
* control entropy: Shannon entropy of the key -> activation-pattern map
  under a uniform key distribution. Indiscriminate arrays score 0 bits.
* cross interference: the largest key-induced change of the axial force on
  a latched non-target, relative to the target's driving peak. The change
  against the no-key baseline is used rather than the raw latch force,
  which would be dominated by the unit's own static anchoring.

Candidates are deduplicated up to the symmetry group of the lattice box
(signed axis permutations). Stator moments transform as pseudovectors
(det(R) * R * m), track axes as ordinary vectors; this is the exact
invariance group of the dipole physics. A candidate's key is the least
sorted image of its placements over the group. Each element maps sites,
moments and axes independently, so one enumeration keeps each element's
images of the sites, moments and axes it has met and builds every key
from those maps.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from . import landscape as ls
from . import magnetics as mag
from .errors import (
    ConfigError,
    DesignSpaceError,
    MaglogicError,
    NoPassingCandidateError,
)
from .landscape import MoverTrack, UnitTriplet
from .magnetics import FieldKey, MagnetSpec

DEFAULT_THRESHOLDS = {"drive_min": 0.1, "anchor_min": 1e-3}
MAX_CARTESIAN_KEYS = 6
_ANGLE_CAP_DEG = 85.0
_ANGLE_RESOLUTION_DEG = 0.25
_CONE_RIM = 8  # rim directions per cone, so each key probes 9 directions
# topologies per engine call: run_pipeline's candidate batches and
# sensitivity_sweep's chunks of coaxial trials (there it only caps a
# set-up's memory; 4 trials are one chunk). Measured for run_pipeline on
# the benchmark's 3x2x3 two-unit space at seed 1, 120 candidates, one
# pinned CPU of a 2-core x86-64 VM, rounds of the batch sizes alternated
# in one process (CPU: medians of 8 rounds in two runs; traced:
# tracemalloc peak of one round; RSS: ru_maxrss of one process that keeps
# 55 rounds):
#
#     batch                   16       32       64      120
#     CPU per round, ms  194-199  185-191  175-179  168-173
#     traced peak, MiB       1.6      2.6      4.7      8.3
#     RSS, 55 rounds, MiB   59.6     60.9     63.1     66.7
#
# A batch holds the profiles of all its candidates until it is decided.
# 64 is faster still, but it holds 2 MiB more at equal rounds, and a
# benchmark that keeps every round's output also keeps more rounds of a
# faster screen, so its peak memory rises by both.
SCREEN_BATCH = 32
# upper bounds on the search and sweep sizes, each over 300 times the
# largest value a shipped input, test or benchmark uses (budget 300, 100
# trials)
MAX_BUDGET = 100_000
MAX_TRIALS = 100_000


@dataclass(frozen=True)
class Lattice:
    """Integer placement grid: site (i,j,k) sits at spacing*(i,j,k)."""

    spacing: float
    extents: tuple  # ((xlo, xhi), (ylo, yhi), (zlo, zhi)), inclusive ints
    allowed_orientations: tuple = (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    )
    allowed_track_axes: tuple = (
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    )

    def __post_init__(self):
        mag.finite(self.spacing, "lattice spacing", 0.0)
        ext = tuple(mag.vector(e, "lattice extents", 2, integer=True)
                    for e in self.extents)
        if len(ext) != 3 or any(hi < lo for lo, hi in ext):
            raise ConfigError("extents must be three inclusive integer ranges")
        object.__setattr__(self, "extents", ext)
        for name in ("allowed_orientations", "allowed_track_axes"):
            vecs = tuple(tuple(float(c) for c in mag.unit(mag.vector(v, name), name))
                         for v in getattr(self, name))
            if not vecs:
                raise ConfigError(f"{name} must be non-empty")
            object.__setattr__(self, name, vecs)

    def sites(self):
        (xl, xh), (yl, yh), (zl, zh) = self.extents
        return [
            (i, j, k)
            for i in range(xl, xh + 1)
            for j in range(yl, yh + 1)
            for k in range(zl, zh + 1)
        ]


@dataclass(frozen=True)
class UnitTemplate:
    """Per-unit geometry stamped onto each lattice placement."""

    stator: MagnetSpec
    mover: MagnetSpec
    inner_offset: float  # m, stator center to inner stop along the track
    stroke_length: float
    mass: float
    friction_force: float = 0.0

    def __post_init__(self):
        mag.finite(self.inner_offset, "inner_offset", 0.0)
        mag.finite(self.stroke_length, "stroke_length", 0.0)
        mag.finite(self.mass, "template mass", 0.0)
        mag.finite(self.friction_force, "template friction_force", 0.0,
                   inclusive=True)


@dataclass(frozen=True)
class CandidateTopology:
    units: tuple
    key_set: tuple
    placements: tuple = ()  # canonical integer description, for hashing

    @property
    def candidate_hash(self) -> str:
        return topology_hash(self.units, self.key_set, self.placements)


def _units_and_keys(candidate):
    """(units, key_set) of a CandidateTopology; a bare unit iterable has no keys."""
    if isinstance(candidate, CandidateTopology):
        return list(candidate.units), tuple(candidate.key_set)
    return list(candidate), ()


def topology_hash(units, key_set, placements=()) -> str:
    if placements:
        payload = [list(map(list, p)) for p in placements]
    else:
        payload = sorted(
            [u.id, list(u.track.origin), list(u.track.axis), list(u.track.stroke)]
            for u in units
        )
    payload.append(sorted(k.label for k in key_set))
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _spec_longest(spec: MagnetSpec) -> float:
    if spec.shape == "cylinder":
        r, length = spec.dims
        return max(2 * r, length)
    return max(spec.dims)


def _segment_segment_dist(a0, a1, b0, b1) -> float:
    """Closest distance between two segments (clamped closest-point pairs)."""
    u = a1 - a0
    v = b1 - b0
    w = a0 - b0
    a, b, c = u @ u, u @ v, v @ v
    d, e = u @ w, v @ w
    denom = a * c - b * b
    if denom > 1e-18:
        s = np.clip((b * e - c * d) / denom, 0.0, 1.0)
    else:
        s = 0.0
    t = (b * s + e) / c if c > 1e-18 else 0.0
    t = np.clip(t, 0.0, 1.0)
    # re-clamp s against the clamped t
    s = np.clip((b * t - d) / a, 0.0, 1.0) if a > 1e-18 else 0.0
    return float(np.linalg.norm((a0 + s * u) - (b0 + t * v)))


# enumeration


def _box_symmetry_group(extents):
    """Signed axis permutations mapping the extent box onto itself."""
    lens = [hi - lo for lo, hi in extents]
    elems = []
    for perm in itertools.permutations(range(3)):
        if any(lens[perm[i]] != lens[i] for i in range(3)):
            continue
        for signs in itertools.product((1, -1), repeat=3):
            elems.append((perm, signs))
    return elems


def _perm_sign(perm) -> int:
    s = 1
    for i in range(3):
        for j in range(i + 1, 3):
            if perm[i] > perm[j]:
                s = -s
    return s


def _transform_placement(placement, perm, signs, extents):
    site, moment, axis = placement
    det = _perm_sign(perm) * signs[0] * signs[1] * signs[2]
    new_site = []
    new_m = []
    new_ax = []
    for i in range(3):
        lo_i, hi_i = extents[i]
        lo_p, hi_p = extents[perm[i]]
        if signs[i] > 0:
            new_site.append(lo_i + (site[perm[i]] - lo_p))
        else:
            new_site.append(lo_i + (hi_p - site[perm[i]]))
        new_m.append(det * signs[i] * moment[perm[i]])
        new_ax.append(signs[i] * axis[perm[i]])
    rnd = lambda v: tuple(round(c, 9) + 0.0 for c in v)
    return (tuple(new_site), rnd(new_m), rnd(new_ax))


def _canonical_keys(group, extents):
    """The canonical key of a placement tuple, for the placements of one
    enumeration: the least sorted image under the box ``group``.

    An element maps a placement's site, moment and axis each on its own,
    so each element keeps lazily filled maps site -> image, moment ->
    image and axis -> image, filled from :func:`_transform_placement` and
    so with its rounded values. A key is then dict lookups, a sort per
    element and a min.
    """
    elements = [(perm, signs, {}, {}, {}) for perm, signs in group]

    def key(placements):
        images = []
        for perm, signs, sites, moments, axes in elements:
            for p in placements:
                if p[0] not in sites or p[1] not in moments or p[2] not in axes:
                    sites[p[0]], moments[p[1]], axes[p[2]] = _transform_placement(
                        p, perm, signs, extents)
            images.append(tuple(sorted([(sites[s], moments[m], axes[a])
                                        for s, m, a in placements])))
        return min(images)

    return key


def _build_units(placements, lattice, template, built=None):
    """The units ``u0``, ``u1``, ... of ``placements``.

    ``built`` keeps every stator, track and unit made so far, keyed by what
    it is made from, so the candidates of one enumeration share them: fewer
    objects to build, and a third less memory per kept candidate on the
    3x2x3 benchmark space.
    """
    built = {} if built is None else built

    def part(key, make):
        if key not in built:
            built[key] = make()
        return built[key]

    units = []
    for idx, (site, moment_dir, axis) in enumerate(placements):
        pos = tuple(lattice.spacing * c for c in site)
        stator = part(("stator", site, moment_dir), lambda: mag.source_from_spec(
            replace(template.stator, easy_axis=moment_dir), pos))
        track = part(("track", site, axis), lambda: MoverTrack(
            axis, pos,
            (template.inner_offset, template.inner_offset + template.stroke_length),
            template.mover, template.mass, template.friction_force,
        ))
        units.append(part(("unit", idx, site, moment_dir, axis),
                          lambda: UnitTriplet(f"u{idx}", (stator,), track, None)))
    return tuple(units)


def _candidate_valid(placements, lattice, template, built=None):
    sites = [p[0] for p in placements]
    if len(set(sites)) != len(sites):
        return None
    try:
        units = _build_units(placements, lattice, template, built)
    except ConfigError:
        return None
    stator_clear = 0.5 * (_spec_longest(template.stator) + _spec_longest(template.mover))
    mover_clear = _spec_longest(template.mover)
    segs = [u.track.point(u.track.stroke) for u in units]
    for i, u in enumerate(units):
        for j in range(len(units)):
            if i == j:
                continue
            for st in u.stators:
                if ls.point_segment_distance(st.position, *segs[j]) < stator_clear:
                    return None
        for j in range(i + 1, len(units)):
            if _segment_segment_dist(*segs[i], *segs[j]) < mover_clear:
                return None
    return units


def enumerate_candidates(lattice, n_units, key_set, template, budget, seed=0):
    """Deterministic candidate stream, deduplicated up to box symmetry.

    Exhaustive in lexicographic order when the raw combination count fits
    the budget; otherwise seeded uniform sampling of placements (still
    deduplicated) until the budget is filled.
    """
    mag.finite(budget, "budget", 1, inclusive=True, integer=True, high=MAX_BUDGET)
    mag.finite(n_units, "n_units", 1, inclusive=True, integer=True)
    seed = mag.finite(seed, "seed", 0, inclusive=True, integer=True)
    key_set = tuple(key_set)
    if len(key_set) > MAX_CARTESIAN_KEYS:
        raise DesignSpaceError(
            f"more than {MAX_CARTESIAN_KEYS} keys cannot be deterministic "
            "with Cartesian field directions"
        )
    sites = lattice.sites()
    if len(sites) < n_units:
        raise DesignSpaceError("lattice too small for the requested unit count")
    singles = [
        (site, m, ax)
        for site in sites
        for m in lattice.allowed_orientations
        for ax in lattice.allowed_track_axes
    ]
    canonical_key = _canonical_keys(_box_symmetry_group(lattice.extents), lattice.extents)
    seen = set()
    built = {}  # units and their parts, shared by the candidates
    yielded = 0

    def emit(placements):
        nonlocal yielded
        units = _candidate_valid(placements, lattice, template, built)
        if units is None:
            return None
        canon = canonical_key(placements)
        if canon in seen:
            return None
        seen.add(canon)
        yielded += 1
        return CandidateTopology(units, key_set, canon)

    total = math.comb(len(singles), n_units)
    if total <= budget:
        for combo in itertools.combinations(singles, n_units):
            cand = emit(combo)
            if cand is not None:
                yield cand
            if yielded >= budget:
                return
    else:
        rng = np.random.default_rng(seed)
        attempts = 0
        cap = budget * 200
        while yielded < budget and attempts < cap:
            attempts += 1
            idx = rng.choice(len(singles), size=n_units, replace=False)
            combo = tuple(sorted(singles[i] for i in idx))
            cand = emit(combo)
            if cand is not None:
                yield cand


# screening


@dataclass(frozen=True)
class SelectivityCell:
    entry: str  # DRIVE | ANCHOR | WEAK
    driving_peak: float
    margin: float | None
    barrier: float


@dataclass(frozen=True)
class SelectivityMatrix:
    key_labels: tuple
    unit_ids: tuple
    cells: tuple  # rows = keys
    passed: bool
    assignment: tuple | None  # ((key_label, unit_id), ...)
    total_magnet_volume: float | None

    def cell(self, key_label, unit_id) -> SelectivityCell:
        return self.cells[self.key_labels.index(key_label)][
            self.unit_ids.index(unit_id)
        ]


def selectivity_filter(
    candidate, thresholds=None, n_samples: int = ls.DEFAULT_SAMPLES
) -> SelectivityMatrix:
    """Key x unit decision matrix and the one-hot pass verdict.

    Passes iff every key drives exactly one unit (peak >= drive_min), those
    units are all distinct, and every other unit anchors with margin >=
    anchor_min. The one-candidate case of :func:`_matrices`, which the
    screen runs on a batch of candidates.
    """
    units, key_set = _units_and_keys(candidate)
    return _matrices([units], key_set, thresholds, n_samples)[0]


def _matrices(topologies, keys, thresholds, n_samples) -> list:
    """:func:`selectivity_filter`'s matrix of each topology under ``keys``,
    all decided in one ``landscape._decisions_for_topologies`` call."""
    if not keys:
        raise ConfigError("candidate has no keys")
    decided = ls._decisions_for_topologies(topologies, keys, n_samples)
    return [_selectivity_matrix(units, keys, d, thresholds)
            for units, d in zip(topologies, decided)]


def _selectivity_matrix(units, key_set, per_key, thresholds) -> SelectivityMatrix:
    """:func:`selectivity_filter`'s matrix from the decisions of every unit
    under each key (one dict per key, as ``decisions_for_keys`` gives).

    A key is assigned to a unit when exactly that unit DRIVEs, at a peak of
    at least drive_min, and no cell of the key's row is WEAK; the matrix
    passes when every key is assigned, each to a different unit.
    """
    th = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        th.update(thresholds)
    rows, targets = [], []
    for decisions in per_key:
        row = []
        for d in decisions.values():
            if d.snap_through:
                row.append(SelectivityCell("DRIVE", d.driving_peak, None, 0.0))
            elif (d.anchoring_force is not None
                  and d.anchoring_force >= th["anchor_min"]):
                row.append(
                    SelectivityCell(
                        "ANCHOR", d.driving_peak, d.anchoring_force, d.barrier_out
                    )
                )
            else:
                row.append(
                    SelectivityCell("WEAK", d.driving_peak, d.anchoring_force, 0.0)
                )
        rows.append(tuple(row))
        # with one DRIVE cell, no WEAK cell means every other unit anchors
        drives = [uid for uid, c in zip(decisions, row) if c.entry == "DRIVE"]
        one_hot = (len(drives) == 1
                   and decisions[drives[0]].driving_peak >= th["drive_min"]
                   and all(c.entry != "WEAK" for c in row))
        targets.append(drives[0] if one_hot else None)
    labels = tuple(k.label for k in key_set)
    passed = None not in targets and len(set(targets)) == len(targets)
    return SelectivityMatrix(
        labels,
        tuple(u.id for u in units),
        tuple(rows),
        passed,
        tuple(zip(labels, targets)) if passed else None,
        ls.total_magnet_volume(units),
    )


def fidelity(matrix: SelectivityMatrix) -> float:
    """Worst-key contrast score, geometric-scale invariant.

    score = min over keys of driving_peak(target) * min barrier(non-target),
    divided by total_magnet_volume^(5/3): peaks grow as s^2 and barriers as
    s^3 under scaling by s, so the s^5 numerator is cancelled exactly.
    """
    if not matrix.passed or matrix.assignment is None:
        raise MaglogicError("fidelity is defined only for a passing matrix")
    if matrix.total_magnet_volume is None or matrix.total_magnet_volume <= 0:
        raise ConfigError("candidate magnet volume unknown or zero")
    worst = np.inf
    for key_label, target in matrix.assignment:
        i = matrix.key_labels.index(key_label)
        peak = matrix.cell(key_label, target).driving_peak
        barriers = [
            c.barrier for j, c in enumerate(matrix.cells[i])
            if matrix.unit_ids[j] != target
        ]
        if barriers:
            worst = min(worst, peak * min(barriers))
        else:
            worst = min(worst, peak)
    return float(worst / matrix.total_magnet_volume ** (5.0 / 3.0))


def _body_bounds(center, axis, spec):
    center = np.asarray(center, float)
    if spec.shape == "cylinder":
        r, length = spec.dims
        a = mag.unit(axis, "body axis")
        half = np.abs(a) * (length / 2) + r * np.sqrt(np.maximum(0.0, 1.0 - a**2))
    else:
        half = np.asarray(spec.dims, float) / 2
    return center - half, center + half


def compactness(candidate) -> float:
    """Longest physical bounding-box edge in stator diameters.

    Mover bodies are swept over their full stroke. The divisor is the
    largest stator body dimension, so a lone stator scores exactly 1.
    Items in the iterable may be units or bare ``MagnetSource`` stators.
    """
    units, _ = _units_and_keys(candidate)
    stators, boxes = [], []
    for u in units:
        if isinstance(u, mag.MagnetSource):
            stators.append(u)
            continue
        stators += u.stators
        boxes += [_body_bounds(u.track.point(xend), u.track.axis, u.track.mover)
                  for xend in u.track.stroke]
    if not stators:
        raise ConfigError("compactness needs at least one stator")
    if any(s.spec is None for s in stators):
        raise ConfigError("compactness needs stator specs")
    boxes += [_body_bounds(s.position, s.moment, s.spec) for s in stators]
    lo, hi = np.min([b[0] for b in boxes], axis=0), np.max([b[1] for b in boxes], axis=0)
    return float((hi - lo).max() / max(_spec_longest(s.spec) for s in stators))


def activation_pattern(units, key) -> frozenset:
    return _snapped(ls.decisions_for_key(units, key))


def _snapped(decisions) -> frozenset:
    return frozenset(uid for uid, d in decisions.items() if d.snap_through)


def control_entropy(units, key_set) -> float:
    """Shannon entropy (bits) of the key -> activation-pattern map."""
    key_set = tuple(key_set)
    if not key_set:
        raise ConfigError("key set is empty")
    return _pattern_entropy([_snapped(d) for d in ls.decisions_for_keys(units, key_set)])


def _pattern_entropy(patterns) -> float:
    n = len(patterns)
    counts = Counter(patterns).values()
    return float(-sum((c / n) * math.log2(c / n) for c in counts) + 0.0)


# sensitivity


@dataclass(frozen=True)
class SensitivityReport:
    coax_trials: int
    coax_violations: int
    cone_directions: int
    cone_violations: int
    angle_margin_deg: float
    worst_margin: float  # N, smallest non-target margin seen across trials


def cone_directions(axis, half_angle_deg):
    """Center direction plus _CONE_RIM evenly spaced directions on the cone rim."""
    e1, e2, a = mag.basis_from_axis(axis)
    th = np.deg2rad(half_angle_deg)
    dirs = [a]
    for i in range(_CONE_RIM):
        ph = 2 * np.pi * i / _CONE_RIM
        dirs.append(np.cos(th) * a + np.sin(th) * (np.cos(ph) * e1 + np.sin(ph) * e2))
    return dirs


def _one_hot_ok(decisions, expected: frozenset, margins_out=None):
    snapped = set()
    for uid, d in decisions.items():
        if d.snap_through:
            snapped.add(uid)
        elif uid not in expected:
            if d.anchoring_force is None or d.anchoring_force <= 0:
                return False
            if margins_out is not None:
                margins_out.append(d.anchoring_force)
    return snapped == set(expected)


def _offset_topology(units, rng, radius):
    out = []
    for u in units:
        e1, e2, _ = mag.basis_from_axis(u.track.axis)
        r = radius * np.sqrt(rng.uniform())
        ph = rng.uniform(0.0, 2 * np.pi)
        off = r * (np.cos(ph) * e1 + np.sin(ph) * e2)
        out.append(replace(u, track=replace(
            u.track, origin=tuple(np.asarray(u.track.origin) + off))))
    return out


def _mover_diameter(spec: MagnetSpec) -> float:
    if spec.shape == "cylinder":
        return 2 * spec.dims[0]
    return max(spec.dims)


def sensitivity_sweep(
    candidate,
    coax_frac: float,
    angle_deg: float,
    n_trials: int,
    seed: int,
) -> SensitivityReport:
    """Monte Carlo coaxiality offsets plus a deterministic key-direction cone.

    Violations count every (trial, key) or (key, direction) whose activation
    pattern deviates from nominal or whose non-targets lose their anchoring.
    The angle margin is the largest cone half-angle (up to 85 deg, 0.25 deg
    resolution) at which the full rim grid stays clean. Each distinct key is
    decided once on the nominal topology, so a cone centre equal to a key
    (or to an earlier probe's direction) is not decided again. The nominal
    keys and the cone at ``angle_deg`` are decided in one multi-key lockstep
    pass (:func:`landscape.decisions_for_keys`). The offset topologies are
    drawn trial by trial and decided afresh, SCREEN_BATCH trials to one
    set-up (``landscape._decisions_for_topologies``), each chunk drawn
    just before it is decided. While the margin is searched, each probe
    takes at most two calls. The first decides the rim direction that
    failed last (the first key's cone before any has failed), and the
    probe stops if that fails. Otherwise the second decides every other
    direction of the probe, and the results are walked in key order up to
    the first failure, which becomes the next probe's first call. Every
    decision has the same bits in any batch, so the report does not
    depend on how the work is grouped.
    """
    mag.finite(n_trials, "n_trials", 1, inclusive=True, integer=True,
               high=MAX_TRIALS)
    coax_frac = mag.finite(coax_frac, "coax_frac", 0.0, inclusive=True)
    if not 0.0 < mag.finite(angle_deg, "angle_deg") <= _ANGLE_CAP_DEG:
        raise ConfigError(f"angle_deg must lie in (0, {_ANGLE_CAP_DEG:g}], "
                          f"got {angle_deg!r}")
    seed = mag.finite(seed, "seed", 0, inclusive=True, integer=True)
    units, key_set = _units_and_keys(candidate)
    if not key_set:
        raise ConfigError("candidate has no keys")
    nominal = {}  # FieldKey -> decisions on the nominal topology

    def decided(keys):
        new = [k for k in dict.fromkeys(keys) if k not in nominal]
        if new:
            nominal.update(zip(new, ls.decisions_for_keys(units, new)))
        return [nominal[k] for k in keys]

    def cones(half_deg):  # every key's cone, key by key, centre first
        return [FieldKey(tuple(d), k.magnitude, k.label)
                for k in key_set for d in cone_directions(k.direction, half_deg)]

    probes = cones(angle_deg)
    n_dirs = len(probes)
    expected = {k.label: _snapped(d)
                for k, d in zip(key_set, decided([*key_set, *probes]))}
    margins = []

    radius = coax_frac * max(_mover_diameter(u.track.mover) for u in units)
    rng = np.random.default_rng(seed)
    coax_viol = 0
    for start in range(0, n_trials, SCREEN_BATCH):
        count = min(SCREEN_BATCH, n_trials - start)
        if radius > 0:  # each chunk is drawn just before it is decided
            trials = ls._decisions_for_topologies(
                [_offset_topology(units, rng, radius) for _ in range(count)], key_set)
        else:
            trials = [decided(key_set)] * count
        for trial in trials:
            for k, decs in zip(key_set, trial):
                if not _one_hot_ok(decs, expected[k.label], margins):
                    coax_viol += 1

    failing = [i for i, (fk, decs) in enumerate(zip(probes, decided(probes)))
               if not _one_hot_ok(decs, expected[fk.label], margins)]
    cone_viol = len(failing)
    # index in cones() of the direction that failed last: the next probe
    # decides it first, in a call of its own, since one decision when it
    # fails again saves more than the set-up costs when it passes (measured
    # on five demo sweeps against deciding that key's whole cone first);
    # a probe that passes it decides every other direction in one more call
    last_fail = failing[0] if failing else None

    def cone_clean(half_deg):
        nonlocal last_fail
        dirs = cones(half_deg)
        first = range(_CONE_RIM + 1) if last_fail is None else [last_fail]
        for group in (first, range(len(dirs))):  # decided() reuses the first's
            for i, decs in zip(group, decided([dirs[i] for i in group])):
                if not _one_hot_ok(decs, expected[dirs[i].label]):
                    last_fail = i
                    return False
        return True

    if cone_viol > 0:
        lo, hi = 0.0, angle_deg
    else:
        lo, hi = angle_deg, None
        probe = max(angle_deg, 1.0)
        while hi is None and probe < _ANGLE_CAP_DEG:
            probe = min(probe * 1.5, _ANGLE_CAP_DEG)
            if cone_clean(probe):
                lo = probe
            else:
                hi = probe
    if hi is not None:
        while hi - lo > _ANGLE_RESOLUTION_DEG:
            mid = 0.5 * (lo + hi)
            if cone_clean(mid):
                lo = mid
            else:
                hi = mid
    return SensitivityReport(
        n_trials, coax_viol, n_dirs, cone_viol, float(lo),
        float(min(margins)) if margins else float("nan"),
    )


def cross_interference(candidate) -> float:
    """Max key-induced latch-force change on a non-target / target peak."""
    units, key_set = _units_and_keys(candidate)
    if not key_set:
        raise ConfigError("candidate has no keys")
    no_key, *keyed = ls.decisions_for_keys(units, [None, *key_set])
    base = {uid: d.force_at_inner_stop for uid, d in no_key.items()}
    worst = 0.0
    for k, decs in zip(key_set, keyed):
        targets = [uid for uid, d in decs.items() if d.snap_through]
        if len(targets) != 1:
            raise MaglogicError(
                f"key {k.label!r} does not address exactly one unit"
            )
        peak = decs[targets[0]].driving_peak
        for uid, d in decs.items():
            if uid == targets[0]:
                continue
            worst = max(worst, abs(d.force_at_inner_stop - base[uid]) / peak)
    return float(worst)


# reporting


@dataclass(frozen=True)
class DesignReport:
    candidate: object
    matrix: SelectivityMatrix
    fidelity: float
    compactness: float
    entropy: float
    candidate_hash: str


def evaluate_candidate(
    candidate, thresholds=None, n_samples: int = ls.DEFAULT_SAMPLES
) -> DesignReport:
    return _report(candidate, selectivity_filter(candidate, thresholds, n_samples))


def _report(candidate, matrix: SelectivityMatrix) -> DesignReport:
    """:func:`evaluate_candidate`'s report from the candidate's matrix."""
    if matrix.passed:
        fid = fidelity(matrix)
        comp = compactness(candidate.units)
        # DRIVE cells are exactly the snap-through decisions of each key
        ent = _pattern_entropy([
            frozenset(uid for uid, c in zip(matrix.unit_ids, row) if c.entry == "DRIVE")
            for row in matrix.cells
        ])
    else:
        fid, comp, ent = 0.0, float("nan"), float("nan")
    return DesignReport(candidate, matrix, fid, comp, ent, candidate.candidate_hash)


def rank(reports):
    """Passing reports by descending fidelity; ties break by hash."""
    passing = [r for r in reports if r.matrix.passed]
    if not passing:
        raise NoPassingCandidateError("no candidate passed the selectivity filter")
    return sorted(passing, key=lambda r: (-r.fidelity, r.candidate_hash))


def run_pipeline(
    lattice,
    n_units,
    key_set,
    template,
    budget,
    seed=0,
    thresholds=None,
    threads: int = 1,
    n_samples: int = ls.DEFAULT_SAMPLES,
):
    """enumerate -> filter -> metrics, in deterministic candidate order.

    Candidates are screened SCREEN_BATCH at a time, a batch per
    :func:`_matrices` call, so a 120-candidate screen makes four engine
    calls: one set-up, its arrays built over the whole batch, and one
    lockstep root-finding run decide every (candidate, key, unit) profile
    of a batch, and each candidate's report equals its
    :func:`evaluate_candidate`. When a batch raises, each of its
    candidates goes through :func:`selectivity_filter` on its own, so the
    error is the one a candidate-by-candidate loop raises first.

    ``threads`` is kept only because the benchmark's ``screen`` workload
    passes ``threads=1``; any other value raises ConfigError. It goes once
    the benchmark stops passing it.
    """
    if threads != 1:
        raise ConfigError(f"threads must be 1, got {threads!r}")
    candidates = list(
        enumerate_candidates(lattice, n_units, key_set, template, budget, seed))
    reports = []
    for start in range(0, len(candidates), SCREEN_BATCH):
        batch = candidates[start:start + SCREEN_BATCH]
        try:
            matrices = _matrices([c.units for c in batch], batch[0].key_set,
                                 thresholds, n_samples)
        except MaglogicError:  # raises what the first failing candidate raises
            matrices = (selectivity_filter(c, thresholds, n_samples) for c in batch)
        reports += [_report(c, m) for c, m in zip(batch, matrices)]
    return reports
