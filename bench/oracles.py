"""Independent reference computations for the benchmark's output checks.

Nothing here imports ``maglogic`` or numpy: every formula is written out
again in plain Python from the physics, so a check that passes is an
agreement between two implementations, not a program compared with
itself. Inputs are the documented JSON formats (``docs/formats.md``) or
plain sequences of floats.

* closed-form point-dipole field and force, with hand values checked by
  :func:`self_check`;
* the exact binomial lower tail, summed with ``math.lgamma``, for the
  Clopper-Pearson identity;
* a dense-grid descent classifier for the one-hot drive/anchor verdict;
* a finite-difference test of ``F = -dU/dx`` on sampled profiles.
"""

from __future__ import annotations

import math

MU0 = 4e-7 * math.pi
_COEF = MU0 / (4.0 * math.pi)  # 1e-7 T*m/A


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _scale(s, a):
    return (s * a[0], s * a[1], s * a[2])


def _norm(a):
    return math.sqrt(_dot(a, a))


def _unit(a):
    n = _norm(a)
    return _scale(1.0 / n, a)


def dipole_field(src, m, point):
    """B at ``point`` of a dipole ``m`` at ``src``: 1e-7 (3(m.r)r/r^5 - m/r^3)."""
    r = _sub(point, src)
    d2 = _dot(r, r)
    d = math.sqrt(d2)
    c = _COEF / (d2 * d)
    k = 3.0 * _dot(m, r) / d2
    return (c * (k * r[0] - m[0]), c * (k * r[1] - m[1]), c * (k * r[2] - m[2]))


def dipole_force(src, m_src, point, m):
    """Force on dipole ``m`` at ``point`` due to dipole ``m_src`` at ``src``.

    F = 3 mu0 / (4 pi r^4) ((ma.r) mb + (mb.r) ma + (ma.mb) r - 5 (ma.r)(mb.r) r)
    with r the unit vector from the source to the point.
    """
    r = _sub(point, src)
    d = _norm(r)
    rh = _scale(1.0 / d, r)
    ar = _dot(m_src, rh)
    br = _dot(m, rh)
    ab = _dot(m_src, m)
    c = 3.0 * _COEF / d**4
    s = ab - 5.0 * ar * br
    return tuple(c * (ar * m[i] + br * m_src[i] + s * rh[i]) for i in range(3))


def binomial_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), summed term by term in log space."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    ln_fact_n = math.lgamma(n + 1)
    return math.fsum(
        math.exp(ln_fact_n - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 + i * lp + (n - i) * lq)
        for i in range(k + 1)
    )


def clopper_pearson_residual(k: int, n: int, alpha: float, upper: float) -> float:
    """|P(X <= k; n, upper) - alpha|: zero for the exact upper bound."""
    return abs(binomial_cdf(k, n, upper) - alpha)


def fd_force_residual(xs, energy, force) -> float:
    """Largest |F + dU/dx| over interior samples, relative to max |F|.

    dU/dx is the central difference of the sampled energy, so the residual
    carries the O(h^2) truncation error of the sampling grid.
    """
    peak = max(abs(f) for f in force)
    worst = 0.0
    for i in range(1, len(xs) - 1):
        dudx = (energy[i + 1] - energy[i - 1]) / (xs[i + 1] - xs[i - 1])
        worst = max(worst, abs(force[i] + dudx))
    return worst / peak


def self_check() -> None:
    """Hand values: a coaxial pair of 1 A m^2 dipoles 1 m apart attract with
    3 mu0 / (2 pi) = 6e-7 N, and 1 A m^2 gives 2e-4 T on axis at 0.1 m."""
    z = (0.0, 0.0, 1.0)
    f = dipole_force((0.0, 0.0, 0.0), z, (0.0, 0.0, 1.0), z)
    if abs(f[2] + 6e-7) > 1e-20 or abs(f[0]) + abs(f[1]) > 0.0:
        raise AssertionError(f"coaxial pair force {f} != (0, 0, -6e-7) N")
    b = dipole_field((0.0, 0.0, 0.0), z, (0.0, 0.0, 0.1))
    if abs(b[2] - 2e-4) > 1e-17 or abs(b[0]) + abs(b[1]) > 0.0:
        raise AssertionError(f"on-axis field {b} != (0, 0, 2e-4) T")
    if abs(binomial_cdf(1, 2, 0.5) - 0.75) > 1e-15:
        raise AssertionError("binomial tail P(X<=1; 2, 1/2) != 3/4")


# dense-grid descent classifier over a topology document


def _moment(spec: dict, axis) -> tuple:
    """|m| = B_r V / mu0 along ``axis`` for a cylinder or block spec."""
    if spec["shape"] == "cylinder":
        r, length = spec["dims"]
        volume = math.pi * r * r * length
    else:
        lx, ly, lz = spec["dims"]
        volume = lx * ly * lz
    return _scale(spec["remanence"] * volume / MU0, _unit(tuple(axis)))


class _Unit:
    def __init__(self, doc: dict):
        track = doc["track"]
        self.id = doc["id"]
        self.stators = [(tuple(s["position"]), _moment(s["spec"], s["axis"]))
                        for s in doc["stators"]]
        self.axis = _unit(tuple(track["axis"]))
        self.origin = tuple(track["origin"])
        self.x_in, self.x_out = track["stroke"]
        self.m_mag = _norm(_moment(track["mover"], (1.0, 0.0, 0.0)))

    def point(self, x):
        return _add(self.origin, _scale(x, self.axis))


def _field(sources, point, key):
    b = key
    for pos, m in sources:
        b = _add(b, dipole_field(pos, m, point))
    return b


def _rest_moments(units, key):
    """Mover moments at their inner stops, each aligned with its local field."""
    stators = [s for u in units for s in u.stators]
    pts = [u.point(u.x_in) for u in units]
    base = [_field(stators, p, key) for p in pts]
    dirs = [_unit(b) if _norm(b) > 1e-30 else u.axis for b, u in zip(base, units)]
    damping = 1.0
    for it in range(500):
        new = []
        for i, u in enumerate(units):
            b = base[i]
            for j, v in enumerate(units):
                if j != i:
                    b = _add(b, dipole_field(pts[j], _scale(v.m_mag, dirs[j]), pts[i]))
            new.append(_unit(b) if _norm(b) > 1e-30 else dirs[i])
        if damping < 1.0:
            new = [_unit(_add(d, _scale(damping, _sub(n, d))))
                   for d, n in zip(dirs, new)]
        delta = max(abs(a - b) for d, n in zip(dirs, new) for a, b in zip(d, n))
        dirs = new
        if delta < 1e-13:
            break
        if it == 100:
            damping = 0.5
    return [(p, _scale(u.m_mag, d)) for p, u, d in zip(pts, units, dirs)]


def dense_profile(units, target: int, key, n: int):
    """(xs, U, F) of one mover swept over its stroke, others latched.

    The swept mover's moment follows the local field, so U = -|m||B| up to
    a constant and F is the axial force on that aligned moment.
    """
    movers = _rest_moments(units, key)
    fixed = [s for u in units for s in u.stators]
    fixed += [mv for i, mv in enumerate(movers) if i != target]
    u = units[target]
    xs, energy, force = [], [], []
    for i in range(n):
        x = u.x_in + (u.x_out - u.x_in) * i / (n - 1)
        p = u.point(x)
        b = _field(fixed, p, key)
        nb = _norm(b)
        m = _scale(u.m_mag / nb, b)
        f = (0.0, 0.0, 0.0)
        for pos, ms in fixed:
            f = _add(f, dipole_force(pos, ms, p, m))
        xs.append(x)
        energy.append(-u.m_mag * nb)
        force.append(_dot(f, u.axis))
    return xs, energy, force


def _verdict(xs, energy, force, thresholds):
    """'DRIVE', 'ANCHOR' or None (neither, which fails the candidate).

    Drive: interior force positive everywhere and the peak clears drive_min.
    Anchor: a downhill walk from the inner stop lands before the outer stop,
    the energy rises again past the landing point, and the weakest
    restoring force over that basin clears anchor_min. The force vanishes
    at an interior basin floor and at an interior crest, so 2 % of the
    basin span is trimmed at whichever end is not a hard stop.
    """
    n = len(xs)
    if all(f > 0.0 for f in force[1:-1]):
        return "DRIVE" if max(force) >= thresholds["drive_min"] else None
    land = 0
    while land + 1 < n and energy[land + 1] < energy[land]:
        land += 1
    if land == n - 1:
        return None
    crest = land
    while crest + 1 < n and energy[crest + 1] > energy[crest]:
        crest += 1
    if energy[crest] <= energy[land]:
        return None
    lo, hi = xs[land], xs[crest]
    pad = 0.02 * (hi - lo)
    if land > 0:
        lo += pad
    if crest < n - 1:
        hi -= pad
    basin = [-force[j] for j in range(land, crest + 1) if lo <= xs[j] <= hi]
    if not basin or min(basin) < thresholds["anchor_min"]:
        return None
    return "ANCHOR"


def one_hot_verdict(topology_doc: dict, thresholds: dict, n: int = 2001):
    """Pass/fail of the one-hot screen for a topology document.

    Returns ``(passed, {key label: driven unit id})``; passing needs every
    key to drive exactly one unit, every other unit to anchor, and the
    driven units to be distinct.
    """
    units = [_Unit(u) for u in topology_doc["units"]]
    driven_by = {}
    for key in topology_doc["key_set"]:
        kvec = _scale(key["magnitude"], tuple(key["direction"]))
        driven = []
        for t, u in enumerate(units):
            verdict = _verdict(*dense_profile(units, t, kvec, n), thresholds)
            if verdict is None:
                return False, driven_by
            if verdict == "DRIVE":
                driven.append(u.id)
        if len(driven) != 1:
            return False, driven_by
        driven_by[key["label"]] = driven[0]
    return len(set(driven_by.values())) == len(driven_by), driven_by


def master_field(master_dipoles, point):
    """Superposed field of the master's point dipoles ``[(pos, m), ...]``."""
    return _field(master_dipoles, point, (0.0, 0.0, 0.0))
