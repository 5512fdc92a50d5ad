"""Point-dipole magnetostatics for permanent-magnet assemblies.

All quantities are SI: meters, tesla, A*m^2, joules, newtons, N*m.
Every magnet is represented by one point dipole at its center by default;
an opt-in grid discretization refines near-field behavior without changing
the public interface.

Conventions
-----------
* ``B(r) = MU0/(4 pi) * (3 (m.rhat) rhat - m) / |r|^3``
* pair energy   ``U = MU0/(4 pi r^3) * (ma.mb - 3 (ma.rhat)(mb.rhat))``
* force on b    ``F = 3 MU0/(4 pi r^4) * ((ma.rhat) mb + (mb.rhat) ma
  + (ma.mb) rhat - 5 (ma.rhat)(mb.rhat) rhat)`` with ``r = pb - pa``
* a spatially uniform field key exerts zero net force on any source and the
  torque ``m x B``.

Kernel layout
-------------
:func:`dipole_field` and :func:`dipole_forces` take K fixed dipoles, shared
(K, 3) or one set per field point (N, K, 3), and N field points (N, 3).
They work on component planes: points become (3, 1, N), shared sources
(3, K, 1) and per-row sources a contiguous (3, K, N) copy, so every
elementwise step runs over a (K, N) plane with an N-long inner loop.
Results are bit-identical to the point-major (N, K, 3) formulation:

* ``d^2 = (x x + z z) + y y`` and every ``m.r`` in np.einsum's order for
  3-vectors; the force's ``d = sqrt((x x + y y) + z z)`` in
  np.linalg.norm's order;
* ``test_m.src_m`` is the BLAS product ``moments @ src_m.T`` for shared
  sources and a stacked 1-row matmul per row for per-row sources;
* the sum over K is a running sum ``k = 0 ... K-1``;
* outputs are C-ordered (N, 3): callers' reductions, such as an einsum
  over the components, round differently on F-ordered operands.

Elementwise ufuncs round the same in any memory layout; reductions and
BLAS calls need not, which is what these rules pin.

The set-up solvers take S source sets at once, each with its own
geometry: :func:`equilibrium_directions` per-set points, magnitudes,
fixed fields and fallback axes (S, n, ...), and :func:`assembly_energies`
per-set fixed sources, free positions and moments, and keys. Each set
gets the bits of a one-set call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MaglogicError, SingularConfigError

MU0 = 4.0 * np.pi * 1e-7  # vacuum permeability, T*m/A (exact in SI-1948 units)
COINCIDENCE_EPS = 1e-9  # meters; closer than this counts as "same point"

_UNIT_TOL = 1e-9


def unit(v: np.ndarray) -> np.ndarray:
    """Return v/|v|, raising on (near-)zero input."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise ConfigError("cannot normalize a zero vector")
    return v / n


def finite(value, what: str, low=None, inclusive: bool = False,
           integer: bool = False):
    """``value`` as a float (as an int with ``integer``).

    Raises ConfigError naming ``what`` unless ``value`` is a finite real that
    is not a bool (an integral one with ``integer``) and lies above ``low``
    (or at it, with ``inclusive``).
    """
    number = math.nan
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)):
        try:
            number = int(value) if integer else float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not (-math.inf < number < math.inf
            and (low is None or number > low or (inclusive and number == low))):
        kind = "an integer" if integer else "a finite number"
        bound = "" if low is None else f" {'>=' if inclusive else '>'} {low:g}"
        raise ConfigError(f"{what} must be {kind}{bound}, got {value!r}")
    return number


def vector(value, what: str, n: int = 3, unit_norm: bool = False,
           **bounds) -> tuple:
    """``n`` numbers checked by :func:`finite` (with ``bounds``) as a tuple;
    with ``unit_norm``, their norm must be 1 within 1e-9."""
    try:
        items = tuple(value)
    except TypeError:
        items = ()
    if len(items) != n:
        raise ConfigError(f"{what} must be {n} numbers, got {value!r}")
    out = tuple(finite(v, what, **bounds) for v in items)
    if unit_norm and not abs(np.linalg.norm(out) - 1.0) <= _UNIT_TOL:
        raise ConfigError(f"{what} must have unit length, got {value!r}")
    return out


def text(value, what: str, optional: bool = False):
    """``value`` if it is a string (or None, with ``optional``), for ids and labels."""
    if isinstance(value, str) or (optional and value is None):
        return value
    raise ConfigError(f"{what} must be a string, got {value!r}")


@dataclass(frozen=True)
class MagnetSpec:
    """Geometric and material description of one hard magnet.

    Parameters
    ----------
    shape : str
        ``"cylinder"`` (dims = (radius, length)) or ``"block"``
        (dims = (lx, ly, lz)).
    dims : tuple of float
        Dimensions in meters, all strictly positive.
    remanence : float
        Remanent flux density B_r in tesla, strictly positive.
    easy_axis : tuple of float
        Unit magnetization direction in the world frame.
    """

    shape: str
    dims: tuple
    remanence: float
    easy_axis: tuple

    def __post_init__(self):
        if self.shape not in ("cylinder", "block"):
            raise ConfigError(f"unknown magnet shape {self.shape!r}")
        ndims = 2 if self.shape == "cylinder" else 3
        object.__setattr__(self, "dims", vector(
            self.dims, f"{self.shape} dims", ndims, low=0.0))
        finite(self.remanence, "remanence", 0.0)
        object.__setattr__(self, "easy_axis", vector(
            self.easy_axis, "easy_axis", unit_norm=True))


def volume(spec: MagnetSpec) -> float:
    """Magnet volume in m^3."""
    if spec.shape == "cylinder":
        r, length = spec.dims
        return np.pi * r * r * length
    lx, ly, lz = spec.dims
    return lx * ly * lz


def moment_from_spec(spec: MagnetSpec) -> np.ndarray:
    """Dipole moment vector ``B_r * V / MU0 * easy_axis`` in A*m^2."""
    m = spec.remanence * volume(spec) / MU0
    return m * np.asarray(spec.easy_axis, dtype=float)


def basis_from_axis(axis) -> np.ndarray:
    """Right-handed orthonormal basis rows (e1, e2, unit(axis)), deterministic."""
    a = unit(axis)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(a[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = unit(np.cross(helper, a))
    e2 = np.cross(a, e1)
    return np.stack([e1, e2, a])


@dataclass(frozen=True, eq=False)
class MagnetSource:
    """A magnet placed in the world: position, net moment, optional sub-dipoles.

    ``subdipoles`` is a tuple of (offset_vector, fraction) pairs in the world
    frame; fractions sum to 1 and offsets stay inside the magnet envelope.
    ``None`` means a single point dipole at ``position``.
    """

    position: np.ndarray
    moment: np.ndarray
    spec: MagnetSpec | None = None
    subdipoles: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.array(vector(self.position, "source position")))
        object.__setattr__(self, "moment",
                           np.array(vector(self.moment, "source moment")))

    def dipole_positions(self) -> np.ndarray:
        if self.subdipoles is None:
            return self.position[None, :]
        return self.position[None, :] + np.array([o for o, _ in self.subdipoles])

    def dipole_moments(self) -> np.ndarray:
        if self.subdipoles is None:
            return self.moment[None, :]
        fr = np.array([f for _, f in self.subdipoles])
        return fr[:, None] * self.moment[None, :]

    def __eq__(self, other):
        if not isinstance(other, MagnetSource):
            return NotImplemented
        return (
            np.array_equal(self.position, other.position)
            and np.array_equal(self.moment, other.moment)
            and self.spec == other.spec
            and _subdipoles_equal(self.subdipoles, other.subdipoles)
        )


def _subdipoles_equal(a, b) -> bool:
    if a is None or b is None:
        return a is b
    if len(a) != len(b):
        return False
    return all(
        np.array_equal(oa, ob) and fa == fb for (oa, fa), (ob, fb) in zip(a, b)
    )


def _cylinder_offsets(spec: MagnetSpec, n: int) -> np.ndarray:
    r, length = spec.dims
    # n^3 grid over the bounding box, keep cell centers inside the cylinder
    xs = (np.arange(n) + 0.5) / n
    gx, gy, gz = np.meshgrid(
        (xs - 0.5) * 2 * r, (xs - 0.5) * 2 * r, (xs - 0.5) * length, indexing="ij"
    )
    pts = np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)
    keep = pts[:, 0] ** 2 + pts[:, 1] ** 2 <= r * r
    return pts[keep]


def _block_offsets(spec: MagnetSpec, n: int) -> np.ndarray:
    lx, ly, lz = spec.dims
    xs = (np.arange(n) + 0.5) / n - 0.5
    gx, gy, gz = np.meshgrid(xs * lx, xs * ly, xs * lz, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)


def source_from_spec(
    spec: MagnetSpec,
    position,
    axis=None,
    discretize: int = 1,
) -> MagnetSource:
    """Place a magnet in the world.

    Parameters
    ----------
    spec : MagnetSpec
    position : array_like, shape (3,)
        Center of the magnet, meters.
    axis : array_like, optional
        World direction for the moment; defaults to ``spec.easy_axis``.
        The magnitude |m| always comes from the spec.
    discretize : int
        1 = single point dipole (default). n > 1 = n^3 grid of sub-dipoles
        (cells outside a cylindrical envelope are dropped); moments sum to
        the net moment exactly.
    """
    m_mag = np.linalg.norm(moment_from_spec(spec))
    direction = unit(spec.easy_axis if axis is None else vector(axis, "source axis"))
    moment = m_mag * direction
    if discretize <= 1:
        return MagnetSource(position, moment, spec=spec)
    # magnet-frame offsets with the local z along the moment direction
    local = (
        _cylinder_offsets(spec, discretize)
        if spec.shape == "cylinder"
        else _block_offsets(spec, discretize)
    )
    basis = basis_from_axis(direction)  # rows e1, e2, axis
    world = local @ basis
    k = len(world)
    fr = np.full(k, 1.0 / k)
    fr[-1] = 1.0 - fr[:-1].sum()  # exact unity
    subs = tuple((world[i].copy(), float(fr[i])) for i in range(k))
    return MagnetSource(position, moment, spec=spec, subdipoles=subs)


@dataclass(frozen=True)
class FieldKey:
    """A spatially uniform broadcast field: direction (unit), magnitude (T)."""

    direction: tuple
    magnitude: float
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "direction", vector(
            self.direction, "key direction", unit_norm=True))
        finite(self.magnitude, "key magnitude", 0.0, inclusive=True)
        text(self.label, "key label")

    @property
    def vector(self) -> np.ndarray:
        return self.magnitude * np.asarray(self.direction)


# ---------------------------------------------------------------------------
# vectorized primitives (component planes over sources x field points)
# ---------------------------------------------------------------------------


def _planes(src_pos, src_m, points):
    """``r = point - source`` (3, K, N) and the source moment planes.

    Shared sources (K, 3) give moment planes (3, K, 1); per-row sources
    (N, K, 3) give a contiguous (3, K, N) copy. points : (N, 3).
    """
    pts = np.asarray(points, dtype=float).T[:, None, :]
    if src_pos.ndim == 3:
        pos, m = src_pos.transpose(2, 1, 0), src_m.transpose(2, 1, 0)
    else:
        pos, m = src_pos.T[:, :, None], src_m.T[:, :, None]
    return np.subtract(pts, pos, order="C"), np.ascontiguousarray(m)


def _dot(a, b):
    """Plane dot product ``(a0 b0 + a2 b2) + a1 b1``, np.einsum's order
    for 3-vectors."""
    p = a * b
    out = p[0] + p[2]
    out += p[1]
    return out


def _sum_sources(terms):
    """C-ordered (N, 3) sum of (3, K, N) terms over K, ``k = 0 ... K-1``.

    A running sum: ``terms.sum(axis=1)`` sums pairwise when N = 1 and
    K >= 8, and so rounds differently from a K-long loop.
    """
    _, k, n = terms.shape
    if k == 0:
        return np.zeros((n, 3))
    out = np.empty((n, 3))
    acc = out.T
    if k == 1:
        np.copyto(acc, terms[:, 0])
        return out
    np.add(terms[:, 0], terms[:, 1], acc)
    for j in range(2, k):
        acc += terms[:, j]
    return out


def dipole_field(src_pos: np.ndarray, src_m: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Field of point dipoles summed at ``points``.

    src_pos, src_m : (K, 3), shared by every point, or (N, K, 3), one source
    set per point (row); points : (N, 3) or one point (3,). Returns C-ordered
    (N, 3) (or (3,)) tesla, computed on component planes with the bit rules
    of the module docstring. A row of a per-row call has the bits of a
    1-point call with that row's sources.
    """
    pts = np.asarray(points, dtype=float)
    r, m = _planes(src_pos, src_m, pts.reshape(-1, 3))
    d2 = _dot(r, r)
    d = np.sqrt(d2)
    if (d < COINCIDENCE_EPS).any():
        raise SingularConfigError("field point coincides with a dipole")
    out = _sum_sources(_field_terms(r, d2, d ** 3, m))
    return out[0] if pts.ndim == 1 else out


def _field_terms(r, d2, d3, m):
    """(3, K, N) field of source k at point n, the terms :func:`dipole_field`
    sums over K.

    r : (3, K, N) point minus source; d2, d3 : (K, N) squared and cubed
    distances; m : source moment planes (3, K, 1) or (3, K, N).
    ``m.r = (mx x + mz z) + my y`` in np.einsum's order.
    """
    coef = MU0 / (4.0 * np.pi)
    t = _dot(m, r)
    t *= 3.0
    t /= d2
    t *= coef
    B = r * t
    B /= d3
    B -= coef * m / d3
    return B


def dipole_forces(src_pos, src_m, points, moments) -> np.ndarray:
    """Net force on test dipoles (points[i], moments[i]) from fixed dipoles.

    src_pos, src_m : (K, 3), or per-row (N, K, 3) as in :func:`dipole_field`;
    points, moments : (N, 3). Returns C-ordered (N, 3) newtons, computed on
    component planes with the bit rules of the module docstring; the
    stacked matmul keeps each row of a per-row call equal to a 1-row call.
    """
    mts = np.asarray(moments, dtype=float)
    r, m = _planes(src_pos, src_m, points)
    p = r * r
    d = p[0] + p[1]
    d += p[2]
    np.sqrt(d, out=d)
    if (d < COINCIDENCE_EPS).any():
        raise SingularConfigError("a dipole coincides with a source dipole")
    r /= d  # rhat
    t = np.ascontiguousarray(mts.T)[:, None, :]
    mbr = _dot(t, r)
    mar = _dot(m, r)
    if src_m.ndim == 3:
        mamb = np.matmul(mts[:, None, :], src_m.transpose(0, 2, 1))[:, 0, :].T
    else:
        mamb = (mts @ src_m.T).T
    coef = 3.0 * MU0 / (4.0 * np.pi * d**4)
    w = 5.0 * mar
    w *= mbr
    np.subtract(mamb, w, out=w)
    F = mar * t
    F += np.multiply(mbr, m, out=p)
    F += np.multiply(w, r, out=p)
    F *= coef
    return _sum_sources(F)


def pair_energy(a: MagnetSource, b: MagnetSource) -> float:
    """Mutual magnetostatic energy of two sources, joules.

    The (Nb, Na) sub-dipole pair terms, ``r = b - a``, are summed pairwise
    by ``U.sum()``.
    """
    ma, mb = a.dipole_moments(), b.dipole_moments()
    r = b.dipole_positions()[:, None, :] - a.dipole_positions()
    return float(_pair_energies(r, ma, mb[:, None, :], mb @ ma.T).sum())


def _pair_energies(r, ma, mb, mamb):
    """Energies of dipoles ``ma`` and ``mb`` at offset ``r`` from it,
    elementwise over broadcast (..., 3) operands, given ``mamb = ma.mb``.

    ``d`` in np.linalg.norm's order and ``m.rhat`` in np.einsum's: a point
    dipole pair with a stacked 1x1 matmul for ``mamb`` has the bits of
    :func:`pair_energy`.
    """
    r, ma, mb = np.broadcast_arrays(r, ma, mb)
    d = np.linalg.norm(r, axis=-1)
    if np.any(d < COINCIDENCE_EPS):
        raise SingularConfigError("a dipole coincides with a source dipole")
    rhat = np.moveaxis(r / d[..., None], -1, 0)
    mar = _dot(np.moveaxis(ma, -1, 0), rhat)
    mbr = _dot(np.moveaxis(mb, -1, 0), rhat)
    return MU0 / (4.0 * np.pi * d**3) * (mamb - 3.0 * mbr * mar)


def pair_force(a: MagnetSource, b: MagnetSource) -> np.ndarray:
    """Net force on source b due to source a, newtons."""
    return dipole_forces(
        a.dipole_positions(), a.dipole_moments(),
        b.dipole_positions(), b.dipole_moments()).sum(axis=0)


def equilibrium_directions(points, mags, base, fallback) -> np.ndarray:
    """Torque-equilibrium directions (S, n, 3) of S sets of n free point
    dipoles, solved in lockstep.

    Dipole i of set s sits at ``points[s, i]``, has moment magnitude
    ``mags[s, i]`` and feels ``base[s, i]`` plus the fields of its set's
    other free dipoles; every argument is per set, (S, n, ...). Each set
    iterates u_i = unit(B_i) to 1e-13 from unit(base) and stops on its own;
    a dipole in near-zero field keeps its direction (``fallback[s, i]`` at
    the start), and damping 0.5 starts after iteration 100 for every set.
    One :func:`_field_terms` call on (3, S, n, n) planes per iteration
    serves every open set, and each dipole adds the others in index order,
    so every set gets the bits of a one-set solve and of a per-pair
    :func:`dipole_field` loop.
    """
    # sqrt(vecdot) has the bits of np.linalg.norm of one 3-vector
    n = np.sqrt(np.vecdot(base, base))
    ok = n > 1e-30
    out = np.empty_like(base)
    np.divide(base, n[..., None], out=out, where=ok[..., None])
    out[~ok] = fallback[~ok]
    n_free = points.shape[1]
    # r[:, s, j, i] points from dipole j to dipole i; the diagonal is never added
    planes = np.ascontiguousarray(points.transpose(2, 0, 1))
    r = planes[:, :, None, :] - planes[..., None]
    d2 = _dot(r, r)
    off = ~np.eye(n_free, dtype=bool)
    d2[:, ~off] = 1.0
    d = np.sqrt(d2)
    if np.any(d[:, off] < COINCIDENCE_EPS):
        raise SingularConfigError("field point coincides with a dipole")
    d3 = d ** 3
    open_sets = np.arange(len(base))
    u_dirs = out.copy()
    damping = 1.0
    for it in range(500):
        # (3, set, source j, point i) terms
        F = _field_terms(r, d2, d3, (mags[..., None] * u_dirs).transpose(2, 0, 1)[..., None])
        B = base.copy()
        for j in range(n_free):
            np.add(B, F[:, :, j].transpose(1, 2, 0), out=B, where=off[j, :, None])
        n = np.sqrt(np.vecdot(B, B))
        ok = n > 1e-30
        new = u_dirs.copy()
        new[ok] = B[ok] / n[ok][:, None]
        if damping < 1.0:
            new = u_dirs + damping * (new - u_dirs)
            norms = np.linalg.norm(new, axis=-1, keepdims=True)
            # an exactly antipodal flip cancels to zero: that dipole already
            # sits at a zero-torque (antiparallel) point, keep its direction
            dead = norms[..., 0] < 1e-30
            new[dead] = u_dirs[dead]
            norms[dead] = 1.0
            new = new / norms
        done = np.abs(new - u_dirs).max(axis=(1, 2)) < 1e-13
        out[open_sets[done]] = new[done]
        if done.all():
            return out
        keep = ~done
        open_sets, u_dirs, base, mags = open_sets[keep], new[keep], base[keep], mags[keep]
        r, d2, d3 = r[:, keep], d2[keep], d3[keep]
        if it == 100:
            damping = 0.5
    raise MaglogicError("mover orientation fixed point did not converge")


def dipole_field_at(source: MagnetSource, point) -> np.ndarray:
    """Field of one source at one point, tesla."""
    return dipole_field(
        source.dipole_positions(), source.dipole_moments(), vector(point, "field point")
    )


def key_energy(source: MagnetSource, key: FieldKey) -> float:
    """Zeeman energy ``-m . B_key`` (the key is uniform, so no net force)."""
    return float(-source.moment @ key.vector)


def key_torque(source: MagnetSource, key: FieldKey) -> np.ndarray:
    """Torque ``m x B_key`` on a source, N*m."""
    return np.cross(source.moment, key.vector)


def assembly_energy(sources, key: FieldKey | None = None) -> float:
    """Total interaction energy: all unordered pairs plus key terms."""
    total = 0.0
    n = len(sources)
    for i in range(n):
        for j in range(i + 1, n):
            total += pair_energy(sources[i], sources[j])
    if key is not None:
        for s in sources:
            total += key_energy(s, key)
    return total


def assembly_energies(fixed, free_pos, free_m, key_vectors, has_key, left_out):
    """:func:`assembly_energy` of S x T source sets in one pass, (S, T).

    Set (s, t) is the sources ``fixed[s]``, then the free point dipoles at
    ``free_pos[s]`` with moments ``free_m[s]`` but dipole ``left_out[t]``,
    under the key vector ``key_vectors[s]`` where ``has_key[s]``. Every
    ``fixed[s]`` has one length and its discretized sources at the same
    indices. Point-dipole pairs take one :func:`_pair_energies` pass (a
    stacked 1x1 matmul for ``ma.mb``), pairs with a discretized source
    :func:`pair_energy`; each set's terms are summed from 0.0 in
    ``assembly_energy``'s order, so each total has its bits (a missing
    key's term is -0.0, which adds nothing).
    """
    n_sets, n_free, _ = free_m.shape
    n_fixed = len(fixed[0])
    pos = np.concatenate([np.reshape([[s.position for s in f] for f in fixed],
                                     (n_sets, n_fixed, 3)), free_pos], axis=1)
    m = np.concatenate([np.reshape([[s.moment for s in f] for f in fixed],
                                   (n_sets, n_fixed, 3)), free_m], axis=1)
    n_all = n_fixed + n_free
    pairs = [(i, j) for i in range(n_all) for j in range(i + 1, n_all)]
    point = [s.subdipoles is None for s in fixed[0]] + [True] * n_free
    fast = [p for p, (i, j) in enumerate(pairs) if point[i] and point[j]]
    a, b = np.array([pairs[p] for p in fast], dtype=int).reshape(-1, 2).T
    ma, mb = m[:, a], m[:, b]
    pair = np.empty((n_sets, len(pairs)))
    pair[:, fast] = _pair_energies(pos[:, b] - pos[:, a], ma, mb,
                                   np.matmul(mb[..., None, :], ma[..., None])[..., 0, 0])
    for p, (i, j) in enumerate(pairs):
        if not (point[i] and point[j]):  # a discretized fixed source, then any
            pair[:, p] = [pair_energy(f[i], f[j] if j < n_fixed
                                      else MagnetSource(pos[q, j], m[q, j]))
                          for q, f in enumerate(fixed)]
    zeeman = np.where(has_key[:, None], np.vecdot(-m, key_vectors[:, None, :]), -0.0)
    terms = np.concatenate([np.zeros((n_sets, 1)), pair, zeeman], axis=1)
    cols = [[0] + [1 + p for p, ij in enumerate(pairs) if n_fixed + t not in ij]
            + [1 + len(pairs) + i for i in range(n_all) if i != n_fixed + t]
            for t in left_out]
    return np.add.accumulate(terms[:, cols], axis=-1)[..., -1]
