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
:func:`dipole_field` and :func:`dipole_forces` take K fixed dipoles and
field points in one of three forms: shared sources (K, 3) with points
(N, 3), one source set per point (N, K, 3) with points (N, 3), or G
groups, sources (G, K, 3) with points (G, n, 3). All three are one
grouped layout: shared sources are one group of N points and per-row
sources N groups of one point. The kernels work on component planes:
points become (3, 1, G, n) and sources (3, K, G, 1), so every elementwise
step runs over a (K, G, n) plane with an n-long inner loop. Results are
bit-identical to the point-major (N, K, 3) formulation:

* ``d^2 = (x x + z z) + y y`` and every ``m.r`` in np.einsum's order for
  3-vectors; the force's ``d = sqrt((x x + y y) + z z)`` in
  np.linalg.norm's order;
* ``test_m.src_m`` is one matmul per group, ``np.matmul`` of the
  (G, n, 3) moments with the (G, 3, K) sources: a group of n points gets
  the BLAS product ``moments @ src_m.T`` of a shared-source call on its
  points, and a group of one point the 1-row product of a per-row call;
* the sum over K is a running sum ``k = 0 ... K-1``;
* outputs are C-ordered in the points' shape: callers' reductions, such
  as an einsum over the components, round differently on F-ordered
  operands.

Elementwise ufuncs round the same in any memory layout; reductions and
BLAS calls need not, which is what these rules pin.

All three kernels take one path. :func:`_planes` turns a call into G
groups of n points on the blocks of the scratch buffer below, and
:func:`_offsets` makes the offsets ``r`` and ``r * r`` once and writes
both distance sums from them; one helper per formula then works on those
blocks. :func:`field_and_forces` is both kernels in one pass over test
dipoles on G straight tracks whose moments follow the field: it makes
the tracks' points in the buffer, the caller's orientation rule runs on
the field's planes and writes the moments into a block of it, and only
the moments (for the matmul) and the force are made C-ordered, the force
to be projected on each track. Its results have the bits of the two
kernels called one after the other. Each kernel runs its
overflow-ignoring ``errstate`` block once per call around the squares
and the powers ``d ** 3`` and ``d**4``: a source so far away that one of
them overflows adds exactly zero, with no warning.

Every kernel call writes its temporaries into one scratch buffer owned
by this module, with ``out=`` and the operands and operation order above
(a power or a product may overwrite its operand: elementwise, the bits
are the same): 14 (K, G, n) planes and 6 (G, n) planes, 9 in
:func:`field_and_forces`, in blocks that each start on a 64-byte
boundary. Its three (3, G, n) point blocks hold the points, then the
moment planes; the field, then the force; and the orientation rule's
temporaries, then the (G, n, 3) moments. The buffer is made at the first
call with room for GROUP_PAIRS (source x point) pairs, 20 * GROUP_PAIRS
doubles (2.6 MB of address space, of which a call touches what it uses),
and is replaced by a larger one when one call needs more, up to
20 * KEPT_PAIRS doubles (5 MiB): a :func:`dipole_field` call of
KEPT_PAIRS pairs with one source, or a :func:`field_and_forces` call of
GROUP_PAIRS pairs. A call past that, such as the one grid of a demo
profile of more than about 8300 samples, computes in a buffer of its
own, aligned the same way and dropped when the call returns. Each result
is an array of its own, copied out of the buffer or made in a new one,
never a view of it. So a call reuses the pages of the last one instead
of asking glibc for fresh ones: one call on eight grouped 1025-point
demo basin grids took about 1900 minor page faults with temporaries of
its own and takes none. The buffer is shared by every caller in the
process, so :func:`dipole_field`, :func:`dipole_forces`,
:func:`field_and_forces` and everything that calls them are for use from
one thread at a time; separate processes each have their own buffer.

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
# the most (source x point) pairs that one grouped field_and_forces call
# is given, unless a single group has more; its scratch buffer is sized
# for this many. A full call's 14 (K, G, n) planes take 1.8 MB, inside the
# 2 MiB per-core L2 of a 2-core x86-64 VM; at 65536 pairs they take 7.3 MB
# and spill it. CPU per round on one pinned CPU of that VM, caps
# alternated in one process after a warm-up round at each (seed 1, medians
# of 10 rounds in two runs; at 65536 KEPT_PAIRS raised to keep its calls'
# buffer):
#
#     pairs               8192    16384    32768    65536
#     sweep, ms        247-261  238-251  232-243  244-256
#     screen, ms       172-179  164-175  168-171  173-181
#
# Against 8192, benchmark round_ref fell 6.8 % on sweep and 7.7 % on
# screen (medians of 10 alternating seed-1 pairs, lower in 9 and 10 of
# them). 32768 is no faster on the screen, and a call of that many pairs
# with one fixed dipole would pass the kept buffer.
GROUP_PAIRS = 16384
# the scratch buffer kept for the next call holds at most 20 * KEPT_PAIRS
# doubles (5 MiB): room for the largest call the program caps, a netbus
# decode block of KEPT_PAIRS one-dipole pairs, and for a field_and_forces
# call of GROUP_PAIRS pairs. A larger call's buffer (one sample_profile of
# a demo unit at 100,000 samples needed 60 MiB) is dropped when it returns.
KEPT_PAIRS = 32768
_buffer = np.empty(0)  # the kernels' scratch, see _scratch


@np.errstate(over="ignore")
def unit(v: np.ndarray, what: str = "vector") -> np.ndarray:
    """Return v/|v|, raising ConfigError naming ``what`` on (near-)zero
    input and on a length that overflows a double."""
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-300:
        raise ConfigError(f"cannot normalize {what} {v.tolist()}: it is a zero vector")
    if n == math.inf:
        raise ConfigError(f"cannot normalize {what} {v.tolist()}: its length overflows")
    return v / n


def finite(value, what: str, low=None, inclusive: bool = False,
           integer: bool = False, high=None):
    """``value`` as a float (as an int with ``integer``).

    Raises ConfigError naming ``what`` unless ``value`` is a finite real that
    is not a bool (an integral one with ``integer``), lies above ``low``
    (or at it, with ``inclusive``) and does not exceed ``high``.
    """
    number = math.nan
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)):
        try:
            number = int(value) if integer else float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not (-math.inf < number < math.inf
            and (low is None or number > low or (inclusive and number == low))
            and (high is None or number <= high)):
        kind = "an integer" if integer else "a finite number"
        bound = "" if low is None else f" {'>=' if inclusive else '>'} {low:g}"
        if high is not None:
            bound += f"{'' if low is None else ' and'} <= {high}"
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
    # a component past 2 is no unit vector, and its square could overflow the norm
    if unit_norm and not (max(map(abs, out)) <= 2.0
                          and abs(np.linalg.norm(out) - 1.0) <= _UNIT_TOL):
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

    The moment ``B_r * V / MU0`` must be finite.
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
        finite(self.remanence * volume(self) / MU0, f"{self.shape} magnet moment")


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
    a = unit(axis, "basis axis")
    helper = np.array([1.0, 0.0, 0.0])
    if abs(a[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = unit(np.cross(helper, a), "basis vector")
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
        the net moment exactly. Anything but an integer >= 1 is a
        ConfigError.
    """
    m_mag = np.linalg.norm(moment_from_spec(spec))
    direction = unit(spec.easy_axis if axis is None else vector(axis, "source axis"),
                     "source axis")
    moment = m_mag * direction
    discretize = finite(discretize, "discretize", 1, inclusive=True, integer=True)
    if discretize == 1:
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
    """Any call form as G groups of n points, on the blocks of
    :func:`_scratch`, as :func:`_offsets` gives them."""
    pts = np.asarray(points, dtype=float)
    if src_pos.ndim == 2:  # shared: one group
        src_pos, src_m, pts = src_pos[None], src_m[None], pts.reshape(1, -1, 3)
    elif pts.ndim == 2:  # per-row: groups of one point
        pts = pts[:, None]
    blocks = _scratch(src_m.shape[1], *pts.shape[:2])
    return _offsets(src_pos, src_m, pts.transpose(2, 0, 1), blocks)


def _offsets(src_pos, src_m, pts, blocks):
    """G groups of n points (3, G, n), sources (G, K, 3), on ``blocks`` of
    :func:`_scratch`: ``r = point - source`` (3, K, G, n) and, from one
    ``r * r``, two (K, G, n) squared distances, ``d = (x x + y y) + z z``
    in np.linalg.norm's order (the force takes its root in place) and
    ``d2 = (x x + z z) + y y`` in np.einsum's; then the source moment
    planes (3, K, G, 1), the grouped source moments (G, K, 3) and the
    call's free blocks: two like ``r``, three like ``d``, then its point
    blocks.

    Call it where overflow is ignored: a source so far away that its
    squared offset overflows has ``d`` and ``d2`` inf.
    """
    r, p, terms, d, d2, *free = blocks
    np.subtract(pts[:, None], src_pos.transpose(2, 1, 0)[..., None], out=r)
    np.multiply(r, r, out=p)
    np.add(p[0], p[1], out=d)
    d += p[2]
    np.add(p[0], p[2], out=d2)
    d2 += p[1]
    m = np.ascontiguousarray(src_m.transpose(2, 1, 0)[..., None])
    return r, d, d2, m, src_m, (p, terms, *free)


def _scratch(k, g, n, points=2) -> tuple:
    """The module's scratch buffer as the temporaries of one kernel call:
    three (3, K, G, n) and five (K, G, n) blocks, then ``points`` point
    blocks, (3, G, n) but the second, which is (G, n, 3); each block is
    C-ordered and starts on a 64-byte boundary.

    The buffer is made at the first call, for GROUP_PAIRS (K, G, n) pairs,
    and replaced by a larger one when a call needs more, so a grouped call
    reuses the pages of the last one instead of asking glibc for fresh
    ones. A call that needs more than 20 * KEPT_PAIRS doubles gets a
    buffer of its own, which is dropped with these blocks. Aligned starts
    keep the SIMD stores of a whole-block ufunc off cache-line boundaries,
    which halves the time of a store-bound one.
    """
    global _buffer
    size, planes = k * g * n, 3 * g * n
    plane, block = -(-size // 8) * 8, -(-planes // 8) * 8  # whole 64-byte lines
    at = 14 * plane
    need, buffer = at + points * block, _buffer
    if buffer.size < need:
        raw = np.empty(max(need, 20 * GROUP_PAIRS) + 7)
        buffer = raw[(-raw.ctypes.data // 8) % 8:]
        if need <= 20 * KEPT_PAIRS:
            _buffer = buffer
    triples = [buffer[j * plane:j * plane + 3 * size].reshape(3, k, g, n) for j in (0, 3, 6)]
    singles = [buffer[j * plane:j * plane + size].reshape(k, g, n) for j in range(9, 14)]
    free = [buffer[at + j * block:at + j * block + planes].reshape(3, g, n)
            for j in range(points)]
    free[1] = free[1].reshape(g, n, 3)
    return (*triples, *singles, *free)


def _dot(a, b, tmp=None, out=None):
    """Plane dot product ``(a0 b0 + a2 b2) + a1 b1``, np.einsum's order
    for 3-vectors; the products go to ``tmp`` and the sum to ``out`` if
    given."""
    p = np.multiply(a, b, out=tmp)
    out = np.add(p[0], p[2], out=out)
    out += p[1]
    return out


def _sum_sources(terms, out):
    """Sum of (3, K, ...) terms over K, ``k = 0 ... K-1``, into ``out``:
    (3, ...) planes, or the transposed view of a C-ordered (..., 3) result.

    A running sum: ``terms.sum(axis=1)`` sums pairwise when there is one
    point and K >= 8, and so rounds differently from a K-long loop.
    """
    k, acc = terms.shape[1], out.reshape(3, -1)
    terms = terms.reshape(3, k, acc.shape[1])
    if k == 0:
        acc[...] = 0.0
    elif k == 1:
        np.copyto(acc, terms[:, 0])
    else:
        np.add(terms[:, 0], terms[:, 1], acc)
    for j in range(2, k):
        acc += terms[:, j]
    return out


def _field(r, d2, m, work, out):
    """Field of the sources at offsets ``r`` (3, K, ...), squared distances
    ``d2`` and moment planes ``m``, summed over K into the (3, ...) planes
    ``out``.

    ``work`` gives where the temporaries go: the distances, then their
    cubes, and the terms' ``m.r`` (like ``d2``), the terms' products and
    the terms (like ``r``).

    ``d2 = (x x + z z) + y y``, np.einsum's order. Call it where overflow
    is ignored: a source so far away that ``d2`` or ``d ** 3`` overflows
    adds exactly 0.
    """
    d, t, tmp, terms = work
    np.sqrt(d2, out=d)
    if (d < COINCIDENCE_EPS).any():
        raise SingularConfigError("field point coincides with a dipole")
    np.power(d, 3, out=d)  # d ** 3, in place with the same bits
    return _sum_sources(_field_terms(r, d2, d, m, tmp, t, terms), out)


def _field_terms(r, d2, d3, m, tmp=None, t=None, out=None):
    """(3, K, ...) field of source k at each point, the terms
    :func:`dipole_field` sums over K.

    r : (3, K, ...) point minus source; d2, d3 : (K, ...) squared and cubed
    distances; m : source moment planes that broadcast against r.
    ``m.r = (mx x + mz z) + my y`` in np.einsum's order. ``tmp`` (like r),
    ``t`` (like d2) and ``out`` (like r) take the temporaries if given.
    """
    coef = MU0 / (4.0 * np.pi)
    t = _dot(m, r, tmp, t)
    t *= 3.0
    t /= d2
    t *= coef
    B = np.multiply(r, t, out=out)
    B /= d3
    B -= np.divide(coef * m, d3, out=tmp)
    return B


def _force(r, d, m, src_m, moments, t, work, out):
    """Force on test moments from the sources at offsets ``r``, summed over
    K into the C-ordered (G, n, 3) ``out``; ``r`` and ``d`` are
    overwritten. ``work`` gives where the temporaries go: two like ``r``
    (products, terms), then four like ``d`` (``m.rhat`` of the test and
    the source moments, ``ma.mb``, the weight); the coefficient takes
    ``d``'s place.

    ``d`` is the squared distance ``(x x + y y) + z z``, np.linalg.norm's
    order; ``moments`` are C-ordered (G, n, 3) and ``t`` their
    (3, 1, G, n) planes; ``m`` and ``src_m`` as :func:`_offsets` gives
    them. ``test_m.src_m`` is one matmul per group. Call it where overflow
    is ignored: a source so far away that ``d`` or ``d**4`` overflows
    exerts exactly 0.
    """
    tmp, F, mbr, mar, mamb, w = work
    np.sqrt(d, out=d)
    if (d < COINCIDENCE_EPS).any():
        raise SingularConfigError("a dipole coincides with a source dipole")
    r /= d  # rhat
    mbr = _dot(t, r, tmp, mbr)
    mar = _dot(m, r, tmp, mar)
    # the (G, n, K) product, C-ordered as np.matmul makes it
    mamb = mamb.reshape(*moments.shape[:2], src_m.shape[1])
    mamb = np.matmul(moments, src_m.transpose(0, 2, 1), out=mamb).transpose(2, 0, 1)
    coef = np.power(d, 4, out=d)  # 3 MU0 / (4 pi d**4)
    coef *= 4.0 * np.pi
    np.divide(3.0 * MU0, coef, out=coef)
    w = np.multiply(5.0, mar, out=w)
    w *= mbr
    np.subtract(mamb, w, out=w)
    F = np.multiply(mar, t, out=F)
    F += np.multiply(mbr, m, out=tmp)
    r *= w
    F += r
    F *= coef
    _sum_sources(F, out.transpose(2, 0, 1))
    return out


def dipole_field(src_pos: np.ndarray, src_m: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Field of point dipoles summed at ``points``.

    src_pos, src_m : (K, 3), shared by every point, or (N, K, 3), one source
    set per point (row); points : (N, 3) or one point (3,). Grouped: sources
    (G, K, 3) and points (G, n, 3), group g's n points with its own K
    sources. Returns C-ordered tesla of the points' shape, computed on
    component planes with the bit rules of the module docstring. A row of a
    per-row call has the bits of a 1-point call with that row's sources,
    and a group those of a shared-source call on its points. Computed in
    the module's scratch buffer, so not for use from two threads at once;
    the result is an array of its own.
    """
    # a source so far away that its powers overflow has field exactly 0
    with np.errstate(over="ignore"):
        r, d, d2, m, _, (tmp, terms, t, _, _, fields, _) = _planes(src_pos, src_m, points)
        B = _field(r, d2, m, (d, t, tmp, terms), fields)
    return B.transpose(1, 2, 0).copy().reshape(np.shape(points))


def dipole_forces(src_pos, src_m, points, moments) -> np.ndarray:
    """Net force on test dipoles (points[i], moments[i]) from fixed dipoles.

    src_pos, src_m : (K, 3), per-row (N, K, 3) or grouped (G, K, 3) as in
    :func:`dipole_field`; points, moments : (N, 3), or (G, n, 3) grouped.
    Returns C-ordered newtons of the points' shape, computed on component
    planes with the bit rules of the module docstring; the per-group
    matmul keeps each row of a per-row call equal to a 1-row call.
    Computed in the module's scratch buffer, so not for use from two
    threads at once; the result is an array of its own.
    """
    # a source so far away that its powers overflow exerts exactly 0
    with np.errstate(over="ignore"):
        r, d, d2, m, src_m, (tmp, terms, w1, w2, w3, t, mts) = _planes(src_pos, src_m, points)
        np.copyto(mts, np.reshape(moments, mts.shape))
        np.copyto(t, mts.transpose(2, 0, 1))
        # np.empty, not np.zeros: calloc can hand out fresh pages, and a demo
        # sweep round took about 1.7k more minor page faults with np.zeros
        force = _force(r, d, m, src_m, mts, t[:, None], (tmp, terms, d2, w1, w2, w3),
                       np.empty(mts.shape))
    return force.reshape(np.shape(points))


def field_and_forces(src_pos, src_m, origin, axis, xs, orient):
    """``m.B`` and the axial force of test dipoles on G straight tracks,
    whose moments ``m`` the field ``B`` there sets, in one pass.

    src_pos, src_m : (G, K, 3); group g's n points are
    ``origin[g] + x * axis[g]`` for the track coordinates x of ``xs[g]``,
    with origin, axis (G, 3) and xs (G, n). ``orient(B, u, work)`` takes
    the sources' field as (3, G, n) component planes, may add a uniform
    field to them in place, and writes the moments into the (3, G, n)
    planes ``u``; ``work``, a (3, G, n) block of the scratch buffer, is
    free for its temporaries. Returns ``m.B`` (G, n) with the field that
    ``orient`` left, in np.einsum's order, and the force's component
    along the track (G, n), ``force @ axis`` of the C-ordered (G, n, 3)
    force as one matmul per group.

    The points are made in the buffer as ``origin + x * axis``, and the
    offsets and their squares once, for both distance sums; every result
    has the bits of :func:`dipole_field`, then :func:`dipole_forces` on
    C-ordered (G, n, 3) moments at those points: the two coincidence
    checks run in that order, with their messages. Overflow is ignored
    throughout, ``orient`` included. Every temporary, the planes passed
    to ``orient`` and the force included, lives in the module's scratch
    buffer until the next call; the two results are arrays of their own.
    Not for use from two threads at once.
    """
    # the points take the block of u until orient writes the moments; r * r
    # and the products go to tmp, the field's and the force's terms to
    # terms; w1 and w2 take the field's distances and m.r, then with d2 and
    # w3 the force's m.rhat, ma.mb and weight; the force takes the block of
    # the field once m.B is made
    with np.errstate(over="ignore"):
        blocks = _scratch(src_m.shape[1], *xs.shape, 3)
        pts = np.multiply(axis.T[..., None], xs, out=blocks[-1])
        pts += origin.T[..., None]
        r, d, d2, m, src_m, (tmp, terms, w1, w2, w3, fields, moments, u) = _offsets(
            src_pos, src_m, pts, blocks)
        B = _field(r, d2, m, (w1, w2, tmp, terms), fields)
        work = moments.reshape(u.shape)
        orient(B, u, work)
        mb = _dot(u, B, work)
        np.copyto(moments, u.transpose(1, 2, 0))
        force = _force(r, d, m, src_m, moments, u[:, None], (tmp, terms, d2, w1, w2, w3),
                       fields.reshape(moments.shape))
    return mb, np.matmul(force, axis[:, :, None])[..., 0]


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
