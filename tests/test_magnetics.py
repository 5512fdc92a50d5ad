"""Closed-form and finite-difference checks for the dipole core.

Frozen expectations below were computed by hand from the standard dipole
formulas before the implementation existed:

    m           = B_r V / MU0 = 1.2 * pi (2e-3)^2 (4e-3) / (4 pi 1e-7) = 0.048
    B_axial     = MU0 2 m / (4 pi z^3) = 1e-7 * 2 / 1e-3 = 2.0e-4      (m = 1, z = 0.1)
    B_equator   = -MU0 m / (4 pi x^3)  = -1.0e-4
    U_coax      = -MU0 2 m^2 / (4 pi r^3) = -2.0e-7                    (aligned, r = 1)
    F_coax      = 3 MU0 m^2 / (2 pi r^4) = 6.0e-7, attractive
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from maglogic import magnetics as mag
from maglogic.errors import ConfigError, SingularConfigError

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def simple_source(position, moment):
    return mag.MagnetSource(np.asarray(position, float), np.asarray(moment, float))


# ---------------------------------------------------------------------------
# moment_from_spec
# ---------------------------------------------------------------------------


def test_moment_cylinder_frozen_value():
    spec = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.2, (0, 0, 1))
    m = mag.moment_from_spec(spec)
    assert np.linalg.norm(m) == pytest.approx(0.048, rel=1e-12)
    np.testing.assert_allclose(mag.unit(m), EZ, atol=1e-15)


def test_moment_block_volume():
    spec = mag.MagnetSpec("block", (1e-2, 2e-2, 3e-2), 1.0, (1, 0, 0))
    m = mag.moment_from_spec(spec)
    assert np.linalg.norm(m) == pytest.approx(6e-6 / mag.MU0, rel=1e-12)


def test_moment_scales_with_dims_cubed():
    a = mag.MagnetSpec("cylinder", (1e-3, 2e-3), 1.1, (0, 0, 1))
    b = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.1, (0, 0, 1))
    ra = np.linalg.norm(mag.moment_from_spec(a))
    rb = np.linalg.norm(mag.moment_from_spec(b))
    assert rb / ra == pytest.approx(8.0, rel=1e-12)


def test_zero_remanence_rejected():
    with pytest.raises(ConfigError):
        mag.MagnetSpec("cylinder", (1e-3, 1e-3), 0.0, (0, 0, 1))
    for bad in (float("nan"), float("inf"), "1.0", None, True):
        with pytest.raises(ConfigError):
            mag.MagnetSpec("cylinder", (1e-3, 1e-3), bad, (0, 0, 1))


def test_bad_dims_and_axis_rejected():
    with pytest.raises(ConfigError):
        mag.MagnetSpec("cylinder", (-1e-3, 1e-3), 1.0, (0, 0, 1))
    for bad in (float("nan"), float("inf"), "1e-3", None):
        with pytest.raises(ConfigError):
            mag.MagnetSpec("cylinder", (bad, 1e-3), 1.0, (0, 0, 1))
        with pytest.raises(ConfigError):
            mag.MagnetSpec("block", (1e-3, 1e-3, bad), 1.0, (0, 0, 1))
    with pytest.raises(ConfigError):
        mag.MagnetSpec("cylinder", (1e-3, 1e-3), 1.0, (0, 0, float("nan")))
    with pytest.raises(ConfigError):
        mag.MagnetSpec("cylinder", (1e-3, 1e-3), 1.0, (0, 0, 2))
    with pytest.raises(ConfigError):
        mag.MagnetSpec("cone", (1e-3, 1e-3), 1.0, (0, 0, 1))
    for bad in (5, None, (1e-3,), (1e-3, 1e-3, 1e-3)):
        with pytest.raises(ConfigError):
            mag.MagnetSpec("cylinder", bad, 1.0, (0, 0, 1))


def test_a_direction_whose_length_overflows_is_a_config_error():
    """``unit`` rejects a vector whose norm overflows a double instead of
    dividing by it (which gave the zero vector), with no warning; a
    MoverTrack axis goes through it. Finite norms keep their bits."""
    from maglogic import landscape as ls

    spec = mag.MagnetSpec("cylinder", (0.004, 0.008), 0.3, (0, 0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in ((1e308, 0, 0), (0, -1e308, 0), (1e200, 1.0, 0), (1e155, 1e155, 1e155)):
            with pytest.raises(ConfigError, match="length overflows"):
                mag.unit(v)
            with pytest.raises(ConfigError, match="length overflows"):
                ls.MoverTrack(v, (0, 0, 0), (0.0, 0.004), spec, 1e-3)
        with pytest.raises(ConfigError, match="key direction must have unit length"):
            mag.FieldKey((1e308, 0, 0), 0.01)
        with pytest.raises(ConfigError, match="cylinder magnet moment must be a finite"):
            mag.MagnetSpec("cylinder", (1e308, 0.008), 0.3, (0, 0, 1))
        for v in ((3e153, 4e153, 0.0), (1e-150, 0.0, 2e-150), (0.6, -0.8, 0.0)):
            expected = np.asarray(v) / np.linalg.norm(v)
            assert mag.unit(v).tobytes() == expected.tobytes()
        track = ls.MoverTrack((3e153, 4e153, 0.0), (0, 0, 0), (0.0, 0.004), spec, 1e-3)
        assert track.axis == pytest.approx((0.6, 0.8, 0.0))


def test_finite_and_vector_helpers():
    assert mag.finite(np.float32(0.5), "x") == 0.5
    assert type(mag.finite(3, "x")) is float
    assert mag.finite(np.int64(3), "n", integer=True) == 3
    assert mag.finite(0, "x", 0.0, inclusive=True) == 0.0
    assert mag.finite(10**400, "n", 1, integer=True) == 10**400
    assert mag.finite(5, "n", 1, integer=True, high=5) == 5
    for bad, kwargs in ((0.0, {"low": 0.0}), (-1, {"low": 0, "inclusive": True}),
                        (6, {"high": 5}), (10**400, {"integer": True, "high": 5}),
                        (float("nan"), {}), (float("-inf"), {}), (10**400, {}),
                        (True, {}), (False, {"integer": True}), ("1", {}),
                        (None, {}), (1.0, {"integer": True}), (1.7, {"integer": True})):
        with pytest.raises(ConfigError, match="what"):
            mag.finite(bad, "what", **kwargs)
    assert mag.vector([1, 0, 0], "v", unit_norm=True) == (1.0, 0.0, 0.0)
    assert mag.vector(np.array([2.0, 3.0]), "v", 2, low=0.0) == (2.0, 3.0)
    for bad in (5, None, "abc", [1, 0], [1, 0, 0, 0], [1, 0, float("nan")],
                [True, 0, 0], [[1], 0, 0]):
        with pytest.raises(ConfigError, match="vec"):
            mag.vector(bad, "vec")
    with pytest.raises(ConfigError, match="unit length"):
        mag.vector((1, 1, 0), "vec", unit_norm=True)
    assert mag.text("id", "id") == "id"
    assert mag.text(None, "id", optional=True) is None
    for bad in (None, 1, ["a"]):
        with pytest.raises(ConfigError, match="label"):
            mag.text(bad, "label")


# ---------------------------------------------------------------------------
# dipole_field_at
# ---------------------------------------------------------------------------


def test_axial_field_frozen_value():
    s = simple_source([0, 0, 0], EZ)
    B = mag.dipole_field_at(s, [0, 0, 0.1])
    np.testing.assert_allclose(B, [0, 0, 2.0e-4], rtol=1e-9, atol=1e-22)


def test_equatorial_field_frozen_value():
    s = simple_source([0, 0, 0], EZ)
    B = mag.dipole_field_at(s, [0.1, 0, 0])
    np.testing.assert_allclose(B, [0, 0, -1.0e-4], rtol=1e-9, atol=1e-22)


def test_field_inverse_cube():
    s = simple_source([0, 0, 0], 3.7 * EZ)
    B1 = mag.dipole_field_at(s, [0, 0, 0.05])
    B2 = mag.dipole_field_at(s, [0, 0, 0.10])
    assert B1[2] / B2[2] == pytest.approx(8.0, rel=1e-12)


def test_field_singularity_raises():
    s = simple_source([0, 0, 0], EZ)
    with pytest.raises(SingularConfigError):
        mag.dipole_field_at(s, [0, 0, 1e-12])


def test_field_batched_matches_scalar():
    rng = np.random.default_rng(42)
    s = simple_source(rng.normal(size=3) * 0.01, rng.normal(size=3))
    pts = rng.normal(size=(7, 3)) * 0.3
    batch = mag.dipole_field(s.dipole_positions(), s.dipole_moments(), pts)
    for i in range(7):
        np.testing.assert_allclose(batch[i], mag.dipole_field_at(s, pts[i]), rtol=1e-13)


# ---------------------------------------------------------------------------
# frozen (N, K, 3) reference kernels
# ---------------------------------------------------------------------------
# The point-major kernels as they stood before the component-plane layout,
# kept verbatim: the plane kernels must match them bit for bit, and the
# landscape tests build their references from them.


def ref_dipole_field(src_pos, src_m, points):
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    r = pts[:, None, :] - src_pos  # (N, K, 3)
    d2 = np.einsum("nkc,nkc->nk", r, r)
    d = np.sqrt(d2)
    if np.any(d < mag.COINCIDENCE_EPS):
        raise SingularConfigError("field point coincides with a dipole")
    out = ref_field_terms(r, d2, d[:, :, None] ** 3, src_m).sum(axis=1)
    return out[0] if squeeze else out


def ref_field_terms(r, d2, d3, src_m):
    mdotr = np.einsum("nkc,nkc->nk" if src_m.ndim == 3 else "kc,nkc->nk", src_m, r)
    coef = mag.MU0 / (4.0 * np.pi)
    B = coef * (3.0 * mdotr / d2)[:, :, None] * r / d3
    B -= coef * src_m / d3
    return B


def ref_pair_geometry(test_pos, test_m, src_pos, src_m):
    r = test_pos[:, None, :] - src_pos
    d = np.linalg.norm(r, axis=2)
    if np.any(d < mag.COINCIDENCE_EPS):
        raise SingularConfigError("a dipole coincides with a source dipole")
    rhat = r / d[:, :, None]
    mbr = np.einsum("nc,nkc->nk", test_m, rhat)
    if src_m.ndim == 3:
        mar = np.einsum("nkc,nkc->nk", src_m, rhat)
        mamb = np.matmul(test_m[:, None, :], src_m.transpose(0, 2, 1))[:, 0, :]
    else:
        mar = np.einsum("kc,nkc->nk", src_m, rhat)
        mamb = test_m @ src_m.T
    return d, rhat, mar, mbr, mamb


def ref_dipole_forces(src_pos, src_m, points, moments):
    mts = np.asarray(moments, dtype=float)
    d, rhat, mar, mbr, mamb = ref_pair_geometry(
        np.asarray(points, dtype=float), mts, src_pos, src_m)
    coef = 3.0 * mag.MU0 / (4.0 * np.pi * d**4)
    F = coef[:, :, None] * (
        mar[:, :, None] * mts[:, None, :]
        + mbr[:, :, None] * src_m
        + (mamb - 5.0 * mar * mbr)[:, :, None] * rhat
    )
    return F.sum(axis=1)


def ref_pair_energy(a, b):
    d, _, mar, mbr, mamb = ref_pair_geometry(
        b.dipole_positions(), b.dipole_moments(),
        a.dipole_positions(), a.dipole_moments())
    U = mag.MU0 / (4.0 * np.pi * d**3) * (mamb - 3.0 * mbr * mar)
    return float(U.sum())


def assert_kernels_match_reference(pos, m, pts, moments):
    """Field and force of the plane kernels equal the frozen ones, C-ordered,
    whatever the memory layout of the test moments."""
    force = ref_dipole_forces(pos, m, pts, moments)
    for got, want in ((mag.dipole_field(pos, m, pts), ref_dipole_field(pos, m, pts)),
                      (mag.dipole_forces(pos, m, pts, moments), force),
                      (mag.dipole_forces(pos, m, pts, np.asfortranarray(moments)), force)):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 2, 256, 1025])
@pytest.mark.parametrize("k", [0, 1, 5, 27])
def test_kernels_match_frozen_reference(n, k):
    rng = np.random.default_rng(1000 * n + k)
    pts = rng.normal(size=(n, 3)) * 0.05
    moments = rng.normal(size=(n, 3))
    # shared sources, then per-row sources (every row its own K dipoles)
    assert_kernels_match_reference(
        rng.normal(size=(k, 3)) * 0.05, rng.normal(size=(k, 3)), pts, moments)
    assert_kernels_match_reference(
        rng.normal(size=(n, k, 3)) * 0.05, rng.normal(size=(n, k, 3)), pts, moments)


def test_kernels_match_frozen_reference_on_closed_forms():
    # the frozen-value geometries above, a discretized magnet (27
    # sub-dipoles), and a one-point call
    spec = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.2, (0, 0, 1))
    fine = mag.source_from_spec(spec, [0, 0, 0], discretize=3)
    pts = np.array([[0, 0, 0.1], [0.1, 0, 0], [0, 0, 0.05], [0, 0, 1.0], [0, 0, 3e-3]])
    moments = np.array([EZ, -EZ, EX, 3.7 * EZ, EY])
    for src in (simple_source([0, 0, 0], EZ), simple_source([0, 0, 0], 3.7 * EZ), fine):
        pos, m = src.dipole_positions(), src.dipole_moments()
        assert_kernels_match_reference(pos, m, pts, moments)
        assert_kernels_match_reference(
            np.broadcast_to(pos, (5, *pos.shape)), np.broadcast_to(m, (5, *m.shape)),
            pts, moments)
        for p in pts:
            assert np.array_equal(mag.dipole_field(pos, m, p), ref_dipole_field(pos, m, p))
    a = simple_source([0, 0, 0], EZ)
    far_fine = mag.source_from_spec(spec, [0.01, 0.005, 0.02], (1, 0, 1), discretize=3)
    for b in (simple_source([0, 0, 1.0], EZ), simple_source([0.3, 0.2, 1.0], EX),
              far_fine):
        assert mag.pair_energy(a, b) == ref_pair_energy(a, b)
        assert mag.pair_energy(b, a) == ref_pair_energy(b, a)


def test_plane_kernels_raise_on_coincidence_like_reference():
    pos, m = np.zeros((2, 3)), np.ones((2, 3))
    pts = np.array([[1.0, 0, 0], [0, 0, 1e-12]])
    for kernel in (lambda p, mm: mag.dipole_field(p, mm, pts),
                   lambda p, mm: mag.dipole_forces(p, mm, pts, np.ones((2, 3)))):
        with pytest.raises(SingularConfigError):
            kernel(pos, m)
        with pytest.raises(SingularConfigError):
            kernel(np.broadcast_to(pos, (2, 2, 3)), np.broadcast_to(m, (2, 2, 3)))


def _dot_reference(a, b):
    """``(a0 b0 + a2 b2) + a1 b1`` over the last axis, np.einsum's order."""
    return (a[..., 0] * b[..., 0] + a[..., 2] * b[..., 2]) + a[..., 1] * b[..., 1]


@pytest.mark.parametrize("k", [0, 1, 5, 27])
def test_grouped_calls_match_shared_and_per_row_calls(k):
    """A group of n points has the bits of a shared-source call on them, a
    group of one point those of a per-row call, C-ordered in the points'
    shape; ``field_and_forces`` with fixed moments on tracks has the bits
    of both kernels at the tracks' points, zero groups included."""
    rng = np.random.default_rng(k)
    for groups, n in ((3, 256), (4, 2), (2, 1025), (7, 1), (0, 5)):
        pos = rng.normal(size=(groups, k, 3)) * 0.05
        m = rng.normal(size=(groups, k, 3))
        origin, axis = rng.normal(size=(groups, 3)) * 0.05, rng.normal(size=(groups, 3))
        xs = rng.normal(size=(groups, n)) * 0.05
        pts = origin[:, None, :] + xs[..., None] * axis[:, None, :]
        moments = rng.normal(size=(groups, n, 3))
        field = mag.dipole_field(pos, m, pts)
        force = mag.dipole_forces(pos, m, pts, moments)
        assert field.shape == force.shape == pts.shape
        assert field.flags.c_contiguous and force.flags.c_contiguous
        energy, axial = mag.field_and_forces(
            pos, m, origin, axis, xs,
            lambda B, u, work: np.copyto(u, moments.transpose(2, 0, 1)))
        assert energy.shape == axial.shape == xs.shape
        assert np.array_equal(energy, _dot_reference(moments, field))
        assert np.array_equal(axial, np.matmul(force, axis[:, :, None])[..., 0])
        for g in range(groups):
            assert np.array_equal(field[g], mag.dipole_field(pos[g], m[g], pts[g]))
            assert np.array_equal(force[g], mag.dipole_forces(pos[g], m[g], pts[g],
                                                              moments[g]))
            assert np.array_equal(field[g], ref_dipole_field(pos[g], m[g], pts[g]))
        if n == 1:
            assert np.array_equal(field[:, 0], mag.dipole_field(pos, m, pts[:, 0]))
            assert np.array_equal(force[:, 0], mag.dipole_forces(pos, m, pts[:, 0],
                                                                 moments[:, 0]))
            assert np.array_equal(field[:, 0], ref_dipole_field(pos, m, pts[:, 0]))


def test_kernel_results_are_never_views_of_the_scratch_buffer(monkeypatch):
    """Every kernel result is an array of its own: it shares no memory with
    the scratch buffer, and keeps its values across a later call that
    reuses the buffer, one that grows it and one past KEPT_PAIRS, which
    computes in a buffer of its own and leaves the kept one as it was."""
    monkeypatch.setattr(mag, "_buffer", np.empty(0))
    rng = np.random.default_rng(7)

    def calls(k, g, n):
        pos, m = rng.normal(size=(g, k, 3)) * 0.05, rng.normal(size=(g, k, 3))
        pts, moments = rng.normal(size=(g, n, 3)) * 0.05, rng.normal(size=(g, n, 3))
        track = pts[:, 0], moments[:, 0], pts[..., 0]  # origin, axis, coordinates
        return [mag.dipole_field(pos, m, pts), mag.dipole_forces(pos, m, pts, moments),
                mag.dipole_field(pos[0], m[0], pts[0, 0]),  # one point, shape (3,)
                mag.dipole_forces(pos[:, 0], m[:, 0], pts[:, 0], moments[:, 0]),
                *mag.field_and_forces(pos, m, *track, lambda B, u, work: np.copyto(u, B))]

    results = calls(3, 1, 1) + calls(2, 4, 50)
    kept = [r.copy() for r in results]
    buffer = mag._buffer
    for r in results:
        assert not np.shares_memory(r, buffer)
    calls(2, 4, 50)  # reuses the buffer
    assert mag._buffer is buffer
    assert all(np.array_equal(r, want) for r, want in zip(results, kept))
    # needs more than the first buffer holds, less than KEPT_PAIRS pairs
    grown = calls(3, 2, mag.KEPT_PAIRS // 8)
    assert mag._buffer.size > buffer.size
    assert all(np.array_equal(r, want) for r, want in zip(results, kept))
    for r in grown:
        assert not np.shares_memory(r, mag._buffer)
    buffer, kept = mag._buffer, [r.copy() for r in grown]
    state = rng.bit_generator.state
    n = mag.KEPT_PAIRS // 4
    past = calls(5, 2, n)  # 81,920 pairs, past KEPT_PAIRS
    assert 5 * 2 * n > mag.KEPT_PAIRS
    assert mag._buffer is buffer
    assert all(np.array_equal(r, want) for r, want in zip(grown, kept))
    for r in past:
        assert not np.shares_memory(r, mag._buffer)
    # the same call with the limit raised computes in the kept buffer
    monkeypatch.setattr(mag, "KEPT_PAIRS", 5 * 2 * n)
    rng.bit_generator.state = state
    assert all(np.array_equal(r, want) for r, want in zip(calls(5, 2, n), past))
    assert mag._buffer is not buffer


def test_grouped_calls_raise_on_coincidence():
    pos, m = np.zeros((2, 1, 3)), np.ones((2, 1, 3))
    pts = np.array([[[1.0, 0, 0], [0, 1.0, 0]], [[0, 0, 1.0], [0, 0, 1e-12]]])
    with pytest.raises(SingularConfigError):
        mag.dipole_field(pos, m, pts)
    with pytest.raises(SingularConfigError):
        mag.dipole_forces(pos, m, pts, np.ones((2, 2, 3)))


def test_far_source_is_exactly_zero_without_warnings():
    """A source so far away that ``d**4`` (1e80 m), ``d ** 3`` (1e120 m)
    or the squared offset (1e200 m) overflows exerts exactly zero force,
    with no RuntimeWarning. Its field is exactly zero once ``d ** 3``
    overflows, and the frozen reference's tiny value before."""
    pts = np.array([[0.0, 0.0, 0.0], [0.01, 0.0, 0.0]])
    for distance, shape in itertools.product((1e80, 1e120, 1e200), ((1, 3), (2, 1, 3))):
        pos = np.broadcast_to([0.0, 0.0, distance], shape)
        m = np.broadcast_to(EZ, pos.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            field = mag.dipole_field(pos, m, pts)
            force = mag.dipole_forces(pos, m, pts, np.ones((2, 3)))
        assert np.array_equal(force, np.zeros((2, 3)))
        if distance < 1e100:
            assert np.array_equal(field, ref_dipole_field(pos, m, pts))
            assert np.all(field[:, 2] != 0.0)
        else:
            assert np.array_equal(field, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# pair energy / force
# ---------------------------------------------------------------------------


def test_pair_energy_coaxial_frozen_values():
    a = simple_source([0, 0, 0], EZ)
    b = simple_source([0, 0, 1.0], EZ)
    assert mag.pair_energy(a, b) == pytest.approx(-2.0e-7, rel=1e-12)
    b_anti = simple_source([0, 0, 1.0], -EZ)
    assert mag.pair_energy(a, b_anti) == pytest.approx(2.0e-7, rel=1e-12)


def test_pair_energy_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = simple_source(rng.normal(size=3), rng.normal(size=3))
        b = simple_source(rng.normal(size=3) + 5.0, rng.normal(size=3))
        assert mag.pair_energy(a, b) == pytest.approx(mag.pair_energy(b, a), rel=1e-12)


def test_pair_force_coaxial_frozen_value():
    a = simple_source([0, 0, 0], EZ)
    b = simple_source([0, 0, 1.0], EZ)
    F = mag.pair_force(a, b)
    # aligned coaxial dipoles attract: force on b points back toward a
    np.testing.assert_allclose(F, [0, 0, -6.0e-7], rtol=1e-9, atol=1e-25)


def test_pair_force_quartic_falloff():
    a = simple_source([0, 0, 0], EZ)
    near = mag.pair_force(a, simple_source([0, 0, 0.5], EZ))
    far = mag.pair_force(a, simple_source([0, 0, 1.0], EZ))
    assert near[2] / far[2] == pytest.approx(16.0, rel=1e-12)


def test_pair_force_newton_third_law():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = simple_source(rng.normal(size=3), rng.normal(size=3))
        b = simple_source(rng.normal(size=3) + np.array([3.0, 0, 0]), rng.normal(size=3))
        np.testing.assert_allclose(
            mag.pair_force(a, b), -mag.pair_force(b, a), rtol=1e-12, atol=1e-30
        )


def fd_force_oracle(a, b, h=1e-6):
    """Independent oracle: central difference of pair_energy wrt b's position."""
    F = np.zeros(3)
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        up = mag.pair_energy(a, mag.MagnetSource(b.position + dp, b.moment))
        dn = mag.pair_energy(a, mag.MagnetSource(b.position - dp, b.moment))
        F[k] = -(up - dn) / (2 * h)
    return F


def test_pair_force_matches_fd_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        a = simple_source(rng.normal(size=3) * 0.02, rng.normal(size=3) * 0.05)
        offs = rng.normal(size=3)
        offs = offs / np.linalg.norm(offs) * rng.uniform(0.05, 0.3)
        b = simple_source(a.position + offs, rng.normal(size=3) * 0.05)
        F = mag.pair_force(a, b)
        F_fd = fd_force_oracle(a, b)
        np.testing.assert_allclose(F, F_fd, rtol=1e-6, atol=1e-15)


def test_pair_force_perpendicular_config_fd():
    a = simple_source([0, 0, 0], EX * 0.04)
    b = simple_source([0, 0.08, 0.02], EZ * 0.02)
    np.testing.assert_allclose(mag.pair_force(a, b), fd_force_oracle(a, b), rtol=1e-6)


def test_coincident_sources_raise():
    a = simple_source([0, 0, 0], EZ)
    b = simple_source([0, 0, 1e-10], EZ)
    with pytest.raises(SingularConfigError):
        mag.pair_energy(a, b)
    with pytest.raises(SingularConfigError):
        mag.pair_force(a, b)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


def test_key_energy_frozen_value():
    s = simple_source([0, 0, 0], EX)
    key = mag.FieldKey((1, 0, 0), 0.02, "+x")
    assert mag.key_energy(s, key) == pytest.approx(-0.02, rel=1e-12)


def test_key_energy_translation_invariant():
    # uniform field: energy independent of position => zero net force
    key = mag.FieldKey((0, 0, 1), 0.05)
    for shift in ([0, 0, 0], [1, 2, 3], [-0.4, 0.1, 9.0]):
        s = simple_source(shift, 2.0 * EX + EZ)
        assert mag.key_energy(s, key) == pytest.approx(-0.05, rel=1e-12)


def test_key_torque_frozen_value():
    s = simple_source([0, 0, 0], EX)
    key = mag.FieldKey((0, 1, 0), 0.02)
    np.testing.assert_allclose(mag.key_torque(s, key), [0, 0, 0.02], atol=1e-18)


def test_key_torque_zero_when_aligned():
    s = simple_source([0, 0, 0], 3.3 * EZ)
    key = mag.FieldKey((0, 0, 1), 0.1)
    np.testing.assert_allclose(mag.key_torque(s, key), [0, 0, 0], atol=1e-18)


def test_key_validation():
    with pytest.raises(ConfigError):
        mag.FieldKey((1, 1, 0), 0.02)
    with pytest.raises(ConfigError):
        mag.FieldKey((1, 0, 0), -0.01)
    for bad in (float("nan"), float("inf"), "0.02", True, None):
        with pytest.raises(ConfigError):
            mag.FieldKey((1, 0, 0), bad)
    for bad in ((float("nan"), 0, 0), ("1", 0, 0), (True, 0, 0), (1, 0), 1.0):
        with pytest.raises(ConfigError):
            mag.FieldKey(bad, 0.02)
    # ints and numpy floats are real numbers
    key = mag.FieldKey((np.float64(0.0), 0, 1), np.float32(0.02))
    assert key.direction == (0.0, 0.0, 1.0)
    assert mag.FieldKey((1, 0, 0), 0).magnitude == 0


# ---------------------------------------------------------------------------
# assembly energy
# ---------------------------------------------------------------------------


def test_assembly_single_source_is_key_energy():
    s = simple_source([1, 2, 3], EY)
    key = mag.FieldKey((0, 1, 0), 0.03)
    assert mag.assembly_energy([s], key) == pytest.approx(mag.key_energy(s, key))


def test_assembly_two_sources_no_key_is_pair_energy():
    a = simple_source([0, 0, 0], EZ)
    b = simple_source([0, 0, 1.0], EZ)
    assert mag.assembly_energy([a, b]) == pytest.approx(mag.pair_energy(a, b), rel=1e-12)


def brute_assembly_oracle(sources, key):
    """Independent re-derivation with explicit loops over the dipole formula."""
    total = 0.0
    n = len(sources)
    for i in range(n):
        for j in range(n):
            if j <= i:
                continue
            r = sources[j].position - sources[i].position
            d = np.linalg.norm(r)
            rhat = r / d
            mi, mj = sources[i].moment, sources[j].moment
            total += mag.MU0 / (4 * np.pi * d**3) * (mi @ mj - 3 * (mi @ rhat) * (mj @ rhat))
    if key is not None:
        for s in sources:
            total += -s.moment @ key.vector
    return total


def test_assembly_three_sources_vs_oracle():
    rng = np.random.default_rng(5)
    srcs = [
        simple_source(rng.normal(size=3) * 0.1 + np.array([i, 0, 0]), rng.normal(size=3))
        for i in range(3)
    ]
    key = mag.FieldKey((0, 0, 1), 0.02)
    assert mag.assembly_energy(srcs, key) == pytest.approx(
        brute_assembly_oracle(srcs, key), rel=1e-12
    )


def test_assembly_rotational_covariance():
    # rotating every position, moment and the key leaves the energy unchanged
    rng = np.random.default_rng(31)
    srcs = [simple_source(rng.normal(size=3), rng.normal(size=3)) for _ in range(4)]
    key = mag.FieldKey(tuple(mag.unit(rng.normal(size=3))), 0.04)
    # random rotation via QR
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] *= -1
    rot_srcs = [simple_source(Q @ s.position, Q @ s.moment) for s in srcs]
    rot_key = mag.FieldKey(tuple(Q @ np.asarray(key.direction)), key.magnitude)
    assert mag.assembly_energy(rot_srcs, rot_key) == pytest.approx(
        mag.assembly_energy(srcs, key), rel=1e-12
    )


def test_scale_covariance_energy_and_force():
    # positions x s and dims x s: energies scale s^3, forces s^2
    rng = np.random.default_rng(77)
    spec = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.2, (0, 0, 1))
    pa, pb = np.array([0, 0, 0.0]), np.array([0.02, 0.01, 0.015])
    axa, axb = mag.unit(rng.normal(size=3)), mag.unit(rng.normal(size=3))
    for s in (0.5, 2.0, 3.4):
        spec_s = mag.MagnetSpec(
            "cylinder", (spec.dims[0] * s, spec.dims[1] * s), 1.2, (0, 0, 1)
        )
        a1 = mag.source_from_spec(spec, pa, axa)
        b1 = mag.source_from_spec(spec, pb, axb)
        a2 = mag.source_from_spec(spec_s, pa * s, axa)
        b2 = mag.source_from_spec(spec_s, pb * s, axb)
        assert mag.pair_energy(a2, b2) == pytest.approx(
            s**3 * mag.pair_energy(a1, b1), rel=1e-9
        )
        np.testing.assert_allclose(
            mag.pair_force(a2, b2), s**2 * mag.pair_force(a1, b1), rtol=1e-9
        )


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------


def test_subdipole_moments_sum_to_total():
    spec = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.2, (0, 0, 1))
    src = mag.source_from_spec(spec, [0, 0, 0], discretize=4)
    total = src.dipole_moments().sum(axis=0)
    np.testing.assert_allclose(total, src.moment, rtol=1e-9)
    assert len(src.dipole_positions()) > 1


def test_subdipole_offsets_inside_envelope():
    spec = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.2, (1, 0, 0))
    src = mag.source_from_spec(spec, [0.01, 0, 0], discretize=5)
    offs = src.dipole_positions() - src.position
    # local axis is +x here: radial distance perpendicular to the axis
    axial = offs @ np.array([1.0, 0, 0])
    radial = np.linalg.norm(offs - axial[:, None] * np.array([1.0, 0, 0]), axis=1)
    assert np.all(np.abs(axial) <= 2e-3 + 1e-12)
    assert np.all(radial <= 2e-3 + 1e-12)


@pytest.mark.parametrize("discretize", [0, -1, 2.5, 1.0, math.nan, "3", None, True])
def test_discretize_must_be_an_integer_of_at_least_one(discretize):
    spec = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.2, (0, 0, 1))
    with pytest.raises(ConfigError, match="discretize must be an integer >= 1"):
        mag.source_from_spec(spec, [0, 0, 0], discretize=discretize)
    assert mag.source_from_spec(spec, [0, 0, 0], discretize=1).subdipoles is None
    assert len(mag.source_from_spec(spec, [0, 0, 0], discretize=np.int64(2)).subdipoles) == 8


def test_discretized_far_field_matches_point_dipole():
    spec = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.2, (0, 0, 1))
    point = mag.source_from_spec(spec, [0, 0, 0], discretize=1)
    fine = mag.source_from_spec(spec, [0, 0, 0], discretize=4)
    far = [0.0, 0.0, 0.5]
    np.testing.assert_allclose(
        mag.dipole_field_at(fine, far), mag.dipole_field_at(point, far),
        rtol=1e-4, atol=1e-20,
    )


def test_discretized_near_field_differs():
    spec = mag.MagnetSpec("cylinder", (2e-3, 4e-3), 1.2, (0, 0, 1))
    point = mag.source_from_spec(spec, [0, 0, 0], discretize=1)
    fine = mag.source_from_spec(spec, [0, 0, 0], discretize=4)
    near = [0.0, 0.0, 3e-3]
    Bp = mag.dipole_field_at(point, near)
    Bf = mag.dipole_field_at(fine, near)
    assert abs(Bf[2] - Bp[2]) / abs(Bp[2]) > 1e-3


def _vec3(scale):
    return st.tuples(*[st.floats(-scale, scale)] * 3).map(np.array)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.lists(st.tuples(_vec3(0.1), _vec3(1.0)), min_size=2, max_size=5),
       st.integers(0, 4))
def test_force_is_minus_energy_gradient(dipoles, k):
    """On random point-dipole assemblies the kernel force on one dipole is
    minus the central difference of ``assembly_energy`` in its position."""
    pos = np.array([p for p, _ in dipoles])
    gaps = np.linalg.norm(pos[:, None] - pos[None], axis=-1)
    assume(gaps[~np.eye(len(pos), dtype=bool)].min() > 0.02)
    sources = [mag.MagnetSource(p, m) for p, m in dipoles]
    k %= len(sources)
    target, others = sources[k], sources[:k] + sources[k + 1:]
    force = mag.dipole_forces(np.array([s.position for s in others]),
                              np.array([s.moment for s in others]),
                              target.position[None], target.moment[None])[0]
    h = 1e-7
    grad = np.empty(3)
    for c in range(3):
        step = np.eye(3)[c] * h
        energies = [mag.assembly_energy(sources[:k] + [mag.MagnetSource(
            target.position + sign * step, target.moment)] + sources[k + 1:])
            for sign in (1.0, -1.0)]
        grad[c] = (energies[0] - energies[1]) / (2 * h)
    # the scale of the terms, so near-cancelling pair forces do not hide an error
    scale = sum(np.linalg.norm(mag.pair_force(o, target)) for o in others)
    assert np.linalg.norm(force + grad) <= 1e-6 * scale + 1e-12
