"""Landscape sampling, classification, and actuation-figure tests.

Hand-derived anchors used below (pure point-dipole closed forms):

* Coaxial restoring force at separation d: F = 3*mu0*m1*m2 / (2*pi*d^4).
  The anchored single-stator unit (stator +z at the origin, track +z,
  stroke 13..21 mm) has its weakest grip at the outer stop, so the margin
  equals the closed form at d = 0.021 m.
* Two coaxial stators, moments +z (m=0.128) at z=0 and -z (m=0.02) at
  z=0.042, make a kinked double well. The crest sits where the axial
  fields cancel: (z/(0.042-z))^3 = 0.128/0.02, i.e. z* = 0.042*c/(1+c)
  with c = 6.4^(1/3). The inner basin collapses when an opposing -z key
  exceeds the combined axial field at the inner stop:
  K* = (mu0/4pi) * 2 * (0.128/0.013^3 - 0.02/0.029^3).
* Ejection: U drop 1 mJ into a 0.5 g mover gives v = sqrt(2*1e-3/0.5e-3)
  = 2.0 m/s exactly; 0.05 N friction over the 10 mm stroke halves the
  budget, giving sqrt(2).
* Force density: 0.54 N over 1.4 mm^3 of magnet is 540/1.4 mN/mm^3.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maglogic import landscape as ls
from maglogic import magnetics as mag
from maglogic import presets as pr
from maglogic.errors import (
    ConfigError,
    EnergyBudgetError,
    MaglogicError,
    SingularConfigError,
)
from maglogic.landscape import (
    LandscapeDecision,
    LandscapeProfile,
    MoverTrack,
    UnitTriplet,
)
from maglogic.magnetics import MU0, FieldKey, MagnetSource, MagnetSpec
from test_magnetics import (
    assert_kernels_match_reference,
    ref_dipole_field,
    ref_dipole_forces,
)

def _evaluate_at(profile, xs):
    """Energy and axial force of ``profile`` at track coordinates xs (any
    length), one group."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    energy, force = ls._evaluate(*(a[None] for a in profile._args), xs[None])
    return energy[0], force[0]


MOVER = MagnetSpec("cylinder", (4e-3, 8e-3), 0.3, (0.0, 0.0, 1.0))
M_MOVER = 0.3 * np.pi * (4e-3) ** 2 * 8e-3 / MU0  # |m| of MOVER


def anchored_unit():
    """Single stator behind the inner stop, coaxial with the track."""
    stator = MagnetSource((0, 0, 0), (0, 0, 0.128))
    track = MoverTrack((0, 0, 1), (0, 0, 0), (0.013, 0.021), MOVER, mass=1e-3)
    return UnitTriplet("a", (stator,), track)


def outward_unit():
    stator = MagnetSource((0, 0, 0.034), (0, 0, 0.128))
    track = MoverTrack((0, 0, 1), (0, 0, 0), (0.013, 0.021), MOVER, mass=1e-3)
    return UnitTriplet("b", (stator,), track)


def double_well_unit():
    """Two equal stators flanking the track; |B| dips at the midpoint."""
    s1 = MagnetSource((-4e-3, 5e-3, 0), (0, 0.128, 0))
    s2 = MagnetSource((+4e-3, 5e-3, 0), (0, 0.128, 0))
    track = MoverTrack((1, 0, 0), (0, 0, 0), (-0.010, 0.010), MOVER, mass=1e-3)
    return UnitTriplet("c", (s1, s2), track)


def collapse_unit():
    """Coaxial double well whose inner basin dies under a -z key."""
    s1 = MagnetSource((0, 0, 0), (0, 0, 0.128))
    s2 = MagnetSource((0, 0, 0.042), (0, 0, -0.02))
    track = MoverTrack((0, 0, 1), (0, 0, 0), (0.013, 0.029), MOVER, mass=1e-3)
    return UnitTriplet("d", (s1, s2), track)


def coupled_topology():
    """Two units close enough that the frozen movers matter."""
    u1 = anchored_unit()
    s2 = MagnetSource((0.04, 0, 0), (-0.128, 0, 0))
    t2 = MoverTrack((1, 0, 0), (0.04, 0, 0), (0.013, 0.021), MOVER, mass=1e-3)
    return [u1, UnitTriplet("u2", (s2,), t2)]


def strongly_coupled_pair():
    """Two movers 20 mm apart over weak stators, so the mover-mover field
    dominates: at the inner stops the orientation solve takes 109
    iterations without a key, 12 to 36 under 5 and 20 mT x, y and +z keys,
    and never settles under a 5 mT -z key; latched mid-stroke it takes 156
    without a key and 125 under that -z key."""
    return [UnitTriplet(f"m{i}", (MagnetSource((x, 0, -0.01), (0, 0, 0.02)),),
                        MoverTrack((0, 0, 1), (x, 0, 0), (0.0, 0.004), MOVER, mass=1e-3))
            for i, x in enumerate((0.01, -0.01))]


# independent scalar formulas for the oracle checks


def field_oracle(pos, m, p):
    r = np.asarray(p, float) - np.asarray(pos, float)
    d = np.linalg.norm(r)
    rh = r / d
    return MU0 / (4 * np.pi) * (3 * (np.dot(m, rh)) * rh - np.asarray(m, float)) / d**3


def pair_energy_oracle(pa, ma, pb, mb):
    r = np.asarray(pb, float) - np.asarray(pa, float)
    d = np.linalg.norm(r)
    rh = r / d
    return (
        MU0
        / (4 * np.pi * d**3)
        * (np.dot(ma, mb) - 3 * np.dot(ma, rh) * np.dot(mb, rh))
    )


def test_track_validation():
    with pytest.raises(ConfigError):
        MoverTrack((0, 0, 0), (0, 0, 0), (0.0, 0.01), MOVER, mass=1e-3)
    with pytest.raises(ConfigError):
        MoverTrack((0, 0, 1), (0, 0, 0), (0.01, 0.01), MOVER, mass=1e-3)
    with pytest.raises(ConfigError):
        MoverTrack((0, 0, 1), (0, 0, 0), (0.0, 0.01), MOVER, mass=0.0)
    with pytest.raises(ConfigError):
        MoverTrack((0, 0, 1), (0, 0, 0), (0.0, 0.01), MOVER, mass=1e-3,
                   friction_force=-1.0)
    track = pr.demo_topology()[0].track
    for bad in (float("nan"), float("inf"), "1e-3", None):
        for field, value in (("mass", bad), ("friction_force", bad),
                             ("origin", (0.0, bad, 0.0)),
                             ("axis", (1.0, bad, 0.0))):
            with pytest.raises(ConfigError):
                dataclasses.replace(track, **{field: value})
    for field, value in (("origin", 0.0), ("origin", 5), ("axis", None),
                         ("stroke", 5), ("stroke", ("a", 0.02)),
                         ("stroke", (0.0, 0.01, 0.02)), ("mass", True)):
        with pytest.raises(ConfigError):
            dataclasses.replace(track, **{field: value})


def test_track_stops_must_be_distinct_finite_points():
    """Far from the origin the two stops overflow or round to one point:
    the track is a ConfigError, with no RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as exc:
            MoverTrack((1, 0, 0), (1e308, 0, 0), (0.013, 0.021), MOVER, mass=1e-3)
        assert str(exc.value) == ("track stops must be two distinct finite points, "
                                  "got [[1e+308, 0.0, 0.0], [1e+308, 0.0, 0.0]]")
        with pytest.raises(ConfigError) as exc:
            MoverTrack((0, 0, -1), (0, 0, -1.5e308), (0.0, 1e308), MOVER, mass=1e-3)
        assert str(exc.value) == ("track stops must be two distinct finite points, "
                                  "got [[0.0, 0.0, -1.5e+308], [0.0, 0.0, -inf]]")
        # far out, but the stops still land on distinct points
        track = MoverTrack((1, 0, 0), (1e5, 0, 0), (0.013, 0.021), MOVER, mass=1e-3)
        assert track.point(track.x_out)[0] > track.point(track.x_in)[0]


def test_unit_errors_name_their_field():
    spec = mag.MagnetSpec("cylinder", (0.004, 0.008), 0.3, (0, 0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, text in (
                (lambda: mag.unit((0, 0, 0), "track axis"),
                 "cannot normalize track axis [0.0, 0.0, 0.0]: it is a zero vector"),
                (lambda: MoverTrack((1e308, 0, 0), (0, 0, 0), (0.0, 0.004), spec, 1e-3),
                 "cannot normalize track axis [1e+308, 0.0, 0.0]: its length overflows"),
                (lambda: MoverTrack((0, 0, 0), (0, 0, 0), (0.0, 0.004), spec, 1e-3),
                 "cannot normalize track axis [0.0, 0.0, 0.0]: it is a zero vector"),
                (lambda: mag.source_from_spec(spec, (0, 0, 0), (0, -1e308, 0)),
                 "cannot normalize source axis [0.0, -1e+308, 0.0]: its length overflows"),
                (lambda: mag.unit((1e-310, 0, 0)),
                 "cannot normalize vector [1e-310, 0.0, 0.0]: it is a zero vector")):
            with pytest.raises(ConfigError) as exc:
                call()
            assert str(exc.value) == text


_COMPONENT = st.floats(-1.0, 1.0)
_FRACTION = st.floats(0.0, 1.0)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(
           lambda v: np.linalg.norm(v) > 0.1),
       st.floats(0.0, 0.05), st.tuples(_FRACTION, _FRACTION, _FRACTION))
def test_decisions_for_key_matches_unit_decision(direction, magnitude, fractions):
    topo = pr.demo_topology()
    key = FieldKey(tuple(np.asarray(direction) / np.linalg.norm(direction)),
                   magnitude, "k")
    positions = {u.id: u.track.x_in + f * (u.track.x_out - u.track.x_in)
                 for u, f in zip(topo, fractions)}
    decisions = ls.decisions_for_key(topo, key, 256, positions)
    assert list(decisions) == [u.id for u in topo]
    for u in topo:
        assert decisions[u.id] == ls.unit_decision(topo, u.id, key, 256, positions)


def _zero_field_unit():
    """Opposed stators whose fields cancel exactly where x = 0.015."""
    s1 = MagnetSource((0, 0, -0.01), (0, 0, 0.128))
    s2 = MagnetSource((0, 0, 0.01), (0, 0, -0.128))
    track = MoverTrack((1, 0, 0), (-0.015, 0, 0), (0.013, 0.021), MOVER, mass=1e-3)
    return UnitTriplet("z", (s1, s2), track)


def _grid_profiles(topology, keys):
    units = list(topology)
    return ls._batch_profiles([units], range(len(units)), keys, 16,
                              [ls.rest_positions(units)])


def _batches():
    """Profile lists of one topology each, as the engine stacks them."""
    from maglogic import design as dg

    demo = pr.demo_topology()
    cone = [FieldKey(tuple(d), k.magnitude, k.label)
            for k in pr.demo_keys() for d in dg.cone_directions(k.direction, 20.0)]
    discretized = mag.source_from_spec(
        MagnetSpec("cylinder", (3e-3, 6e-3), 1.2, (0, 0, 1)), (0.04, 0, 0.005),
        discretize=3)
    uneven = [collapse_unit(),
              UnitTriplet("u2", (discretized,), coupled_topology()[1].track)]
    zero = [_zero_field_unit()]
    return [
        _grid_profiles(demo, [*cone, None]),
        _grid_profiles(coupled_topology(), [None, FieldKey((0, 0, -1), 0.01, "k")]),
        _grid_profiles(uneven, [None, FieldKey((1, 0, 0), 0.02, "k")]),
        # a +y key first, so a row that inherited the previous row's
        # direction would push across the track instead of along it
        _grid_profiles(zero, [FieldKey((0, 1, 0), 0.01, "k"), None]),
    ]


def test_batched_rows_match_one_point_evaluate():
    rng = np.random.default_rng(8)
    batches = _batches()
    assert len({len(b[0]._args[3]) for b in batches}) == len(batches)  # K differs
    for profs in batches:
        stacked = ls._stack(profs)
        for _ in range(10):
            rows = rng.integers(0, len(profs), 3 * len(profs))
            xs = np.array([rng.uniform(*profs[i].track.stroke) for i in rows])
            energy, force = (a[:, 0] for a in ls._evaluate_groups(stacked, rows, xs[:, None]))
            for i, x, e, f in zip(rows, xs, energy, force):
                one_e, one_f = _evaluate_at(profs[i], [x])
                assert np.array_equal(one_e, [e]) and np.array_equal(one_f, [f])


def test_batched_kernel_calls_match_frozen_reference():
    """The kernel calls of grids and root-finding rows, on every batch topology."""
    rng = np.random.default_rng(12)
    for profs in _batches():
        stacked = ls._stack(profs)
        origin, axis, _, pos, m = stacked[:5]
        for n in (1, 2, 256, 1025):
            rows = rng.integers(0, len(profs), n)
            pts = origin[rows] + rng.uniform(0.013, 0.021, n)[:, None] * axis[rows]
            moments = rng.normal(size=(n, 3))
            assert_kernels_match_reference(pos[rows], m[rows], pts, moments)
            assert_kernels_match_reference(pos[rows[0]], m[rows[0]], pts, moments)


def test_zero_field_row_takes_its_own_track_axis():
    keyed, bare = _batches()[-1]
    stacked = ls._stack([keyed, bare])
    energy, force = (a[:, 0] for a in ls._evaluate_groups(stacked, np.array([0, 1]),
                                                          np.array([[0.015], [0.015]])))
    assert np.array_equal(force[1:], _evaluate_at(bare, [0.015])[1])
    assert force[1] != 0.0  # the fallback direction moves the force
    assert abs(_evaluate_at(keyed, [0.015])[1][0]) < 1e-12 * abs(force[1])
    # on a grid, the zero-field row at the outer stop continues the row
    # before it, whose mover points the other way along the track
    unit = _zero_field_unit()
    unit = dataclasses.replace(
        unit, track=dataclasses.replace(unit.track, stroke=(0.009, 0.015)))
    prof = ls.sample_profile([unit], "z", None, 64)
    assert prof.xs[-1] == 0.015
    one = _evaluate_at(prof, [0.015])[1][0]
    assert one == pytest.approx(0.73728, rel=1e-9)
    assert prof.force_axial[-1] == pytest.approx(-0.73728, rel=1e-9)


def _reference_unit_rows(B, fallback):
    """Row-normalize B; zero rows inherit the previous valid direction."""
    norms = np.linalg.norm(B, axis=1)
    ok = norms > 1e-30
    out = np.empty_like(B)
    out[ok] = B[ok] / norms[ok, None]
    if not ok.all():
        idx = np.maximum.accumulate(np.where(ok, np.arange(len(B)), -1))
        for i in np.nonzero(~ok)[0]:
            out[i] = out[idx[i]] if idx[i] >= 0 else fallback
    return out


def _reference_grid(prof, xs):
    """A grid evaluation written out step by step, with its own zero-field
    rule: N-row calls of the frozen (N, K, 3) kernels and ``force @ axis``."""
    _, _, m_mag, pos, m, key, const = prof._args
    axis = np.asarray(prof.track.axis)
    pts = prof.track.point(xs)
    B = ref_dipole_field(pos, m, pts) + key[None, :]
    moments = float(m_mag) * _reference_unit_rows(B, axis)
    energy = float(const) - np.einsum("nc,nc->n", moments, B)
    return energy, ref_dipole_forces(pos, m, pts, moments) @ axis


def test_grids_match_reference_evaluation_bit_for_bit():
    demo, coupled, uneven, _ = _batches()
    for profs in (demo, coupled, uneven):
        for prof in profs:
            for n in (ls.DEFAULT_SAMPLES, ls._BASIN_GRID):
                xs = np.linspace(prof.track.x_in, prof.track.x_out, n)
                energy, force = _evaluate_at(prof, xs)
                want_energy, want_force = _reference_grid(prof, xs)
                assert np.array_equal(energy, want_energy)
                assert np.array_equal(force, want_force)


_KEY = st.builds(
    lambda d, m: FieldKey(tuple(np.asarray(d) / np.linalg.norm(d)), m, "k"),
    st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(
        lambda v: np.linalg.norm(v) > 0.1),
    st.floats(0.0, 0.05))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(st.lists(st.one_of(st.none(), _KEY), min_size=1, max_size=3),
       st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_decisions_for_keys_matches_unit_decision(pool, picks):
    topo = pr.demo_topology()
    keys = [pool[i % len(pool)] for i in picks]  # repeats and None included
    decided = ls.decisions_for_keys(topo, keys, 64)
    assert len(decided) == len(keys)
    singles = {}
    for key, decisions in zip(keys, decided):
        assert list(decisions) == [u.id for u in topo]
        for u in topo:
            cell = (None if key is None else key.vector.tobytes(), u.id)
            if cell not in singles:
                singles[cell] = ls.unit_decision(topo, u.id, key, 64)
            assert decisions[u.id] == singles[cell]


@pytest.mark.parametrize("keys", [pr.demo_keys()[0], None, 3, [None, "+x"]],
                         ids=["bare_key", "none", "int", "string_key"])
def test_decisions_for_keys_rejects_non_key_lists(keys):
    with pytest.raises(ConfigError, match="FieldKey"):
        ls.decisions_for_keys(pr.demo_topology(), keys)


@pytest.mark.parametrize("call", [
    lambda topo, key: ls.sample_profile(topo, "alpha", key),
    lambda topo, key: ls.unit_decision(topo, "alpha", key),
    lambda topo, key: ls.equilibrate_orientations(topo, ls.rest_positions(topo), key),
    lambda topo, key: ls.decisions_for_key(topo, key),
], ids=["sample_profile", "unit_decision", "equilibrate_orientations",
        "decisions_for_key"])
@pytest.mark.parametrize("key", ["+x", 3, (1.0, 0.0, 0.0)], ids=["label", "int", "vector"])
def test_every_entry_point_rejects_a_non_key(call, key):
    with pytest.raises(ConfigError, match="FieldKey"):
        call(pr.demo_topology(), key)


@pytest.mark.parametrize("positions, match", [
    ({"zzz": 0.0}, "unknown unit id 'zzz'"),
    ({"alpha": "x"}, "unit 'alpha' must be a finite number"),
    ({"alpha": True}, "unit 'alpha' must be a finite number"),
    ({"alpha": float("nan")}, "unit 'alpha' must be a finite number"),
    ({"alpha": float("inf")}, "unit 'alpha' must be a finite number"),
    ({"alpha": 1.0}, "unit 'alpha' must lie in its stroke"),
    ({"alpha": 0.013 - 1e-12}, "unit 'alpha' must lie in its stroke"),
    ([("alpha", 0.015)], "must be a dict"),
], ids=["unknown_unit", "string", "bool", "nan", "inf", "one_meter", "below_stroke",
        "pairs"])
def test_mover_positions_are_checked(positions, match):
    topo = pr.demo_topology()
    for call in (lambda: ls.decisions_for_key(topo, pr.demo_keys()[0],
                                              mover_positions=positions),
                 lambda: ls.sample_profile(topo, "beta", None,
                                           mover_positions=positions)):
        with pytest.raises(ConfigError, match=match):
            call()


def test_mover_positions_include_the_stops():
    topo = pr.demo_topology()
    alpha = topo[0].track
    assert alpha.stroke == (0.013, 0.021)
    for x in alpha.stroke:
        ls.sample_profile(topo, "beta", None, 16, {"alpha": x})


def test_stator_on_stroke_rejected():
    stator = MagnetSource((0, 0, 0.017), (0, 0, 0.1))
    track = MoverTrack((0, 0, 1), (0, 0, 0), (0.013, 0.021), MOVER, mass=1e-3)
    with pytest.raises(ConfigError):
        UnitTriplet("bad", (stator,), track)


def test_sample_count_floor():
    for bad in (8, 64.0, True):
        with pytest.raises(ConfigError):
            ls.sample_profile([anchored_unit()], "a", None, bad)


def test_decide_needs_the_evaluation_context():
    for unit, uid in ((anchored_unit(), "a"), (outward_unit(), "b")):
        prof = ls.refine_equilibria(ls.sample_profile([unit], uid, None))
        with pytest.raises(MaglogicError, match="context"):
            ls.decide(dataclasses.replace(prof, _args=None))


def test_unknown_unit_id():
    with pytest.raises(ConfigError):
        ls.sample_profile([anchored_unit()], "nope", None)


def test_profile_grid():
    prof = ls.sample_profile([anchored_unit()], "a", None, 48)
    assert len(prof.xs) == 48
    assert prof.xs[0] == 0.013 and prof.xs[-1] == 0.021
    assert np.all(np.diff(prof.xs) > 0)


def test_flat_landscape_is_degenerate():
    track = MoverTrack((0, 0, 1), (0, 0, 0), (0.0, 0.01), MOVER, mass=1e-3)
    unit = UnitTriplet("free", (), track)
    for key in (None, FieldKey((1, 0, 0), 0.02, "k")):
        prof = ls.sample_profile([unit], "free", key)
        assert np.all(prof.force_axial == 0.0)
        assert np.all(prof.energy == prof.energy[0])
        dec = ls.decide(ls.refine_equilibria(prof))
        assert dec.degenerate
        assert dec.clazz != "bistable"
        assert not dec.snap_through
        assert dec.barrier_out == 0.0
        assert dec.anchoring_force is None


def test_outward_unit_drives_to_outer_stop():
    unit = outward_unit()
    prof = ls.refine_equilibria(ls.sample_profile([unit], "b", None))
    assert np.all(prof.force_axial > 0)
    assert prof.equilibria == ()
    dec = ls.decide(prof)
    assert dec.clazz == "monostable_outer"
    assert dec.snap_through
    assert dec.driving_peak > 0
    assert ls.unit_decision([unit], "b", None).anchoring_force is None
    # coaxial closed form, attraction toward the stator at z=0.034
    expect = 3 * MU0 * 0.128 * M_MOVER / (2 * np.pi * (0.034 - prof.xs) ** 4)
    np.testing.assert_allclose(prof.force_axial, expect, rtol=1e-9)


def test_friction_blocks_snap():
    unit = outward_unit()
    unit = dataclasses.replace(
        unit, track=dataclasses.replace(unit.track, friction_force=1.0))
    prof = ls.refine_equilibria(ls.sample_profile([unit], "b", None))
    dec = ls.decide(prof)
    assert dec.clazz == "monostable_outer"
    assert not dec.snap_through


def test_anchored_unit_margin_closed_form():
    unit = anchored_unit()
    dec = ls.unit_decision([unit], "a", None)
    assert dec.clazz == "monostable_inner"
    assert not dec.snap_through and not dec.degenerate
    assert dec.inner_attractor == 0.013
    # weakest grip at the outer stop
    expect = 3 * MU0 * 0.128 * M_MOVER / (2 * np.pi * 0.021**4)
    assert dec.anchoring_force == pytest.approx(expect, rel=1e-12)


def test_profile_matches_scalar_oracle():
    """Vectorized sampler against a from-scratch scalar energy walk."""
    topo = coupled_topology()
    key = FieldKey((0, 0, -1), 5e-3, "k")
    prof = ls.sample_profile(topo, "a", key, 64)

    kvec = np.array([0.0, 0.0, -5e-3])
    fixed = [((0, 0, 0), np.array([0, 0, 0.128]))]
    fixed.append(((0.04, 0, 0), np.array([-0.128, 0, 0])))
    # frozen second mover at its inner stop, aligned with its local field
    p2 = np.array([0.04 + 0.013, 0, 0])
    b2 = field_oracle(*fixed[0], p2) + field_oracle(*fixed[1], p2) + kvec
    # the first mover also contributes to b2; take orientations from the
    # implementation's fixed point, then verify the torque balance below
    ori = ls.equilibrate_orientations(topo, {"a": 0.013, "u2": 0.013}, key)
    p1 = np.array([0, 0, 0.013])
    b2 = b2 + field_oracle(p1, M_MOVER * ori["a"], p2)
    assert np.linalg.norm(np.cross(ori["u2"], b2)) < 1e-12 * np.linalg.norm(b2)
    fixed.append((p2, M_MOVER * ori["u2"]))

    for i in (0, 9, 21, 33, 47, 63):
        p = np.array([0, 0, prof.xs[i]])
        B = sum(field_oracle(fp, fm, p) for fp, fm in fixed) + kvec
        u_t = B / np.linalg.norm(B)
        srcs = fixed + [(p, M_MOVER * u_t)]
        expect = 0.0
        for a in range(len(srcs)):
            for b in range(a + 1, len(srcs)):
                expect += pair_energy_oracle(
                    srcs[a][0], srcs[a][1], srcs[b][0], srcs[b][1]
                )
            expect += -np.dot(srcs[a][1], kvec)
        assert prof.energy[i] == pytest.approx(expect, rel=1e-12)


def test_force_matches_energy_gradient():
    """F_axial vs centered differences of U at every interior sample."""
    cases = [
        ([double_well_unit()], "c", None),
        (coupled_topology(), "a", FieldKey((0, 0, -1), 5e-3, "k")),
    ]
    for topo, uid, key in cases:
        prof = ls.sample_profile(topo, uid, key, 96)
        h = (prof.x_out - prof.x_in) * 1e-6
        for j in range(1, len(prof.xs) - 1):
            up = _evaluate_at(prof, [prof.xs[j] + h])[0][0]
            um = _evaluate_at(prof, [prof.xs[j] - h])[0][0]
            fd = -(up - um) / (2 * h)
            assert prof.force_axial[j] == pytest.approx(fd, rel=1e-4, abs=1e-9)


def test_orientation_fixed_point_balances_torque():
    topo = coupled_topology()
    key = FieldKey((0, 1, 0), 8e-3, "k")
    ori = ls.equilibrate_orientations(topo, {"a": 0.015, "u2": 0.02}, key)
    pts = {"a": np.array([0, 0, 0.015]), "u2": np.array([0.06, 0, 0])}
    moments = {uid: M_MOVER * ori[uid] for uid in ori}
    fixed = [((0, 0, 0), np.array([0, 0, 0.128])),
             ((0.04, 0, 0), np.array([-0.128, 0, 0]))]
    for uid, other in (("a", "u2"), ("u2", "a")):
        B = sum(field_oracle(fp, fm, pts[uid]) for fp, fm in fixed)
        B = B + field_oracle(pts[other], moments[other], pts[uid])
        B = B + np.array([0.0, 8e-3, 0.0])
        assert np.linalg.norm(ori[uid]) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(np.cross(ori[uid], B)) < 1e-12 * np.linalg.norm(B)


def _pairwise_orientations(topology, positions, key):
    """Per-pair fixed point on the frozen ``dipole_field``: the loop the
    array pass replaced."""
    units = list(topology)
    stators = [s for u in units for s in u.stators]
    pts = np.array([u.track.point(positions[u.id]) for u in units])
    mags = np.array([u.track.mover_moment_mag() for u in units])
    base = np.zeros_like(pts)
    for s in stators:
        base = base + ref_dipole_field(s.dipole_positions(), s.dipole_moments(), pts)
    if key is not None:
        base = base + key.vector[None, :]
    u_dirs = np.empty_like(base)
    for i, u in enumerate(units):
        n = np.linalg.norm(base[i])
        u_dirs[i] = base[i] / n if n > 1e-30 else np.asarray(u.track.axis)
    damping = 1.0
    for it in range(500):
        new = np.empty_like(u_dirs)
        for i in range(len(units)):
            B = base[i].copy()
            for j in range(len(units)):
                if j != i:
                    B += ref_dipole_field(
                        pts[j][None, :], (mags[j] * u_dirs[j])[None, :], pts[i])
            n = np.linalg.norm(B)
            new[i] = B / n if n > 1e-30 else u_dirs[i]
        if damping < 1.0:
            new = u_dirs + damping * (new - u_dirs)
            norms = np.linalg.norm(new, axis=1, keepdims=True)
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
    return {u.id: u_dirs[i] for i, u in enumerate(units)}


def test_equilibrate_orientations_matches_pairwise_loop():
    """Bit for bit: a numpy or BLAS change that moves a last digit fails here."""
    rng = np.random.default_rng(20261018)
    cases = [(pr.demo_topology(), pr.demo_keys()),
             (coupled_topology(), (FieldKey((0, 1, 0), 8e-3, "k"),
                                   FieldKey((0, 0, -1), 5e-3, "z")))]
    for n in range(240):
        topo, keys = cases[n % 2]
        positions = {u.id: rng.uniform(u.track.x_in, u.track.x_out) for u in topo}
        key = None
        if n % 8 != 0:
            base = keys[rng.integers(len(keys))]
            tilt = np.asarray(base.direction) + 0.4 * rng.normal(size=3)
            key = FieldKey(tuple(tilt / np.linalg.norm(tilt)),
                           base.magnitude * rng.uniform(0.0, 2.5), base.label)
        got = ls.equilibrate_orientations(topo, positions, key)
        want = _pairwise_orientations(topo, positions, key)
        assert list(got) == list(want)
        for uid in want:
            assert np.array_equal(got[uid], want[uid]), (n, uid)


def _solve_lengths(monkeypatch, topology, positions, keys):
    """Iterations of a one-key orientation solve per key; None where it
    does not converge. Each iteration makes one ``_field_terms`` call."""
    calls = []
    terms = mag._field_terms
    monkeypatch.setattr(mag, "_field_terms", lambda *a: calls.append(a) or terms(*a))
    lengths = []
    for key in keys:
        calls.clear()
        try:
            ls.equilibrate_orientations(topology, positions, key)
            lengths.append(len(calls))
        except MaglogicError:
            lengths.append(None)
    monkeypatch.undo()
    return lengths


_PAIR_KEYS = [None, *(FieldKey(d, magnitude, "k") for d in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
                      for magnitude in (0.005, 0.02))]
_STUCK = FieldKey((0, 0, -1), 0.005, "stuck")


def test_lockstep_orientations_match_one_solve_per_key(monkeypatch):
    """Bit for bit: every key of a multi-key solve gets its one-key solve,
    whatever converges beside it, before or after the damping starts."""
    rng = np.random.default_rng(2026)
    pair = strongly_coupled_pair()
    cases = [(pair, ls.rest_positions(pair), _PAIR_KEYS),
             (pair, {u.id: 0.002 for u in pair}, [*_PAIR_KEYS, _STUCK, _PAIR_KEYS[3]])]
    for topo, keys in ((pr.demo_topology(), pr.demo_keys()),
                       (coupled_topology(), (FieldKey((0, 1, 0), 8e-3, "k"),
                                             FieldKey((0, 0, -1), 5e-3, "z")))):
        for _ in range(4):
            tilted = [None, *(FieldKey(tuple(d / np.linalg.norm(d)), k.magnitude * f, k.label)
                              for k in keys for d, f in [(np.asarray(k.direction)
                                                          + 0.4 * rng.normal(size=3),
                                                          rng.uniform(0.0, 2.5))])]
            positions = {u.id: rng.uniform(u.track.x_in, u.track.x_out) for u in topo}
            cases.append((topo, positions, tilted))
    damped = 0
    for topo, positions, keys in cases:
        lengths = _solve_lengths(monkeypatch, topo, positions, keys)
        assert None not in lengths
        assert topo is not pair or len(set(lengths)) > 2
        dirs = ls._batch_orientations([topo], [positions], ls._key_vectors(keys))[2][0]
        assert dirs.shape == (len(keys), len(topo), 3)
        for q, (key, length) in enumerate(zip(keys, lengths)):
            one = ls.equilibrate_orientations(topo, positions, key)
            for i, u in enumerate(topo):
                assert np.array_equal(dirs[q, i], one[u.id]), (q, u.id)
            if length > 101:  # damped: the frozen pairwise loop agrees too
                damped += 1
                want = _pairwise_orientations(topo, positions, key)
                assert all(np.array_equal(one[uid], want[uid]) for uid in want)
    assert damped >= 3


def test_orientation_solve_failures_and_empty_calls(monkeypatch):
    pair = strongly_coupled_pair()
    rest = ls.rest_positions(pair)
    assert _solve_lengths(monkeypatch, pair, rest, [_STUCK]) == [None]
    with pytest.raises(MaglogicError, match="did not converge"):
        ls.equilibrate_orientations(pair, rest, _STUCK)
    # keys that converge beside it do not hide the one that does not
    with pytest.raises(MaglogicError, match="did not converge"):
        ls.decisions_for_keys(pair, [*_PAIR_KEYS, _STUCK])
    assert ls.decisions_for_keys(pair, []) == []
    assert ls.decisions_for_keys(pr.demo_topology(), [], 64) == []
    for call in (lambda: ls.decisions_for_keys([], [None]),
                 lambda: ls.decisions_for_keys([], [_STUCK, None]),
                 lambda: ls.equilibrate_orientations([], {}, None)):
        with pytest.raises(ConfigError, match="no units"):
            call()


def test_constant_energies_equal_assembly_energy():
    """Every (key, target) profile equals the pair-by-pair construction:
    the constant energy is ``assembly_energy`` of the target's fixed
    sources exactly, and the fixed dipoles are those sources in unit
    order, for point-dipole and discretized stators alike."""
    from maglogic import design as dg

    demo = pr.demo_topology()
    cone = [FieldKey(tuple(d), k.magnitude, k.label)
            for k in pr.demo_keys() for d in dg.cone_directions(k.direction, 20.0)]
    discretized = [dataclasses.replace(u, stators=tuple(
        mag.source_from_spec(s.spec, s.position, s.moment, discretize=3)
        for s in u.stators)) if u.id == "alpha" else u for u in demo]
    cases = [(demo, [*cone, None]), (discretized, [None, *pr.demo_keys()]),
             (coupled_topology(), [FieldKey((0, 1, 0), 8e-3, "k"), None]),
             (strongly_coupled_pair(), _PAIR_KEYS)]
    checked = 0
    for topo, keys in cases:
        for positions in (ls.rest_positions(topo),
                          {u.id: 0.5 * (u.track.x_in + u.track.x_out) for u in topo}):
            profiles = iter(ls._batch_profiles([topo], range(len(topo)), keys, 16,
                                               [positions]))
            for key in keys:
                ori = ls.equilibrate_orientations(topo, positions, key)
                movers = [MagnetSource(u.track.point(positions[u.id]),
                                       u.track.mover_moment_mag() * ori[u.id]) for u in topo]
                for t in range(len(topo)):
                    prof = next(profiles)
                    fixed = [s for i, u in enumerate(topo)
                             for s in (u.stators if i == t else (*u.stators, movers[i]))]
                    stators = [s for u in topo for s in u.stators]
                    want = mag.assembly_energy(
                        stators + [m for i, m in enumerate(movers) if i != t], key)
                    assert float(prof._args[6]) == want, (key, t)
                    assert np.array_equal(
                        prof._args[3], np.concatenate([s.dipole_positions() for s in fixed]))
                    assert np.array_equal(
                        prof._args[4], np.concatenate([s.dipole_moments() for s in fixed]))
                    checked += 1
    assert checked == 2 * 3 * (28 + 4) + 2 * 2 * 2 + 2 * 2 * 7


def test_coincident_movers_are_singular():
    twin = UnitTriplet("twin", (MagnetSource((0.04, 0, 0), (0, 0, 0.128)),),
                       anchored_unit().track)
    topo = [anchored_unit(), twin]
    with pytest.raises(SingularConfigError, match="coincides"):
        ls.equilibrate_orientations(topo, ls.rest_positions(topo), None)


def test_duplicate_unit_ids_are_config_errors():
    topo = coupled_topology()
    topo[1] = dataclasses.replace(topo[1], id="a")
    for call in (lambda: ls.decisions_for_key(topo, None),
                 lambda: ls.sample_profile(topo, "a", None)):
        with pytest.raises(ConfigError, match="unique"):
            call()


def test_double_well_symmetric_equilibria():
    unit = double_well_unit()
    prof = ls.refine_equilibria(ls.sample_profile([unit], "c", None, 128))
    eqs = sorted(prof.equilibria, key=lambda e: e.position)
    assert len(eqs) == 3
    lo, mid, hi = eqs
    assert lo.stable and hi.stable and not mid.stable
    assert abs(mid.position) < 1e-9
    assert abs(lo.position + hi.position) < 2e-9
    for e in eqs:
        assert abs(_evaluate_at(prof, [e.position])[1][0]) < 1e-9
    dec = ls.decide(prof)
    assert dec.clazz == "bistable"
    assert dec.barrier_out > 0
    assert not dec.snap_through
    assert dec.inner_attractor == pytest.approx(lo.position, abs=1e-9)
    assert dec.outer_attractor == pytest.approx(hi.position, abs=1e-9)


def test_collapse_threshold_matches_hand_value():
    """Sweeping the opposing key across the kinked double well."""
    unit = collapse_unit()
    dec0 = ls.unit_decision([unit], "d", None)
    assert dec0.clazz == "bistable" and dec0.barrier_out > 0

    prof0 = ls.refine_equilibria(ls.sample_profile([unit], "d", None))
    crests = [e.position for e in prof0.equilibria if not e.stable]
    c = (0.128 / 0.02) ** (1.0 / 3.0)
    assert len(crests) == 1
    assert crests[0] == pytest.approx(0.042 * c / (1 + c), abs=1e-9)

    below = ls.unit_decision([unit], "d", FieldKey((0, 0, -1), 5e-3, "k"))
    assert below.clazz == "bistable"
    assert 0 < below.barrier_out < dec0.barrier_out

    above = ls.unit_decision([unit], "d", FieldKey((0, 0, -1), 15e-3, "k"))
    assert above.clazz == "monostable_outer"
    assert above.snap_through and above.driving_peak > 0

    lo, hi = 5e-3, 15e-3
    for _ in range(40):
        k = 0.5 * (lo + hi)
        d = ls.unit_decision([unit], "d", FieldKey((0, 0, -1), k, "k"))
        if d.snap_through:
            hi = k
        else:
            lo = k
    k_star = MU0 / (4 * np.pi) * 2 * (0.128 / 0.013**3 - 0.02 / 0.029**3)
    assert 0.5 * (lo + hi) == pytest.approx(k_star, abs=1e-9)


def test_margin_decreases_until_not_anchored():
    """Oblique opposing key: margin falls strictly, then the unit lets go.

    The sweep stays in the crestless regime where the minimum-restoring
    convention is artifact-free; the final magnitude flips the mover.
    """
    unit = anchored_unit()
    th = np.deg2rad(60.0)
    kdir = (np.sin(th), 0.0, -np.cos(th))
    margins = []
    for k in (0.0, 1e-3, 2e-3, 3e-3, 4e-3, 5e-3):
        key = FieldKey(kdir, k, "opp") if k else None
        margins.append(ls.unit_decision([unit], "a", key).anchoring_force)
    assert all(b < a for a, b in zip(margins, margins[1:]))
    assert ls.unit_decision([unit], "a", FieldKey(kdir, 30e-3, "opp")).anchoring_force is None


def test_orthogonal_key_degrades_but_keeps_anchor():
    unit = anchored_unit()
    margins = []
    for k in (0.0, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3):
        key = FieldKey((1, 0, 0), k, "orth") if k else None
        dec = ls.unit_decision([unit], "a", key)
        assert dec.clazz == "monostable_inner"
        margins.append(dec.anchoring_force)
    assert all(b < a for a, b in zip(margins, margins[1:]))


def test_target_under_driving_key_not_anchored():
    dec = ls.unit_decision([collapse_unit()], "d", FieldKey((0, 0, -1), 15e-3, "k"))
    assert dec.anchoring_force is None


def _synthetic_profile(u0, u1):
    xs = np.linspace(0.0, 0.01, 16)
    energy = np.linspace(u0, u1, 16)
    force = np.full(16, (u0 - u1) / 0.01)
    return LandscapeProfile("s", None, xs, energy, force)


def test_ejection_velocity_algebra():
    prof = _synthetic_profile(1e-3, 0.0)
    assert ls.ejection_velocity(prof, mass=0.5e-3) == pytest.approx(2.0, rel=1e-12)
    v = ls.ejection_velocity(prof, mass=0.5e-3, friction_force=0.05)
    assert v == pytest.approx(np.sqrt(2.0), rel=1e-12)
    with pytest.raises(EnergyBudgetError):
        ls.ejection_velocity(prof, mass=0.5e-3, friction_force=0.1)
    with pytest.raises(EnergyBudgetError):
        ls.ejection_velocity(prof, mass=0.5e-3, friction_force=0.2)
    with pytest.raises(ConfigError):
        ls.ejection_velocity(prof, mass=0.0)
    for friction in (float("nan"), float("inf"), "0.05", True, -0.05):
        with pytest.raises(ConfigError):
            ls.ejection_velocity(prof, mass=0.5e-3, friction_force=friction)


def test_ejection_velocity_uses_track_mass():
    unit = collapse_unit()
    prof = ls.sample_profile([unit], "d", FieldKey((0, 0, -1), 15e-3, "k"))
    v = ls.ejection_velocity(prof)
    drop = prof.energy[0] - prof.energy[-1]
    assert v == pytest.approx(np.sqrt(2 * drop / 1e-3), rel=1e-12)
    assert v > 0


def _decision(peak, snap=True):
    return LandscapeDecision(
        unit_id="u", key_label="k", clazz="monostable_outer", snap_through=snap,
        degenerate=False, barrier_out=0.0, anchoring_force=None,
        driving_peak=peak, inner_attractor=None, outer_attractor=0.01,
        force_at_inner_stop=peak,
    )


def _volume_unit(stator_dims, mover_dims):
    spec = MagnetSpec("block", stator_dims, 1.0, (0, 0, 1))
    stator = mag.source_from_spec(spec, (0, 0, -0.05))
    mover = MagnetSpec("block", mover_dims, 1.0, (0, 0, 1))
    track = MoverTrack((0, 0, 1), (0, 0, 0), (0.0, 0.01), mover, mass=1e-3)
    return UnitTriplet("u", (stator,), track)


def test_force_density_frozen_value():
    # 1.0 mm^3 stator + 0.4 mm^3 mover, 0.54 N peak -> 540/1.4 mN/mm^3
    topo = [_volume_unit((1e-3, 1e-3, 1e-3), (1e-3, 1e-3, 0.4e-3))]
    val = ls.force_density(topo, [_decision(0.54)])
    assert val == pytest.approx(540.0 / 1.4, rel=1e-12)
    doubled = [_volume_unit((2e-3, 1e-3, 1e-3), (1e-3, 1e-3, 0.8e-3))]
    assert ls.force_density(doubled, [_decision(0.54)]) == pytest.approx(
        val / 2, rel=1e-12
    )


def test_force_density_errors():
    topo = [_volume_unit((1e-3, 1e-3, 1e-3), (1e-3, 1e-3, 0.4e-3))]
    with pytest.raises(MaglogicError):
        ls.force_density(topo, [_decision(0.54, snap=False)])
    with pytest.raises(ConfigError):
        ls.force_density([], [_decision(0.54)])


def test_scale_covariance():
    topo = coupled_topology()
    key = FieldKey((0, 0, -1), 5e-3, "k")
    prof = ls.sample_profile(topo, "a", key, 64)
    margin = ls.unit_decision(topo, "a", key).anchoring_force
    for s in (0.5, 2.0, 3.4):
        scaled = ls.scale_topology(topo, s)
        prof_s = ls.sample_profile(scaled, "a", key, 64)
        np.testing.assert_allclose(
            prof_s.energy, s**3 * prof.energy, rtol=1e-9,
            atol=1e-9 * s**3 * np.abs(prof.energy).max(),
        )
        np.testing.assert_allclose(
            prof_s.force_axial, s**2 * prof.force_axial, rtol=1e-9,
            atol=1e-9 * s**2 * np.abs(prof.force_axial).max(),
        )
        assert ls.unit_decision(scaled, "a", key).anchoring_force == pytest.approx(
            s**2 * margin, rel=1e-9
        )
    with pytest.raises(ConfigError):
        ls.scale_topology(topo, 0.0)


def alpha_discretized():
    """The demo topology with alpha's stator split into 27 sub-dipoles."""
    return [dataclasses.replace(u, stators=tuple(
        mag.source_from_spec(s.spec, s.position, s.moment, discretize=3)
        for s in u.stators)) if u.id == "alpha" else u for u in pr.demo_topology()]


def split_unit():
    """``anchored_unit`` with its spec-less stator split into two
    half-moment dipoles 4 mm apart along its moment."""
    stator = MagnetSource((0, 0, 0), (0, 0, 0.128),
                          subdipoles=(((0, 0, -0.002), 0.5), ((0, 0, 0.002), 0.5)))
    return dataclasses.replace(anchored_unit(), stators=(stator,))


def test_scale_keeps_the_subdipoles_of_a_bare_stator():
    """A stator without a spec keeps its sub-dipoles, their offsets x s,
    so the scaled topology is the same model."""
    scaled = ls.scale_topology([split_unit()], 2.0)[0].stators[0]
    assert scaled == MagnetSource((0, 0, 0), (0, 0, 1.024),
                                  subdipoles=(((0, 0, -0.004), 0.5), ((0, 0, 0.004), 0.5)))


def test_ejection_velocity_scale_invariant():
    unit = collapse_unit()
    key = FieldKey((0, 0, -1), 15e-3, "k")
    v1 = ls.ejection_velocity(ls.sample_profile([unit], "d", key))
    for s in (0.5, 2.0, 3.4):
        scaled = ls.scale_topology([unit], s)
        vs = ls.ejection_velocity(ls.sample_profile(scaled, "d", key))
        assert vs == pytest.approx(v1, rel=1e-9)


def _set_geometry(topology, positions, key):
    """One orientation set of ``magnetics.equilibrium_directions``: mover
    centres, moment magnitudes, stator field plus key, track axes."""
    units = list(topology)
    pts = np.array([u.track.point(positions[u.id]) for u in units])
    base = np.zeros_like(pts)
    for s in (s for u in units for s in u.stators):
        base = base + mag.dipole_field(s.dipole_positions(), s.dipole_moments(), pts)
    if key is not None:
        base = base + key.vector
    return (pts, np.array([u.track.mover_moment_mag() for u in units]), base,
            np.array([u.track.axis for u in units]))


def _set_lengths(monkeypatch, sets):
    """Iterations of a one-set solve of each set, as in :func:`_solve_lengths`."""
    calls = []
    terms = mag._field_terms
    monkeypatch.setattr(mag, "_field_terms", lambda *a: calls.append(a) or terms(*a))
    lengths = []
    for one in sets:
        calls.clear()
        mag.equilibrium_directions(*(a[None] for a in one))
        lengths.append(len(calls))
    monkeypatch.undo()
    return lengths


def test_per_set_orientation_solve_matches_one_solve_per_set(monkeypatch):
    """Bit for bit: sets from several topologies, keys and mover positions
    solved together get their one-set solves, past the damping switch and
    with a mover in exactly zero field."""
    pair, coupled = strongly_coupled_pair(), coupled_topology()
    mid = {u.id: 0.002 for u in pair}
    sets = [_set_geometry(pair, ls.rest_positions(pair), k) for k in _PAIR_KEYS]
    sets += [_set_geometry(pair, mid, None), _set_geometry(pair, mid, _STUCK)]
    sets += [_set_geometry(coupled, ls.rest_positions(coupled), k)
             for k in (None, FieldKey((0, 1, 0), 8e-3, "k"))]
    # mover 0 in zero field: no base field and a mover 1 of zero moment
    zero_pts, _, zero_base, zero_axes = sets[-1]
    zero_base = zero_base.copy()
    zero_base[0] = 0.0
    sets.append((zero_pts, np.array([M_MOVER, 0.0]), zero_base, zero_axes))
    lengths = _set_lengths(monkeypatch, sets)
    assert max(lengths) > 101 and min(lengths) < 100  # damped and undamped
    together = mag.equilibrium_directions(*(np.stack(a) for a in zip(*sets)))
    assert together.shape == (len(sets), 2, 3)
    for s, one in enumerate(sets):
        assert np.array_equal(together[s], mag.equilibrium_directions(*(a[None] for a in one))[0])
    assert np.array_equal(together[-1, 0], zero_axes[0])  # the zero-field rule
    assert not np.array_equal(together[-1, 1], zero_axes[1])
    # one set that never settles fails the whole solve
    stuck = _set_geometry(pair, ls.rest_positions(pair), _STUCK)
    with pytest.raises(MaglogicError, match="did not converge"):
        mag.equilibrium_directions(*(np.stack(a) for a in zip(*sets, stuck)))


def test_batch_orientations_match_one_topology_at_a_time():
    """The per-row stator field over several topologies keeps each
    topology's shared-source bits, so every (topology, key) direction
    equals its one-topology solve."""
    pair, coupled = strongly_coupled_pair(), coupled_topology()
    shifted = [dataclasses.replace(u, stators=(MagnetSource(
        np.asarray(u.stators[0].position) + (0.0, 0.003, 0.0), u.stators[0].moment),))
        for u in pair]
    topologies = [pair, coupled, shifted]
    assert len({ls._shape(t) for t in topologies}) == 1
    positions = [ls.rest_positions(pair), {"a": 0.017, "u2": 0.021}, {"m0": 0.001, "m1": 0.003}]
    keys = [*_PAIR_KEYS[:4], None]
    kvecs = ls._key_vectors(keys)
    pts, mags, dirs = ls._batch_orientations(topologies, positions, kvecs)
    assert dirs.shape == (3, len(keys), 2, 3)
    for t, (topo, p) in enumerate(zip(topologies, positions)):
        one_pts, one_mags, one_dirs = (
            a[0] for a in ls._batch_orientations([topo], [p], kvecs))
        assert np.array_equal(pts[t], one_pts) and np.array_equal(mags[t], one_mags)
        assert np.array_equal(dirs[t], one_dirs)


def test_no_key_is_the_zero_key():
    """A missing key is the zero field: under no key and under a
    zero-magnitude key every demo unit's profile has the same bytes (so
    the same signed zeros, which ``array_equal`` would not tell apart), and
    every decision the same fields but its key label."""
    demo = pr.demo_topology()
    zero = FieldKey((1, 0, 0), 0.0, "zero")
    for u in demo:
        bare, zeroed = (ls.sample_profile(demo, u.id, key) for key in (None, zero))
        assert bare.energy.tobytes() == zeroed.energy.tobytes()
        assert bare.force_axial.tobytes() == zeroed.force_axial.tobytes()
    bare, zeroed = ls.decisions_for_keys(demo, [None, zero])
    assert {uid: d.key_label for uid, d in bare.items()} == {u.id: "" for u in demo}
    assert {uid: dataclasses.replace(d, key_label="zero") for uid, d in bare.items()} == zeroed


def test_stator_field_keeps_the_per_stator_bits(monkeypatch):
    """The set-up's one kernel call over every stator dipole gives the
    fixed field of summing stator by stator from zeros
    (``_set_geometry``) byte for byte, signed zeros included: for point
    dipoles, a stator whose field across the track is -0.0, opposed
    stators whose fields cancel and a discretized first stator."""
    fields = []
    solve = mag.equilibrium_directions
    monkeypatch.setattr(mag, "equilibrium_directions",
                        lambda *a: fields.append(a[2]) or solve(*a))
    for topo in (pr.demo_topology(), alpha_discretized(), [outward_unit()],
                 [collapse_unit()], [_zero_field_unit()], coupled_topology()):
        positions = ls.rest_positions(topo)
        for key in (None, *pr.demo_keys()):
            ls.equilibrate_orientations(topo, positions, key)
            assert fields.pop()[0].tobytes() == _set_geometry(topo, positions, key)[2].tobytes()


def test_decisions_for_topologies_match_one_topology_at_a_time():
    pair, coupled = strongly_coupled_pair(), coupled_topology()
    keys = [None, FieldKey((0, 1, 0), 8e-3, "k"), FieldKey((1, 0, 0), 0.02, "x")]
    together = ls._decisions_for_topologies([pair, coupled, pair], keys, 64)
    assert together == [ls.decisions_for_keys(t, keys, 64) for t in (pair, coupled, pair)]
    assert ls._decisions_for_topologies([pair, coupled], [], 64) == [[], []]
    assert ls._decisions_for_topologies([], keys) == []
    with pytest.raises(MaglogicError, match="one shape"):
        ls._decisions_for_topologies([pair, pr.demo_topology()], keys)


def _padded(unit, n=2):
    """``unit`` with far, weak stators added up to ``n`` stators, so that
    profiles of different units stack (one fixed-dipole count)."""
    far = tuple(MagnetSource((0, 1e3 * (j + 1), 0), (0, 0, 1e-6))
                for j in range(n - len(unit.stators)))
    return dataclasses.replace(unit, stators=unit.stators + far)


def test_one_engine_call_takes_every_branch():
    """One ``_decide_all`` call on profiles of every branch decides each
    as ``decide`` does on that profile alone."""
    free = _padded(UnitTriplet("free", (), MoverTrack((0, 0, 1), (0, 0, 0), (0.0, 0.01),
                                                      MOVER, mass=1e-3)))
    stop = ls.sample_profile([_padded(anchored_unit())], "a", None)
    # a crest 1.005e-12 m past the inner stop: a basin narrower than 1e-12
    # once its crest end is trimmed
    narrow = dataclasses.replace(stop, equilibria=(
        ls.Equilibrium(stop.x_in + 1.005e-12, False),))
    collapse = ls.sample_profile([collapse_unit()], "d", None)
    profiles = [
        ls.sample_profile([free], "free", None),  # degenerate
        ls.refine_equilibria(collapse),  # refined beforehand
        ls.sample_profile([_padded(outward_unit())], "b", None),  # snap-through
        ls.sample_profile([double_well_unit()], "c", None),  # bistable
        collapse,  # anchored with a crest
        stop,  # crestless, pressed against the inner stop
        narrow,
    ]
    got = ls._decide_all(profiles)
    assert got == [ls.decide(p) for p in profiles]
    degenerate, refined, snap, bistable, crest, crestless, thin = got
    assert degenerate.degenerate and not any(d.degenerate for d in got[1:])
    assert refined == crest and crest.barrier_out > 0 and crest.anchoring_force > 0
    assert any(not e.stable and e.position > crest.inner_attractor
               for e in profiles[1].equilibria)
    assert snap.snap_through and snap.anchoring_force is None
    assert bistable.clazz == "bistable"
    assert crestless.inner_attractor == stop.x_in and crestless.anchoring_force > 0
    assert thin.inner_attractor == stop.x_in and thin.anchoring_force == 0.0


def test_decide_and_refine_raise_without_the_evaluation_context():
    flat = UnitTriplet("free", (), MoverTrack((0, 0, 1), (0, 0, 0), (0.0, 0.01),
                                              MOVER, mass=1e-3))
    for unit, uid in ((anchored_unit(), "a"), (outward_unit(), "b"), (flat, "free")):
        bare = dataclasses.replace(ls.sample_profile([unit], uid, None), _args=None)
        for call in (ls.decide, ls.refine_equilibria):
            with pytest.raises(MaglogicError, match="^profile lost its evaluation context$"):
                call(bare)
    assert ls.decide(ls.sample_profile([flat], "free", None)).degenerate


def _run_machine(machine, force):
    """Drive a one-point reference generator on the force law ``force``;
    return its result and every list of points it asked for."""
    asks, reply = [], None
    while True:
        try:
            xs = machine.send(reply)
        except StopIteration as done:
            return done.value, asks
        asks.append(list(xs))
        reply = (np.zeros(len(xs)), np.array([force(x) for x in xs]))


def _recording_at(*laws):
    """An ``at(which, xs)`` of the root finders on the force laws ``laws``,
    row ``which[i]`` under ``laws[which[i]]``, every energy zero, and the
    list it records each call in: a dict of the points of each row."""
    calls = []

    def at(which, xs):
        rows = list(zip(np.asarray(which).tolist(), xs.tolist()))
        calls.append({})
        for i, row in rows:
            calls[-1].setdefault(i, []).extend(row)
        force = [[laws[i](x) for x in row] for i, row in rows]
        return np.zeros(xs.shape), np.array(force, dtype=float).reshape(xs.shape)

    return at, calls


def _bisect_one(a, b, fa):
    """``_bisect`` on the one equilibrium bracket [a, b], F(a) = fa."""
    return lambda at: ls._bisect(at, np.array([0]), np.array([a]), np.array([b]),
                                 np.array([fa > 0]), 200, False)


def _polish_one(x0, lo_cap, hi_cap):
    """``_polish`` of the one start point x0 inside [lo_cap, hi_cap]."""
    return lambda at: ls._polish(at, np.array([0]), np.array([x0]),
                                 np.array([lo_cap]), np.array([hi_cap]))


def _run(run, force):
    """Run a root finder on one bracket on the force law ``force``; return
    its root and the points of each ``at`` call."""
    at, calls = _recording_at(force)
    return run(at)[0], [call[0] for call in calls]


def test_polish_root_falls_back_to_its_start_point():
    # a sign change in reach: polished to the root
    root, _ = _run(_polish_one(0.5, 0.4, 0.6), lambda x: x - 0.5003)
    assert root == pytest.approx(0.5003, abs=1e-15)
    # no sign change up to both caps: the start point, after asking for the caps
    x0, asks = _run(_polish_one(0.5, 0.4, 0.6), lambda x: 1.0)
    assert x0 == 0.5 and asks[-1] == [0.4, 0.6] and len(asks) < 60
    # no sign change within 60 widenings of a bracket that never reaches
    # the caps: the start point too
    x0, asks = _run(_polish_one(0.5, -1e300, 1e300), lambda x: -1.0)
    assert x0 == 0.5 and len(asks) == 60
    assert asks[-1][0] > -1e300 and asks[-1][1] < 1e300


def test_zero_field_first_grid_row_takes_the_track_axis():
    """A grid whose first row sits in zero field gives it the track axis,
    as a root-finding row there gets; the rows after it keep their own field."""
    unit = _zero_field_unit()
    unit = dataclasses.replace(
        unit, track=dataclasses.replace(unit.track, stroke=(0.015, 0.021)))
    prof = ls.sample_profile([unit], "z", None, 64)
    assert prof.xs[0] == 0.015
    assert prof.force_axial[0] == pytest.approx(0.73728, rel=1e-9)
    row = ls._evaluate_groups(ls._stack([prof] * 2), np.array([0, 1]),
                              np.array([[0.015], [prof.xs[1]]]))[1][:, 0]
    assert row[0] == pytest.approx(0.73728, rel=1e-9)
    assert row[1] == pytest.approx(prof.force_axial[1], rel=1e-12)


# ---------------------------------------------------------------------------
# frozen one-point root finders
# ---------------------------------------------------------------------------
# The equilibrium bisection and the polish as one-point loops, one midpoint
# per step, kept verbatim from before the tree walk: ``_bisect`` and
# ``_polish`` must return their roots bit for bit.


def ref_bisect(a, b, fa):
    if fa == 0.0:
        return a
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = float((yield [m])[1][0])
        if (fm > 0) == (fa > 0):
            a, fa = m, fm
        else:
            b = m
        if b - a < ls.EQUILIBRIUM_XTOL and abs(fm) < 1e-10:
            break
        if b - a < 1e-14:
            break
    return 0.5 * (a + b)


def ref_polish_root(x0, lo_cap, hi_cap):
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


def assert_asks_match_reference(asks, want_asks):
    """Every point the reference asks for is asked for, the widening pairs
    of ``_polish`` alike, and its midpoints in at most one pass per
    BISECT_LEVELS of them (and the pass after a float-resolution stop);
    returns the reference's midpoint count."""
    assert {x for xs in want_asks for x in xs} <= {x for xs in asks for x in xs}
    widenings = sum(len(xs) == 2 for xs in want_asks)
    assert asks[:widenings] == want_asks[:widenings]
    midpoints = len(want_asks) - widenings
    assert len(asks) - widenings <= -(-(midpoints + 1) // ls.BISECT_LEVELS)
    return midpoints


def assert_tree_matches_reference(run, reference, force):
    """Equal roots and :func:`assert_asks_match_reference`; returns the
    reference's midpoint count."""
    root, asks = _run(run, force)
    want, want_asks = _run_machine(reference, force)
    assert root == want
    return assert_asks_match_reference(asks, want_asks)


_LAW = st.sampled_from(["linear", "cubic", "step", "tanh"])


def _force_law(kind, root, slope):
    if kind == "linear":
        return lambda x: slope * (x - root)
    if kind == "cubic":
        return lambda x: slope * (x - root) ** 3
    if kind == "step":  # no zero: the sign flips between adjacent floats
        return lambda x: slope if x > root else -slope
    return lambda x: slope * np.tanh((x - root) / 1e-6)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_LAW, st.floats(0.0, 1.0), st.floats(1e-12, 1e6),
       st.booleans(), st.floats(0.0, 0.02), st.floats(1e-6, 0.05))
def test_tree_machines_match_one_point_reference(kind, where, slope, flip, a, width):
    b = a + width
    root = a + where * width
    force = _force_law(kind, root, -slope if flip else slope)
    # F(a) == 0 (root at a) walks with the sign test F(a) > 0 False, as a
    # polish bracket does; the equilibrium search gives such a bracket a
    # itself before any bisection (test_tree_bisect_edge_cases)
    assert_tree_matches_reference(_bisect_one(a, b, force(a)),
                                  ref_bisect(a, b, force(a) or -1.0), force)
    for x0 in (root, a + 0.5 * width, root + 3e-9):
        assert_tree_matches_reference(_polish_one(x0, a, b), ref_polish_root(x0, a, b), force)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.lists(st.tuples(_LAW, st.floats(0.0, 1.0), st.floats(1e-12, 1e6), st.booleans(),
                          st.floats(0.0, 0.02), st.floats(1e-6, 0.05), st.booleans()),
                min_size=2, max_size=8))
@example([("linear", 0.5, 1.0, False, 0.01, 0.01, True),
          ("tanh", 0.3, 2.0, True, 0.0, 0.02, True),
          ("cubic", 0.7, 3.0, False, 0.005, 1e-5, False),
          ("step", 0.2, 1e-12, True, 0.0, 0.05, True)])
def test_brackets_in_one_call_match_each_alone(brackets):
    """2 to 8 brackets under mixed force laws in one ``_bisect`` and one
    ``_polish`` call: each root has the bits of its one-point reference
    run alone, and each bracket is asked what that run asks. A bracket
    drawn with ``zero`` has its root at a, so F(a) == 0 under every law
    but the step law; its polish starts 3e-9 above a with a as its lower
    cap, so the first widening's lower end is that zero."""
    laws, bisects, polishes = [], [], []
    for kind, where, slope, flip, a, width, zero in brackets:
        root = a if zero else a + where * width
        laws.append(_force_law(kind, root, -slope if flip else slope))
        bisects.append((a, a + width, laws[-1](a)))
        polishes.append((root + 3e-9 if zero else a + 0.5 * width, a, a + width))
    rows = np.arange(len(laws))
    at, calls = _recording_at(*laws)
    a, b, fa = map(np.array, zip(*bisects))
    roots = ls._bisect(at, rows, a, b, fa > 0, 200, False)
    for i, (a, b, fa) in enumerate(bisects):
        # F(a) == 0 as in test_tree_machines_match_one_point_reference
        want, want_asks = _run_machine(ref_bisect(a, b, fa or -1.0), laws[i])
        assert float(roots[i]).hex() == float(want).hex()
        assert_asks_match_reference([c[i] for c in calls if i in c], want_asks)
    at, calls = _recording_at(*laws)
    x0, lo_cap, hi_cap = map(np.array, zip(*polishes))
    roots = ls._polish(at, rows, x0, lo_cap, hi_cap)
    for i, (x0, lo_cap, hi_cap) in enumerate(polishes):
        want, want_asks = _run_machine(ref_polish_root(x0, lo_cap, hi_cap), laws[i])
        assert float(roots[i]).hex() == float(want).hex()
        assert_asks_match_reference([c[i] for c in calls if i in c], want_asks)


def test_tree_bisect_edge_cases():
    # the force is exactly 0.0 at a midpoint of the first and of a deeper
    # level, from either sign of F(a)
    for root in (0.5, 0.375, 0.6875):
        for sign in (1.0, -1.0):
            def force(x, root=root, sign=sign):
                return sign * (x - root)
            assert force(root) == 0.0
            assert_tree_matches_reference(_bisect_one(0.0, 1.0, force(0.0)),
                                          ref_bisect(0.0, 1.0, force(0.0)), force)
    # F(a) == 0: a itself, with no bisection; the one call is the
    # stability triple
    prof = LandscapeProfile("s", None, np.array([0.25, 1.0]), np.zeros(2),
                            np.array([0.0, 1.0]))
    at, calls = _recording_at(lambda x: 1.0)
    assert ls._equilibria(at, [prof], [0]) == [(ls.Equilibrium(0.25, False),)]
    assert calls == [{0: [0.25, 0.25, 0.25 + 7.5e-6]}]

    def steep(x):
        return 1e6 * (x - 0.3)

    # the 1e-14 stop: |F| never falls below 1e-10
    assert assert_tree_matches_reference(
        _bisect_one(0.0, 1.0, steep(0.0)), ref_bisect(0.0, 1.0, steep(0.0)), steep) == 47
    # the 200-step cap: 2e50 / 2**200 is still wider than 1e-14
    assert assert_tree_matches_reference(
        _bisect_one(-1e50, 1e50, steep(-1e50)), ref_bisect(-1e50, 1e50, steep(-1e50)),
        steep) == 200

    # the 1e-14 stop one level before the cap, at the cap, and the cap alone
    def stiff(x):
        return 1e6 * x

    for k, midpoints in ((197, 198), (198, 199), (199, 200), (200, 200)):
        w = 1.5e-14 * 2.0 ** k
        assert assert_tree_matches_reference(
            _bisect_one(-0.3 * w, 0.7 * w, -1.0), ref_bisect(-0.3 * w, 0.7 * w, -1.0),
            stiff) == midpoints


def test_tree_polish_edge_cases():
    # roots near 0, where floats are dense: the float-resolution stop comes
    # after 80 to 89 midpoints, and the 90 cap stops the rest (one of them
    # a root whose resolution stop falls on the cap)
    counts = set()
    for e in range(55, 75):
        root = 2.0 ** -e

        def force(x, root=root):
            return x - root

        counts.add(assert_tree_matches_reference(
            _polish_one(0.0, -1.0, 1.0), ref_polish_root(0.0, -1.0, 1.0), force))
    assert counts == set(range(80, 91))
    # the 90 cap far from the float resolution
    assert assert_tree_matches_reference(
        _polish_one(0.0, -1.0, 1.0), ref_polish_root(0.0, -1.0, 1.0),
        lambda x: x - 1e-300) == 90
    # an exact zero at a midpoint, and a wider bracket after widening
    for force in (lambda x: x - 0.5, lambda x: 0.5 - x, lambda x: x - (0.5 + 1e-6)):
        for x0 in (0.5, 0.5 + 1e-7):
            root, asks = _run(_polish_one(x0, 0.4, 0.6), force)
            want, want_asks = _run_machine(ref_polish_root(x0, 0.4, 0.6), force)
            assert root == want
            assert {x for xs in want_asks for x in xs} <= {x for xs in asks for x in xs}


# ---------------------------------------------------------------------------
# grouped grids
# ---------------------------------------------------------------------------


def test_grouped_profile_grids_equal_sample_profile(monkeypatch):
    """The grids of every (key, unit) of an engine call are grouped into
    calls of at most GROUP_PAIRS (fixed dipole x point) pairs; each equals
    that unit's own ``sample_profile`` bit for bit."""
    demo = pr.demo_topology()
    keys = [*pr.demo_keys(), None, FieldKey((0.6, 0.0, 0.8), 0.012, "tilt")]
    positions = {"beta": 0.5 * sum(demo[1].track.stroke)}
    calls = []
    original = ls._evaluate

    def spy(*args):
        calls.append(args[-1].shape)
        return original(*args)

    with monkeypatch.context() as patch:
        patch.setattr(ls, "_evaluate", spy)
        profiles = ls._batch_profiles([demo], range(len(demo)), keys, ls.DEFAULT_SAMPLES,
                                      [ls._latched_positions(demo, 256, positions)])
    per_call = mag.GROUP_PAIRS // (5 * ls.DEFAULT_SAMPLES)  # 3 stators, 2 movers
    groups = len(demo) * len(keys)
    assert 1 < per_call < groups
    assert calls == [(min(per_call, groups - at), ls.DEFAULT_SAMPLES)
                     for at in range(0, groups, per_call)]
    for prof in profiles:
        one = ls.sample_profile(demo, prof.unit_id, prof.key, mover_positions=positions)
        for name in ("xs", "energy", "force_axial"):
            assert np.array_equal(getattr(prof, name), getattr(one, name))
        for got, want in zip(prof._args, one._args):
            assert np.array_equal(got, want) and got.shape == want.shape


def test_batch_profiles_of_many_topologies_equal_sample_profile():
    """One ``_batch_profiles`` call over several topologies of one shape
    builds every (topology, key, target) grid and ``_evaluate`` row with
    array operations; each profile equals that unit's own
    ``sample_profile`` bit for bit: sub-dipole stators, a unit without
    stators, a None key, latched movers and a subset of the targets, in
    an order of their own; topologies without any stator; and a stroke so
    short that its grid step underflows, next to a unit of the demo."""
    free = UnitTriplet("free", (), MoverTrack((0, 0, 1), (0, -0.03, 0), (0.0, 0.01),
                                              MOVER, mass=1e-3))
    base = [*alpha_discretized(), free]
    keys = [pr.demo_keys()[0], None, FieldKey((0.6, 0.0, 0.8), 0.012, "tilt")]
    bare = pr.degenerate_array()
    tiny = dataclasses.replace(free, track=dataclasses.replace(free.track, stroke=(0.0, 1e-322)))
    for topologies, targets, latched in (
            ([ls.scale_topology(base, s) for s in (1.0, 1.25, 0.8)], [3, 0],
             lambda units: {"beta": 0.5 * sum(units[1].track.stroke),
                            "free": units[3].track.stroke[1]}),
            ([bare, ls.scale_topology(bare, 1.5)], range(len(bare)),
             lambda units: {units[0].id: units[0].track.stroke[1]}),
            ([[pr.demo_topology()[0], tiny]], [0, 1], lambda units: {})):
        assert len({ls._shape(units) for units in topologies}) == 1
        positions = [latched(units) for units in topologies]
        profiles = iter(ls._batch_profiles(
            topologies, targets, keys, 64,
            [ls._latched_positions(units, 64, p) for units, p in zip(topologies, positions)]))
        for units, p in zip(topologies, positions):
            for key in keys:
                for t in targets:
                    prof = next(profiles)
                    one = ls.sample_profile(units, units[t].id, key, 64, p)
                    assert (prof.unit_id, prof.key, prof.track) == (one.unit_id, key, one.track)
                    for name in ("xs", "energy", "force_axial"):
                        assert np.array_equal(getattr(prof, name), getattr(one, name))
                    assert len(prof._args) == len(one._args)
                    for got, want in zip(prof._args, one._args):
                        assert np.array_equal(got, want) and got.shape == want.shape
        assert next(profiles, None) is None


def test_a_profile_past_the_kept_buffer_leaves_it_bounded(monkeypatch):
    """A 100,000-sample demo profile is one kernel call that needs about
    60 MiB of scratch: it computes in a buffer of its own, the kept buffer
    stays within 20 * KEPT_PAIRS doubles, and the profile has the bits of
    the one computed in a kept buffer with the limit raised."""
    demo, key = pr.demo_topology(), pr.demo_keys()[0]
    monkeypatch.setattr(mag, "_buffer", np.empty(0))
    bounded = ls.sample_profile(demo, "alpha", key, 100_000)
    # the kept bound (5 MiB), plus the alignment slack
    assert mag._buffer.size <= 20 * mag.KEPT_PAIRS + 7
    monkeypatch.setattr(mag, "KEPT_PAIRS", 5 * 100_000)  # 3 stators, 2 movers
    kept = ls.sample_profile(demo, "alpha", key, 100_000)
    assert mag._buffer.size >= 14 * 5 * 100_000  # the call's buffer was kept
    for name in ("xs", "energy", "force_axial"):
        assert np.array_equal(getattr(bounded, name), getattr(kept, name))


def test_evaluate_results_outlive_the_next_call():
    """``_evaluate`` returns arrays of its own, not views of the kernel's
    scratch buffer, in which it makes its points, norms, moments and
    force: a later call of another shape leaves them unchanged."""
    keyed, bare = _batches()[-1]
    energy, force = ls._evaluate(*ls._stack([keyed, bare]),
                                 np.array([[0.013, 0.017, 0.021], [0.015, 0.016, 0.017]]))
    assert not np.shares_memory(energy, mag._buffer)
    assert not np.shares_memory(force, mag._buffer)
    kept = energy.copy(), force.copy()
    demo = _batches()[0]
    ls._evaluate(*ls._stack(demo[:4]),
                 np.array([np.linspace(*p.track.stroke, 300) for p in demo[:4]]))
    assert np.array_equal(energy, kept[0]) and np.array_equal(force, kept[1])
    assert not np.shares_memory(energy, mag._buffer)
    assert not np.shares_memory(force, mag._buffer)


def test_no_kernel_call_passes_the_cap_unless_one_grid_does(monkeypatch):
    """Every ``_evaluate`` call of an engine call, profile grids, basin
    grids and root-finding rows, holds at most GROUP_PAIRS (fixed dipole x
    point) pairs or one group. At 3000 pairs a demo basin grid (5 x 1025)
    is a call of its own and two profile grids (5 x 256) share one."""
    demo = pr.demo_topology()
    keys = [*pr.demo_keys(), None, FieldKey((0.6, 0.0, 0.8), 0.012, "tilt")]
    want = ls.decisions_for_keys(demo, keys)
    original = ls._evaluate
    for cap in (mag.GROUP_PAIRS, 3000):
        shapes = []

        def spy(*args):
            shapes.append((*args[-1].shape, args[3].shape[1]))
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(ls, "_evaluate", spy)
            patch.setattr(mag, "GROUP_PAIRS", cap)
            assert ls.decisions_for_keys(demo, keys) == want
        assert all(g * n * k <= cap or g == 1 for g, n, k in shapes)
        grids = {n: max(g for g, m, _ in shapes if m == n) for _, n, _ in shapes}
        assert grids[ls.DEFAULT_SAMPLES] == cap // (5 * ls.DEFAULT_SAMPLES)
        assert grids[ls._BASIN_GRID] == max(1, cap // (5 * ls._BASIN_GRID))


def test_zero_field_rule_stays_inside_each_group():
    """A group whose first row sits in zero field takes its own track axis,
    not the direction of the previous group's last row."""
    keyed, bare = _batches()[-1]
    xs = np.array([[0.013, 0.017, 0.021], [0.015, 0.016, 0.017]])
    energy, force = ls._evaluate(*ls._stack([keyed, bare]), xs)
    for g, prof in enumerate((keyed, bare)):
        want_energy, want_force = _evaluate_at(prof, xs[g])
        assert np.array_equal(energy[g], want_energy)
        assert np.array_equal(force[g], want_force)
    assert force[1, 0] == _evaluate_at(bare, [0.015])[1][0] != 0.0
    # within a group the zero-field row continues the row before it
    energy, force = ls._evaluate(*ls._stack([bare]), np.array([[0.013, 0.015]]))
    assert force[0, 1] == pytest.approx(-0.73728, rel=1e-9)


def _composed_evaluate(origin, axis, m_mag, pos, m, key, const, xs):
    """The evaluator as a ``dipole_field`` call and then a ``dipole_forces``
    call on C-ordered (G, n, 3) arrays, kept from before the fused pass as
    the reference it must match bit for bit; a missing key is the zero
    key, added like any other."""
    n_groups, n = xs.shape
    pts = origin[:, None, :] + xs[..., None] * axis[:, None, :]
    B = mag.dipole_field(pos, m, pts)
    B += key[:, None, :]
    norms = np.linalg.norm(B, axis=-1)
    ok = norms > 1e-30
    u_dirs = np.empty_like(B)
    np.divide(B, norms[..., None], out=u_dirs, where=ok[..., None])
    if not ok.all():
        u_dirs[~ok] = np.broadcast_to(axis[:, None, :], B.shape)[~ok]
        prev = np.maximum.accumulate(np.where(ok, np.arange(n), -1), axis=1)
        fill = ~ok & (prev >= 0)
        u_dirs[fill] = u_dirs[np.nonzero(fill)[0], prev[fill]]
    moments = m_mag[:, None, None] * u_dirs
    energy = const[:, None] - np.einsum(
        "nc,nc->n", moments.reshape(-1, 3), B.reshape(-1, 3)).reshape(n_groups, n)
    force = mag.dipole_forces(pos, m, pts, moments)
    return energy, np.matmul(force, axis[:, :, None])[..., 0]


def _assert_fused_is_composed(args, xs):
    for got, want in zip(ls._evaluate(*args, xs), _composed_evaluate(*args, xs)):
        assert got.shape == want.shape == xs.shape
        assert np.array_equal(got, want)


def test_fused_evaluator_matches_the_composed_kernels():
    """Bit for bit on every batch topology: a 1025-point basin grid, three
    256-point profile grids and a 60-row root-finding pass, then zero-field
    rows first in a group and later in one."""
    rng = np.random.default_rng(16)
    for profs in _batches():
        stacked = ls._stack(profs)
        strokes = np.array([p.track.stroke for p in profs])
        for n_groups, n in ((1, ls._BASIN_GRID), (3, ls.DEFAULT_SAMPLES), (60, 1)):
            rows = rng.integers(0, len(profs), n_groups)
            xs = np.array([np.linspace(*strokes[i], n) if n > 1
                           else [rng.uniform(*strokes[i])] for i in rows])
            _assert_fused_is_composed([a[rows] for a in stacked], xs)
    keyed, bare = _batches()[-1]
    _assert_fused_is_composed(ls._stack([keyed, bare]),
                              np.array([[0.015, 0.016, 0.015], [0.015, 0.013, 0.015]]))
    _assert_fused_is_composed(ls._stack([bare, keyed, bare]), np.full((3, 1), 0.015))


def test_fused_evaluator_raises_the_field_coincidence_first():
    _, bare = _batches()[-1]
    args = [a.copy() for a in ls._stack([bare])]
    origin, axis, pos = args[0], args[1], args[3]
    pos[0, 1] = origin[0] + 0.014 * axis[0]
    for evaluate in (ls._evaluate, _composed_evaluate):
        with pytest.raises(SingularConfigError, match="^field point coincides with a dipole$"):
            evaluate(*args, np.array([[0.013, 0.014]]))


def test_fused_evaluator_far_sources_without_warnings():
    """Fixed dipoles 1e80 m and 1e120 m away exert exactly zero force and
    raise no RuntimeWarning; the energy is the composed kernels'."""
    _, bare = _batches()[-1]
    xs = np.array([[0.013, 0.015, 0.021]])
    for distance in (1e80, 1e120):
        args = [a.copy() for a in ls._stack([bare])]
        args[3][:] = (0.0, 0.0, distance)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            energy, force = ls._evaluate(*args, xs)
        assert np.array_equal(force, np.zeros_like(xs))
        assert np.array_equal(energy, _composed_evaluate(*args, xs)[0])


_SCALED = {
    "demo": pr.demo_topology,
    "pair": pr.pair_orthogonal,
    "demo_discretized": alpha_discretized,  # a spec'd stator with sub-dipoles
    "split": lambda: [split_unit()],  # a stator with sub-dipoles and no spec
}


@pytest.mark.parametrize("name", sorted(_SCALED))
@settings(derandomize=True, deadline=None, max_examples=10)
@given(s=st.floats(0.5, 4.0))
def test_scale_covariance_of_every_profile(name, s):
    """Lengths x s: forces x s^2 and energies x s^3 at corresponding
    samples, for every unit under every demo key and no key."""
    topo = _SCALED[name]()
    keys = [*pr.demo_keys(), None]

    def profiles(units):
        return ls._batch_profiles([units], range(len(units)), keys, 64,
                                  [ls.rest_positions(units)])

    for prof, prof_s in zip(profiles(topo), profiles(ls.scale_topology(topo, s))):
        np.testing.assert_allclose(prof_s.xs, s * prof.xs, rtol=1e-12)
        for got, want, power in ((prof_s.energy, prof.energy, 3),
                                 (prof_s.force_axial, prof.force_axial, 2)):
            np.testing.assert_allclose(got, s**power * want, rtol=1e-9,
                                       atol=1e-9 * s**power * np.abs(want).max())


# ---------------------------------------------------------------------------
# frozen attractor rule
# ---------------------------------------------------------------------------
# ``_attractor_from`` as it stood with one branch per stop, kept verbatim:
# the one walk on reversed arrays must return the same attractor, bit for
# bit, on the edge cases the shipped profiles never reach.


def _two_branch_attractor_from(side_inner: bool, profile: LandscapeProfile):
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
        if abs(F[i]) > ls.FORCE_EPS:
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


def test_attractor_walk_matches_the_two_branch_rule():
    """Seeded synthetic profiles: exact zeros (of both signs) and forces
    at, just above and just below FORCE_EPS; equilibria None, empty,
    all unstable, or mixed, at sample points, between them and past the
    stops. Both stops give the reference's attractor, type and bits."""
    rng = np.random.default_rng(17)
    eps = ls.FORCE_EPS
    near = [0.0, -0.0, eps, np.nextafter(eps, 0.0), np.nextafter(eps, 1.0), 2 * eps, 1e-3]
    forces = np.array(near + [-f for f in near])
    kinds = {"none": 0, "empty": 0, "unstable": 0, "mixed": 0}
    outcomes = set()
    for _ in range(3000):
        n = int(rng.integers(2, 10))
        xs = np.sort(rng.choice(np.round(rng.uniform(0.0, 0.01, 12), 4), n))
        F = rng.choice(forces, n)
        if rng.random() < 0.5:
            F[: int(rng.integers(0, n + 1))] = 0.0  # a flat run from the inner stop
        kind = rng.choice(sorted(kinds))
        kinds[kind] += 1
        eqs = None
        if kind != "none":
            spots = np.concatenate([xs, rng.uniform(-0.001, 0.011, 3)])
            eqs = tuple(ls.Equilibrium(float(x), kind == "mixed" and bool(rng.random() < 0.6))
                        for x in np.sort(rng.choice(spots, 0 if kind == "empty" else 4)))
        prof = LandscapeProfile("s", None, xs, np.zeros(n), F, eqs)
        for side in (True, False):
            got = ls._attractor_from(side, prof, eqs or ())
            want = _two_branch_attractor_from(side, prof)
            assert repr(got) == repr(want), (side, xs, F, eqs)
            outcomes.add((side, "stop" if got == (xs[0] if side else xs[-1])
                          else "other" if got == (xs[-1] if side else xs[0]) else "eq"))
    assert min(kinds.values()) > 600
    assert len(outcomes) == 6  # each stop: stays, crosses, lands between
