"""State machine tests.

Frozen expectations:
* mission trace (declared 4-unit machine, order alpha/beta/gamma/sigma):
  pulses +x,+x,-z,-z,+z,-x walk (0,0,0,0) -> (0,0,1,0) -> (0,0,2,0) ->
  (0,0,2,1) [cutting] -> (0,0,2,0) -> (0,1,2,0) -> (1,1,2,0) [removal].
* crank: 9 one-hot round-robin strokes at 40 deg each = 360 deg exactly.
* torque baseline for the demo mover in a 20 mT key: |m| = B_r V / mu0 =
  0.3 * pi r^2 L / mu0 = 0.096 A m^2 (the pi cancels against mu0 = 4pi e-7
  with r = 4 mm, L = 8 mm), so |m||B| = 1.92 mN m = 1.92 N mm.
* calibration identity: a 0.28 N stroke on a 37.5 mm lever is 10.5 N mm.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maglogic import fsm
from maglogic import landscape as ls
from maglogic import presets as pr
from maglogic.errors import ConfigError, MaglogicError, ProgramParseError
from maglogic.magnetics import FieldKey


def counter(uid, **kw):
    return fsm.UnitDef(uid, "accumulator", **kw)


def toggler(uid, **kw):
    return fsm.UnitDef(uid, "buffer", **kw)


def declared_machine(units, decode_map, gates=()):
    return fsm.MachineDef(tuple(units), "declared", decode_map=tuple(decode_map),
                          gates=tuple(gates))


THREE = (("-x", "a"), ("+z", "b"), ("+x", "c"))


def test_parse_program_example():
    prog = fsm.parse_program("-x 27mT 0.05s; +z 35mT 0.05s; +x 27mT 0.05s")
    assert [p.key.label for p in prog] == ["-x", "+z", "+x"]
    assert [p.key.magnitude for p in prog] == pytest.approx(
        [0.027, 0.035, 0.027], rel=1e-12)
    assert [p.duration for p in prog] == pytest.approx([0.05] * 3, rel=1e-12)
    assert [p.t_start for p in prog] == pytest.approx([0.0, 0.05, 0.10], abs=1e-12)
    assert prog[0].key.direction == (-1.0, 0.0, 0.0)

    assert fsm.parse_program("") == ()
    assert fsm.parse_program("# only a comment\n") == ()


def test_parse_program_layout_freedom():
    text = """
    # mission
    +x 27mT 0.05s
    +z 1e-2T 50ms   # inline comment
    -y 500uT 0.05s @0.30s
    """
    prog = fsm.parse_program(text)
    assert [p.key.label for p in prog] == ["+x", "+z", "-y"]
    assert prog[1].key.magnitude == pytest.approx(0.01, rel=1e-15)
    assert prog[1].duration == pytest.approx(0.05, rel=1e-15)
    assert prog[2].key.magnitude == pytest.approx(5e-4, rel=1e-15)
    assert prog[2].t_start == pytest.approx(0.30, rel=1e-15)


def test_parse_repeat_blocks():
    prog = fsm.parse_program(pr.ENGINE_PROGRAM)
    assert len(prog) == 9
    assert [p.key.label for p in prog] == ["-x", "+z", "+x"] * 3
    assert [p.t_start for p in prog] == pytest.approx(
        [0.05 * k for k in range(9)], abs=1e-12)

    nested = fsm.parse_program("repeat 2 { +x 1mT 1s; repeat 2 { +z 1mT 1s } }")
    assert [p.key.label for p in nested] == ["+x", "+z", "+z"] * 2
    assert nested[-1].t_start == pytest.approx(5.0)


def test_parse_program_errors():
    with pytest.raises(ProgramParseError):
        fsm.parse_program("+x 1mT 1s @0s; +z 1mT 1s @0.5s")  # overlap
    with pytest.raises(ProgramParseError):
        fsm.parse_program("+x 1mT -1s")
    with pytest.raises(ProgramParseError):
        fsm.parse_program("+x 1mT 0s")
    with pytest.raises(ProgramParseError):
        fsm.parse_program("+q 1mT 1s")
    with pytest.raises(ProgramParseError):
        fsm.parse_program("+x -1mT 1s")  # negative field magnitude
    with pytest.raises(ProgramParseError):
        fsm.parse_program("+x 1mT 1s }")
    with pytest.raises(ProgramParseError):
        fsm.parse_program("repeat 2 { +x 1mT 1s")
    with pytest.raises(ProgramParseError):
        fsm.parse_program("+x one_mT 1s")


def test_repeat_expansion_is_bounded_before_it_is_built():
    """Programs that expand past MAX_PULSES statements are parse errors
    raised while less than 1 MiB has been allocated: one repeat, a count
    of 10**30, a count past int()'s digit limit, a nested pair whose
    product crosses the bound and a repeat after other statements."""
    bound = fsm.MAX_PULSES
    programs = [
        f"repeat {bound + 1} {{ +x 1mT 1s }}",
        f"repeat {10**30} {{ +x 20mT 1s }}",
        f"repeat {'9' * 5000} {{ +x 1mT 1s }}",
        "repeat 1001 { +z 1mT 1s; repeat 999 { +x 1mT 1s } }",
        f"repeat 1000 {{ +x 1mT 1s }}\nrepeat {bound - 999} {{ +z 1mT 1s }}",
    ]
    for text in programs:
        tracemalloc.start()
        try:
            with pytest.raises(ProgramParseError, match="more than 1,000,000 pulses"):
                fsm.parse_program(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, text
    # an empty body repeats to nothing, whatever its count
    assert fsm.parse_program(f"repeat {'9' * 5000} {{ }}; +x 1mT 1s")[0].t_start == 0.0


def test_deeply_nested_repeats_are_a_parse_error():
    """Nesting deep enough to exhaust the parser's recursion is a parse
    error, not a raw RecursionError; 300 levels still parse."""
    def nested(depth):
        return "repeat 1 { " * depth + "+x 20mT 1s" + " }" * depth

    with pytest.raises(ProgramParseError, match="nested too deeply"):
        fsm.parse_program(nested(2000))
    assert len(fsm.parse_program(nested(300))) == 1


def test_parse_custom_labels():
    prog = fsm.parse_program("lift 5mT 1s", directions={"lift": (0, 1, 0)})
    assert prog[0].key.direction == (0.0, 1.0, 0.0)
    with pytest.raises(ProgramParseError):
        fsm.parse_program("lift 5mT 1s")


def test_serialize_round_trip():
    rng = np.random.default_rng(11)
    labels = list(fsm.AXIS_DIRECTIONS)
    for _ in range(50):
        n = int(rng.integers(0, 6))
        text = "; ".join(
            f"{labels[int(rng.integers(0, 6))]} "
            f"{rng.uniform(0.1, 40):.6g}mT {rng.uniform(0.01, 1):.6g}s"
            for _ in range(n)
        )
        prog = fsm.parse_program(text)
        canonical = fsm.serialize_program(prog)
        assert fsm.parse_program(canonical) == prog
        assert fsm.serialize_program(fsm.parse_program(canonical)) == canonical


_PULSES = st.lists(st.tuples(
    st.sampled_from(sorted(fsm.AXIS_DIRECTIONS)),
    st.floats(0.0, 10.0),  # tesla
    st.floats(1e-9, 100.0),  # duration, s
    st.floats(0.0, 100.0)), max_size=8)  # gap before the pulse, s


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_PULSES)
def test_serialize_round_trip_property(pulses):
    """Any program of non-overlapping axis pulses serializes to text that
    parses back to the same pulses and serializes to the same text."""
    prog, t = [], 0.0
    for label, magnitude, duration, gap in pulses:
        pulse = fsm.Pulse(FieldKey(fsm.AXIS_DIRECTIONS[label], magnitude, label),
                          duration, t + gap)
        prog.append(pulse)
        t = pulse.t_end
    text = fsm.serialize_program(prog)
    assert fsm.parse_program(text) == tuple(prog)
    assert fsm.serialize_program(fsm.parse_program(text)) == text


def test_machine_validation():
    with pytest.raises(ConfigError):
        declared_machine([counter("a"), counter("a")], THREE[:1])
    with pytest.raises(ConfigError):
        fsm.UnitDef("a", "sprocket")
    with pytest.raises(ConfigError):
        declared_machine([counter("a")], (("-x", "a"), ("+x", "a")))
    with pytest.raises(ConfigError):
        declared_machine([counter("a")], (("-x", "ghost"),))
    with pytest.raises(ConfigError):
        declared_machine(
            [counter("a")], (("-x", "a"),),
            gates=[fsm.GateExpr("g", (fsm.UnitPredicate("ghost", "ge", 1),), "x")])
    with pytest.raises(ConfigError):
        declared_machine(
            [counter("a")], (("-x", "a"),),
            gates=[fsm.GateExpr("g", (fsm.GateDone("missing"),), "x")])
    with pytest.raises(ConfigError):
        fsm.MachineDef((counter("a"),), "declared", decode_map=(("-x", "a"),),
                       external_load=-1.0)
    with pytest.raises(ConfigError):
        fsm.MachineDef((counter("a"),), "telepathic")


def test_apply_activation_semantics():
    m = declared_machine([counter("a", max_count=5), toggler("b"), counter("c")],
                         THREE)
    s = fsm.initial_state(m)
    assert fsm.apply_activation(m, s, {"a"}) == (1, 0, 0)
    assert fsm.apply_activation(m, (5, 0, 0), {"b"}) == (5, 1, 0)
    assert fsm.apply_activation(m, (5, 1, 0), {"a"}) == (5, 1, 0)  # saturated
    twice = fsm.apply_activation(
        m, fsm.apply_activation(m, s, {"b"}), {"b"})
    assert twice == s  # buffer involution


def test_declared_decode():
    m = declared_machine([counter("a"), toggler("b"), counter("c")], THREE)
    pulse = fsm.parse_program("-x 27mT 0.05s")[0]
    assert fsm.decode_pulse(m, fsm.initial_state(m), pulse) == {"a"}
    unmapped = fsm.parse_program("-y 27mT 0.05s")[0]
    assert fsm.decode_pulse(m, fsm.initial_state(m), unmapped) == frozenset()
    gap = fsm.Pulse(FieldKey((1, 0, 0), 0.0, "+x"), 0.05, 0.0)
    assert fsm.decode_pulse(m, fsm.initial_state(m), gap) == frozenset()


def test_physical_decode_demo():
    units = [counter("alpha"), counter("beta"), counter("gamma")]
    m = fsm.MachineDef(tuple(units), "physical",
                       topology=tuple(pr.demo_topology()))
    s = fsm.initial_state(m)
    magnitude = pr.demo_keys()[0].magnitude
    for key, target in pr.demo_key_targets().items():
        pulse = fsm.Pulse(
            FieldKey(fsm.AXIS_DIRECTIONS[key], magnitude, key), 0.05, 0.0)
        assert fsm.decode_pulse(m, s, pulse) == {target}

    diag = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
    pulse = fsm.Pulse(
        FieldKey(tuple(diag), magnitude * math.sqrt(2), "+x+z"), 0.05, 0.0)
    assert fsm.decode_pulse(m, s, pulse) == {"alpha", "beta"}

    bare = fsm.MachineDef(tuple(units), "physical")
    with pytest.raises(ConfigError):
        fsm.decode_pulse(bare, s, pulse)


def test_run_decodes_each_distinct_key_once(monkeypatch):
    keys = []
    decide_all = ls.decisions_for_key

    def counted(topology, key, *args, **kwargs):
        keys.append(key.label)
        return decide_all(topology, key, *args, **kwargs)

    monkeypatch.setattr(ls, "decisions_for_key", counted)
    machine = fsm.MachineDef(
        (counter("alpha"), toggler("beta"), counter("gamma")), "physical",
        topology=tuple(pr.demo_topology()))
    prog = fsm.parse_program(
        "repeat 10 { +x 20mT 0.05s; +z 20mT 0.05s; -x 20mT 0.05s }")
    trace = fsm.run(machine, prog)
    assert sorted(keys) == ["+x", "+z", "-x"]
    assert trace[-1].state == (10, 0, 10)


def test_mission_trace():
    machine = pr.mission_machine()
    prog = fsm.parse_program(pr.MISSION_PROGRAM)
    trace = fsm.run(machine, prog)
    states = [step.state for step in trace]
    assert states == [
        (0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 2, 0), (0, 0, 2, 1),
        (0, 0, 2, 0), (0, 1, 2, 0), (1, 1, 2, 0),
    ]
    fires = [step.fired for step in trace]
    assert fires[3] == ("cutting",)
    assert fires[6] == ("removal",)
    assert sum(f.count("cutting") for f in fires) == 1
    assert sum(f.count("removal") for f in fires) == 1
    assert fsm.gate_actions(machine, trace[3].fired) == ("cut",)
    assert trace == fsm.run(machine, prog)  # deterministic
    assert fsm.run(machine, ()) == [fsm.TraceStep(0.0, (0, 0, 0, 0), (), ())]


def test_gate_rising_edge_per_interval():
    gate = fsm.GateExpr("armed", (fsm.UnitPredicate("s", "eq", 1),), "arm")
    m = declared_machine([toggler("s")], (("-z", "s"),), gates=[gate])
    prog = fsm.parse_program("-z 1mT 1s; -z 1mT 1s; -z 1mT 1s")
    fires = [step.fired for step in fsm.run(m, prog)]
    assert fires == [(), ("armed",), (), ("armed",)]


def test_gate_true_at_start_needs_a_fresh_edge():
    gate = fsm.GateExpr("empty", (fsm.UnitPredicate("a", "eq", 0),), "e")
    m = fsm.MachineDef(
        (fsm.UnitDef("a", "accumulator", reset_key="-z"),), "declared",
        decode_map=(("-x", "a"),), gates=(gate,))
    prog = fsm.parse_program("-x 1mT 1s; -z 1mT 1s")
    fires = [step.fired for step in fsm.run(m, prog)]
    # true initially (no fire), falls on increment, rises again on reset
    assert fires == [(), (), ("empty",)]


def test_gate_cascade_same_instant():
    gates = (
        fsm.GateExpr("first", (fsm.UnitPredicate("c", "ge", 1),), "f"),
        fsm.GateExpr("second",
                     (fsm.GateDone("first"), fsm.UnitPredicate("c", "ge", 1)),
                     "s"),
    )
    m = declared_machine([counter("c")], (("+x", "c"),), gates=gates)
    trace = fsm.run(m, fsm.parse_program("+x 1mT 1s"))
    assert trace[1].fired == ("first", "second")


def test_exhaustive_gate_oracle():
    machine = pr.mission_machine()
    for n_a in range(4):
        for b in (0, 1):
            for m_g in range(4):
                for s in (0, 1):
                    state = (n_a, b, m_g, s)
                    for done in (frozenset(), frozenset({"cutting"})):
                        got = fsm.evaluate_gates(machine, state, done)
                        want = set()
                        if m_g >= 2 and s == 1:
                            want.add("cutting")
                        if "cutting" in done and n_a >= 1:
                            want.add("removal")
                        assert got == want, (state, done)


def test_reset_key_semantics():
    m = fsm.MachineDef(
        (fsm.UnitDef("a", "accumulator", reset_key="-z"), toggler("b")),
        "declared", decode_map=(("-x", "a"), ("+z", "b")))
    prog = fsm.parse_program("-x 1mT 1s; -x 1mT 1s; +z 1mT 1s; -z 1mT 1s")
    states = [st.state for st in fsm.run(m, prog)]
    assert states == [(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)]
    counts = [s[0] for s in states[:-1]]
    assert counts == sorted(counts)  # nondecreasing until the reset pulse


def test_non_volatility_under_gaps():
    machine = pr.mission_machine()
    base = fsm.parse_program(pr.MISSION_PROGRAM)
    final = fsm.run(machine, base)[-1].state
    rng = np.random.default_rng(5)
    labels = list(fsm.AXIS_DIRECTIONS)
    for _ in range(10):
        pulses = list(base)
        for _ in range(int(rng.integers(1, 4))):
            spot = int(rng.integers(0, len(pulses) + 1))
            label = labels[int(rng.integers(0, 6))]
            gap = fsm.Pulse(FieldKey(fsm.AXIS_DIRECTIONS[label], 0.0, label),
                            0.05, 0.0)
            pulses.insert(spot, gap)
        # re-pack start times after insertion
        t = 0.0
        packed = []
        for p in pulses:
            packed.append(fsm.Pulse(p.key, p.duration, t))
            t += p.duration
        assert fsm.run(machine, packed)[-1].state == final


def test_crank_round_robin():
    machine = pr.engine_machine()
    prog = fsm.parse_program(pr.ENGINE_PROGRAM)
    trace = fsm.crank_trace(machine, prog, pr.engine_coupler(40.0))
    angles = [a for _, a in trace]
    assert angles == [40.0 * k for k in range(10)]
    assert angles[-1] == 9 * 40.0
    assert all(b > a for a, b in zip(angles, angles[1:]))

    reversed_prog = fsm.parse_program(
        "repeat 3 { +x 27mT 0.05s; +z 35mT 0.05s; -x 27mT 0.05s }")
    rev = fsm.crank_trace(machine, reversed_prog, pr.engine_coupler(40.0))
    assert rev[-1][1] == 40.0 - 8 * 40.0  # first engages forward, rest back off

    assert fsm.crank_trace(machine, (), pr.engine_coupler()) == [(0.0, 0.0)]
    assert trace == [(0.0, 0.0)] + [
        (p.t_end, 40.0 * (i + 1)) for i, p in enumerate(prog)]


def test_crank_signed_mapping():
    machine = pr.engine_machine()
    coupler = fsm.CrankCoupler(("alpha", "beta", "gamma"),
                               {"alpha": 40.0, "beta": -40.0, "gamma": 40.0})
    prog = fsm.parse_program("-x 1mT 1s; +z 1mT 1s; +x 1mT 1s")
    trace = fsm.crank_trace(machine, prog, coupler)
    assert [a for _, a in trace] == [0.0, 40.0, 0.0, 40.0]


def test_crank_validation():
    machine = pr.mission_machine()
    with pytest.raises(ConfigError):
        fsm.CrankCoupler((), 40.0)
    with pytest.raises(ConfigError):
        fsm.CrankCoupler(("a", "a"), 40.0)
    with pytest.raises(ConfigError):
        fsm.CrankCoupler(("a",), 0.0)
    with pytest.raises(ConfigError):
        fsm.CrankCoupler(("a", "b"), {"a": 40.0})
    assert fsm.CrankCoupler(("a",), 40).stroke_to_angle == 40.0
    beta_coupler = fsm.CrankCoupler(("beta",), 40.0)  # beta is a buffer
    with pytest.raises(ConfigError):
        fsm.crank_trace(machine, (), beta_coupler)


def test_crank_rejects_a_coupler_unit_the_machine_lacks():
    machine = pr.engine_machine()
    coupler = fsm.CrankCoupler(("alpha", "delta"), 40.0)
    with pytest.raises(ConfigError, match="unknown unit id 'delta'"):
        fsm.crank_trace(machine, fsm.parse_program(pr.ENGINE_PROGRAM), coupler)


def test_unknown_unit_errors_list_ids_sorted():
    """The ids print as a sorted list, so the text does not depend on the
    string hash seed."""
    with pytest.raises(ConfigError) as exc:
        fsm.MachineDef((), "declared", (("+x", "gamma"), ("+z", "alpha"), ("-x", "beta")))
    assert str(exc.value) == "decode map targets unknown units ['alpha', 'beta', 'gamma']"
    with pytest.raises(ConfigError) as exc:
        fsm.CrankCoupler(("gamma", "alpha", "beta", "delta"), {"delta": 40.0})
    assert str(exc.value) == "stroke_to_angle missing units ['alpha', 'beta', 'gamma']"


@pytest.mark.parametrize("stroke", [
    float("nan"), float("inf"), -40.0, "40", True,
    {"a": float("nan")}, {"a": float("-inf")}, {"a": "40"},
])
def test_crank_stroke_must_be_finite(stroke):
    with pytest.raises(ConfigError, match="stroke_to_angle"):
        fsm.CrankCoupler(("a",), stroke)


def test_torque_estimate_demo():
    est = fsm.torque_estimate(
        pr.demo_topology(), pr.engine_coupler(), 0.0375, pr.demo_keys())
    peaks = {}
    for key in pr.demo_keys():
        decs = ls.decisions_for_key(pr.demo_topology(), key)
        (target,) = [uid for uid, d in decs.items() if d.snap_through]
        peaks[key.label] = decs[target].driving_peak
    weakest = min(peaks, key=peaks.get)
    assert est.limiting_key == weakest
    assert est.torque_nmm == pytest.approx(peaks[weakest] * 0.0375 * 1e3,
                                           rel=1e-12)
    assert est.baseline_nmm == pytest.approx(1.92, rel=1e-12)
    assert est.amplification > 1.0
    # published-style calibration identity: 0.28 N on a 37.5 mm lever
    assert 0.28 * 0.0375 * 1e3 == pytest.approx(10.5, rel=1e-15)

    zero_key = (FieldKey((1, 0, 0), 0.0, "+x"),)
    with pytest.raises(MaglogicError):
        fsm.torque_estimate(pr.demo_topology(), pr.engine_coupler(), 0.0375,
                            zero_key)
    with pytest.raises(ConfigError):
        fsm.torque_estimate(pr.demo_topology(), pr.engine_coupler(), 0.0,
                            pr.demo_keys())
    for keys in (None, [None], [pr.demo_keys()[0], "+x"], ()):
        with pytest.raises(ConfigError):
            fsm.torque_estimate(pr.demo_topology(), pr.engine_coupler(), 0.0375,
                                keys)


def test_state_holds_under_load():
    units = tuple(counter(uid) for uid in ("alpha", "beta", "gamma"))
    light = fsm.MachineDef(units, "physical", topology=tuple(pr.demo_topology()),
                           external_load=1e-4)
    assert fsm.state_holds_under_load(light)
    heavy = fsm.MachineDef(units, "physical", topology=tuple(pr.demo_topology()),
                           external_load=10.0)
    assert not fsm.state_holds_under_load(heavy)
    declared = pr.mission_machine()
    with pytest.raises(ConfigError):
        fsm.state_holds_under_load(declared)
