"""Broadcast-driven finite state machines with mechanical memory.

A machine is an ordered set of units, each an accumulator (ratchet counter)
or a buffer (toggle bit). Field pulses address units either through a
declared label -> unit map or by running the landscape physics on an
attached topology; every activation increments or toggles, and the state
persists between pulses (the latches are mechanical, nothing decays).

Gates are AND-only expressions over the state tuple. A gate fires on the
rising edge of its expression and its completion is remembered, so later
gates may require ``done("earlier gate")`` as a leaf. Gates cascade within
a single pulse: if one gate's completion satisfies another in the same
instant, both fire at that timestamp, in declaration order.

The crank coupler rectifies one-hot pulse trains into rotation the way a
multi-pawl crankshaft does: an activation of the cyclic successor of the
previously fired unit advances the angle one stroke, the predecessor backs
it off one stroke, anything else (including re-firing the same unit)
stalls. The first activation engages forward. A mapping form of
``stroke_to_angle`` assigns each unit a signed stroke instead, which
supports deliberate bidirectional oscillation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import landscape as ls
from . import magnetics as mag
from .errors import ConfigError, MaglogicError, ProgramParseError
from .magnetics import FieldKey

AXIS_DIRECTIONS = {
    "+x": (1.0, 0.0, 0.0),
    "-x": (-1.0, 0.0, 0.0),
    "+y": (0.0, 1.0, 0.0),
    "-y": (0.0, -1.0, 0.0),
    "+z": (0.0, 0.0, 1.0),
    "-z": (0.0, 0.0, -1.0),
}

# the most pulse statements a program may expand to, repeats included;
# checked before any repeat is expanded
MAX_PULSES = 1_000_000

_MAG_UNITS = {"T": 1.0, "mT": 1e-3, "uT": 1e-6}
_DUR_UNITS = {"s": 1.0, "ms": 1e-3}


@dataclass(frozen=True)
class Pulse:
    key: FieldKey
    duration: float
    t_start: float

    def __post_init__(self):
        try:
            mag.finite(self.duration, "pulse duration", 0.0)
            mag.finite(self.t_start, "pulse start time", 0.0, inclusive=True)
        except ConfigError as exc:
            raise ProgramParseError(str(exc)) from None

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration


@dataclass(frozen=True)
class UnitDef:
    id: str
    role: str  # accumulator | buffer
    max_count: int | None = None
    reset_key: str | None = None

    def __post_init__(self):
        mag.text(self.id, "unit id")
        mag.text(self.reset_key, "reset_key", optional=True)
        if self.role not in ("accumulator", "buffer"):
            raise ConfigError(f"unknown unit role {self.role!r}")
        if self.max_count is not None:
            mag.finite(self.max_count, "max_count", 1, inclusive=True, integer=True)


@dataclass(frozen=True)
class UnitPredicate:
    """Leaf: state[unit] == value or state[unit] >= value."""

    unit: str
    op: str  # eq | ge
    value: int

    def __post_init__(self):
        mag.text(self.unit, "predicate unit")
        if self.op not in ("eq", "ge"):
            raise ConfigError(f"unknown predicate op {self.op!r}")
        mag.finite(self.value, "predicate value", integer=True)


@dataclass(frozen=True)
class GateDone:
    """Leaf: the named gate has fired at some earlier (or equal) instant."""

    gate: str

    def __post_init__(self):
        mag.text(self.gate, "done gate")


@dataclass(frozen=True)
class GateExpr:
    name: str
    terms: tuple  # UnitPredicate | GateDone leaves, AND-ed together
    output_action: str

    def __post_init__(self):
        mag.text(self.name, "gate name")
        mag.text(self.output_action, "gate action")
        if not self.terms:
            raise ConfigError(f"gate {self.name!r} has no terms")
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class MachineDef:
    units: tuple  # UnitDef, state order
    decode_mode: str  # physical | declared
    decode_map: tuple = ()  # ((key label, unit id), ...) for declared mode
    topology: tuple | None = None  # UnitTriplet list for physical mode
    gates: tuple = ()
    external_load: float = 0.0
    n_samples: int = ls.DEFAULT_SAMPLES

    def __post_init__(self):
        units = tuple(self.units)
        object.__setattr__(self, "units", units)
        ids = [u.id for u in units]
        if len(set(ids)) != len(ids):
            raise ConfigError("unit ids must be unique")
        if self.decode_mode not in ("physical", "declared"):
            raise ConfigError(f"unknown decode mode {self.decode_mode!r}")
        dmap = tuple((mag.text(label, "decode map key label"),
                      mag.text(uid, "decode map unit id"))
                     for label, uid in self.decode_map)
        object.__setattr__(self, "decode_map", dmap)
        if self.decode_mode == "declared":
            labels = [l for l, _ in dmap]
            targets = [t for _, t in dmap]
            if len(set(labels)) != len(labels) or len(set(targets)) != len(targets):
                raise ConfigError("declared decode map must be injective")
            unknown = set(targets) - set(ids)
            if unknown:
                raise ConfigError(f"decode map targets unknown units {unknown}")
        if self.topology is not None:
            object.__setattr__(self, "topology", tuple(self.topology))
            if not self.topology:
                raise ConfigError("physical topology needs at least one unit")
        object.__setattr__(self, "gates", tuple(self.gates))
        names = [g.name for g in self.gates]
        if len(set(names)) != len(names):
            raise ConfigError("gate names must be unique")
        for g in self.gates:
            for term in g.terms:
                if isinstance(term, UnitPredicate) and term.unit not in ids:
                    raise ConfigError(
                        f"gate {g.name!r} references unknown unit {term.unit!r}"
                    )
                if isinstance(term, GateDone) and term.gate not in names:
                    raise ConfigError(
                        f"gate {g.name!r} references unknown gate {term.gate!r}"
                    )
        mag.finite(self.external_load, "external load", 0.0, inclusive=True)
        mag.finite(self.n_samples, "n_samples", 16, inclusive=True, integer=True,
                   high=ls.MAX_SAMPLES)

    def unit_index(self, unit_id: str) -> int:
        for i, u in enumerate(self.units):
            if u.id == unit_id:
                return i
        raise ConfigError(f"unknown unit {unit_id!r}")


def initial_state(machine: MachineDef) -> tuple:
    return (0,) * len(machine.units)


# program text


def _strip_comments(text: str) -> str:
    return re.sub(r"#[^\n]*", "", text)

_REPEAT_RE = re.compile(r"repeat\s+(\d+)\s*\{")
_STATEMENT_RE = re.compile(
    r"^(?P<label>[+\-]?[A-Za-z_][A-Za-z0-9_]*)\s+"
    r"(?P<mag>[-+0-9.eE]+)\s*(?P<magu>mT|uT|T)\s+"
    r"(?P<dur>[-+0-9.eE]+)\s*(?P<duru>ms|s)"
    r"(?:\s*@\s*(?P<t>[-+0-9.eE]+)\s*s)?$"
)


def _parse_block(s: str, pos: int, depth: int):
    """Raw statements of one brace level, repeat blocks expanded."""
    items = []
    n = len(s)
    while pos < n:
        while pos < n and (s[pos].isspace() or s[pos] == ";"):
            pos += 1
        if pos >= n:
            break
        if s[pos] == "}":
            if depth == 0:
                raise ProgramParseError("unmatched '}' in program")
            return items, pos + 1
        m = _REPEAT_RE.match(s, pos)
        if m:
            try:
                count = int(m.group(1))
            except ValueError:  # more digits than int() converts
                count = MAX_PULSES + 1
            block, pos = _parse_block(s, m.end(), depth + 1)
        else:
            end = pos
            while end < n and s[end] not in ";\n}":
                end += 1
            block, count, pos = [s[pos:end].strip()], 1, end
        # checked before the block is repeated, so nested repeats are bounded too
        if len(items) + len(block) * count > MAX_PULSES:
            raise ProgramParseError(f"program expands to more than {MAX_PULSES:,} pulses")
        items.extend(block * count)
    if depth > 0:
        raise ProgramParseError("unterminated repeat block")
    return items, pos


def parse_program(text: str, directions: dict | None = None) -> tuple:
    """Parse broadcast program text into a sorted tuple of pulses.

    Grammar (line- or ';'-separated, '#' comments, nestable
    ``repeat N { ... }`` blocks)::

        <label> <magnitude><T|mT|uT> <duration><s|ms> [@<start>s]

    Labels are the six axis keys (+x, -x, +y, -y, +z, -z) unless
    ``directions`` adds more. Without an explicit ``@`` start time, pulses
    pack back to back from t = 0.
    """
    known = dict(AXIS_DIRECTIONS)
    if directions:
        known.update(directions)
    statements, _ = _parse_block(_strip_comments(text), 0, 0)
    pulses = []
    cursor = 0.0
    for stmt in statements:
        m = _STATEMENT_RE.match(stmt)
        if not m:
            raise ProgramParseError(f"cannot parse pulse statement {stmt!r}")
        label = m.group("label")
        if label not in known:
            raise ProgramParseError(f"unknown key label {label!r}")
        try:
            magnitude = float(m.group("mag")) * _MAG_UNITS[m.group("magu")]
            duration = float(m.group("dur")) * _DUR_UNITS[m.group("duru")]
        except ValueError as exc:
            raise ProgramParseError(f"bad number in {stmt!r}") from exc
        t_start = float(m.group("t")) if m.group("t") is not None else cursor
        try:
            key = FieldKey(known[label], magnitude, label)
            pulses.append(Pulse(key, duration, t_start))
        except ConfigError as exc:
            raise ProgramParseError(f"invalid pulse {stmt!r}: {exc}") from exc
        cursor = t_start + duration
    pulses.sort(key=lambda p: p.t_start)
    for a, b in zip(pulses, pulses[1:]):
        if b.t_start < a.t_end - 1e-15:
            raise ProgramParseError(
                f"pulses overlap at t = {b.t_start:g} s "
                f"({a.key.label!r} runs until {a.t_end:g} s)"
            )
    return tuple(pulses)


def serialize_program(pulses) -> str:
    """Canonical one-pulse-per-line text; parse() of it round-trips exactly."""
    lines = [
        f"{p.key.label} {p.key.magnitude:.17g}T {p.duration:.17g}s "
        f"@{p.t_start:.17g}s"
        for p in pulses
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# execution


def decode_pulse(machine: MachineDef, state: tuple, pulse: Pulse) -> frozenset:
    """Unit ids activated by one pulse.

    Declared mode is a map lookup (unmapped labels activate nothing).
    Physical mode runs the landscape decision for every unit with all
    movers latched; superposed (off-axis) keys may activate several units.
    Zero-magnitude pulses are field-off gaps and activate nothing in
    either mode.
    """
    if pulse.key.magnitude == 0.0:
        return frozenset()
    if machine.decode_mode == "declared":
        for label, uid in machine.decode_map:
            if label == pulse.key.label:
                return frozenset((uid,))
        return frozenset()
    if machine.topology is None:
        raise ConfigError("physical decode mode needs a topology")
    ids = {u.id for u in machine.units}
    decisions = ls.decisions_for_key(machine.topology, pulse.key, machine.n_samples)
    return frozenset(uid for uid, d in decisions.items()
                     if d.snap_through and uid in ids)


def apply_activation(machine: MachineDef, state: tuple, activated) -> tuple:
    """Ratchet/toggle semantics; non-activated components are untouched."""
    out = list(state)
    for i, u in enumerate(machine.units):
        if u.id not in activated:
            continue
        if u.role == "accumulator":
            nxt = out[i] + 1
            if u.max_count is not None:
                nxt = min(nxt, u.max_count)
            out[i] = nxt
        else:
            out[i] = 1 - out[i]
    return tuple(out)


def _apply_resets(machine: MachineDef, state: tuple, key_label: str) -> tuple:
    out = list(state)
    for i, u in enumerate(machine.units):
        if u.reset_key is not None and u.reset_key == key_label:
            out[i] = 0
    return tuple(out)


def evaluate_gates(machine: MachineDef, state: tuple, done=frozenset()) -> frozenset:
    """Names of gates whose AND expression holds at this state."""
    satisfied = []
    for gate in machine.gates:
        ok = True
        for term in gate.terms:
            if isinstance(term, GateDone):
                ok = term.gate in done
            else:
                val = state[machine.unit_index(term.unit)]
                ok = val == term.value if term.op == "eq" else val >= term.value
            if not ok:
                break
        if ok:
            satisfied.append(gate.name)
    return frozenset(satisfied)


@dataclass(frozen=True)
class TraceStep:
    time: float
    state: tuple
    fired: tuple  # gate names, in declaration order
    activated: tuple = ()


def _fire_cascade(machine, state, prev_true, done):
    """Rising-edge fires, cascading gate-done dependencies within one instant."""
    fired = []
    done = set(done)
    while True:
        now = evaluate_gates(machine, state, frozenset(done))
        new = [g.name for g in machine.gates
               if g.name in now and g.name not in prev_true and g.name not in fired]
        if not new:
            return tuple(fired), frozenset(done), now
        fired.extend(new)
        done.update(new)


def run(machine: MachineDef, program) -> list:
    """Execute a pulse program; deterministic trace, one step per pulse."""
    program = tuple(program)
    for a, b in zip(program, program[1:]):
        if b.t_start < a.t_end - 1e-15:
            raise ConfigError("program pulses overlap")
    state = initial_state(machine)
    done = frozenset()
    prev_true = evaluate_gates(machine, state, done)
    trace = [TraceStep(0.0, state, (), ())]
    decoded = {}  # decoding ignores the state, so each key is decoded once
    for pulse in program:
        if pulse.key not in decoded:
            decoded[pulse.key] = decode_pulse(machine, state, pulse)
        activated = decoded[pulse.key]
        state = apply_activation(machine, state, activated)
        state = _apply_resets(machine, state, pulse.key.label)
        fired, done, prev_true = _fire_cascade(machine, state, prev_true, done)
        trace.append(TraceStep(pulse.t_end, state, fired, tuple(sorted(activated))))
    return trace


def gate_actions(machine: MachineDef, fired) -> tuple:
    by_name = {g.name: g.output_action for g in machine.gates}
    return tuple(by_name[name] for name in fired)


def state_holds_under_load(machine: MachineDef, key: FieldKey | None = None) -> bool:
    """Quasi-static payload check: external load vs weakest anchoring margin.

    True iff every latched unit's restoring margin under ``key`` meets or
    exceeds ``machine.external_load``. Physical mode only.
    """
    if machine.topology is None:
        raise ConfigError("load check needs a physical topology")
    margins = []
    decisions = ls.decisions_for_key(machine.topology, key, machine.n_samples)
    for dec in decisions.values():
        if dec.snap_through:
            continue
        if dec.anchoring_force is None:
            return False
        margins.append(dec.anchoring_force)
    if not margins:
        return False
    return min(margins) >= machine.external_load


# crank coupling


@dataclass(frozen=True)
class CrankCoupler:
    """Kinematic integrator over an ordered ring of coupled units.

    ``stroke_to_angle`` is either a positive scalar (degrees per stroke;
    direction from cyclic firing order) or a mapping unit id -> signed
    degrees (explicit bidirectional strokes).
    """

    units: tuple
    stroke_to_angle: object

    def __post_init__(self):
        units = tuple(self.units)
        if len(set(units)) != len(units) or not units:
            raise ConfigError("coupler units must be a non-empty unique list")
        object.__setattr__(self, "units", units)
        if isinstance(self.stroke_to_angle, dict):
            missing = set(units) - set(self.stroke_to_angle)
            if missing:
                raise ConfigError(f"stroke_to_angle missing units {missing}")
            object.__setattr__(
                self, "stroke_to_angle",
                {k: mag.finite(v, f"stroke_to_angle[{k!r}]")
                 for k, v in self.stroke_to_angle.items()},
            )
        else:
            object.__setattr__(self, "stroke_to_angle", mag.finite(
                self.stroke_to_angle, "scalar stroke_to_angle", 0.0))


def crank_trace(machine: MachineDef, program, coupler: CrankCoupler) -> list:
    """Cumulative crank angle after each pulse: list of (time, degrees)."""
    for uid in coupler.units:
        unit = machine.units[machine.unit_index(uid)]
        if unit.role != "accumulator":
            raise ConfigError("coupled units must be accumulators")
    signed = isinstance(coupler.stroke_to_angle, dict)
    n = len(coupler.units)
    angle = 0.0
    last_idx = None
    out = [(0.0, 0.0)]
    for step in run(machine, program)[1:]:
        for uid in coupler.units:
            if uid not in step.activated:
                continue
            if signed:
                angle += coupler.stroke_to_angle[uid]
                continue
            idx = coupler.units.index(uid)
            stroke = coupler.stroke_to_angle
            if last_idx is None or idx == (last_idx + 1) % n:
                angle += stroke
            elif idx == (last_idx - 1) % n:
                angle -= stroke
            last_idx = idx
        out.append((step.time, angle))
    return out


def phase_deviation(trace) -> float:
    """Max |angle - uniform ramp| (deg) at instants where the angle moved.

    The ramp runs through the first and last movement instants; a uniform
    one-hot pulse train therefore deviates by exactly zero.
    """
    moves = [(t, a) for (t, a), (_, prev) in zip(trace[1:], trace[:-1]) if a != prev]
    if len(moves) < 3:
        return 0.0
    (t0, a0), (t1, a1) = moves[0], moves[-1]
    if t1 == t0:
        return 0.0
    slope = (a1 - a0) / (t1 - t0)
    return max(abs(a - (a0 + slope * (t - t0))) for t, a in moves)


@dataclass(frozen=True)
class TorqueEstimate:
    torque_nmm: float  # newton-millimeters, weakest coupled stroke
    baseline_nmm: float  # standalone dipole torque |m||B| in the same key
    amplification: float
    limiting_key: str


def torque_estimate(topology, coupler: CrankCoupler, lever_arm: float,
                    keys) -> TorqueEstimate:
    """Continuous-torque rating of a crank engine.

    torque = (weakest driving peak over the coupler's keys) x lever arm.
    The baseline is the torque the bare mover dipole could extract from the
    same key field, |m| |B|; amplification is their ratio.
    """
    mag.finite(lever_arm, "lever arm", 0.0)
    topology = list(topology)
    coupled = set(coupler.units)
    try:
        keys = list(keys)
        ok = all(isinstance(k, FieldKey) for k in keys)
    except TypeError:
        ok = False
    if not ok:
        raise ConfigError(f"keys must be a sequence of FieldKey, got {keys!r}")
    worst = None
    for key, decs in zip(keys, ls.decisions_for_keys(topology, keys)):
        driven = [uid for uid, d in decs.items()
                  if d.snap_through and uid in coupled]
        if len(driven) != 1:
            raise MaglogicError(
                f"key {key.label!r} does not drive exactly one coupled unit"
            )
        peak = decs[driven[0]].driving_peak
        if worst is None or peak < worst[0]:
            mover = next(u for u in topology if u.id == driven[0])
            worst = (peak, key, mover.track.mover_moment_mag())
    if worst is None:
        raise ConfigError("no keys supplied")
    peak, key, m_mag = worst
    baseline = m_mag * key.magnitude
    if baseline <= 0.0:
        raise MaglogicError("zero baseline: key magnitude is zero")
    torque = peak * lever_arm
    return TorqueEstimate(
        torque * 1e3, baseline * 1e3, torque / baseline, key.label
    )
