"""Gate-level circuits, the four supported circuit families, and their
two-block decompositions C = V * U.

Gate semantics follow the rotation convention

    Rx(theta) = cos(theta/2) I - i sin(theta/2) X
    Rz(theta) = cos(theta/2) I - i sin(theta/2) Z

with angles restricted to dyadic multiples theta = sign * 2*pi / 2**t,
t >= 1.  ``S`` and ``T`` are exactly Rz at t = 2 and t = 3 (including the
global phase of the rotation form).  H, X, Y, Z and CCZ are first-class
kinds; each has a fixed decomposition into {Rx, Rz, CZ} that reproduces it
up to global phase (``decompose_to_gate_set``).

Depth is measured by order-preserving greedy layering, an upper bound on
the minimum-layer depth; gate reordering is never attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import ValidationError

GATE_ARITY = {
    "H": 1, "X": 1, "Y": 1, "Z": 1, "S": 1, "T": 1,
    "RX": 1, "RZ": 1, "CZ": 2, "CCZ": 3,
}

ROTATION_KINDS = frozenset({"RX", "RZ"})
DIAGONAL_KINDS = frozenset({"Z", "S", "T", "RZ", "CZ", "CCZ"})
IQP_DIAGONAL_KINDS = frozenset({"Z", "CZ", "CCZ"})
CLIFFORD_KINDS = frozenset({"H", "S", "CZ"})
# kinds accepted by signed-Pauli conjugation (ecs module)
PAULI_CONJUGATION_KINDS = CLIFFORD_KINDS | {"X", "Y", "Z"}
GATE_SET_KINDS = frozenset({"RX", "RZ", "S", "T", "CZ"})


def _json_field(d, key: str, convert, what: str):
    """``convert(d[key])`` for the JSON object ``d`` that describes ``what``;
    a non-object, a missing key or a value ``convert`` rejects is a
    ValidationError."""
    if not isinstance(d, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        raise ValidationError(f"{what} lacks {key!r}")
    try:
        return convert(d[key])
    except (TypeError, ValueError):
        raise ValidationError(f"{what} has an invalid {key!r}: {d[key]!r}") from None


def _json_list(d: dict, key: str, convert, what: str) -> list:
    """``convert`` of each item of the JSON list at ``key`` (none when
    absent) of the object ``d`` that describes ``what``; a value that is
    not a list is a ValidationError."""
    items = d.get(key, [])
    if not isinstance(items, list):
        raise ValidationError(f"{what} has an invalid {key!r}: expected a list, "
                              f"got {type(items).__name__}")
    return [convert(item) for item in items]


@dataclass(frozen=True)
class DyadicAngle:
    """Rotation parameter theta = sign * 2*pi / 2**t with integer t >= 1."""

    sign: int
    t: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValidationError(f"angle sign must be +/-1, got {self.sign}")
        if not isinstance(self.t, int) or self.t < 1:
            raise ValidationError(f"angle exponent t must be an integer >= 1, got {self.t}")

    @property
    def radians(self) -> float:
        return math.ldexp(self.sign * 2.0 * math.pi, -self.t)

    def inverse(self) -> "DyadicAngle":
        return DyadicAngle(-self.sign, self.t)

    def to_json_dict(self) -> dict:
        return {"sign": self.sign, "t": self.t}

    @classmethod
    def from_json_dict(cls, d: dict) -> "DyadicAngle":
        return cls(_json_field(d, "sign", int, "an angle"),
                   _json_field(d, "t", int, "an angle"))


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: DyadicAngle | None = None

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValidationError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        arity = GATE_ARITY[self.kind]
        if len(self.qubits) != arity:
            raise ValidationError(
                f"{self.kind} acts on {arity} qubit(s), got {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValidationError(f"{self.kind} qubits must be distinct: {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValidationError(f"negative qubit index in {self.qubits}")
        if (self.kind in ROTATION_KINDS) != (self.angle is not None):
            raise ValidationError(f"{self.kind} takes an angle iff it is RX/RZ")

    @property
    def is_diagonal(self) -> bool:
        return self.kind in DIAGONAL_KINDS


def h(q: int) -> Gate:
    return Gate("H", (q,))


def x(q: int) -> Gate:
    return Gate("X", (q,))


def y(q: int) -> Gate:
    return Gate("Y", (q,))


def z(q: int) -> Gate:
    return Gate("Z", (q,))


def s(q: int) -> Gate:
    return Gate("S", (q,))


def t(q: int) -> Gate:
    return Gate("T", (q,))


def rx(q: int, sign: int, exponent: int) -> Gate:
    return Gate("RX", (q,), DyadicAngle(sign, exponent))


def rz(q: int, sign: int, exponent: int) -> Gate:
    return Gate("RZ", (q,), DyadicAngle(sign, exponent))


def cz(a: int, b: int) -> Gate:
    return Gate("CZ", (a, b))


def ccz(a: int, b: int, c: int) -> Gate:
    return Gate("CCZ", (a, b, c))


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"qubit count must be >= 1, got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if any(q >= self.n for q in gate.qubits):
                raise ValidationError(
                    f"gate {gate.kind}{gate.qubits} outside {self.n}-qubit register")

    @property
    def size(self) -> int:
        return len(self.gates)

    def depth(self) -> int:
        """Order-preserving greedy layer count (upper bound on minimal depth)."""
        last_layer = [0] * self.n
        depth = 0
        for gate in self.gates:
            layer = 1 + max(last_layer[q] for q in gate.qubits)
            for q in gate.qubits:
                last_layer[q] = layer
            depth = max(depth, layer)
        return depth

    def to_json_dict(self) -> dict:
        return {"n": self.n, "gates": [_gate_to_json(g) for g in self.gates]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Circuit":
        return cls(_json_field(d, "n", int, "a circuit"),
                   _json_list(d, "gates", _gate_from_json, "a circuit"))


def _gate_to_json(gate: Gate) -> dict:
    d = {"g": gate.kind, "q": list(gate.qubits)}
    if gate.angle is not None:
        d["sign"] = gate.angle.sign
        d["t"] = gate.angle.t
    return d


def _gate_from_json(d: dict) -> Gate:
    kind = _json_field(d, "g", str, "a gate")
    angle = DyadicAngle.from_json_dict(d) if kind in ROTATION_KINDS else None
    qubits = _json_field(d, "q", lambda qs: tuple(int(q) for q in qs), "a gate")
    return Gate(kind, qubits, angle)


# --- dense gate matrices ----------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def rx_matrix(theta: float) -> np.ndarray:
    c, s_ = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s_], [-1j * s_, c]])


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense 2**arity matrix on the gate's own qubits, in listed order."""
    kind = gate.kind
    if kind == "H":
        return _H.copy()
    if kind == "X":
        return _X.copy()
    if kind == "Y":
        return _Y.copy()
    if kind == "Z":
        return _Z.copy()
    if kind == "S":
        return rz_matrix(math.pi / 2)
    if kind == "T":
        return rz_matrix(math.pi / 4)
    if kind == "RX":
        return rx_matrix(gate.angle.radians)
    if kind == "RZ":
        return rz_matrix(gate.angle.radians)
    if kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "CCZ":
        return np.diag([1, 1, 1, 1, 1, 1, 1, -1]).astype(complex)
    raise ValidationError(f"unknown gate kind {kind!r}")


# --- decomposition into the elementary gate set -----------------------------

def _cnot_gates(control: int, target: int) -> list[Gate]:
    # CNOT = H_t CZ H_t, with H expanded below by the caller
    return [h(target), cz(control, target), h(target)]


def decompose_to_gate_set(gate: Gate) -> tuple[Gate, ...]:
    """Equivalent sequence over {Rx, Rz, CZ}, equal up to global phase.

    Gates already in the set map to themselves (S and T become their Rz
    forms).  The sequence is in application order.
    """
    kind = gate.kind
    if kind in ("RX", "RZ", "CZ"):
        return (gate,)
    q = gate.qubits[0] if GATE_ARITY[kind] == 1 else None
    if kind == "S":
        return (rz(q, 1, 2),)
    if kind == "T":
        return (rz(q, 1, 3),)
    if kind == "X":
        return (rx(q, 1, 1),)
    if kind == "Z":
        return (rz(q, 1, 1),)
    if kind == "Y":
        # Rx(pi) Rz(pi) = i Y
        return (rz(q, 1, 1), rx(q, 1, 1))
    if kind == "H":
        # Rz(pi/2) Rx(pi/2) Rz(pi/2) = -i H
        return (rz(q, 1, 2), rx(q, 1, 2), rz(q, 1, 2))
    if kind == "CCZ":
        # phase exp(i*pi*abc) from the parity identity
        # 4abc = a + b + c - (a^b) - (b^c) - (a^c) + (a^b^c)
        a, b, c = gate.qubits
        seq: list[Gate] = [rz(a, 1, 3), rz(b, 1, 3), rz(c, 1, 3)]
        for ctrls, target, sign in (
            ((a,), b, -1),
            ((b,), c, -1),
            ((a,), c, -1),
            ((a, b), c, 1),
        ):
            wrap: list[Gate] = []
            for ctl in ctrls:
                wrap.extend(_cnot_gates(ctl, target))
            seq.extend(wrap)
            seq.append(rz(target, sign, 3))
            seq.extend(reversed(wrap))
        out: list[Gate] = []
        for g in seq:
            out.extend(decompose_to_gate_set(g) if g.kind == "H" else (g,))
        return tuple(out)
    raise ValidationError(f"no decomposition for kind {kind!r}")


# --- circuit families --------------------------------------------------------

IQP = "IQP"
CLIFFORD_MAGIC = "CliffordMagic"
CONJUGATED_CLIFFORD = "ConjugatedClifford"
CONSTANT_DEPTH = "ConstantDepth"
FAMILIES = (IQP, CLIFFORD_MAGIC, CONJUGATED_CLIFFORD, CONSTANT_DEPTH)

AngleSpec = Union[DyadicAngle, Sequence[DyadicAngle]]


@dataclass(frozen=True)
class IqpParams:
    diagonal: tuple[Gate, ...]


@dataclass(frozen=True)
class CliffordMagicParams:
    clifford: tuple[Gate, ...]


@dataclass(frozen=True)
class ConjugatedCliffordParams:
    phi: tuple[DyadicAngle, ...]
    theta: tuple[DyadicAngle, ...]
    clifford: tuple[Gate, ...]

    @property
    def phi_radians(self) -> float:
        return sum(a.radians for a in self.phi)

    @property
    def theta_radians(self) -> float:
        return sum(a.radians for a in self.theta)


@dataclass(frozen=True)
class ConstantDepthParams:
    depth_bound: int


FamilyParams = Union[IqpParams, CliffordMagicParams, ConjugatedCliffordParams,
                     ConstantDepthParams]


@dataclass(frozen=True)
class CtEcsDecomposition:
    """A circuit split into blocks C = V * U (U applied first)."""

    family: str
    n: int
    u_block: Circuit
    v_block: Circuit
    params: FamilyParams

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.u_block.n != self.n or self.v_block.n != self.n:
            raise ValidationError("block qubit counts disagree with n")

    @property
    def circuit(self) -> Circuit:
        """The full circuit: U's gates followed by V's gates."""
        return Circuit(self.n, self.u_block.gates + self.v_block.gates)


def build_iqp(n: int, diagonal_gates: Iterable[Gate]) -> CtEcsDecomposition:
    """H-layer, diagonal gates over {Z, CZ, CCZ}, H-layer; U = D H^n, V = H^n."""
    diagonal = tuple(diagonal_gates)
    for gate in diagonal:
        if gate.kind not in IQP_DIAGONAL_KINDS:
            raise ValidationError(
                f"IQP diagonal block accepts Z/CZ/CCZ only, got {gate.kind}")
    h_layer = tuple(h(q) for q in range(n))
    return CtEcsDecomposition(
        family=IQP,
        n=n,
        u_block=Circuit(n, h_layer + diagonal),
        v_block=Circuit(n, h_layer),
        params=IqpParams(diagonal),
    )


def build_clifford_magic(n: int, clifford_gates: Iterable[Gate]) -> CtEcsDecomposition:
    """Clifford block E after T^n H^n; U = T^n H^n, V = E."""
    clifford = tuple(clifford_gates)
    for gate in clifford:
        if gate.kind not in CLIFFORD_KINDS:
            raise ValidationError(
                f"Clifford block accepts H/S/CZ only, got {gate.kind}")
    prep = tuple(h(q) for q in range(n)) + tuple(t(q) for q in range(n))
    return CtEcsDecomposition(
        family=CLIFFORD_MAGIC,
        n=n,
        u_block=Circuit(n, prep),
        v_block=Circuit(n, clifford),
        params=CliffordMagicParams(clifford),
    )


def _as_angle_tuple(angles: AngleSpec) -> tuple[DyadicAngle, ...]:
    if isinstance(angles, DyadicAngle):
        return (angles,)
    return tuple(angles)


def build_conjugated_clifford(
    n: int,
    phi: AngleSpec,
    theta: AngleSpec,
    clifford_gates: Iterable[Gate],
) -> CtEcsDecomposition:
    """Clifford E conjugated by Rz(phi) Rx(theta) on every wire.

    ``phi`` and ``theta`` may be sequences of dyadic angles; the layer
    applies them in order, so an inverse pair expresses a zero rotation
    (single angles cannot be zero).  U = Rz(phi)^n Rx(theta)^n,
    V = Rx(-theta)^n Rz(-phi)^n E.
    """
    phi_t = _as_angle_tuple(phi)
    theta_t = _as_angle_tuple(theta)
    clifford = tuple(clifford_gates)
    for gate in clifford:
        if gate.kind not in CLIFFORD_KINDS:
            raise ValidationError(
                f"Clifford block accepts H/S/CZ only, got {gate.kind}")
    u_gates: list[Gate] = []
    for angle in theta_t:
        u_gates.extend(rx(q, angle.sign, angle.t) for q in range(n))
    for angle in phi_t:
        u_gates.extend(rz(q, angle.sign, angle.t) for q in range(n))
    v_gates: list[Gate] = list(clifford)
    for angle in reversed(phi_t):
        v_gates.extend(rz(q, -angle.sign, angle.t) for q in range(n))
    for angle in reversed(theta_t):
        v_gates.extend(rx(q, -angle.sign, angle.t) for q in range(n))
    return CtEcsDecomposition(
        family=CONJUGATED_CLIFFORD,
        n=n,
        u_block=Circuit(n, tuple(u_gates)),
        v_block=Circuit(n, tuple(v_gates)),
        params=ConjugatedCliffordParams(phi_t, theta_t, clifford),
    )


def build_constant_depth(circuit: Circuit, depth_bound: int) -> CtEcsDecomposition:
    """U = identity, V = circuit; rejects circuits deeper than the bound."""
    depth = circuit.depth()
    if depth > depth_bound:
        raise ValidationError(
            f"circuit has greedy depth {depth}, exceeding the bound {depth_bound}")
    return CtEcsDecomposition(
        family=CONSTANT_DEPTH,
        n=circuit.n,
        u_block=Circuit(circuit.n, ()),
        v_block=circuit,
        params=ConstantDepthParams(depth_bound),
    )


# --- seeded random instances -------------------------------------------------

def _random_distinct_qubits(rng: np.random.Generator, n: int, k: int) -> tuple[int, ...]:
    return tuple(int(q) for q in rng.choice(n, size=k, replace=False))


def random_iqp(
    rng: np.random.Generator, n: int, *, gate_count: int | None = None
) -> CtEcsDecomposition:
    """Random IQP instance.

    Draws ``gate_count`` diagonal gates (default 2n), each a Z, CZ or CCZ
    on uniformly random distinct qubits.  CCZ requires n >= 3 and CZ
    n >= 2; the weights of infeasible kinds are redistributed.
    """
    count = 2 * n if gate_count is None else gate_count
    wz, wcz, wccz = 0.25, 0.6, 0.15
    if n < 3:
        wccz = 0.0
    if n < 2:
        wcz = 0.0
    weights = np.array([wz, wcz, wccz], dtype=float)
    weights /= weights.sum()
    gates = []
    for _ in range(count):
        kind = rng.choice(3, p=weights)
        if kind == 0:
            gates.append(z(int(rng.integers(n))))
        elif kind == 1:
            gates.append(cz(*_random_distinct_qubits(rng, n, 2)))
        else:
            gates.append(ccz(*_random_distinct_qubits(rng, n, 3)))
    return build_iqp(n, gates)


def random_clifford_gates(
    rng: np.random.Generator, n: int, count: int
) -> tuple[Gate, ...]:
    """Uniform kinds over {H, S, CZ} on random distinct qubits."""
    gates = []
    for _ in range(count):
        kind = rng.integers(3)
        if kind == 0:
            gates.append(h(int(rng.integers(n))))
        elif kind == 1:
            gates.append(s(int(rng.integers(n))))
        elif n >= 2:
            gates.append(cz(*_random_distinct_qubits(rng, n, 2)))
        else:
            gates.append(h(0))
    return tuple(gates)


def random_clifford_magic(
    rng: np.random.Generator, n: int, *, gate_count: int | None = None
) -> CtEcsDecomposition:
    count = 3 * n if gate_count is None else gate_count
    return build_clifford_magic(n, random_clifford_gates(rng, n, count))


def random_dyadic_angle(rng: np.random.Generator) -> DyadicAngle:
    """A random sign and a uniform t in {1, 2, 3}."""
    return DyadicAngle(1 if rng.integers(2) else -1, int(rng.integers(1, 4)))


def random_conjugated_clifford(
    rng: np.random.Generator, n: int, *, gate_count: int | None = None
) -> CtEcsDecomposition:
    count = 3 * n if gate_count is None else gate_count
    return build_conjugated_clifford(
        n,
        random_dyadic_angle(rng),
        random_dyadic_angle(rng),
        random_clifford_gates(rng, n, count),
    )


_CD_SINGLE_KINDS = ("H", "S", "T", "X", "Z")


def random_constant_depth(
    rng: np.random.Generator, n: int, *, depth: int = 3
) -> CtEcsDecomposition:
    """Random depth-``depth`` circuit of disjoint layers.

    Each layer partitions a random qubit order into CZ pairs (with
    probability 1/2) and single-qubit gates of uniformly random kind from
    {H, S, T, X, Z}.
    """
    gates: list[Gate] = []
    for _ in range(depth):
        order = list(rng.permutation(n))
        while order:
            if len(order) >= 2 and rng.random() < 0.5:
                a, b = order.pop(), order.pop()
                gates.append(cz(int(a), int(b)))
            else:
                q = int(order.pop())
                kind = _CD_SINGLE_KINDS[rng.integers(len(_CD_SINGLE_KINDS))]
                gates.append(Gate(kind, (q,)))
    return build_constant_depth(Circuit(n, tuple(gates)), depth)


def random_family_instance(
    family: str, n: int, rng: np.random.Generator, **knobs
) -> CtEcsDecomposition:
    """Seeded random instance of any family; a pure function of rng state.

    Constant depth takes a ``depth`` knob, the other families a
    ``gate_count``; neither may be negative.
    """
    generator, knob = {
        IQP: (random_iqp, "gate_count"),
        CLIFFORD_MAGIC: (random_clifford_magic, "gate_count"),
        CONJUGATED_CLIFFORD: (random_conjugated_clifford, "gate_count"),
        CONSTANT_DEPTH: (random_constant_depth, "depth"),
    }.get(family, (None, None))
    if generator is None:
        raise ValidationError(f"unknown family {family!r}")
    for name, value in knobs.items():
        if name != knob:
            raise ValidationError(
                f"family {family} takes no {name!r} knob, only {knob!r}")
        if value < 0:
            raise ValidationError(f"knob {name!r} must be >= 0, got {value}")
    return generator(rng, n, **knobs)


# --- family JSON -------------------------------------------------------------

def decomposition_to_json_dict(decomp: CtEcsDecomposition) -> dict:
    d: dict = {"family": decomp.family, "n": decomp.n}
    p = decomp.params
    if isinstance(p, IqpParams):
        d["diagonal"] = [_gate_to_json(g) for g in p.diagonal]
    elif isinstance(p, CliffordMagicParams):
        d["clifford"] = [_gate_to_json(g) for g in p.clifford]
    elif isinstance(p, ConjugatedCliffordParams):
        d["phi"] = [a.to_json_dict() for a in p.phi]
        d["theta"] = [a.to_json_dict() for a in p.theta]
        d["clifford"] = [_gate_to_json(g) for g in p.clifford]
    elif isinstance(p, ConstantDepthParams):
        d["depth_bound"] = p.depth_bound
        d["gates"] = [_gate_to_json(g) for g in decomp.v_block.gates]
    return d


def decomposition_from_json_dict(d: dict) -> CtEcsDecomposition:
    what = "a family file"
    family = _json_field(d, "family", str, what)
    n = _json_field(d, "n", int, what)
    if family == IQP:
        return build_iqp(n, _json_list(d, "diagonal", _gate_from_json, what))
    if family == CLIFFORD_MAGIC:
        return build_clifford_magic(n, _json_list(d, "clifford", _gate_from_json, what))
    if family == CONJUGATED_CLIFFORD:
        return build_conjugated_clifford(
            n,
            _json_list(d, "phi", DyadicAngle.from_json_dict, what),
            _json_list(d, "theta", DyadicAngle.from_json_dict, what),
            _json_list(d, "clifford", _gate_from_json, what),
        )
    if family == CONSTANT_DEPTH:
        circuit = Circuit(n, _json_list(d, "gates", _gate_from_json, what))
        return build_constant_depth(circuit, _json_field(d, "depth_bound", int, what))
    raise ValidationError(f"unknown family {family!r}")
