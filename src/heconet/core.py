"""Structural ontology of a hetero-functional production system.

A system is described by four kinds of elements:

* **operands** -- the things that flow (products, factors),
* **resources** -- the things that hold or move operands; transformation
  resources and independent buffers together form the buffer set,
* **processes** -- recipes that convert input operands into output
  operands with fixed per-unit coefficients,
* **capabilities** -- the pairing "resource r does process p", each with
  explicit pull/push buffers per operand and an integer duration.

Everything is immutable after construction: the routing maps of a
capability are read-only views.  :func:`validate` reports every
structural violation as data; nothing downstream accepts an invalid
model.  A model is checked once: the first :func:`validate` keeps its
verdict on the model, and later calls (from :func:`require_valid`, or
from each builder that takes the model) copy it.
"""

import functools
import itertools
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from heconet.checks import counts, read_only, set_fields


class ResourceKind(str, Enum):
    TRANSFORMATION = "transformation"
    INDEPENDENT_BUFFER = "independent-buffer"
    TRANSPORTATION = "transportation"


class ProcessKind(str, Enum):
    TRANSFORMATION = "transformation"
    REFINED_TRANSPORTATION = "refined-transportation"


# Resource kinds whose members belong to the buffer set.
BUFFER_KINDS = (ResourceKind.TRANSFORMATION, ResourceKind.INDEPENDENT_BUFFER)


@dataclass(frozen=True)
class Operand:
    """A thing that flows through the system (product or factor)."""

    id: str
    name: str = ""
    unit: str = ""


@dataclass(frozen=True)
class Flow:
    """One (operand, per-unit coefficient) stream of a process."""

    operand: str
    coeff: float


@dataclass(frozen=True, eq=False, init=False)
class Process:
    """A recipe converting input operands into output operands.

    Its flows are held as columns: ``sides`` is ``(inputs, outputs)``,
    each a tuple of operand ids and a read-only float array of their
    per-unit coefficients, in flow order.  The constructor takes Flow
    sequences and refuses a coefficient that is not a real number;
    ``inputs`` and ``outputs`` read the columns back as Flows.
    """

    id: str
    name: str
    kind: ProcessKind
    sides: tuple

    def __init__(self, id: str, name: str = "", kind: ProcessKind = ProcessKind.TRANSFORMATION,
                 inputs: tuple[Flow, ...] = (), outputs: tuple[Flow, ...] = ()):
        sides = tuple(inputs), tuple(outputs)
        for side, flows in zip(("inputs", "outputs"), sides):
            for i, fl in enumerate(flows):
                if not isinstance(fl.coeff, (int, float)) or isinstance(fl.coeff, bool):
                    raise ValueError(f"process[{id}].{side}[{i}]: coefficient must be a "
                                     f"real number, got {fl.coeff!r}")
        set_fields(self, id=id, name=name, kind=ProcessKind(kind), sides=tuple(
            (tuple(fl.operand for fl in flows),
             read_only(np.array([fl.coeff for fl in flows], dtype=float))) for flows in sides))

    @classmethod
    def from_columns(cls, id: str, name: str, kind: ProcessKind, sides: tuple) -> "Process":
        """A process that holds ``sides`` as given, in the form above."""
        proc = cls.__new__(cls)
        set_fields(proc, id=id, name=name, kind=kind, sides=sides)
        return proc

    @property
    def inputs(self) -> tuple[Flow, ...]:
        return self._flows(0)

    @property
    def outputs(self) -> tuple[Flow, ...]:
        return self._flows(1)

    def _flows(self, side: int) -> tuple[Flow, ...]:
        ops, coeffs = self.sides[side]
        return tuple(map(Flow, ops, coeffs.tolist()))

    def _key(self) -> tuple:
        return self.id, self.name, self.kind, self.inputs, self.outputs

    def __eq__(self, other):
        return other.__class__ is Process and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # through the constructor, so a copy's arrays are read-only too
        return Process, self._key()


@dataclass(frozen=True)
class Resource:
    """A holder or mover of operands."""

    id: str
    name: str = ""
    kind: ResourceKind = ResourceKind.TRANSFORMATION

    def __post_init__(self):
        set_fields(self, kind=ResourceKind(self.kind))

    @property
    def is_buffer(self) -> bool:
        return self.kind in BUFFER_KINDS


@dataclass(frozen=True)
class Capability:
    """Resource ``resource`` executes process ``process``.

    ``pull`` maps each input operand of the process to the buffer it is
    drawn from; ``push`` maps each output operand to the buffer it is
    injected into.  Both are read-only copies of the maps given.
    ``duration`` is the integer number of time steps
    between the start and the completion of one execution; 0 means the
    execution completes within the step it starts.
    """

    id: str
    resource: str
    process: str
    pull: MappingProxyType = field(default_factory=dict)
    push: MappingProxyType = field(default_factory=dict)
    duration: int = 0

    def __post_init__(self):
        set_fields(self, pull=MappingProxyType(dict(self.pull)),
                   push=MappingProxyType(dict(self.push)))


@dataclass(frozen=True)
class SystemModel:
    """A complete, self-contained system description."""

    operands: tuple[Operand, ...] = ()
    resources: tuple[Resource, ...] = ()
    processes: tuple[Process, ...] = ()
    capabilities: tuple[Capability, ...] = ()

    def __post_init__(self):
        set_fields(self, operands=tuple(self.operands), resources=tuple(self.resources),
                   processes=tuple(self.processes), capabilities=tuple(self.capabilities))

    @functools.cached_property
    def _by_id(self) -> dict:
        """Per kind, id -> the first item declared with that id."""
        return {kind: {item.id: item for item in reversed(items)}
                for kind, items in (("operand", self.operands), ("resource", self.resources),
                                    ("process", self.processes),
                                    ("capability", self.capabilities))}

    @functools.cached_property
    def _verdict(self) -> tuple:
        return tuple(_violations(self))

    def _lookup(self, kind: str, item_id: str):
        try:
            return self._by_id[kind][item_id]
        except (KeyError, TypeError):
            raise KeyError(f"no {kind} with id {item_id!r}") from None

    def operand(self, operand_id: str) -> Operand:
        return self._lookup("operand", operand_id)

    def resource(self, resource_id: str) -> Resource:
        return self._lookup("resource", resource_id)

    def process(self, process_id: str) -> Process:
        return self._lookup("process", process_id)

    def capability(self, capability_id: str) -> Capability:
        return self._lookup("capability", capability_id)


@dataclass(frozen=True)
class Violation:
    """One structural defect, addressed by a path into the model."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


class ModelError(ValueError):
    """Raised when an operation requires a valid model and gets none."""

    def __init__(self, violations: list):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"invalid system model: {lines}")


def validate(model: SystemModel) -> list[Violation]:
    """Check every structural invariant; return violations as data.

    The result is sorted lexicographically by (path, message), so it is
    deterministic and validate(m) == validate(m) byte for byte.  The
    check runs on the first call only; every call returns a fresh list.
    """
    return list(model._verdict)


def _violations(model: SystemModel) -> list[Violation]:
    out: list[Violation] = []
    _check_unique(model.operands, "operand", out)
    _check_unique(model.resources, "resource", out)
    _check_unique(model.processes, "process", out)
    _check_unique(model.capabilities, "capability", out)

    operand_ids = {o.id for o in model.operands}
    resource_ids = {r.id for r in model.resources}
    process_by_id = {p.id: p for p in model.processes}
    buffer_ids = {r.id for r in model.resources if r.is_buffer}

    for o in model.operands:
        if not o.unit:
            out.append(Violation(f"operand[{o.id}].unit", "unit must be non-empty"))

    out += [Violation(f"process[{p.id}]", "must have at least one output")
            for p in model.processes if not p.sides[1][0]]
    # the flows of all processes are checked at once; each flow is looked
    # at only if one fails
    sides = [side for p in model.processes for side in p.sides]
    coeffs = np.concatenate([np.zeros(0)] + [coeffs for _, coeffs in sides])
    if not (operand_ids.issuperset(itertools.chain.from_iterable(ops for ops, _ in sides))
            and np.all((coeffs >= 0) & (coeffs < np.inf))):
        for p in model.processes:
            for fname, (ops, coeffs) in zip(("inputs", "outputs"), p.sides):
                for i, (operand, coeff) in enumerate(zip(ops, coeffs.tolist())):
                    where = f"process[{p.id}].{fname}[{i}]"
                    if operand not in operand_ids:
                        out.append(Violation(where, f"unknown operand {operand!r}"))
                    if not 0.0 <= coeff < np.inf:
                        out.append(Violation(
                            where, f"coefficient must be finite and >= 0, got {coeff!r}"))

    if not model.capabilities:
        out.append(Violation("capabilities", "at least one capability is required"))

    # The plain case first, for all capabilities at once: known resource
    # and process, an int duration in range, and each side routed in the
    # process's flow order to buffers.  Only when that fails is each
    # capability walked for its messages.
    caps = model.capabilities
    processes = [process_by_id.get(cap.process) for cap in caps]
    if (resource_ids.issuperset(cap.resource for cap in caps)
            and None not in processes
            and all(type(cap.duration) is int and 0 <= cap.duration < 2 ** 63 for cap in caps)
            and all(tuple(routing) == ops and buffer_ids.issuperset(routing.values())
                    for cap, proc in zip(caps, processes)
                    for routing, (ops, _) in zip((cap.pull, cap.push), proc.sides))):
        caps = ()

    for cap in caps:
        where = f"capability[{cap.id}]"
        if cap.resource not in resource_ids:
            out.append(Violation(where, f"unknown resource {cap.resource!r}"))
        proc = process_by_id.get(cap.process)
        if proc is None:
            out.append(Violation(where, f"unknown process {cap.process!r}"))
        try:
            counts(cap.duration, "duration")
        except ValueError as exc:
            out.append(Violation(f"{where}.duration", str(exc)))
        for k, (side, mapping) in enumerate((("pull", cap.pull), ("push", cap.push))):
            needed = set(() if proc is None else proc.sides[k][0])
            if needed == mapping.keys() and buffer_ids.issuperset(mapping.values()):
                continue
            for operand_id in needed - mapping.keys():
                out.append(Violation(f"{where}.{side}", f"missing buffer for operand {operand_id!r}"))
            for operand_id, buffer_id in mapping.items():
                if proc is not None and operand_id not in needed:
                    out.append(Violation(f"{where}.{side}[{operand_id}]",
                                         f"operand is not {'an input' if side == 'pull' else 'an output'} of process {cap.process!r}"))
                if buffer_id not in buffer_ids:
                    out.append(Violation(f"{where}.{side}[{operand_id}]",
                                         f"{buffer_id!r} is not a buffer"))

    out.sort(key=lambda v: (v.path, v.message))
    return out


def _check_unique(items, kind, out):
    seen = set()
    for item in items:
        if not item.id:
            out.append(Violation(f"{kind}[]", "id must be non-empty"))
        elif item.id in seen:
            out.append(Violation(f"{kind}[{item.id}]", "duplicate id"))
        seen.add(item.id)


def require_valid(model: SystemModel) -> SystemModel:
    """Raise :class:`ModelError` unless the model validates cleanly."""
    violations = validate(model)
    if violations:
        raise ModelError(violations)
    return model


def buffer_set(model: SystemModel) -> list[str]:
    """Ordered buffer ids: transformation resources first, then
    independent buffers, each group in declaration order."""
    first = [r.id for r in model.resources if r.kind is ResourceKind.TRANSFORMATION]
    second = [r.id for r in model.resources if r.kind is ResourceKind.INDEPENDENT_BUFFER]
    return first + second


def capability_label(model: SystemModel, cap: Capability) -> str:
    """Human label following the subject + predicate sentence form,
    e.g. "Economy produces manufactured products"."""
    try:
        subject = model.resource(cap.resource).name or cap.resource
    except KeyError:
        subject = cap.resource
    try:
        predicate = model.process(cap.process).name or cap.process
    except KeyError:
        predicate = cap.process
    return f"{subject} {predicate}".strip()
