"""File formats: XML system descriptions, JSON incidence and scenario
documents, CSV result tables, and DOT graph export.

XML schema (all ids are non-empty strings; unknown elements and
attributes are rejected with their line and column):

    <system name="...">
      <operand id="man" name="manufactured products" unit="M$"/>
      <resource id="economy" name="Economy" kind="transformation"/>
      <process id="p1" name="..." kind="transformation">
        <input operand="man" coeff="0.35"/>
        <output operand="man" coeff="1.0"/>
      </process>
      <capability id="c1" resource="economy" process="p1" duration="0">
        <pull operand="man" buffer="economy"/>
        <push operand="man" buffer="economy"/>
      </capability>
    </system>

A capability without explicit <pull>/<push> children routes every
process input and output through its own resource, which therefore
must be a buffer.  A capability without an ``id`` is named
"resource:process"; an empty ``id`` is an error.  Writing always emits
the explicit form, so a written document re-reads to an equal model;
text that XML 1.0 cannot carry, such as a control character or a lone
surrogate, raises ``ValueError`` naming its element and attribute.

A ``coeff`` is any ASCII text Python's ``float`` reads and a
``duration`` any ASCII text ``int`` reads (surrounding whitespace and a
sign allowed), except that an underscore is rejected: ``0_5`` is not a
number, and neither are other scripts' digits such as ``١٢``.  Bytes
are read in the encoding the document declares, a ``str`` as the text
it is.  The loader keeps each process's flows as columns
(:class:`heconet.core.Process`): a well-placed ``<input>`` or
``<output>`` only adds its operand id and coeff text to two lists, and
the coefficients are read once, on arrays, after the parse.  A document
that fails a check is read again element by element, so the error
raised, with its line and column, is the first in document order.  The
model is then validated once, by :func:`heconet.core.require_valid`.

Numbers serialize with shortest round-trip decimal encoding (repr),
so JSON round-trips are bit-exact.  CSV output always uses '.' as the
decimal point, ',' as the separator, and '\\n' line endings.
"""

import csv
import io as _io
import json
import re
import warnings
import xml.parsers.expat
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from heconet.checks import (REQUIRED, JsonFormatError, as_given, checked_array,
                            checked_labels, counts, json_document, json_map,
                            json_numbers, json_object, json_strings, positive,
                            read_only)
from heconet.core import (Capability, Operand, Process, ProcessKind, Resource,
                          ResourceKind, SystemModel, require_valid)
from heconet.incidence import IncidenceMatrices
from heconet.rcot import RcotSolution

INCIDENCE_SCHEMA = "heconet-incidence/1"
SCENARIO_SCHEMA = "heconet-scenario/1"
SCHEDULE_SCHEMA = "heconet-schedule/1"


class XmlFormatError(ValueError):
    """Malformed or off-schema XML; carries a 1-based line and column."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ScenarioError(ValueError):
    pass


# --------------------------------------------------------------------------
# XML system model

# element -> (the element it must appear in, its allowed attributes)
_SCHEMA = {
    "system": (None, frozenset({"name"})),
    "operand": ("system", frozenset({"id", "name", "unit"})),
    "resource": ("system", frozenset({"id", "name", "kind"})),
    "process": ("system", frozenset({"id", "name", "kind"})),
    "input": ("process", frozenset({"operand", "coeff"})),
    "output": ("process", frozenset({"operand", "coeff"})),
    "capability": ("system", frozenset({"id", "resource", "process", "duration"})),
    "pull": ("capability", frozenset({"operand", "buffer"})),
    "push": ("capability", frozenset({"operand", "buffer"})),
}


def _xml_number(text: str) -> str:
    """``text``, or ``ValueError`` if it holds an underscore or a
    non-ASCII character: the digit separators and the Unicode digits
    that ``float`` and ``int`` accept are no XML number."""
    if "_" in text or not text.isascii():
        raise ValueError(text)
    return text


def _floats(texts: list) -> np.ndarray:
    """``texts`` as a read-only float array, or ``ValueError`` if one of
    them is no XML number."""
    _xml_number("".join(texts))
    return read_only(np.fromiter(map(float, texts), float, len(texts)))


class _XmlLoader:
    """The handlers of one expat parse of ``data``.

    Every element is checked as it starts, except, on the ``fast``
    path, an ``<input>`` or ``<output>`` in a ``<process>`` whose
    attributes are ``operand`` then ``coeff``: it only adds its operand
    id and coeff text to the flat list of its tag in ``flows``, and the
    coeff is read in :meth:`build`.  The keys of ``open`` are the open
    elements, and its ``pop`` the end handler: a name is not repeated
    along any path that ``_SCHEMA`` allows.
    """

    def __init__(self, data, fast: bool):
        self.parser = parser = xml.parsers.expat.ParserCreate()
        parser.ordered_attributes = True
        self.open = opened = {}
        self.flows = flows = {"input": [], "output": []}
        self.operands, self.resources, self.processes, self.caps = [], [], [], []

        def start(name, attrs):
            flat = flows.get(name)
            if flat is not None and len(attrs) == 4 and attrs[0] == "operand" \
                    and attrs[2] == "coeff" and len(opened) == 2 and "process" in opened:
                flat.append(attrs[1])
                flat.append(attrs[3])
                opened[name] = None
            else:
                self._start(name, attrs)

        parser.StartElementHandler = start if fast else self._start
        parser.EndElementHandler = opened.pop
        # Text outside markup follows a '>' after ASCII whitespace, or
        # hides in CDATA; a str is not scanned.
        if not fast or isinstance(data, str) or b"<![CDATA[" in data \
                or re.search(rb">[^<]", data.translate(None, b" \t\r\n")):
            parser.CharacterDataHandler = self._chars

    def _fail(self, message: str):
        raise XmlFormatError(message, self.parser.CurrentLineNumber,
                             self.parser.CurrentColumnNumber + 1)

    def _require(self, attrs: dict, name: str, attr: str) -> str:
        if attr not in attrs:
            self._fail(f"<{name}> is missing required attribute '{attr}'")
        return attrs[attr]

    def _start(self, name, attrs):
        attrs = dict(zip(attrs[::2], attrs[1::2]))
        try:
            parent, allowed, handler = _DISPATCH[name]
        except KeyError:
            self._fail(f"unknown element <{name}>")
        inner = next(reversed(self.open), None)
        if parent != inner:
            if inner is None:
                self._fail(f"root element must be <system>, got <{name}>")
            self._fail(f"<{name}> is not allowed inside <{inner}>")
        if not allowed.issuperset(attrs):
            self._fail(f"<{name}> has unknown attribute '{sorted(set(attrs) - allowed)[0]}'")
        self.open[name] = None
        if handler is not None:
            handler(self, name, attrs)

    def _chars(self, data):
        if not data.isspace() and data:
            self._fail(f"unexpected text content: {data.strip()[:40]!r}")

    def _on_operand(self, name, attrs):
        self.operands.append(Operand(
            self._require(attrs, name, "id"), attrs.get("name", ""), attrs.get("unit", "")))

    def _kind(self, kinds, text: str, what: str):
        try:
            return kinds(text)
        except ValueError:
            allowed = ", ".join(k.value for k in kinds)
            self._fail(f"unknown {what} kind {text!r}; expected one of: {allowed}")

    def _on_resource(self, name, attrs):
        kind = self._kind(ResourceKind, self._require(attrs, name, "kind"), "resource")
        self.resources.append(Resource(
            self._require(attrs, name, "id"), attrs.get("name", ""), kind))

    def _on_process(self, name, attrs):
        kind = self._kind(ProcessKind, attrs.get("kind", ProcessKind.TRANSFORMATION.value),
                          "process")
        # its flows of each tag start at the number read so far
        self.processes.append((self._require(attrs, name, "id"), attrs.get("name", ""), kind,
                               *(len(flat) // 2 for flat in self.flows.values())))

    def _on_flow(self, name, attrs):
        operand, coeff = (self._require(attrs, name, attr) for attr in ("operand", "coeff"))
        try:
            float(_xml_number(coeff))
        except ValueError:
            self._fail(f"<{name}> attribute 'coeff' is not a number: {coeff!r}")
        self.flows[name] += operand, coeff

    _on_input = _on_output = _on_flow

    def _on_capability(self, name, attrs):
        text = attrs.get("duration", "0")
        try:
            duration = int(_xml_number(text))
        except ValueError:
            self._fail(f"<capability> duration is not an integer: {text!r}")
        self.routes = {"pull": {}, "push": {}}
        # a missing id takes its default in build(); validate reports an empty one
        self.caps.append((attrs.get("id"), self._require(attrs, name, "resource"),
                          self._require(attrs, name, "process"), duration,
                          *self.routes.values()))

    def _on_route(self, name, attrs):
        self.routes[name][self._require(attrs, name, "operand")] = \
            self._require(attrs, name, "buffer")

    _on_pull = _on_push = _on_route

    def build(self) -> SystemModel:
        sides = [(tuple(flat[::2]), _floats(flat[1::2])) for flat in self.flows.values()]
        # a process's flows end where the next process's start
        ends = [header[3:] for header in self.processes[1:]] + [[len(ops) for ops, _ in sides]]
        processes = [Process.from_columns(pid, pname, kind, tuple(
            (ops[start:end], c[start:end]) for (ops, c), start, end in zip(sides, starts, stops)))
            for (pid, pname, kind, *starts), stops in zip(self.processes, ends)]
        by_process = {p.id: p for p in processes}
        caps = []
        for cap_id, resource, process, duration, pull, push in self.caps:
            proc = by_process.get(process)
            if proc is not None:
                # implicit routing through the capability's own resource:
                # the explicit routes, then each other operand in flow order
                pull, push = ({**routing, **dict.fromkeys(ops, resource), **routing}
                              for routing, (ops, _) in zip((pull, push), proc.sides))
            if cap_id is None:
                cap_id = f"{resource}:{process}"
            caps.append(Capability(cap_id, resource, process, pull, push, duration))
        return SystemModel(tuple(self.operands), tuple(self.resources),
                           tuple(processes), tuple(caps))


# element -> (allowed parent, allowed attributes, handler or None)
_DISPATCH = {name: (parent, allowed, getattr(_XmlLoader, f"_on_{name}", None))
             for name, (parent, allowed) in _SCHEMA.items()}


def parse_system_xml(data) -> SystemModel:
    """Parse an XML system description and validate the result.

    Accepts bytes, read in the encoding the document declares (UTF-8 by
    default), or str, read as the text it is.  Malformed or off-schema
    input raises XmlFormatError with line and column; a well-formed
    document whose model breaks a structural rule raises ModelError
    listing every violation.
    """
    try:
        model = _load(data, fast=True)
    except ValueError:
        # checked element by element, the first error in document order
        # is the one raised
        model = _load(data, fast=False)
    return require_valid(model)


def _load(data, fast: bool) -> SystemModel:
    loader = _XmlLoader(data, fast)
    try:
        loader.parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlFormatError(
            xml.parsers.expat.errors.messages[exc.code], exc.lineno, exc.offset + 1
        ) from None
    model = loader.build()
    # The parser's handlers refer back to the loader: dropping the parser
    # frees the loader and all it built now, not at a later cyclic collection.
    del loader.parser
    return model


_ATTR_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;",
                               "\n": "&#10;", "\r": "&#13;", "\t": "&#9;"})


def _attr(name: str, value: str) -> str:
    # the bytes of xml.sax.saxutils.quoteattr, whose import pulls in urllib
    value = value.translate(_ATTR_ESCAPES)
    if '"' in value and "'" in value:
        value = value.replace('"', "&quot;")
    quote = "'" if '"' in value else '"'
    return f" {name}={quote}{value}{quote}"


# what XML 1.0 cannot carry, not even as a character reference
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def write_system_xml(model: SystemModel) -> bytes:
    """Serialize a model; parse_system_xml on the result reproduces it.
    Text that XML 1.0 cannot carry raises ValueError naming its element
    and attribute."""
    where = ""

    def attr(name: str, value: str) -> str:
        bad = _NOT_XML.search(value)
        if bad:
            raise ValueError(f"{where} attribute {name!r} holds {bad.group()!r}, "
                             "which XML 1.0 cannot carry")
        return _attr(name, value)

    out = ["<?xml version='1.0' encoding='utf-8'?>", "<system>"]
    for op in model.operands:
        where = f"<operand> {op.id!r}"
        line = f"  <operand{attr('id', op.id)}"
        if op.name:
            line += attr("name", op.name)
        if op.unit:
            line += attr("unit", op.unit)
        out.append(line + "/>")
    for res in model.resources:
        where = f"<resource> {res.id!r}"
        line = f"  <resource{attr('id', res.id)}"
        if res.name:
            line += attr("name", res.name)
        out.append(line + attr("kind", res.kind.value) + "/>")
    for proc in model.processes:
        where = f"<process> {proc.id!r}"
        line = f"  <process{attr('id', proc.id)}"
        if proc.name:
            line += attr("name", proc.name)
        out.append(line + attr("kind", proc.kind.value) + ">")
        for tag, (ops, coeffs) in zip(("input", "output"), proc.sides):
            where = f"<{tag}> of process {proc.id!r}"
            out += [f"    <{tag}{attr('operand', op)}{attr('coeff', repr(coeff))}/>"
                    for op, coeff in zip(ops, coeffs.tolist())]
        out.append("  </process>")
    for cap in model.capabilities:
        where = f"<capability> {cap.id!r}"
        line = (f"  <capability{attr('id', cap.id)}{attr('resource', cap.resource)}"
                f"{attr('process', cap.process)}")
        if cap.duration:
            line += attr("duration", str(counts(cap.duration, "duration")))
        out.append(line + ">")
        for tag, routing in (("pull", cap.pull), ("push", cap.push)):
            where = f"<{tag}> of capability {cap.id!r}"
            out += [f"    <{tag}{attr('operand', operand)}{attr('buffer', buffer)}/>"
                    for operand, buffer in routing.items()]
        out.append("  </capability>")
    out.append("</system>")
    return ("\n".join(out) + "\n").encode("utf-8")


# --------------------------------------------------------------------------
# Incidence JSON

def write_incidence_json(inc: IncidenceMatrices) -> bytes:
    if inc.n_places == 0 or len(inc.capabilities) == 0:
        raise ValueError(
            f"refusing to serialize a degenerate {inc.m_plus.shape} incidence")
    doc = {
        "schema": INCIDENCE_SCHEMA,
        "operands": list(inc.operands),
        "buffers": list(inc.buffers),
        "capabilities": list(inc.capabilities),
        "shape": [inc.n_places, len(inc.capabilities)],
        "m_plus": inc.m_plus.tolist(),
        "m_minus": inc.m_minus.tolist(),
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


_LABELS = (json_strings, REQUIRED)
# the matrices are read once their shape is known
_INCIDENCE = {"operands": _LABELS, "buffers": _LABELS, "capabilities": _LABELS,
              "shape": (partial(counts, shape=(2,)), REQUIRED),
              "m_plus": (as_given, REQUIRED), "m_minus": (as_given, REQUIRED)}


def read_incidence_json(data) -> IncidenceMatrices:
    doc = json_document(data, "incidence", _INCIDENCE, JsonFormatError, INCIDENCE_SCHEMA)
    operands, buffers, capabilities = doc["operands"], doc["buffers"], doc["capabilities"]
    rows, cols = shape = doc["shape"].tolist()
    if rows == 0 or cols == 0:
        raise JsonFormatError(f"degenerate incidence shape {shape}")
    if rows != len(operands) * len(buffers):
        raise JsonFormatError(
            f"shape {shape} disagrees with {len(operands)} operands x {len(buffers)} buffers")
    if cols != len(capabilities):
        raise JsonFormatError(f"shape {shape} disagrees with {len(capabilities)} capabilities")
    m_plus, m_minus = (json_numbers(doc[key], f"incidence {key!r}", (rows, cols),
                                    JsonFormatError) for key in ("m_plus", "m_minus"))
    return IncidenceMatrices(
        m_plus=m_plus, m_minus=m_minus, operands=tuple(operands), buffers=tuple(buffers),
        capabilities=tuple(capabilities))


# --------------------------------------------------------------------------
# Scenario JSON

@dataclass(frozen=True, eq=False)
class Scenario:
    """Economic data for one solve: named demand, factor availability and
    prices, plus optional horizon/boundary/pin data for time-domain runs
    (``boundary`` and ``pins`` map names to float arrays, NaN = free)."""

    demand: dict
    availability: dict
    prices: dict
    horizon: int = 1
    dt: float = 1.0
    boundary: dict = field(default_factory=dict)
    pins: dict = field(default_factory=dict)


_FREE = partial(json_numbers, null_ok=True)     # a null entry is NaN: left free
_BOUNDARY = {key: (partial(_FREE, shape=(None,)), None)
             for key in ("q_b_initial", "q_e_initial", "q_b_final", "q_e_final")}
_AMOUNTS = (partial(json_map, read=partial(json_numbers, shape=(), nonneg=True)), REQUIRED)
_PINS = {"u_minus": (partial(_FREE, shape=(None, None)), None)}
_SCENARIO = {"demand": _AMOUNTS, "availability": _AMOUNTS, "prices": _AMOUNTS,
             "horizon": (partial(counts, minimum=1), 1), "dt": (positive, 1.0),
             "boundary": (partial(json_object, fields=_BOUNDARY), None),
             "pins": (partial(json_object, fields=_PINS), None)}


def load_scenario(data) -> Scenario:
    """Read a scenario document.

    ``boundary`` may hold the vectors ``q_b_initial``, ``q_e_initial``,
    ``q_b_final`` and ``q_e_final``, and ``pins`` the matrix ``u_minus``
    with ``horizon`` rows; a null entry is free.  Their widths are
    checked against the model when the time-domain problem is built.
    """
    doc = json_document(data, "scenario", _SCENARIO, ScenarioError, SCENARIO_SCHEMA)
    if set(doc["availability"]) != set(doc["prices"]):
        raise ScenarioError(
            "scenario 'availability' and 'prices' must name the same factors")
    overlap = set(doc["demand"]) & set(doc["availability"])
    if overlap:
        raise ScenarioError(
            f"operands cannot be both products and factors: {sorted(overlap)}")
    horizon, pins = doc["horizon"], doc.get("pins", {})
    if "u_minus" in pins and len(pins["u_minus"]) != horizon:
        raise ScenarioError(f"scenario 'pins'['u_minus'] must be a list of {horizon} rows")
    return Scenario(**doc)


def vectors_from_scenario(model: SystemModel, scenario: Scenario):
    """Order scenario data by the model's operand declaration order.

    Returns (y, f, pi, product_ids, factor_ids).  Products must be
    declared before factors so that incidence rows split cleanly.
    """
    ids = [op.id for op in model.operands]
    missing = (set(scenario.demand) | set(scenario.availability)) - set(ids)
    if missing:
        raise ScenarioError(f"scenario names unknown operands: {sorted(missing)}")
    uncovered = set(ids) - set(scenario.demand) - set(scenario.availability)
    if uncovered:
        raise ScenarioError(
            f"scenario covers neither demand nor availability for: {sorted(uncovered)}")
    products = [i for i in ids if i in scenario.demand]
    factors = [i for i in ids if i in scenario.availability]
    if ids != products + factors:
        raise ScenarioError(
            "operands must be declared products first, then factors; "
            f"declaration order is {ids}")
    y = np.array([scenario.demand[i] for i in products])
    f = np.array([scenario.availability[i] for i in factors])
    pi = np.array([scenario.prices[i] for i in factors])
    return y, f, pi, tuple(products), tuple(factors)


_MARKING = (partial(json_numbers, shape=(None,)), None)
_SCHEDULE = {"u_minus": (partial(json_numbers, shape=(None, None)), REQUIRED),
             "q_b": _MARKING, "q_e": _MARKING, "dt": (positive, None)}


def load_schedule(data):
    """Read a firing schedule: {"schema": ..., "u_minus": [[...], ...],
    optional "q_b"/"q_e" initial marking vectors, optional "dt"}.

    Returns (u_minus, q_b0 or None, q_e0 or None, dt or None).
    """
    doc = json_document(data, "schedule", _SCHEDULE, JsonFormatError, SCHEDULE_SCHEMA)
    return doc["u_minus"], doc.get("q_b"), doc.get("q_e"), doc.get("dt")


# --------------------------------------------------------------------------
# Result tables

def _csv_bytes(rows) -> bytes:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def emit_results_csv(solution: RcotSolution) -> bytes:
    """Tabulate an optimal technology-choice solution.

    Per-capability rows carry the activity value and its share of the
    summed activity; then one objective row and one use row per factor.
    """
    if solution.status.value != "optimal":
        raise ValueError(f"cannot tabulate a {solution.status.value} solution")
    total = float(np.sum(solution.x_star))
    if total == 0.0:
        warnings.warn("all capability values are zero; percent column is 0.0%",
                      RuntimeWarning, stacklevel=2)
    labels = checked_labels(solution.tech_labels, "tech_labels", len(solution.x_star), "u")
    rows = [["capability", "value", "percent"]]
    for label, value in zip(labels, solution.x_star):
        pct = 100.0 * value / total if total else 0.0
        rows.append([label, f"{value:.4f}", f"{pct:.1f}%"])
    rows.append(["objective", f"{solution.z:.4f}", ""])
    factors = checked_labels(solution.factor_labels, "factor_labels", len(solution.phi), "f")
    for label, value in zip(factors, solution.phi):
        rows.append([f"use:{label}", f"{value:.4f}", ""])
    return _csv_bytes(rows)


def emit_results_json(solution: RcotSolution) -> bytes:
    doc = {
        "status": solution.status.value,
        "objective": None if np.isnan(solution.z) else float(solution.z),
        "x": {label: float(v) for label, v in zip(solution.tech_labels, solution.x_star)},
        "factor_use": {label: float(v)
                       for label, v in zip(solution.factor_labels, solution.phi)},
        "binding": {label: float(v)
                    for label, v in zip(solution.row_labels, solution.binding)},
        "iterations": solution.iterations,
    }
    if solution.status.value != "optimal":
        doc["x"] = {}
        doc["factor_use"] = {}
        doc["binding"] = {}
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def emit_chord_csv(a_star, sector_labels=(), tech_labels=(),
                   nonzero_only: bool = False) -> bytes:
    """Long-format edge list of a transaction matrix for chord tooling."""
    a_star = checked_array(a_star, "a_star", (None, None))
    n, t = a_star.shape
    sector_labels = checked_labels(sector_labels, "sector_labels", n, "s")
    tech_labels = checked_labels(tech_labels, "tech_labels", t, "t")
    rows = [["source", "target", "coefficient"]]
    for i in range(n):
        for j in range(t):
            if nonzero_only and a_star[i, j] == 0.0:
                continue
            rows.append([sector_labels[i], tech_labels[j], repr(float(a_star[i, j]))])
    return _csv_bytes(rows)


def emit_trajectory_csv(q_b, q_e, place_labels, transition_labels) -> bytes:
    """Wide-format marking trajectory: one row per step k = 0..K; values
    are ``repr`` of the float, the shortest text that reads back exactly."""
    header = ["step"] + [f"qB:{p}" for p in place_labels] \
        + [f"qE:{t}" for t in transition_labels]
    table = np.hstack([np.asarray(q_b, dtype=float), np.asarray(q_e, dtype=float)])
    buf = _io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(header)
    buf.writelines(",".join([str(k), *map(repr, row.tolist())]) + "\n"
                   for k, row in enumerate(table))
    return buf.getvalue().encode("utf-8")


def emit_full_json(sol) -> bytes:
    """Serialize a solved time-domain program (FullSolution)."""
    doc = {"status": sol.status.value,
           "objective": None if np.isnan(sol.objective) else float(sol.objective)}
    if sol.infeasible_rows:
        doc["infeasible_rows"] = list(sol.infeasible_rows)
    if sol.status.value == "optimal":
        for name in sol.layout.families:
            arr = getattr(sol, name)
            if arr.size:
                doc[name] = arr.tolist()
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


# --------------------------------------------------------------------------
# DOT export

_OPERAND_COLORS = ("#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2",
                   "#b279a2", "#eeca3b", "#9d755d")


def _dot_string(text: str) -> str:
    """``text`` as a DOT quoted string: JSON quoting, whose ``\\"`` escape
    DOT reads, with non-ASCII characters kept as they are."""
    return json.dumps(text, ensure_ascii=False)


def to_dot(inc: IncidenceMatrices, name: str = "system") -> bytes:
    """Bipartite place/transition graph with one color per operand."""
    color_of = {op: _OPERAND_COLORS[i % len(_OPERAND_COLORS)]
                for i, op in enumerate(inc.operands)}
    lines = [f"digraph {_dot_string(name)} {{", "  rankdir=LR;"]
    for idx, ((op, _), label) in enumerate(zip(inc.place_labels, inc.place_names)):
        lines.append(f'  p{idx} [shape=ellipse, label={_dot_string(label)}, '
                     f'color="{color_of[op]}"];')
    for j, cap in enumerate(inc.capabilities):
        lines.append(f'  t{j} [shape=box, label={_dot_string(cap)}];')
    rows, cols = np.nonzero((inc.m_minus != 0) | (inc.m_plus != 0))
    m_minus, m_plus = inc.m_minus[rows, cols].tolist(), inc.m_plus[rows, cols].tolist()
    for idx, j, minus, plus in zip(rows.tolist(), cols.tolist(), m_minus, m_plus):
        color = color_of[inc.operands[idx // len(inc.buffers)]]
        if minus != 0:
            lines.append(f'  p{idx} -> t{j} [label="{minus:g}", color="{color}"];')
        if plus != 0:
            lines.append(f'  t{j} -> p{idx} [label="{plus:g}", color="{color}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")
