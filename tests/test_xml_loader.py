"""The XML loader and DOT writer held to the per-element versions they
replaced.

``ReferenceLoader`` builds one Flow per ``<input>``/``<output>`` and
checks every element, its coeff included, as expat reports it;
``dot_by_pairs`` tests every (place, capability) pair of both matrices.
The loader under test must give, for every document, the same error
(class, message, line and column) or an equal model, and ``to_dot`` the
same bytes.
"""

import random
import re
import xml.parsers.expat

import pytest

from heconet import io
from heconet.core import (Capability, Flow, ModelError, Operand, Process,
                          ProcessKind, Resource, ResourceKind, SystemModel,
                          require_valid)
from heconet.incidence import build_incidence
from heconet.io import XmlFormatError, parse_system_xml, to_dot

from test_io import DATA, MINIMAL, sector_document


class ReferenceLoader:
    """The loader as it was before flows were held as columns."""

    def __init__(self):
        self.parser = xml.parsers.expat.ParserCreate()
        self.parser.StartElementHandler = self._start
        self.parser.EndElementHandler = self._end
        self.parser.CharacterDataHandler = self._chars
        self.stack = [None]
        self.operands = []
        self.resources = []
        self.processes = []
        self.caps = []
        self.current_process = None
        self.flows = None
        self.current_cap = None
        self.routes = None

    def _fail(self, message: str):
        raise XmlFormatError(message, self.parser.CurrentLineNumber,
                             self.parser.CurrentColumnNumber + 1)

    def _require(self, attrs: dict, name: str, attr: str) -> str:
        if attr not in attrs:
            self._fail(f"<{name}> is missing required attribute '{attr}'")
        return attrs[attr]

    def _start(self, name, attrs):
        try:
            parent, allowed, handler = _DISPATCH[name]
        except KeyError:
            self._fail(f"unknown element <{name}>")
        if parent != self.stack[-1]:
            if self.stack[-1] is None:
                self._fail(f"root element must be <system>, got <{name}>")
            self._fail(f"<{name}> is not allowed inside <{self.stack[-1]}>")
        if not allowed.issuperset(attrs):
            self._fail(f"<{name}> has unknown attribute '{sorted(set(attrs) - allowed)[0]}'")
        self.stack.append(name)
        if handler is not None:
            handler(self, name, attrs)

    def _end(self, name):
        self.stack.pop()
        if name == "process":
            self.processes.append(Process(*self.current_process, *self.flows.values()))
        elif name == "capability":
            self.caps.append((*self.current_cap, *self.routes.values()))

    def _chars(self, data):
        if not data.isspace() and data:
            self._fail(f"unexpected text content: {data.strip()[:40]!r}")

    def _on_operand(self, name, attrs):
        self.operands.append(Operand(
            self._require(attrs, name, "id"), attrs.get("name", ""), attrs.get("unit", "")))

    def _on_resource(self, name, attrs):
        kind_text = self._require(attrs, name, "kind")
        try:
            kind = ResourceKind(kind_text)
        except ValueError:
            allowed = ", ".join(k.value for k in ResourceKind)
            self._fail(f"unknown resource kind {kind_text!r}; expected one of: {allowed}")
        self.resources.append(Resource(
            self._require(attrs, name, "id"), attrs.get("name", ""), kind))

    def _on_process(self, name, attrs):
        kind_text = attrs.get("kind", ProcessKind.TRANSFORMATION.value)
        try:
            kind = ProcessKind(kind_text)
        except ValueError:
            allowed = ", ".join(k.value for k in ProcessKind)
            self._fail(f"unknown process kind {kind_text!r}; expected one of: {allowed}")
        self.current_process = (self._require(attrs, name, "id"), attrs.get("name", ""), kind)
        self.flows = {"input": [], "output": []}

    def _on_flow(self, name, attrs):
        coeff = attrs.get("coeff", "")
        if "operand" in attrs and "_" not in coeff and coeff.isascii():
            try:
                self.flows[name].append(Flow(attrs["operand"], float(coeff)))
                return
            except ValueError:
                pass
        self._require(attrs, name, "operand")
        self._fail(f"<{name}> attribute 'coeff' is not a number: "
                   f"{self._require(attrs, name, 'coeff')!r}")

    _on_input = _on_output = _on_flow

    def _on_capability(self, name, attrs):
        text = attrs.get("duration", "0")
        try:
            duration = int(io._xml_number(text))
        except ValueError:
            self._fail(f"<capability> duration is not an integer: {text!r}")
        # a missing id takes its default in build(); validate reports an empty one
        self.current_cap = (attrs.get("id"), self._require(attrs, name, "resource"),
                            self._require(attrs, name, "process"), duration)
        self.routes = {"pull": {}, "push": {}}

    def _on_route(self, name, attrs):
        self.routes[name][self._require(attrs, name, "operand")] = \
            self._require(attrs, name, "buffer")

    _on_pull = _on_push = _on_route

    def build(self) -> SystemModel:
        by_process = {p.id: p for p in self.processes}
        caps = []
        for cap_id, resource, process, duration, pull, push in self.caps:
            proc = by_process.get(process)
            if proc is not None:
                # implicit routing through the capability's own resource
                for routing, flows in ((pull, proc.inputs), (push, proc.outputs)):
                    for fl in flows:
                        routing.setdefault(fl.operand, resource)
            if cap_id is None:
                cap_id = f"{resource}:{process}"
            caps.append(Capability(cap_id, resource, process, pull, push, duration))
        return SystemModel(tuple(self.operands), tuple(self.resources),
                           tuple(self.processes), tuple(caps))


# element -> (allowed parent, allowed attributes, handler or None)
_DISPATCH = {name: (parent, allowed, getattr(ReferenceLoader, f"_on_{name}", None))
             for name, (parent, allowed) in io._SCHEMA.items()}


def reference_parse(data) -> SystemModel:
    """``parse_system_xml`` with the reference loader; a ``str`` is read
    as its UTF-8 bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    loader = ReferenceLoader()
    try:
        loader.parser.Parse(data, True)
    except xml.parsers.expat.ExpatError as exc:
        raise XmlFormatError(
            xml.parsers.expat.errors.messages[exc.code], exc.lineno, exc.offset + 1
        ) from None
    model = loader.build()
    del loader.parser
    return require_valid(model)


def dot_by_pairs(inc, name: str = "system") -> bytes:
    """Bipartite place/transition graph with one color per operand."""
    color_of = {op: io._OPERAND_COLORS[i % len(io._OPERAND_COLORS)]
                for i, op in enumerate(inc.operands)}
    lines = [f"digraph {io._dot_string(name)} {{", "  rankdir=LR;"]
    for idx, ((op, _), label) in enumerate(zip(inc.place_labels, inc.place_names)):
        lines.append(f'  p{idx} [shape=ellipse, label={io._dot_string(label)}, '
                     f'color="{color_of[op]}"];')
    for j, cap in enumerate(inc.capabilities):
        lines.append(f'  t{j} [shape=box, label={io._dot_string(cap)}];')
    row_of = inc.row_index
    for (op, buf), idx in row_of.items():
        for j in range(len(inc.capabilities)):
            if inc.m_minus[idx, j] != 0:
                lines.append(
                    f'  p{idx} -> t{j} [label="{inc.m_minus[idx, j]:g}", '
                    f'color="{color_of[op]}"];')
            if inc.m_plus[idx, j] != 0:
                lines.append(
                    f'  t{j} -> p{idx} [label="{inc.m_plus[idx, j]:g}", '
                    f'color="{color_of[op]}"];')
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --------------------------------------------------------------------------
# The loader against the reference, on seeded edits of a generated economy

NUMBERS = ["0.3x", "", " ", "1_0", "١٢", "１", "1 ", "nan", "inf", "-1",
           "1e999", "0x10", " 2.5 ", "+1", "-0", "1e-400", "Infinity", "--1", "0.25"]
DURATIONS = ["2.5", "1_0", "٣", "-1", " 3 ", "x", "", "+2", "99999999999999999999999"]
INSERTED = ["<frob/>", '<input operand="s000" coeff="1"/>', '<output coeff="2" operand="f0"/>',
            '<pull operand="s000" buffer="economy"/>', '<operand id="extra" unit="u"/>',
            '<process id="late"><output operand="f1" coeff="1"/></process>',
            '<capability resource="economy" process="p000"/>', "<system/>", "</process>"]
APPENDED = [" stray", "&amp;", "&#65;", "<![CDATA[x]]>", "<![CDATA[ \t ]]>", " ",
            "<!-- a > b -->", "<!-- a > b --> text", "<?pi data?>", "<?pi a > b?>", "&#32;"]
FLOW = re.compile(r'(\s*<(?:input|output)) operand="([^"]*)" coeff="([^"]*)"/>')


def _pick(doc, rng, prefix=""):
    return rng.choice([i for i, line in enumerate(doc)
                       if line.lstrip().startswith(prefix) and 1 < i < len(doc) - 2])


def edit(doc: list, rng: random.Random):
    """Apply one random edit, in place, to the lines of a document."""
    kind = rng.randrange(10)
    if kind == 0:                       # unknown, misplaced or repeated element
        doc.insert(_pick(doc, rng), rng.choice(INSERTED))
    elif kind == 1:
        i = _pick(doc, rng)
        doc.insert(i, doc[i])
    elif kind == 2:                     # a dropped attribute
        i = _pick(doc, rng, "<")
        names = re.findall(r' (\w+)="', doc[i])
        if names:
            doc[i] = re.sub(rf' {rng.choice(names)}="[^"]*"', "", doc[i])
    elif kind == 3:                     # an unknown attribute
        i = _pick(doc, rng, "<")
        doc[i] = re.sub(r"<(\w+)", r'<\1 weight="2"', doc[i], count=1)
    elif kind == 4:                     # coeff text
        i = _pick(doc, rng, "<input")
        doc[i] = re.sub(r'coeff="[^"]*"', f'coeff="{rng.choice(NUMBERS)}"', doc[i])
    elif kind == 5:                     # duration text
        i = _pick(doc, rng, "<capability")
        doc[i] = doc[i].replace("/>", f' duration="{rng.choice(DURATIONS)}"/>')
    elif kind == 6:                     # attributes in the other order: still valid
        i = _pick(doc, rng, "<output")
        doc[i] = FLOW.sub(r'\1 coeff="\3" operand="\2"/>', doc[i])
    elif kind == 7:                     # one route given, the others implicit
        i = _pick(doc, rng, "<capability")
        doc[i] = doc[i].replace(
            "/>", '><pull operand="f1" buffer="economy"/></capability>')
    else:                               # text, references, CDATA, comments, PIs
        i = _pick(doc, rng)
        doc[i] += rng.choice(APPENDED)


def outcome(parse, data):
    """What ``parse`` makes of ``data``: its model and the bytes it is
    written as, or its error."""
    try:
        model = parse(data)
        return model, io.write_system_xml(model)
    except (XmlFormatError, ModelError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@pytest.mark.parametrize("seed", range(30))
def test_the_loader_agrees_with_the_reference_on_edited_documents(seed):
    rng = random.Random(seed)
    for _ in range(10):
        doc = sector_document(sectors=rng.choice([4, 12]), techs=2, seed=rng.randrange(100))
        for _ in range(rng.choice([0, 1, 1, 1, 2, 3])):
            edit(doc, rng)
        text = "\n".join(doc)
        data = text if rng.random() < 0.3 else text.encode("utf-8")
        expected = outcome(reference_parse, data)
        assert outcome(parse_system_xml, data) == expected, text


def test_a_reordered_flow_loads_as_the_reference_does():
    text = MINIMAL.replace('operand="a" coeff="2.0"', 'coeff="2.0" operand="a"')
    assert parse_system_xml(text) == reference_parse(text)


def test_no_flow_is_built_from_parse_to_incidence(monkeypatch):
    import heconet.core

    def refuse(*args):
        raise AssertionError("a Flow was built")
    monkeypatch.setattr(heconet.core, "Flow", refuse)
    monkeypatch.setattr(io, "Flow", refuse, raising=False)
    inc = build_incidence(parse_system_xml("\n".join(sector_document())))
    assert inc.m_minus.shape == (63, 180)


@pytest.mark.parametrize("document", ["three_sector_economy.xml", "two_node_chain.xml", None])
def test_dot_is_the_bytes_of_the_pairwise_walk(document):
    data = (DATA / document).read_bytes() if document else "\n".join(sector_document())
    inc = build_incidence(parse_system_xml(data))
    assert to_dot(inc, "g") == dot_by_pairs(inc, "g")
