"""Seeded input generators, timed operations and oracles of the four
benchmark workloads.

Each workload is an object with the same five steps:

* ``generate(seed, outdir, root)`` writes the inputs of a run and
  returns its manifest (a JSON-able dict).  It runs in the run.py
  process, before the workload process starts, so generation never
  shows in the workload's time or memory.
* ``warmup(root, outdir)`` writes the manifest of the untimed warm-up
  operation, which runs on the bundled three-sector data.
* ``load(entry)`` turns one manifest instance into ready arguments
  (untimed).
* ``operate(instance)`` is the timed operation.
* ``check(entry, instance, output)`` is the oracle: it raises
  :class:`OracleFailure` when the output is wrong.  It runs after the
  clock stops.

The generators use ``heconet`` only to compute reference answers (rcot
optima) and to render bundled data; the program under test sees
nothing but the files they write.
"""

import contextlib
import io as _io
import json
import re
import warnings
from pathlib import Path

import numpy as np

DATA = Path("src") / "heconet" / "data"
BUNDLED_XML = "three_sector_economy.xml"
BUNDLED_SCENARIO = "three_sector_scenario.json"

# Tolerances of the cross-view identities.  They are the package's own
# contract values (ROADMAP, acceptance criteria), not tuned to the
# benchmark.
OBJECTIVE_RTOL = 1e-9
LEONTIEF_RTOL = 1e-9
MARKING_RTOL = 1e-8


class OracleFailure(AssertionError):
    """An operation returned a wrong answer."""


def _require(condition: bool, message: str):
    if not condition:
        raise OracleFailure(message)


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * max(1.0, abs(expected))


def _write_json(path: Path, doc) -> int:
    data = (json.dumps(doc) + "\n").encode("utf-8")
    path.write_bytes(data)
    return len(data)


def cli_call(args) -> int:
    """Run the heconet CLI in this process; return its exit code.

    Uncaught exceptions propagate: the caller counts them as failures.
    """
    from heconet.cli import main
    try:
        main.main(list(args), prog_name="heconet", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


class Bundled:
    """The bundled three-sector economy, parsed by heconet."""

    def __init__(self, root: Path):
        from heconet import io as hio
        from heconet.incidence import build_incidence
        self.xml = root / DATA / BUNDLED_XML
        self.scenario = root / DATA / BUNDLED_SCENARIO
        self.model = hio.parse_system_xml(self.xml.read_bytes())
        scenario = hio.load_scenario(self.scenario.read_bytes())
        self.y, self.f, self.pi, self.products, _ = hio.vectors_from_scenario(self.model, scenario)
        self.inc = build_incidence(self.model)
        n = len(self.y)
        self.a = self.inc.m_minus[:n]
        self.owner = np.argmax(self.inc.m_plus[:n], axis=0)


def _rcot_solution(inc, y, f, pi):
    """Status and optimum of the static economy (the rcot view)."""
    from heconet import rcot
    sol = rcot.solve_rcot(rcot.instance_from_incidence(inc, len(y), y, f, pi))
    return sol.status.value, float(sol.z)


# --------------------------------------------------------------------------
# Time-expanded program (horizon, infeasible)


def time_expanded_problem(inc, durations, y, f, pi, horizon: int):
    """The economy as a full discrete-time program over ``horizon`` steps.

    The initial place marking is the deficit [-y; f], no tokens are in
    flight at the start or the end, the final place markings are >= 0,
    and every start firing is charged the factor cost pi'F*.  Its
    optimum equals the static (rcot) optimum for any horizon longer
    than the largest duration.
    """
    from heconet import hfnmcf, petri
    net = petri.EngineeringSystemNet(incidence=inc, durations=np.asarray(durations))
    layout = hfnmcf.variable_layout(net, (), horizon)
    unit_cost = np.asarray(pi) @ inc.m_minus[len(y):]
    cost = np.zeros(layout.size)
    for k in range(horizon):
        cost[layout.u_minus(k)] = unit_cost
    lower, upper = hfnmcf.default_bounds(layout)
    lower[layout.q_b(horizon)] = 0.0
    boundary = hfnmcf.BoundaryConditions(
        q_b_initial=np.concatenate([-np.asarray(y), np.asarray(f)]),
        q_e_initial=np.zeros(net.n_transitions),
        q_e_final=np.zeros(net.n_transitions))
    return hfnmcf.HfnmcfProblem(net=net, horizon=horizon, linear_cost=cost,
                                boundary=boundary, lower=lower, upper=upper)


class Horizon:
    """``hfnmcf.solve_full`` on the three-sector economy at K=40."""

    name = "horizon"
    pool = 1
    horizon = 40

    def _entry(self, bundled: Bundled, durations, y, f, pi, horizon: int) -> dict:
        status, z = _rcot_solution(bundled.inc, y, f, pi)
        return {"xml": str(bundled.xml), "durations": [int(d) for d in durations],
                "y": [float(v) for v in y], "f": [float(v) for v in f],
                "pi": [float(v) for v in pi], "horizon": horizon,
                "rcot_status": status, "rcot_objective": z}

    def draw(self, rng, bundled: Bundled):
        durations = rng.integers(1, 3, size=len(bundled.owner))
        y = bundled.y * rng.uniform(0.85, 1.0, size=bundled.y.shape)
        return durations, y, bundled.f, bundled.pi

    def generate(self, seed: int, outdir: Path, root: Path) -> dict:
        from heconet import hfnmcf
        rng = np.random.default_rng(seed)
        bundled = Bundled(root)
        instances = [self._entry(bundled, *self.draw(rng, bundled), self.horizon)
                     for _ in range(self.pool)]
        program = hfnmcf.build_full(self.load(instances[0]))
        sizes = {"horizon": self.horizon, "places": bundled.inc.n_places,
                 "transitions": len(bundled.owner), "lp_rows": program.n_rows,
                 "lp_vars": program.n_vars,
                 "lp_nonzeros": int(np.count_nonzero(program.rows)),
                 "lp_dense_bytes": int(program.rows.nbytes)}
        return {"workload": self.name, "seed": seed, "instances": instances, "sizes": sizes}

    def warmup(self, root: Path, outdir: Path) -> dict:
        bundled = Bundled(root)
        ones = np.ones(len(bundled.owner), dtype=int)
        entry = self._entry(bundled, ones, bundled.y, bundled.f, bundled.pi, 2)
        return {"workload": self.name, "seed": None, "instances": [entry], "sizes": {}}

    def load(self, entry: dict):
        from heconet import io as hio
        from heconet.incidence import build_incidence
        model = hio.parse_system_xml(Path(entry["xml"]).read_bytes())
        return time_expanded_problem(
            build_incidence(model), entry["durations"], np.array(entry["y"]),
            np.array(entry["f"]), np.array(entry["pi"]), entry["horizon"])

    def operate(self, problem):
        from heconet import hfnmcf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return hfnmcf.solve_full(problem)

    def check(self, entry: dict, problem, sol):
        _require(entry["rcot_status"] == "optimal", "reference rcot is not optimal")
        _require(sol.status.value == "optimal", f"status {sol.status.value}, expected optimal")
        _require(_close(sol.objective, entry["rcot_objective"], OBJECTIVE_RTOL),
                 f"objective {sol.objective!r} != rcot {entry['rcot_objective']!r}")


class Infeasible(Horizon):
    """``hfnmcf.solve_full`` with its default infeasibility diagnosis, on
    the horizon construction at K=8 with water availability cut."""

    name = "infeasible"
    horizon = 8

    def _entry(self, bundled: Bundled, durations, y, f, pi, horizon: int) -> dict:
        # Cut the last factor (water) until the static economy is
        # infeasible; the time-expanded program is then infeasible too.
        f = np.array(f, dtype=float)
        while _rcot_solution(bundled.inc, y, f, pi)[0] == "optimal":
            f[-1] *= 0.9
        return super()._entry(bundled, durations, y, f, pi, horizon)

    def draw(self, rng, bundled: Bundled):
        durations, y, f, pi = super().draw(rng, bundled)
        cut = np.ones_like(f)
        cut[-1] = rng.uniform(0.6, 0.9)
        return durations, y, f * cut, pi

    def check(self, entry: dict, problem, sol):
        from heconet import hfnmcf, lp
        _require(entry["rcot_status"] == "infeasible", "reference rcot is not infeasible")
        _require(sol.status.value == "infeasible",
                 f"status {sol.status.value}, expected infeasible")
        witness = set(sol.infeasible_rows)
        _require(bool(witness), "empty infeasibility witness")
        program = hfnmcf.build_full(problem)
        keep = [i for i, label in enumerate(program.row_labels) if label in witness]
        _require(len(keep) == len(witness), "witness names rows the program does not have")
        sub = lp.LinearProgram(
            cost=program.cost, rows=program.rows[keep],
            senses=tuple(program.senses[i] for i in keep), rhs=program.rhs[keep],
            lower=program.lower, upper=program.upper)
        _require(not lp.feasible(sub), "witness rows alone are feasible")


# --------------------------------------------------------------------------
# Generated economies (economy, simulate)


def random_economy(rng, sectors: int, techs: int, factors: int, density: float):
    """A productive economy with ``techs`` technologies per sector.

    Returns (a, fmat, owner): input coefficients (sectors x n_tech),
    factor use (factors x n_tech) and the sector of each technology,
    sector-major.  Every column of ``a`` sums to at most 0.7, so every
    choice of one technology per sector is productive.
    """
    n_tech = sectors * techs
    mask = rng.random((sectors, n_tech)) < density
    a = np.where(mask, rng.uniform(0.1, 1.0, size=(sectors, n_tech)), 0.0)
    col = a.sum(axis=0)
    col[col == 0.0] = 1.0
    a *= rng.uniform(0.2, 0.7, size=n_tech) / col
    fmat = rng.uniform(0.5, 3.0, size=(factors, n_tech))
    return a, fmat, np.arange(n_tech) // techs


def economy_xml(a, fmat, owner, durations=None) -> bytes:
    """Render an economy as heconet system XML: products s000.., factors
    f0.., one process and one capability per technology."""
    sectors, n_tech = a.shape
    out = ["<?xml version='1.0' encoding='utf-8'?>", '<system name="generated">']
    out += [f'  <operand id="s{i:03d}" name="sector {i}" unit="M$"/>' for i in range(sectors)]
    out += [f'  <operand id="f{i}" name="factor {i}" unit="u"/>' for i in range(fmat.shape[0])]
    out.append('  <resource id="economy" name="Economy" kind="transformation"/>')
    for j in range(n_tech):
        out.append(f'  <process id="p{j:03d}" name="technology {j} of sector {owner[j]}">')
        out += [f'    <input operand="s{i:03d}" coeff="{float(a[i, j])!r}"/>'
                for i in np.flatnonzero(a[:, j])]
        out += [f'    <input operand="f{i}" coeff="{float(v)!r}"/>' for i, v in enumerate(fmat[:, j])]
        out.append(f'    <output operand="s{owner[j]:03d}" coeff="1.0"/>')
        out.append("  </process>")
    for j in range(n_tech):
        duration = "" if durations is None else f' duration="{int(durations[j])}"'
        out.append(f'  <capability id="c{j:03d}" resource="economy" process="p{j:03d}"{duration}/>')
    out.append("</system>")
    return ("\n".join(out) + "\n").encode("utf-8")


def economy_scenario(y, f, pi) -> dict:
    return {"schema": "heconet-scenario/1",
            "demand": {f"s{i:03d}": float(v) for i, v in enumerate(y)},
            "availability": {f"f{i}": float(v) for i, v in enumerate(f)},
            "prices": {f"f{i}": float(v) for i, v in enumerate(pi)}}


def _first_technologies(owner, sectors: int) -> np.ndarray:
    return np.array([np.flatnonzero(owner == s)[0] for s in range(sectors)])


class Economy:
    """In-process CLI: ``rcot`` and ``hfnmcf-static`` on a 60-sector
    economy, then ``leontief`` on its square sub-economy."""

    name = "economy"
    pool = 40
    sectors, techs, factors, density = 60, 3, 3, 0.4

    def _instance(self, d: Path, rng) -> dict:
        d.mkdir(parents=True, exist_ok=True)
        a, fmat, owner = random_economy(rng, self.sectors, self.techs, self.factors,
                                        self.density)
        y = rng.uniform(5.0, 50.0, size=self.sectors)
        pi = rng.uniform(0.5, 2.0, size=self.factors)
        first = _first_technologies(owner, self.sectors)
        x_ref = np.linalg.solve(np.eye(self.sectors) - a[:, first], y)
        # Availability covers the first-technology plan, so every
        # generated economy is feasible.  With at least 1.5 times that
        # use, factor rows rarely bind: a tighter margin makes Bland's
        # rule take long, seed-dependent pivot runs on a few economies
        # (pivot count CV 0.25 instead of 0.14), and the median of a
        # run then follows the seed's draw more than the program.
        f = fmat[:, first] @ x_ref * rng.uniform(1.5, 2.5, size=self.factors)
        xml = economy_xml(a, fmat, owner)
        (d / "model.xml").write_bytes(xml)
        (d / "square.xml").write_bytes(
            economy_xml(a[:, first], fmat[:, first], np.arange(self.sectors)))
        scenario_bytes = _write_json(d / "scenario.json", economy_scenario(y, f, pi))
        return {"dir": str(d), "model": str(d / "model.xml"), "square": str(d / "square.xml"),
                "scenario": str(d / "scenario.json"),
                "products": [f"s{i:03d}" for i in range(self.sectors)],
                "a_square": a[:, first].tolist(), "y": y.tolist(),
                "xml_bytes": len(xml), "scenario_bytes": scenario_bytes}

    def generate(self, seed: int, outdir: Path, root: Path) -> dict:
        rng = np.random.default_rng(seed)
        instances = [self._instance(outdir / f"economy{p}", rng) for p in range(self.pool)]
        sizes = {"sectors": self.sectors, "technologies": self.sectors * self.techs,
                 "factors": self.factors, "lp_rows": self.sectors + self.factors,
                 "lp_vars": self.sectors * self.techs,
                 "xml_bytes": instances[0]["xml_bytes"],
                 "scenario_bytes": instances[0]["scenario_bytes"]}
        return {"workload": self.name, "seed": seed, "instances": instances, "sizes": sizes}

    def warmup(self, root: Path, outdir: Path) -> dict:
        from heconet import io as hio
        from heconet.core import SystemModel
        bundled = Bundled(root)
        outdir.mkdir(parents=True, exist_ok=True)
        first = _first_technologies(bundled.owner, len(bundled.y))
        caps = tuple(bundled.model.capabilities[j] for j in first)
        keep = {cap.process for cap in caps}
        square = SystemModel(bundled.model.operands, bundled.model.resources,
                             tuple(p for p in bundled.model.processes if p.id in keep), caps)
        (outdir / "square.xml").write_bytes(hio.write_system_xml(square))
        entry = {"dir": str(outdir), "model": str(bundled.xml),
                 "square": str(outdir / "square.xml"), "scenario": str(bundled.scenario),
                 "products": list(bundled.products), "a_square": bundled.a[:, first].tolist(),
                 "y": bundled.y.tolist()}
        return {"workload": self.name, "seed": None, "instances": [entry], "sizes": {}}

    def load(self, entry: dict):
        d = Path(entry["dir"])
        outputs = (d / "rcot.json", d / "static.json", d / "leontief.json")
        models = (entry["model"], entry["model"], entry["square"])
        return [["--format", "json", "--output", str(out), cmd, model, entry["scenario"]]
                for out, cmd, model in zip(outputs, ("rcot", "hfnmcf-static", "leontief"),
                                           models)]

    def operate(self, calls):
        return [cli_call(args) for args in calls]

    def check(self, entry: dict, calls, codes):
        docs = []
        for args in calls:
            path = Path(args[3])
            docs.append(json.loads(path.read_text()) if path.exists() else None)
            path.unlink(missing_ok=True)
        self.check_outputs(entry, codes, *docs)

    def check_outputs(self, entry: dict, codes, rcot_doc, static_doc, leontief_doc):
        _require(list(codes) == [0, 0, 0], f"exit codes {list(codes)}, expected [0, 0, 0]")
        _require(None not in (rcot_doc, static_doc, leontief_doc), "missing output file")
        for what, doc in (("rcot", rcot_doc), ("hfnmcf-static", static_doc)):
            _require(doc["status"] == "optimal", f"{what} status {doc['status']}")
        _require(_close(static_doc["objective"], rcot_doc["objective"], OBJECTIVE_RTOL),
                 f"static objective {static_doc['objective']!r} != rcot {rcot_doc['objective']!r}")
        a = np.array(entry["a_square"])
        y = np.array(entry["y"])
        x = np.array([leontief_doc["x"][p] for p in entry["products"]])
        residual = float(np.max(np.abs(x - a @ x - y)))
        bound = LEONTIEF_RTOL * (1.0 + float(np.max(np.abs(y))))
        _require(residual <= bound, f"Leontief residual {residual:.3e} > {bound:.3e}")


class Simulate:
    """In-process CLI ``simulate`` with CSV output over 10,000 steps."""

    name = "simulate"
    pool = 1
    sectors, techs, factors, density = 20, 3, 3, 0.4
    steps, max_duration, start_share = 10_000, 3, 0.5

    def _instance(self, d: Path, rng, model: Path, m_plus, m_minus, durations, steps) -> dict:
        n_places, n_trans = m_minus.shape
        schedule = np.where(rng.random((steps, n_trans)) < self.start_share,
                            rng.uniform(0.0, 1.0, size=(steps, n_trans)), 0.0)
        q_b0 = rng.uniform(0.0, 100.0, size=n_places)
        q_e0 = np.zeros(n_trans)
        schedule_bytes = _write_json(d / "schedule.json", {
            "schema": "heconet-schedule/1", "dt": 1.0, "q_b": q_b0.tolist(),
            "q_e": q_e0.tolist(), "u_minus": schedule.tolist()})
        # Expected final state from the duration rule u_plus[k+d] = u_minus[k]:
        # starts in the last d steps of a transition never complete.
        ends = [max(steps - int(dur), 0) for dur in durations]
        started = schedule.sum(axis=0)
        completed = np.array([schedule[:end, j].sum() for j, end in enumerate(ends)])
        dropped = sum(int(np.count_nonzero(schedule[end:, j])) for j, end in enumerate(ends))
        return {"model": str(model), "schedule": str(d / "schedule.json"),
                "out": str(d / "trajectory.csv"), "steps": steps,
                "final_q_b": (q_b0 + m_plus @ completed - m_minus @ started).tolist(),
                "final_q_e": (q_e0 + started - completed).tolist(),
                "dropped": dropped, "schedule_bytes": schedule_bytes}

    def generate(self, seed: int, outdir: Path, root: Path) -> dict:
        rng = np.random.default_rng(seed)
        instances = []
        for p in range(self.pool):
            d = outdir / f"net{p}"
            d.mkdir(parents=True, exist_ok=True)
            a, fmat, owner = random_economy(rng, self.sectors, self.techs, self.factors,
                                            self.density)
            durations = rng.integers(0, self.max_duration + 1, size=owner.size)
            xml = economy_xml(a, fmat, owner, durations)
            (d / "model.xml").write_bytes(xml)
            m_plus = np.zeros((self.sectors + self.factors, owner.size))
            m_plus[owner, np.arange(owner.size)] = 1.0
            entry = self._instance(d, rng, d / "model.xml", m_plus, np.vstack([a, fmat]),
                                   durations, self.steps)
            instances.append(dict(entry, xml_bytes=len(xml)))
        sizes = {"places": self.sectors + self.factors,
                 "transitions": self.sectors * self.techs, "steps": self.steps,
                 "xml_bytes": instances[0]["xml_bytes"],
                 "schedule_bytes": instances[0]["schedule_bytes"]}
        return {"workload": self.name, "seed": seed, "instances": instances, "sizes": sizes}

    def warmup(self, root: Path, outdir: Path) -> dict:
        bundled = Bundled(root)
        outdir.mkdir(parents=True, exist_ok=True)
        durations = [cap.duration for cap in bundled.model.capabilities]
        entry = self._instance(outdir, np.random.default_rng(0), bundled.xml,
                               bundled.inc.m_plus, bundled.inc.m_minus, durations, 50)
        return {"workload": self.name, "seed": None, "instances": [entry], "sizes": {}}

    def load(self, entry: dict):
        return ["--format", "csv", "--output", entry["out"], "simulate",
                entry["model"], entry["schedule"]]

    def operate(self, args):
        err = _io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_call(args)
        return code, err.getvalue()

    def check(self, entry: dict, args, output):
        code, stderr = output
        path = Path(entry["out"])
        last = last_line(path) if path.exists() else ""
        path.unlink(missing_ok=True)
        self.check_outputs(entry, code, stderr, last)

    def check_outputs(self, entry: dict, code, stderr: str, last: str):
        _require(code == 0, f"exit code {code}, expected 0")
        fields = last.split(",")
        width = 1 + len(entry["final_q_b"]) + len(entry["final_q_e"])
        _require(len(fields) == width and fields[0] == str(entry["steps"]),
                 f"last trajectory row is not step {entry['steps']}")
        got = np.array([float(v) for v in fields[1:]])
        want = np.array(entry["final_q_b"] + entry["final_q_e"])
        err = float(np.max(np.abs(got - want)))
        bound = MARKING_RTOL * (1.0 + float(np.max(np.abs(want))))
        _require(err <= bound, f"final marking off by {err:.3e} > {bound:.3e}")
        match = re.search(r"(\d+) scheduled firing", stderr)
        dropped = int(match.group(1)) if match else 0
        _require(dropped == entry["dropped"],
                 f"{dropped} dropped firings reported, expected {entry['dropped']}")


def last_line(path: Path) -> str:
    """Last non-empty line of a text file, read from its tail."""
    with path.open("rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 65536))
        lines = [line for line in fh.read().decode("utf-8").splitlines() if line]
    return lines[-1] if lines else ""


WORKLOADS = {w.name: w for w in (Horizon(), Economy(), Simulate(), Infeasible())}
