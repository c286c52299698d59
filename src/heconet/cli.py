"""Command line interface.

Exit codes: 0 success, 1 golden-case comparison failure, 2 input or
format error, 3 infeasible or unbounded program, 4 internal numeric
failure.
"""

import json
import sys
import warnings
from dataclasses import asdict, replace
from functools import wraps
from pathlib import Path

import click
import numpy as np

from heconet import golden as golden_mod
from heconet import hfnmcf, io, leontief, petri, rcot
from heconet.config import DEFAULT_TOLERANCES, Tolerances
from heconet.core import ModelError, capability_label
from heconet.incidence import build_incidence
from heconet.leontief import NonProductiveEconomyError, SingularSystemError
from heconet.lp import (CertificationError, IterationLimitError, LpStatus,
                        PivotBreakdownError)

_INPUT_ERRORS = (io.XmlFormatError, io.JsonFormatError, io.ScenarioError,
                 ModelError, NonProductiveEconomyError, ValueError,
                 FileNotFoundError, KeyError)
_NUMERIC_ERRORS = (PivotBreakdownError, IterationLimitError,
                   CertificationError, SingularSystemError,
                   np.linalg.LinAlgError)


def _guard(fn):
    """Map the library's errors to exit codes, and print every warning
    the command raises as ``warning: <message>`` on stderr, also when it
    exits early."""
    @wraps(fn)
    def wrapper(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                return fn(*args, **kwargs)
            except _NUMERIC_ERRORS as exc:
                click.echo(f"numeric failure: {exc}", err=True)
                sys.exit(4)
            except _INPUT_ERRORS as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(2)
            finally:
                for w in caught:
                    click.echo(f"warning: {w.message}", err=True)
    return wrapper


@click.group()
@click.option("--tolerance-config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON file overriding solver tolerances.")
@click.option("--output", "-o", type=click.Path(dir_okay=False), default=None,
              help="Write output here instead of stdout.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True, help="Output format.")
@click.pass_context
def main(ctx, tolerance_config, output, fmt):
    """Economic network solvers: input-output analysis, technology
    choice, incidence construction, Petri-net simulation, and
    discrete-time minimum-cost flow."""
    tol = DEFAULT_TOLERANCES
    if tolerance_config is not None:
        try:
            tol = Tolerances.from_json(Path(tolerance_config).read_bytes())
        except ValueError as exc:
            click.echo(f"error: bad tolerance config: {exc}", err=True)
            sys.exit(2)
    ctx.obj = {"tol": tol, "output": output, "format": fmt}


def _write(ctx, payload: bytes):
    output = ctx.obj["output"]
    if output is None:
        click.echo(payload.decode("utf-8"), nl=False)
    else:
        Path(output).write_bytes(payload)


def _load_model(path: str):
    return io.parse_system_xml(Path(path).read_bytes())


def _read_economy(model_xml: str, scenario_json: str) -> tuple:
    """(model, scenario, y, f, pi, product ids, factor ids, incidence) of
    a model file and a scenario file."""
    model = _load_model(model_xml)
    scenario = io.load_scenario(Path(scenario_json).read_bytes())
    return (model, scenario, *io.vectors_from_scenario(model, scenario),
            build_incidence(model))


def _exit_on_status(status: LpStatus):
    if status is not LpStatus.OPTIMAL:
        click.echo(f"program is {status.value}", err=True)
        sys.exit(3)


def _solution_payload(ctx, sol) -> bytes:
    if ctx.obj["format"] == "json":
        return io.emit_results_json(sol)
    return io.emit_results_csv(sol)


@main.command()
@click.argument("model_xml", type=click.Path(exists=True, dir_okay=False))
@click.option("--emit", type=click.Choice(["incidence", "dot"]),
              default="incidence", show_default=True)
@click.pass_context
@_guard
def convert(ctx, model_xml, emit):
    """Convert an XML system description to an incidence artifact."""
    inc = build_incidence(_load_model(model_xml))
    if emit == "dot":
        _write(ctx, io.to_dot(inc))
    else:
        _write(ctx, io.write_incidence_json(inc))


@main.command("leontief")
@click.argument("model_xml", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario_json", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guard
def leontief_cmd(ctx, model_xml, scenario_json):
    """Solve the square input-output system (one technology per
    product); errors out if the model is not square."""
    _, _, y, f, pi, products, factors, inc = _read_economy(model_xml, scenario_json)
    inst = rcot.instance_from_incidence(inc, len(products), y, f, pi)
    if inst.n_technologies != inst.n_sectors:
        raise ValueError(
            f"square analysis needs exactly one technology per product; "
            f"model has {inst.n_technologies} for {inst.n_sectors}")
    order = np.argsort(np.argmax(inst.i_star, axis=0), kind="stable")
    eio = leontief.SquareEio(
        a=inst.a_star[:, order], f=inst.f_star[:, order],
        labels=products, factor_labels=factors)
    x, phi = leontief.solve(eio, y, ctx.obj["tol"])
    sol = rcot.RcotSolution(
        x_star=x, z=float(pi @ phi), phi=phi, status=LpStatus.OPTIMAL,
        binding=np.concatenate([x - eio.a @ x - y, f - phi]),
        tech_labels=products, row_labels=inst.row_labels, factor_labels=factors)
    _write(ctx, _solution_payload(ctx, sol))


@main.command("rcot")
@click.argument("model_xml", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario_json", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guard
def rcot_cmd(ctx, model_xml, scenario_json):
    """Solve the technology-choice program."""
    model, _, y, f, pi, products, _, inc = _read_economy(model_xml, scenario_json)
    labels = tuple(capability_label(model, c) for c in model.capabilities)
    inst = rcot.instance_from_incidence(inc, len(products), y, f, pi,
                                        tech_labels=labels)
    sol = rcot.solve_rcot(inst, ctx.obj["tol"])
    _exit_on_status(sol.status)
    _write(ctx, _solution_payload(ctx, sol))


@main.command("hfnmcf-static")
@click.argument("model_xml", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--relaxation", type=click.Choice([">=", "="]), default=">=",
              show_default=True, help="Demand/availability row sense.")
@click.pass_context
@_guard
def hfnmcf_static(ctx, model_xml, scenario_json, relaxation):
    """Solve the static network-flow reduction of the economy."""
    model, _, y, f, pi, _, _, inc = _read_economy(model_xml, scenario_json)
    labels = tuple(capability_label(model, c) for c in model.capabilities)
    red = replace(hfnmcf.build_static(inc, y, f, pi), capability_labels=labels)
    sol = hfnmcf.solve_static(red, relaxation, ctx.obj["tol"])
    _exit_on_status(sol.status)
    _write(ctx, _solution_payload(ctx, sol))


@main.command("hfnmcf-full")
@click.argument("model_xml", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario_json", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guard
def hfnmcf_full(ctx, model_xml, scenario_json):
    """Solve the discrete-time program over the scenario's horizon;
    without boundary data it carries the static reduction over it."""
    model, scenario, y, f, pi, _, _, inc = _read_economy(model_xml, scenario_json)
    durations = [cap.duration for cap in model.capabilities]
    problem = hfnmcf.embed_static(inc, y, f, pi, scenario.horizon, durations, scenario.dt)
    given = dict(pins=hfnmcf.FiringPins(**scenario.pins))
    if scenario.boundary:
        # explicit boundary data replace the deficit and the surplus bound
        given.update(boundary=hfnmcf.BoundaryConditions(**scenario.boundary),
                     lower=None, upper=None)
    problem = replace(problem, **given)
    sol = hfnmcf.solve_full(problem, tol=ctx.obj["tol"])
    if sol.status is not LpStatus.OPTIMAL:
        if sol.infeasible_rows:
            click.echo("conflicting rows: " + ", ".join(sol.infeasible_rows), err=True)
        _exit_on_status(sol.status)
    if ctx.obj["format"] == "json":
        _write(ctx, io.emit_full_json(sol))
    else:
        _write(ctx, io.emit_trajectory_csv(sol.q_b, sol.q_e, inc.place_names,
                                           inc.capabilities))


@main.command()
@click.argument("model_xml", type=click.Path(exists=True, dir_okay=False))
@click.argument("schedule_json", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
@_guard
def simulate(ctx, model_xml, schedule_json):
    """Run the Petri-net fluid dynamics under a firing schedule."""
    model = _load_model(model_xml)
    u_minus, q_b0, q_e0, dt = io.load_schedule(Path(schedule_json).read_bytes())
    inc = build_incidence(model)
    durations = [cap.duration for cap in model.capabilities]
    net = petri.EngineeringSystemNet(incidence=inc, durations=durations,
                                     dt=1.0 if dt is None else dt)
    initial = petri.Marking(
        np.zeros(net.n_places) if q_b0 is None else q_b0,
        np.zeros(net.n_transitions) if q_e0 is None else q_e0)
    result = petri.simulate(net, initial, u_minus)
    if ctx.obj["format"] == "json":
        doc = {"q_b": result.q_b.tolist(), "q_e": result.q_e.tolist(),
               "dropped": [asdict(d) for d in result.dropped]}
        _write(ctx, (json.dumps(doc, indent=2) + "\n").encode())
    else:
        _write(ctx, io.emit_trajectory_csv(result.q_b, result.q_e, inc.place_names,
                                           inc.capabilities))


@main.command()
@click.argument("model_xml", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario_json", type=click.Path(exists=True, dir_okay=False))
@click.option("--nonzero", is_flag=True, help="Drop zero coefficients.")
@click.pass_context
@_guard
def chord(ctx, model_xml, scenario_json, nonzero):
    """Emit the transaction matrix as a long-format edge list."""
    _, _, y, f, pi, products, _, inc = _read_economy(model_xml, scenario_json)
    inst = rcot.instance_from_incidence(inc, len(products), y, f, pi)
    _write(ctx, io.emit_chord_csv(inst.a_star, products, inst.tech_labels,
                                  nonzero_only=nonzero))


@main.command("golden")
@click.argument("case_json", type=click.Path(exists=True, dir_okay=False),
                required=False)
@click.option("--pipeline", type=click.Choice(["rcot", "static", "both"]),
              default="both", show_default=True)
@click.pass_context
@_guard
def golden_cmd(ctx, case_json, pipeline):
    """Run a reference case (the bundled one when no file is given) and
    print the per-value comparison report."""
    case = golden_mod.bundled_case() if case_json is None \
        else golden_mod.load_case(case_json)
    report = golden_mod.run_golden(case, pipeline, ctx.obj["tol"])
    click.echo(str(report))
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
