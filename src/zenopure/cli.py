"""Command-line front end: spectra, trajectories, cross-checks, scan tables.

Subcommands
-----------
spectrum   dominant-eigenvalue report and purification-condition flags
purify     CSV trajectory: conditional probability, yield, fidelity, purity
compare    engine-vs-closed-form deviations for the oscillator model
zeno       CSV of the fixed-total-time measurement-splitting scan
figure1    purify with the reference oscillator parameter set baked in
           (big_omega = omega = 1, g = 0.2, alpha = 0.5, beta = 1,
           tau tuned to the plus normal mode)

compare prints its rows in a fixed order: the factorization check, V's
block, the trajectory's distance at each step and then their maximum, the
geometric eigenvalue check, the gap ratios and the 0.37 reference, and
last ``status``. A row is one of four kinds: a deviation, ``<name> =
<value>`` and then ``<name>_tolerance``; a refusal, ``<name> = refused
(<reason>)`` and its tolerance, where the reason is the cutoff refusal,
``no propagator`` or ``no eigenpairs``; a skip, ``<name> = skipped
(<reason>)`` with no tolerance, as the geometric check is when |e^C| = 1;
or a note, which is never checked. A refusal, or a deviation above its
tolerance, makes ``status = breach``. A trajectory refused at the cutoff
keeps the distances it printed before the refusal.

Exit codes: 0 success, 1 refused input (the config, a model file, or a
value the model refuses, named in the message), 2 degenerate spectrum,
3 cross-check tolerance breach. The environment variable ZENOPURE_TOL
overrides the spectrum epsilon and every compare tolerance at once; it
must be a positive number, and nan is refused. All numeric output uses 17
significant digits so runs are byte-comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    load_config,
    load_matrix_file,
)
from . import engine
from . import oscillator as osc

DEFAULT_EPSILON = 1e-6
COMPARE_TOLERANCES = {
    "factorization": 1e-5,
    "propagator_block": 1e-6,
    "trajectory": 1e-6,
    "geometric": 1e-4,
}
#: Occupation bounds for truncation-safe comparison blocks.
FACTORIZATION_BLOCK = 12
PROPAGATOR_BLOCK = 10
#: The reference parameter set that figure1 runs.
FIGURE1_CONFIG = ExperimentConfig(
    kind="oscillator",
    big_omega=1.0,
    omega=1.0,
    g=0.2,
    alpha=0.5 + 0.0j,
    beta=1.0,
    tuned_m=1,
    tuned_branch="plus",
    n_steps=30,
)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_complex(z: complex) -> str:
    z = complex(z)
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}j"


def _tol_override() -> float | None:
    raw = os.environ.get("ZENOPURE_TOL")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"ZENOPURE_TOL must be a number, got {raw!r}") from None
    if not value > 0:  # also refuses nan, which compares false to everything
        raise ConfigError("ZENOPURE_TOL must be positive")
    return value


@dataclass(frozen=True)
class _Model:
    params: osc.OscillatorParams | None = None
    system: engine.BipartiteSystem | None = None
    phi: engine.ProbeState | None = None
    fixed_v: engine.ProjectedPropagator | None = None
    rho0: engine.DensityMatrix | None = None
    tau: float | None = None


def _resolve_params(cfg: ExperimentConfig, cutoff: int | None) -> osc.OscillatorParams:
    base = osc.OscillatorParams(
        big_omega=cfg.big_omega,
        omega=cfg.omega,
        g=cfg.g,
        alpha=cfg.alpha,
        beta=cfg.beta,
        tau=cfg.tau if cfg.tau is not None else 0.0,
        n_max_a=cutoff if cutoff is not None else cfg.n_max_a,
        n_max_b=cutoff if cutoff is not None else cfg.n_max_b,
    )
    if cfg.tau is None:
        return dataclasses.replace(
            base, tau=osc.tuned_tau(base, cfg.tuned_m, cfg.tuned_branch)
        )
    return base


def _build_model(cfg: ExperimentConfig, config_dir: str, cutoff: int | None) -> _Model:
    """Assemble system, initial state and (for explicit models) the probe.

    The oscillator probe stays unbuilt here and ``_probe`` builds it on use.
    Only compare needs that: it reports a cutoff too small for the probe as
    a refused check (exit code 3), where the other commands refuse the input.
    A cutoff override is refused for an explicit model, which has no cutoff.
    """
    if cfg.kind == "oscillator":
        params = _resolve_params(cfg, cutoff)
        return _Model(
            params=params,
            system=osc.build_hamiltonian(params),
            rho0=osc.thermal_state(params.beta, params.omega, params.n_max_b),
            tau=params.tau,
        )
    if cutoff is not None:
        raise ConfigError("--cutoff applies only to the oscillator model")
    if cfg.hamiltonian_file is not None:
        path = os.path.join(config_dir, cfg.hamiltonian_file)
        dim_a, dim_b, matrix = load_matrix_file(path)
        system = engine.BipartiteSystem(dim_a=dim_a, dim_b=dim_b, hamiltonian=matrix)
        probe = np.array(cfg.probe, dtype=complex)
        if probe.shape[0] != dim_a:
            raise ConfigError(
                f"probe has {probe.shape[0]} amplitudes, Hamiltonian declares dim_a = {dim_a}"
            )
        return _Model(
            system=system,
            phi=engine.ProbeState(probe),
            rho0=_maximally_mixed(dim_b),
            tau=cfg.tau,
        )
    path = os.path.join(config_dir, cfg.propagator_file)
    dim_a, dim_b, matrix = load_matrix_file(path)
    if dim_a != 1:
        raise ConfigError("a propagator file must declare dim_a = 1")
    fixed = engine.ProjectedPropagator(matrix=matrix, tau=0.0)
    return _Model(fixed_v=fixed, rho0=_maximally_mixed(dim_b), tau=fixed.tau)


def _maximally_mixed(dim: int) -> engine.DensityMatrix:
    return engine.DensityMatrix(np.eye(dim, dtype=complex) / dim)


def _probe(model: _Model) -> engine.ProbeState:
    if model.phi is not None:
        return model.phi
    return engine.ProbeState(osc.coherent_state(model.params.alpha, model.params.n_max_a))


def _propagator(model: _Model) -> engine.ProjectedPropagator:
    if model.fixed_v is not None:
        return model.fixed_v
    return engine.build_projected_propagator(model.system, _probe(model), model.tau)


def _target_vector(model: _Model, v: engine.ProjectedPropagator):
    """Fidelity/distance target: closed-form coherent state when available,
    otherwise the computed dominant eigenvector, otherwise None."""
    if model.params is not None:
        try:
            coeffs = osc.coefficients(model.params)
        except osc.DegenerateInterval:
            return None
        return osc.coherent_state(coeffs.alpha_tilde, model.params.n_max_b)
    pairs = v.eigenpairs.pairs
    return pairs[0].right if pairs else None


def _write_output(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_for(args) -> tuple[ExperimentConfig, str]:
    cfg = load_config(args.config)
    return cfg, os.path.dirname(os.path.abspath(args.config))


def cmd_spectrum(args) -> int:
    cfg, config_dir = _load_for(args)
    model = _build_model(cfg, config_dir, args.cutoff)
    epsilon = _tol_override() or DEFAULT_EPSILON
    v = _propagator(model)
    coeffs = unavailable = None
    if model.params is not None:
        try:
            coeffs = osc.coefficients(model.params)
        except osc.DegenerateInterval as exc:
            unavailable = f"closed_form = unavailable ({exc})"
    report = engine.spectral_report(v, model.rho0, epsilon=epsilon)
    lines = [f"degenerate = {'true' if report.degenerate else 'false'}"]
    if report.lambda0 is not None:
        lines.append(f"lambda0 = {_fmt_complex(report.lambda0)}")
        lines.append(f"abs_lambda0 = {_fmt(abs(report.lambda0))}")
    else:
        lines.append("lambda0 = unavailable (no magnitude gap)")
    if report.lambda1 is not None:
        lines.append(f"lambda1 = {_fmt_complex(report.lambda1)}")
        lines.append(f"gap_ratio = {_fmt(report.gap_ratio)}")
        lines.append(f"condition_ii_ratio = {_fmt(report.gap_ratio)}")
    else:
        lines.append("lambda1 = unavailable")
    lines.append(f"condition_i_met = {'true' if report.condition_i_met else 'false'}")
    lines.append(f"condition_i_epsilon = {_fmt(epsilon)}")
    if report.yield_plateau_coefficient is not None:
        lines.append(
            f"yield_plateau_coefficient = {_fmt(report.yield_plateau_coefficient)}"
        )
    if unavailable is not None:
        lines.append(unavailable)
    if coeffs is not None:
        lines.extend(_closed_form_lines(coeffs, v.eigenpairs))
    _write_output("\n".join(lines) + "\n", args.out)
    return 2 if report.degenerate else 0


def _closed_form_lines(coeffs, found) -> list[str]:
    lines = ["closed_form_check: n lambda_numeric lambda_closed abs_dev"]
    for n, pair in enumerate(found.pairs):
        reference = osc.lambda_n(coeffs, n)
        lines.append(
            f"  {n} {_fmt_complex(pair.value)} {_fmt_complex(reference)} "
            f"{_fmt(abs(pair.value - reference))}"
        )
    return lines


def _trajectory_csv(model: _Model, steps: int) -> str:
    v = _propagator(model)
    target = _target_vector(model, v)
    trajectory = engine.run_purification(model.rho0, v, steps)
    if target is not None:
        target_dm = engine.DensityMatrix(np.outer(target, target.conj()))
    lines = ["N,conditional_probability,yield,fidelity,purity,trace_distance_to_target"]
    for step in trajectory.steps:
        fid = dist = ""
        if target is not None:
            fid = _fmt(engine.fidelity(step.state, target))
            dist = _fmt(engine.trace_distance(step.state, target_dm))
        lines.append(
            f"{step.n},{_fmt(step.conditional_probability)},{_fmt(step.cumulative_yield)},"
            f"{fid},{_fmt(step.purity)},{dist}"
        )
    if trajectory.truncated:
        lines.append(f"# branch extinct after {trajectory.steps[-1].n} confirmations")
    return "\n".join(lines) + "\n"


def cmd_purify(args) -> int:
    return _purify(*_load_for(args), args)


def cmd_figure1(args) -> int:
    return _purify(FIGURE1_CONFIG, os.getcwd(), args)


def _purify(cfg: ExperimentConfig, config_dir: str, args) -> int:
    model = _build_model(cfg, config_dir, args.cutoff)
    steps = args.steps if args.steps is not None else cfg.n_steps
    _write_output(_trajectory_csv(model, steps), args.out)
    return 0


def cmd_compare(args) -> int:
    cfg, config_dir = _load_for(args)
    if cfg.kind != "oscillator":
        raise ConfigError("compare requires the oscillator model")
    model = _build_model(cfg, config_dir, args.cutoff)
    override = _tol_override()
    try:
        coeffs = osc.coefficients(model.params)
    except osc.DegenerateInterval as exc:
        _write_output(f"degenerate interval: {exc}\n", args.out)
        return 2
    lines, breached = [], False
    for label, value, tol_key in _compare_rows(model, coeffs, min(10, cfg.n_steps)):
        if tol_key is None:  # a skip or a note
            lines.append(f"{label} = {value if isinstance(value, str) else _fmt(value)}")
            continue
        tol = override if override is not None else COMPARE_TOLERANCES[tol_key]
        refused = isinstance(value, str)
        lines.append(f"{label} = {f'refused ({value})' if refused else _fmt(value)}")
        lines.append(f"{label}_tolerance = {_fmt(tol)}")
        breached |= refused or value > tol
    lines.append(f"status = {'breach' if breached else 'ok'}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 3 if breached else 0


def _compare_rows(model: _Model, coeffs: osc.ClosedFormCoefficients, horizon: int):
    """compare's lines above its status, as rows (label, value, tolerance key).

    A row with a tolerance key is a check: its value is a deviation (a
    float) or the reason the check was refused (a str), and it prints a
    tolerance line. A row without one never breaches: it is a skipped check,
    whose value reads ``skipped (reason)``, or a note.
    """
    params = model.params
    # The system's one block decomposition of H serves both the factorization
    # check and V. The factorization is checked against the eigendecomposition
    # route on the occupation block where truncation cannot reach; both
    # propagators are formed on that block only, never as D x D matrices.
    block_a = min(FACTORIZATION_BLOCK + 1, params.n_max_a)
    block_b = min(FACTORIZATION_BLOCK + 1, params.n_max_b)
    idx = [a * params.n_max_b + b for a in range(block_a) for b in range(block_b)]
    u_direct = model.system.unitary(params.tau, indices=idx)
    u_product = osc.factorized_propagator(params, indices=idx)
    yield ("factorization_interior_max_dev", float(np.abs(u_direct - u_product).max()),
           "factorization")

    try:
        v = _propagator(model)
    except osc.CutoffTooSmall as exc:
        v = None
        yield "propagator_block_max_dev", str(exc), "propagator_block"
        yield "trajectory_max_trace_distance", "no propagator", "trajectory"
    else:
        v_closed = osc.closed_form_propagator(params)
        nb = min(PROPAGATOR_BLOCK + 1, params.n_max_b)
        yield ("propagator_block_max_dev",
               float(np.abs(v.matrix[:nb, :nb] - v_closed[:nb, :nb]).max()), "propagator_block")
        worst = 0.0
        try:
            for step in engine.run_purification(model.rho0, v, horizon).steps:
                reference = osc.closed_form_rho(params, step.n)
                dist = engine.trace_distance(step.state, reference.state)
                yield f"trajectory_trace_distance_{step.n}", dist, None
                worst = max(worst, dist)
        except osc.CutoffTooSmall as exc:
            worst = str(exc)
        yield "trajectory_max_trace_distance", worst, "trajectory"

    # The numeric-eigensolver checks need a magnitude gap; |e^C| = 1 means
    # the spectrum lies on a circle and the eigensolver rightly refuses.
    geometric = coeffs.abs_exp_c < 1.0 - 1e-9
    pairs = v.eigenpairs.pairs if geometric and v is not None else ()
    if not geometric:
        yield "eigenvalue_geometric_max_rel_dev", "skipped (no magnitude gap, |e^C| = 1)", None
    elif pairs:
        worst = 0.0
        for n, pair in enumerate(pairs):
            reference = coeffs.exp_c ** n
            worst = max(worst, abs(pair.value / pairs[0].value - reference) / abs(reference))
        yield "eigenvalue_geometric_max_rel_dev", worst, "geometric"
    else:
        yield ("eigenvalue_geometric_max_rel_dev",
               "no eigenpairs" if v is not None else "no propagator", "geometric")
    if len(pairs) >= 2:
        yield "gap_ratio_numeric", abs(pairs[1].value) / abs(pairs[0].value), None
    yield "gap_ratio_closed_form", coeffs.abs_exp_c, None
    yield "external_reference_gap_ratio", "0.37 (informational, not asserted)", None


def cmd_zeno(args) -> int:
    cfg, config_dir = _load_for(args)
    if cfg.total_time is None or cfg.n_values is None:
        raise ConfigError("zeno requires total_time and n_values in the config")
    model = _build_model(cfg, config_dir, args.cutoff)
    if model.system is None:
        raise ConfigError("zeno requires a Hamiltonian model, not a fixed propagator")
    points = engine.zeno_limit_scan(model.system, _probe(model), model.rho0,
                                    cfg.total_time, cfg.n_values, jobs=args.jobs)
    lines = ["n,tau,yield,unitarity_defect"]
    for p in points:
        lines.append(
            f"{p.n},{_fmt(p.tau)},{_fmt(p.yield_probability)},{_fmt(p.unitarity_defect)}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def _add_options(sub: argparse.ArgumentParser, command: str) -> None:
    """Give ``command`` the options it honours, and --seed, which every
    subcommand accepts and none uses, so that one command line serves them
    all."""
    if command != "figure1":
        sub.add_argument("--config", required=True, help="experiment config file")
    sub.add_argument("--cutoff", type=int, default=None,
                     help="override both Fock cutoffs (oscillator model)")
    if command in ("purify", "figure1"):
        sub.add_argument("--steps", type=int, default=None,
                         help="override the number of confirmations")
    sub.add_argument("--seed", type=int, default=0,
                     help="accepted, but has no effect: the eigensolver is deterministic")
    sub.add_argument("--out", default=None, help="write output to this file")
    if command == "zeno":
        sub.add_argument("--jobs", type=int, default=1,
                         help="parallel workers for independent scan points; "
                              "values below 2 run the scan serially")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: each subcommand
    binds its ``cmd_*`` function when the parser is first built, and every
    later call reuses it, since parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="zenopure",
        description="Spectra and trajectories of repeated-confirmation purification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, func, blurb in (
        ("spectrum", cmd_spectrum, "dominant-eigenvalue report"),
        ("purify", cmd_purify, "trajectory CSV"),
        ("compare", cmd_compare, "engine vs closed-form deviations"),
        ("zeno", cmd_zeno, "fixed-total-time splitting scan CSV"),
        ("figure1", cmd_figure1, "purify with the reference parameters"),
    ):
        sub = commands.add_parser(name, help=blurb)
        _add_options(sub, name)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Every refusal the package raises is a ValueError; this reports each once.
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
