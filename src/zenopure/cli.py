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

Exit codes: 0 success, 1 configuration error, 2 degenerate spectrum,
3 cross-check tolerance breach. The environment variable ZENOPURE_TOL
(a positive float) overrides the spectrum epsilon and every compare
tolerance at once. All numeric output uses 17 significant digits so runs
are byte-comparable.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .linalg import top_k_eigenpairs, unitary_from_blocks

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

REFERENCE_GAP_RATIO_NOTE = (
    "external_reference_gap_ratio = 0.37 (informational, not asserted)"
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
    if value <= 0:
        raise ConfigError("ZENOPURE_TOL must be positive")
    return value


@dataclass
class _Model:
    cfg: ExperimentConfig
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

    The oscillator probe stays unbuilt here: commands construct it when
    needed so truncation refusals surface with command-appropriate exit
    codes.
    """
    try:
        if cfg.kind == "oscillator":
            params = _resolve_params(cfg, cutoff)
            return _Model(
                cfg=cfg,
                params=params,
                system=osc.build_hamiltonian(params),
                rho0=osc.thermal_state(params.beta, params.omega, params.n_max_b),
                tau=params.tau,
            )
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
                cfg=cfg,
                system=system,
                phi=engine.ProbeState(probe),
                rho0=_maximally_mixed(dim_b),
                tau=cfg.tau,
            )
        path = os.path.join(config_dir, cfg.propagator_file)
        dim_a, dim_b, matrix = load_matrix_file(path)
        if dim_a != 1:
            raise ConfigError("a propagator file must declare dim_a = 1")
        fixed = engine.ProjectedPropagator(matrix=matrix, tau=cfg.tau if cfg.tau else 0.0)
        return _Model(cfg=cfg, fixed_v=fixed, rho0=_maximally_mixed(dim_b), tau=fixed.tau)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _maximally_mixed(dim: int) -> engine.DensityMatrix:
    return engine.DensityMatrix(np.eye(dim, dtype=complex) / dim)


def _oscillator_probe(params: osc.OscillatorParams) -> engine.ProbeState:
    return engine.ProbeState(osc.coherent_state(params.alpha, params.n_max_a))


def _propagator(model: _Model) -> engine.ProjectedPropagator:
    if model.fixed_v is not None:
        return model.fixed_v
    if model.phi is None:
        model.phi = _oscillator_probe(model.params)
    return engine.build_projected_propagator(model.system, model.phi, model.tau)


def _target_vector(model: _Model, v: engine.ProjectedPropagator):
    """Fidelity/distance target: closed-form coherent state when available,
    otherwise the computed dominant eigenvector, otherwise None."""
    if model.params is not None:
        try:
            coeffs = osc.coefficients(model.params)
        except osc.DegenerateInterval:
            return None
        return osc.coherent_state(coeffs.alpha_tilde, model.params.n_max_b)
    found = top_k_eigenpairs(v.matrix, 1)
    return found.pairs[0].right if found.pairs else None


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
    try:
        v = _propagator(model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # One solve of V's spectrum serves the report and the closed-form table,
    # which needs five pairs; without the table two suffice.
    coeffs = unavailable = None
    if model.params is not None:
        try:
            coeffs = osc.coefficients(model.params)
        except osc.DegenerateInterval as exc:
            unavailable = f"closed_form = unavailable ({exc})"
    k = 2 if coeffs is None else 5
    found = top_k_eigenpairs(v.matrix, min(k, v.dim))
    report = engine.spectral_report(v, model.rho0, epsilon=epsilon, eigenpairs=found)
    lines = [f"degenerate = {'true' if report.degenerate else 'false'}"]
    if report.lambda0 is not None:
        lines.append(f"lambda0 = {_fmt_complex(report.lambda0)}")
        lines.append(f"abs_lambda0 = {_fmt(abs(report.lambda0))}")
    else:
        lines.append("lambda0 = unavailable (no magnitude gap)")
    if report.lambda1 is not None:
        lines.append(f"lambda1 = {_fmt_complex(report.lambda1)}")
        lines.append(f"gap_ratio = {_fmt(report.gap_ratio)}")
        lines.append(f"condition_ii_ratio = {_fmt(report.condition_ii_ratio)}")
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
        lines.extend(_closed_form_lines(coeffs, found))
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
    try:
        v = _propagator(model)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    target = _target_vector(model, v)
    trajectory = engine.run_purification(model.rho0, v, steps, target=target)
    target_dm = None
    if target is not None:
        target_dm = engine.DensityMatrix(np.outer(target, target.conj()))
    lines = ["N,conditional_probability,yield,fidelity,purity,trace_distance_to_target"]
    for step in trajectory.steps:
        fid = "" if step.fidelity is None else _fmt(step.fidelity)
        dist = ""
        if target_dm is not None:
            dist = _fmt(engine.trace_distance(step.state, target_dm))
        lines.append(
            f"{step.n},{_fmt(step.conditional_probability)},{_fmt(step.cumulative_yield)},"
            f"{fid},{_fmt(step.purity)},{dist}"
        )
    if trajectory.truncated:
        lines.append(f"# branch extinct after {trajectory.steps[-1].n} confirmations")
    return "\n".join(lines) + "\n"


def cmd_purify(args) -> int:
    cfg, config_dir = _load_for(args)
    model = _build_model(cfg, config_dir, args.cutoff)
    steps = args.steps if args.steps is not None else cfg.n_steps
    _write_output(_trajectory_csv(model, steps), args.out)
    return 0


def cmd_figure1(args) -> int:
    cfg = ExperimentConfig(
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
    model = _build_model(cfg, os.getcwd(), args.cutoff)
    steps = args.steps if args.steps is not None else cfg.n_steps
    _write_output(_trajectory_csv(model, steps), args.out)
    return 0


def cmd_compare(args) -> int:
    cfg, config_dir = _load_for(args)
    if cfg.kind != "oscillator":
        raise ConfigError("compare requires the oscillator model")
    model = _build_model(cfg, config_dir, args.cutoff)
    params = model.params
    override = _tol_override()
    tols = {k: (override if override is not None else v) for k, v in COMPARE_TOLERANCES.items()}
    try:
        coeffs = osc.coefficients(params)
    except osc.DegenerateInterval as exc:
        _write_output(f"degenerate interval: {exc}\n", args.out)
        return 2
    lines = []
    breached = False

    def check(label: str, tol_key: str, value, reason: str | None = None):
        nonlocal breached
        tol = tols[tol_key]
        if value is None:
            lines.append(f"{label} = refused ({reason})")
            lines.append(f"{label}_tolerance = {_fmt(tol)}")
            breached = True
            return
        lines.append(f"{label} = {_fmt(value)}")
        lines.append(f"{label}_tolerance = {_fmt(tol)}")
        if value > tol:
            breached = True

    # The system's one block decomposition of H serves both the factorization
    # check and V. The factorization is checked against the eigendecomposition
    # route on the occupation block where truncation cannot reach; both
    # propagators are formed on that block only, never as D x D matrices.
    block_a = min(FACTORIZATION_BLOCK + 1, params.n_max_a)
    block_b = min(FACTORIZATION_BLOCK + 1, params.n_max_b)
    idx = [
        a * params.n_max_b + b
        for a in range(block_a)
        for b in range(block_b)
    ]
    u_direct = unitary_from_blocks(model.system.blocks, params.tau, indices=idx)
    u_product = osc.factorized_propagator(params, indices=idx)
    check(
        "factorization_interior_max_dev",
        "factorization",
        float(np.abs(u_direct - u_product).max()),
    )

    v_eng = None
    try:
        phi = _oscillator_probe(params)
        v_eng = engine.contract_probe(model.system, phi).propagator(params.tau)
    except osc.CutoffTooSmall as exc:
        check("propagator_block_max_dev", "propagator_block", None, str(exc))
    if v_eng is not None:
        v_closed = osc.closed_form_propagator(params)
        nb = min(PROPAGATOR_BLOCK + 1, params.n_max_b)
        check(
            "propagator_block_max_dev",
            "propagator_block",
            float(np.abs(v_eng.matrix[:nb, :nb] - v_closed[:nb, :nb]).max()),
        )

    # The numeric-eigensolver checks need a magnitude gap; |e^C| = 1 means
    # the spectrum lies on a circle and the eigensolver rightly refuses.
    # One solve of V's spectrum serves the trajectory's target and the
    # geometric check, which needs five pairs; without that check one does.
    geometric = coeffs.abs_exp_c < 1.0 - 1e-9
    found = None
    if v_eng is not None:
        found = top_k_eigenpairs(v_eng.matrix, min(5 if geometric else 1, v_eng.dim))

    if v_eng is None:
        check("trajectory_max_trace_distance", "trajectory", None, "no propagator")
    else:
        try:
            horizon = min(10, cfg.n_steps)
            trajectory = engine.run_purification(
                model.rho0, v_eng, horizon, target=None, eigenpairs=found
            )
            worst = 0.0
            for step in trajectory.steps:
                reference = osc.closed_form_rho(params, step.n)
                dist = engine.trace_distance(step.state, reference.state)
                lines.append(f"trajectory_trace_distance_{step.n} = {_fmt(dist)}")
                worst = max(worst, dist)
            check("trajectory_max_trace_distance", "trajectory", worst)
        except osc.CutoffTooSmall as exc:
            check("trajectory_max_trace_distance", "trajectory", None, str(exc))

    gap_numeric = None
    if not geometric:
        lines.append(
            "eigenvalue_geometric_max_rel_dev = skipped (no magnitude gap, |e^C| = 1)"
        )
    elif v_eng is None:
        check("eigenvalue_geometric_max_rel_dev", "geometric", None, "no propagator")
    else:
        worst = None
        if found.pairs:
            lam0 = found.pairs[0].value
            worst = 0.0
            for n, pair in enumerate(found.pairs[: 5]):
                reference = coeffs.exp_c ** n
                worst = max(worst, abs(pair.value / lam0 - reference) / abs(reference))
        if worst is None:
            check("eigenvalue_geometric_max_rel_dev", "geometric", None, "no eigenpairs")
        else:
            check("eigenvalue_geometric_max_rel_dev", "geometric", worst)
        if len(found.pairs) >= 2:
            gap_numeric = abs(found.pairs[1].value) / abs(found.pairs[0].value)

    if gap_numeric is not None:
        lines.append(f"gap_ratio_numeric = {_fmt(gap_numeric)}")
    lines.append(f"gap_ratio_closed_form = {_fmt(coeffs.abs_exp_c)}")
    lines.append(REFERENCE_GAP_RATIO_NOTE)
    lines.append(f"status = {'breach' if breached else 'ok'}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 3 if breached else 0


def cmd_zeno(args) -> int:
    cfg, config_dir = _load_for(args)
    if cfg.total_time is None or cfg.n_values is None:
        raise ConfigError("zeno requires total_time and n_values in the config")
    model = _build_model(cfg, config_dir, args.cutoff)
    if model.system is None:
        raise ConfigError("zeno requires a Hamiltonian model, not a fixed propagator")
    try:
        if model.phi is None:
            model.phi = _oscillator_probe(model.params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        points = engine.zeno_limit_scan(
            model.system,
            model.phi,
            model.rho0,
            cfg.total_time,
            cfg.n_values,
            jobs=args.jobs,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
                         help="parallel workers for independent scan points")


def _build_parser() -> argparse.ArgumentParser:
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
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
