"""The benchmark's workloads: seeded inputs, the tasks of one round, and the
correctness gate every task's output must pass.

Each workload has two halves. ``prepare(workdir, seed, root, toy)`` writes the
input files and computes the references from the seed; it runs in a process
of its own, outside any timed region, and returns a small picklable dict.
``build(workdir, seed, root, toy, refs)`` turns that dict into a ``Workload``
in the timed process, which so holds no large harness arrays while the
program runs. A workload exposes ``tasks``: the ordered list of one round.
Each task is called with no arguments inside the timed region and returns a
raw result; ``output(raw)`` turns that into canonical bytes (used to compare
traced and untraced runs) and ``check(raw)`` returns the list of gate
violations, empty when the output is correct.
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from zenopure import cli, config, engine
from zenopure import oscillator as osc

EIGENVALUE_TOL = 1e-8
GOLDEN_TOL = 1e-12
PROPAGATOR_TOL = 1e-10
SPECTRUM_CLOSED_FORM_TOL = 1e-6
#: Columns that depend on a computed eigenvector, whose accuracy is set by the
#: eigensolver's residual tolerance rather than by rounding.
EIGENVECTOR_COLUMNS = ("fidelity", "trace_distance_to_target")


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    output: Callable[[object], bytes]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    tasks: list
    #: Seconds of one round when the benchmark was defined (2-core VM, one
    #: BLAS thread); fixes the tail percentile so it does not move with run
    #: length.
    nominal_round_s: float
    info: dict = field(default_factory=dict)
    #: Checks made once per run outside the timed loop: name -> problems.
    final_checks: Callable[[], dict] = lambda: {}
    #: The one two-thread measurement: a zeno scan with jobs=2, or None.
    jobs2: Callable[[], object] | None = None
    #: Untimed, unchecked calls that load lazily initialised code paths.
    warmup: list = field(default_factory=list)


# ---------------------------------------------------------------- references


def project(u: np.ndarray, phi: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """<phi| U |phi> on the B factor of an A-major product basis."""
    return np.einsum("k,kilj,l->ij", phi.conj(), u.reshape(dim_a, dim_b, dim_a, dim_b), phi)


def reference_propagator(h, phi, dim_a, dim_b, tau) -> np.ndarray:
    """V through scipy's expm, independent of the eigendecomposition route."""
    return project(scipy.linalg.expm(-1j * float(tau) * h), phi, dim_a, dim_b)


def reference_trajectory(v, rho0, steps, target) -> list:
    """Rows N, p, yield, fidelity, purity, trace distance of the conditional run."""
    target_dm = None if target is None else np.outer(target, target.conj())
    rho, cumulative, rows = rho0, 1.0, []
    for n in range(steps + 1):
        p = 1.0
        if n:
            out = v @ rho @ v.conj().T
            p = float(np.trace(out).real)
            rho = (out + out.conj().T) / (2 * p)
            cumulative *= p
        fid = dist = None
        if target is not None:
            fid = float(np.vdot(target, rho @ target).real)
            diff = rho - target_dm
            dist = 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())
        rows.append([n, p, cumulative, fid, float(np.trace(rho @ rho).real), dist])
    return rows


def reference_zeno(h, phi, rho0, dim_a, dim_b, total_time, n_values) -> list:
    """Rows n, tau, yield, unitarity defect, from one expm and repeated squaring."""
    n_top = max(n_values)
    if any(n_top % n or (n_top // n) & (n_top // n - 1) for n in n_values):
        raise ValueError("reference scan needs n_values dividing max(n) by powers of two")
    u = scipy.linalg.expm(-1j * (total_time / n_top) * h)
    steps = {n_top: u}
    n = n_top
    while n > min(n_values):
        u = u @ u
        n //= 2
        steps[n] = u
    rows = []
    for n in n_values:
        w = np.linalg.matrix_power(project(steps[n], phi, dim_a, dim_b), n)
        prob = float(np.trace(w @ rho0 @ w.conj().T).real)
        defect = float(np.linalg.norm(w.conj().T @ w - np.eye(dim_b)))
        rows.append([n, total_time / n, prob, defect])
    return rows


def dominant_right(v: np.ndarray) -> np.ndarray:
    values, vectors = scipy.linalg.eig(v)
    vec = vectors[:, int(np.argmax(np.abs(values)))]
    return vec / np.linalg.norm(vec)


# ------------------------------------------------------------- table checks


def parse_table(text: str):
    """CSV text -> (header, rows of float-or-None); "#" lines are skipped."""
    lines = text.splitlines()
    rows = [[float(c) if c else None for c in line.split(",")]
            for line in lines[1:] if not line.startswith("#")]
    return lines[0].split(","), rows


def compare_table(text: str, header: list, rows: list, tol: float,
                  loose: dict | None = None) -> list:
    """Column-by-column comparison within an absolute tolerance."""
    try:
        got_header, got_rows = parse_table(text)
    except (ValueError, IndexError) as exc:
        return [f"output is not a numeric table: {exc}"]
    if got_header != header:
        return [f"header {got_header} != {header}"]
    if len(got_rows) != len(rows):
        return [f"{len(got_rows)} rows, expected {len(rows)}"]
    problems = []
    for got, want in zip(got_rows, rows):
        if len(got) != len(want):
            problems.append(f"row {got[0]} has {len(got)} cells, expected {len(want)}")
            continue
        for name, a, b in zip(header, got, want):
            limit = (loose or {}).get(name, tol)
            if (a is None) != (b is None):
                problems.append(f"row {got[0]} {name}: {a} vs expected {b}")
            elif a is not None and not abs(a - b) <= limit:
                problems.append(f"row {got[0]} {name}: |{a!r} - {b!r}| > {limit:g}")
    return problems


def grab(text: str, key: str) -> str | None:
    for line in text.splitlines():
        if line.startswith(key + " = "):
            return line.partition(" = ")[2]
    return None


# ---------------------------------------------------------------- CLI tasks


def cli_task(kind: str, argv: list, out_path: str, check: Callable) -> Task:
    def output(code):
        if not os.path.exists(out_path):
            return f"exit {code}\n".encode()
        with open(out_path, "rb") as fh:
            return f"exit {code}\n".encode() + fh.read()

    def gate(code):
        # Called after output(); removing the file keeps a stale one from
        # passing the next round's gate.
        if not os.path.exists(out_path):
            return [f"exit {code}, no output file"]
        with open(out_path, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(out_path)
        return check(code, text)

    return Task(kind, lambda: cli.main(argv + ["--out", out_path]), output, gate)


def expect_exit(code, want=0) -> list:
    return [] if code == want else [f"exit code {code}, expected {want}"]


def table_check(header, rows, tol, loose=None):
    return lambda code, text: expect_exit(code) + compare_table(text, header, rows, tol, loose)


def compare_check(code, text) -> list:
    """``compare`` must exit 0 and report ``status = ok``."""
    status = grab(text, "status")
    return expect_exit(code) + ([] if status == "ok" else [f"status = {status}"])


def write_config(path: str, lines: list) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[model]\n" + "".join(line + "\n" for line in lines))
    return path


def _golden(root: str, name: str) -> str:
    with open(os.path.join(root, "tests", "golden", name), encoding="utf-8") as fh:
        return fh.read()


# -------------------------------------------------------------- oscillator


OSCILLATOR_KINDS = ("figure1", "spectrum", "purify", "compare", "zeno")
#: The reference parameter set (the one cmd_figure1 bakes in) plus the zeno
#: scan of the golden file: total time 2 pi / 1.2, n = 1 .. 32.
OSCILLATOR_LINES = [
    'kind = "oscillator"', "big_omega = 1", "omega = 1", "g = 0.2",
    "alpha_re = 0.5", "alpha_im = 0", "beta = 1", "tuned_m = 1",
    'tuned_branch = "plus"', "n_steps = 30",
    f"total_time = {2 * np.pi / 1.2!r}", "n_values = [1, 2, 4, 8, 16, 32]",
]
#: Toy cutoff for the self-test; compare breaches its truncation tolerances
#: below a cutoff of about 30, so the toy round leaves it out.
TOY_CUTOFF = 12


def prepare_oscillator(workdir: str, seed: int, root: str, toy: bool) -> dict:
    rng = np.random.default_rng([seed, 1])
    cfg = write_config(os.path.join(workdir, "oscillator.cfg"), OSCILLATOR_LINES)
    cutoff = TOY_CUTOFF if toy else 30
    parsed = config.load_config(cfg)
    params = osc.OscillatorParams(
        big_omega=parsed.big_omega, omega=parsed.omega, g=parsed.g, alpha=parsed.alpha,
        beta=parsed.beta, tau=0.0, n_max_a=cutoff, n_max_b=cutoff)
    params = dataclasses.replace(
        params, tau=osc.tuned_tau(params, parsed.tuned_m, parsed.tuned_branch))
    cli_seed = int(rng.integers(0, 2**31))
    kinds = [k for k in OSCILLATOR_KINDS if not (toy and k == "compare")]
    if toy:
        # The goldens are at cutoff 30; at the toy cutoff the reference is
        # the independent expm route.
        h = osc.build_hamiltonian(params).hamiltonian
        phi = osc.coherent_state(params.alpha, cutoff)
        rho0 = osc.thermal_state(params.beta, params.omega, cutoff).matrix
        v = reference_propagator(h, phi, cutoff, cutoff, params.tau)
        target = osc.coherent_state(osc.coefficients(params).alpha_tilde, cutoff)
        trajectory = (parse_table(_golden(root, "figure1.csv"))[0],
                      reference_trajectory(v, rho0, parsed.n_steps, target))
        zeno = (["n", "tau", "yield", "unitarity_defect"],
                reference_zeno(h, phi, rho0, cutoff, cutoff, parsed.total_time, parsed.n_values))
        tol = PROPAGATOR_TOL
    else:
        trajectory = parse_table(_golden(root, "figure1.csv"))
        zeno = parse_table(_golden(root, "zeno_scan.csv"))
        tol = GOLDEN_TOL
    return {
        "cfg": cfg, "cutoff": cutoff, "params": params, "cli_seed": cli_seed,
        "lambda0": osc.lambda_n(osc.coefficients(params), 0),
        "total_time": parsed.total_time, "n_values": parsed.n_values,
        "trajectory": trajectory, "zeno": zeno, "tol": tol, "kinds": kinds,
        "order": [kinds[i] for i in rng.permutation(len(kinds))],
    }


def build_oscillator(workdir: str, seed: int, root: str, toy: bool, refs: dict) -> Workload:
    cfg, cutoff, params = refs["cfg"], refs["cutoff"], refs["params"]

    def spectrum_check(code, text):
        problems = expect_exit(code)
        raw = grab(text, "lambda0")
        try:
            value = complex(raw)
        except (TypeError, ValueError):
            return problems + [f"lambda0 unreadable: {raw!r}"]
        if not abs(value - refs["lambda0"]) <= SPECTRUM_CLOSED_FORM_TOL:
            problems.append(f"lambda0 {value} vs closed form {refs['lambda0']}")
        return problems

    checks = {
        "figure1": table_check(*refs["trajectory"], refs["tol"]),
        "purify": table_check(*refs["trajectory"], refs["tol"]),
        "zeno": table_check(*refs["zeno"], refs["tol"]),
        "spectrum": spectrum_check,
        "compare": compare_check,
    }
    tasks = []
    for kind in refs["order"]:
        argv = [kind, "--seed", str(refs["cli_seed"])] + (["--cutoff", str(cutoff)] if toy else [])
        if kind != "figure1":
            argv += ["--config", cfg]
        tasks.append(cli_task(kind, argv, os.path.join(workdir, kind + ".out"), checks[kind]))

    def jobs2():
        # Built here, in the traced run only, so no D x D harness array is
        # held while the untraced run measures peak memory.
        system = osc.build_hamiltonian(params)
        probe = engine.ProbeState(osc.coherent_state(params.alpha, cutoff))
        rho0 = osc.thermal_state(params.beta, params.omega, cutoff)
        return engine.zeno_limit_scan(system, probe, rho0, refs["total_time"],
                                      refs["n_values"], jobs=2)

    warm_out = os.path.join(workdir, "warmup.out")
    warmup = [functools.partial(cli.main, [kind, "--cutoff", str(TOY_CUTOFF), "--out", warm_out]
                                + ([] if kind == "figure1" else ["--config", cfg]))
              for kind in refs["kinds"]]
    info = {"cutoff": cutoff, "dim": cutoff * cutoff, "order": refs["order"],
            "cli_seed": refs["cli_seed"]}
    return Workload("oscillator_cli", tasks, 12.5, info, jobs2=jobs2, warmup=warmup)


# ---------------------------------------------------------------- explicit


#: Seven weakly coupled B states give the seven largest |eigenvalues| of V,
#: mostly 1-3% apart and clear of the strongly coupled bulk, so the spectrum
#: is resolvable on every seed; the coupling is still dense, so H is one
#: connected block.
WEAK_COUPLING = 0.02 * np.arange(1, 8)
COUPLING_SCALE = 2.5
EXPLICIT_TAU = 1.0
EXPLICIT_STEPS = 30
EXPLICIT_TOTAL_TIME = 4.0
EXPLICIT_N_VALUES = [1, 2, 4, 8, 16, 32]
EXPLICIT_KINDS = ["spectrum", "purify", "zeno"]


def explicit_hamiltonian(rng, dim_a: int, dim_b: int) -> np.ndarray:
    d = dim_a * dim_b
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g = (g + g.conj().T) / (2 * np.sqrt(2 * d))
    strength = np.concatenate([WEAK_COUPLING, np.linspace(0.5, 1.0, dim_b - len(WEAK_COUPLING))])
    w = np.tile(np.sqrt(rng.permutation(strength)), dim_a)
    energies = np.tile(rng.uniform(-2.0, 2.0, dim_b), dim_a)
    return COUPLING_SCALE * g * np.outer(w, w) + np.diag(energies)


def write_explicit(workdir: str, name: str, h: np.ndarray, phi: np.ndarray,
                   dim_a: int, dim_b: int) -> str:
    """The matrix file and the config that points at it; returns the config."""
    config.save_matrix_file(os.path.join(workdir, name + ".mat"), dim_a, dim_b, h)
    return write_config(os.path.join(workdir, name + ".cfg"), [
        'kind = "explicit"', f'hamiltonian_file = "{name}.mat"',
        f"probe_re = [{', '.join(repr(float(x)) for x in phi.real)}]",
        f"probe_im = [{', '.join(repr(float(x)) for x in phi.imag)}]",
        f"tau = {EXPLICIT_TAU!r}", f"n_steps = {EXPLICIT_STEPS}",
        f"total_time = {EXPLICIT_TOTAL_TIME!r}",
        f"n_values = [{', '.join(map(str, EXPLICIT_N_VALUES))}]",
    ])


def random_probe(rng, dim_a: int) -> np.ndarray:
    phi = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    return phi / np.linalg.norm(phi)


def prepare_explicit(workdir: str, seed: int, root: str, toy: bool) -> dict:
    rng = np.random.default_rng([seed, 2])
    dim_a, dim_b = (2, 20) if toy else (4, 150)
    h = explicit_hamiltonian(rng, dim_a, dim_b)
    phi = random_probe(rng, dim_a)
    cfg = write_explicit(workdir, "explicit", h, phi, dim_a, dim_b)
    warm_cfg = write_explicit(workdir, "warmup", explicit_hamiltonian(rng, 2, 20),
                              random_probe(rng, 2), 2, 20)
    rho0 = np.eye(dim_b, dtype=complex) / dim_b
    v_ref = reference_propagator(h, phi, dim_a, dim_b, EXPLICIT_TAU)
    eigs = scipy.linalg.eigvals(v_ref)
    eigs = eigs[np.argsort(-np.abs(eigs), kind="stable")]
    return {
        "cfg": cfg, "warm_cfg": warm_cfg, "matrix_path": os.path.join(workdir, "explicit.mat"),
        "dim_a": dim_a, "dim_b": dim_b, "phi": phi, "v_ref": v_ref, "eigs": eigs[:2],
        "trajectory": (parse_table(_golden(root, "figure1.csv"))[0],
                       reference_trajectory(v_ref, rho0, EXPLICIT_STEPS, dominant_right(v_ref))),
        "zeno": (["n", "tau", "yield", "unitarity_defect"],
                 reference_zeno(h, phi, rho0, dim_a, dim_b, EXPLICIT_TOTAL_TIME,
                                EXPLICIT_N_VALUES)),
        "gap_ratio": float(abs(eigs[1]) / abs(eigs[0])),
        "top_relative_gaps": [float(1 - abs(eigs[i + 1]) / abs(eigs[i])) for i in range(5)],
        "order": [EXPLICIT_KINDS[i] for i in rng.permutation(len(EXPLICIT_KINDS))],
    }


def build_explicit(workdir: str, seed: int, root: str, toy: bool, refs: dict) -> Workload:
    dim_a, dim_b, eigs = refs["dim_a"], refs["dim_b"], refs["eigs"]
    loose = {name: EIGENVALUE_TOL for name in EIGENVECTOR_COLUMNS}

    def spectrum_check(code, text):
        problems = expect_exit(code)
        for i, key in enumerate(("lambda0", "lambda1")):
            raw = grab(text, key)
            try:
                value = complex(raw)
            except (TypeError, ValueError):
                problems.append(f"{key} unreadable: {raw!r}")
                continue
            if not abs(value - eigs[i]) <= EIGENVALUE_TOL:
                problems.append(f"{key} {value} vs scipy {eigs[i]}")
        return problems

    checks = {
        "spectrum": spectrum_check,
        "purify": table_check(*refs["trajectory"], PROPAGATOR_TOL, loose),
        "zeno": table_check(*refs["zeno"], PROPAGATOR_TOL),
    }
    tasks = [cli_task(kind, [kind, "--config", refs["cfg"], "--seed", str(seed)],
                      os.path.join(workdir, kind + ".out"), checks[kind])
             for kind in refs["order"]]
    probe = engine.ProbeState(refs["phi"])

    def system():
        # Read back from the matrix file after the timed loop, so the harness
        # holds no copy of H while the program runs.
        return engine.BipartiteSystem(dim_a=dim_a, dim_b=dim_b,
                                      hamiltonian=config.load_matrix_file(refs["matrix_path"])[2])

    def final_checks():
        v = engine.build_projected_propagator(system(), probe, EXPLICIT_TAU).matrix
        dev = float(np.abs(v - refs["v_ref"]).max())
        return {"propagator_vs_expm": [] if dev <= PROPAGATOR_TOL
                else [f"max |V - V_expm| = {dev:.3e} > {PROPAGATOR_TOL:g}"]}

    def jobs2():
        state = engine.DensityMatrix(np.eye(dim_b, dtype=complex) / dim_b)
        return engine.zeno_limit_scan(system(), probe, state, EXPLICIT_TOTAL_TIME,
                                      EXPLICIT_N_VALUES, jobs=2)

    info = {
        "dim_a": dim_a, "dim_b": dim_b, "matrix_bytes": os.path.getsize(refs["matrix_path"]),
        "gap_ratio": refs["gap_ratio"], "top_relative_gaps": refs["top_relative_gaps"],
        "order": refs["order"],
    }
    warm_out = os.path.join(workdir, "warmup.out")
    warmup = [functools.partial(cli.main, [kind, "--config", refs["warm_cfg"], "--out", warm_out])
              for kind in EXPLICIT_KINDS]
    return Workload("explicit_dense", tasks, 4.3, info, final_checks=final_checks,
                    jobs2=jobs2, warmup=warmup)


#: name -> (prepare, build).
WORKLOADS = {
    "oscillator_cli": (prepare_oscillator, build_oscillator),
    "explicit_dense": (prepare_explicit, build_explicit),
}
