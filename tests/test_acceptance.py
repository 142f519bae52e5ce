"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each check prints one PASS/FAIL line carrying the measured value next to
its bound, so a verbose run reads as a checklist. Criteria 1 to 8 pin the
reference parameter set (resonant modes, g = 0.2, coherent probe amplitude
0.5, thermal start at beta = 1, interval tuned to the plus normal mode,
Fock cutoff 30), and so does criterion 7's companion, at half the tuned
interval; criterion 9 exercises the randomized engine and eigensolver
contracts.

The closed-form numbers used as oracles here are recomputed locally from
the raw parameters, independent of the production implementation, so
agreement between the two is evidence rather than tautology.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from zenopure.engine import (
    DensityMatrix,
    ProbeState,
    ProjectedPropagator,
    build_projected_propagator,
    run_purification,
    spectral_report,
    trace_distance,
    zeno_limit_scan,
)
from zenopure.linalg import NoConvergence, top_k_eigenpairs, unitary_exponential
from zenopure.oscillator import (
    OscillatorParams,
    build_hamiltonian,
    closed_form_rho,
    coherent_state,
    factorized_propagator,
    thermal_state,
)

TUNED_TAU = 2 * np.pi / 1.2  # one full period of the plus normal mode


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def local_coefficients(p: OscillatorParams) -> SimpleNamespace:
    """Interval coefficients recomputed from scratch, textbook layout."""
    d_om = p.big_omega - p.omega
    delta = float(np.sqrt(p.g ** 2 + d_om ** 2 / 4))
    dtau = delta * p.tau
    z = np.cos(dtau) + 1j * (d_om / (2 * delta)) * np.sin(dtau)
    e = np.exp(-1j * (p.big_omega + p.omega) * p.tau / 2)
    a = (p.g / delta) * np.sin(dtau) / z
    exp_c = e * z
    return SimpleNamespace(
        delta=delta,
        dtau=dtau,
        a=a,
        exp_b=e / z,
        exp_c=exp_c,
        alpha_tilde=a * p.alpha / (1 - 1 / exp_c),
        abs_exp_c=float(np.sqrt(1 - (p.g / delta) ** 2 * np.sin(dtau) ** 2)),
    )


@pytest.fixture(scope="module")
def reference():
    p = OscillatorParams(
        big_omega=1.0, omega=1.0, g=0.2, alpha=0.5, beta=1.0, tau=TUNED_TAU
    )
    system = build_hamiltonian(p)
    phi = ProbeState(coherent_state(p.alpha, p.n_max_a))
    v = build_projected_propagator(system, phi, p.tau)
    rho0 = thermal_state(p.beta, p.omega, p.n_max_b)
    return SimpleNamespace(p=p, system=system, phi=phi, v=v, rho0=rho0)


def coherent_target_dm(p: OscillatorParams) -> tuple[np.ndarray, DensityMatrix]:
    target = coherent_state(local_coefficients(p).alpha_tilde, p.n_max_b)
    return target, DensityMatrix(np.outer(target, target.conj()))


def test_criterion_1_tuned_dominant_eigenvalue(reference):
    p, v = reference.p, reference.v
    lam_numeric = top_k_eigenpairs(v.matrix, 1).pairs[0].value
    c = local_coefficients(p)
    # closed form, exponential route
    w = 1 - c.exp_b - c.a ** 2 / (1 - 1 / c.exp_c)
    lam_exponential = np.exp(-abs(p.alpha) ** 2 * w)
    # closed form, cotangent route in the normal-mode frequencies
    d_om = p.big_omega - p.omega
    om_plus = (p.big_omega + p.omega) / 2 + c.delta
    om_minus = (p.big_omega + p.omega) / 2 - c.delta
    s = (1 + d_om / (2 * c.delta)) / np.tan(om_plus * p.tau / 2) + (
        1 - d_om / (2 * c.delta)
    ) / np.tan(om_minus * p.tau / 2)
    lam_cotangent = np.exp(-2 * abs(p.alpha) ** 2 / (1 - 0.5j * s))
    worst = max(
        abs(lam_numeric - 1), abs(lam_exponential - 1), abs(lam_cotangent - 1)
    )
    verdict(
        "criterion 1, tuned-interval dominant eigenvalue",
        worst <= 1e-6,
        f"numeric and both closed forms: max |lambda0 - 1| = {worst:.3e}, "
        f"bound 1e-6",
    )


def test_criterion_2_gap_ratio_cross_check(reference):
    found = top_k_eigenpairs(reference.v.matrix, 2)
    assert len(found.pairs) == 2, "second eigenpair must be extractable"
    numeric = abs(found.pairs[1].value) / abs(found.pairs[0].value)
    closed = local_coefficients(reference.p).abs_exp_c
    dev = abs(numeric - closed)
    verdict(
        "criterion 2, gap ratio by two independent routes",
        dev <= 1e-5,
        f"numeric {numeric:.12f} vs closed form {closed:.12f}, |dev| = "
        f"{dev:.3e}, bound 1e-5; external reference value 0.37 recorded, "
        f"not asserted",
    )


def test_criterion_3_trajectory_equivalence(reference):
    traj = run_purification(reference.rho0, reference.v, 10)
    worst = max(
        trace_distance(step.state, closed_form_rho(reference.p, step.n).state)
        for step in traj.steps
    )
    verdict(
        "criterion 3, engine trajectory equals closed form",
        worst <= 1e-6,
        f"max trace distance over N <= 10 is {worst:.3e}, bound 1e-6",
    )


def test_criterion_4_purification_limit(reference):
    _, target_dm = coherent_target_dm(reference.p)
    traj = run_purification(reference.rho0, reference.v, 10)
    dist = [trace_distance(step.state, target_dm) for step in traj.steps]
    ratios = [dist[n + 1] / dist[n] for n in range(4, 10)]
    abs_exp_c = local_coefficients(reference.p).abs_exp_c
    ratio_dev = max(abs(r / abs_exp_c - 1) for r in ratios)
    ok = dist[10] < 1e-3 and ratio_dev <= 0.2
    verdict(
        "criterion 4, convergence to the coherent target",
        ok,
        f"distance at N = 10 is {dist[10]:.4e} (bound 1e-3); per-step decay "
        f"ratios deviate from |e^C| = {abs_exp_c} by at most "
        f"{ratio_dev:.1%} (bound 20%)",
    )


def test_criterion_5_yield_plateau(reference):
    target, _ = coherent_target_dm(reference.p)
    traj = run_purification(reference.rho0, reference.v, 30, target=target)
    yields = [step.cumulative_yield for step in traj.steps]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(yields, yields[1:]))
    plateau_held = yields[30] >= 0.95 * yields[10]
    report = spectral_report(reference.v, reference.rho0)
    law_dev = 0.0
    for step in traj.steps:
        if step.fidelity is not None and step.fidelity > 0.999:
            law = abs(report.lambda0) ** (2 * step.n) * report.yield_plateau_coefficient
            law_dev = max(law_dev, abs(step.cumulative_yield / law - 1))
    ok = non_increasing and plateau_held and law_dev <= 0.01
    verdict(
        "criterion 5, yield plateau",
        ok,
        f"non-increasing: {non_increasing}; P(30) = {yields[30]:.6f} vs "
        f"0.95 P(10) = {0.95 * yields[10]:.6f}; worst plateau-law deviation "
        f"once fidelity > 0.999 is {law_dev:.2%} (bound 1%)",
    )


def test_criterion_6_initial_state_independence(reference):
    dim = reference.p.n_max_b
    weights = np.zeros(dim)
    weights[:5] = 1 / 5
    mixed5 = DensityMatrix(np.diag(weights).astype(complex))
    thermal_run = run_purification(reference.rho0, reference.v, 15)
    mixed_run = run_purification(mixed5, reference.v, 15)
    dist = trace_distance(thermal_run.steps[15].state, mixed_run.steps[15].state)
    verdict(
        "criterion 6, initial-state independence",
        dist <= 1e-4,
        f"thermal vs first-5-levels-mixed final states: trace distance at "
        f"N = 15 is {dist:.3e}, bound 1e-4",
    )


def test_criterion_7_measurement_splitting_monotonicity(reference):
    points = zeno_limit_scan(
        reference.system, reference.phi, reference.rho0, TUNED_TAU,
        [1, 2, 4, 8, 16, 32],
    )
    yields = [point.yield_probability for point in points]
    defects = [point.unitarity_defect for point in points]
    yields_up = all(b > a for a, b in zip(yields, yields[1:]))
    defects_down = all(b < a for a, b in zip(defects, defects[1:]))
    verdict(
        "criterion 7, strict monotonicity under measurement splitting",
        yields_up and defects_down,
        "yields " + str([round(y, 6) for y in yields])
        + ", defects " + str([round(d, 6) for d in defects])
        + "; the total time equals the tuned interval, so the single coarse "
        "measurement already sits at |lambda0| = 1 and splitting it first "
        "detunes the interval: the n = 1 -> 2 step moves against both "
        "orderings",
    )


def test_criterion_7_companion_zeno_side_at_half_the_tuned_interval(reference):
    # The same scan at total time TUNED_TAU / 2, away from the tuned
    # interval: no n sits at |lambda0| = 1, and from n = 1 on more frequent
    # confirmation raises the yield and brings W closer to a unitary, the
    # quantum Zeno side (Misra & Sudarshan, J. Math. Phys. 18, 756, 1977).
    points = zeno_limit_scan(
        reference.system, reference.phi, reference.rho0, TUNED_TAU / 2,
        [1, 2, 4, 8, 16, 32],
    )
    yields = [point.yield_probability for point in points]
    defects = [point.unitarity_defect for point in points]
    yields_up = all(b > a for a, b in zip(yields, yields[1:]))
    defects_down = all(b < a for a, b in zip(defects, defects[1:]))
    verdict(
        "criterion 7 companion, Zeno-side monotonicity at half the tuned interval",
        yields_up and defects_down,
        "yields " + str([round(y, 6) for y in yields])
        + ", defects " + str([round(d, 6) for d in defects])
        + "; both must move strictly from n = 1 on",
    )


def test_criterion_8_factorization_identity(reference):
    p = reference.p
    direct = unitary_exponential(reference.system.hamiltonian, p.tau)
    product = factorized_propagator(p)
    idx = [a * p.n_max_b + b for a in range(13) for b in range(13)]
    sub = np.ix_(idx, idx)
    dev = float(np.abs(direct[sub] - product[sub]).max())
    verdict(
        "criterion 8, four-factor propagator identity",
        dev <= 1e-5,
        f"interior-block entrywise deviation {dev:.3e}, bound 1e-5",
    )


def characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * a
        coeffs.append(-np.trace(m) / k)
    return np.array(coeffs)


def test_criterion_9_randomized_property_suites():
    rng = np.random.default_rng(2024)
    cases = 0
    refusals = 0
    worst_biorth = 0.0
    worst_contraction_excess = 0.0
    worst_charpoly_dev = 0.0
    yield_ok = True
    states_ok = True
    while cases < 200:
        dim = int(rng.integers(2, 9))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = raw * (rng.uniform(0.5, 1.0) / np.linalg.norm(raw, ord=2))
        # Once the solver's seed; still drawn, so that the 200 instances
        # stay the ones the bounds below were set on.
        rng.integers(10 ** 6)
        try:
            found = top_k_eigenpairs(m, min(3, dim))
        except NoConvergence:
            refusals += 1
            assert refusals <= 20, "too many refusals on generic contractions"
            continue
        for i, pi in enumerate(found.pairs):
            worst_contraction_excess = max(
                worst_contraction_excess, abs(pi.value) - 1.0
            )
            for j, pj in enumerate(found.pairs):
                dev = abs(np.vdot(pi.left, pj.right) - (1.0 if i == j else 0.0))
                worst_biorth = max(worst_biorth, dev)
        if found.pairs:
            roots = np.roots(characteristic_polynomial(m))
            worst_charpoly_dev = max(
                worst_charpoly_dev,
                abs(abs(found.pairs[0].value) - max(np.abs(roots))),
            )
        diag = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        rho = diag @ diag.conj().T
        rho = DensityMatrix(rho / np.trace(rho).real)
        traj = run_purification(rho, ProjectedPropagator(matrix=m, tau=1.0), 8)
        yields = [step.cumulative_yield for step in traj.steps]
        yield_ok = yield_ok and all(
            b <= a + 1e-12 for a, b in zip(yields, yields[1:])
        )
        try:
            for step in traj.steps:
                DensityMatrix(step.state.matrix)
        except ValueError:
            states_ok = False
        cases += 1
    ok = (
        cases >= 200
        and worst_biorth <= 1e-8
        and worst_contraction_excess <= 1e-9
        and worst_charpoly_dev <= 1e-7
        and yield_ok
        and states_ok
    )
    verdict(
        "criterion 9, randomized property suites",
        ok,
        f"{cases} cases (dim <= 8, {refusals} refusals); worst "
        f"biorthonormality {worst_biorth:.3e} (bound 1e-8), worst "
        f"|eigenvalue| excess {worst_contraction_excess:.3e} (bound 1e-9), "
        f"worst dominant-vs-charpoly deviation {worst_charpoly_dev:.3e} "
        f"(bound 1e-7), yields monotone: {yield_ok}, states valid: {states_ok}",
    )
