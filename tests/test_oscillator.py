"""Tests for the exactly solvable two-oscillator closed forms."""


import ctypes
import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from zenopure.engine import (
    BipartiteSystem,
    DensityMatrix,
    ProbeState,
    build_projected_propagator,
    fidelity,
    run_purification,
    trace_distance,
)
from zenopure.linalg import unitary_exponential, unitary_from_blocks
from zenopure.oscillator import (
    ClosedFormCoefficients,
    CutoffTooSmall,
    DegenerateInterval,
    OscillatorParams,
    ZeroFrequency,
    build_hamiltonian,
    closed_form_propagator,
    closed_form_rho,
    coefficients,
    coherent_state,
    destroy,
    factorized_propagator,
    lambda_n,
    thermal_state,
    tuned_tau,
)

SQRT3 = np.sqrt(3.0)

REFERENCE = OscillatorParams(
    big_omega=1.0, omega=1.0, g=0.2, alpha=0.5, beta=1.0, tau=2 * np.pi / 1.2
)


def literal_lambda0(c: ClosedFormCoefficients, alpha: complex) -> complex:
    """Textbook exponent 1 - e^B - A^2/(1 - e^{-C}), evaluated as written.

    Algebraically identical to the factored exponent used in production but
    numerically independent of it (different cancellation pattern), so it
    serves as an oracle away from the intervals where it loses digits.
    """
    w = 1.0 - c.exp_b - c.a_coef ** 2 / (1.0 - c.exp_neg_c)
    return np.exp(-abs(alpha) ** 2 * w)


# ------------------------------------------------------------ parameters


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=0.0, tau=1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=-1.0)
    with pytest.raises(ValueError):
        OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=1.0, n_max_a=0)
    with pytest.raises(CutoffTooSmall):
        OscillatorParams(1.0, 1.0, 0.2, alpha=2.0, beta=1.0, tau=1.0, n_max_b=10)
    # a number-state probe is exactly representable at any cutoff
    OscillatorParams(1.0, 1.0, 0.2, alpha=0.0, beta=1.0, tau=1.0, n_max_a=2, n_max_b=2)


def test_destroy():
    b = destroy(3)
    expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
    np.testing.assert_allclose(b, expected, atol=1e-15)
    with pytest.raises(ValueError):
        destroy(0)


def leave_errno_erange():
    """Leave ERANGE in the C errno, as an overflowing libc call does."""
    libc = ctypes.CDLL(None)
    libc.strtod.restype = ctypes.c_double
    libc.strtod(b"1e999", None)


def test_nan_alpha_is_nan_whatever_errno_holds():
    # CPython's abs of a complex with a nan part returns nan without clearing
    # errno, so it raises OverflowError after a C call that left ERANGE.
    alpha = complex(np.nan, 0.0)
    leave_errno_erange()
    p = OscillatorParams(1.0, 1.0, 0.2, alpha, beta=1.0, tau=1.0, n_max_a=14, n_max_b=14)
    leave_errno_erange()
    assert np.isnan(coefficients(p).lambda0)
    leave_errno_erange()
    assert np.isnan(coherent_state(alpha, 14)).all()


# ---------------------------------------------------------- coefficients


def test_coefficients_reference_values():
    # On resonance with g = 0.2 and tau = 2 pi / 1.2: delta tau = pi / 3,
    # so Z = 1/2, E = e^{i pi / 3}, and every coefficient is elementary.
    c = coefficients(REFERENCE)
    assert c.delta == pytest.approx(0.2, abs=1e-15)
    assert c.big_omega_plus == pytest.approx(1.2, abs=1e-14)
    assert c.big_omega_minus == pytest.approx(0.8, abs=1e-14)
    assert c.a_coef == pytest.approx(SQRT3, abs=1e-12)
    assert c.exp_b == pytest.approx(1 + 1j * SQRT3, abs=1e-12)
    assert c.exp_c == pytest.approx(0.25 + 0.25j * SQRT3, abs=1e-12)
    assert (1 - c.exp_neg_c) == pytest.approx(1j * SQRT3, abs=1e-12)
    assert c.abs_exp_c == pytest.approx(0.5, abs=1e-12)
    assert c.alpha_tilde == pytest.approx(-0.5j, abs=1e-12)
    assert c.lambda0 == pytest.approx(1.0, abs=1e-12)


def test_coefficients_decoupled():
    # g = 0 decouples the modes: A = 0 and e^C is the bare phase e^{-i omega tau}.
    p = OscillatorParams(2.0, 1.0, 0.0, 0.5, beta=1.0, tau=1.0)
    c = coefficients(p)
    assert c.delta == pytest.approx(0.5, abs=1e-15)
    assert c.a_coef == pytest.approx(0.0, abs=1e-15)
    assert c.exp_c == pytest.approx(np.exp(-1j), abs=1e-14)
    assert c.abs_exp_c == pytest.approx(1.0, abs=1e-14)
    # the probe dephases alone: lambda0 = exp(-|alpha|^2 (1 - e^{-i Omega tau}))
    expected = np.exp(-0.25 * (1 - np.exp(-2j)))
    assert c.lambda0 == pytest.approx(expected, abs=1e-12)


def test_coefficients_small_interval_limit():
    p = OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=1e-4 / 0.2)
    c = coefficients(p)
    assert abs(c.a_coef) < 2e-4
    assert abs(c.exp_b - 1) < 1e-3
    assert abs(c.exp_c - 1) < 1e-3
    assert abs(c.abs_exp_c - 1) < 1e-8
    assert abs(c.lambda0 - 1) < 1e-3


def test_coefficients_degenerate_interval():
    with pytest.raises(DegenerateInterval):
        coefficients(OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=0.0))
    with pytest.raises(DegenerateInterval):
        # delta tau = pi exactly
        coefficients(OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=np.pi / 0.2))
    with pytest.raises(DegenerateInterval):
        # g = 0 on resonance: delta = 0 at any interval
        coefficients(OscillatorParams(1.0, 1.0, 0.0, 0.5, beta=1.0, tau=1.3))


@pytest.mark.parametrize("tau", [np.nan, np.inf])
def test_coefficients_refuse_non_finite_interval(tau):
    # A plain ValueError: compare reports a DegenerateInterval with exit code
    # 2, but a non-finite interval is a refused input.
    with pytest.raises(ValueError) as info:
        coefficients(OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=tau))
    assert type(info.value) is ValueError
    assert str(info.value) == f"delta*tau = {0.2 * tau!r} is not finite"


def test_coefficients_identity_grid():
    # Sweep generic parameter combinations and hold the public identities:
    # e^C e^{-C} = 1, |e^C| matches its trigonometric form, and the literal
    # textbook eigenvalue matches the production one.
    checked = 0
    for g in (0.15, 0.7):
        for d_om in (0.0, 0.6):
            for tau in (0.4, 1.1, 2.3):
                for alpha in (0.5, 0.3 - 0.2j):
                    p = OscillatorParams(
                        1.0 + d_om / 2, 1.0 - d_om / 2, g, alpha, beta=1.0, tau=tau
                    )
                    try:
                        c = coefficients(p)
                    except DegenerateInterval:
                        continue
                    assert abs(c.exp_c * c.exp_neg_c - 1) <= 1e-12
                    assert abs(abs(c.exp_c) - c.abs_exp_c) <= 1e-12
                    assert abs(c.exp_b * c.exp_c
                               - np.exp(-1j * (p.big_omega + p.omega) * tau)) <= 1e-12
                    assert abs(literal_lambda0(c, alpha) - c.lambda0) <= 1e-8
                    assert abs(c.lambda0) <= 1.0 + 1e-12
                    checked += 1
    assert checked >= 20


def test_lambda_n_geometric():
    c = coefficients(REFERENCE)
    assert lambda_n(c, 0) == c.lambda0
    assert lambda_n(c, 3) == pytest.approx(c.lambda0 * c.exp_c ** 3, abs=1e-14)
    assert abs(lambda_n(c, 5)) == pytest.approx(0.5 ** 5, abs=1e-12)
    with pytest.raises(ValueError):
        lambda_n(c, -1)


# ---------------------------------------------------------- eigenvectors


def closed_form_eigenvectors(p: OscillatorParams, count: int) -> np.ndarray:
    """The first ``count`` closed-form right eigenvectors of V, unit columns:
    U|n> for the eigenvector map U = exp[r (alpha* b + alpha b†)],
    r = A/(1 - e^{-C}), formed here with scipy's expm on B's Fock space.
    Each holds at most 1e-8 of its weight on the last Fock state, so a
    residual taken on the truncated space measures the propagator, not the
    cutoff."""
    c = coefficients(p)
    r = c.a_coef / (1.0 - c.exp_neg_c)
    b = destroy(p.n_max_b)
    u = scipy.linalg.expm(r * (np.conj(p.alpha) * b + p.alpha * b.conj().T))[:, :count]
    u = u / np.linalg.norm(u, axis=0)
    assert (np.abs(u[-1]) ** 2 <= 1e-8).all()
    return u


def test_eigenvector_ground_is_coherent():
    u0 = closed_form_eigenvectors(REFERENCE, 1)[:, 0]
    target = coherent_state(-0.5j, 30)
    overlap = abs(np.vdot(target, u0))
    assert overlap >= 1 - 1e-8
    # closed_form_propagator's dominant eigenvector is that coherent state.
    w = closed_form_propagator(REFERENCE)
    lam = coefficients(REFERENCE).lambda0
    assert np.linalg.norm(w @ target - lam * target) <= 1e-8


def test_eigenvector_residuals_against_engine():
    sys_ = build_hamiltonian(REFERENCE)
    phi = ProbeState(coherent_state(REFERENCE.alpha, REFERENCE.n_max_a))
    v = build_projected_propagator(sys_, phi, REFERENCE.tau).matrix
    c = coefficients(REFERENCE)
    for n, u in enumerate(closed_form_eigenvectors(REFERENCE, 4).T):
        lam = lambda_n(c, n)
        residual = np.linalg.norm(v @ u - lam * u) / abs(lam)
        assert residual <= 1e-5


# ----------------------------------------------------------- hamiltonian


def kron_hamiltonian(p: OscillatorParams) -> np.ndarray:
    """The two-mode Hamiltonian from dense Kronecker products, as written."""
    a, b = destroy(p.n_max_a), destroy(p.n_max_b)
    eye_a, eye_b = np.eye(p.n_max_a), np.eye(p.n_max_b)
    coupling = np.kron(a.conj().T, b)
    return (
        p.big_omega * np.kron(np.diag(np.arange(p.n_max_a, dtype=float)), eye_b)
        + p.omega * np.kron(eye_a, np.diag(np.arange(p.n_max_b, dtype=float)))
        + 1j * p.g * (coupling - coupling.conj().T)
    )


@pytest.mark.parametrize("n_max_a, n_max_b", [(4, 4), (5, 7), (7, 5)])
def test_hamiltonian_matches_kron_construction(n_max_a, n_max_b):
    p = OscillatorParams(1.3, 0.7, 0.2, 0.0, beta=1.0, tau=1.0,
                         n_max_a=n_max_a, n_max_b=n_max_b)
    np.testing.assert_array_equal(build_hamiltonian(p).hamiltonian, kron_hamiltonian(p))


@given(n_max_a=st.integers(1, 12), n_max_b=st.integers(1, 12),
       g=st.sampled_from([0.0, 0.2, -0.7]), detuning=st.sampled_from([0.0, 0.45]),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_block_built_system_matches_dense_route(n_max_a, n_max_b, g, detuning, seed):
    # build_hamiltonian hands its excitation blocks to the block constructor;
    # the system built from the whole kron H must come out the same, bit for
    # bit: the same blocks in the same order (at g = 0 every state is a
    # block of its own), the same decompositions, V and dense H.
    p = OscillatorParams(1.0 + detuning, 1.0, g, 0.0, beta=1.0, tau=1.0,
                         n_max_a=n_max_a, n_max_b=n_max_b)
    built = build_hamiltonian(p)
    dense = BipartiteSystem(dim_a=n_max_a, dim_b=n_max_b, hamiltonian=kron_hamiltonian(p))
    assert len(built.block_indices) == len(dense.block_indices)
    for ours, theirs, m_ours, m_theirs in zip(built.block_indices, dense.block_indices,
                                              built.block_matrices, dense.block_matrices):
        np.testing.assert_array_equal(ours, theirs)
        np.testing.assert_array_equal(m_ours, m_theirs)
    for ours, theirs in zip(built.blocks, dense.blocks):
        np.testing.assert_array_equal(ours.indices, theirs.indices)
        np.testing.assert_array_equal(ours.eigenvalues, theirs.eigenvalues)
        np.testing.assert_array_equal(ours.eigenvectors, theirs.eigenvectors)
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal(n_max_a) + 1j * rng.standard_normal(n_max_a)
    probe = ProbeState(phi / np.linalg.norm(phi))
    tau = rng.uniform(0.1, 3.0)
    np.testing.assert_array_equal(build_projected_propagator(built, probe, tau).matrix,
                                  build_projected_propagator(dense, probe, tau).matrix)
    np.testing.assert_array_equal(built.hamiltonian, dense.hamiltonian)


def test_hamiltonian_assembled_as_ordinary_array():
    # A block-built H, once read, is a plain writeable complex array equal to
    # the Kronecker construction, and later reads return that same array.
    system = build_hamiltonian(REFERENCE)
    h = system.hamiltonian
    assert type(h) is np.ndarray and h.base is None
    assert h.flags.writeable and h.flags.c_contiguous and h.dtype == complex
    assert system.hamiltonian is h
    np.testing.assert_array_equal(h, kron_hamiltonian(REFERENCE))


def test_hamiltonian_excitation_blocks():
    # n_a + n_b is conserved: 59 blocks at cutoff 30, the largest (n = 29)
    # holding 30 states, each block of one total excitation number.
    h = build_hamiltonian(REFERENCE).hamiltonian
    blocks = BipartiteSystem(dim_a=30, dim_b=30, hamiltonian=h).block_indices
    assert len(blocks) == 59
    assert max(len(b) for b in blocks) == 30
    for idx in blocks:
        assert len(set((idx // 30 + idx % 30).tolist())) == 1


def test_hamiltonian_is_hermitian_and_coupled():
    sys_ = build_hamiltonian(
        OscillatorParams(1.3, 0.9, 0.25, 0.0, beta=1.0, tau=1.0, n_max_a=5, n_max_b=4)
    )
    h = sys_.hamiltonian
    np.testing.assert_allclose(h, h.conj().T, atol=1e-15)
    assert sys_.dim_a == 5 and sys_.dim_b == 4


def test_hamiltonian_decoupled_is_diagonal():
    sys_ = build_hamiltonian(
        OscillatorParams(2.0, 1.0, 0.0, 0.0, beta=1.0, tau=1.0, n_max_a=3, n_max_b=3)
    )
    h = sys_.hamiltonian
    np.testing.assert_allclose(h, np.diag(np.diag(h)), atol=1e-15)
    np.testing.assert_allclose(
        np.diag(h).real, [2 * a + b for a in range(3) for b in range(3)], atol=1e-14
    )


def test_hamiltonian_two_level_spectrum():
    # One excitation splits into omega +- g on resonance.
    p = OscillatorParams(1.0, 1.0, 0.2, 0.0, beta=1.0, tau=1.0, n_max_a=2, n_max_b=2)
    eigenvalues = np.linalg.eigvalsh(build_hamiltonian(p).hamiltonian)
    np.testing.assert_allclose(eigenvalues, [0.0, 0.8, 1.2, 2.0], atol=1e-12)


# ---------------------------------------------------------------- states


def test_coherent_state_basics():
    np.testing.assert_allclose(coherent_state(0.0, 4), [1, 0, 0, 0], atol=1e-15)
    amps = coherent_state(0.5, 30)
    norm2 = float(np.sum(np.abs(amps) ** 2))
    assert norm2 >= 1 - 1e-10
    mean_photon = float(np.sum(np.arange(30) * np.abs(amps) ** 2))
    assert mean_photon == pytest.approx(0.25, abs=1e-9)
    phased = coherent_state(0.5j, 30)
    assert phased[1] == pytest.approx(amps[1] * 1j, abs=1e-15)


def test_coherent_state_cutoff_guard():
    with pytest.raises(CutoffTooSmall):
        coherent_state(3.0, 10)
    with pytest.raises(ValueError):
        coherent_state(0.5, 0)


def test_thermal_state_populations():
    rho = thermal_state(1.0, 1.0, 30)
    assert float(np.trace(rho.matrix).real) == pytest.approx(1.0, abs=1e-12)
    assert rho.matrix[0, 0].real == pytest.approx(1 - np.exp(-1), abs=1e-9)
    cold = thermal_state(100.0, 1.0, 30)
    assert cold.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        thermal_state(-1.0, 1.0, 30)
    with pytest.raises(ValueError):
        thermal_state(1.0, 1.0, 0)


# ---------------------------------------------------------- trajectories


def test_closed_form_rho_starts_thermal():
    form = closed_form_rho(REFERENCE, 0)
    assert form.displacement_argument == pytest.approx(0.0, abs=1e-15)
    assert form.gauge_norm == pytest.approx(1 - np.exp(-1), abs=1e-12)
    thermal = thermal_state(1.0, 1.0, REFERENCE.n_max_b)
    assert trace_distance(form.state, thermal) <= 1e-12


def test_closed_form_rho_converges_to_coherent_target():
    form = closed_form_rho(REFERENCE, 10)
    target = coherent_state(-0.5j, REFERENCE.n_max_b)
    assert 1 - fidelity(form.state, target) <= 1e-3
    late = closed_form_rho(REFERENCE, 20)
    assert late.displacement_argument == pytest.approx(-0.5j, abs=1e-4)
    assert late.gauge_norm == pytest.approx(1.0, abs=1e-5)


def test_closed_form_rho_matches_engine_off_tuning():
    p = OscillatorParams(1.1, 0.9, 0.15, 0.4, beta=1.2, tau=0.7)
    sys_ = build_hamiltonian(p)
    phi = ProbeState(coherent_state(p.alpha, p.n_max_a))
    v = build_projected_propagator(sys_, phi, p.tau)
    rho0 = thermal_state(p.beta, p.omega, p.n_max_b)
    traj = run_purification(rho0, v, 3)
    for step in traj.steps:
        form = closed_form_rho(p, step.n)
        assert trace_distance(step.state, form.state) <= 1e-6


def test_closed_form_rho_validation():
    with pytest.raises(ValueError):
        closed_form_rho(REFERENCE, -1)
    with pytest.raises(ValueError, match=r"^beta \* omega must be positive$"):
        closed_form_rho(dataclasses.replace(REFERENCE, omega=-1.0), 1)


# ----------------------------------------------------------- propagators


def test_closed_form_propagator_decoupled_diagonal():
    p = OscillatorParams(2.0, 1.0, 0.0, 0.5, beta=1.0, tau=1.0, n_max_a=30, n_max_b=12)
    c = coefficients(p)
    w = closed_form_propagator(p)
    np.testing.assert_allclose(
        w, np.diag(c.lambda0 * c.exp_c ** np.arange(12)), atol=1e-14
    )
    sys_ = build_hamiltonian(p)
    phi = ProbeState(coherent_state(p.alpha, p.n_max_a))
    v = build_projected_propagator(sys_, phi, p.tau)
    np.testing.assert_allclose(v.matrix, w, atol=1e-8)


def test_closed_form_propagator_has_the_closed_form_eigenpairs():
    # W u_n = lambda_n u_n holds away from the Fock cutoff, with u_n from an
    # eigenvector map formed in the test. A complex alpha tells alpha from
    # its conjugate in the map's generator.
    p = OscillatorParams(1.0, 1.0, 0.2, 0.5 - 0.3j, beta=1.0, tau=2.3,
                         n_max_a=30, n_max_b=30)
    c = coefficients(p)
    w = closed_form_propagator(p)
    for n, u in enumerate(closed_form_eigenvectors(p, 4).T):
        lam = lambda_n(c, n)
        assert np.linalg.norm(w @ u - lam * u) / abs(lam) <= 1e-8


def test_factorized_propagator_zero_time():
    p = OscillatorParams(1.0, 1.0, 0.2, 0.0, beta=1.0, tau=0.0, n_max_a=4, n_max_b=4)
    np.testing.assert_allclose(factorized_propagator(p), np.eye(16), atol=1e-15)


def test_factorized_propagator_decoupled():
    p = OscillatorParams(2.0, 1.0, 0.0, 0.5, beta=1.0, tau=1.0, n_max_a=6, n_max_b=6)
    c = coefficients(p)
    expected = np.kron(
        np.diag(c.exp_b ** np.arange(6)), np.diag(c.exp_c ** np.arange(6))
    )
    np.testing.assert_allclose(factorized_propagator(p), expected, atol=1e-13)


@pytest.mark.parametrize("n_max_a, n_max_b", [(10, 10), (10, 7)])
def test_factorized_propagator_matches_dense_product(n_max_a, n_max_b):
    p = OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=2.3,
                         n_max_a=n_max_a, n_max_b=n_max_b)
    c = coefficients(p)
    a, b = destroy(n_max_a), destroy(n_max_b)
    dense = (
        scipy.linalg.expm(c.a_coef * np.kron(a.conj().T, b))
        @ np.kron(np.diag(c.exp_b ** np.arange(n_max_a)), np.eye(n_max_b))
        @ np.kron(np.eye(n_max_a), np.diag(c.exp_c ** np.arange(n_max_b)))
        @ scipy.linalg.expm(-c.a_coef * np.kron(a, b.conj().T))
    )
    np.testing.assert_allclose(factorized_propagator(p), dense, rtol=0, atol=1e-12)


def test_factorized_propagator_interior_block():
    p = OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=2 * np.pi / 1.2,
                         n_max_a=16, n_max_b=16)
    direct = unitary_exponential(build_hamiltonian(p).hamiltonian, p.tau)
    factored = factorized_propagator(p)
    idx = [a * 16 + b for a in range(6) for b in range(6)]
    block = np.abs(direct[np.ix_(idx, idx)] - factored[np.ix_(idx, idx)]).max()
    assert block <= 1e-6


def assembled_propagators(p: OscillatorParams, blocks):
    """Both D x D propagators scattered block by block, as a plain loop."""
    d = p.n_max_a * p.n_max_b
    direct = np.zeros((d, d), dtype=complex)
    for b in blocks:
        q = b.eigenvectors
        phases = np.exp(-1j * b.eigenvalues * p.tau)
        direct[np.ix_(b.indices, b.indices)] = (q * phases) @ q.conj().T
    c = coefficients(p)
    occ_a, occ_b = np.divmod(np.arange(d), p.n_max_b)
    product = np.zeros((d, d), dtype=complex)
    for k in range(p.n_max_a + p.n_max_b - 1):
        idx = np.flatnonzero(occ_a + occ_b == k)
        a_k, b_k = occ_a[idx], occ_b[idx]
        up = np.diag(np.sqrt(a_k[:-1] + 1.0) * np.sqrt(b_k[:-1]), k=-1)
        diagonal = c.exp_b ** a_k * c.exp_c ** b_k
        product[np.ix_(idx, idx)] = (
            (scipy.linalg.expm(c.a_coef * up) * diagonal) @ scipy.linalg.expm(-c.a_coef * up.T)
        )
    return direct, product


@pytest.mark.parametrize("n_max_a, n_max_b", [(10, 10), (10, 7)])
def test_restricted_propagators_equal_the_whole_ones(n_max_a, n_max_b):
    # Whole or restricted to a set of composite indices, in any order and
    # with repeats, both routes give the entries the block-by-block loop
    # puts there, bit for bit; compare relies on this to print its interior
    # deviation unchanged.
    p = OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=2.3,
                         n_max_a=n_max_a, n_max_b=n_max_b)
    d = n_max_a * n_max_b
    blocks = build_hamiltonian(p).blocks
    direct, product = assembled_propagators(p, blocks)
    np.testing.assert_array_equal(unitary_from_blocks(blocks, p.tau), direct)
    np.testing.assert_array_equal(factorized_propagator(p), product)
    zero = OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=0.0,
                            n_max_a=n_max_a, n_max_b=n_max_b)
    interior = [a * n_max_b + b for a in range(6) for b in range(6)]
    scattered = np.random.default_rng(5).choice(d, size=40, replace=False)
    repeated = [3, 17, 3, d - 1, 0, 17]
    for idx in (interior, scattered, repeated):
        sub = np.ix_(idx, idx)
        np.testing.assert_array_equal(
            unitary_from_blocks(blocks, p.tau, indices=idx), direct[sub])
        np.testing.assert_array_equal(factorized_propagator(p, indices=idx), product[sub])
        np.testing.assert_array_equal(
            factorized_propagator(zero, indices=idx), np.eye(d)[sub])


# --------------------------------------------------------------- tunings


def test_tuned_tau_values():
    assert tuned_tau(REFERENCE, 1, "plus") == pytest.approx(2 * np.pi / 1.2, abs=1e-14)
    assert tuned_tau(REFERENCE, 1, "minus") == pytest.approx(2 * np.pi / 0.8, abs=1e-14)
    assert tuned_tau(REFERENCE, 2, "plus") == pytest.approx(
        2 * tuned_tau(REFERENCE, 1, "plus"), abs=1e-13
    )


def test_tuned_tau_restores_unit_eigenvalue():
    # minus branch with m = 2 lands exactly on delta tau = pi, which is the
    # degenerate interval, so it is excluded here.
    for branch, m in (("plus", 1), ("plus", 2), ("minus", 1)):
        tau = tuned_tau(REFERENCE, m, branch)
        p = OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=tau)
        c = coefficients(p)
        assert abs(abs(c.lambda0) - 1.0) <= 1e-9


def test_tuned_tau_errors():
    with pytest.raises(ValueError):
        tuned_tau(REFERENCE, 0, "plus")
    with pytest.raises(ValueError):
        tuned_tau(REFERENCE, 1, "both")
    strong = OscillatorParams(1.0, 1.0, 1.0, 0.5, beta=1.0, tau=1.0)
    with pytest.raises(ZeroFrequency):
        tuned_tau(strong, 1, "minus")


# ------------------------------------------------------------ truncation


def test_cutoff_convergence():
    # Doubling headroom over the reference cutoff moves nothing by more
    # than 1e-6: the truncation at 30 is already converged.
    results = {}
    for cutoff in (30, 40):
        p = OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=2 * np.pi / 1.2,
                             n_max_a=cutoff, n_max_b=cutoff)
        sys_ = build_hamiltonian(p)
        phi = ProbeState(coherent_state(p.alpha, cutoff))
        v = build_projected_propagator(sys_, phi, p.tau)
        rho0 = thermal_state(p.beta, p.omega, cutoff)
        target = coherent_state(-0.5j, cutoff)
        traj = run_purification(rho0, v, 10, target=target)
        results[cutoff] = (
            v.eigenpairs.pairs[0].value,
            traj.steps[10].fidelity,
            traj.steps[10].cumulative_yield,
        )
    for a, b in zip(results[30], results[40]):
        assert abs(a - b) <= 1e-6
