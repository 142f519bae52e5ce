"""Tests for the projected-propagator engine and trajectory iteration."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from zenopure import engine, linalg
from zenopure.engine import (
    BipartiteSystem,
    DensityMatrix,
    ExtinctBranch,
    ProbeState,
    ProjectedPropagator,
    build_projected_propagator,
    evolve_step,
    fidelity,
    run_purification,
    spectral_report,
    trace_distance,
    zeno_limit_scan,
)
from zenopure.linalg import top_k_eigenpairs, unitary_exponential
from zenopure.oscillator import (
    OscillatorParams,
    build_hamiltonian,
    closed_form_propagator,
    coherent_state,
    thermal_state,
)

REFERENCE = OscillatorParams(
    big_omega=1.0, omega=1.0, g=0.2, alpha=0.5, beta=1.0, tau=2 * np.pi / 1.2
)


def reference_setup():
    sys_ = build_hamiltonian(REFERENCE)
    phi = ProbeState(coherent_state(REFERENCE.alpha, REFERENCE.n_max_a))
    v = build_projected_propagator(sys_, phi, REFERENCE.tau)
    rho0 = thermal_state(REFERENCE.beta, REFERENCE.omega, REFERENCE.n_max_b)
    return sys_, phi, v, rho0


def random_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def n_step_yield(rho: DensityMatrix, v: ProjectedPropagator, n: int) -> float:
    """tr(V^n rho V^n†), the probability that n confirmations in a row all
    succeed, clipped to [0, 1] as ``zeno_limit_scan`` clips it."""
    w = np.linalg.matrix_power(v.matrix, n)
    return min(max(float(np.trace(w @ rho.matrix @ w.conj().T).real), 0.0), 1.0)


def random_physical_propagator(rng: np.random.Generator, dim_a: int,
                               dim_b: int) -> ProjectedPropagator:
    """Contraction built the physical way: project a random unitary."""
    a = rng.standard_normal((dim_a * dim_b,) * 2) + 1j * rng.standard_normal(
        (dim_a * dim_b,) * 2
    )
    h = (a + a.conj().T) / 2
    phi = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    phi /= np.linalg.norm(phi)
    sys_ = BipartiteSystem(dim_a=dim_a, dim_b=dim_b, hamiltonian=h)
    return build_projected_propagator(sys_, ProbeState(phi), rng.uniform(0.1, 3.0))


# ---------------------------------------------------------------- validation


def test_bipartite_system_rejects_non_hermitian():
    with pytest.raises(ValueError):
        BipartiteSystem(dim_a=1, dim_b=2, hamiltonian=np.array([[0, 1], [0, 0]]))


def test_bipartite_system_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        BipartiteSystem(dim_a=2, dim_b=2, hamiltonian=np.eye(3))


@given(seed=st.integers(0, 10_000), factor=st.sampled_from([0.5, 2.0]),
       one_sided=st.booleans())
@settings(max_examples=60, deadline=None)
def test_bipartite_system_block_symmetry_check_matches_dense(seed, factor, one_sided):
    # A permuted block-diagonal H made non-Hermitian at 0.5x or 2x the bound,
    # either by an anti-Hermitian perturbation inside its blocks or by one
    # entry H[i, j] != 0 = H[j, i] that joins two of them. The block-wise
    # check must accept exactly when the dense one does.
    rng = np.random.default_rng(seed)
    dim_a, dim_b = int(rng.integers(1, 4)), int(rng.integers(2, 5))
    d = dim_a * dim_b
    cuts = np.sort(rng.choice(np.arange(1, d), size=rng.integers(1, d), replace=False))
    h = np.zeros((d, d), dtype=complex)
    inside = np.zeros((d, d), dtype=bool)
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, d]):
        a = rng.standard_normal((hi - lo,) * 2) + 1j * rng.standard_normal((hi - lo,) * 2)
        h[lo:hi, lo:hi] = (a + a.conj().T) / 2 * rng.uniform(0.01, 100.0)
        inside[lo:hi, lo:hi] = True
    bound = 1e-9 * np.linalg.norm(h)
    if one_sided:
        i, j = int(rng.integers(0, cuts[0])), int(rng.integers(cuts[0], d))
        # ||E - E†||_F = sqrt(2) |H[i, j]| for the single entry E.
        h[i, j] = factor * bound / np.sqrt(2) * np.exp(2j * np.pi * rng.uniform())
    else:
        k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        k = np.where(inside, (k - k.conj().T) / 2, 0)
        h += factor * bound / (2 * np.linalg.norm(k)) * k
    perm = rng.permutation(d)
    h = h[np.ix_(perm, perm)]
    dense_accepts = np.linalg.norm(h - h.conj().T) <= 1e-9 * np.linalg.norm(h)
    assert dense_accepts == (factor < 1)
    try:
        sys_ = BipartiteSystem(dim_a=dim_a, dim_b=dim_b, hamiltonian=h)
    except ValueError as exc:
        assert not dense_accepts
        assert "not Hermitian (deviation" in str(exc)
        return
    assert dense_accepts
    np.testing.assert_array_equal(np.sort(np.concatenate(sys_.block_indices)), np.arange(d))
    if one_sided:
        where = {int(x): n for n, idx in enumerate(sys_.block_indices) for x in idx}
        assert where[int(np.flatnonzero(perm == i)[0])] == where[int(np.flatnonzero(perm == j)[0])]


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_bipartite_system_refuses_non_finite_before_block_search(monkeypatch, bad):
    def no_search(a):
        raise AssertionError("the block search ran on a non-finite H")

    monkeypatch.setattr(linalg, "_coupled_blocks", no_search)
    h = np.eye(4, dtype=complex)
    h[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BipartiteSystem(dim_a=2, dim_b=2, hamiltonian=h)


def test_bipartite_system_decomposes_each_block_once(monkeypatch):
    seen = []
    original = linalg.hermitian_eigendecompose

    def counted(m, *args, **kwargs):
        seen.append(m)
        return original(m, *args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigendecompose", counted)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    whole = BipartiteSystem(dim_a=2, dim_b=3, hamiltonian=a + a.conj().T)
    assert not seen  # nothing is decomposed before it is needed
    assert whole.blocks is whole.blocks
    # A one-block H is handed over as it stands, not copied.
    assert len(seen) == 1 and seen[0] is whole.hamiltonian
    seen.clear()
    split = BipartiteSystem(dim_a=2, dim_b=3, hamiltonian=np.diag(np.arange(6.0)))
    build_projected_propagator(split, ProbeState(np.array([1.0, 0.0])), 0.5)
    build_projected_propagator(split, ProbeState(np.array([0.0, 1.0])), 1.5)
    assert len(seen) == len(split.block_indices) == 6


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_from_blocks_matches_dense_constructor(seed):
    # A permuted block-diagonal H, some of its blocks diagonal, handed over
    # as its coupled blocks in shuffled order with shuffled indices: the
    # block constructor must sort them into the blocks the dense constructor
    # finds, in the same order, with the same matrices and decompositions.
    rng = np.random.default_rng(seed)
    dim_a, dim_b = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    d = dim_a * dim_b
    cuts = np.sort(rng.choice(np.arange(1, d), size=rng.integers(0, d), replace=False))
    h = np.zeros((d, d), dtype=complex)
    coupled = []
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, d]):
        a = rng.standard_normal((hi - lo,) * 2) + 1j * rng.standard_normal((hi - lo,) * 2)
        a = (a + a.conj().T) / 2
        if rng.uniform() < 0.3:
            h[lo:hi, lo:hi] = np.diag(np.diag(a))
            coupled += [[i] for i in range(lo, hi)]
        else:
            h[lo:hi, lo:hi] = a
            coupled.append(list(range(lo, hi)))
    perm = rng.permutation(d)
    h = h[np.ix_(perm, perm)]
    parts = [rng.permutation(np.flatnonzero(np.isin(perm, idx))) for idx in coupled]
    parts = [parts[i] for i in rng.permutation(len(parts))]
    built = BipartiteSystem.from_blocks(dim_a, dim_b, [(idx, h[np.ix_(idx, idx)]) for idx in parts])
    dense = BipartiteSystem(dim_a=dim_a, dim_b=dim_b, hamiltonian=h)
    assert len(built.block_indices) == len(dense.block_indices)
    for ours, theirs in zip(built.block_indices, dense.block_indices):
        np.testing.assert_array_equal(ours, theirs)
    for ours, theirs in zip(built.block_matrices, dense.block_matrices):
        np.testing.assert_array_equal(ours, theirs)
    for ours, theirs in zip(built.blocks, dense.blocks):
        np.testing.assert_array_equal(ours.eigenvalues, theirs.eigenvalues)
        np.testing.assert_array_equal(ours.eigenvectors, theirs.eigenvectors)
    np.testing.assert_array_equal(built.hamiltonian, h)


def test_from_blocks_keeps_each_given_block_whole():
    # The first block's own pattern falls apart into {0, 2} and {1, 3}: the
    # dense constructor splits it, but a given block is H's coupled block as
    # it stands, and each empty block is dropped, a plain [] of indices too.
    # V is the same to rounding.
    rng = np.random.default_rng(11)

    def hermitian(n):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return a + a.conj().T

    split = np.zeros((4, 4), dtype=complex)
    split[np.ix_([0, 2], [0, 2])] = hermitian(2)
    split[np.ix_([1, 3], [1, 3])] = hermitian(2)
    pair = hermitian(2)
    h = np.zeros((6, 6), dtype=complex)
    h[:4, :4] = split
    h[np.ix_([5, 4], [5, 4])] = pair
    built = BipartiteSystem.from_blocks(2, 3, [
        ([5, 4], pair), (np.empty(0, dtype=int), np.zeros((0, 0))), ([0, 1, 2, 3], split),
        ([], np.zeros((0, 0))),
    ])
    dense = BipartiteSystem(dim_a=2, dim_b=3, hamiltonian=h)
    np.testing.assert_array_equal(built.hamiltonian, h)
    assert [idx.tolist() for idx in built.block_indices] == [[0, 1, 2, 3], [4, 5]]
    assert [idx.tolist() for idx in dense.block_indices] == [[0, 2], [1, 3], [4, 5]]
    assert len(built.blocks) == 2
    probe = ProbeState(np.array([0.6, 0.8j]))
    np.testing.assert_allclose(build_projected_propagator(built, probe, 0.7).matrix,
                               build_projected_propagator(dense, probe, 0.7).matrix,
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("blocks, message", [
    ([([0, 1], np.eye(2)), ([1, 2, 3], np.eye(3))], r"partition range\(4\): 0 missing, 1 repeated"),
    ([([0, 1], np.eye(2)), ([3], np.eye(1))], r"partition range\(4\): 1 missing, 0 repeated"),
    ([([0, 1], np.eye(2)), ([2, 4], np.eye(2))], r"must lie in range\(4\)"),
    ([([0, 1], np.eye(3)), ([2, 3], np.eye(2))], r"block 0 must be 2x2, got \(3, 3\)"),
    ([([0, 1], np.eye(2)), ([2.0, 3.0], np.eye(2))], r"block 1 indices must be a 1-d integer"),
])
def test_from_blocks_refuses_malformed_blocks(blocks, message):
    with pytest.raises(ValueError, match=message):
        BipartiteSystem.from_blocks(2, 2, blocks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_from_blocks_refuses_a_block_with_non_finite_entries(bad):
    block = np.eye(2, dtype=complex)
    block[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BipartiteSystem.from_blocks(2, 2, [([0, 1], np.eye(2)), ([2, 3], block)])


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_from_blocks_sums_the_symmetry_bound(factor):
    # Asymmetry at 0.5x or 2x the bound for the whole H, all of it in a
    # small block beside a large one: against its own norm the small block
    # is far from Hermitian either way, but only the whole H counts.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    big = (a + a.conj().T) * 1e4
    small = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    scale = np.hypot(np.linalg.norm(big), np.linalg.norm(small))
    # K is anti-Hermitian with ||K||_F = 1, so ||E - E†||_F = 2c for E = c K.
    k = np.array([[1j, 1.0], [-1.0, 1j]]) / 2
    small = small + factor * 1e-9 * scale / 2 * k
    blocks = [([0, 2, 4], big), ([1, 3], small), ([5], np.zeros((1, 1)))]
    h = np.zeros((6, 6), dtype=complex)
    for idx, m in blocks:
        h[np.ix_(idx, idx)] = m
    assert (np.linalg.norm(h - h.conj().T) <= 1e-9 * np.linalg.norm(h)) == (factor < 1)
    if factor > 1:
        with pytest.raises(ValueError, match=r"not Hermitian \(deviation"):
            BipartiteSystem.from_blocks(2, 3, blocks)
        return
    sys_ = BipartiteSystem.from_blocks(2, 3, blocks)
    assert sys_.block_matrices[0] is big  # a whole given block is kept, not copied
    np.testing.assert_array_equal(sys_.hamiltonian, h)


def test_probe_state_must_be_normalized():
    with pytest.raises(ValueError):
        ProbeState(np.array([1.0, 1.0]))


def test_projected_propagator_rejects_expansion():
    with pytest.raises(ValueError):
        ProjectedPropagator(matrix=np.diag([1.5, 0.2]), tau=1.0)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))  # negative eigenvalue


@pytest.mark.parametrize("build, message", [
    (lambda: ProbeState(np.array([1.0, 1.0])), r"probe state norm is 1\.41421356\d*, expected 1$"),
    (lambda: ProjectedPropagator(matrix=np.diag([1.5, 0.2]), tau=1.0),
     r"largest singular value 1\.5\d* exceeds 1: not a contraction$"),
    (lambda: DensityMatrix(np.diag([1.5, -0.5])), r"state has negative eigenvalue -0\.5\d*$"),
    (lambda: DensityMatrix(np.diag([0.7, 0.7])), r"state trace is 1\.4\d*, expected 1$"),
], ids=["probe_norm", "singular_value", "negative_eigenvalue", "state_trace"])
def test_value_refusals_print_plain_floats(build, message):
    # The measured value is printed as a float, not as a numpy scalar's repr.
    with pytest.raises(ValueError, match=message) as refused:
        build()
    assert "np." not in str(refused.value)


HALF_MIXED = DensityMatrix(np.eye(2) / 2)
HALF_V = ProjectedPropagator(matrix=np.eye(2) / 2, tau=1.0)


@pytest.mark.parametrize("build, message", [
    (lambda: BipartiteSystem(dim_a=0, dim_b=2, hamiltonian=np.eye(0)),
     "dimensions must be positive"),
    (lambda: BipartiteSystem.from_blocks(2, 0, []), "dimensions must be positive"),
    (lambda: ProjectedPropagator(matrix=np.ones((2, 3)) / 3, tau=1.0),
     "propagator must be square, got shape (2, 3)"),
    (lambda: ProjectedPropagator(matrix=np.eye(2) / 2, tau=-1.0), "tau must be nonnegative"),
    (lambda: DensityMatrix(np.ones(2) / 2), "state must be square, got shape (2,)"),
    (lambda: evolve_step(DensityMatrix(np.eye(3) / 3), HALF_V),
     "state dim 3 does not match propagator dim 2"),
    (lambda: fidelity(HALF_MIXED, np.array([1.0, 0.0, 0.0])),
     "vector dim 3 does not match state dim 2"),
    (lambda: fidelity(HALF_MIXED, np.array([1.0, 1.0])), "target state must be unit-norm"),
], ids=["dense_dimensions", "block_dimensions", "propagator_square", "negative_tau",
        "state_square", "evolve_dims", "fidelity_dims", "fidelity_norm"])
def test_refusals_name_the_fault(build, message):
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == message


# ------------------------------------------------------------- propagator


def test_propagator_zero_time_is_identity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    sys_ = BipartiteSystem(dim_a=2, dim_b=3, hamiltonian=(a + a.conj().T) / 2)
    phi = ProbeState(np.array([1.0, 0.0]))
    v = build_projected_propagator(sys_, phi, 0.0)
    np.testing.assert_allclose(v.matrix, np.eye(3), atol=1e-12)


def test_propagator_decoupled_hamiltonian():
    # H = H_A x 1 + 1 x H_B with the probe an H_A eigenvector: V picks up
    # only a phase times the B propagator.
    rng = np.random.default_rng(4)
    ha = np.diag([0.7, 1.9])
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    hb = (b + b.conj().T) / 2
    h = np.kron(ha, np.eye(3)) + np.kron(np.eye(2), hb)
    sys_ = BipartiteSystem(dim_a=2, dim_b=3, hamiltonian=h)
    tau = 1.3
    v = build_projected_propagator(sys_, ProbeState(np.array([1.0, 0.0])), tau)
    expected = np.exp(-1j * 0.7 * tau) * unitary_exponential(hb, tau)
    np.testing.assert_allclose(v.matrix, expected, atol=1e-12)
    # unitary up to phase
    np.testing.assert_allclose(v.matrix @ v.matrix.conj().T, np.eye(3), atol=1e-12)


@given(seed=st.integers(0, 10_000), dim_a=st.integers(1, 3), dim_b=st.integers(2, 4))
@settings(max_examples=40, deadline=None)
def test_propagator_hidden_blocks_match_expm(seed, dim_a, dim_b):
    # A block-diagonal H hidden by a random permutation: the block route must
    # find the blocks and agree with a dense matrix exponential.
    rng = np.random.default_rng(seed)
    d = dim_a * dim_b
    cuts = np.sort(rng.choice(np.arange(1, d), size=rng.integers(0, d), replace=False))
    h = np.zeros((d, d), dtype=complex)
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, d]):
        a = rng.standard_normal((hi - lo,) * 2) + 1j * rng.standard_normal((hi - lo,) * 2)
        h[lo:hi, lo:hi] = (a + a.conj().T) / 2
    perm = rng.permutation(d)
    h = h[np.ix_(perm, perm)]
    phi = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    phi /= np.linalg.norm(phi)
    tau = rng.uniform(0.1, 3.0)
    v = build_projected_propagator(
        BipartiteSystem(dim_a=dim_a, dim_b=dim_b, hamiltonian=h), ProbeState(phi), tau
    )
    u = scipy.linalg.expm(-1j * tau * h).reshape(dim_a, dim_b, dim_a, dim_b)
    expected = np.einsum("k,kilj,l->ij", phi.conj(), u, phi)
    np.testing.assert_allclose(v.matrix, expected, rtol=0, atol=1e-12)


def test_propagator_matches_closed_form_low_block():
    _, _, v, _ = reference_setup()
    reference = closed_form_propagator(REFERENCE)
    block = np.abs(v.matrix[:11, :11] - reference[:11, :11]).max()
    assert block <= 1e-6


def test_propagator_dimension_mismatch():
    sys_ = BipartiteSystem(dim_a=2, dim_b=2, hamiltonian=np.eye(4))
    with pytest.raises(ValueError):
        build_projected_propagator(sys_, ProbeState(np.array([1.0, 0, 0])), 1.0)


# ------------------------------------------------------------------ steps


def test_evolve_step_identity():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    v = ProjectedPropagator(matrix=np.eye(2), tau=0.0)
    out, p = evolve_step(rho, v)
    assert p == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)


def test_evolve_step_projective():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    v = ProjectedPropagator(matrix=np.diag([1.0, 0.0]), tau=1.0)
    out, p = evolve_step(rho, v)
    assert p == pytest.approx(0.5, abs=1e-14)
    np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_evolve_step_normalizes_by_the_unclipped_trace():
    # A singular value just above 1 passes the contraction check, and
    # tr(V rho V†) = (1 + 5e-10)^2 > 1. The state is divided by that trace,
    # so it keeps unit trace; only the reported p is clipped to 1.
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    v = ProjectedPropagator(matrix=np.diag([1 + 5e-10, 0.5]), tau=1.0)
    out, p = evolve_step(rho, v)
    assert p == 1.0
    assert abs(np.trace(out.matrix).real - 1.0) <= 1e-15
    np.testing.assert_allclose(out.matrix, rho.matrix, rtol=0, atol=1e-15)
    # Over many steps the clipped trace would grow by about 1e-9 a step.
    traj = run_purification(DensityMatrix(np.eye(2) / 2), v, 200)
    assert len(traj.steps) == 201 and not traj.truncated
    for step in traj.steps:
        assert abs(np.trace(step.state.matrix).real - 1.0) <= 1e-14
        assert step.conditional_probability <= 1.0
        DensityMatrix(step.state.matrix)


def test_evolve_step_extinct_branch():
    rho = DensityMatrix(np.diag([0.0, 1.0]))
    v = ProjectedPropagator(matrix=np.diag([1.0, 0.0]), tau=1.0)
    with pytest.raises(ExtinctBranch):
        evolve_step(rho, v)


def test_unitary_propagator_always_survives():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 4)
    u = unitary_exponential(np.diag([0.3, 1.0, 2.2, 0.1]), 0.7)
    v = ProjectedPropagator(matrix=u, tau=0.7)
    assert n_step_yield(rho, v, 0) == pytest.approx(1.0)
    traj = run_purification(rho, v, 7)
    for n in (1, 3, 7):
        assert n_step_yield(rho, v, n) == pytest.approx(1.0, abs=1e-10)
        assert traj.steps[n].cumulative_yield == pytest.approx(1.0, abs=1e-10)


def test_cumulative_yield_is_the_n_step_yield_non_increasing_and_plateaued():
    _, _, v, rho0 = reference_setup()
    seq = [step.cumulative_yield for step in run_purification(rho0, v, 30).steps]
    for n in range(31):
        assert seq[n] == pytest.approx(n_step_yield(rho0, v, n), rel=1e-10)
    assert all(seq[n + 1] <= seq[n] + 1e-12 for n in range(30))
    assert seq[30] > 0.5  # strictly positive plateau


# ------------------------------------------------------------- trajectory


def test_run_purification_identity():
    rho = DensityMatrix(np.diag([0.25, 0.75]))
    v = ProjectedPropagator(matrix=np.eye(2), tau=0.0)
    traj = run_purification(rho, v, 5, target=np.array([1.0, 0.0]))
    assert len(traj.steps) == 6 and not traj.truncated
    for step in traj.steps:
        assert step.conditional_probability == pytest.approx(1.0)
        assert step.cumulative_yield == pytest.approx(1.0)
        np.testing.assert_allclose(step.state.matrix, rho.matrix, atol=1e-14)


def test_run_purification_two_level_map():
    # V = diag(1, 0.5) halves the excited amplitude each step, so the
    # ground-state fidelity follows 0.5 / (0.5 + 0.5 * 0.25^n).
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    v = ProjectedPropagator(matrix=np.diag([1.0, 0.5]), tau=1.0)
    traj = run_purification(rho, v, 6, target=np.array([1.0, 0.0]))
    for step in traj.steps:
        expected = 0.5 / (0.5 + 0.5 * 0.25 ** step.n)
        assert step.fidelity == pytest.approx(expected, abs=1e-12)
    assert traj.steps[1].fidelity == pytest.approx(0.8, abs=1e-12)
    assert traj.steps[2].fidelity == pytest.approx(0.5 / 0.53125, abs=1e-12)


def test_run_purification_invariants():
    rng = np.random.default_rng(15)
    for _ in range(10):
        v = random_physical_propagator(rng, 2, int(rng.integers(2, 6)))
        rho = random_density(rng, v.dim)
        traj = run_purification(rho, v, 12)
        product = 1.0
        previous = np.inf
        for step in traj.steps:
            product *= step.conditional_probability if step.n else 1.0
            assert step.cumulative_yield == pytest.approx(product, rel=1e-12)
            assert step.cumulative_yield <= previous + 1e-12
            previous = step.cumulative_yield
            # states re-validate cleanly at every step
            DensityMatrix(step.state.matrix)
        # consistency with the matrix-power route
        n_last = traj.steps[-1].n
        assert traj.steps[-1].cumulative_yield == pytest.approx(
            n_step_yield(rho, v, n_last), rel=1e-10
        )


def test_run_purification_truncates_on_extinction():
    rho = DensityMatrix(np.diag([0.4, 0.6]))
    v = ProjectedPropagator(matrix=np.diag([0.0, 0.0]), tau=1.0)
    traj = run_purification(rho, v, 5)
    assert traj.truncated
    assert traj.steps[-1].n == 0


def test_run_purification_rejects_bad_target():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    v = ProjectedPropagator(matrix=np.eye(2), tau=0.0)
    with pytest.raises(ValueError):
        run_purification(rho, v, 3, target=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        run_purification(rho, v, 0)


# --------------------------------------------------------------- fidelity


def test_fidelity_pure_and_mixed():
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    rho = DensityMatrix(np.outer(psi, psi.conj()))
    assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(4) / 4)
    probe = np.zeros(4)
    probe[2] = 1.0
    assert fidelity(mixed, probe) == pytest.approx(0.25, abs=1e-12)


def test_fidelity_thermal_versus_coherent_series():
    # Fock sum: sum_n (1 - q) q^n e^{-|a|^2} |a|^{2n} / n! with q = e^{-1},
    # |a|^2 = 1/4, which resums to (1 - e^{-1}) e^{-1/4} e^{1/(4e)}.
    rho = thermal_state(1.0, 1.0, 30)
    target = coherent_state(-0.5j, 30)
    expected = (1 - np.exp(-1)) * np.exp(-0.25) * np.exp(0.25 * np.exp(-1))
    assert fidelity(rho, target) == pytest.approx(expected, abs=1e-4)


def test_trace_distance_basics():
    ground = DensityMatrix(np.diag([1.0, 0.0]))
    excited = DensityMatrix(np.diag([0.0, 1.0]))
    assert trace_distance(ground, excited) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance(ground, ground) == pytest.approx(0.0, abs=1e-14)
    mixed = DensityMatrix(np.eye(2) / 2)
    d1 = trace_distance(ground, mixed)
    d2 = trace_distance(mixed, ground)
    assert d1 == pytest.approx(d2, abs=1e-14)
    assert d1 == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------- report


def test_spectral_report_unitary_is_degenerate():
    u = unitary_exponential(np.diag([0.3, 1.1, 2.0]), 1.0)
    report = spectral_report(
        ProjectedPropagator(matrix=u, tau=1.0),
        DensityMatrix(np.eye(3) / 3),
    )
    assert report.degenerate
    assert not report.condition_i_met


def test_spectral_report_diagonal():
    report = spectral_report(
        ProjectedPropagator(matrix=np.diag([0.9, 0.5]), tau=1.0),
        DensityMatrix(np.diag([0.5, 0.5])),
    )
    assert not report.degenerate
    assert report.lambda0 == pytest.approx(0.9, abs=1e-9)
    assert report.gap_ratio == pytest.approx(5 / 9, abs=1e-9)
    assert report.yield_plateau_coefficient == pytest.approx(0.5, abs=1e-9)
    assert not report.condition_i_met


@pytest.mark.parametrize("dim", [None, 2, 3, 4, 6, 9, 17, 40])
def test_spectral_report_matches_top_two_pairs(dim):
    # The report reads V's cached pairs, up to five; its values are, bit for bit,
    # those of a solve for two, so the spectrum command's plateau line does
    # not depend on how many pairs V holds.
    if dim is None:
        _, _, v, rho0 = reference_setup()
    else:
        rng = np.random.default_rng(dim)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        v = ProjectedPropagator(matrix=0.9 * m / np.linalg.norm(m, ord=2), tau=1.0)
        rho0 = random_density(rng, dim)
    report = spectral_report(v, rho0)
    first, second = top_k_eigenpairs(v.matrix, 2).pairs
    assert not report.degenerate
    assert (report.lambda0, report.lambda1) == (first.value, second.value)
    assert report.yield_plateau_coefficient == float(
        np.vdot(first.left, rho0.matrix @ first.left).real
    )
    np.testing.assert_array_equal(report.u0, first.right)


def test_readme_session_solves_v_once(monkeypatch):
    # A report followed by a trajectory on one V solves V's spectrum once.
    calls = []

    def counted(m, k):
        calls.append(k)
        return top_k_eigenpairs(m, k)

    monkeypatch.setattr(engine, "top_k_eigenpairs", counted)
    _, _, v, rho0 = reference_setup()
    spectral_report(v, rho0)
    run_purification(rho0, v, 30)
    assert len(calls) == 1


def test_spectral_report_reference_conditions():
    _, _, v, rho0 = reference_setup()
    report = spectral_report(v, rho0)
    assert not report.degenerate
    assert abs(abs(report.lambda0) - 1.0) <= 1e-6
    assert report.condition_i_met
    assert report.gap_ratio == pytest.approx(0.5, abs=1e-6)


def test_rank_one_asymptotics():
    rng = np.random.default_rng(40)
    v = random_physical_propagator(rng, 2, 4)
    report = spectral_report(v, DensityMatrix(np.eye(4) / 4))
    if report.degenerate or report.gap_ratio > 0.9:
        pytest.skip("sampled propagator lacks a usable gap")
    projector = np.outer(report.u0, report.v0.conj())
    gap = report.gap_ratio
    # fit the prefactor from the first few powers, then check decay
    norms = []
    w = np.eye(4, dtype=complex)
    for n in range(1, 16):
        w = w @ v.matrix
        norms.append(np.linalg.norm(w / report.lambda0 ** n - projector))
    c = max(norms[n - 1] / gap ** n for n in range(1, 5)) * 1.5
    for n in range(5, 16):
        assert norms[n - 1] <= c * gap ** n


def test_initial_state_independence():
    rng = np.random.default_rng(41)
    _, _, v, _ = reference_setup()
    report = spectral_report(v, DensityMatrix(np.eye(v.dim) / v.dim))
    assert report.gap_ratio < 0.9 and not report.degenerate
    rho_a = random_density(rng, v.dim)
    rho_b = random_density(rng, v.dim)
    ta = run_purification(rho_a, v, 20)
    tb = run_purification(rho_b, v, 20)
    for n in (12, 16, 20):
        dist = trace_distance(ta.steps[n].state, tb.steps[n].state)
        assert dist <= 10 * report.gap_ratio ** n


def test_yield_plateau_law():
    _, _, v, rho0 = reference_setup()
    report = spectral_report(v, rho0)
    target = report.u0
    traj = run_purification(rho0, v, 30, target=target)
    for step in traj.steps:
        if step.fidelity is not None and step.fidelity > 0.999:
            law = abs(report.lambda0) ** (2 * step.n) * report.yield_plateau_coefficient
            assert step.cumulative_yield / law == pytest.approx(1.0, abs=0.01)


# ------------------------------------------------------------- zeno scan


def test_zeno_scan_single_point_matches_survival():
    sys_, phi, v, rho0 = reference_setup()
    points = zeno_limit_scan(sys_, phi, rho0, REFERENCE.tau, [1])
    assert points[0].n == 1
    assert points[0].tau == pytest.approx(REFERENCE.tau)
    assert points[0].yield_probability == pytest.approx(
        n_step_yield(rho0, v, 1), rel=1e-10
    )


def test_zeno_scan_yields_are_survival_probabilities():
    sys_, phi, _, rho0 = reference_setup()
    n_values = [1, 2, 4, 8, 16, 32]
    points = zeno_limit_scan(sys_, phi, rho0, REFERENCE.tau, n_values)
    for point, n in zip(points, n_values):
        v = build_projected_propagator(sys_, phi, REFERENCE.tau / n)
        assert point.yield_probability == n_step_yield(rho0, v, n)


def test_zeno_scan_decoupled_hamiltonian():
    ha = np.diag([0.7, 1.9])
    hb = np.diag([0.0, 1.0, 2.0])
    h = np.kron(ha, np.eye(3)) + np.kron(np.eye(2), hb)
    sys_ = BipartiteSystem(dim_a=2, dim_b=3, hamiltonian=h)
    phi = ProbeState(np.array([1.0, 0.0]))
    rho0 = DensityMatrix(np.eye(3) / 3)
    for point in zeno_limit_scan(sys_, phi, rho0, 3.0, [1, 2, 4, 8]):
        assert point.yield_probability == pytest.approx(1.0, abs=1e-10)
        assert point.unitarity_defect <= 1e-10


def test_zeno_scan_reference_behavior():
    sys_, phi, _, rho0 = reference_setup()
    points = zeno_limit_scan(sys_, phi, rho0, REFERENCE.tau, [1, 2, 4, 8, 16, 32])
    yields = [p.yield_probability for p in points]
    defects = [p.unitarity_defect for p in points]
    # frequent-measurement limit: later points beat the single coarse one
    assert defects[-1] < defects[0]
    assert yields[-1] > yields[0]
    # strictly monotone from the second point on
    assert all(yields[i + 1] > yields[i] for i in range(1, 5))
    assert all(defects[i + 1] < defects[i] for i in range(1, 5))


def test_zeno_scan_jobs_equivalence():
    sys_, phi, _, rho0 = reference_setup()
    serial = zeno_limit_scan(sys_, phi, rho0, REFERENCE.tau, [1, 2, 4, 8])
    threaded = zeno_limit_scan(sys_, phi, rho0, REFERENCE.tau, [1, 2, 4, 8], jobs=3)
    for a, b in zip(serial, threaded):
        assert a.n == b.n
        assert a.yield_probability == b.yield_probability
        assert a.unitarity_defect == b.unitarity_defect


def test_zeno_scan_validation():
    sys_, phi, _, rho0 = reference_setup()
    with pytest.raises(ValueError):
        zeno_limit_scan(sys_, phi, rho0, -1.0, [1, 2])
    with pytest.raises(ValueError):
        zeno_limit_scan(sys_, phi, rho0, 1.0, [])
    with pytest.raises(ValueError):
        zeno_limit_scan(sys_, phi, rho0, 1.0, [0, 2])
    # A probe mismatch is reported before a state mismatch.
    short_probe = ProbeState(np.array([1.0, 0.0]))
    small_state = DensityMatrix(np.eye(2) / 2)
    with pytest.raises(ValueError) as probe_info:
        zeno_limit_scan(sys_, short_probe, small_state, 1.0, [1])
    assert str(probe_info.value) == f"probe dimension 2 does not match dim_a {sys_.dim_a}"
    with pytest.raises(ValueError) as state_info:
        zeno_limit_scan(sys_, phi, small_state, 1.0, [1])
    assert str(state_info.value) == f"state dimension 2 does not match dim_b {sys_.dim_b}"
