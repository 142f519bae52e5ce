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
    found = found_blocks(sys_)
    np.testing.assert_array_equal(np.sort(np.concatenate(found)), np.arange(d))
    if one_sided:
        where = {x: n for n, idx in enumerate(found) for x in idx}
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
    original = linalg._eigh

    def counted(a):
        seen.append(a)
        return original(a)

    monkeypatch.setattr(linalg, "_eigh", counted)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    whole = BipartiteSystem(dim_a=2, dim_b=3, hamiltonian=a + a.conj().T)
    assert not seen  # nothing is decomposed before it is needed
    assert whole._decomposed is whole._decomposed
    # A one-block H is handed over as it stands, a view, not a copy.
    assert len(seen) == 1 and seen[0].shape == (1, 6, 6)
    assert np.shares_memory(seen[0], whole.hamiltonian)
    seen.clear()
    split = BipartiteSystem(dim_a=2, dim_b=3, hamiltonian=np.diag(np.arange(6.0)))
    build_projected_propagator(split, ProbeState(np.array([1.0, 0.0])), 0.5)
    build_projected_propagator(split, ProbeState(np.array([0.0, 1.0])), 1.5)
    # Six single states, one size: one solve of their stack, each state once.
    assert len(found_blocks(split)) == 6
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], np.arange(6.0).reshape(6, 1, 1))


def block_order(system):
    """(stack position, row) of each coupled block of the system, ordered by
    the stacks' block numbers."""
    found = {number: (s, k) for s, stack in enumerate(system.stacks)
             for k, number in enumerate(stack.numbers.tolist())}
    return [found[number] for number in range(len(found))]


def found_blocks(system):
    """Each coupled block's indices, in block order."""
    return [system.stacks[s].indices[k].tolist() for s, k in block_order(system)]


def per_block_route(system, phi):
    """Each block's indices and decomposition, W and the energies, one block
    at a time in block order: ``linalg._hermitian_eigh`` of each block
    alone, never of its stack or its builder's twin, and each block's
    columns of W summed by their own ``np.add.at``."""
    conj_phi = phi.amplitudes.conj()
    blocks, columns = [], []
    for s, k in block_order(system):
        idx = system.stacks[s].indices[k]
        values, vectors = linalg._hermitian_eigh(system.stacks[s].matrices[k])
        probe_index, b_index = np.divmod(idx, system.dim_b)
        w = np.zeros((system.dim_b, len(idx)), dtype=complex)
        np.add.at(w, b_index, conj_phi[probe_index, None] * vectors)
        blocks.append((idx, values, vectors))
        columns.append(w)
    return blocks, np.hstack(columns), np.concatenate([values for _, values, _ in blocks])


def assert_same_bits(ours, theirs):
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert (ours.shape, ours.dtype) == (theirs.shape, theirs.dtype)
    assert ours.tobytes() == theirs.tobytes()


def assert_stacks_match_block_route(system, phi, tau):
    blocks, rows, energies = per_block_route(system, phi)
    for (s, k), theirs in zip(block_order(system), blocks, strict=True):
        values, vectors = system._decomposed[s]
        for ours, their in zip((system.stacks[s].indices[k], values[k], vectors[k]), theirs):
            assert_same_bits(ours, their)
    contraction = engine.contract_probe(system, phi)
    assert_same_bits(contraction.rows, rows)
    assert_same_bits(contraction.energies, energies)
    v = (rows * np.exp(-1j * energies * tau)) @ rows.conj().T
    assert_same_bits(contraction.propagator(tau).matrix, v)


def random_probe(rng, dim_a):
    phi = rng.standard_normal(dim_a) + 1j * rng.standard_normal(dim_a)
    return ProbeState(phi / np.linalg.norm(phi))


@given(seed=st.integers(0, 10_000), nudged=st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacks_match_the_block_by_block_route(seed, nudged):
    # Blocks of sizes 1-3 only, so that most sizes repeat, at random indices,
    # so that a block often holds one b index twice (two a's, one b). A
    # nudged H carries an asymmetry inside the bound on one block, so that
    # block is decomposed as its Hermitian part. The stacked solves of the
    # blocks searched for in the dense H, W, the energies and V must equal
    # the block-by-block route bit for bit.
    rng = np.random.default_rng(seed)
    dim_a, dim_b = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    d = dim_a * dim_b
    perm = rng.permutation(d)
    cuts = np.cumsum(rng.integers(1, 4, size=d))
    parts = [np.sort(idx) for idx in np.split(perm, cuts[cuts < d])]
    h = np.zeros((d, d), dtype=complex)
    for idx in parts:
        a = rng.standard_normal((len(idx),) * 2) + 1j * rng.standard_normal((len(idx),) * 2)
        h[np.ix_(idx, idx)] = a + a.conj().T
    if nudged:
        idx = parts[int(rng.integers(len(parts)))]
        h[idx[0], idx[-1]] += 1e-12j * np.linalg.norm(h)
        assert not np.array_equal(h, h.conj().T)
    assert np.linalg.norm(h - h.conj().T) <= 1e-9 * np.linalg.norm(h)
    system = BipartiteSystem(dim_a, dim_b, h)
    assert found_blocks(system) == sorted(idx.tolist() for idx in parts)
    assert_stacks_match_block_route(system, random_probe(rng, dim_a), rng.uniform(0.1, 3.0))


def test_stacks_match_the_block_by_block_route_on_chosen_systems():
    rng = np.random.default_rng(17)
    # One block of two same-b states (b = 1 under a = 0 and a = 1) beside
    # another of the same size: the b row of W sums two contributions.
    h = np.zeros((6, 6), dtype=complex)
    h[np.ix_([1, 4], [1, 4])] = [[1.0, 0.3j], [-0.3j, 2.0]]
    h[np.ix_([0, 2], [0, 2])] = [[0.5, 0.2], [0.2, -1.0]]
    h[np.ix_([3, 5], [3, 5])] = [[0.1, 0.7], [0.7, 0.9]]
    system = BipartiteSystem(2, 3, h)
    assert [len(idx) for idx in found_blocks(system)] == [2, 2, 2]
    assert_stacks_match_block_route(system, random_probe(rng, 2), 0.8)
    # A lone large block, fully coupled, whose share of W is summed a range
    # of columns at a time (engine._ADD_AT_ENTRIES).
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    assert 300 * 300 > engine._ADD_AT_ENTRIES
    system = BipartiteSystem(3, 100, a + a.conj().T)
    assert len(found_blocks(system)) == 1
    assert_stacks_match_block_route(system, random_probe(rng, 3), 1.1)
    # The uncoupled oscillator: 144 single states, one stack of them.
    p = OscillatorParams(1.0, 1.0, 0.0, 0.5, beta=1.0, tau=1.0, n_max_a=12, n_max_b=12)
    system = build_hamiltonian(p)
    assert len(system.stacks) == 1 and len(found_blocks(system)) == 144
    assert_stacks_match_block_route(system, ProbeState(coherent_state(0.5, 12)), p.tau)
    # The coupled oscillator: sizes 1-11 twice each and 12 once.
    system = build_hamiltonian(OscillatorParams(1.0, 1.0, 0.2, 0.5, beta=1.0, tau=1.0,
                                                n_max_a=12, n_max_b=12))
    assert len(system.stacks) == 12 and len(found_blocks(system)) == 23
    assert_stacks_match_block_route(system, ProbeState(coherent_state(0.5, 12)), 1.0)


@pytest.mark.parametrize("stacks, message", [
    ([([[0, 1]], np.eye(2)[None]), ([[1, 2, 3]], np.eye(3)[None])],
     r"partition range\(4\): 0 missing, 1 repeated"),
    ([([[0, 1]], np.eye(2)[None]), ([[3]], np.eye(1)[None])],
     r"partition range\(4\): 1 missing, 0 repeated"),
    ([([[0, 1], [2, 4]], np.array([np.eye(2)] * 2))], r"must lie in range\(4\)"),
])
def test_stack_constructor_refuses_stacks_that_do_not_partition_the_basis(stacks, message):
    with pytest.raises(ValueError, match=message):
        BipartiteSystem._from_stacks(2, 2, stacks)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_stack_constructor_refuses_a_block_with_non_finite_entries(bad):
    block = np.eye(2, dtype=complex)
    block[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        BipartiteSystem._from_stacks(2, 2, [([[0, 1], [2, 3]], np.array([np.eye(2), block]))])


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_stack_constructor_sums_the_symmetry_bound(factor):
    # Asymmetry at 0.5x or 2x the bound for the whole H, all of it in a
    # small block beside a large one: against its own norm the small block
    # is far from Hermitian either way, but only the whole H counts.
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    big = (a + a.conj().T)[None] * 1e4
    small = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    scale = np.hypot(np.linalg.norm(big), np.linalg.norm(small))
    # K is anti-Hermitian with ||K||_F = 1, so ||E - E†||_F = 2c for E = c K.
    k = np.array([[1j, 1.0], [-1.0, 1j]]) / 2
    small = (small + factor * 1e-9 * scale / 2 * k)[None]
    stacks = [([[0, 2, 4]], big), ([[1, 3]], small), ([[5]], np.zeros((1, 1, 1), dtype=complex))]
    h = np.zeros((6, 6), dtype=complex)
    for idx, m in stacks:
        h[np.ix_(idx[0], idx[0])] = m[0]
    assert (np.linalg.norm(h - h.conj().T) <= 1e-9 * np.linalg.norm(h)) == (factor < 1)
    if factor > 1:
        with pytest.raises(ValueError, match=r"not Hermitian \(deviation"):
            BipartiteSystem._from_stacks(2, 3, stacks)
        return
    sys_ = BipartiteSystem._from_stacks(2, 3, stacks)
    assert sys_.stacks[0].matrices is big  # a given stack is kept, not copied
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
    (lambda: BipartiteSystem._from_stacks(2, 0, []), "dimensions must be positive"),
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


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Q of a complex Gaussian matrix's QR, its column phases fixed by R."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize("relation", ["energy_shift", "b_rotation", "a_rotation"])
def test_explicit_propagator_metamorphic_relations(relation):
    # Exact symmetries of V = <phi| exp(-iH tau) |phi> on a random, fully
    # coupled 3 x 6 H: H + c gives V e^{-ic tau}; (1 ⊗ u) H (1 ⊗ u)† gives
    # u V u†; (r ⊗ 1) H (r ⊗ 1)† with the probe r phi gives V itself.
    rng = np.random.default_rng(3)
    a = rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18))
    h = (a + a.conj().T) / 2
    phi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    phi /= np.linalg.norm(phi)
    u, r = random_unitary(rng, 6), random_unitary(rng, 3)

    def v_of(h, phi):
        return build_projected_propagator(BipartiteSystem(3, 6, h), ProbeState(phi), 0.7).matrix

    v = v_of(h, phi)
    if relation == "energy_shift":
        got, expected = v_of(h + 0.37 * np.eye(18), phi), v * np.exp(-0.37j * 0.7)
    elif relation == "b_rotation":
        w = np.kron(np.eye(3), u)
        got, expected = v_of(w @ h @ w.conj().T, phi), u @ v @ u.conj().T
    else:
        w = np.kron(r, np.eye(6))
        got, expected = v_of(w @ h @ w.conj().T, r @ phi), v
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


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
    traj = run_purification(rho, v, 5)
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
    target = np.array([1.0, 0.0])
    traj = run_purification(rho, v, 6)
    for step in traj.steps:
        expected = 0.5 / (0.5 + 0.5 * 0.25 ** step.n)
        assert fidelity(step.state, target) == pytest.approx(expected, abs=1e-12)
    assert fidelity(traj.steps[1].state, target) == pytest.approx(0.8, abs=1e-12)
    assert fidelity(traj.steps[2].state, target) == pytest.approx(0.5 / 0.53125, abs=1e-12)


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


def test_run_purification_rejects_n_max_below_one():
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    v = ProjectedPropagator(matrix=np.eye(2), tau=0.0)
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
    np.testing.assert_array_equal(v.eigenpairs.pairs[0].right, first.right)


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
    first = v.eigenpairs.pairs[0]
    projector = np.outer(first.right, first.left.conj())
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
    target = v.eigenpairs.pairs[0].right
    traj = run_purification(rho0, v, 30)
    for step in traj.steps:
        if fidelity(step.state, target) > 0.999:
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


def test_zeno_scan_refuses_a_state_before_decomposing_h(monkeypatch):
    # A state of the wrong dimension is refused with the same message, and
    # before any block of H reaches the eigensolver.
    seen = []
    original = linalg._eigh
    monkeypatch.setattr(linalg, "_eigh", lambda a: seen.append(a) or original(a))
    sys_ = build_hamiltonian(REFERENCE)
    phi = ProbeState(coherent_state(REFERENCE.alpha, REFERENCE.n_max_a))
    with pytest.raises(ValueError) as info:
        zeno_limit_scan(sys_, phi, DensityMatrix(np.eye(2) / 2), 1.0, [1])
    assert str(info.value) == f"state dimension 2 does not match dim_b {sys_.dim_b}"
    assert seen == []


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
