"""Tests for the dense complex linear-algebra core.

The eigensolver is checked against an independent oracle: characteristic
polynomial coefficients from the Faddeev-LeVerrier recurrence, rooted with
np.roots. The matrix exponential is checked against a plain Taylor series.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zenopure.engine import BipartiteSystem
from zenopure.linalg import (
    DEFAULT_TOL,
    NoConvergence,
    NotHermitian,
    TopKResult,
    _ranked_pairs,
    hermitian_eigendecompose,
    top_k_eigenpairs,
    unitary_exponential,
)


def characteristic_polynomial(a: np.ndarray) -> np.ndarray:
    """Coefficients of det(lambda I - A), highest power first.

    Faddeev-LeVerrier recurrence; exact in rational arithmetic, stable
    enough in doubles for dim <= 8.
    """
    n = a.shape[0]
    coeffs = [1.0 + 0.0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * a
        coeffs.append(-np.trace(m) / k)
    return np.array(coeffs)


def eigenvalues_by_charpoly(a: np.ndarray) -> np.ndarray:
    return np.roots(characteristic_polynomial(a))


def taylor_exponential(m: np.ndarray, terms: int = 30) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        out = out + term
    return out


def random_contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return a * (rng.uniform(0.2, 1.0) / np.linalg.norm(a, ord=2))


def planted_spectrum(rng: np.random.Generator, magnitudes) -> np.ndarray:
    """S diag(values) S^-1 for a random complex S, where the values have the
    given magnitudes and random phases."""
    n = len(magnitudes)
    s = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    values = np.asarray(magnitudes) * np.exp(2j * np.pi * rng.uniform(size=n))
    return (s * values) @ np.linalg.inv(s)


def planted_jordan(rng: np.random.Generator) -> np.ndarray:
    """S J S^-1 for a random complex S, with J = diag(0.9, 0.7, 0.5, 0.5,
    0.2) plus a 0.3 coupling between the two 0.5 entries: a defective
    eigenvalue below two simple ones."""
    s = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    j = np.diag([0.9, 0.7, 0.5, 0.5, 0.2]).astype(complex)
    j[2, 3] = 0.3
    return s @ j @ np.linalg.inv(s)


def refusal(m) -> NoConvergence:
    """The NoConvergence that refuses m's top pair, with the measured gap,
    overlap or residual, as ``_ranked_pairs`` returns it beside the pairs
    ``top_k_eigenpairs`` keeps."""
    _, refused = _ranked_pairs(np.asarray(m, dtype=complex), 1)
    assert isinstance(refused, NoConvergence)
    return refused


def assert_eigenpair_contract(m: np.ndarray, pair) -> None:
    """The EigenPair contract: a unit right vector, <left|right> = 1, and
    right and left residuals within DEFAULT_TOL, the left one relative."""
    assert abs(np.linalg.norm(pair.right) - 1.0) <= 1e-12
    assert abs(np.vdot(pair.left, pair.right) - 1.0) <= 1e-10
    assert pair.residual <= DEFAULT_TOL
    assert np.linalg.norm(m @ pair.right - pair.value * pair.right) <= DEFAULT_TOL
    left_residual = np.linalg.norm(m.conj().T @ pair.left - np.conj(pair.value) * pair.left)
    assert left_residual <= DEFAULT_TOL * np.linalg.norm(pair.left)


def test_charpoly_oracle_sanity():
    # diag(3, 2): p(x) = x^2 - 5x + 6
    coeffs = characteristic_polynomial(np.diag([3.0, 2.0]).astype(complex))
    np.testing.assert_allclose(coeffs, [1, -5, 6], atol=1e-12)


@pytest.mark.parametrize("entry", [
    hermitian_eigendecompose,
    lambda m: unitary_exponential(m, 1.0),
    lambda m: top_k_eigenpairs(m, 1),
], ids=["hermitian", "unitary", "top_k"])
def test_matrix_refusals_name_the_fault(entry):
    # Every public entry point takes its matrix through one shape and
    # finiteness check, with the same three messages.
    cases = [
        (np.ones(3), "matrix must be 2-dimensional, got shape (3,)"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "matrix contains non-finite entries"),
        (np.ones((2, 3)), "matrix must be square, got shape (2, 3)"),
    ]
    for bad, message in cases:
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            entry(bad)


def test_hermitian_eigendecompose_diagonal():
    eig = hermitian_eigendecompose(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(eig.eigenvalues, [1, 2, 3], atol=1e-14)
    # permutation eigenvectors up to phase
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(3)[:, [1, 2, 0]], atol=1e-14)


def test_hermitian_eigendecompose_pauli_x():
    eig = hermitian_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(eig.eigenvalues, [-1, 1], atol=1e-14)


def test_hermitian_eigendecompose_vs_charpoly():
    # two coupled modes, one excitation per mode kept
    from zenopure.oscillator import OscillatorParams, build_hamiltonian

    p = OscillatorParams(1.0, 1.0, 0.2, 0.0, 1.0, 1.0, n_max_a=2, n_max_b=2)
    h = build_hamiltonian(p).hamiltonian
    eig = hermitian_eigendecompose(h)
    roots = np.sort(eigenvalues_by_charpoly(h).real)
    np.testing.assert_allclose(eig.eigenvalues, roots, atol=1e-8)


def test_hermitian_eigendecompose_invariants():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = (a + a.conj().T) / 2
    eig = hermitian_eigendecompose(h)
    q = eig.eigenvectors
    rebuilt = (q * eig.eigenvalues) @ q.conj().T
    assert np.linalg.norm(rebuilt - h) <= 1e-10 * np.linalg.norm(h)
    assert np.linalg.norm(q.conj().T @ q - np.eye(6)) <= 1e-10 * np.sqrt(6)
    assert np.all(np.diff(eig.eigenvalues) >= 0)


def test_hermitian_eigendecompose_rejects_asymmetric():
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _bits(x: np.ndarray) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _hermitian_case(case: str) -> np.ndarray:
    n = 100 if case.startswith("large") else 5  # large: compared in runs of rows
    rng = np.random.default_rng(21)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g + g.conj().T
    if case.endswith("near"):
        # Within the 1e-9 bound, not exactly Hermitian, and only in row
        # n - 2, so that the large case differs in its last run alone.
        m[n - 2, n - 2] += 1e-13j
    if case == "signed_zero":
        m = np.array([[1.0, complex(0.0, -1.0)], [complex(-0.0, 1.0), 2.0]])
    return m


@pytest.mark.parametrize("case", ["exact", "near", "signed_zero", "large_exact", "large_near"])
def test_eigh_gets_the_block_itself_only_when_exactly_its_hermitian_part(monkeypatch, case):
    m = _hermitian_case(case)
    sym = (m + m.conj().T) / 2
    exact = case.endswith("exact")
    assert (_bits(sym) == _bits(m)) == exact
    if case == "signed_zero":
        assert np.array_equal(sym, m)  # equal values, one zero of opposite sign
    real_eigh = np.linalg.eigh
    route = real_eigh(sym)
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a)
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    eig = hermitian_eigendecompose(m)
    assert len(seen) == 1
    if exact:
        assert seen[0] is m
    else:
        assert seen[0] is not m and _bits(seen[0]) == _bits(sym)
    assert _bits(eig.eigenvalues) == _bits(route.eigenvalues)
    assert _bits(eig.eigenvectors) == _bits(route.eigenvectors)


def test_unitary_exponential_zero_time():
    h = np.array([[1.0, 0.3], [0.3, -0.7]])
    np.testing.assert_allclose(unitary_exponential(h, 0.0), np.eye(2), atol=1e-15)


def test_unitary_exponential_diagonal():
    u = unitary_exponential(np.diag([1.0, 2.0]), np.pi)
    np.testing.assert_allclose(u, np.diag([-1.0, 1.0]), atol=1e-12)


def test_unitary_exponential_taylor_oracle():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    t = 0.3
    np.testing.assert_allclose(
        unitary_exponential(h, t), taylor_exponential(-1j * h * t), atol=1e-10
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_unitary_exponential_group_law(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    s, t = rng.uniform(-2, 2, size=2)
    lhs = unitary_exponential(h, s) @ unitary_exponential(h, t)
    np.testing.assert_allclose(lhs, unitary_exponential(h, s + t), atol=1e-9)


@given(seed=st.integers(0, 10_000), dim=st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_unitary_exponential_is_unitary(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (a + a.conj().T) / 2
    u = unitary_exponential(h, rng.uniform(0, 5))
    assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) <= 1e-9 * np.sqrt(dim)


def search(h) -> BipartiteSystem:
    """The system whose dense H is h, searched for its coupled blocks."""
    return BipartiteSystem(dim_a=1, dim_b=len(h), hamiltonian=h)


def test_block_search_fully_coupled_is_one_block():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    system = search(a + a.conj().T)
    assert len(system.block_indices) == len(system.blocks) == 1
    np.testing.assert_array_equal(system.blocks[0].indices, np.arange(12))


def test_block_search_chain_and_isolated():
    # 0-3-1 chained through zero-free entries; 2 and 4 stand alone.
    h = np.diag([1.0, 2.0, 3.0, 4.0, 0.0]).astype(complex)
    h[0, 3] = h[3, 0] = 0.5
    h[1, 3], h[3, 1] = 0.25j, -0.25j
    system = search(h)
    assert [list(idx) for idx in system.block_indices] == [[0, 1, 3], [2], [4]]
    assert [list(b.indices) for b in system.blocks] == [[0, 1, 3], [2], [4]]


def test_block_search_checks_symmetry():
    h = np.diag([1.0, 2.0, 3.0]).astype(complex)
    h[1, 2] = 1.0
    with pytest.raises(NotHermitian):
        search(h)


def test_block_search_symmetry_is_relative_to_whole_matrix():
    # The small block's asymmetry is 5e-9 of its own norm but far below
    # 1e-9 of the whole matrix's: the matrix is accepted, as it is by
    # hermitian_eigendecompose, and the block's Hermitian part decomposed.
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = [[100.0, 30.0], [30.0, -50.0]]
    h[2:, 2:] = [[0.0, 1e-3], [1e-3 + 1e-11, 0.0]]
    whole = hermitian_eigendecompose(h)
    blocks = search(h).blocks
    assert [list(b.indices) for b in blocks] == [[0, 1], [2, 3]]
    np.testing.assert_allclose(
        np.sort(np.concatenate([b.eigenvalues for b in blocks])),
        whole.eigenvalues, rtol=0, atol=1e-12,
    )
    with pytest.raises(NotHermitian):
        hermitian_eigendecompose(h[2:, 2:])


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_block_search_reconstructs_hidden_blocks(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 5, size=rng.integers(1, 5))
    h = np.zeros((sizes.sum(),) * 2, dtype=complex)
    start = 0
    for m in sizes:
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        h[start:start + m, start:start + m] = a + a.conj().T
        start += m
    perm = rng.permutation(len(h))
    h = h[np.ix_(perm, perm)]
    blocks = search(h).blocks
    assert sorted(len(b.indices) for b in blocks) == sorted(sizes)
    rebuilt = np.zeros_like(h)
    for b in blocks:
        q = b.eigenvectors
        rebuilt[np.ix_(b.indices, b.indices)] = (q * b.eigenvalues) @ q.conj().T
    np.testing.assert_allclose(rebuilt, h, atol=1e-12)


def test_top_pair_diagonal():
    # a - value 1 is exactly singular for every value of a diagonal a, so
    # no left vector is refined; each is already the exact unit vector.
    m = np.diag([0.9, 0.5, 0.2]).astype(complex)
    found = top_k_eigenpairs(m, 3)
    assert not found.truncated
    for i, pair in enumerate(found.pairs):
        assert pair.value == m[i, i]
        np.testing.assert_array_equal(np.abs(pair.right), np.eye(3)[i])
        np.testing.assert_array_equal(np.abs(pair.left), np.eye(3)[i])
        assert pair.residual == 0.0
        assert_eigenpair_contract(m, pair)


def test_left_vectors_stay_finite_where_the_refining_solve_does_not():
    # At a scale of 1e-300 the solve for lambda1's refined left vector
    # returns nan; the pair keeps the left vector solved from R instead,
    # the one the unscaled matrix gives.
    m = np.diag([0.9, 0.5, 0.2]).astype(complex)
    m[0, 1] = 0.3
    tiny = top_k_eigenpairs(1e-300 * m, 3)
    assert not tiny.truncated
    for pair, unscaled in zip(tiny.pairs, top_k_eigenpairs(m, 3).pairs):
        np.testing.assert_allclose(pair.left, unscaled.left, rtol=1e-12, atol=0)


def test_top_pairs_meet_the_eigenpair_contract():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_contraction(rng, int(rng.integers(2, 7)))
        for pair in top_k_eigenpairs(m, m.shape[0]).pairs:
            assert_eigenpair_contract(m, pair)


@pytest.mark.parametrize("seed", range(4))
def test_left_vectors_stay_accurate_below_a_defective_eigenvalue(seed):
    # R, the right-eigenvector matrix, is nearly singular, so the left
    # vectors solved from it alone have left residuals of about 1e-9.
    m = planted_jordan(np.random.default_rng(seed))
    found = top_k_eigenpairs(m, 2)
    assert not found.truncated
    np.testing.assert_allclose([p.value for p in found.pairs], [0.9, 0.7], atol=1e-12)
    for pair in found.pairs:
        assert_eigenpair_contract(m, pair)


def test_defective_adjacent_pair_refused():
    m = np.array([[0.5, 0.3], [0.0, 0.5]])
    refusal(m)
    assert top_k_eigenpairs(m, 1).pairs == ()


def test_unitary_tie_refused():
    theta = 2 * np.pi / 3
    u = np.diag([1.0, np.exp(1j * theta), np.exp(2j * theta)])
    assert str(refusal(u)).startswith("magnitude tie: |lambda0| = 1.000000e+00")
    assert top_k_eigenpairs(u, 1).pairs == ()


@pytest.mark.parametrize("seed", range(5))
def test_planted_magnitude_tie_refused_with_measured_gap(seed):
    m = planted_spectrum(np.random.default_rng(seed),
                         [0.8 * (1 + 1e-10), 0.8 * (1 - 1e-10), 0.5, 0.3, 0.1])
    gap = float(re.search(r"relative gap (\S+)", str(refusal(m))).group(1))
    assert abs(gap - 2e-10) <= 2e-12
    found = top_k_eigenpairs(m, 3)
    assert found.truncated and found.pairs == ()


@pytest.mark.parametrize("seed", range(5))
def test_planted_close_pair_biorthonormal(seed):
    # Two magnitudes 0.009 apart: a residual bound alone would allow cross
    # terms <left_i|right_j> of about tol / 0.009.
    magnitudes = [0.9, 0.891, 0.5, 0.3, 0.2, 0.1]
    found = top_k_eigenpairs(planted_spectrum(np.random.default_rng(seed), magnitudes), 3)
    assert not found.truncated
    np.testing.assert_allclose([abs(p.value) for p in found.pairs], magnitudes[:3], atol=1e-12)
    rights = np.array([p.right for p in found.pairs]).T
    lefts = np.array([p.left for p in found.pairs]).T
    assert np.abs(lefts.conj().T @ rights - np.eye(3)).max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_planted_gap_of_6e_4_resolved(seed):
    magnitudes = [0.9, 0.9 * (1 - 6e-4), 0.4, 0.2]
    found = top_k_eigenpairs(planted_spectrum(np.random.default_rng(seed), magnitudes), 3)
    assert not found.truncated
    np.testing.assert_allclose([abs(p.value) for p in found.pairs], magnitudes[:3], atol=1e-12)


def test_near_defective_pair_refused_by_overlap():
    # The relative gap, 1e-5, clears the tie threshold, but the left and
    # right vectors of 0.8 overlap only about 8e-10.
    m = np.array([[0.8, 1e4], [0.0, 0.8 * (1 - 1e-5)]])
    assert re.search(re.escape("|<v|u>|"), str(refusal(m)))
    found = top_k_eigenpairs(m, 2)
    assert found.truncated and found.pairs == ()


def test_pair_refused_above_residual_tolerance():
    # Eigenvalues 1e7 apart leave a dominant pair that clears the gap and
    # overlap tests but whose residual, about 4e-9, exceeds DEFAULT_TOL.
    m = 1e7 * np.triu(np.random.default_rng(0).standard_normal((40, 40)))
    refused = refusal(m)
    assert re.search(r"^residual \S+ above tolerance 1\.0e-10$", str(refused))
    assert refused.residual > DEFAULT_TOL
    assert top_k_eigenpairs(m, 1) == TopKResult(pairs=(), truncated=True)


def test_top_k_diagonal():
    found = top_k_eigenpairs(np.diag([0.9, 0.5, 0.1]).astype(complex), 3)
    assert not found.truncated
    np.testing.assert_allclose([p.value for p in found.pairs], [0.9, 0.5, 0.1], atol=1e-8)


def test_top_k_truncates_on_unitary():
    theta = 2 * np.pi / 3
    u = np.diag([1.0, np.exp(1j * theta), np.exp(2j * theta)])
    found = top_k_eigenpairs(u, 2)
    assert found.truncated
    assert len(found.pairs) < 2


def test_top_k_k_bounds():
    m = np.diag([0.9, 0.5]).astype(complex)
    assert top_k_eigenpairs(m, 0).pairs == ()
    with pytest.raises(ValueError):
        top_k_eigenpairs(m, 3)


def test_top_k_biorthonormality_random():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(20):
        m = random_contraction(rng, int(rng.integers(2, 7)))
        found = top_k_eigenpairs(m, m.shape[0])
        if len(found.pairs) < 2:
            continue
        rights = np.array([p.right for p in found.pairs]).T
        lefts = np.array([p.left for p in found.pairs]).T
        gram = lefts.conj().T @ rights
        assert np.abs(gram - np.eye(len(found.pairs))).max() <= 1e-8
        checked += 1
    assert checked >= 10


def test_contraction_eigenvalue_bound():
    rng = np.random.default_rng(33)
    for _ in range(20):
        m = random_contraction(rng, int(rng.integers(2, 7)))
        for pair in top_k_eigenpairs(m, m.shape[0]).pairs:
            assert abs(pair.value) <= 1.0 + 1e-9


@given(seed=st.integers(0, 5_000))
@settings(max_examples=60, deadline=None)
def test_dominant_eigenvalue_matches_charpoly_roots(seed):
    rng = np.random.default_rng(seed)
    m = random_contraction(rng, int(rng.integers(2, 7)))
    found = top_k_eigenpairs(m, 1)
    if found.truncated:
        return  # tied magnitudes: refusal is the documented contract
    pair = found.pairs[0]
    roots = eigenvalues_by_charpoly(m)
    assert np.min(np.abs(roots - pair.value)) <= 1e-7
    # and it really is the largest magnitude
    assert abs(pair.value) >= np.max(np.abs(roots)) - 1e-7
