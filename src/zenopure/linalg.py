"""Complex linear algebra for contraction spectra.

Tensor products, Hermitian eigendecomposition, unitary exponentials, and
dominant-eigenpair extraction for the non-Hermitian contractions that
repeated-measurement propagators produce. Arrays are dense complex128, but
a Hermitian matrix is never diagonalized whole when it need not be: the
connected components of its nonzero pattern are independent diagonal
blocks, each eigendecomposed on its own, and exp(-iHt) is assembled from
them block by block. A conserved quantity such as a total excitation
number therefore turns one D x D problem into many small ones; a fully
coupled matrix is a single block and is decomposed as it stands.

A matrix is checked once, block by block: its pattern is searched once
(``_coupled_blocks``, from the dense matrix or from diagonal blocks it is
known to be zero outside), the blocks found are cut out (``_cut_blocks``),
the symmetry bound ||m - m†||_F <= 1e-9 ||m||_F is summed over them
(``_block_asymmetry``), and they are then decomposed without testing them
again (``_decompose_blocks``). ``block_eigendecompose`` does all of it for a
raw matrix; ``engine.BipartiteSystem`` does all but the last when it is
built, keeps the blocks, and decomposes them on first use.

The eigenpair routines deliberately use power iteration with a Rayleigh
quotient and rank-1 deflation rather than a full QR spectrum: only the top
few eigenvalues are ever needed, starts are seed-deterministic, and a
magnitude tie is reported as a refusal (NoConvergence) instead of an
arbitrary pick, because downstream purification logic must know when the
dominant eigenvalue is not unique.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "NoConvergence",
    "DimensionLimitExceeded",
    "HermitianEigenDecomposition",
    "HermitianBlock",
    "EigenPair",
    "TopKResult",
    "tensor_product",
    "adjoint",
    "hermitian_eigendecompose",
    "block_eigendecompose",
    "unitary_from_blocks",
    "unitary_exponential",
    "dominant_eigenpair",
    "deflate",
    "top_k_eigenpairs",
]

#: Largest matrix dimension tensor_product will produce. Anything bigger is
#: outside the desk-scale regime this package is written for.
MAX_TENSOR_DIM = 4096

#: Defaults for the iterative eigensolvers.
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

_UNDERFLOW = 1e-300


class NotHermitian(ValueError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergence(RuntimeError):
    """Iteration cap reached, or no usable magnitude gap exists.

    For power iteration this is a diagnosis, not necessarily a bug: equal
    dominant-eigenvalue magnitudes (unitary input, defective blocks) make
    the dominant pair ill-defined and the solver refuses rather than pick.
    The best residual seen is attached as ``residual``.
    """

    def __init__(self, message: str, residual: float = np.inf):
        super().__init__(message)
        self.residual = float(residual)


class DimensionLimitExceeded(ValueError):
    """Requested operation would exceed the configured size ceiling."""


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = _as_matrix(m, name)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Spectral factorization M = Q diag(E) Q† of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the corresponding
    orthonormal columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class HermitianBlock:
    """One diagonal block of a Hermitian matrix that no nonzero entry couples
    to the rest of it.

    indices are the block's rows (and columns) of the full matrix, ascending;
    eigenvalues and eigenvectors decompose the block itself, so eigenvectors
    is len(indices) x len(indices) and its rows follow ``indices``.
    """

    indices: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class EigenPair:
    """One eigenvalue with its right and left eigenvectors.

    Gauge: ``right`` has unit Euclidean norm and ``left`` is scaled so that
    <left|right> = 1. ``residual`` is the achieved ||M right - value right||.
    """

    value: complex
    right: np.ndarray
    left: np.ndarray
    residual: float


@dataclass(frozen=True)
class TopKResult:
    """Eigenpairs sorted by descending magnitude.

    ``truncated`` is set when extraction stopped early because some stage hit
    a magnitude tie or the iteration cap; ``pairs`` then holds fewer entries
    than requested.
    """

    pairs: tuple[EigenPair, ...]
    truncated: bool


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product with the left factor major in the composite index.

    Entry ((i*rb + k), (j*cb + l)) equals a[i, j] * b[k, l], so basis order
    is (left index, right index) throughout the package.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape[0] * b.shape[0] > MAX_TENSOR_DIM or a.shape[1] * b.shape[1] > MAX_TENSOR_DIM:
        raise DimensionLimitExceeded(
            f"tensor product of shapes {a.shape} x {b.shape} exceeds {MAX_TENSOR_DIM}"
        )
    return np.kron(a, b)


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return _as_matrix(m).conj().T.copy()


def _check_hermitian(dev: float, scale: float, tol: float = 1e-9) -> None:
    """Raise NotHermitian unless ||m - m†||_F = dev <= tol * ||m||_F = scale."""
    if dev > tol * max(scale, _UNDERFLOW):
        raise NotHermitian(
            f"matrix is not Hermitian: ||m - m†||/||m|| = {dev / max(scale, _UNDERFLOW):.3e}"
        )


def hermitian_eigendecompose(m, tol: float = 1e-9, *,
                             checked: bool = False) -> HermitianEigenDecomposition:
    """Eigendecompose a Hermitian matrix into ascending eigenvalues.

    Parameters
    ----------
    m : array_like, square
    tol : relative Frobenius tolerance for the symmetry check
        ||m - m†||_F <= tol * ||m||_F; anything beyond truncation-arithmetic
        noise should be rejected, hence the tight default.
    checked : the caller has already found m finite and within its bound of
        Hermitian, as ``_decompose_blocks`` has for each block; the
        finiteness and symmetry tests are skipped.

    In either case the Hermitian part (m + m†) / 2 is what is decomposed.

    Raises
    ------
    NotHermitian
        if the symmetry check fails.
    NoConvergence
        if the underlying iteration fails to converge.
    """
    if checked:
        a = np.asarray(m, dtype=complex)
    else:
        a = _as_square(m)
        _check_hermitian(np.linalg.norm(a - a.conj().T), np.linalg.norm(a), tol)
    sym = (a + a.conj().T) / 2
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigendecomposition failed: {exc}") from exc
    return HermitianEigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def _pattern_edges(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the nonzero pattern of m, made symmetric and given its
    diagonal, in row-major order."""
    pattern = m != 0
    pattern |= pattern.T
    np.fill_diagonal(pattern, True)
    return np.divmod(np.flatnonzero(pattern), m.shape[0])


def _coupled_blocks(parts) -> list[np.ndarray]:
    """Index sets of the connected components of the nonzero pattern of a matrix.

    The matrix is given as ``parts``, (indices, block) pairs whose index sets
    partition range(n): it holds each block on its indices and is zero
    between them. A whole matrix m is the one part (arange(n), m); its
    edges are read from its dense pattern, and those of several parts from
    the nonzeros of their blocks. Indices i and j share a component when a
    chain of exactly nonzero entries m[i, k], m[k, l], ..., in either
    orientation, links them. Each set is ascending and the sets are ordered
    by their smallest index, however the matrix was split into parts, so a
    matrix without zero couplings is one block, arange(n). The blocks must
    be finite.
    """
    if len(parts) == 1 and np.array_equal(parts[0][0], np.arange(len(parts[0][0]))):
        # A whole matrix: its row-major edges are in order already.
        rows, cols = _pattern_edges(parts[0][1])
    else:
        edges = [(idx[r], idx[c]) for idx, m in parts for r, c in [_pattern_edges(m)]]
        rows = np.concatenate([r for r, _ in edges])
        cols = np.concatenate([c for _, c in edges])
        order = np.argsort(rows, kind="stable")
        rows, cols = rows[order], cols[order]
    # Every index starts labelled by itself. Each pass gives every index the
    # smallest label among its neighbours, then replaces each label by that
    # label's own label (pointer jumping, which keeps the number of passes
    # far below the length of the longest chain), until nothing changes.
    # Rows are ascending and each row's entries contiguous (the diagonal
    # makes every row nonempty).
    n = sum(len(idx) for idx, _ in parts)
    starts = np.searchsorted(rows, np.arange(n))
    label = np.arange(n)
    while True:
        smaller = np.minimum.reduceat(label[cols], starts)
        smaller = smaller[smaller]
        if np.array_equal(smaller, label):
            break
        label = smaller
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _index_owners(groups, d: int) -> tuple[np.ndarray, np.ndarray]:
    """For disjoint index sets ``groups`` covering range(d): the number of
    the set holding each index, and the index's place within that set."""
    owner = np.empty(d, dtype=int)
    place = np.empty(d, dtype=int)
    for number, idx in enumerate(groups):
        owner[idx] = number
        place[idx] = np.arange(len(idx))
    return owner, place


def _cut_blocks(parts, found) -> list[np.ndarray]:
    """The matrix of each block ``_coupled_blocks(parts)`` found.

    A found block lies within one part, and is cut out of that part's
    block; one that is a whole part, in the same order, is that part's
    matrix itself, not a copy.
    """
    owner, place = _index_owners([idx for idx, _ in parts], sum(len(idx) for idx, _ in parts))
    out = []
    for idx in found:
        given, m = parts[owner[idx[0]]]
        if np.array_equal(idx, given):
            out.append(m)
        else:
            out.append(m[np.ix_(place[idx], place[idx])])
    return out


def _block_asymmetry(matrices) -> tuple[float, float]:
    """(||a - a†||_F, ||a||_F) of the matrix a made of the blocks ``matrices``.

    a is zero outside its blocks, and so is a - a†, so the root sums of
    squares over the blocks are the whole matrix's norms.
    """
    dev = scale = 0.0
    for s in matrices:
        dev += np.linalg.norm(s - s.conj().T) ** 2
        scale += np.linalg.norm(s) ** 2
    return float(np.sqrt(dev)), float(np.sqrt(scale))


def _decompose_blocks(found, matrices) -> tuple[HermitianBlock, ...]:
    """Eigendecompose the blocks ``matrices`` on the index sets ``found``,
    already checked.

    The caller has found every block finite and their ``_block_asymmetry``
    within the bound, so each block goes to ``hermitian_eigendecompose``
    unchecked: a block's asymmetry may be large against its own small norm
    and still within the bound for the whole matrix.
    """
    out = []
    for idx, s in zip(found, matrices):
        eig = hermitian_eigendecompose(s, checked=True)
        out.append(HermitianBlock(idx, eig.eigenvalues, eig.eigenvectors))
    return tuple(out)


def block_eigendecompose(m) -> tuple[HermitianBlock, ...]:
    """Eigendecompose a Hermitian matrix one coupled block at a time.

    The blocks are the connected components of the exact nonzero pattern of
    m; each is eigendecomposed by ``hermitian_eigendecompose``. The symmetry
    test is the one ``hermitian_eigendecompose`` makes on m as a whole,
    ||m - m†||_F <= 1e-9 ||m||_F, summed over the blocks, so a block whose
    own asymmetry is large only against its own small norm is accepted, and
    its Hermitian part is decomposed. A matrix that is one block is passed
    as it stands, without copying it out.
    """
    a = _as_square(m)
    parts = [(np.arange(a.shape[0]), a)]
    found = _coupled_blocks(parts)
    matrices = _cut_blocks(parts, found)
    _check_hermitian(*_block_asymmetry(matrices))
    return _decompose_blocks(found, matrices)


def _block_selection(groups, d: int, indices):
    """Where ``indices`` meet the disjoint index sets ``groups`` covering range(d).

    Yields (number, rows, local) for each set that holds one of the
    indices, in set order: ``rows`` are the positions in ``indices`` that
    fall in set ``number`` and ``local`` their places within that set. A
    block-diagonal m with block ``number`` on ``groups[number]`` so has
    m[np.ix_(indices, indices)][np.ix_(rows, rows)] equal to that block's
    [np.ix_(local, local)], and zero between two different sets.
    """
    indices = np.asarray(indices, dtype=int)
    owner, place = _index_owners(groups, d)
    chosen = owner[indices]
    for number in np.unique(chosen):
        rows = np.flatnonzero(chosen == number)
        yield int(number), rows, place[indices[rows]]


def unitary_from_blocks(blocks: tuple[HermitianBlock, ...], t: float,
                        indices=None) -> np.ndarray:
    """exp(-i h t) assembled from ``block_eigendecompose(h)``.

    Each block contributes Q diag(exp(-i E t)) Q† on its own indices; every
    entry between two different blocks is zero. With ``indices`` only
    u[np.ix_(indices, indices)] is returned, entry for entry as the whole
    matrix holds it, without forming the whole matrix; blocks holding none
    of the indices are skipped.
    """
    d = sum(len(b.indices) for b in blocks)
    if indices is None:
        indices = np.arange(d)
    u = np.zeros((len(indices), len(indices)), dtype=complex)
    for number, rows, local in _block_selection([b.indices for b in blocks], d, indices):
        q = blocks[number].eigenvectors
        phases = np.exp(-1j * blocks[number].eigenvalues * float(t))
        u[np.ix_(rows, rows)] = ((q * phases) @ q.conj().T)[np.ix_(local, local)]
    return u


def unitary_exponential(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via the block spectral decomposition.

    Returns Q diag(exp(-i E t)) Q† block by block, unitary up to rounding.
    """
    return unitary_from_blocks(block_eigendecompose(h), t)


def _power_iterate(step: np.ndarray, reference: np.ndarray, tol: float,
                   max_iter: int, rng: np.random.Generator):
    """Power iteration driven by ``step`` but converged against ``reference``.

    The two matrices coincide for a plain dominant-pair call; in a deflation
    chain ``step`` is the deflated matrix while the residual and Rayleigh
    quotient are taken against the original, so returned pairs are pairs of
    the original matrix.

    Returns (eigenvalue, unit vector, residual). Raises NoConvergence when
    the iteration cap is reached.
    """
    n = step.shape[0]
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    best = np.inf
    for _ in range(max_iter):
        z = reference @ x
        lam = np.vdot(x, z)
        residual = float(np.linalg.norm(z - lam * x))
        best = min(best, residual)
        if residual <= tol:
            return complex(lam), x, residual
        y = step @ x
        ny = np.linalg.norm(y)
        if ny < _UNDERFLOW:
            # x is annihilated: it sits in the kernel, eigenvalue zero.
            residual = float(np.linalg.norm(reference @ x))
            if residual <= tol:
                return 0.0 + 0.0j, x, residual
            raise NoConvergence(
                "iterate annihilated without meeting the residual tolerance",
                residual,
            )
        step_lam = np.vdot(x, y)
        if float(np.linalg.norm(y - step_lam * x)) <= tol:
            # Locked onto a step eigenvector, but the residual against the
            # reference is floored by the error the deflation chain carried
            # in. Further power steps cannot move x; refine it against the
            # reference directly.
            lam, x, residual = _shifted_refine(reference, x, lam)
            best = min(best, residual)
            if residual <= tol:
                return complex(lam), x, residual
            raise NoConvergence(
                f"refinement stalled at residual {residual:.3e} "
                f"(tolerance {tol:.1e})",
                residual,
            )
        x = y / ny
    raise NoConvergence(
        f"power iteration did not reach residual {tol:.1e} in {max_iter} steps "
        f"(best {best:.3e}); dominant eigenvalue magnitudes may coincide",
        best,
    )


def _shifted_refine(reference: np.ndarray, x: np.ndarray, lam: complex):
    """A few shifted inverse-iteration steps against ``reference``.

    Entered only with x already an eigenvector of the deflated step matrix
    to tolerance, so the Rayleigh shift sits within deflation error of the
    target eigenvalue and inverse iteration sharpens the same pair rather
    than jumping to a neighbor.
    """
    eye = np.eye(reference.shape[0], dtype=complex)
    residual = float(np.linalg.norm(reference @ x - lam * x))
    best = (complex(lam), x, residual)
    for _ in range(4):
        y = None
        # An exact Rayleigh shift can make the LU factorization exactly
        # singular; a relative nudge of the shift restores an invertible
        # system while keeping the inverse-iteration gain enormous.
        for shift in (lam, lam + 1e-12 * max(1.0, abs(lam))):
            try:
                candidate = np.linalg.solve(reference - shift * eye, x)
            except np.linalg.LinAlgError:
                continue
            ny = np.linalg.norm(candidate)
            if np.isfinite(ny) and ny >= _UNDERFLOW:
                y = candidate
                break
        if y is None:
            break
        x = y / ny
        z = reference @ x
        lam = np.vdot(x, z)
        residual = float(np.linalg.norm(z - lam * x))
        if residual < best[2]:
            best = (complex(lam), x, residual)
    return best


def dominant_eigenpair(m, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                       seed: int = 0) -> EigenPair:
    """Largest-magnitude eigenvalue with right and left eigenvectors.

    Power iteration with a Rayleigh-quotient estimate, started from a
    seed-deterministic random vector. The left vector is obtained from the
    adjoint matrix and rescaled so <left|right> = 1 while ||right|| = 1.

    Raises NoConvergence when there is no usable magnitude gap (the refusal
    signals that a unique dominant eigenvalue does not exist, which is
    exactly the condition purification analysis must detect).
    """
    a = _as_square(m)
    rng = np.random.default_rng(seed)
    return _pair_from(a, a, tol, max_iter, rng)


def _pair_from(step: np.ndarray, reference: np.ndarray, tol: float, max_iter: int,
               rng: np.random.Generator) -> EigenPair:
    lam, right, residual = _power_iterate(step, reference, tol, max_iter, rng)
    lam_l, left, _ = _power_iterate(step.conj().T, reference.conj().T, tol, max_iter, rng)
    if abs(np.conj(lam_l) - lam) > max(10 * tol, 1e-8 * abs(lam)):
        raise NoConvergence(
            f"left/right eigenvalue mismatch ({np.conj(lam_l):.6e} vs {lam:.6e})",
            residual,
        )
    overlap = np.vdot(left, right)
    if abs(overlap) < 1e-8:
        # Near-defective: left and right vectors of a genuine simple
        # eigenvalue cannot be orthogonal.
        raise NoConvergence(
            f"left/right vectors nearly orthogonal (|<v|u>| = {abs(overlap):.3e})",
            residual,
        )
    left = left / np.conj(overlap)
    return EigenPair(value=complex(lam), right=right, left=left, residual=residual)


def deflate(m, pair: EigenPair) -> np.ndarray:
    """Remove one eigenpair: m - value * |right><left|.

    On the result, the dominant pair of the remaining spectrum becomes
    reachable by power iteration. The pair must carry the gauge this module
    produces (unit right vector, <left|right> = 1).
    """
    a = _as_square(m)
    right = np.asarray(pair.right, dtype=complex)
    left = np.asarray(pair.left, dtype=complex)
    if right.shape != (a.shape[0],) or left.shape != (a.shape[0],):
        raise ValueError("eigenpair dimension does not match matrix")
    if abs(np.linalg.norm(right) - 1.0) > 1e-12:
        raise ValueError("right vector is not unit-normalized")
    if abs(np.vdot(left, right) - 1.0) > 1e-10:
        raise ValueError("pair violates <left|right> = 1")
    return a - pair.value * np.outer(right, left.conj())


def top_k_eigenpairs(m, k: int, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER, seed: int = 0) -> TopKResult:
    """Top k eigenpairs by magnitude, via repeated deflation.

    Each stage power-iterates the deflated matrix while measuring residuals
    against the original, so every returned pair satisfies the EigenPair
    contract for the input matrix itself. Extraction stops early (truncated
    result, no exception) when a stage finds no magnitude gap.
    """
    a = _as_square(m)
    if not 0 <= k <= a.shape[0]:
        raise ValueError(f"k must be between 0 and {a.shape[0]}, got {k}")
    rng = np.random.default_rng(seed)
    pairs: list[EigenPair] = []
    work = a
    truncated = False
    for _ in range(k):
        try:
            pair = _pair_from(work, a, tol, max_iter, rng)
        except NoConvergence:
            truncated = True
            break
        pairs.append(pair)
        work = work - pair.value * np.outer(pair.right, pair.left.conj())
    pairs.sort(key=lambda p: -abs(p.value))
    return TopKResult(pairs=tuple(pairs), truncated=truncated)
