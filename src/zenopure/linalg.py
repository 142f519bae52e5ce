"""Complex linear algebra for contraction spectra.

Hermitian eigendecomposition, unitary exponentials, and dominant-eigenpair
extraction for the non-Hermitian contractions that repeated-measurement
propagators produce. Arrays are dense complex128, but a Hermitian matrix
is never diagonalized whole when it need not be: the connected components
of its nonzero pattern are independent diagonal blocks, each
eigendecomposed on its own, and exp(-iHt) is assembled from them block by
block. A conserved quantity such as a total excitation number therefore
turns one D x D problem into many small ones; a fully coupled matrix is a
single block and is decomposed as it stands.

A matrix is checked once, block by block: its pattern is searched once
(``_coupled_blocks``, from the dense matrix or from diagonal blocks it is
known to be zero outside), the blocks found are cut out (``_cut_blocks``),
the symmetry bound ||m - m†||_F <= 1e-9 ||m||_F is summed over them
(``_block_asymmetry``), and they are then decomposed without testing them
again (``_decompose_blocks``). ``block_eigendecompose`` does all of it for a
raw matrix; ``engine.BipartiteSystem`` does all but the last when it is
built, keeps the blocks, and decomposes them on first use.

The eigenpair routines take the whole spectrum from one LAPACK ``eig``
(``numpy.linalg.eig``; importing scipy would cost every fresh process far
more than the solve), rank it by magnitude, and take each left vector from
the eigenvector matrix R by solving R† Y = E_k, so <left|right> = 1 holds by
construction. A pair is refused (NoConvergence) rather than picked when its
magnitude ties with the next eigenvalue's (relative gap at or below
TIE_GAP) or when it is near-defective (unit left/right overlap below
MIN_OVERLAP): downstream purification logic must know when the dominant
eigenvalue is not unique. The refusal reports the measured gap or overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "NoConvergence",
    "HermitianEigenDecomposition",
    "HermitianBlock",
    "EigenPair",
    "TopKResult",
    "hermitian_eigendecompose",
    "block_eigendecompose",
    "unitary_from_blocks",
    "unitary_exponential",
    "dominant_eigenpair",
    "top_k_eigenpairs",
]

#: Default residual bound of the eigenpair routines.
DEFAULT_TOL = 1e-10

#: Relative magnitude gap (|lambda_i| - |lambda_i+1|) / |lambda_i| at or
#: below which eigenvalue i ties with the next and its pair is refused. It
#: sits far below 6e-4, the smallest gap among the top three magnitudes of
#: criterion 9's random contractions, and far above the ~1e-8 split that
#: rounding gives the double eigenvalue of a defective pair.
TIE_GAP = 1e-6

#: Unit left/right overlap |<v|u>| below which a pair is near-defective and
#: refused: 1 / |<v|u>| is its eigenvalue's condition number.
MIN_OVERLAP = 1e-8

_UNDERFLOW = 1e-300


class NotHermitian(ValueError):
    """Input matrix fails the Hermitian symmetry check."""


class NoConvergence(RuntimeError):
    """No usable magnitude gap, a near-defective pair, or a failed solve.

    For the eigenpair routines this is a diagnosis, not necessarily a bug:
    equal dominant-eigenvalue magnitudes (unitary input, defective blocks)
    make the dominant pair ill-defined and the solver refuses rather than
    pick. The refused pair's residual is attached as ``residual``.
    """

    def __init__(self, message: str, residual: float = np.inf):
        super().__init__(message)
        self.residual = float(residual)


def _as_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
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

    ``truncated`` is set when extraction stopped early at a refused pair (a
    magnitude tie, a near-defective pair or a residual above tolerance);
    ``pairs`` then holds fewer entries than requested.
    """

    pairs: tuple[EigenPair, ...]
    truncated: bool


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


def _ranked_pairs(a: np.ndarray, k: int, tol: float):
    """``top_k_eigenpairs``' pairs, and the NoConvergence that refused the
    next one, reporting the measured gap, overlap or residual (None when
    all k pairs were taken)."""
    n = a.shape[0]
    if not 0 <= k <= n:
        raise ValueError(f"k must be between 0 and {n}, got {k}")
    if k == 0:
        return [], None
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        return [], NoConvergence(f"eigenvalue computation failed: {exc}")
    order = np.argsort(-np.abs(values), kind="stable")
    # Row i of ``rights`` is the unit right vector r_i of values[i]. Column
    # i of ``lefts`` solves <r_j|y_i> = delta_ij for every j, so
    # <y_i|r_i> = 1 holds by construction.
    values, rights = values[order], vectors.T[order]
    magnitudes = np.abs(values)
    try:
        lefts = np.linalg.solve(rights.conj(), np.eye(n, k, dtype=complex))
    except np.linalg.LinAlgError:
        lefts = np.zeros((n, k), dtype=complex)  # singular: overlap 0 below
    pairs = []
    for i in range(k):
        value, right, left = complex(values[i]), rights[i], lefts[:, i]
        residual = float(np.linalg.norm(a @ right - value * right))
        if i + 1 < n:
            drop = magnitudes[i] - magnitudes[i + 1]
            gap = drop / magnitudes[i] if magnitudes[i] else 0.0
            if gap <= TIE_GAP:
                return pairs, NoConvergence(
                    f"magnitude tie: |lambda{i}| = {magnitudes[i]:.6e}, "
                    f"|lambda{i + 1}| = {magnitudes[i + 1]:.6e}, relative gap "
                    f"{gap:.3e} <= {TIE_GAP:.0e}",
                    residual,
                )
        norm = np.linalg.norm(left)
        overlap = abs(np.vdot(left, right)) / norm if norm else 0.0
        if not overlap >= MIN_OVERLAP:  # a NaN overlap is refused too
            # Left and right vectors of a simple eigenvalue cannot be
            # orthogonal; nearly orthogonal ones mark a near-defective pair.
            return pairs, NoConvergence(
                f"left/right vectors nearly orthogonal (|<v|u>| = {overlap:.3e} "
                f"< {MIN_OVERLAP:.0e})",
                residual,
            )
        if residual > tol:
            return pairs, NoConvergence(
                f"residual {residual:.3e} above tolerance {tol:.1e}", residual
            )
        left = left / np.conj(np.vdot(left, right))
        pairs.append(EigenPair(value=value, right=right, left=left, residual=residual))
    return pairs, None


def dominant_eigenpair(m, tol: float = DEFAULT_TOL) -> EigenPair:
    """Largest-magnitude eigenvalue with right and left eigenvectors.

    The first pair ``top_k_eigenpairs`` would return, from one LAPACK
    ``eig`` of m.

    Raises NoConvergence when the pair is refused, with the measured value
    in the message: when |lambda0| ties with |lambda1| (relative gap
    (|lambda0| - |lambda1|) / |lambda0| at or below TIE_GAP, 1e-6), so that
    no unique dominant eigenvalue exists, which is exactly the condition
    purification analysis must detect; when the pair is near-defective
    (unit left/right overlap |<v|u>| below MIN_OVERLAP, 1e-8); or when its
    residual exceeds ``tol``.
    """
    pairs, refusal = _ranked_pairs(_as_square(m), 1, tol)
    if refusal is not None:
        raise refusal
    return pairs[0]


def top_k_eigenpairs(m, k: int, tol: float = DEFAULT_TOL) -> TopKResult:
    """Top k eigenpairs by descending magnitude, from one LAPACK ``eig``.

    Every returned pair satisfies the EigenPair contract for m, with
    residual at most ``tol``. Pairs are taken in order until the first one
    refused by ``dominant_eigenpair``'s rule: a relative magnitude gap to
    the next eigenvalue at or below TIE_GAP (1e-6), a unit left/right
    overlap below MIN_OVERLAP (1e-8), or a residual above ``tol``. The
    result is then ``truncated`` and holds only the pairs before it; no
    exception is raised.
    """
    pairs, refusal = _ranked_pairs(_as_square(m), k, tol)
    return TopKResult(pairs=tuple(pairs), truncated=refusal is not None)
