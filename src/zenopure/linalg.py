"""Complex linear algebra for contraction spectra.

Hermitian eigendecomposition, unitary exponentials, and ranked eigenpair
extraction for the non-Hermitian contractions that repeated-measurement
propagators produce. Arrays are dense complex128, but a Hermitian matrix
is never diagonalized whole when it need not be: the connected components
of its nonzero pattern are independent diagonal blocks, each
eigendecomposed on its own, and exp(-iHt) is assembled from them block by
block. A conserved quantity such as a total excitation number therefore
turns one D x D problem into many small ones; a fully coupled matrix is a
single block and is decomposed as it stands.

A dense matrix is searched once for its blocks (``_coupled_blocks``) and
they are cut out of it (``_dense_blocks``); blocks a caller already knows
are taken as they are. Either way the symmetry bound ||m - m†||_F <= 1e-9
||m||_F is summed over the blocks once (``_checked_blocks``, through
``_check_hermitian``, the one place that raises NotHermitian), and they are
then decomposed without testing them again (``_decompose_blocks``).
``unitary_exponential`` does both for a raw matrix;
``engine.BipartiteSystem`` checks its blocks when it is built, keeps them,
and decomposes them on first use.

The eigenpair routines take the whole spectrum from one LAPACK ``eig``
(``numpy.linalg.eig``; importing scipy would cost every fresh process far
more than the solve), rank it by magnitude, and take each left vector from
the eigenvector matrix R by solving R† Y = E_k. A pair is refused
(NoConvergence) rather than picked when its magnitude ties with the next
eigenvalue's (relative gap at or below TIE_GAP), when it is near-defective
(unit left/right overlap below MIN_OVERLAP) or when its residual exceeds
DEFAULT_TOL: downstream purification logic must know when the dominant
eigenvalue is not unique. The refusal reports the measured gap, overlap or
residual. The left vector of a pair that is kept is refined by one
inverse-iteration step on (M - lambda 1)† and scaled to <left|right> = 1,
so it stays an accurate left eigenvector when a defective eigenvalue below
it leaves R nearly singular.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NotHermitian",
    "NoConvergence",
    "HermitianBlock",
    "EigenPair",
    "TopKResult",
    "hermitian_eigendecompose",
    "unitary_from_blocks",
    "unitary_exponential",
    "top_k_eigenpairs",
]

#: Residual bound ||M right - value right|| of the eigenpair routines.
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

#: Bytes of each run of rows ``_same_bits`` compares at a time.
_COMPARE_BYTES = 1 << 16


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
class HermitianBlock:
    """One diagonal block of a Hermitian matrix that no nonzero entry couples
    to the rest of it, or the whole matrix, whose indices are arange(n).

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
    <left|right> = 1. ``residual`` is the achieved ||M right - value right||;
    ``left`` solves M† left = conj(value) left to a relative residual
    ||M† left - conj(value) left|| / ||left|| at most DEFAULT_TOL as well.
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


def _check_hermitian(dev: float, scale: float) -> None:
    """Raise NotHermitian unless dev = ||m - m†||_F <= 1e-9 ||m||_F = 1e-9 scale."""
    if dev > 1e-9 * max(scale, _UNDERFLOW):
        raise NotHermitian(f"hamiltonian is not Hermitian (deviation {dev:.3e})")


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether the arrays x and y, of one shape and dtype, hold the same
    bits. They are compared as bytes, _COMPARE_BYTES of rows at a time, so
    that a large array is never copied whole."""
    if x.nbytes <= _COMPARE_BYTES:
        # One run: the loop would add about a microsecond to each of the
        # many small blocks of a conserved-quantity matrix.
        return x.tobytes() == y.tobytes()
    rows = max(1, _COMPARE_BYTES // x[0].nbytes)
    return all(x[i:i + rows].tobytes() == y[i:i + rows].tobytes()
               for i in range(0, len(x), rows))


def hermitian_eigendecompose(m, *, indices=None) -> HermitianBlock:
    """Eigendecompose a Hermitian matrix into ascending eigenvalues.

    The result is the matrix as one block, on the indices arange(n), or on
    ``indices`` when m is a block of a larger matrix.

    m must be finite and pass the symmetry check ||m - m†||_F <= 1e-9
    ||m||_F; anything beyond truncation-arithmetic noise is rejected.

    Parameters
    ----------
    m : array_like, square
    indices : m's rows in the larger matrix it is a block of, ascending, as
        ``_decompose_blocks`` passes them. That caller has already found the
        larger matrix finite and within its bound of Hermitian, block by
        block, so the finiteness and symmetry tests are skipped: a block's
        asymmetry may be large against its own small norm and still within
        the bound for the whole matrix.

    In either case the Hermitian part (m + m†) / 2 is what is decomposed.
    When it equals m bit for bit (an exactly Hermitian m does, unless the
    sign of a zero or an overflowing sum sets them apart), m itself (the
    caller's own array, if it is complex128) is handed to
    ``numpy.linalg.eigh`` and the copy is dropped first, so a large block
    is not held twice through the solve; the result is the same either way.
    Equal values would not do: LAPACK's Householder step takes the sign of
    a zero, so a zero of the other sign can change every bit of the result.

    Raises
    ------
    NotHermitian
        if the symmetry check fails.
    NoConvergence
        if the underlying iteration fails to converge.
    """
    if indices is not None:
        a = np.asarray(m, dtype=complex)
    else:
        a = _as_square(m)
        _check_hermitian(np.linalg.norm(a - a.conj().T), np.linalg.norm(a))
        indices = np.arange(a.shape[0])
    sym = (a + a.conj().T) / 2
    if _same_bits(sym, a):
        sym = a
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigendecomposition failed: {exc}") from exc
    return HermitianBlock(indices, vals, vecs)


def _coupled_blocks(m: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the nonzero pattern of the
    square, finite matrix m.

    Indices i and j share a component when a chain of exactly nonzero
    entries m[i, k], m[k, l], ..., in either orientation, links them. Each
    set is ascending and the sets are ordered by their smallest index, so a
    matrix without zero couplings is one block, arange(n).
    """
    # The pattern is made symmetric and given its diagonal; its row-major
    # edges have ascending rows, each row's entries contiguous and every
    # row nonempty.
    pattern = m != 0
    pattern |= pattern.T
    np.fill_diagonal(pattern, True)
    n = m.shape[0]
    rows, cols = np.divmod(np.flatnonzero(pattern), n)
    # Every index starts labelled by itself. Each pass gives every index the
    # smallest label among its neighbours, then replaces each label by that
    # label's own label (pointer jumping, which keeps the number of passes
    # far below the length of the longest chain), until nothing changes.
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


def _checked_blocks(matrices) -> tuple[np.ndarray, ...]:
    """``matrices``, the finite diagonal blocks of a matrix a that is zero
    outside them, once the symmetry bound ||a - a†||_F <= 1e-9 ||a||_F holds.

    a - a† is zero outside the blocks too, so the root sums of squares over
    the blocks are the whole matrix's norms. Raises NotHermitian past the
    bound.
    """
    matrices = tuple(matrices)
    dev = scale = 0.0
    for s in matrices:
        dev += np.linalg.norm(s - s.conj().T) ** 2
        scale += np.linalg.norm(s) ** 2
    _check_hermitian(float(np.sqrt(dev)), float(np.sqrt(scale)))
    return matrices


def _dense_blocks(m: np.ndarray) -> tuple[list[np.ndarray], tuple[np.ndarray, ...]]:
    """The coupled blocks of the square, finite matrix m: the index sets
    ``_coupled_blocks`` finds and their matrices, checked by
    ``_checked_blocks``. A matrix that is one block is its own one matrix,
    not a copy."""
    found = _coupled_blocks(m)
    return found, _checked_blocks([m] if len(found) == 1
                                  else [m[np.ix_(idx, idx)] for idx in found])


def _decompose_blocks(found, matrices) -> tuple[HermitianBlock, ...]:
    """Eigendecompose the blocks ``matrices``, checked by ``_checked_blocks``,
    on the index sets ``found``.

    Every block is finite and their summed asymmetry within the bound, so
    each goes to ``hermitian_eigendecompose`` with its indices, unchecked.
    """
    return tuple(hermitian_eigendecompose(s, indices=idx) for idx, s in zip(found, matrices))


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
    owner = np.empty(d, dtype=int)
    place = np.empty(d, dtype=int)
    for number, idx in enumerate(groups):
        owner[idx] = number
        place[idx] = np.arange(len(idx))
    chosen = owner[indices]
    for number in np.unique(chosen):
        rows = np.flatnonzero(chosen == number)
        yield int(number), rows, place[indices[rows]]


def unitary_from_blocks(blocks: tuple[HermitianBlock, ...], t: float,
                        indices=None) -> np.ndarray:
    """exp(-i h t) assembled from the eigendecomposed coupled blocks of h.

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
    return unitary_from_blocks(_decompose_blocks(*_dense_blocks(_as_square(h))), t)


def _refined_left(a: np.ndarray, value: complex, left: np.ndarray) -> np.ndarray:
    """``left`` after one inverse-iteration step on (a - value 1)†, in no
    particular gauge.

    Below a defective eigenvalue, R† Y = E_k is solved against a nearly
    singular R, and the error lands along that eigenvalue's left vector.
    One solve magnifies the component along value's own left vector by
    1 / |value - exact value|, which rounding makes tiny, and every other
    component only by the inverse distance to its eigenvalue, so the error
    is divided out (Golub & Van Loan, *Matrix Computations*, §7.6).
    When a - value 1 is exactly singular the solve cannot be made, and
    ``left`` is kept as it is; for a diagonal a, the usual case, R is a
    permutation and ``left`` already exact. It is kept too when the solve
    overflows to a non-finite vector, as it can for an a near underflow.
    """
    shifted = (a - value * np.eye(a.shape[0])).conj().T
    try:
        refined = np.linalg.solve(shifted, left)
    except np.linalg.LinAlgError:
        return left
    return refined if np.isfinite(refined).all() else left


def _ranked_pairs(a: np.ndarray, k: int):
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
        if residual > DEFAULT_TOL:
            return pairs, NoConvergence(
                f"residual {residual:.3e} above tolerance {DEFAULT_TOL:.1e}", residual
            )
        left = _refined_left(a, value, left)
        left = left / np.conj(np.vdot(left, right))
        pairs.append(EigenPair(value=value, right=right, left=left, residual=residual))
    return pairs, None


def top_k_eigenpairs(m, k: int) -> TopKResult:
    """Top k eigenpairs by descending magnitude, from one LAPACK ``eig``.

    Every returned pair satisfies the EigenPair contract for m, with
    residual at most DEFAULT_TOL (1e-10). Pairs are taken in order until the
    first refused one: a relative magnitude gap to the next eigenvalue at or
    below TIE_GAP (1e-6), so that the pair is not unique, a unit left/right
    overlap below MIN_OVERLAP (1e-8), so that it is near-defective, or a
    residual above DEFAULT_TOL. The result is then ``truncated`` and holds
    only the pairs before it; no exception is raised. The refusal itself,
    with the measured gap, overlap or residual, is what ``_ranked_pairs``
    returns beside the pairs.
    """
    pairs, refusal = _ranked_pairs(_as_square(m), k)
    return TopKResult(pairs=tuple(pairs), truncated=refusal is not None)
