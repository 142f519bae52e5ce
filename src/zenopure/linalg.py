"""Complex linear algebra for contraction spectra.

Hermitian eigendecomposition, unitary exponentials, and ranked eigenpair
extraction for the non-Hermitian contractions that repeated-measurement
propagators produce. Arrays are dense complex128, but a Hermitian matrix
is never diagonalized whole when it need not be: the connected components
of its nonzero pattern are independent diagonal blocks, each
eigendecomposed on its own, and exp(-iHt) is assembled from them block by
block (``_unitary``). A conserved quantity such as a total excitation
number therefore turns one D x D problem into many small ones; a fully
coupled matrix is a single block and is decomposed as it stands.

The blocks are held as one stack per block size (``BlockStack``): an
m x n x n array of the m blocks of size n and their m x n index sets. A
dense matrix is searched once for its blocks (``_coupled_blocks``) and
they are cut out of it a stack at a time (``_dense_stacks``); a builder
that knows its blocks hands its stacks over as they are. Either way
``_checked_stacks`` tests the stacks once: finiteness, that their index
sets partition the matrix, and the symmetry bound ||m - m†||_F <= 1e-9
||m||_F summed over them (``_check_hermitian``, the one place that raises
NotHermitian). They are then decomposed without testing them again, with
one ``numpy.linalg.eigh`` per stack (``_decompose_blocks``), which returns
for each block the bits that a call on that block alone returns. A matrix
that is one block is stacked as a view of it, never a copy.
``unitary_exponential`` does both for a raw matrix;
``engine.BipartiteSystem`` checks its stacks when it is built, keeps them,
and decomposes them on first use.

A block that is exactly zero outside its three diagonals, as every block
of size 2 or less is and every excitation block of the oscillator is, is
solved through its real symmetric twin T = D† B D (``_hermitian_eigh``),
where B is the block's Hermitian part and D the unitary diagonal whose
entries are the running product of the phases of B's sub-diagonal: T
holds B's diagonal and the moduli of its sub-diagonal, one real ``eigh``
gives T's eigenvalues, which are B's, and eigenvectors Q', and the
eigenvectors of B come back as D Q'. A builder that knows its blocks
tridiagonal hands their twins over with them (``BlockStack.twin``), made
with the same arithmetic, so they are not tested; any other stack is
tested when it is solved, a dense block by its first row and column
alone, and every block that is not tridiagonal goes to the complex
``eigh``. Every solve, real or complex, is made in ``_eigh``.

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
    "BlockStack",
    "EigenPair",
    "TopKResult",
    "hermitian_eigendecompose",
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
class BlockStack:
    """The diagonal blocks of one size n of a matrix that is zero outside
    its blocks, held as one array.

    Row k of ``indices`` (m x n) holds block k's rows (and columns) of the
    whole matrix, ascending, and ``matrices`` is the m x n x n stack of the
    blocks themselves. ``numbers`` are the blocks' places among all blocks
    of the matrix, which are ordered by their smallest index: the order of
    the columns of ``engine.contract_probe``'s W.

    ``twin`` is None, or the blocks' real symmetric twins made by their
    builder, who knows them tridiagonal and exactly Hermitian: the
    m x n x n float64 stack T = D† B D of the blocks B and the m x n
    diagonals of the unitary diagonal D (see ``_hermitian_eigh``), so that
    the blocks' eigenvectors are D Q' for the eigenvectors Q' of T. Without
    it a stack is tested for the band, and its twins made, when it is
    solved.
    """

    numbers: np.ndarray
    indices: np.ndarray
    matrices: np.ndarray
    twin: tuple[np.ndarray, np.ndarray] | None = None


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


def _same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Whether the arrays x and y, of one shape and dtype, hold the same
    bits. They are compared as bytes, _COMPARE_BYTES of matrix rows at a
    time, so that a large array is never copied whole."""
    if x.nbytes <= _COMPARE_BYTES:
        # One run: the loop would add about a microsecond to each of the
        # many small stacks of a conserved-quantity matrix.
        return x.tobytes() == y.tobytes()
    x, y = x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])
    rows = max(1, _COMPARE_BYTES // x[0].nbytes)
    return all(x[i:i + rows].tobytes() == y[i:i + rows].tobytes()
               for i in range(0, len(x), rows))


def _adjoint(a: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eigh`` of the Hermitian matrix, or stack of them, a:
    every solve of the package's Hermitian blocks is made here."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"Hermitian eigendecomposition failed: {exc}") from exc


def _tridiagonal(a: np.ndarray) -> np.ndarray:
    """Whether each matrix of the stack a (or the matrix a, as a 0-d array)
    is exactly zero outside its three diagonals. Every matrix of size 2 or
    less is; a dense one is refused by its first row and column alone."""
    n = a.shape[-1]
    if n <= 2:
        return np.ones(a.shape[:-2], dtype=bool)
    stack = a.reshape(-1, n, n)
    banded = ~(stack[:, 0, 2:].any(axis=1) | stack[:, 2:, 0].any(axis=1))
    if banded.any():
        rest = stack[banded]
        inside = sum(np.count_nonzero(rest.diagonal(k, 1, 2), axis=1) for k in (-1, 0, 1))
        banded[banded] = np.count_nonzero(rest, axis=(1, 2)) == inside
    return banded.reshape(a.shape[:-2])


def _twin_links(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real twin's off-diagonal |sub| and the unit phases sub / |sub|,
    1 where sub = 0, entry by entry, of the sub-diagonal entries ``sub`` of
    Hermitian tridiagonal matrices. A non-finite entry, which the checks
    refuse before any solve, gets a nan phase without a warning."""
    off = np.abs(sub)
    links = np.ones_like(sub)
    with np.errstate(invalid="ignore"):
        np.divide(sub, off, out=links, where=off != 0)
    return off, links


def _running_phases(links: np.ndarray) -> np.ndarray:
    """The diagonals of D, one row per row of ``links`` (... x (n - 1)):
    the running products 1, u_0, u_0 u_1, ... of the row's phases."""
    ones = np.ones(links.shape[:-1] + (1,), dtype=complex)
    return np.cumprod(np.concatenate([ones, links], axis=-1), axis=-1)


def _tridiagonal_twin(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The real symmetric twin T = D† ((a + a†) / 2) D of each matrix of the
    stack a, exactly zero outside its three diagonals, and D's diagonals.

    D is the running product of the unit phases of the Hermitian part's
    sub-diagonal, so T holds that part's real diagonal and the moduli of
    its sub-diagonal, on both off-diagonals, and is m x n x n float64.
    """
    diagonal = a.diagonal(0, -2, -1)
    diagonal = ((diagonal + diagonal.conj()) / 2).real
    sub = (a.diagonal(-1, -2, -1) + a.diagonal(1, -2, -1).conj()) / 2
    off, links = _twin_links(sub)
    n = a.shape[-1]
    twin = np.zeros(a.shape)
    steps = np.arange(n)
    twin[..., steps, steps] = diagonal
    twin[..., steps[1:], steps[:-1]] = twin[..., steps[:-1], steps[1:]] = off
    return twin, _running_phases(links)


def _hermitian_eigh(a: np.ndarray, twin=None) -> tuple[np.ndarray, np.ndarray]:
    """The eigendecomposition of the Hermitian part (a + a†) / 2 of the
    matrix, or stack of them, a.

    A tridiagonal a (``_tridiagonal``; every block of size 2 or less) is
    solved through its real symmetric twin T = D† ((a + a†) / 2) D
    (``_tridiagonal_twin``): one real ``numpy.linalg.eigh`` gives T's
    eigenvalues, which are the Hermitian part's, and eigenvectors Q', and
    D Q' are the Hermitian part's eigenvectors. ``twin``, when given, is
    that (T, D's diagonals) pair made by the caller with the same
    arithmetic, and a is then not tested.

    Any other a is handed to the complex ``numpy.linalg.eigh``. When its
    Hermitian part equals it bit for bit (an exactly Hermitian a does,
    unless the sign of a zero or an overflowing sum sets them apart), a
    itself is handed over and the copy is dropped first, so a large block
    is not held twice through the solve; the result is the same either
    way. Equal values would not do: LAPACK's Householder step takes the
    sign of a zero, so a zero of the other sign can change every bit of
    the result.
    """
    if twin is None:
        banded = _tridiagonal(a)
        if banded.all():
            twin = _tridiagonal_twin(a)
        elif banded.any():
            # Twins for the banded blocks of the stack, the complex route for
            # the rest: each block gets the bits it gets alone.
            values = np.empty(a.shape[:-1])
            vectors = np.empty_like(a)
            for part in (banded, ~banded):
                values[part], vectors[part] = _hermitian_eigh(a[part])
            return values, vectors
    if twin is not None:
        t, phases = twin
        values, vectors = _eigh(t)
        return values, phases[..., :, None] * vectors
    sym = a + _adjoint(a)
    sym /= 2
    if _same_bits(sym, a):
        sym = a
    return _eigh(sym)


def hermitian_eigendecompose(m) -> HermitianBlock:
    """Eigendecompose a Hermitian matrix into ascending eigenvalues.

    The result is the matrix as one block, on the indices arange(n). A
    system's blocks are solved a stack at a time instead
    (``_decompose_blocks``), each to the bits this gives it alone.

    m must be finite and pass the symmetry check ||m - m†||_F <= 1e-9
    ||m||_F; anything beyond truncation-arithmetic noise is rejected.

    The Hermitian part (m + m†) / 2 is what is decomposed:
    through its real symmetric twin when m is tridiagonal, as every m of
    size 2 or less is, with the eigenvectors returned as D Q' (see
    ``_hermitian_eigh``), and otherwise by the complex ``eigh``, which is
    handed m itself (the caller's own array, if it is complex128) when the
    two hold the same bits.

    Raises
    ------
    NotHermitian
        if the symmetry check fails.
    NoConvergence
        if the underlying iteration fails to converge.
    """
    a = _as_square(m)
    _check_hermitian([a])
    return HermitianBlock(np.arange(a.shape[0]), *_hermitian_eigh(a))


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


def _checked_stacks(d: int, stacks) -> tuple[BlockStack, ...]:
    """The diagonal blocks of a d x d matrix that is zero outside them, as
    ``BlockStack``s, once they are found sound.

    ``stacks`` are (indices, matrices) pairs of one block size each:
    indices m x n integers, each row ascending, and matrices the m x n x n
    stack of the blocks, kept as given. A third item, the stack's
    ``BlockStack.twin``, is kept as given too.
    Each stack is checked to be finite, the index sets to partition
    range(d), and the symmetry bound to hold summed over all blocks
    (``_check_hermitian``). The blocks are numbered by their smallest index.
    """
    twins = [twin for _, _, *twin in stacks]
    stacks = [(np.asarray(idx, dtype=np.intp), m) for idx, m, *_ in stacks]
    for _, m in stacks:
        if not np.isfinite(m).all():
            raise ValueError("hamiltonian contains non-finite entries")
    every = np.concatenate([np.empty(0, dtype=np.intp)] + [idx.ravel() for idx, _ in stacks])
    if every.size and (every.min() < 0 or every.max() >= d):
        raise ValueError(f"block indices must lie in range({d})")
    counts = np.bincount(every, minlength=d)
    if (counts != 1).any():
        raise ValueError(
            f"block indices must partition range({d}): "
            f"{np.count_nonzero(counts == 0)} missing, "
            f"{np.count_nonzero(counts > 1)} repeated"
        )
    _check_hermitian([m for _, m in stacks])
    firsts = np.concatenate([idx[:, 0] for idx, _ in stacks])
    numbers = np.empty(len(firsts), dtype=np.intp)
    numbers[np.argsort(firsts)] = np.arange(len(firsts))
    ends = np.cumsum([len(idx) for idx, _ in stacks])
    return tuple(BlockStack(part, idx, m, *twin) for part, (idx, m), twin
                 in zip(np.split(numbers, ends[:-1]), stacks, twins))


def _check_hermitian(matrices) -> None:
    """Raise NotHermitian unless the symmetry bound ||a - a†||_F <= 1e-9
    ||a||_F holds for the matrix a that is zero outside the diagonal blocks
    ``matrices`` (finite matrices or stacks of them).

    a - a† is zero outside the blocks too, so the root sums of squares over
    the blocks are the whole matrix's norms. The squares overflow once
    entries pass about 1e154; the sums are then taken again of the blocks
    divided by their largest entry, which leaves the bound as it is. This is
    the one place that raises NotHermitian.
    """
    unit = 1.0
    with np.errstate(over="ignore"):
        dev, scale = _square_sums(matrices)
    if not (np.isfinite(dev) and np.isfinite(scale)):
        unit = max(float(np.abs(s).max()) for s in matrices)
        dev, scale = _square_sums([s / unit for s in matrices])
    dev, scale = float(np.sqrt(dev)), float(np.sqrt(scale))
    if dev > 1e-9 * max(scale, _UNDERFLOW):
        raise NotHermitian(f"hamiltonian is not Hermitian (deviation {dev * unit:.3e})")


def _square_sums(matrices) -> tuple[float, float]:
    """The sums over ``matrices`` of ||s - s†||_F² and of ||s||_F²."""
    dev = scale = 0.0
    for s in matrices:
        asymmetry = s - _adjoint(s)
        dev += np.vdot(asymmetry, asymmetry).real
        scale += np.vdot(s, s).real
    return dev, scale


def _dense_stacks(m: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The coupled blocks of the square, finite matrix m, the index sets
    ``_coupled_blocks`` finds, cut out of m one stack per size, for
    ``_checked_stacks``. A matrix that is one block is stacked as a view of
    it, not a copy."""
    found = _coupled_blocks(m)
    if len(found) == 1:
        return [(found[0][None], m[None])]
    sizes = np.array([len(idx) for idx in found])
    stacks = []
    for n in np.unique(sizes):
        idx = np.array([found[k] for k in np.flatnonzero(sizes == n)])
        stacks.append((idx, m[idx[:, :, None], idx[:, None, :]]))
    return stacks


def _decompose_blocks(stacks) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The eigenvalues (m x n) and eigenvectors (m x n x n) of each of the
    ``BlockStack``s ``stacks``, checked by ``_checked_stacks``: one
    ``numpy.linalg.eigh`` per stack, of its Hermitian part, or of its real
    twins when the blocks are tridiagonal (``_hermitian_eigh``).

    Every block is finite and their summed asymmetry within the bound, so
    none is tested again. ``eigh`` solves a stack one matrix at a time, so
    each block gets the bits ``hermitian_eigendecompose`` gives it alone.
    """
    return tuple(_hermitian_eigh(stack.matrices, stack.twin) for stack in stacks)


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


def _unitary(stacks, decomposed, t: float, indices=None) -> np.ndarray:
    """exp(-i h t) for the matrix h that is zero outside the blocks of the
    ``BlockStack``s ``stacks``, from their ``_decompose_blocks``.

    Each block contributes Q diag(exp(-i E t)) Q† on its own indices; every
    entry between two different blocks is zero. With ``indices`` only
    u[np.ix_(indices, indices)] is returned, entry for entry as the whole
    matrix holds it, without forming the whole matrix; blocks holding none
    of the indices are skipped.
    """
    groups = [idx for stack in stacks for idx in stack.indices]
    solved = [block for values, vectors in decomposed for block in zip(values, vectors)]
    d = sum(len(idx) for idx in groups)
    if indices is None:
        indices = np.arange(d)
    u = np.zeros((len(indices), len(indices)), dtype=complex)
    for number, rows, local in _block_selection(groups, d, indices):
        values, q = solved[number]
        phases = np.exp(-1j * values * float(t))
        u[np.ix_(rows, rows)] = ((q * phases) @ q.conj().T)[np.ix_(local, local)]
    return u


def unitary_exponential(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via the block spectral decomposition.

    Returns Q diag(exp(-i E t)) Q† block by block, unitary up to rounding.
    """
    a = _as_square(h)
    stacks = _checked_stacks(len(a), _dense_stacks(a))
    return _unitary(stacks, _decompose_blocks(stacks), t)


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
