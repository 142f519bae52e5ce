"""Repeated-confirmation dynamics on a bipartite system.

A probe A coupled to a system B evolves under exp(-iHt); confirming the
probe in its initial state |phi> at interval tau compresses the dynamics of
B into the projected propagator V[i,j] = <phi| exp(-iH tau) |phi>[i,j], a
contraction on B alone. Iterating the confirmation drives B toward the
dominant right-eigenvector of V while the cumulative success probability
(the yield) decays like |lambda0|^(2N). This module builds V, runs the
conditional trajectory, and certifies the two efficiency conditions
(|lambda0| close to 1, small magnitude gap ratio |lambda1/lambda0|).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    HermitianBlock,
    TopKResult,
    _blocks_of,
    _checked_stacks,
    _decompose_blocks,
    _dense_stacks,
    _in_block_order,
    top_k_eigenpairs,
)

__all__ = [
    "ExtinctBranch",
    "BipartiteSystem",
    "ProbeState",
    "ProjectedPropagator",
    "DensityMatrix",
    "TrajectoryStep",
    "PurificationTrajectory",
    "ConditionsReport",
    "ZenoScanPoint",
    "ProbeContraction",
    "contract_probe",
    "build_projected_propagator",
    "evolve_step",
    "run_purification",
    "fidelity",
    "trace_distance",
    "spectral_report",
    "zeno_limit_scan",
]

#: Conditional probabilities below this are treated as a dead measurement
#: branch: the confirmation outcome essentially never occurs.
EXTINCT_THRESHOLD = 1e-14

#: Entries of W that ``contract_probe`` sums with one ``np.add.at`` at
#: most. A stack of blocks up to this size takes one call; a larger one is
#: summed a range of columns at a time, so that its index and value arrays
#: stay small beside the eigenvectors.
_ADD_AT_ENTRIES = 1 << 16

#: Eigenpairs of V solved for, the most any output reads: the spectrum
#: command's closed-form table and compare's geometric check.
SPECTRUM_PAIRS = 5


class ExtinctBranch(RuntimeError):
    """The confirmation success probability fell below threshold."""

    def __init__(self, probability: float):
        super().__init__(
            f"success branch extinct: conditional probability {probability:.3e}"
        )
        self.probability = float(probability)


class BipartiteSystem:
    """Dimensions of the two factors plus the joint Hamiltonian, held as its
    coupled blocks, one stack per block size.

    The composite basis index is a_index * dim_b + b_index (A-major), and the
    Hamiltonian is stored pre-summed; no split into free and interaction
    parts is needed by any algorithm here.

    A system is built from the dense H, ``BipartiteSystem(dim_a, dim_b,
    hamiltonian)``, whose nonzero pattern ``linalg._coupled_blocks``
    searches once for the coupled blocks (its connected components), or
    from blocks the caller already knows, ``BipartiteSystem.from_blocks``,
    which takes them as they are given and never forms a D x D array.
    Either way the blocks are grouped by size into ``stacks``
    (``linalg.BlockStack``: each size's m x n index sets, each ascending,
    and its m x n x n matrices), and the one stack constructor,
    ``_from_stacks``, checks them once, when the system is built:
    finiteness, that the index sets partition the basis, and the symmetry
    bound ||H - H†||_F <= 1e-9 ||H||_F summed over them, raising
    ``linalg.NotHermitian`` past it. The system owns those stacks:
    ``blocks`` eigendecomposes them on first use, one ``numpy.linalg.eigh``
    per stack, and every propagator of the system is built from that one
    decomposition. A one-block H is kept as given, not copied.

    The per-block views ``block_indices`` and ``block_matrices`` (and
    ``blocks``) list the blocks ordered by their smallest index.
    ``hamiltonian`` is the dense H. Given to the constructor, it is that
    matrix; a block-built system assembles it from its stacks only when it
    is first read. Systems are immutable.
    """

    def __init__(self, dim_a: int, dim_b: int, hamiltonian):
        h = np.asarray(hamiltonian, dtype=complex)
        d = dim_a * dim_b
        if dim_a < 1 or dim_b < 1:
            raise ValueError("dimensions must be positive")
        if h.shape != (d, d):
            raise ValueError(f"hamiltonian must be {d}x{d}, got {h.shape}")
        if not np.isfinite(h).all():
            raise ValueError("hamiltonian contains non-finite entries")
        self._own_stacks(dim_a, dim_b, _dense_stacks(h))
        vars(self)["hamiltonian"] = h

    @classmethod
    def _from_stacks(cls, dim_a: int, dim_b: int, stacks) -> BipartiteSystem:
        """The system whose H holds the blocks of ``stacks`` and is zero
        elsewhere, with those blocks as its coupled blocks.

        ``stacks`` are (indices, matrices) pairs, one per block size n: the
        m x n integer index sets, each row ascending, and the m x n x n
        complex stack of H on them, or a lone block's n x n matrix, which is
        kept as given. They are checked as ``linalg._checked_stacks`` says.
        """
        if dim_a < 1 or dim_b < 1:
            raise ValueError("dimensions must be positive")
        system = cls.__new__(cls)
        system._own_stacks(dim_a, dim_b, stacks)
        return system

    @classmethod
    def from_blocks(cls, dim_a: int, dim_b: int, blocks) -> BipartiteSystem:
        """The system whose H holds each of ``blocks`` and is zero elsewhere,
        with those blocks as its coupled blocks.

        ``blocks`` are (indices, matrix) pairs: the index sets partition
        range(dim_a * dim_b), and each matrix is H on its indices, rows and
        columns in the order the indices are given. Each block's shape is
        checked, then finiteness, the partition and the symmetry bound, with
        the messages of the dense constructor. A block is not searched or
        split, even where its own pattern falls apart; its indices are
        sorted ascending (its matrix reordered with them), an empty block
        is dropped, and the blocks are stacked by size. A block alone in
        its size and given in that order already is kept as given, not
        copied.
        """
        if dim_a < 1 or dim_b < 1:
            raise ValueError("dimensions must be positive")
        sizes = {}
        for number, (idx, m) in enumerate(blocks):
            idx = np.asarray(idx)
            m = np.asarray(m, dtype=complex)
            # np.asarray([]) is float64: an empty block passes whatever its dtype.
            if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
                raise ValueError(f"block {number} indices must be a 1-d integer sequence")
            if m.shape != (len(idx), len(idx)):
                raise ValueError(
                    f"hamiltonian block {number} must be {len(idx)}x{len(idx)}, got {m.shape}"
                )
            if (idx[1:] < idx[:-1]).any():
                order = np.argsort(idx)
                idx, m = idx[order], m[np.ix_(order, order)]
            if len(idx):
                sizes.setdefault(len(idx), []).append((idx, m))
        stacks = [(parts[0][0][None], parts[0][1]) if len(parts) == 1
                  else (np.array([idx for idx, _ in parts]), np.array([m for _, m in parts]))
                  for parts in sizes.values()]
        return cls._from_stacks(dim_a, dim_b, stacks)

    def _own_stacks(self, dim_a: int, dim_b: int, stacks) -> None:
        vars(self).update(dim_a=dim_a, dim_b=dim_b,
                          stacks=_checked_stacks(dim_a * dim_b, stacks))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return (f"BipartiteSystem(dim_a={self.dim_a}, dim_b={self.dim_b}, "
                f"blocks={sum(len(stack.numbers) for stack in self.stacks)})")

    @cached_property
    def block_indices(self) -> tuple[np.ndarray, ...]:
        """Each coupled block's indices, ascending, as views into the stacks."""
        return _in_block_order(self.stacks, [stack.indices for stack in self.stacks])

    @cached_property
    def block_matrices(self) -> tuple[np.ndarray, ...]:
        """Each coupled block's matrix, as views into the stacks; a lone
        block kept as given is that matrix itself."""
        return _in_block_order(self.stacks, [stack.matrices if stack.matrices.ndim == 3
                                             else [stack.matrices] for stack in self.stacks])

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """The dense D x D H, assembled from the stacks when first read."""
        d = self.dim_a * self.dim_b
        h = np.zeros((d, d), dtype=complex)
        for stack in self.stacks:
            h[stack.indices[:, :, None], stack.indices[:, None, :]] = stack.matrices
        return h

    @cached_property
    def _decomposed(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Each stack's eigenvalues and eigenvectors, solved on first use."""
        return _decompose_blocks(self.stacks)

    @cached_property
    def blocks(self) -> tuple[HermitianBlock, ...]:
        """The eigendecomposition of H, one coupled block at a time, as views
        into the stacked solutions."""
        return _blocks_of(self.stacks, self._decomposed)


@dataclass(frozen=True)
class ProbeState:
    """Pure state of the probe factor A, unit-normalized."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(v).all():
            raise ValueError("probe amplitudes contain non-finite entries")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"probe state norm is {float(norm)}, expected 1")
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class ProjectedPropagator:
    """The contraction <phi| exp(-iH tau) |phi> acting on system B."""

    matrix: np.ndarray
    tau: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"propagator must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("propagator contains non-finite entries")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        smax = np.linalg.norm(m, ord=2)
        if smax > 1 + 1e-9:
            raise ValueError(
                f"largest singular value {float(smax)} exceeds 1: not a contraction"
            )
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigenpairs(self) -> TopKResult:
        """The top min(SPECTRUM_PAIRS, dim) eigenpairs of V, solved on first use."""
        return top_k_eigenpairs(self.matrix, min(SPECTRUM_PAIRS, self.dim))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state of system B."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"state must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("state contains non-finite entries")
        if np.linalg.norm(m - m.conj().T) > 1e-10:
            raise ValueError("state is not Hermitian")
        _check_unit_trace(m)
        lo = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
        if lo < -1e-9:
            raise ValueError(f"state has negative eigenvalue {float(lo)}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _check_unit_trace(m: np.ndarray) -> None:
    tr = np.trace(m).real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"state trace is {float(tr)}, expected 1")


@dataclass(frozen=True)
class TrajectoryStep:
    """One record of the conditional evolution.

    n = 0 is the initial state (conditional probability 1 by convention).
    The fidelity to a target state is ``fidelity(step.state, target)``.
    """

    n: int
    conditional_probability: float
    cumulative_yield: float
    purity: float
    state: DensityMatrix


@dataclass(frozen=True)
class PurificationTrajectory:
    """Sequence of TrajectoryStep records, n = 0 .. n_max.

    ``truncated`` marks an early stop on an extinct branch.
    """

    steps: tuple[TrajectoryStep, ...]
    truncated: bool


@dataclass(frozen=True)
class ConditionsReport:
    """Spectral certificate for efficient purification.

    condition I: |lambda0| within epsilon of 1, so the yield does not decay.
    condition II: small |lambda1/lambda0| (``gap_ratio``), so convergence is
    fast. When the top-two magnitude structure cannot be certified (no gap),
    ``degenerate`` is set, the optional fields are None and both condition
    flags are off; degeneracy is data, not an error. The eigenpairs the
    report reads are ``v.eigenpairs.pairs``.
    """

    lambda0: complex | None
    lambda1: complex | None
    gap_ratio: float | None
    yield_plateau_coefficient: float | None
    condition_i_met: bool
    degenerate: bool


@dataclass(frozen=True)
class ZenoScanPoint:
    """One point of the measurement-splitting scan at fixed total time."""

    n: int
    tau: float
    yield_probability: float
    unitarity_defect: float


@dataclass(frozen=True)
class ProbeContraction:
    """The probe-contracted eigenbasis of H, from which V follows at any tau.

    ``rows`` is W = (phi† ⊗ 1) Q, a dim_b x D matrix whose columns are the
    eigenvectors of H contracted with the probe state, and ``energies`` the
    matching eigenvalues E, so that V(tau) = W diag(exp(-i E tau)) W†.
    """

    rows: np.ndarray
    energies: np.ndarray

    @cached_property
    def _rows_adjoint(self) -> np.ndarray:
        # W† is formed once for every tau. A fresh W-sized temporary per call
        # is mapped and faulted in anew whenever it exceeds the allocator's
        # threshold for mapping memory; at cutoff 30 that made each product
        # for V about 2.5 times slower.
        return self.rows.conj().T

    def propagator(self, tau: float) -> ProjectedPropagator:
        """The projected propagator V(tau); a non-finite tau is refused first."""
        if not np.isfinite(tau):
            raise ValueError("propagator contains non-finite entries")
        v = (self.rows * np.exp(-1j * self.energies * float(tau))) @ self._rows_adjoint
        return ProjectedPropagator(matrix=v, tau=float(tau))


def _check_probe(sys: BipartiteSystem, phi: ProbeState) -> None:
    if phi.dim != sys.dim_a:
        raise ValueError(
            f"probe dimension {phi.dim} does not match dim_a {sys.dim_a}"
        )


def contract_probe(sys: BipartiteSystem, phi: ProbeState) -> ProbeContraction:
    """Contract the eigenvectors of H with the probe state, a stack at a time.

    The eigenvectors are those of ``sys.blocks``. A block eigenvector q on
    composite indices a*dim_b + i contributes conj(phi_a) q[a*dim_b + i] to
    entry i of its column of W. Each block's columns follow those of the
    blocks before it, and each stack's contributions are summed into W by
    one ``np.add.at`` (a range of columns at a time past _ADD_AT_ENTRIES),
    in the order a block-by-block sum takes them, so that W holds the same
    bits.
    """
    _check_probe(sys, phi)
    conj_phi = phi.amplitudes.conj()
    d = sys.dim_a * sys.dim_b
    sizes = _in_block_order(sys.stacks, [[stack.indices.shape[1]] * len(stack.numbers)
                                         for stack in sys.stacks])
    starts = np.cumsum((0,) + sizes[:-1])
    rows = np.zeros(sys.dim_b * d, dtype=complex)
    energies = np.empty(d)
    for stack, (values, vectors) in zip(sys.stacks, sys._decomposed):
        probe_index, b_index = np.divmod(stack.indices, sys.dim_b)
        m, n = stack.indices.shape
        columns = starts[stack.numbers, None] + np.arange(n)
        energies[columns] = values
        weights = conj_phi[probe_index, None]
        # Entry (b, column) of W is entry b * d + column of the flat rows.
        # Each column's contributions are summed in one call, so a column
        # range at a time keeps their order.
        step = max(1, _ADD_AT_ENTRIES // (m * n))
        for first in range(0, n, step):
            part = slice(first, first + step)
            np.add.at(rows, (b_index[:, :, None] * d + columns[:, None, part]).ravel(),
                      (weights * vectors[:, :, part]).ravel())
    return ProbeContraction(rows=rows.reshape(sys.dim_b, d), energies=energies)


def build_projected_propagator(sys: BipartiteSystem, phi: ProbeState,
                               tau: float) -> ProjectedPropagator:
    """Contract exp(-iH tau) with the probe state on both sides.

    result[i, j] = sum_{k,l} conj(phi_k) U[k*d_b + i, l*d_b + j] phi_l with
    U = exp(-iH tau), evaluated as W diag(exp(-i E tau)) W† from the
    system's block eigendecomposition of H (see ``contract_probe``); U is
    never formed.
    """
    return contract_probe(sys, phi).propagator(tau)


def evolve_step(rho: DensityMatrix, v: ProjectedPropagator) -> tuple[DensityMatrix, float]:
    """One confirmed measurement: rho -> V rho V† / p with p = tr(V rho V†).

    Returns the renormalized post-measurement state and the conditional
    success probability p. The state is divided by p as computed, so its
    trace is 1; the p returned is clipped to 1, which it can pass when a
    singular value of V lies just above 1 (``ProjectedPropagator`` accepts
    up to 1 + 1e-9). Raises ExtinctBranch when p falls below
    EXTINCT_THRESHOLD (1e-14), meaning the confirmation outcome never occurs
    and the conditional state is undefined.
    """
    if rho.dim != v.dim:
        raise ValueError(f"state dim {rho.dim} does not match propagator dim {v.dim}")
    m = v.matrix
    out = m @ rho.matrix @ m.conj().T
    p = float(np.trace(out).real)
    if p < EXTINCT_THRESHOLD:
        raise ExtinctBranch(p)
    out = (out + out.conj().T) / (2 * p)
    return _made_state(out), min(p, 1.0)


def _made_state(m: np.ndarray) -> DensityMatrix:
    """``evolve_step``'s state (out + out†) / 2p with out = V rho V† and
    p = tr(out), checked for its trace only: it is Hermitian and positive by
    construction."""
    _check_unit_trace(m)
    state = object.__new__(DensityMatrix)
    object.__setattr__(state, "matrix", m)
    return state


def fidelity(rho: DensityMatrix, pure: np.ndarray) -> float:
    """Overlap <pure| rho |pure> with a unit-norm pure state."""
    vec = np.asarray(pure, dtype=complex).reshape(-1)
    if vec.shape[0] != rho.dim:
        raise ValueError(f"vector dim {vec.shape[0]} does not match state dim {rho.dim}")
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise ValueError("target state must be unit-norm")
    val = float(np.vdot(vec, rho.matrix @ vec).real)
    return min(max(val, 0.0), 1.0)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of absolute eigenvalues of (rho - sigma)."""
    diff = rho.matrix - sigma.matrix
    diff = (diff + diff.conj().T) / 2
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def run_purification(rho0: DensityMatrix, v: ProjectedPropagator,
                     n_max: int) -> PurificationTrajectory:
    """Iterate confirmed measurements for n_max steps from rho0.

    Records, for every n in 0..n_max, the conditional success probability,
    the cumulative yield (their running product), the purity and the
    state. Stops early with ``truncated`` set when the branch goes extinct.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    steps = [_record(0, 1.0, 1.0, rho0)]
    state = rho0
    cumulative = 1.0
    truncated = False
    for n in range(1, n_max + 1):
        try:
            state, p = evolve_step(state, v)
        except ExtinctBranch:
            truncated = True
            break
        cumulative *= p
        steps.append(_record(n, p, cumulative, state))
    return PurificationTrajectory(steps=tuple(steps), truncated=truncated)


def _record(n: int, p: float, cumulative: float, state: DensityMatrix) -> TrajectoryStep:
    purity = float(np.trace(state.matrix @ state.matrix).real)
    return TrajectoryStep(
        n=n,
        conditional_probability=p,
        cumulative_yield=cumulative,
        purity=min(max(purity, 0.0), 1.0),
        state=state,
    )


def spectral_report(v: ProjectedPropagator, rho0: DensityMatrix,
                    epsilon: float = 1e-6) -> ConditionsReport:
    """Certify the purification conditions from the top two eigenvalues of
    ``v.eigenpairs``.

    yield_plateau_coefficient is <v0| rho0 |v0> in the gauge ||u0|| = 1,
    <v0|u0> = 1: the asymptotic value of yield / |lambda0|^(2N).
    """
    pairs = v.eigenpairs.pairs
    degenerate = len(pairs) < min(2, v.dim)
    lambda0 = pairs[0].value if len(pairs) >= 1 else None
    lambda1 = pairs[1].value if len(pairs) >= 2 else None
    plateau = None
    if pairs:
        v0 = pairs[0].left
        plateau = float(np.vdot(v0, rho0.matrix @ v0).real)
    gap = None
    if lambda0 is not None and lambda1 is not None and abs(lambda0) > 0:
        gap = abs(lambda1) / abs(lambda0)
    return ConditionsReport(
        lambda0=lambda0,
        lambda1=lambda1,
        gap_ratio=gap,
        yield_plateau_coefficient=plateau,
        condition_i_met=(not degenerate and lambda0 is not None
                         and abs(abs(lambda0) - 1.0) <= epsilon),
        degenerate=degenerate,
    )


def zeno_limit_scan(sys: BipartiteSystem, phi: ProbeState, rho0: DensityMatrix,
                    total_time: float, n_values, jobs: int = 1) -> list[ZenoScanPoint]:
    """Split a fixed total time into n confirmations and scan n.

    The system's one block decomposition of H serves the whole scan. For
    each n the propagator V(total_time / n) then costs one small matrix
    product, W = V^n is formed, and the scan records the n-step yield
    tr(W rho0 W†), the probability that all n confirmations succeed, clipped
    to [0, 1], together with the unitarity defect ||W†W - 1||_F of the same
    W. As n grows the repeated projection freezes the leakage out of the
    probe state and W approaches a unitary on B (the frequent-measurement
    limit).

    Points are independent; ``jobs`` > 1 evaluates them in a thread pool.
    Results are returned in input order regardless of scheduling. A probe,
    and then a state, of the wrong dimension is refused before H is
    decomposed.
    """
    if total_time <= 0:
        raise ValueError("total_time must be positive")
    n_list = [int(n) for n in n_values]
    if not n_list or any(n < 1 for n in n_list):
        raise ValueError("n_values must be a nonempty sequence of integers >= 1")
    _check_probe(sys, phi)
    if rho0.dim != sys.dim_b:
        raise ValueError(
            f"state dimension {rho0.dim} does not match dim_b {sys.dim_b}"
        )
    contraction = contract_probe(sys, phi)
    eye = np.eye(sys.dim_b)

    def point(n: int) -> ZenoScanPoint:
        tau = total_time / n
        w = np.linalg.matrix_power(contraction.propagator(tau).matrix, n)
        prob = float(np.trace(w @ rho0.matrix @ w.conj().T).real)
        defect = float(np.linalg.norm(w.conj().T @ w - eye))
        return ZenoScanPoint(n=n, tau=tau, yield_probability=min(max(prob, 0.0), 1.0),
                             unitarity_defect=defect)

    if jobs > 1:
        # Imported here: it loads logging too, which no other run needs.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(point, n_list))
    return [point(n) for n in n_list]
