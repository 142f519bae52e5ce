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

from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    HermitianBlock,
    TopKResult,
    _checked_blocks,
    _decompose_blocks,
    _dense_blocks,
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
    coupled blocks.

    The composite basis index is a_index * dim_b + b_index (A-major), and the
    Hamiltonian is stored pre-summed; no split into free and interaction
    parts is needed by any algorithm here.

    A system is built from the dense H, ``BipartiteSystem(dim_a, dim_b,
    hamiltonian)``, whose nonzero pattern ``linalg._coupled_blocks``
    searches once for the coupled blocks (its connected components), or
    from blocks the caller already knows, ``BipartiteSystem.from_blocks``,
    which takes them as they are given and never forms a D x D array.
    Either way the blocks (``block_indices``, each ascending, ordered by
    their smallest index, and their matrices, ``block_matrices``) are
    checked once, when the system is built: shapes and finiteness here,
    then ``linalg._checked_blocks`` sums the symmetry bound ||H - H†||_F <=
    1e-9 ||H||_F over them, raising ``linalg.NotHermitian`` past it. The
    system owns those blocks: ``blocks`` eigendecomposes each of them once,
    on first use, and every propagator of the system is built from that one
    decomposition. A one-block H is kept as given, not copied.

    ``hamiltonian`` is the dense H. Given to the constructor, it is that
    matrix; a block-built system assembles it from its blocks only when it
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
        self._own_blocks(dim_a, dim_b, *_dense_blocks(h))
        vars(self)["hamiltonian"] = h

    @classmethod
    def from_blocks(cls, dim_a: int, dim_b: int, blocks) -> BipartiteSystem:
        """The system whose H holds each of ``blocks`` and is zero elsewhere,
        with those blocks as its coupled blocks.

        ``blocks`` are (indices, matrix) pairs: the index sets partition
        range(dim_a * dim_b), and each matrix is H on its indices, rows and
        columns in the order the indices are given. Each block's shape and
        finiteness are checked, then the partition, then the symmetry bound,
        with the messages of the dense constructor. A block is not searched
        or split, even where its own pattern falls apart; its indices are
        sorted ascending (its matrix reordered with them), the blocks are
        ordered by their smallest index, and an empty block is dropped. A
        block given in that order already is kept as given, not copied.
        """
        if dim_a < 1 or dim_b < 1:
            raise ValueError("dimensions must be positive")
        d = dim_a * dim_b
        parts = []
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
            if not np.isfinite(m).all():
                raise ValueError("hamiltonian contains non-finite entries")
            idx = idx.astype(np.intp)
            if (idx[1:] < idx[:-1]).any():
                order = np.argsort(idx)
                idx, m = idx[order], m[np.ix_(order, order)]
            parts.append((idx, m))
        every = np.concatenate([np.empty(0, dtype=np.intp)] + [idx for idx, _ in parts])
        if every.size and (every.min() < 0 or every.max() >= d):
            raise ValueError(f"block indices must lie in range({d})")
        counts = np.bincount(every, minlength=d)
        if (counts != 1).any():
            raise ValueError(
                f"block indices must partition range({d}): "
                f"{np.count_nonzero(counts == 0)} missing, "
                f"{np.count_nonzero(counts > 1)} repeated"
            )
        parts = sorted((part for part in parts if len(part[0])), key=lambda part: part[0][0])
        system = cls.__new__(cls)
        system._own_blocks(dim_a, dim_b, [idx for idx, _ in parts],
                           _checked_blocks(m for _, m in parts))
        return system

    def _own_blocks(self, dim_a: int, dim_b: int, found, matrices) -> None:
        vars(self).update(dim_a=dim_a, dim_b=dim_b, block_indices=tuple(found),
                          block_matrices=matrices)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return (f"BipartiteSystem(dim_a={self.dim_a}, dim_b={self.dim_b}, "
                f"blocks={len(self.block_indices)})")

    @cached_property
    def hamiltonian(self) -> np.ndarray:
        """The dense D x D H, assembled from the blocks when first read."""
        d = self.dim_a * self.dim_b
        h = np.zeros((d, d), dtype=complex)
        for idx, m in zip(self.block_indices, self.block_matrices):
            h[np.ix_(idx, idx)] = m
        return h

    @cached_property
    def blocks(self) -> tuple[HermitianBlock, ...]:
        """The eigendecomposition of H, one coupled block at a time."""
        return _decompose_blocks(self.block_indices, self.block_matrices)


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

    n = 0 is the initial state (conditional probability 1 by convention);
    fidelity is None when no target state was available.
    """

    n: int
    conditional_probability: float
    cumulative_yield: float
    fidelity: float | None
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
    flags are off; degeneracy is data, not an error.
    """

    lambda0: complex | None
    lambda1: complex | None
    gap_ratio: float | None
    yield_plateau_coefficient: float | None
    condition_i_met: bool
    degenerate: bool
    u0: np.ndarray | None
    v0: np.ndarray | None


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


def contract_probe(sys: BipartiteSystem, phi: ProbeState) -> ProbeContraction:
    """Contract the eigenvectors of H with the probe state, block by block.

    The eigenvectors are those of ``sys.blocks``. A block eigenvector q on
    composite indices a*dim_b + i contributes conj(phi_a) q[a*dim_b + i] to
    entry i of its column of W.
    """
    if phi.dim != sys.dim_a:
        raise ValueError(
            f"probe dimension {phi.dim} does not match dim_a {sys.dim_a}"
        )
    conj_phi = phi.amplitudes.conj()
    columns = []
    for block in sys.blocks:
        probe_index, b_index = np.divmod(block.indices, sys.dim_b)
        w = np.zeros((sys.dim_b, len(block.indices)), dtype=complex)
        np.add.at(w, b_index, conj_phi[probe_index, None] * block.eigenvectors)
        columns.append(w)
    return ProbeContraction(
        rows=np.hstack(columns),
        energies=np.concatenate([block.eigenvalues for block in sys.blocks]),
    )


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


def run_purification(rho0: DensityMatrix, v: ProjectedPropagator, n_max: int,
                     target: np.ndarray | None = None) -> PurificationTrajectory:
    """Iterate confirmed measurements for n_max steps from rho0.

    Records, for every n in 0..n_max, the conditional success probability,
    the cumulative yield (their running product), the fidelity to ``target``
    and the purity. When no target is supplied the dominant right-eigenvector
    of V is used, taken from ``v.eigenpairs``; if that eigenvector is
    unavailable (degenerate magnitudes) fidelity is recorded as None. Stops
    early with ``truncated`` set when the branch goes extinct.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if target is not None:
        target = np.asarray(target, dtype=complex).reshape(-1)
        if abs(np.linalg.norm(target) - 1.0) > 1e-10:
            raise ValueError("target state must be unit-norm")
    elif v.eigenpairs.pairs:
        target = v.eigenpairs.pairs[0].right
    steps = [_record(0, 1.0, 1.0, rho0, target)]
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
        steps.append(_record(n, p, cumulative, state, target))
    return PurificationTrajectory(steps=tuple(steps), truncated=truncated)


def _record(n: int, p: float, cumulative: float, state: DensityMatrix,
            target: np.ndarray | None) -> TrajectoryStep:
    fid = None if target is None else fidelity(state, target)
    purity = float(np.trace(state.matrix @ state.matrix).real)
    return TrajectoryStep(
        n=n,
        conditional_probability=p,
        cumulative_yield=cumulative,
        fidelity=fid,
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
    u0 = pairs[0].right if pairs else None
    v0 = pairs[0].left if pairs else None
    plateau = None
    if pairs:
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
        u0=u0,
        v0=v0,
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
    Results are returned in input order regardless of scheduling.
    """
    if total_time <= 0:
        raise ValueError("total_time must be positive")
    n_list = [int(n) for n in n_values]
    if not n_list or any(n < 1 for n in n_list):
        raise ValueError("n_values must be a nonempty sequence of integers >= 1")
    contraction = contract_probe(sys, phi)
    if rho0.dim != sys.dim_b:
        raise ValueError(
            f"state dimension {rho0.dim} does not match dim_b {sys.dim_b}"
        )
    eye = np.eye(sys.dim_b)

    def point(n: int) -> ZenoScanPoint:
        tau = total_time / n
        w = np.linalg.matrix_power(contraction.propagator(tau).matrix, n)
        prob = float(np.trace(w @ rho0.matrix @ w.conj().T).real)
        defect = float(np.linalg.norm(w.conj().T @ w - eye))
        return ZenoScanPoint(n=n, tau=tau, yield_probability=min(max(prob, 0.0), 1.0),
                             unitarity_defect=defect)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(point, n_list))
    return [point(n) for n in n_list]
