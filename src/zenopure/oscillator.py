"""Exactly solvable two-oscillator model used as the engine's cross-check.

Two harmonic modes a (probe, frequency big_omega) and b (system, frequency
omega) exchange quanta through the beam-splitter coupling
i g (a† b - a b†). With the probe prepared in a coherent state |alpha> and
confirmed at interval tau, every quantity the engine computes numerically
has a closed form here: the projected propagator factorizes into four
exponentials with tau-dependent coefficients A, e^B, e^C, the spectrum is
geometric (lambda_n = lambda0 e^{nC}), the dominant eigenvector is the
coherent state alpha_tilde, and the conditional trajectory from a thermal
initial state is a displaced thermal state with explicit parameters.

Everything is evaluated branch-free: only e^B, e^C, e^{-C} and |e^C| appear,
never a complex logarithm, so no branch choice can silently corrupt a
result. The dominant eigenvalue is computed two independent ways (an
exponential form and a cotangent form) and the two are asserted to agree.

H conserves the total excitation number n_a + n_b, and so do a†b and a b†:
the Hamiltonian and the four-factor product are block-diagonal in it, and
factorized_propagator works one excitation block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import BipartiteSystem, DensityMatrix
from .linalg import _block_selection, _running_phases, _twin_links

__all__ = [
    "DegenerateInterval",
    "CrossCheckFailed",
    "CutoffTooSmall",
    "ZeroFrequency",
    "OscillatorParams",
    "ClosedFormCoefficients",
    "ThermalTrajectoryClosedForm",
    "destroy",
    "coefficients",
    "lambda_n",
    "build_hamiltonian",
    "coherent_state",
    "thermal_state",
    "closed_form_rho",
    "closed_form_propagator",
    "factorized_propagator",
    "tuned_tau",
]


class DegenerateInterval(ValueError):
    """delta * tau hit a multiple of pi: the coupling averages out.

    At these intervals A = 0 and |e^C| = 1, the projected propagator is
    unitary up to a scalar, and purification cannot proceed.
    """


class CrossCheckFailed(ValueError):
    """Two independent closed-form routes to one quantity disagree by more
    than their bound: at this interval the closed forms cannot vouch for it."""


class CutoffTooSmall(ValueError):
    """Truncated Fock space cannot hold the requested state."""


class ZeroFrequency(ValueError):
    """Requested resonance frequency vanishes; no finite tuned interval."""


def _modulus(z: complex) -> float:
    """abs(z), or nan when a part of z is nan. CPython's complex abs returns
    nan there without clearing errno, so a stale ERANGE from an earlier C
    call would make it raise OverflowError instead."""
    return np.nan if np.isnan(z) else abs(z)


@dataclass(frozen=True)
class OscillatorParams:
    """Model parameters plus Fock truncation dimensions.

    Cutoffs count basis states (occupations 0 .. n_max-1) and must be at
    least 4 * (1 + |alpha|^2), a heuristic floor keeping coherent-state
    tails far below every tolerance used here. An alpha of exactly zero
    makes the probe a number state, exactly representable at any cutoff,
    so the floor does not apply then.
    """

    big_omega: float
    omega: float
    g: float
    alpha: complex
    beta: float
    tau: float
    n_max_a: int = 30
    n_max_b: int = 30

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        floor = 4 * (1 + _modulus(self.alpha) ** 2) if self.alpha != 0 else 1
        for name, n in (("n_max_a", self.n_max_a), ("n_max_b", self.n_max_b)):
            if n < 1:
                raise ValueError(f"{name} must be positive")
            if n < floor:
                raise CutoffTooSmall(
                    f"{name} = {n} is below the floor {floor:.1f} for |alpha| = "
                    f"{abs(self.alpha):.3f}"
                )


@dataclass(frozen=True)
class ClosedFormCoefficients:
    """Interval-dependent coefficients of the factorized propagator.

    delta is the detuning-dressed coupling sqrt(g^2 + (big_omega-omega)^2/4);
    big_omega_plus/minus are the normal-mode frequencies (big_omega+omega)/2
    +- delta. a_coef, exp_b, exp_c are the A, e^B, e^C appearing in
    e^{A a†b} e^{B a†a} e^{C b†b} e^{-A a b†}; lambda0 is the dominant
    eigenvalue of the projected propagator and alpha_tilde the coherent
    amplitude of its eigenvector, alpha_tilde = A alpha / (1 - e^{-C}).
    """

    delta: float
    big_omega_plus: float
    big_omega_minus: float
    a_coef: complex
    exp_b: complex
    exp_c: complex
    exp_neg_c: complex
    lambda0: complex
    alpha_tilde: complex
    abs_exp_c: float


@dataclass(frozen=True)
class ThermalTrajectoryClosedForm:
    """Closed form of the conditional state after n confirmations.

    The state is a displaced thermal state: displacement_argument is the
    coherent displacement amplitude, theta the raw interference sum it is
    built from, and gauge_norm the normalization 1 - |e^C|^{2n} e^{-beta
    omega} dividing it.
    """

    n: int
    theta: complex
    displacement_argument: complex
    gauge_norm: float
    state: DensityMatrix


def destroy(dim: int) -> np.ndarray:
    """Bosonic annihilation operator on a dim-dimensional Fock space."""
    if dim < 1:
        raise ValueError("dim must be positive")
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def _cot_term(coef: float, x: float) -> float:
    """coef * cot(x), with the zero-coefficient and pole cases pinned."""
    if coef == 0.0:
        return 0.0
    t = np.tan(x)
    if t == 0.0:
        return np.inf if coef > 0 else -np.inf
    return coef / t


def _delta(p: OscillatorParams) -> float:
    """delta = sqrt(g^2 + (big_omega - omega)^2 / 4), refused with a ValueError
    where a square overflows a float (Python float powers raise there)."""
    d_om = p.big_omega - p.omega
    try:
        return float(np.sqrt(p.g ** 2 + d_om ** 2 / 4))
    except OverflowError:
        raise ValueError(
            f"delta = sqrt(g^2 + (big_omega - omega)^2 / 4) overflows at g = {float(p.g)!r}, "
            f"big_omega - omega = {float(d_om)!r}"
        ) from None


def coefficients(p: OscillatorParams) -> ClosedFormCoefficients:
    """Evaluate the closed-form coefficient set at the given interval.

    Raises DegenerateInterval when delta*tau sits within 1e-9 of a multiple
    of pi (including tau = 0), where A vanishes and purification fails, and
    a plain ValueError when delta overflows, delta*tau is not finite, or a
    phase the closed forms take (delta*tau, (big_omega+omega)*tau/2 or
    big_omega_plus-or-minus*tau/2) is so large that doubles there are more
    than that 1e-9 apart. The dominant eigenvalue is computed through two
    algebraically independent routes and cross-checked to 1e-9; |e^C|
    likewise comes out of two formulas checked against each other to 1e-12,
    and e^C e^{-C} against 1 to 1e-12. A failed cross-check raises
    CrossCheckFailed, naming both values and the bound.
    """
    d_om = p.big_omega - p.omega
    delta = _delta(p)
    dtau = delta * p.tau
    if not np.isfinite(dtau):
        raise ValueError(f"delta*tau = {dtau!r} is not finite")
    om_plus = (p.big_omega + p.omega) / 2 + delta
    om_minus = (p.big_omega + p.omega) / 2 - delta
    phases = {
        "delta*tau": dtau,
        "(big_omega+omega)*tau/2": (p.big_omega + p.omega) * p.tau / 2,
        "big_omega_plus*tau/2": om_plus * p.tau / 2,
        "big_omega_minus*tau/2": om_minus * p.tau / 2,
    }
    name, phase = max(phases.items(), key=lambda item: abs(item[1]))
    step = float(np.spacing(abs(phase)))
    if step > 1e-9:
        raise ValueError(
            f"delta*tau = {dtau!r} cannot be resolved: the closed forms take {name} = "
            f"{phase!r}, where doubles are {step:.3e} apart, more than their 1e-9 window"
        )
    nearest = round(dtau / np.pi)
    if abs(dtau - nearest * np.pi) <= 1e-9:
        raise DegenerateInterval(
            f"delta*tau = {dtau!r} is within 1e-9 of {nearest}*pi"
        )
    cos_dt = np.cos(dtau)
    sin_dt = np.sin(dtau)
    z = cos_dt + 1j * (d_om / (2 * delta)) * sin_dt
    e = np.exp(-1j * (p.big_omega + p.omega) * p.tau / 2)
    a_coef = (p.g / delta) * sin_dt / z
    exp_b = e / z
    exp_c = e * z
    exp_neg_c = 1.0 / exp_c

    # Dominant eigenvalue, route 1: exponential form. The textbook exponent
    # 1 - e^B - A^2/(1 - e^{-C}) cancels catastrophically near cos(dtau) = 0,
    # so it is evaluated in the equivalent factored form
    # -(E - e^{i dtau})(E - e^{-i dtau}) / (E Z - 1), whose zeros at the
    # tuned intervals are exact by construction.
    eip = complex(cos_dt, sin_dt)
    w = -((e - eip) * (e - np.conj(eip))) / (exp_c - 1.0)
    aa = _modulus(p.alpha) ** 2
    lambda0 = np.exp(-aa * w)

    # Route 2: cotangent form in the normal-mode frequencies.
    c_plus = 1 + d_om / (2 * delta)
    c_minus = 1 - d_om / (2 * delta)
    s = _cot_term(c_plus, om_plus * p.tau / 2) + _cot_term(c_minus, om_minus * p.tau / 2)
    if np.isfinite(s):
        lambda0_cot = np.exp(-2 * aa / (1 - 0.5j * s))
    else:
        lambda0_cot = 1.0 + 0.0j
    if abs(lambda0 - lambda0_cot) > 1e-9:
        raise CrossCheckFailed(
            f"dominant-eigenvalue cross-check failed: exponential form {complex(lambda0)!r} "
            f"vs cotangent form {complex(lambda0_cot)!r} differ by more than 1e-9"
        )

    one_minus_exp_neg_c = (exp_c - 1.0) / exp_c
    alpha_tilde = a_coef * p.alpha / one_minus_exp_neg_c
    abs_exp_c = float(np.sqrt(max(0.0, 1 - (p.g / delta) ** 2 * sin_dt ** 2)))
    if abs(abs(exp_c) - abs_exp_c) > 1e-12:
        raise CrossCheckFailed(
            f"|e^C| cross-check failed: {float(abs(exp_c))!r} vs {abs_exp_c!r} "
            f"differ by more than 1e-12"
        )
    if abs(exp_c * exp_neg_c - 1.0) > 1e-12:
        raise CrossCheckFailed(
            f"e^C * e^(-C) cross-check failed: {complex(exp_c * exp_neg_c)!r} vs 1 "
            f"differ by more than 1e-12"
        )
    return ClosedFormCoefficients(
        delta=delta,
        big_omega_plus=float(om_plus),
        big_omega_minus=float(om_minus),
        a_coef=complex(a_coef),
        exp_b=complex(exp_b),
        exp_c=complex(exp_c),
        exp_neg_c=complex(exp_neg_c),
        lambda0=complex(lambda0),
        alpha_tilde=complex(alpha_tilde),
        abs_exp_c=abs_exp_c,
    )


def lambda_n(c: ClosedFormCoefficients, n: int) -> complex:
    """n-th eigenvalue of the projected propagator: lambda0 * (e^C)^n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return complex(c.lambda0 * c.exp_c ** n)


def _shift_exponential(coef: complex, shifts: np.ndarray) -> np.ndarray:
    """e^{coef L} for the nilpotent lower shift L with L[i+1, i] = shifts[i],
    as its exact finite sum: entry (i, j), i >= j, is coef^(i-j)/(i-j)! times
    shifts[j] ... shifts[i-1]. A cumulative product down each column forms
    it, one factor coef shifts[i-1] / (i - j) per row. The transpose is
    e^{coef L^T}."""
    n = len(shifts) + 1
    steps = np.arange(n)[:, None] - np.arange(n)[None, :]
    ratios = coef * np.concatenate(([0.0], shifts))[:, None] / np.maximum(steps, 1)
    return np.tril(np.cumprod(np.where(steps > 0, ratios, 1.0), axis=0))


def _excitation_states(na: int, nb: int):
    """Occupations (n_a, n_b) of the states with n_a + n_b = k, by ascending
    n_a and so by ascending composite index n_a * nb + n_b, for each k."""
    for k in range(na + nb - 1):
        occ_a = np.arange(max(0, k - nb + 1), min(k, na - 1) + 1)
        yield occ_a, k - occ_a


def build_hamiltonian(p: OscillatorParams) -> BipartiteSystem:
    """Truncated two-mode Hamiltonian, Hermitian by construction.

    H = big_omega a†a + omega b†b + i g (a†b - a b†) on the A-major product
    basis, with number operators built exactly as integer diagonals. H
    conserves n_a + n_b, so it is built as one small tridiagonal matrix per
    total excitation number, on that number's states. The blocks of each
    size form one m x n x n stack, all of them filled at once, and the
    stacks are handed to the system's stack constructor; no D x D array is
    formed. Each block equals the dense H restricted to
    its indices, bit for bit. At g = 0 nothing couples two states, so the
    states are handed over as one stack of 1 x 1 blocks: the blocks are
    those the dense constructor finds at every g.

    Every block is tridiagonal, and the same pass fills each block's real
    symmetric twin T = D† H D into a second, real buffer (``linalg``'s
    ``_hermitian_eigh``): H's diagonal, and |i g sqrt(n_a + 1) sqrt(n_b)|
    on both off-diagonals, with D's diagonal the running product of the
    phases of H's sub-diagonal down the block, formed with the arithmetic
    that ``linalg`` uses on a block it tests, so the system solves H
    through its twins without testing a band, to the bits a dense H
    gets, and takes H's eigenvectors as D Q' from the twins' Q'. The
    closed forms below never use this route: the one eigensolve among them,
    ``closed_form_rho``'s D(zeta), calls the complex ``numpy.linalg.eigh``
    itself, so the oracles stay independent of the engine's solver.
    """
    na, nb = p.n_max_a, p.n_max_b
    if p.g == 0:
        occ_a, occ_b = np.divmod(np.arange(na * nb), nb)
        energies = (p.big_omega * occ_a + p.omega * occ_b)[:, None, None]
        twin = (energies, np.ones((na * nb, 1), dtype=complex))
        return BipartiteSystem._from_stacks(
            na, nb, [(np.arange(na * nb)[:, None], energies.astype(complex), twin)])
    # Block k holds the states with n_a + n_b = k, by ascending n_a, so by
    # ascending composite index n_a * nb + n_b. The blocks are laid out one
    # size after another, by ascending k within a size, in one buffer h of
    # which each size's stack is a slice, and their twins likewise in t.
    # Each state has its block's size n and start in h, and its place in
    # its block.
    k = np.arange(na + nb - 1)
    first = np.maximum(0, k - nb + 1)
    sizes = np.minimum(k, na - 1) - first + 1
    k = np.argsort(sizes, kind="stable")
    size = sizes[k]
    n = np.repeat(size, size)
    start = np.repeat(np.cumsum(size ** 2) - size ** 2, size)
    place = np.arange(na * nb) - np.repeat(np.cumsum(size) - size, size)
    occ_a = np.repeat(first[k], size) + place
    occ_b = np.repeat(k, size) - occ_a
    h = np.zeros(np.sum(size ** 2), dtype=complex)
    t = np.zeros(len(h))
    diagonal = start + place * (n + 1)
    h[diagonal] = t[diagonal] = p.big_omega * occ_a + p.omega * occ_b
    # i g a†b takes |n_a, n_b> to sqrt(n_a + 1) sqrt(n_b) |n_a + 1, n_b - 1>,
    # the next state of the block; -i g a b† is its adjoint.
    step = place < n - 1
    amp = 1j * p.g * (np.sqrt(occ_a[step] + 1.0) * np.sqrt(occ_b[step]))
    lower = (start + (place + 1) * n + place)[step]
    upper = (start + place * n + place + 1)[step]
    h[lower] = amp
    h[upper] = amp.conj()
    off, links = _twin_links(amp)
    t[lower] = t[upper] = off
    # One row of link phases per block, padded with ones past its end, so
    # that one running product down the rows gives every state its phase.
    block = np.repeat(np.arange(len(size)), size)
    rows = np.ones((len(size), size[-1] - 1), dtype=complex)
    rows[block[step], place[step]] = links
    phases = _running_phases(rows)[block, place]
    indices = occ_a * nb + occ_b
    stacks = []
    for n_k, count in zip(*np.unique(size, return_counts=True)):
        i = np.searchsorted(n, n_k)
        states = slice(i, i + count * n_k)
        entries = slice(start[i], start[i] + count * n_k * n_k)
        stacks.append((indices[states].reshape(count, n_k),
                       h[entries].reshape(count, n_k, n_k),
                       (t[entries].reshape(count, n_k, n_k), phases[states].reshape(count, n_k))))
    return BipartiteSystem._from_stacks(na, nb, stacks)


def coherent_state(alpha: complex, cutoff: int) -> np.ndarray:
    """Fock amplitudes e^{-|alpha|^2/2} alpha^n / sqrt(n!), not renormalized.

    The truncation tail is asserted below 1e-10 instead of being hidden by
    renormalization, so overlaps computed from the result stay directly
    comparable to closed forms.
    """
    alpha = complex(alpha)
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    amps = np.zeros(cutoff, dtype=complex)
    if alpha == 0:
        amps[0] = 1.0
        return amps
    n = np.arange(cutoff, dtype=float)
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(cutoff)])
    mag = np.exp(n * np.log(_modulus(alpha)) - 0.5 * log_factorial - _modulus(alpha) ** 2 / 2)
    amps = mag * np.exp(1j * n * np.angle(alpha))
    tail = max(0.0, 1.0 - float(np.sum(mag ** 2)))
    if tail > 1e-10:
        raise CutoffTooSmall(
            f"coherent-state tail {tail:.3e} exceeds 1e-10 at cutoff {cutoff}"
        )
    return amps


def thermal_state(beta: float, omega: float, cutoff: int) -> DensityMatrix:
    """Thermal state of one mode, diagonal e^{-beta omega n}, unit trace."""
    if beta * omega <= 0:
        raise ValueError("beta * omega must be positive")
    if cutoff < 1:
        raise ValueError("cutoff must be positive")
    weights = np.exp(-beta * omega * np.arange(cutoff, dtype=float))
    return DensityMatrix(np.diag(weights / weights.sum()).astype(complex))


def closed_form_rho(p: OscillatorParams, n: int) -> ThermalTrajectoryClosedForm:
    """Exact conditional state after n confirmations from a thermal start.

    A displaced thermal state: the Gaussian part keeps the thermal form with
    e^{-beta omega} shrunk by |e^C|^{2n}, and the displacement amplitude is
    alpha * Theta(n) / gauge_norm with
    Theta(n) = [(1 - e^{nC})/(1 - e^{-C})] A
               - conj([(1 - e^{nC})/(1 - e^{-C})] A) e^{nC} e^{-beta omega}.
    The result is renormalized to unit trace on the truncated space.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p.beta * p.omega <= 0:
        raise ValueError("beta * omega must be positive")
    c = coefficients(p)
    boltz = np.exp(-p.beta * p.omega)
    if boltz == 1.0:
        raise CutoffTooSmall(
            f"thermal state at beta*omega = {float(p.beta * p.omega)!r} has e^(-beta*omega) = 1 "
            f"in double precision: no cutoff holds it"
        )
    e_nc = c.exp_c ** n
    ratio = (1.0 - e_nc) / (1.0 - c.exp_neg_c) * c.a_coef
    theta = ratio - np.conj(ratio) * e_nc * boltz
    gauge_norm = float(1.0 - c.abs_exp_c ** (2 * n) * boltz)
    if not 0.0 < gauge_norm <= 1.0:
        raise ArithmeticError(f"gauge norm {gauge_norm!r} left (0, 1]")
    zeta = p.alpha * theta / gauge_norm
    nb = p.n_max_b
    b = destroy(nb)
    # D(zeta) = exp(zeta b† - zeta* b) on the truncated space, as exp(-iG) of
    # the Hermitian G = i (zeta b† - zeta* b). The normal-ordered form would
    # hold the infinite model's entries instead, and its boundary weight
    # would no longer show a cutoff that is too small. G is tridiagonal, but
    # is solved by the complex eigh itself, not by linalg's real twins, so
    # that the oracle shares no solver route with the engine.
    w, q = np.linalg.eigh(1j * (zeta * b.conj().T - np.conj(zeta) * b))
    disp = (q * np.exp(-1j * w)) @ q.conj().T
    gauss = (boltz * c.abs_exp_c ** (2 * n)) ** np.arange(nb, dtype=float)
    raw = (disp * gauss) @ disp.conj().T
    raw = (raw + raw.conj().T) / 2
    state = raw / np.trace(raw).real
    boundary = float(state[-1, -1].real)
    if boundary > 1e-6:
        raise CutoffTooSmall(
            f"displaced thermal state keeps {boundary:.3e} at the boundary "
            f"(cutoff {nb})"
        )
    return ThermalTrajectoryClosedForm(
        n=n,
        theta=complex(theta),
        displacement_argument=complex(zeta),
        gauge_norm=gauge_norm,
        state=DensityMatrix(state),
    )


def closed_form_propagator(p: OscillatorParams) -> np.ndarray:
    """Projected propagator assembled from its closed-form spectral data.

    lambda0 * U diag((e^C)^k) U^{-1} with U = exp[r (alpha* b + alpha b†)],
    r = A/(1 - e^{-C}) and alpha = alpha_tilde / r, the eigenvector map: its
    column k, U|k>, is the k-th right eigenvector, with eigenvalue
    lambda0 (e^C)^k, and column 0 the coherent state alpha_tilde up to
    normalization. U and U^{-1} are taken in normal order,
    U = e^{xy/2} e^{y b†} e^{x b} and U^{-1} = e^{xy/2} e^{-y b†} e^{-x b}
    with x = r alpha* and y = r alpha, whose factors are exact finite sums,
    so each holds the infinite model's entries. This is the branch-free
    realization of the geometric spectrum and serves as the entrywise oracle
    for the engine-built propagator; the product U diag U^{-1} is still cut
    at the Fock boundary, so it is trustworthy on low-occupation blocks
    only.
    """
    c = coefficients(p)
    nb = p.n_max_b
    powers = c.exp_c ** np.arange(nb)
    r = c.a_coef / (1.0 - c.exp_neg_c)
    if r == 0:  # U is the identity
        return np.diag(c.lambda0 * powers)
    alpha = c.alpha_tilde / r
    x, y = r * np.conj(alpha), r * alpha
    raising = np.sqrt(np.arange(1.0, nb))  # b† takes |n> to sqrt(n + 1) |n + 1>
    u = _shift_exponential(y, raising) @ _shift_exponential(x, raising).T
    u_inv = _shift_exponential(-y, raising) @ _shift_exponential(-x, raising).T
    return c.lambda0 * np.exp(x * y) * (u * powers) @ u_inv


def factorized_propagator(p: OscillatorParams, indices=None) -> np.ndarray:
    """exp(-iH tau) as the exact four-factor product on the truncated space.

    e^{A a†b} (e^B)^{a†a} (e^C)^{b†b} e^{-A a b†}, with the diagonal factors
    raised entrywise from e^B and e^C (no logarithms), formed on each block
    of fixed n_a + n_b and assembled into the D x D matrix. On a block, a†b
    is a nilpotent lower shift, so e^{A a†b} is its exact finite sum, and
    e^{-A a b†} is the transpose of e^{-A a†b}. Exact on the
    infinite space; truncation error concentrates at the Fock boundary, so
    comparisons against the eigendecomposition route should restrict to an
    interior block. With ``indices`` (composite indices n_a * n_max_b + n_b)
    only that restriction, u[np.ix_(indices, indices)], is returned, entry
    for entry as the whole matrix holds it, without forming the whole
    matrix; blocks holding none of the indices are skipped. tau = 0 returns
    the identity (the zero-time limit of the product, whose coefficient set
    is otherwise out of range).
    """
    na, nb = p.n_max_a, p.n_max_b
    indices = np.arange(na * nb) if indices is None else np.asarray(indices, dtype=int)
    if p.tau == 0:
        return (indices[:, None] == indices[None, :]).astype(complex)
    c = coefficients(p)
    # a†b moves each state of an excitation block to the next, a b† to the
    # previous.
    states = list(_excitation_states(na, nb))
    groups = [a_k * nb + b_k for a_k, b_k in states]
    out = np.zeros((len(indices), len(indices)), dtype=complex)
    for number, rows, local in _block_selection(groups, na * nb, indices):
        a_k, b_k = states[number]
        shifts = np.sqrt(a_k[:-1] + 1.0) * np.sqrt(b_k[:-1])
        diagonal = c.exp_b ** a_k * c.exp_c ** b_k
        block = ((_shift_exponential(c.a_coef, shifts) * diagonal)
                 @ _shift_exponential(-c.a_coef, shifts).T)
        out[np.ix_(rows, rows)] = block[np.ix_(local, local)]
    return out


def tuned_tau(p: OscillatorParams, m: int, branch: str) -> float:
    """Interval 2 m pi / |Omega_plus-or-minus| at which |lambda0| = 1.

    branch selects which normal-mode frequency to tune to ("plus" or
    "minus"). Raises ZeroFrequency when the selected frequency vanishes.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    delta = _delta(p)
    base = (p.big_omega + p.omega) / 2 + (delta if branch == "plus" else -delta)
    if abs(base) < 1e-12:
        raise ZeroFrequency(f"normal-mode frequency for branch {branch!r} vanishes")
    return float(2 * m * np.pi / abs(base))
