"""Branch-sparse joint states of one photon and K coherent probe fields.

A state is a finite superposition of branches.  Each branch pins the photon
to a single system mode and carries a complex amplitude plus one coherent
amplitude per probe mode.  Every circuit element used here maps coherent
states to coherent states, so tracking amplitudes is exact; inner products
pick up the analytic coherent-state overlap and need no Fock truncation.

Branches in the same mode merge only when their probe content matches, so
the representation stays sparse exactly when interfering paths share probe
histories (as in the interferometers built here).  A system beam splitter
can at worst double the branch count, so deep circuits that keep marking
branches distinctly grow it exponentially.

A bra (dual vector) is a :class:`HybridState` too, stored un-conjugated:
:func:`inner_product` conjugates its first argument, so backward evolution
reuses the element code with conjugate-transposed matrices.  This module is
the only one that knows how a state is stored, when branches merge and how
branch pairs overlap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

#: Absolute tolerance for merging duplicate branches and dropping empty
#: ones; read only by :func:`merge_branches`.  Well above double-precision
#: noise, far below any physical amplitude in the circuits simulated here.
MERGE_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Two states disagree on the number of system modes or probe modes."""


def _check_finite(z: complex, what: str) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite {what}: {z!r}")


@dataclass(frozen=True)
class Branch:
    """One superposition term: photon in ``mode``, probes in coherent states.

    ``mode`` is always a single index; a branch never holds the photon in a
    superposition of modes (that is what multiple branches are for).
    """

    mode: int
    amp: complex
    probes: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", int(self.mode))
        object.__setattr__(self, "amp", complex(self.amp))
        object.__setattr__(self, "probes", tuple(complex(p) for p in self.probes))
        _check_finite(self.amp, "branch amplitude")
        for p in self.probes:
            _check_finite(p, "probe amplitude")


@dataclass(frozen=True)
class HybridState:
    """Superposition of :class:`Branch` terms over M system and K probe modes."""

    m_modes: int
    k_probes: int
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
        for br in self.branches:
            if not 0 <= br.mode < self.m_modes:
                raise IndexError(
                    f"branch mode {br.mode} outside [0, {self.m_modes})"
                )
            if len(br.probes) != self.k_probes:
                raise DimensionMismatchError(
                    f"branch has {len(br.probes)} probe amplitudes, "
                    f"expected {self.k_probes}"
                )

    @classmethod
    def single_photon(
        cls,
        m_modes: int,
        mode: int,
        probes: tuple[complex, ...],
        amp: complex = 1.0,
    ) -> "HybridState":
        """State with one photon in ``mode`` and the given probe amplitudes."""
        probes = tuple(complex(p) for p in probes)
        return cls(m_modes, len(probes), (Branch(mode, amp, probes),))

    def norm_sq(self) -> float:
        """Squared norm including coherent cross terms between branches."""
        return inner_product(self, self).real

    def project_mode(self, mode: int) -> "HybridState":
        """Unnormalized restriction to branches with the photon in ``mode``."""
        if not 0 <= mode < self.m_modes:
            raise IndexError(f"mode {mode} outside [0, {self.m_modes})")
        kept = tuple(br for br in self.branches if br.mode == mode)
        return HybridState(self.m_modes, self.k_probes, kept)

    def scaled(self, factor: complex) -> "HybridState":
        return HybridState(
            self.m_modes,
            self.k_probes,
            tuple(Branch(b.mode, factor * b.amp, b.probes) for b in self.branches),
        )

    def normalized(self) -> "HybridState":
        n = self.norm_sq()
        if n <= 0.0:
            raise ValueError("cannot normalize a null state")
        return self.scaled(1.0 / math.sqrt(n))


def coherent_overlap(a: complex, b: complex) -> complex:
    """Overlap <a|b> of two coherent states.

    exp(-|a|^2/2 - |b|^2/2 + conj(a) b); equals 1 when a == b and has
    magnitude exp(-|a-b|^2/2) <= 1 in general.
    """
    a = complex(a)
    b = complex(b)
    return cmath.exp(
        -0.5 * (a.real * a.real + a.imag * a.imag)
        - 0.5 * (b.real * b.real + b.imag * b.imag)
        + a.conjugate() * b
    )


def _pair_sum(bra: HybridState, ket: HybridState, k: int | None = None) -> complex:
    """Sum over mode-matched branch pairs of conj(amp_u) amp_v prod <u_j|v_j>.

    With ``k`` given, each term also carries conj(u_k) v_k, which turns the
    sum into the probe-``k`` number matrix element <bra|n_k|ket>.  Inner
    products, norms and mean photon numbers all sum here, so an overflowed
    coherent overlap raises instead of passing on as NaN.
    """
    total = 0j
    for u in bra.branches:
        for v in ket.branches:
            if u.mode != v.mode:
                continue
            term = u.amp.conjugate() * v.amp
            if k is not None:
                term = term * u.probes[k].conjugate() * v.probes[k]
            for pu, pv in zip(u.probes, v.probes):
                term *= coherent_overlap(pu, pv)
            total += term
    _check_finite(total, "inner product")
    return total


def inner_product(bra: HybridState, ket: HybridState) -> complex:
    """<bra|ket> with the first argument treated as the bra side.

    Branch pairs with different photon modes are orthogonal and drop out;
    matching pairs contribute conj(amp_bra) * amp_ket times the product of
    coherent overlaps of their probe amplitudes.
    """
    if bra.m_modes != ket.m_modes or bra.k_probes != ket.k_probes:
        raise DimensionMismatchError(
            f"shape ({bra.m_modes}, {bra.k_probes}) vs "
            f"({ket.m_modes}, {ket.k_probes})"
        )
    return _pair_sum(bra, ket)


def merge_branches(state: HybridState) -> HybridState:
    """Combine duplicate branches, drop empty ones, sort canonically.

    Branches with equal mode and probe amplitudes within :data:`MERGE_TOL`
    (absolute, per component) are summed; branches with
    ``|amp| < MERGE_TOL`` are removed.  The result is sorted by mode, then
    lexicographically by probe amplitudes, so equal states compare equal
    branch-for-branch.
    """
    groups: list[Branch] = []
    for br in state.branches:
        for i, g in enumerate(groups):
            if g.mode == br.mode and all(
                abs(a - b) <= MERGE_TOL for a, b in zip(g.probes, br.probes)
            ):
                groups[i] = Branch(g.mode, g.amp + br.amp, g.probes)
                break
        else:
            groups.append(br)
    kept = [g for g in groups if abs(g.amp) >= MERGE_TOL]
    kept.sort(key=lambda b: (b.mode, tuple((p.real, p.imag) for p in b.probes)))
    return HybridState(state.m_modes, state.k_probes, tuple(kept))
