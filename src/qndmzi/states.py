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

Cost model for n branches: :func:`merge_branches` is expected O(n), since
each branch looks up candidate groups in a per-mode index of cells along
Re(probes[0]) instead of scanning every earlier group.  Merging is greedy
in input order: a branch within tolerance of two groups joins the earliest.
The cell width ``_CELL`` is derived from :data:`MERGE_TOL`, so a tolerance
that scales with the probe magnitude must rescale the cells too.  The pair
sum behind :func:`inner_product` is O(n^2) work either way: below
``_GRAM_MIN_PAIRS`` branch pairs it is a Python loop, bit-equal to summing
:func:`coherent_overlap` terms; from there on it is one vectorised numpy
Gram matrix per mode block, equal to the loop up to rounding.

A bra (dual vector) is a :class:`HybridState` too, stored un-conjugated:
:func:`inner_product` conjugates its first argument, so backward evolution
reuses the element code with conjugate-transposed matrices.  This module is
the only one that knows how a state is stored, when branches merge and how
branch pairs overlap.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

#: Absolute tolerance for merging duplicate branches and dropping empty
#: ones; read only by :func:`merge_branches`.  Well above double-precision
#: noise, far below any physical amplitude in the circuits simulated here.
MERGE_TOL = 1e-12

#: Width of a merge-index cell along Re(probes[0]).  Derived from
#: MERGE_TOL: at 4 * MERGE_TOL a tolerance interval (width 2 * MERGE_TOL)
#: reaches at most the one neighbouring cell on its key's nearer side.
_CELL = 4 * MERGE_TOL

#: Cell of every |Re(probes[0])| above ~7e296, where Re/_CELL overflows.
#: Exact: there, two floats within MERGE_TOL of each other are equal.
_HUGE_CELL = "huge"

#: Branch pairs (bra branches times ket branches) from which :func:`_pair_sum`
#: sums as a numpy Gram matrix.  The Gram is faster from about 64 pairs, but
#: below this bound every state of the apparatus, the sweeps and the golden
#: files (at most 32 x 32 pairs) keeps the loop's exact bits; at 64 x 64 the
#: Gram is about 10x faster than the loop.
_GRAM_MIN_PAIRS = 4096

#: Gram entries evaluated at once: bounds the temporaries of one mode block
#: to 256 kB each, however many branches it holds.
_GRAM_BLOCK = 1 << 14


class DimensionMismatchError(ValueError):
    """Two states disagree on the number of system modes or probe modes."""


def _check_shape(a, b) -> None:
    """Raise unless ``a`` and ``b`` (states or circuits) agree on M and K."""
    if a.m_modes != b.m_modes or a.k_probes != b.k_probes:
        raise DimensionMismatchError(
            f"shape ({a.m_modes}, {a.k_probes}) vs ({b.m_modes}, {b.k_probes})"
        )


def _check_mode(what: str, mode: int, m_modes: int | None = None) -> int:
    """``mode`` as an int; raises unless it is an integer (in [0, m_modes))."""
    try:
        index = operator.index(mode)
    except TypeError:
        raise ValueError(f"{what} {mode} is not an integer") from None
    if m_modes is not None and not 0 <= index < m_modes:
        raise IndexError(f"{what} {mode} outside [0, {m_modes})")
    return index


def _check_finite(z: complex, what: str) -> None:
    if not cmath.isfinite(z):
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
        object.__setattr__(self, "mode", operator.index(self.mode))
        amp = complex(self.amp)
        probes = tuple(map(complex, self.probes))
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "probes", probes)
        _check_finite(amp, "branch amplitude")
        for p in probes:
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
        cls, m_modes: int, mode: int, probes: tuple[complex, ...]
    ) -> "HybridState":
        """State with one photon in ``mode`` and the given probe amplitudes."""
        probes = tuple(complex(p) for p in probes)
        return cls(m_modes, len(probes), (Branch(mode, 1.0, probes),))

    def norm_sq(self) -> float:
        """Squared norm including coherent cross terms between branches."""
        return inner_product(self, self).real

    def project_mode(self, mode: int) -> "HybridState":
        """Unnormalized restriction to branches with the photon in ``mode``."""
        _check_mode("mode", mode, self.m_modes)
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

    From ``_GRAM_MIN_PAIRS`` branch pairs on, :func:`_gram_pair_sum` sums
    instead.  Below it, the overlap is :func:`coherent_overlap` inlined with
    the same operations in the same order, so every sum is bit-equal to
    calling it; -|u|^2/2 and conj(u) are computed once per bra branch, and
    only when it has a mode-matched partner.  Cost: O(n^2) in the branch
    pairs on either path.
    """
    if len(bra.branches) * len(ket.branches) >= _GRAM_MIN_PAIRS:
        return _gram_pair_sum(bra, ket, k)
    exp = cmath.exp
    total = 0j
    for u in bra.branches:
        mode = u.mode
        u_terms = None
        for v in ket.branches:
            if v.mode != mode:
                continue
            if u_terms is None:
                u_amp = u.amp.conjugate()
                u_k = None if k is None else u.probes[k].conjugate()
                u_terms = [
                    (-0.5 * (p.real * p.real + p.imag * p.imag), p.conjugate())
                    for p in u.probes
                ]
            term = u_amp * v.amp
            if u_k is not None:
                term = term * u_k * v.probes[k]
            for (hu, cu), pv in zip(u_terms, v.probes):
                term *= exp(hu - 0.5 * (pv.real * pv.real + pv.imag * pv.imag) + cu * pv)
            total += term
    _check_finite(total, "inner product")
    return total


def _gram_pair_sum(bra: HybridState, ket: HybridState, k: int | None = None) -> complex:
    """:func:`_pair_sum` as one Gram matrix per mode that both sides hold.

    For the n bra and m ket branches of one mode, the probes form U (n x K)
    and V (m x K), and the exponent matrix is the sum over probes j of
    hu[:, j, None] + hv[None, :, j] + outer(conj(U[:, j]), V[:, j]), with
    hu = -|U|^2/2 and hv = -|V|^2/2 elementwise: each probe's exponent is
    the loop's, bit for bit, but the block takes one ``exp`` per pair.  The
    block's sum is conj(a_u) . exp(E) . a_v, at most ``_GRAM_BLOCK`` entries
    at a time.  Only ufuncs and ``einsum`` run here, never BLAS, whose
    threads would contend for a process pinned to one core.  Overflow gives
    inf or NaN without a warning and raises in the finite check at the end.
    """
    import numpy as np

    def by_mode(state):
        groups: dict[int, list[Branch]] = {}
        for br in state.branches:
            groups.setdefault(br.mode, []).append(br)
        return groups

    kets = by_mode(ket)
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for mode, us in by_mode(bra).items():
            vs = kets.get(mode)
            if vs is None:
                continue
            cu = np.array([u.probes for u in us], dtype=complex).conj()
            V = np.array([v.probes for v in vs], dtype=complex)
            a_u = np.array([u.amp for u in us]).conj()
            a_v = np.array([v.amp for v in vs])
            if k is not None:
                a_u = a_u * cu[:, k]
                a_v = a_v * V[:, k]
            hu = -0.5 * (cu.real * cu.real + cu.imag * cu.imag)
            hv = -0.5 * (V.real * V.real + V.imag * V.imag)
            rows = max(1, _GRAM_BLOCK // len(vs))
            for i in range(0, len(us), rows):
                block = slice(i, i + rows)
                E = np.zeros((len(hu[block]), len(vs)), dtype=complex)
                for j in range(ket.k_probes):
                    E += hu[block, j, None] + hv[None, :, j] + cu[block, j, None] * V[:, j]
                np.exp(E, out=E)
                total += complex(np.einsum("i,ij,j->", a_u[block], E, a_v))
    _check_finite(total, "inner product")
    return total


def inner_product(bra: HybridState, ket: HybridState) -> complex:
    """<bra|ket> with the first argument treated as the bra side.

    Branch pairs with different photon modes are orthogonal and drop out;
    matching pairs contribute conj(amp_bra) * amp_ket times the product of
    coherent overlaps of their probe amplitudes.
    """
    _check_shape(bra, ket)
    return _pair_sum(bra, ket)


def _canonical_key(br: Branch) -> tuple[int, list[tuple[float, float]]]:
    return (br.mode, [(p.real, p.imag) for p in br.probes])


def merge_branches(state: HybridState) -> HybridState:
    """Combine duplicate branches, drop empty ones, sort canonically.

    Branches with equal mode and probe amplitudes within :data:`MERGE_TOL`
    (absolute, per component) are summed; branches with
    ``|amp| < MERGE_TOL`` are removed.  The result is sorted by mode, then
    lexicographically by probe amplitudes, so equal states compare equal
    branch-for-branch.

    Merging is greedy in input order: a branch joins the earliest group
    (the first branch of each group fixes its probes) that it matches, or
    starts a new one, so a branch within tolerance of two groups joins the
    earlier.  Candidate groups come from an index keyed by mode, then by the
    cell ``floor(Re(probes[0]) / _CELL)``; a match lies in the branch's own
    cell or in the neighbouring cell nearer to its key, so only those two are
    searched, which makes merging expected O(n) in the branch count (the
    pair sum of :func:`inner_product` stays O(n^2)).  ``_CELL`` is derived
    from :data:`MERGE_TOL`; a relative tolerance must rescale it.
    """
    floor = math.floor
    groups: list[Branch] = []
    index: dict[int, dict[int | str, list[int]]] = {}
    for br in state.branches:
        probes = br.probes
        key = probes[0].real / _CELL if probes else 0.0
        try:
            cell = floor(key)
        except OverflowError:
            cell = _HUGE_CELL
        cells = index.get(br.mode)
        if cells is None:
            index[br.mode] = {cell: [len(groups)]}
            groups.append(br)
            continue
        if cell is _HUGE_CELL:
            near = None
        else:
            near = cell - 1 if key - cell < 0.5 else cell + 1
        match = None
        for c in (cell, near):
            for i in cells.get(c, ()):
                if match is not None and i > match:
                    break
                for a, b in zip(groups[i].probes, probes):
                    if abs(a - b) > MERGE_TOL:
                        break
                else:
                    match = i
                    break
        if match is None:
            cells.setdefault(cell, []).append(len(groups))
            groups.append(br)
        else:
            g = groups[match]
            groups[match] = Branch(g.mode, g.amp + br.amp, g.probes)
    kept = [g for g in groups if abs(g.amp) >= MERGE_TOL]
    kept.sort(key=_canonical_key)
    return HybridState(state.m_modes, state.k_probes, tuple(kept))
