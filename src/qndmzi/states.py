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

Cost model for n branches: :func:`merge_branches` is greedy in input order.
A branch joins the earliest group it matches among the earlier groups of
its bucket, so a branch within tolerance of two groups joins the earlier.
A state already canonical (distinct modes in increasing order, no amplitude
to drop) costs one pass and comes back as it is, with nothing built; other
branches in distinct modes cannot merge and skip the scan.  Below
``_MERGE_SCAN_MAX`` branches, and for every state with K = 0, the bucket is
the branch's mode.  From there on (with K > 0), one ``np.lexsort`` into
canonical order comes first, and the bucket is the branch's run of sorted
same-mode neighbours, each within :data:`MERGE_TOL` of the next along
Re(probes[0]); a branch alone in its run cannot merge and keeps its sorted
slot.  Either way a merge costs at worst O(run length x groups in the run)
summed over its buckets, a mode counting as one run; a state that cannot
merge costs one O(n log n) sort and a fixed number of numpy calls.  Below
the bound, groups left in distinct modes sort by mode alone, comparing no
probes.  The per-branch element steps map branches that share a probe
tuple (a system splitter's two outputs) to one new tuple, which the merge
matches by identity.

The pair sum behind :func:`inner_product` is O(n^2) work either way: below
``_GRAM_MIN_PAIRS`` branch pairs it is a Python loop, bit-equal to summing
:func:`coherent_overlap` terms; from there on it is one numpy Gram matrix
per mode block, equal to the loop up to rounding.  Either path also gives
<bra|P_m|ket> per mode or <bra|n_k|ket> per probe in the same pass: a
moment is one more weight row on each block, and a part is its mode's
block sums, since a block holds one mode.  Pair
sums and merges of rows over a batch axis (a sweep's points) run once for
all points: a value is a Python number, or a list of one per point where
it varies (:func:`_per_point`), formed by the loop's own expression, bit for bit.

The hand-over.  A fast path (a column step, or a step, merge or pair sum
over a batch axis) that cannot give the slower code's bits, or would meet
a value that code raises on, raises :class:`_HandOver`.  One ``except``
per entry, around the fast path alone, runs the slower code instead, which
gives those bits or raises its own error; no public function raises it.

The column form serves branch growth, where system splitters and Kerr
marks keep doubling and marking branches.  A state the engine builds with
``_MERGE_SORT_MIN`` branches or more and K > 0 (a column step's unmerged
output or a merge result) is a private :class:`_ColumnState`: its modes
(int[n]), amplitudes (complex[n]) and probes (complex[n, K]) are numpy
columns, and its ``branches`` are built on first read and kept, so ``==``,
``hash``, ``repr``, ``copy`` and pickling see the same :class:`HybridState`
as before.  The steps of that growth (system splitters, Kerr marks and
phases), :func:`merge_branches`, the Gram pair sum and the pair sum's total
below it act on the columns with the per-branch code's bits: every complex
product is formed by :func:`_cmul` on real and imaginary parts, every
overlap by ``cmath.exp``, and every sum is added in the loop's order.
Probe splitters, projections, scaled copies, and moments and parts below
``_GRAM_MIN_PAIRS`` pairs run on the built branches; the merge after a
probe splitter returns its result to columns.  Where a value would not be
finite, a step hands over to the per-branch code on the built branches,
which raises its own error.  Which code a state takes is one O(1) check of
``_cols``, None on every other state.  Building the branches of a large
state costs more than a column step on it, so they are built only when
read, not at every stage.

A bra (dual vector) is a :class:`HybridState` too, stored un-conjugated:
:func:`inner_product` conjugates its first argument, so backward evolution
reuses the element code with conjugate-transposed matrices.  This module is
the only one that knows how a state is stored, when branches merge and how
branch pairs overlap.

Trust boundary: the public constructors :class:`Branch` and
:class:`HybridState` coerce and check every value they are given.  States
the engine derives from an already checked state (the element appliers,
:func:`merge_branches`, :meth:`HybridState.project_mode` and
:meth:`HybridState.scaled`, which coerces only its factor) are built by
the private ``_branch``, ``_state`` and ``_column_state`` instead, which
write their values as given straight into the slots of these slotted,
frozen dataclasses.  Their callers keep a finite check only where
arithmetic can overflow, with the same error as the public constructor;
every other value is a complex, an int mode in range or a probe tuple of
length K already, or, in columns, arrays of those values.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from typing import Sequence

#: Absolute tolerance for merging duplicate branches and dropping empty
#: ones; read only by :func:`merge_branches`.  Well above double-precision
#: noise, far below any physical amplitude in the circuits simulated here.
MERGE_TOL = 1e-12

#: Branch pairs (bra branches times ket branches) from which :func:`_pair_sum`
#: sums as a numpy Gram matrix.  The Gram is faster from about 64 pairs, but
#: below this bound every state of the apparatus, the sweeps and the golden
#: files (at most 32 x 32 pairs) keeps the loop's exact bits; at 64 x 64 the
#: Gram is about 10x faster than the loop.
_GRAM_MIN_PAIRS = 4096

#: Branch count from which engine-built states with K > 0 keep the column
#: form (module docstring).  Where nearly every branch merges the columns
#: only add their numpy setup, so the bound sits above ``_MERGE_SCAN_MAX``.
_MERGE_SORT_MIN = 32

#: Branch count from which :func:`merge_branches` (with K > 0) sorts with
#: numpy first and scans only the runs of sorted neighbours; below it, a
#: branch scans the earlier groups of its mode.  On Kerr-chain states that
#: cannot merge the scan takes about 17 us at 8 branches against 20 us for
#: the sorted pass, and 47 us at 16 against 22 us (one core of a 2-vCPU
#: Xeon, Python 3.11.7, numpy 2.4.6).
_MERGE_SCAN_MAX = 16

#: Gram entries evaluated at once: bounds the temporaries of one mode block
#: to 256 kB each, however many branches it holds.
_GRAM_BLOCK = 1 << 14


class DimensionMismatchError(ValueError):
    """Two states disagree on the number of system modes or probe modes."""


class _HandOver(Exception):
    """A fast path declines: the slower code gives its bits (module docstring)."""


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


def _check_counts(m_modes: int, k_probes: int) -> tuple[int, int]:
    """The mode counts as ints; raises unless M >= 1 and K >= 0 are integers."""
    try:
        counts = operator.index(m_modes), operator.index(k_probes)
    except TypeError:
        raise ValueError("mode counts must be integers") from None
    if counts[0] < 1 or counts[1] < 0:
        raise ValueError("mode counts out of range")
    return counts


def _check_finite(z: complex, what: str) -> None:
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite {what}: {z!r}")


@dataclass(frozen=True, slots=True)
class Branch:
    """One superposition term: photon in ``mode``, probes in coherent states.

    ``mode`` is always a single index; a branch never holds the photon in a
    superposition of modes (that is what multiple branches are for).
    """

    mode: int
    amp: complex
    probes: tuple[complex, ...]

    def __post_init__(self) -> None:
        _set_mode(self, _check_mode("branch mode", self.mode))
        amp = complex(self.amp)
        probes = tuple(map(complex, self.probes))
        _set_amp(self, amp)
        _set_probes(self, probes)
        _check_finite(amp, "branch amplitude")
        for p in probes:
            _check_finite(p, "probe amplitude")


# Trusted construction writes each field straight through its slot
# descriptor's ``__set__``, bound once here: the frozen ``__setattr__`` and
# ``object.__setattr__``'s lookup by name are both skipped.  ``_set`` serves
# the dict-backed classes (``Circuit``, a column state's ``_cols``).
_new = object.__new__
_set = object.__setattr__
_set_mode, _set_amp, _set_probes = Branch.mode.__set__, Branch.amp.__set__, Branch.probes.__set__


def _branch(mode: int, amp: complex, probes: tuple[complex, ...]) -> Branch:
    """A :class:`Branch` of already checked values, stored without coercion."""
    br = _new(Branch)
    _set_mode(br, mode)
    _set_amp(br, amp)
    _set_probes(br, probes)
    return br


@dataclass(frozen=True, slots=True)
class HybridState:
    """Superposition of :class:`Branch` terms over M system and K probe modes."""

    m_modes: int
    k_probes: int
    branches: tuple[Branch, ...]

    #: The column form (modes, amplitudes, probes) of a :class:`_ColumnState`,
    #: else None: the one check that picks a state's code path.
    _cols = None

    def __post_init__(self) -> None:
        m_modes, k_probes = _check_counts(self.m_modes, self.k_probes)
        _set_m_modes(self, m_modes)
        _set_k_probes(self, k_probes)
        _set_branches(self, tuple(self.branches))
        for br in self.branches:
            _check_mode("branch mode", br.mode, self.m_modes)
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
        return _state(self.m_modes, self.k_probes, kept)

    def scaled(self, factor: complex) -> "HybridState":
        factor = complex(factor)
        return _state(self.m_modes, self.k_probes, tuple(_scale_branches(self.branches, factor)))

    def normalized(self) -> "HybridState":
        n = self.norm_sq()
        if n <= 0.0:
            raise ValueError("cannot normalize a null state")
        return self.scaled(1.0 / math.sqrt(n))


_set_m_modes, _set_k_probes, _set_branches = (
    HybridState.m_modes.__set__, HybridState.k_probes.__set__, HybridState.branches.__set__)


def _state(m_modes: int, k_probes: int, branches: tuple[Branch, ...]) -> HybridState:
    """A :class:`HybridState` of branches already checked against (M, K)."""
    state = _new(HybridState)
    _set_m_modes(state, m_modes)
    _set_k_probes(state, k_probes)
    _set_branches(state, branches)
    return state


class _ColumnState(HybridState):
    """A :class:`HybridState` the engine built from columns; ``branches`` is built when read.

    A subclass, so that only these states pay for the lookup hook: ``==``,
    ``hash``, ``repr``, ``copy`` and pickling treat it as the
    :class:`HybridState` of its branches.  It keeps an instance
    ``__dict__`` for ``_cols``.
    """

    def __getattr__(self, name: str):
        # Reached only where normal lookup fails: the unset ``branches``
        # slot, filled on first read and kept.
        if name != "branches":
            raise AttributeError(f"'HybridState' object has no attribute {name!r}")
        branches = tuple(_column_branches(self._cols))
        _set_branches(self, branches)
        return branches

    def __eq__(self, other):
        if not isinstance(other, HybridState):
            return NotImplemented
        return (self.m_modes, self.k_probes, self.branches) == (
            other.m_modes, other.k_probes, other.branches
        )

    __hash__ = HybridState.__hash__

    def __repr__(self) -> str:
        return (f"HybridState(m_modes={self.m_modes!r}, k_probes={self.k_probes!r}, "
                f"branches={self.branches!r})")

    def __reduce__(self):
        return HybridState, (self.m_modes, self.k_probes, self.branches)


def _column_state(m_modes: int, k_probes: int, cols: tuple) -> HybridState:
    """A :class:`_ColumnState` of checked columns."""
    state = _new(_ColumnState)
    _set_m_modes(state, m_modes)
    _set_k_probes(state, k_probes)
    _set(state, "_cols", cols)
    return state


def _mode_probe_columns(branches: Sequence[Branch], k_probes: int) -> tuple:
    """The modes and probes (n x K) of ``branches`` as arrays."""
    import numpy as np

    n = len(branches)
    probes = np.fromiter(chain.from_iterable([br.probes for br in branches]), complex, n * k_probes)
    return np.fromiter([br.mode for br in branches], np.intp, n), probes.reshape(n, k_probes)


def _columns(state: HybridState) -> tuple:
    """The column form of ``state``: modes, amplitudes and probes (n x K), kept or built."""
    import numpy as np

    cols = state._cols
    if cols is not None:
        return cols
    branches = state.branches
    modes, probes = _mode_probe_columns(branches, state.k_probes)
    return modes, np.fromiter([br.amp for br in branches], complex, len(branches)), probes


def _count(state: HybridState) -> int:
    """The number of branches of ``state``, without building them."""
    cols = state._cols
    return len(state.branches) if cols is None else len(cols[0])


def _column_branches(cols: tuple, rows=None):
    """The :class:`Branch` of every row (or of each of ``rows``) of ``cols``, bit for bit."""
    modes, amps, probes = cols if rows is None else _take(cols, rows)
    return map(_branch, modes.tolist(), amps.tolist(), zip(*probes.T.tolist()))


def _take(cols: tuple, rows) -> tuple:
    """Rows ``rows`` (an index array or list) of ``cols``, in that order."""
    modes, amps, probes = cols
    return modes[rows], amps[rows], probes[rows]


def _times(factor, z):
    """``factor * z`` per element with CPython's bits (see :func:`_cmul`), as complex."""
    import numpy as np

    out = np.empty(np.broadcast(factor, z).shape, complex)
    out.real, out.imag = _cmul(factor.real, factor.imag, z.real, z.imag)
    return out


def _split_columns(state: HybridState, a: int, b: int, u) -> HybridState:
    """A system splitter with matrix ``u`` on modes a and b of a column state, unmerged.

    As in :func:`~qndmzi.elements._split_branches`, a branch in mode a
    becomes (a, u00 amp) then (b, u10 amp) in its place, one in mode b
    becomes (a, u01 amp) then (b, u11 amp), and every other branch stays.
    The products cannot overflow (see there), so this cannot fail.
    """
    import numpy as np

    (u00, u01), (u10, u11) = u
    modes, amps, probes = state._cols
    in_a = modes == a
    splits = in_a | (modes == b)
    if np.count_nonzero(splits) == len(modes):
        # Every branch splits: its copies take slots 2i and 2i + 1.
        out_modes = np.empty(2 * len(modes), np.intp)
        out_modes[0::2], out_modes[1::2] = a, b
        out_amps = _times(np.where(in_a, [[u00], [u10]], [[u01], [u11]]), amps).T.ravel()
        cols = out_modes, out_amps, probes.repeat(2, axis=0)
        return _column_state(state.m_modes, state.k_probes, cols)
    rows = np.repeat(np.arange(len(modes)), splits + 1)
    split = splits.nonzero()[0]
    # Output slots of each split branch's two copies, one row per copy.
    slots = split + np.arange(len(split)) + [[0], [1]]
    factors = np.where(in_a[split], [[u00], [u10]], [[u01], [u11]])
    out_modes, out_amps = modes[rows], amps[rows]
    out_modes[slots] = [[a], [b]]
    out_amps[slots] = _times(factors, amps[split])
    cols = out_modes, out_amps, probes[rows]
    return _column_state(state.m_modes, state.k_probes, cols)


def _scale_columns(state: HybridState, factor: complex, modes, probe) -> HybridState:
    """A column state with amplitudes (or probe ``probe``) times ``factor``, unmerged.

    Only rows whose mode is in ``modes`` change (every row where it is
    None), each by :func:`_cmul` as the per-branch code forms ``factor *
    value``.  Hands over where a value written is not finite.
    """
    import numpy as np

    rows, amps, probes = state._cols
    old = amps if probe is None else probes[:, probe]
    with np.errstate(over="ignore", invalid="ignore"):
        new = _times(factor, old)
    if modes is not None:
        mask = None
        for mode in modes:
            mask = rows == mode if mask is None else mask | (rows == mode)
        new = np.where(mask, new, old)
    if np.count_nonzero(np.isfinite(new)) < len(new):
        raise _HandOver
    if probe is None:
        amps = new
    else:
        probes = probes.copy()
        probes[:, probe] = new
    return _column_state(state.m_modes, state.k_probes, (rows, amps, probes))


def _scale_branches(branches, factor: complex, modes=None, probe=None) -> list:
    """``branches`` with amplitudes (or probe ``probe``) times ``factor``, unmerged.

    Only branches whose mode is in ``modes`` change (every branch where it
    is None).  Raises on a non-finite value written, with the public
    constructors' error.  A changed branch whose probe tuple is the
    previous changed branch's (the same object) shares its new tuple.
    """
    isfinite = cmath.isfinite
    out = []
    old = new = None
    for br in branches:
        if modes is None or br.mode in modes:
            if probe is None:
                amp = factor * br.amp
                if not isfinite(amp):
                    _check_finite(amp, "branch amplitude")
                br = _branch(br.mode, amp, br.probes)
            else:
                if br.probes is not old:
                    old = probes = br.probes
                    p = factor * probes[probe]
                    if not isfinite(p):
                        _check_finite(p, "probe amplitude")
                    new = probes[:probe] + (p,) + probes[probe + 1:]
                br = _branch(br.mode, br.amp, new)
        out.append(br)
    return out


def coherent_overlap(a: complex, b: complex) -> complex:
    """Overlap <a|b> of two coherent states.

    exp(-|a|^2/2 - |b|^2/2 + conj(a) b); equals 1 when a == b and has
    magnitude exp(-|a-b|^2/2) <= 1 in general.  An exponent that overflows,
    in ``cmath.exp`` or already in |a|^2 or |b|^2, raises the ``ValueError``
    of :func:`_pair_sum`.
    """
    a = complex(a)
    b = complex(b)
    try:
        overlap = cmath.exp(
            -0.5 * (a.real * a.real + a.imag * a.imag)
            - 0.5 * (b.real * b.real + b.imag * b.imag)
            + a.conjugate() * b
        )
        if cmath.isfinite(overlap):
            return overlap
    except OverflowError:
        pass
    raise ValueError("non-finite inner product: a coherent overlap overflows")


def _pair_sum(
    bra: HybridState,
    ket: HybridState,
    moments: list[complex] | None = None,
    parts: dict[int, complex] | None = None,
) -> complex:
    """Sum over mode-matched branch pairs of conj(amp_u) amp_v prod <u_j|v_j>.

    With ``moments`` given, ``moments[k]`` also receives the probe-``k``
    number matrix element <bra|n_k|ket> for every k: the same terms times
    conj(u_k) v_k, from the same pass.  Inner products, norms and mean photon
    numbers all sum here, so an overflowed coherent overlap raises instead
    of passing on as NaN; one whose exponent overflows ``cmath.exp`` raises
    the same ``ValueError``.  With ``parts`` given, ``parts[m]`` also receives
    <bra|P_m|ket>, unchecked, from the same pass (a mode missing from it
    sums to 0j).

    From ``_GRAM_MIN_PAIRS`` branch pairs on, :func:`_gram_pair_sum` sums
    instead, the moments from the same exponents and each part from its
    mode's blocks, with the bits of the Gram sum for ``ket.project_mode(m)``.
    Below it, the total alone of a pair with a column state on either side
    sums in :func:`_column_pair_sum`, with the loop's bits; everything else
    runs the loop over the branches (a column state's are built).  There the
    overlap is :func:`coherent_overlap` inlined with the same operations in
    the same order, so every sum is bit-equal to calling it, and each part
    is the pass's partial sum, the loop's bits for ``ket.project_mode(m)``;
    -|u|^2/2 and conj(u) are computed once per bra branch, and only when it
    has a mode-matched partner, and each pair's overlaps once for the norm
    and all K moments.  Cost: O(n^2) in the branch pairs either way.
    """
    if bra._cols is not None or ket._cols is not None:
        if _count(bra) * _count(ket) >= _GRAM_MIN_PAIRS:
            return _gram_pair_sum(bra, ket, moments, parts)
        if moments is None and parts is None:
            return _column_pair_sum(bra, ket)
    elif len(bra.branches) * len(ket.branches) >= _GRAM_MIN_PAIRS:
        return _gram_pair_sum(bra, ket, moments, parts)
    exp = cmath.exp
    total = 0j
    if moments is not None:
        moments[:] = [0j] * ket.k_probes
    try:
        for u in bra.branches:
            mode = u.mode
            u_terms = None
            for v in ket.branches:
                if v.mode != mode:
                    continue
                if u_terms is None:
                    u_amp = u.amp.conjugate()
                    u_terms = [
                        (-0.5 * (p.real * p.real + p.imag * p.imag), p.conjugate())
                        for p in u.probes
                    ]
                term = u_amp * v.amp
                if moments is None:
                    for (hu, cu), pv in zip(u_terms, v.probes):
                        term *= exp(hu - 0.5 * (pv.real * pv.real + pv.imag * pv.imag) + cu * pv)
                else:
                    overlaps = [exp(hu - 0.5 * (pv.real * pv.real + pv.imag * pv.imag) + cu * pv)
                                for (hu, cu), pv in zip(u_terms, v.probes)]
                    for k, ((_, cu), pv) in enumerate(zip(u_terms, v.probes)):
                        weighted = term * cu * pv
                        for o in overlaps:
                            weighted *= o
                        moments[k] += weighted
                    for o in overlaps:
                        term *= o
                total += term
                if parts is not None:
                    parts[mode] = parts.get(mode, 0j) + term
    except OverflowError:
        raise ValueError("non-finite inner product: a coherent overlap overflows") from None
    _check_finite(total, "inner product")
    for moment in moments or ():
        _check_finite(moment, "inner product")
    return total


def _column_pair_sum(bra: HybridState, ket: HybridState) -> complex:
    """:func:`_pair_sum`'s total below ``_GRAM_MIN_PAIRS`` pairs, on columns, with the loop's bits.

    numpy finds the mode-matched pairs (u, v), in the loop's bra-major
    order, and forms each pair's overlap exponents by the loop's own float
    operations (as :func:`_cmul` does; a float plus a complex adds 0.0 to
    the imaginary part).  The rest runs on Python complex values, probe by
    probe: each pair's term conj(a_u) a_v is multiplied by ``cmath.exp`` of
    its probe-k exponent for k = 0, 1, ..., as the loop multiplies it, and
    the terms are summed from 0j in pair order.  So the total is the loop's,
    and an overflow raises the loop's error.
    """
    import numpy as np

    u_modes, u_amps, u_probes = _columns(bra)
    v_modes, v_amps, v_probes = _columns(ket) if ket is not bra else (u_modes, u_amps, u_probes)
    us, vs = (u_modes[:, None] == v_modes).nonzero()
    terms = list(map(operator.mul, u_amps[us].conj().tolist(), v_amps[vs].tolist()))
    e = np.empty(len(us), complex)
    try:
        for k in range(ket.k_probes):
            pu, p = u_probes[us, k], v_probes[vs, k]
            ur, ui, vr, vi = pu.real, pu.imag, p.real, p.imag
            # conj(u) * v, with CPython's bits: re ur vr - (-ui) vi, im ur vi + (-ui) vr.
            with np.errstate(over="ignore", invalid="ignore"):
                half = 0.5 * (vr * vr + vi * vi)
                e.real = -0.5 * (ur * ur + ui * ui) - half + (ur * vr + ui * vi)
                e.imag = 0.0 + (ur * vi - ui * vr)
            terms = list(map(operator.mul, terms, map(cmath.exp, e.tolist())))
    except OverflowError:
        raise ValueError("non-finite inner product: a coherent overlap overflows") from None
    total = 0j
    for term in terms:
        total += term
    _check_finite(total, "inner product")
    return total


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) on float arrays, as CPython forms a complex product.

    numpy's complex ``*`` may round differently from CPython's; this form
    gives CPython's bits on every element of a column.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _each(value):
    """The values of ``value`` at successive points: a list as it is, a fixed value repeated."""
    return value if type(value) is list else repeat(value)


def _per_point(f, x, y=None):
    """``f(x)``, or ``f(x, y)`` where ``y`` is given, at each point of a batch axis.

    A value on the axis (a sweep's points) is a Python number where it is
    the same at every point (fixed), else a list of one per point.
    """
    if y is None:
        return list(map(f, x)) if type(x) is list else f(x)
    if type(x) is list:
        return list(map(f, x, _each(y)))
    return list(map(f, repeat(x), y)) if type(y) is list else f(x, y)


def _require(f, value):
    """``value``; hands over unless ``f(value)`` holds at every point (see :func:`_per_point`)."""
    if not (all(map(f, value)) if type(value) is list else f(value)):
        raise _HandOver
    return value


def _sum_of_product(acc, *factors):
    """``acc + factors[0] * factors[1] * ...`` at each point, multiplied left to right, in one pass."""
    if list not in map(type, (acc, *factors)):
        return acc + reduce(operator.mul, factors)
    product = _each(factors[0])
    for f in factors[1:]:
        product = map(operator.mul, product, _each(f))
    return list(map(operator.add, _each(acc), product))


def _halves(p):
    """|p|^2/2 at each point, as :func:`_pair_sum` forms it (its -0.5 * |u|^2 is the negation)."""
    if type(p) is list:
        return [0.5 * (z.real * z.real + z.imag * z.imag) for z in p]
    return 0.5 * (p.real * p.real + p.imag * p.imag)


def _batch_overlaps(bra: list, ket: list) -> list:
    """The coherent overlaps of every mode-matched pair of rows over a batch axis.

    A row is (mode, amp, probes) of values on the axis (:func:`_per_point`).
    Returns (i, j, conj, overlaps) per pair of bra row i and ket row j, in
    the loop's bra-major order, with conj(u_k) and <u_k|v_k> per probe by
    :func:`_pair_sum`'s expressions; |p|^2/2 and conj(u) are formed once per
    row.  Hands over from ``_GRAM_MIN_PAIRS`` pairs on and where ``cmath.exp`` raises.
    """
    if len(bra) * len(ket) >= _GRAM_MIN_PAIRS:
        raise _HandOver
    exp = cmath.exp
    halves = [[_halves(p) for p in probes] for _, _, probes in ket]
    bra_halves = halves if bra is ket else [[_halves(p) for p in probes] for _, _, probes in bra]
    pairs = []
    try:
        for i, ((mode, _, u_probes), u_halves) in enumerate(zip(bra, bra_halves)):
            conj = None
            for j, ((v_mode, _, v_probes), v_halves) in enumerate(zip(ket, halves)):
                if v_mode != mode:
                    continue
                conj = conj or [_per_point(complex.conjugate, p) for p in u_probes]
                overlaps = []
                for hu, hv, cu, pv in zip(u_halves, v_halves, conj, v_probes):
                    if type(hu) is list or type(hv) is list:
                        hu, hv, cu, pv = map(_each, (hu, hv, cu, pv))
                        overlaps.append([exp(-x - y + c * v) for x, y, c, v in zip(hu, hv, cu, pv)])
                    else:
                        overlaps.append(exp(-hu - hv + cu * pv))
                pairs.append((i, j, conj, overlaps))
    except (OverflowError, ValueError):
        raise _HandOver from None
    return pairs


def _batch_pair_sum(bra: list, ket: list, pairs: list | None = None, moments: bool = False):
    """:func:`_pair_sum` of rows over a batch axis; hands over where it fails or is not finite.

    ``pairs`` (formed where None) are the :func:`_batch_overlaps` of these
    rows or of rows with the same modes and probes.  Returns the sum and,
    with ``moments``, the K probe moments, by the loop's operations in its
    order, so each point gets the bits :func:`_pair_sum` gives its state;
    conj(a_u) is formed once per bra row.
    """
    pairs = _batch_overlaps(bra, ket) if pairs is None else pairs
    total = 0j
    sums = [0j] * (len(ket[0][2]) if moments and ket else 0)
    u_amps = [_per_point(complex.conjugate, amp) for _, amp, _ in bra]
    for i, j, conj, overlaps in pairs:
        term = _per_point(operator.mul, u_amps[i], ket[j][1])
        for k, (cu, pv) in enumerate(zip(conj, ket[j][2]) if sums else ()):
            sums[k] = _sum_of_product(sums[k], term, cu, pv, *overlaps)
        total = _sum_of_product(total, term, *overlaps)
    return _require(cmath.isfinite, total), [_require(cmath.isfinite, s) for s in sums]


def _gram_pair_sum(bra: HybridState, ket: HybridState, moments=None, parts=None) -> complex:
    """:func:`_pair_sum` as one Gram matrix per mode that both sides hold.

    For the n bra and m ket branches of one mode, the probes form U (n x K)
    and V (m x K), and the exponent matrix is the sum over probes j of
    hu[:, j, None] + hv[None, :, j] + outer(conj(U[:, j]), V[:, j]), with
    hu = -|U|^2/2 and hv = -|V|^2/2 elementwise: each probe's exponent is
    the loop's, bit for bit, but the block takes one ``exp`` per pair.  The
    block's sum is w_u . exp(E) . w_v, at most ``_GRAM_BLOCK`` entries at a
    time, for each pair of weight rows: (conj(a_u), a_v) for the total and,
    with ``moments`` given, (conj(a_u) conj(u_k), a_v v_k) for
    ``moments[k]``, all from the one ``exp(E)``.  A block holds one mode, so
    with ``parts`` given, ``parts[m]`` is mode m's total-weight sums added
    from 0j: the bits of this sum for ``ket.project_mode(m)``.  Only ufuncs
    and ``einsum`` run here, never BLAS, whose threads would contend for a
    process pinned to one core.  Overflow gives inf or NaN without a
    warning and raises in the finite checks at the end, the total's first;
    ``parts`` are left unchecked, as the loop leaves them.
    """
    import numpy as np

    bras = _mode_blocks(bra)
    kets = bras if ket is bra else _mode_blocks(ket)
    sums = [0j] * (1 + (ket.k_probes if moments is not None else 0))
    with np.errstate(over="ignore", invalid="ignore"):
        for mode, (cu, a_u) in bras.items():
            if mode not in kets:
                continue
            V, a_v = kets[mode]
            cu, a_u = cu.conj(), a_u.conj()
            weights = [(a_u, a_v)]
            weights += [(a_u * cu[:, k], a_v * V[:, k]) for k in range(len(sums) - 1)]
            hu = -0.5 * (cu.real * cu.real + cu.imag * cu.imag)
            hv = -0.5 * (V.real * V.real + V.imag * V.imag)
            rows = max(1, _GRAM_BLOCK // len(a_v))
            part = 0j
            for i in range(0, len(a_u), rows):
                block = slice(i, i + rows)
                E = np.zeros((len(hu[block]), len(a_v)), dtype=complex)
                for j in range(ket.k_probes):
                    E += hu[block, j, None] + hv[None, :, j] + cu[block, j, None] * V[:, j]
                np.exp(E, out=E)
                chunk = [complex(np.einsum("i,ij,j->", w_u[block], E, w_v)) for w_u, w_v in weights]
                part += chunk[0]
                sums = list(map(operator.add, sums, chunk))
            if parts is not None:
                parts[mode] = part
    for z in sums:
        _check_finite(z, "inner product")
    if moments is not None:
        moments[:] = sums[1:]
    return sums[0]


def _mode_blocks(state: HybridState) -> dict:
    """mode -> (probes, n x K, and amplitudes as complex arrays), modes in order of first use."""
    import numpy as np

    modes, amps, probes = _columns(state)
    found, first = np.unique(modes, return_index=True)
    blocks = {}
    for mode in found[np.argsort(first)].tolist():
        rows = (modes == mode).nonzero()[0]
        blocks[mode] = probes[rows], amps[rows]
    return blocks


def inner_product(bra: HybridState, ket: HybridState) -> complex:
    """<bra|ket> with the first argument treated as the bra side.

    Branch pairs with different photon modes are orthogonal and drop out;
    matching pairs contribute conj(amp_bra) * amp_ket times the product of
    coherent overlaps of their probe amplitudes.
    """
    _check_shape(bra, ket)
    return _pair_sum(bra, ket)


def _canonical_key(br: Branch) -> tuple[int, tuple[tuple[float, float], ...]]:
    return (br.mode, tuple([(p.real, p.imag) for p in br.probes]))


_mode_of = operator.attrgetter("mode")


def _nonempty(amp: complex) -> bool:
    """Whether a branch of amplitude ``amp`` survives the merge: |amp| >= MERGE_TOL."""
    try:
        return abs(amp) >= MERGE_TOL
    except OverflowError:
        # Finite parts whose modulus exceeds the float range: far from
        # empty.  Kept, so the next norm reports the overflow.
        return True


def merge_branches(state: HybridState) -> HybridState:
    """Combine duplicate branches, drop empty ones, sort canonically.

    Branches with equal mode and probe amplitudes within :data:`MERGE_TOL`
    (absolute, per component) are summed; branches with
    ``|amp| < MERGE_TOL`` are removed.  The result is sorted by mode, then
    lexicographically by probe amplitudes, so equal states compare equal
    branch-for-branch.

    A state that one pass finds canonical already (branches in distinct,
    increasing modes, every ``|amp| >= MERGE_TOL``) comes back as it is,
    the same object; an amplitude whose modulus overflows ends that pass.
    Other states in distinct modes, at most M branches, cannot merge: they
    are only filtered and sorted by mode, their canonical order.

    Merging is greedy in input order: a branch joins the earliest group
    (the first branch of each group fixes its probes) that it matches, or
    starts a new one, so a branch within tolerance of two groups joins the
    earlier.  A |a - b| that overflows exceeds the tolerance.  A branch
    scans only the earlier groups of its mode, or, from ``_MERGE_SCAN_MAX``
    branches on with K > 0, of its run of sorted neighbours in
    :func:`_column_merge`, whose result keeps the column form from
    ``_MERGE_SORT_MIN`` branches on.  At worst a merge costs O(run length x
    groups in the run) per run, a mode below the bound counting as one run.
    Every path gives the same groups, sums and order, bit for bit.
    """
    cols = state._cols
    if cols is not None and len(cols[0]) > state.m_modes:
        return _column_merge(state)
    branches = state.branches
    last = -1
    try:
        for br in branches:
            if br.mode <= last or abs(br.amp) < MERGE_TOL:
                break
            last = br.mode
        else:
            return state
    except OverflowError:
        pass
    if len(branches) <= state.m_modes and len({br.mode for br in branches}) == len(branches):
        kept = [br for br in branches if _nonempty(br.amp)]
        kept.sort(key=_mode_of)
        return _state(state.m_modes, state.k_probes, tuple(kept))
    if len(branches) >= _MERGE_SCAN_MAX and state.k_probes:
        return _column_merge(state)
    kept = [g for g in _merge_groups(branches).values() if _nonempty(g.amp)]
    # In distinct modes the mode alone gives the canonical order.
    kept.sort(key=_mode_of if len({g.mode for g in kept}) == len(kept) else _canonical_key)
    return _state(state.m_modes, state.k_probes, tuple(kept))


def _same_probes(ps: tuple[complex, ...], qs: tuple[complex, ...]) -> bool:
    """Whether each pair of probe amplitudes lies within :data:`MERGE_TOL`.

    A difference whose modulus overflows lies far outside it.  The same
    tuple (the element steps share one) matches at once, as the loop would
    find: a value less itself is 0 or NaN, never above the tolerance.
    """
    if ps is qs:
        return True
    try:
        for a, b in zip(ps, qs):
            if abs(a - b) > MERGE_TOL:
                return False
    except OverflowError:
        return False
    return True


def _merge_owners(branches: Sequence[Branch], buckets: Sequence | None = None) -> list[int]:
    """The greedy grouping of :func:`merge_branches`, read from modes and probes alone.

    Entry i is the position in ``branches`` of the first member of the
    group that branch i joins (i itself where it starts one).  A branch
    compares only with the earlier groups of its bucket: ``buckets[i]``, or
    its mode where ``buckets`` is None.  Branches in distinct buckets must
    be unable to merge.
    """
    owners: list[int] = []
    firsts: dict = {}
    for pos, br in enumerate(branches):
        probes = br.probes
        earlier = firsts.setdefault(br.mode if buckets is None else buckets[pos], [])
        for i in earlier:
            if _same_probes(branches[i].probes, probes):
                owners.append(i)
                break
        else:
            earlier.append(pos)
            owners.append(pos)
    return owners


def _merge_groups(branches: Sequence[Branch], buckets: Sequence | None = None) -> dict[int, Branch]:
    """The greedy groups of :func:`merge_branches`, unfiltered and unsorted.

    Each group is keyed by the position of its first member in ``branches``,
    and the keys come in input order.  A group's amplitude sums its members'
    in input order.  ``buckets`` is as in :func:`_merge_owners`.
    """
    groups: dict[int, Branch] = {}
    for br, first in zip(branches, _merge_owners(branches, buckets)):
        g = groups.get(first)
        if g is None:
            groups[first] = br
        else:
            amp = g.amp + br.amp
            _check_finite(amp, "branch amplitude")
            groups[first] = _branch(g.mode, amp, g.probes)
    return groups


def _merge_rows(rows: list) -> list:
    """:func:`merge_branches` of rows over a batch axis (see :func:`_batch_overlaps`).

    Rows in distinct modes cannot merge.  Otherwise every probe must be
    fixed, and :func:`_merge_owners` groups the rows once for all points; a
    group sums its amplitudes as :func:`_merge_groups` does.  Rows are
    dropped (by :func:`_nonempty` at each point) and sorted as the per-point
    merge does.  Hands over where the points would not share the result or
    the per-point merge would raise: a varying probe in a shared mode, a
    non-finite sum, or a row kept at some points only.
    """
    shared = len({row[0] for row in rows}) < len(rows)
    if shared:
        if any(type(p) is list for row in rows for p in row[2]):
            raise _HandOver
        groups: dict[int, tuple] = {}
        for row, first in zip(rows, _merge_owners([_branch(m, None, ps) for m, _, ps in rows])):
            g = groups.get(first)
            if g is not None:
                row = g[0], _require(cmath.isfinite, _per_point(operator.add, g[1], row[1])), g[2]
            groups[first] = row
        rows = list(groups.values())
    kept = []
    for row in rows:
        keep = set(map(_nonempty, row[1])) if type(row[1]) is list else {_nonempty(row[1])}
        if len(keep) > 1:
            raise _HandOver
        if all(keep):
            kept.append(row)
    # By mode, then (in a shared mode, where probes are fixed) as _canonical_key sorts.
    kept.sort(key=lambda row: (row[0], [(p.real, p.imag) for p in row[2]] if shared else None))
    return kept


def _column_merge(state: HybridState) -> HybridState:
    """:func:`merge_branches` of a state of ``_MERGE_SCAN_MAX`` branches or more with K > 0.

    Runs on the column form, built from the branches if the state has none.
    One ``np.lexsort`` puts the rows in canonical order (mode, then Re p0,
    Im p0, Re p1, ...; ties keep input order, as ``list.sort`` does).
    Within a mode, Re(probes[0]) never decreases along that order, so the
    gap to a sorted neighbour, taken with the merge test's own subtraction,
    is the smallest gap to any row on that side.  Gaps above
    :data:`MERGE_TOL` split the sorted rows into runs, and rows in distinct
    runs cannot merge, since ``abs(a - b) >= abs(Re(a - b))``.
    :func:`_merge_groups` runs on the rows of runs of two or more alone, in
    input order, with the run as the bucket, and each group takes its first
    member's sorted slot; every other row is a group of its own.  So
    groups, amplitude sums, finite checks, drops and order are those of the
    scan on the whole state.  A gap that overflows is inf, not a warning.
    The result keeps columns from ``_MERGE_SORT_MIN`` branches on; below,
    its branches are built, reusing any :class:`Branch` at hand.
    """
    import numpy as np

    m_modes, k_probes = state.m_modes, state.k_probes
    cols = state._cols
    if cols is None:
        # Amplitudes are read from the branches only if the result keeps columns.
        branches = state.branches
        modes, probes = _mode_probe_columns(branches, k_probes)
        amps = None
    else:
        branches = None
        modes, amps, probes = cols
    keys = [modes]
    for p in probes.T:
        keys += [p.real, p.imag]
    order = np.lexsort(keys[::-1])
    ranked, re0 = modes[order], probes[order, 0].real
    with np.errstate(over="ignore"):
        close = (ranked[1:] == ranked[:-1]) & (re0[1:] - re0[:-1] <= MERGE_TOL)
    # The rows that may merge, in input order, and their groups by position.
    members: list[int] = []
    groups: dict[int, Branch] = {}
    if np.count_nonzero(close):
        candidate = np.zeros(len(modes), dtype=bool)
        candidate[1:] = close
        candidate[:-1] |= close
        runs = np.zeros(len(modes), dtype=np.intp)
        runs[order[1:]] = np.cumsum(~close)
        rows = np.sort(order[candidate])
        members = rows.tolist()
        found = [branches[i] for i in members] if branches else list(_column_branches(cols, rows))
        groups = _merge_groups(found, runs[rows].tolist())
    if len(order) - len(members) + len(groups) < _MERGE_SORT_MIN:
        slots: list[Branch | None] = list(branches or _column_branches(cols))
        for pos, i in enumerate(members):
            slots[i] = groups.get(pos)
        return _state(m_modes, k_probes, tuple(
            [br for br in map(slots.__getitem__, order.tolist()) if br is not None and _nonempty(br.amp)]
        ))
    if amps is None:
        amps = np.fromiter([br.amp for br in branches], complex, len(branches))
    if members:
        amps = amps.copy()
        for pos, i in enumerate(members):
            if pos in groups:
                amps[i] = groups[pos].amp
        order = order[~np.isin(order, [i for pos, i in enumerate(members) if pos not in groups])]
    cols = _take((modes, amps, probes), order)
    with np.errstate(over="ignore"):
        size = np.abs(cols[1])
    # np.abs and abs may round apart, so a size near MERGE_TOL takes abs.
    keep = size >= 2.0 * MERGE_TOL
    if np.count_nonzero(keep) < len(keep):
        for j in (~keep & (size >= 0.5 * MERGE_TOL)).nonzero()[0].tolist():
            keep[j] = _nonempty(complex(cols[1][j]))
        rows = keep.nonzero()[0]
        if len(rows) < _MERGE_SORT_MIN:
            return _state(m_modes, k_probes, tuple(_column_branches(cols, rows)))
        cols = _take(cols, rows)
    return _column_state(m_modes, k_probes, cols)
