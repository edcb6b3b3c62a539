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

Cost model for n branches: :func:`merge_branches` is greedy in input order,
in one pass over the branches.  Each branch sums into the earliest group of
its bucket whose first member's probes it matches, or starts a new group,
so a branch within tolerance of two groups joins the earlier.  A state
already canonical (distinct modes in increasing order, no amplitude
to drop) costs one pass and comes back as it is, with nothing built.  Below
``_COLUMN_MIN`` branches, and for every state with K = 0, the bucket is the
branch's mode, and groups left in distinct modes sort by mode alone.  From
there on (with K > 0), the merge runs on the column form: one
``np.lexsort`` into canonical order comes first, and the bucket is the
branch's run of sorted same-mode neighbours, each within :data:`MERGE_TOL`
of the next along Re(probes[0]); a branch alone in its run cannot merge and
keeps its sorted slot.  Either way a merge costs at worst O(run length x
groups in the run) summed over its buckets, a mode counting as one run; a
state that cannot merge costs one O(n log n) sort and a fixed number of
numpy calls.  The per-branch element steps map branches that share a probe
tuple (a system splitter's two outputs) to one new tuple, which the merge
matches by identity.

The pair sum behind :func:`inner_product` is O(n^2) work either way: below
``_GRAM_MIN_PAIRS`` branch pairs it is a Python loop, bit-equal to summing
:func:`coherent_overlap` terms; from there on it is one numpy Gram matrix
per mode block, equal to the loop up to rounding.  Either path also gives
<bra|P_m|ket> per mode or <bra|n_k|ket> per probe in the same pass: a
moment is one more weight row on each block, and a part is its mode's
block sums, since a block holds one mode.  A sweep needs no code of its
own here: it takes a fixed number of states and pair sums, whatever its
number of points (:mod:`qndmzi.analysis`).

The hand-over.  A column step that cannot give the per-branch step's
bits, or would meet a value that step raises on, raises
:class:`_HandOver`.  One ``except``, in ``elements._step`` around the
column step alone, runs the per-branch step instead, which gives those
bits or raises its own error; no public function raises it.

The column form serves branch growth, where system splitters and Kerr
marks keep doubling and marking branches.  A state the engine builds with
``_COLUMN_MIN`` branches or more and K > 0 (a column step's unmerged
output or a merge result) is a private :class:`_ColumnState`: its modes
(int[n]), amplitudes (complex[n]) and probes (complex[n, K]) are numpy
columns, and its ``branches`` are built on first read and kept, so ``==``,
``hash``, ``repr``, ``copy`` and pickling see the same :class:`HybridState`
as before.  The two steps such a chain repeats (a system splitter that
splits every branch, and a Kerr mark), :func:`merge_branches`, the Gram
pair sum and the pair sum's total below it act on the columns with the
per-branch code's bits: every complex product is formed by :func:`_times`
on real and imaginary parts, every overlap by ``cmath.exp``, and every sum
is added in the loop's order.  Every other step (a splitter that leaves a
branch in place, a phase shift, a probe splitter), projections, scaled
copies, and moments and parts below ``_GRAM_MIN_PAIRS`` pairs run on the
built branches, as does a column step where a value would not be finite,
and the merge after them returns a large result to columns.  Which code
a state takes is one O(1) check of ``_cols``, None on every other state.
Building the branches of a large state costs more than a column step on
it, so they are built only when read, not at every stage.
numpy is imported inside the column and Gram helpers, on first use: by a
state of ``_COLUMN_MIN`` branches or more with K > 0, by the Gram pair sum
and by the CLI, which imports it at module level.  The paper's apparatus,
its sweeps, the two-state report and the circuit file format never do.

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
from itertools import chain
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

#: Branch count from which :func:`merge_branches` (with K > 0) sorts with
#: numpy and scans only the runs of sorted neighbours, and from which its
#: result keeps the column form (module docstring); below it, a branch scans
#: the earlier groups of its mode.  On Kerr-chain states that cannot merge
#: the scan takes about 17 us at 8 branches against 20 us for the sorted
#: pass, and 47 us at 16 against 22 us.  Where nearly every branch merges
#: the columns only add their numpy setup: ``run_both`` of a chain whose 10
#: to 32 branches nearly halve at every merge takes 1.5-1.6x as long as
#: with results of fewer than 32 branches kept as branches, and a deep
#: chain whose branches survive 0.98x (one core of a 2-vCPU Xeon, Python
#: 3.11.7, numpy 2.4.6).
_COLUMN_MIN = 16

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
        raise ValueError(f"{what} {mode!r} is not an integer") from None
    if m_modes is not None and not 0 <= index < m_modes:
        raise IndexError(f"{what} {mode!r} outside [0, {m_modes})")
    return index


def _check_counts(m_modes: int, k_probes: int) -> tuple[int, int]:
    """The mode counts as ints; raises unless M >= 1 and K >= 0 are integers."""
    try:
        counts = operator.index(m_modes), operator.index(k_probes)
    except TypeError:
        raise ValueError(f"mode counts {m_modes!r} and {k_probes!r} must be integers") from None
    if counts[0] < 1 or counts[1] < 0:
        raise ValueError(f"mode counts {counts[0]!r} and {counts[1]!r} out of range")
    return counts


def _complex(what: str, value) -> complex:
    """``value`` as a complex; ``ValueError`` unless it is a number in the float range.

    numpy scalars are numbers; None, a string and bytes are not (the CLI
    parses text with :func:`~qndmzi.fileformat.parse_complex` first).
    """
    if type(value) is complex:
        return value
    if not isinstance(value, str):
        try:
            return complex(value)
        except OverflowError:
            raise ValueError(f"{what} lies beyond the float range") from None
        except TypeError:
            pass
    raise ValueError(f"{what} {value!r} is not a complex number")


def _collection(what: str, value) -> tuple:
    """The items of ``value`` as a tuple; ``ValueError`` unless it is iterable and not str or bytes."""
    if type(value) is tuple:
        return value
    try:
        if isinstance(value, (str, bytes, bytearray)):
            raise TypeError
        items = iter(value)
    except TypeError:
        raise ValueError(f"{what} {value!r} is not a collection") from None
    return tuple(items)


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
        amp = _complex("branch amplitude", self.amp)
        probes = tuple([_complex("probe amplitude", p) for p in _collection("probes", self.probes)])
        _set_amp(self, amp)
        _set_probes(self, probes)
        _check_finite(amp, "branch amplitude")
        for p in probes:
            _check_finite(p, "probe amplitude")


# Trusted construction writes each field straight through its slot
# descriptor's ``__set__``, bound once here: the frozen ``__setattr__`` and
# ``object.__setattr__``'s lookup by name are both skipped.  ``_set`` serves
# the dict-backed classes (a trace, an element's constants, a column state's
# ``_cols``); a copy of a template fills its instance dict in one update.
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
        _set_branches(self, _collection("branches", self.branches))
        for br in self.branches:
            if not isinstance(br, Branch):
                raise ValueError(f"branch {br!r} is not a Branch")
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
        probes = tuple([_complex("probe amplitude", p) for p in _collection("probes", probes)])
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
        factor = _complex("scale factor", factor)
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


def _columns(state: HybridState) -> tuple:
    """The column form of ``state``: modes, amplitudes and probes (n x K), kept or built."""
    import numpy as np

    cols = state._cols
    if cols is not None:
        return cols
    branches, n, k = state.branches, len(state.branches), state.k_probes
    probes = np.fromiter(chain.from_iterable([br.probes for br in branches]), complex, n * k)
    return (np.fromiter([br.mode for br in branches], np.intp, n),
            np.fromiter([br.amp for br in branches], complex, n), probes.reshape(n, k))


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
    """``factor * z`` per element of numpy arrays, as complex, with CPython's bits.

    numpy's complex ``*`` may round differently from CPython's; the parts
    fr zr - fi zi and fr zi + fi zr, formed on floats, are CPython's.
    """
    import numpy as np

    out = np.empty(np.broadcast(factor, z).shape, complex)
    fr, fi, zr, zi = factor.real, factor.imag, z.real, z.imag
    out.real, out.imag = fr * zr - fi * zi, fr * zi + fi * zr
    return out


def _split_columns(state: HybridState, a: int, b: int, u) -> HybridState:
    """A system splitter with matrix ``u`` on modes a and b of a column state, unmerged.

    As in :func:`~qndmzi.elements._split_branches`, a branch in mode a
    becomes (a, u00 amp) then (b, u10 amp) in its place, and one in mode b
    becomes (a, u01 amp) then (b, u11 amp).  Hands over unless every branch
    sits in mode a or b.  The products cannot overflow (see there).
    """
    import numpy as np

    (u00, u01), (u10, u11) = u
    modes, amps, probes = state._cols
    in_a = modes == a
    if np.count_nonzero(in_a | (modes == b)) < len(modes):
        raise _HandOver
    # The copies of branch i take slots 2i and 2i + 1.
    out_modes = np.empty(2 * len(modes), np.intp)
    out_modes[0::2], out_modes[1::2] = a, b
    out_amps = _times(np.where(in_a, [[u00], [u10]], [[u01], [u11]]), amps).T.ravel()
    cols = out_modes, out_amps, probes.repeat(2, axis=0)
    return _column_state(state.m_modes, state.k_probes, cols)


def _scale_columns(state: HybridState, factor: complex, modes, probe: int) -> HybridState:
    """A Kerr mark on a column state, unmerged: probe ``probe`` times ``factor`` in rows of ``modes``.

    Each value changes by :func:`_times`, as the per-branch code forms
    ``factor * value``.  Hands over where a value written is not finite.
    """
    import numpy as np

    rows, amps, probes = state._cols
    old = probes[:, probe]
    marked = reduce(operator.or_, [rows == mode for mode in modes])
    with np.errstate(over="ignore", invalid="ignore"):
        new = np.where(marked, _times(factor, old), old)
    if np.count_nonzero(np.isfinite(new)) < len(new):
        raise _HandOver
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
    a = _complex("coherent amplitude", a)
    b = _complex("coherent amplitude", b)
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
    operations (as :func:`_times` does; a float plus a complex adds 0.0 to
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

    Merging is greedy in input order: a branch joins the earliest group
    (the first branch of each group fixes its probes) that it matches, or
    starts a new one, so a branch within tolerance of two groups joins the
    earlier.  A |a - b| that overflows exceeds the tolerance.  A branch
    scans only the earlier groups of its mode, or, in a state of
    ``_COLUMN_MIN`` branches or more with K > 0, of its run of sorted
    neighbours in :func:`_column_merge`.  At worst a merge costs O(run
    length x groups in the run) per run, a mode below the bound counting as
    one run.  Both paths give the same groups, sums and order, bit for bit.
    """
    # A column state has K > 0 and _COLUMN_MIN rows or more.
    if state._cols is not None or state.k_probes and len(state.branches) >= _COLUMN_MIN:
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


def _merge_groups(branches: Sequence[Branch], buckets: Sequence | None = None) -> dict[int, Branch]:
    """The greedy groups of :func:`merge_branches`, unfiltered and unsorted, in one pass.

    A branch compares only with the earlier groups of its bucket:
    ``buckets[i]`` for branch i, or its mode where ``buckets`` is None;
    branches in distinct buckets must be unable to merge.  It sums into the
    earliest group whose first member's probes it matches, or starts a new
    group.  Each group is keyed by the position of its first member in
    ``branches``, and the keys come in input order.  A group's amplitude
    sums its members' in input order.
    """
    groups: dict[int, Branch] = {}
    firsts: dict = {}
    for pos, br in enumerate(branches):
        probes = br.probes
        earlier = firsts.setdefault(br.mode if buckets is None else buckets[pos], [])
        for i in earlier:
            g = groups[i]
            if _same_probes(g.probes, probes):
                amp = g.amp + br.amp
                _check_finite(amp, "branch amplitude")
                groups[i] = _branch(g.mode, amp, g.probes)
                break
        else:
            earlier.append(pos)
            groups[pos] = br
    return groups


def _column_merge(state: HybridState) -> HybridState:
    """:func:`merge_branches` of a state of ``_COLUMN_MIN`` branches or more with K > 0.

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
    A result of ``_COLUMN_MIN`` rows or more keeps the columns; a smaller
    one is built from them as branches.
    """
    import numpy as np

    modes, amps, probes = cols = _columns(state)
    keys = [modes]
    for p in probes.T:
        keys += [p.real, p.imag]
    order = np.lexsort(keys[::-1])
    ranked, re0 = modes[order], probes[order, 0].real
    with np.errstate(over="ignore"):
        close = (ranked[1:] == ranked[:-1]) & (re0[1:] - re0[:-1] <= MERGE_TOL)
    if np.count_nonzero(close):
        # The rows that may merge, in input order, and their groups by position.
        candidate = np.zeros(len(modes), dtype=bool)
        candidate[1:] = close
        candidate[:-1] |= close
        runs = np.zeros(len(modes), dtype=np.intp)
        runs[order[1:]] = np.cumsum(~close)
        rows = np.sort(order[candidate])
        members = rows.tolist()
        groups = _merge_groups(list(_column_branches(cols, rows)), runs[rows].tolist())
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
        cols = _take(cols, keep.nonzero()[0])
    if len(cols[0]) < _COLUMN_MIN:
        return _state(state.m_modes, state.k_probes, tuple(_column_branches(cols)))
    return _column_state(state.m_modes, state.k_probes, cols)
