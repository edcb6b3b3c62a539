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
Re(probes[0]) instead of scanning every earlier group.  A state already
canonical (distinct modes in increasing order, no amplitude to drop) costs
one pass and comes back as it is, with nothing built; other branches in
distinct modes cannot merge and skip the index.  Below ``_MERGE_INDEX_MIN``
branches a branch scans the earlier groups instead, O(n^2) but cheaper than
building the index at that size, with the same groups.  Merging is greedy in
input order: a branch within tolerance of two groups joins the earliest.
The cell width ``_CELL`` is derived from :data:`MERGE_TOL`, so a tolerance
that scales with the probe magnitude must rescale the cells too.  From
``_MERGE_SORT_MIN`` branches on, one numpy sort into canonical order comes
first, and the Python index runs only on branches whose sorted same-mode
neighbour lies within :data:`MERGE_TOL` along Re(probes[0]); the rest
cannot merge and keep their sorted slots.  A state that cannot merge then
costs one O(n log n) numpy sort and a few Python steps per branch.  The pair
sum behind :func:`inner_product` is O(n^2) work either way: below
``_GRAM_MIN_PAIRS`` branch pairs it is a Python loop, bit-equal to summing
:func:`coherent_overlap` terms; from there on it is one numpy Gram matrix
per mode block, equal to the loop up to rounding.  Either path also gives
<bra|P_m|ket> per mode or <bra|n_k|ket> per probe in the same call.  Pair
sums and merges over a batch axis take one array pass for all points, with
the loop's bits at each point, since every complex product is written out
on floats as CPython forms it: one branch whose probes run over the axis (a
fringe scan's phases), or branches with fixed probes whose amplitudes run
over it (a leakage sweep's deltas), grouped once for all points.

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
the private ``_branch`` and ``_state`` instead, which store their values
as given.  Their callers keep a finite check only where arithmetic can
overflow, with the same error as the public constructor; every other value
is a complex, an int mode in range or a probe tuple of length K already.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

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

#: Branch count from which :func:`merge_branches` (with K > 0) sorts with
#: numpy first and runs the cell index only on branches that can merge.  On
#: states that cannot merge the sorted pass wins from about 16 branches (33
#: vs 41 us at 16, 40 vs 80 us at 32, 90 vs 361 us at 128, one core of a
#: 2-vCPU Xeon, Python 3.11.7, numpy 2.4.6); where nearly every branch
#: merges it only adds its numpy setup, so the bound sits higher.
_MERGE_SORT_MIN = 32

#: Branch count from which :func:`merge_branches` finds candidate groups
#: through its cell index; below it, a branch scans every earlier group.
#: The scan wins below about 8 branches and loses from about 10 (in us per
#: call where no branch merges: 1.8 vs 2.1 at 5, 4.1 vs 4.0 at 8, 13.0 vs
#: 6.3 at 12; where half the branches merge: 1.6 vs 2.6 at 5, 6.9 vs 5.8
#: at 10; one core of a 2-vCPU Xeon, Python 3.11.7).
_MERGE_INDEX_MIN = 8

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


# Trusted construction sets fields the way the frozen dataclass __init__
# does.  Writing through ``obj.__dict__`` instead would materialize the dict
# and make every later attribute read about 2.5x slower (CPython 3.11).
_new = object.__new__
_set = object.__setattr__


def _branch(mode: int, amp: complex, probes: tuple[complex, ...]) -> Branch:
    """A :class:`Branch` of already checked values, stored without coercion."""
    br = _new(Branch)
    _set(br, "mode", mode)
    _set(br, "amp", amp)
    _set(br, "probes", probes)
    return br


@dataclass(frozen=True)
class HybridState:
    """Superposition of :class:`Branch` terms over M system and K probe modes."""

    m_modes: int
    k_probes: int
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "branches", tuple(self.branches))
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
        branches = tuple(_branch(b.mode, factor * b.amp, b.probes) for b in self.branches)
        for b in branches:
            _check_finite(b.amp, "branch amplitude")
        return _state(self.m_modes, self.k_probes, branches)

    def normalized(self) -> "HybridState":
        n = self.norm_sq()
        if n <= 0.0:
            raise ValueError("cannot normalize a null state")
        return self.scaled(1.0 / math.sqrt(n))


def _state(m_modes: int, k_probes: int, branches: tuple[Branch, ...]) -> HybridState:
    """A :class:`HybridState` of branches already checked against (M, K)."""
    state = _new(HybridState)
    _set(state, "m_modes", m_modes)
    _set(state, "k_probes", k_probes)
    _set(state, "branches", branches)
    return state


def coherent_overlap(a: complex, b: complex) -> complex:
    """Overlap <a|b> of two coherent states.

    exp(-|a|^2/2 - |b|^2/2 + conj(a) b); equals 1 when a == b and has
    magnitude exp(-|a-b|^2/2) <= 1 in general.  An exponent that overflows
    raises the ``ValueError`` of :func:`_pair_sum`.
    """
    a = complex(a)
    b = complex(b)
    try:
        return cmath.exp(
            -0.5 * (a.real * a.real + a.imag * a.imag)
            - 0.5 * (b.real * b.real + b.imag * b.imag)
            + a.conjugate() * b
        )
    except OverflowError:
        raise ValueError("non-finite inner product: a coherent overlap overflows") from None


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
    <bra|P_m|ket>, bit-equal to the sum for ``ket.project_mode(m)`` (a mode
    missing from it sums to 0j).

    From ``_GRAM_MIN_PAIRS`` branch pairs on, :func:`_gram_pair_sum` sums
    instead, once per moment too, and each of ``parts`` is a checked sum of
    its own, in mode order.  Below it, the overlap is :func:`coherent_overlap`
    inlined with the same operations in the same order, so every sum is
    bit-equal to calling it, and ``parts`` holds the pass's unchecked partial
    sums; -|u|^2/2 and conj(u) are computed once per bra branch, and only
    when it has a mode-matched partner, and each pair's overlaps once for
    the norm and all K moments.  Cost: O(n^2) in the branch pairs either way.
    """
    if len(bra.branches) * len(ket.branches) >= _GRAM_MIN_PAIRS:
        total = _gram_pair_sum(bra, ket)
        if moments is not None:
            moments[:] = [_gram_pair_sum(bra, ket, k) for k in range(ket.k_probes)]
        if parts is not None:
            for mode in sorted({br.mode for br in ket.branches}):
                parts[mode] = _pair_sum(bra, ket.project_mode(mode))
        return total
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


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) on floats or float arrays, as CPython forms a complex product.

    numpy's complex ``*`` may round differently from CPython's; this form
    gives CPython's bits on every array element.
    """
    return ar * br - ai * bi, ar * bi + ai * br


def _all_finite(*arrays) -> bool:
    """Whether every element of every float array (or float) is finite."""
    import numpy as np

    return all(np.isfinite(a).all() for a in arrays)


def _exp_pair(er, ei):
    """``cmath.exp(er + i ei)`` as a pair (re, im): one call for floats, one per element for arrays."""
    import numpy as np

    if isinstance(er, float) and isinstance(ei, float):
        o = cmath.exp(complex(er, ei))
        return o.real, o.imag
    z = np.empty(np.broadcast(er, ei).shape, dtype=complex)
    z.real, z.imag = er, ei
    o = np.asarray(np.frompyfunc(cmath.exp, 1, 1)(z), dtype=complex)
    return o.real, o.imag


def _batch_pair_sum(bra, ket, moments: bool = False):
    """:func:`_pair_sum` over a batch axis, or None where it would sum as a Gram matrix.

    Each branch of ``bra`` and ``ket`` is a triple (mode, amp, probes):
    ``amp`` and each of the K probes are pairs (re, im) of floats or float
    arrays that broadcast over the batch.  A fringe scan's phase axis has
    one branch with probe columns, a leakage sweep's delta axis several
    branches with fixed probes and amplitude columns.  Returns the sum and,
    with ``moments``, the K probe moments <n_k>, each a pair (re, im), from
    the loop's operations in its order: every product by :func:`_cmul`,
    every sum from 0j, every overlap by ``cmath.exp`` (CPython adds a float
    to a complex as float + 0j, hence the 0.0 added to an imaginary part).
    So each point gets the bits that :func:`_pair_sum` gives its state.  A
    fixed overlap whose exponent overflows raises ``OverflowError``.  The
    overlap exponent -|p|^2/2 - |p|^2/2 + |p|^2 of a branch with itself
    rounds to 0 or a subnormal, or is NaN once |p|^2 overflows, so it
    cannot raise, and a NaN reaches the sums.  They come back unchecked,
    for the caller to check.  Returns None from ``_GRAM_MIN_PAIRS`` branch
    pairs on.
    """
    import numpy as np

    if len(bra) * len(ket) >= _GRAM_MIN_PAIRS:
        return None
    total = (0.0, 0.0)
    sums = [(0.0, 0.0)] * (len(ket[0][2]) if moments and ket else 0)
    with np.errstate(over="ignore", invalid="ignore"):
        # |p|^2/2 per branch and probe; the loop's -0.5 * |u|^2 is its negation.
        halves = [[0.5 * (pr * pr + pi * pi) for pr, pi in probes] for _, _, probes in ket]
        bra_halves = halves if bra is ket else [
            [0.5 * (pr * pr + pi * pi) for pr, pi in probes] for _, _, probes in bra
        ]
        for (mode, (ur, ui), u_probes), u_halves in zip(bra, bra_halves):
            u_terms = [(-h, pr, -pi) for h, (pr, pi) in zip(u_halves, u_probes)]
            for (v_mode, v_amp, v_probes), v_halves in zip(ket, halves):
                if v_mode != mode:
                    continue
                term = _cmul(ur, -ui, *v_amp)
                overlaps = []
                for (hu, cr, ci), (pr, pi), hv in zip(u_terms, v_probes, v_halves):
                    er, ei = _cmul(cr, ci, pr, pi)
                    overlaps.append(_exp_pair(hu - hv + er, 0.0 + ei))
                if sums:
                    for k, ((_, cr, ci), pv) in enumerate(zip(u_terms, v_probes)):
                        weighted = _cmul(*_cmul(*term, cr, ci), *pv)
                        for o in overlaps:
                            weighted = _cmul(*weighted, *o)
                        sums[k] = (sums[k][0] + weighted[0], sums[k][1] + weighted[1])
                for o in overlaps:
                    term = _cmul(*term, *o)
                total = (total[0] + term[0], total[1] + term[1])
    return total, sums


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


def _canonical_key(br: Branch) -> tuple[int, tuple[tuple[float, float], ...]]:
    return (br.mode, tuple([(p.real, p.imag) for p in br.probes]))


_mode_of = operator.attrgetter("mode")


def _nonempty(br: Branch) -> bool:
    """Whether ``br`` survives the merge: |amp| >= MERGE_TOL."""
    try:
        return abs(br.amp) >= MERGE_TOL
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
    earlier.  A |a - b| that overflows exceeds the tolerance.  Below
    ``_MERGE_INDEX_MIN`` branches every earlier group is scanned.  From
    there on, candidate groups come from an index keyed by mode, then by
    the cell ``floor(Re(probes[0]) / _CELL)``; a match lies in the branch's
    own cell or in the neighbouring cell nearer to its key, so only those
    two are searched, which makes merging expected O(n) in the branch count
    (the pair sum of :func:`inner_product` stays O(n^2)).  ``_CELL`` is
    derived from :data:`MERGE_TOL`; a relative tolerance must rescale it.
    From ``_MERGE_SORT_MIN`` branches on (with K > 0), :func:`_sorted_merge`
    sorts them with numpy first and runs the index only on the branches
    that sorted next to a same-mode branch within :data:`MERGE_TOL` along
    Re(probes[0]).  Every path gives the same groups, sums and order, bit
    for bit.
    """
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
        kept = [br for br in branches if _nonempty(br)]
        kept.sort(key=_mode_of)
        return _state(state.m_modes, state.k_probes, tuple(kept))
    if len(branches) >= _MERGE_SORT_MIN and state.k_probes:
        return _state(state.m_modes, state.k_probes, _sorted_merge(branches))
    kept = [g for g in _merge_groups(branches).values() if _nonempty(g)]
    kept.sort(key=_canonical_key)
    return _state(state.m_modes, state.k_probes, tuple(kept))


def _same_probes(ps: tuple[complex, ...], qs: tuple[complex, ...]) -> bool:
    """Whether each pair of probe amplitudes lies within :data:`MERGE_TOL`.

    A difference whose modulus overflows lies far outside it.
    """
    try:
        for a, b in zip(ps, qs):
            if abs(a - b) > MERGE_TOL:
                return False
    except OverflowError:
        return False
    return True


def _merge_owners(branches: Sequence[Branch]) -> list[int]:
    """The greedy grouping of :func:`merge_branches`, read from modes and probes alone.

    Entry i is the position in ``branches`` of the first member of the
    group that branch i joins (i itself where it starts one).
    """
    owners: list[int] = []
    if len(branches) < _MERGE_INDEX_MIN:
        firsts: list[int] = []
        for pos, br in enumerate(branches):
            mode, probes = br.mode, br.probes
            for i in firsts:
                g = branches[i]
                if g.mode == mode and _same_probes(g.probes, probes):
                    owners.append(i)
                    break
            else:
                firsts.append(pos)
                owners.append(pos)
        return owners
    floor = math.floor
    index: dict[int, dict[int | str, list[int]]] = {}
    for pos, br in enumerate(branches):
        probes = br.probes
        key = probes[0].real / _CELL if probes else 0.0
        try:
            cell = floor(key)
        except OverflowError:
            cell = _HUGE_CELL
        cells = index.get(br.mode)
        if cells is None:
            index[br.mode] = {cell: [pos]}
            owners.append(pos)
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
                if _same_probes(branches[i].probes, probes):
                    match = i
                    break
        if match is None:
            cells.setdefault(cell, []).append(pos)
            owners.append(pos)
        else:
            owners.append(match)
    return owners


def _merge_groups(branches: Sequence[Branch]) -> dict[int, Branch]:
    """The greedy groups of :func:`merge_branches`, unfiltered and unsorted.

    Each group is keyed by the position of its first member in ``branches``,
    and the keys come in input order.  A group's amplitude sums its members'
    in input order.
    """
    groups: dict[int, Branch] = {}
    for br, first in zip(branches, _merge_owners(branches)):
        g = groups.get(first)
        if g is None:
            groups[first] = br
        else:
            amp = g.amp + br.amp
            _check_finite(amp, "branch amplitude")
            groups[first] = _branch(g.mode, amp, g.probes)
    return groups


def _merge_columns(m_modes: int, k_probes: int, branches: Sequence[Branch], amps: list):
    """:func:`merge_branches` of branches whose amplitudes run over a batch axis, or None.

    ``branches`` give each branch's mode and probes, the same at every point
    (their ``amp`` is not read), and ``amps[j]`` is branch j's amplitude as a
    pair (re, im) of float arrays.  The groups come from
    :func:`_merge_owners`, so they are the same at every point, and each
    group's columns sum in :func:`_merge_groups`' order.  Returns the kept
    branches and their columns in canonical order.  Returns None where the
    points would not share that structure or the per-point merge would
    raise: ``_MERGE_SORT_MIN`` branches or more (with K > 0), a non-finite
    sum, or a group kept at some points and dropped at others.  A group
    whose |amp| lies within a factor 2 of :data:`MERGE_TOL` at some point
    counts as such, since ``np.hypot`` and ``abs`` may round apart.
    """
    import numpy as np

    if len(branches) <= m_modes and len({br.mode for br in branches}) == len(branches):
        sums = dict(enumerate(amps))
        key = _mode_of
    elif len(branches) >= _MERGE_SORT_MIN and k_probes:
        return None
    else:
        sums = {}
        for (re, im), first in zip(amps, _merge_owners(branches)):
            s = sums.get(first)
            sums[first] = (re, im) if s is None else (s[0] + re, s[1] + im)
        if not _all_finite(*chain.from_iterable(sums.values())):
            return None
        key = _canonical_key
    kept = []
    for first, (re, im) in sums.items():
        size = np.hypot(re, im)
        if (size >= 2.0 * MERGE_TOL).all():
            kept.append(first)
        elif not (size < 0.5 * MERGE_TOL).all():
            return None
    kept.sort(key=lambda first: key(branches[first]))
    return [branches[i] for i in kept], [sums[i] for i in kept]


def _sorted_merge(branches: Sequence[Branch]) -> tuple[Branch, ...]:
    """The branches of :func:`merge_branches` for a large state with K > 0.

    One ``np.lexsort`` puts the branches in canonical order (mode, then
    Re p0, Im p0, Re p1, ...; ties keep input order, as ``list.sort`` does).
    Within a mode, Re(probes[0]) never decreases along that order, so the
    gap to a sorted neighbour, taken with the merge test's own subtraction,
    is the smallest gap to any branch on that side; a branch both of whose
    same-mode gaps exceed :data:`MERGE_TOL` cannot merge, since
    ``abs(a - b) >= abs(Re(a - b))``.  :func:`_merge_groups` runs on the
    other branches alone, in input order, and each group takes its first
    member's sorted slot; every other branch is a group of its own.  So
    groups, amplitude sums, finite checks, drops and order are those of the
    index on the whole state.  A gap that overflows is inf, not a warning.
    """
    import numpy as np

    n = len(branches)
    modes = np.fromiter([br.mode for br in branches], np.intp, n)
    probes = np.fromiter(
        chain.from_iterable([br.probes for br in branches]), complex, n * len(branches[0].probes)
    ).reshape(n, -1)
    keys = [modes]
    for column in probes.T:
        keys += [column.real, column.imag]
    order = np.lexsort(keys[::-1])
    ranked = modes[order]
    re0 = probes[order, 0].real
    with np.errstate(over="ignore"):
        close = (ranked[1:] == ranked[:-1]) & (re0[1:] - re0[:-1] <= MERGE_TOL)
    slots: list[Branch | None] = list(branches)
    if close.any():
        candidate = np.zeros(n, dtype=bool)
        candidate[1:] = close
        candidate[:-1] |= close
        members = np.sort(order[candidate]).tolist()
        groups = _merge_groups([branches[i] for i in members])
        for pos, i in enumerate(members):
            slots[i] = groups.get(pos)
    return tuple(
        [br for br in map(slots.__getitem__, order.tolist()) if br is not None and _nonempty(br)]
    )
