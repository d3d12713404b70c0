"""The SA Metropolis sweeps over the CSR arrays (flip and swap moves).

The flip sweep is the hottest loop in the package (~1e6 attempted moves
per run at 2n=5000).  Three layers of batching remove per-move overhead
without changing a decision — every kernel backend makes the same moves
from the same seed:

* **Buffered RNG stream.**  When the generator is our lagged Fibonacci,
  raw 64-bit values are produced in blocks (:mod:`repro.kernels.lfg`)
  instead of through the ring buffer per draw; the generator state is
  restored exactly afterwards.  Index draws use the same shift/reject
  scheme as ``_randbelow``; the uniform draw compares the raw 53-bit
  mantissa against ``exp(-delta/T) * 2**53`` — multiplying both sides of
  ``(value >> 11) * 2**-53 >= exp(...)`` by the power of two is exact in
  IEEE double arithmetic, so the comparison is bitwise the scalar one.
* **Per-side penalty precompute.**  On unit-vertex-weight graphs the
  imbalance penalty of a flip depends only on the mover's side:
  ``alpha * ((diff -+ 2)**2 - diff**2)`` collapses to one of two floats
  recomputed per accepted move — the same product of ``alpha`` with the
  same integer, hence the same float, as the per-move expression.
* **Per-temperature exp memo.**  ``math.exp`` is deterministic, so the
  acceptance threshold for a given uphill delta is cached per
  temperature (``delta`` values repeat heavily: gains are small ints).
  ``math.exp`` is always the decision source — never ``np.exp``, which
  is not guaranteed bit-identical.

The generic sweep (non-lagged-Fibonacci generators) keeps the plain
inline path, consuming identical ``_randbelow``/``random`` draws.  The
balance-preserving swap neighborhood has its own plain sweep,
:func:`swap_walk`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from ..graphs.csr import CSRGraph
from ..rng import LaggedFibonacciRandom
from . import gains as gain_kernels
from .lfg import fill_block, fill_block_numpy, history, restore_state

__all__ = ["Walk", "flip_walk", "swap_walk"]

_BLOCK = 4096
_TWO53 = 9007199254740992.0


@dataclass
class Walk:
    """Raw outcome of a Metropolis walk (id-indexed; no label types).

    ``best_sides`` is ``None`` when the walk never visited a balanced
    state; ``sides`` is the final (possibly unbalanced) configuration the
    caller can repair.
    """

    sides: list[int]
    best_sides: list[int] | None
    cut: int
    attempted: int
    accepted: int
    temperatures: int
    final_temperature: float
    trace: list[tuple[float, float, int]] = field(default_factory=list)


def _rewind(sides: list[int], flipped: list[int]) -> list[int]:
    """The best-seen state: ``sides`` with every flip logged since then undone.

    A walk logs each vertex it flips and clears the log at every new best,
    so one pass at the end replaces a copy of ``sides`` per new best.
    """
    best = sides.copy()
    for i in flipped:
        best[i] ^= 1
    return best


def flip_walk(
    csr: CSRGraph,
    sides: list[int],
    cut: int,
    diff: int,
    temperature: float,
    rng: random.Random,
    schedule,
    alpha: float,
    balance_tolerance: int,
    record_trace: bool,
    backend: str,
) -> Walk:
    """Run the annealing flip walk to freezing; mutates and returns ``sides``."""
    if type(rng) is LaggedFibonacciRandom:
        return _flip_walk_buffered(
            csr, sides, cut, diff, temperature, rng, schedule, alpha,
            balance_tolerance, record_trace, backend,
        )
    return _flip_walk_generic(
        csr, sides, cut, diff, temperature, rng, schedule, alpha,
        balance_tolerance, record_trace, backend,
    )


def _flip_walk_buffered(
    csr: CSRGraph,
    sides: list[int],
    cut: int,
    diff: int,
    temperature: float,
    rng: LaggedFibonacciRandom,
    schedule,
    alpha: float,
    balance_tolerance: int,
    record_trace: bool,
    backend: str,
) -> Walk:
    n = csr.num_vertices
    nbrs = csr.neighbor_lists()
    wts = None if csr.unit_edge_weights else csr.weight_lists()
    vweights = csr.vertex_weight_list()
    unit_vw = csr.unit_vertex_weights

    best_cut = cut if abs(diff) <= balance_tolerance else None
    flipped: list[int] = []  # vertices flipped since the best-seen state
    log = flipped.append

    moves_per_temp = schedule.moves_per_temperature(n)
    cutoff = schedule.acceptance_cutoff(n)
    if cutoff is None:
        cutoff = moves_per_temp + 1  # sentinel: never reached

    attempted = accepted = 0
    temperatures = 0
    stale = 0
    trace: list[tuple[float, float, int]] = []

    exp = math.exp
    kbits = n.bit_length()
    shift = 64 - kbits

    fill = fill_block_numpy if backend == "numpy" else fill_block
    idx0 = rng._index
    hist = history(rng)
    buf: list[int] = []
    blen = 0
    p = 0
    consumed = 0  # values consumed before the current block
    prev_tail: list[int] = []  # last 55 values of the previous block

    def refill() -> None:
        nonlocal buf, blen, p, hist, consumed, prev_tail
        consumed += p
        if blen:
            prev_tail = buf[-55:]
        buf, hist = fill(hist, _BLOCK)
        blen = len(buf)
        p = 0

    refill()

    cdelta = [-g for g in gain_kernels.move_gains(csr, sides, backend)]

    d4 = 4 * diff
    pens = (alpha * (4 - d4), alpha * (4 + d4))

    while not schedule.is_frozen(stale, temperature):
        if temperatures >= schedule.max_temperatures:
            break
        accepted_here = 0
        attempted_here = 0
        improved_best = False
        memo: dict[float, float] = {}
        memo_get = memo.get
        if unit_vw:
            for _ in range(moves_per_temp):
                if accepted_here >= cutoff:
                    break  # Johnson's cutoff: this temperature equilibrated
                attempted_here += 1
                while True:  # rejection-sample an index, as _randbelow does
                    if p >= blen:
                        refill()
                    value = buf[p]
                    p += 1
                    i = value >> shift
                    if i < n:
                        break
                delta = cdelta[i] + pens[sides[i]]
                if delta > 0:
                    if p >= blen:
                        refill()
                    u53 = buf[p] >> 11
                    p += 1
                    thr = memo_get(delta)
                    if thr is None:
                        thr = exp(-delta / temperature) * _TWO53
                        memo[delta] = thr
                    if u53 >= thr:
                        continue
                side_v = sides[i]
                sides[i] = 1 - side_v
                log(i)
                cut_delta = cdelta[i]
                cut += cut_delta
                diff = diff - 2 if side_v == 0 else diff + 2
                d4 = 4 * diff
                pens = (alpha * (4 - d4), alpha * (4 + d4))
                accepted_here += 1
                cdelta[i] = -cut_delta
                row = nbrs[i]
                if wts is None:
                    for u in row:
                        cdelta[u] += -2 if sides[u] == side_v else 2
                else:
                    wrow = wts[i]
                    for slot, u in enumerate(row):
                        w2 = 2 * wrow[slot]
                        cdelta[u] += -w2 if sides[u] == side_v else w2
                if abs(diff) <= balance_tolerance and (
                    best_cut is None or cut < best_cut
                ):
                    best_cut = cut
                    flipped.clear()
                    improved_best = True
        else:
            for _ in range(moves_per_temp):
                if accepted_here >= cutoff:
                    break
                attempted_here += 1
                while True:
                    if p >= blen:
                        refill()
                    value = buf[p]
                    p += 1
                    i = value >> shift
                    if i < n:
                        break
                side_v = sides[i]
                cut_delta = cdelta[i]
                wv = vweights[i]
                new_diff = diff - 2 * wv if side_v == 0 else diff + 2 * wv
                delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
                if delta > 0:
                    if p >= blen:
                        refill()
                    u53 = buf[p] >> 11
                    p += 1
                    thr = memo_get(delta)
                    if thr is None:
                        thr = exp(-delta / temperature) * _TWO53
                        memo[delta] = thr
                    if u53 >= thr:
                        continue
                sides[i] = 1 - side_v
                log(i)
                cut += cut_delta
                diff = new_diff
                accepted_here += 1
                cdelta[i] = -cut_delta
                row = nbrs[i]
                if wts is None:
                    for u in row:
                        cdelta[u] += -2 if sides[u] == side_v else 2
                else:
                    wrow = wts[i]
                    for slot, u in enumerate(row):
                        w2 = 2 * wrow[slot]
                        cdelta[u] += -w2 if sides[u] == side_v else w2
                if abs(diff) <= balance_tolerance and (
                    best_cut is None or cut < best_cut
                ):
                    best_cut = cut
                    flipped.clear()
                    improved_best = True
        attempted += attempted_here
        accepted += accepted_here
        ratio = accepted_here / attempted_here if attempted_here else 0.0
        if record_trace:
            trace.append((temperature, ratio, cut))
        temperatures += 1
        if ratio < schedule.min_acceptance and not improved_best:
            stale += 1
        else:
            stale = 0
        temperature = schedule.next_temperature(temperature)

    total = consumed + p
    if p >= 55:
        window = buf[p - 55 : p]
    elif consumed == 0:
        window = buf[:p]
    else:
        window = prev_tail[p:] + buf[:p]
    restore_state(rng, idx0, total, window)

    return Walk(
        sides=sides,
        best_sides=None if best_cut is None else _rewind(sides, flipped),
        cut=cut,
        attempted=attempted,
        accepted=accepted,
        temperatures=temperatures,
        final_temperature=temperature,
        trace=trace,
    )


def _flip_walk_generic(
    csr: CSRGraph,
    sides: list[int],
    cut: int,
    diff: int,
    temperature: float,
    rng: random.Random,
    schedule,
    alpha: float,
    balance_tolerance: int,
    record_trace: bool,
    backend: str,
) -> Walk:
    """The sweep for arbitrary generators (``random.Random`` et al.).

    Draws ``rng._randbelow(n)`` per attempt and ``rng.random()`` only for
    uphill moves — the draw pattern the buffered sweep replays from its
    block stream.
    """
    n = csr.num_vertices
    nbrs = csr.neighbor_lists()
    wts = None if csr.unit_edge_weights else csr.weight_lists()
    vweights = csr.vertex_weight_list()

    best_cut = cut if abs(diff) <= balance_tolerance else None
    flipped: list[int] = []  # vertices flipped since the best-seen state
    log = flipped.append

    moves_per_temp = schedule.moves_per_temperature(n)
    cutoff = schedule.acceptance_cutoff(n)

    attempted = accepted = 0
    temperatures = 0
    stale = 0
    trace: list[tuple[float, float, int]] = []

    rand = rng.random
    # randrange(n) delegates to _randbelow(n) for positive int n in every
    # random.Random; binding it directly skips the wrapper.
    randbelow = rng._randbelow
    exp = math.exp

    cdelta = [-g for g in gain_kernels.move_gains(csr, sides, backend)]

    while not schedule.is_frozen(stale, temperature):
        if temperatures >= schedule.max_temperatures:
            break
        accepted_here = 0
        attempted_here = 0
        improved_best = False
        for _ in range(moves_per_temp):
            if cutoff is not None and accepted_here >= cutoff:
                break  # Johnson's cutoff: this temperature equilibrated
            attempted_here += 1
            i = randbelow(n)
            side_v = sides[i]
            cut_delta = cdelta[i]
            wv = vweights[i]
            new_diff = diff - 2 * wv if side_v == 0 else diff + 2 * wv
            delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
            if delta > 0:
                if rand() >= exp(-delta / temperature):
                    continue
            sides[i] = 1 - side_v
            log(i)
            cut += cut_delta
            diff = new_diff
            accepted_here += 1
            cdelta[i] = -cut_delta
            row = nbrs[i]
            if wts is None:
                for u in row:
                    cdelta[u] += -2 if sides[u] == side_v else 2
            else:
                wrow = wts[i]
                for slot, u in enumerate(row):
                    w2 = 2 * wrow[slot]
                    cdelta[u] += -w2 if sides[u] == side_v else w2
            if abs(diff) <= balance_tolerance and (
                best_cut is None or cut < best_cut
            ):
                best_cut = cut
                flipped.clear()
                improved_best = True
        attempted += attempted_here
        accepted += accepted_here
        ratio = accepted_here / attempted_here if attempted_here else 0.0
        if record_trace:
            trace.append((temperature, ratio, cut))
        temperatures += 1
        if ratio < schedule.min_acceptance and not improved_best:
            stale += 1
        else:
            stale = 0
        temperature = schedule.next_temperature(temperature)

    return Walk(
        sides=sides,
        best_sides=None if best_cut is None else _rewind(sides, flipped),
        cut=cut,
        attempted=attempted,
        accepted=accepted,
        temperatures=temperatures,
        final_temperature=temperature,
        trace=trace,
    )


def swap_walk(
    csr: CSRGraph,
    sides: list[int],
    cut: int,
    diff: int,
    temperature: float,
    rng: random.Random,
    schedule,
    alpha: float,
    balance_tolerance: int,
    record_trace: bool,
    backend: str,
) -> Walk:
    """Run the swap-neighborhood walk to freezing; mutates and returns ``sides``.

    A move exchanges one vertex from each side.  The side lists start in
    id (insertion) order and an accepted swap trades the two slots in
    place; each attempt draws ``randrange`` over side 0, then over side
    1, then ``random`` only when the move is uphill.
    """
    n = csr.num_vertices
    nbrs = csr.neighbor_lists()
    wts = None if csr.unit_edge_weights else csr.weight_lists()
    adj = csr.adjacency_maps()
    vweights = csr.vertex_weight_list()

    zero = [i for i in range(n) if sides[i] == 0]
    one = [i for i in range(n) if sides[i] == 1]
    if not zero or not one:
        raise ValueError("swap neighborhood needs vertices on both sides")
    n0 = len(zero)
    n1 = len(one)

    best_cut = cut if abs(diff) <= balance_tolerance else None
    flipped: list[int] = []  # vertices flipped since the best-seen state
    log = flipped.append

    moves_per_temp = schedule.moves_per_temperature(n)
    cutoff = schedule.acceptance_cutoff(n)

    attempted = accepted = 0
    temperatures = 0
    stale = 0
    trace: list[tuple[float, float, int]] = []

    rand = rng.random
    randrange = rng.randrange
    exp = math.exp

    # cdelta[i]: cut change of flipping i alone (same-side minus
    # other-side edge weight), kept exact across accepted swaps.
    cdelta = [-g for g in gain_kernels.move_gains(csr, sides, backend)]

    def flip(i: int, side_i: int) -> None:
        sides[i] = 1 - side_i
        log(i)
        cdelta[i] = -cdelta[i]
        row = nbrs[i]
        if wts is None:
            for u in row:
                cdelta[u] += -2 if sides[u] == side_i else 2
        else:
            wrow = wts[i]
            for slot, u in enumerate(row):
                w2 = 2 * wrow[slot]
                cdelta[u] += -w2 if sides[u] == side_i else w2

    while not schedule.is_frozen(stale, temperature):
        if temperatures >= schedule.max_temperatures:
            break
        accepted_here = 0
        attempted_here = 0
        improved_best = False
        for _ in range(moves_per_temp):
            if cutoff is not None and accepted_here >= cutoff:
                break  # Johnson's cutoff: this temperature equilibrated
            attempted_here += 1
            i = randrange(n0)
            j = randrange(n1)
            a = zero[i]
            b = one[j]
            cut_delta = cdelta[a] + cdelta[b] + 2 * adj[a].get(b, 0)
            new_diff = diff - 2 * vweights[a] + 2 * vweights[b]
            delta = cut_delta + alpha * (new_diff * new_diff - diff * diff)
            if delta <= 0 or rand() < exp(-delta / temperature):
                flip(a, 0)
                flip(b, 1)
                zero[i] = b
                one[j] = a
                cut += cut_delta
                diff = new_diff
                accepted_here += 1
                if abs(diff) <= balance_tolerance and (
                    best_cut is None or cut < best_cut
                ):
                    best_cut = cut
                    flipped.clear()
                    improved_best = True
        attempted += attempted_here
        accepted += accepted_here
        ratio = accepted_here / attempted_here if attempted_here else 0.0
        if record_trace:
            trace.append((temperature, ratio, cut))
        temperatures += 1
        if ratio < schedule.min_acceptance and not improved_best:
            stale += 1
        else:
            stale = 0
        temperature = schedule.next_temperature(temperature)

    return Walk(
        sides=sides,
        best_sides=None if best_cut is None else _rewind(sides, flipped),
        cut=cut,
        attempted=attempted,
        accepted=accepted,
        temperatures=temperatures,
        final_temperature=temperature,
        trace=trace,
    )
