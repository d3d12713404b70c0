"""KL pair-selection kernels over the CSR arrays (packed integer keys).

Heap entries are single ints: ``key = (B - gain) * n + rank``, where B is
the graph's maximum weighted degree (a bound on |gain| at all times) and
``rank`` is the CSR view's tie-break order — sorted label order, or
insertion order when labels are not mutually comparable.  Ascending int
order is exactly ascending ``(-gain, rank)`` order: highest gain first,
ties to the lowest rank, at one machine-int comparison per sift.

The chosen pair is a pure function of the current gains/locked state
(argmax in (gain desc, rank asc) scan order with strict improvement);
which entries a selection pops does not matter, and stale heap entries
are inert until discarded.  That freedom lets these kernels check the
``g_ab <= g_a + g_b`` bound *before* pulling another candidate, so on
sparse graphs — where the two top candidates are usually not adjacent
and therefore already optimal — a selection costs exactly two pops and
one adjacency probe.

Two further refinements:

* a ``curkey`` freshness array — ``curkey[v]`` is v's only live packed
  key (or -1 once locked), making the staleness test one list index and
  one int compare instead of a lock probe plus a gain recompute with an
  integer division;
* an allocation-free fast path for the two-pop selection (the common
  case the ``prune_hits`` counter measures): when the two top candidates
  are not adjacent, the pair is emitted without materializing candidate
  lists or touching the pending queues."""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from ..graphs.csr import CSRGraph

__all__ = ["kl_sequence_multi", "kl_sequence_single"]


def _accumulate(stats: dict, selections: int, stale: int, candidates: int,
                prune_hits: int) -> None:
    stats["selections"] = stats.get("selections", 0) + selections
    stats["stale_pops"] = stats.get("stale_pops", 0) + stale
    stats["candidates"] = stats.get("candidates", 0) + candidates
    stats["prune_hits"] = stats.get("prune_hits", 0) + prune_hits


def kl_sequence_single(
    csr: CSRGraph, sides: list[int], gains: list[int], stats: dict | None = None
):
    """Pair sequence for the single-weight-class case, fully inlined."""
    n = csr.num_vertices
    rank = csr.rank
    by_rank = csr.by_rank
    nbrs = csr.neighbor_lists()
    unit = csr.unit_edge_weights
    wts = None if unit else csr.weight_lists()
    adj_maps = csr.adjacency_maps()
    B = csr.max_weighted_degree

    curkey = [(B - gains[i]) * n + rank[i] for i in range(n)]
    heap0: list[int] = []
    heap1: list[int] = []
    for i in range(n):
        (heap1 if sides[i] else heap0).append(curkey[i])
    heap0.sort()  # a sorted list is a valid heap; cheaper than n sifts
    heap1.sort()
    pend0: deque = deque()
    pend1: deque = deque()

    locked = bytearray(n)
    sequence: list[tuple[int, int, int]] = []  # (a, b, pair_gain)
    push = heappush
    pop = heappop
    stale = 0  # obs only: superseded entries discarded on the slow path
    candidates = 0
    prune_hits = 0

    while True:
        # Top unlocked, non-stale candidate on each side (heap/pending merge).
        while True:
            if pend0:
                ak = pop(heap0) if heap0 and heap0[0] < pend0[0] else pend0.popleft()
            elif heap0:
                ak = pop(heap0)
            else:
                ak = -1
                break
            va = by_rank[ak % n]
            if curkey[va] == ak:
                break
            stale += 1
        if ak < 0:
            break
        while True:
            if pend1:
                bk = pop(heap1) if heap1 and heap1[0] < pend1[0] else pend1.popleft()
            elif heap1:
                bk = pop(heap1)
            else:
                bk = -1
                break
            vb = by_rank[bk % n]
            if curkey[vb] == bk:
                break
            stale += 1
        if bk < 0:
            pend0.appendleft(ak)
            break

        adj_va = adj_maps[va]
        w_ab = adj_va.get(vb, 0)
        if not w_ab:
            # Non-adjacent tops: g_ab == g_a + g_b is already the upper
            # bound for every other pair, so this selection is settled by
            # the two pops alone — no candidate lists, no parking.
            candidates += 2
            prune_hits += 1
            best_gain = (B - ak // n) + (B - bk // n)
            a = va
            b = vb
        else:
            gain_a = B - ak // n
            top_b_gain = B - bk // n
            best_gain = gain_a + top_b_gain - 2 * w_ab
            best_ak, best_bk = ak, bk
            a_keys = [ak]
            b_keys = [bk]

            # Top pair is adjacent: scan in (g_a desc, g_b desc) order until
            # the g_a + g_b upper bound can no longer beat the best pair.
            i = 0
            while True:
                if i == len(a_keys):
                    if B - a_keys[-1] // n + top_b_gain <= best_gain:
                        break
                    while True:  # pull the next a candidate
                        if pend0:
                            ak = (
                                pop(heap0)
                                if heap0 and heap0[0] < pend0[0]
                                else pend0.popleft()
                            )
                        elif heap0:
                            ak = pop(heap0)
                        else:
                            ak = -1
                            break
                        if curkey[by_rank[ak % n]] == ak:
                            break
                        stale += 1
                    if ak < 0:
                        break
                    a_keys.append(ak)
                ak = a_keys[i]
                gain_a = B - ak // n
                if gain_a + top_b_gain <= best_gain:
                    break
                adj_a = adj_maps[by_rank[ak % n]]
                j = 0
                while True:
                    if j == len(b_keys):
                        if gain_a + (B - b_keys[-1] // n) <= best_gain:
                            break
                        while True:  # pull the next b candidate
                            if pend1:
                                bk = (
                                    pop(heap1)
                                    if heap1 and heap1[0] < pend1[0]
                                    else pend1.popleft()
                                )
                            elif heap1:
                                bk = pop(heap1)
                            else:
                                bk = -1
                                break
                            if curkey[by_rank[bk % n]] == bk:
                                break
                            stale += 1
                        if bk < 0:
                            break
                        b_keys.append(bk)
                    bk = b_keys[j]
                    upper = gain_a + B - bk // n
                    if upper <= best_gain:
                        break
                    pair_gain = upper - 2 * adj_a.get(by_rank[bk % n], 0)
                    if pair_gain > best_gain:
                        best_gain, best_ak, best_bk = pair_gain, ak, bk
                    j += 1
                i += 1

            candidates += len(a_keys) + len(b_keys)
            if len(a_keys) + len(b_keys) == 2:
                prune_hits += 1
            if len(a_keys) > 1 or a_keys[0] != best_ak:
                pend0.extendleft(k for k in reversed(a_keys) if k != best_ak)
            if len(b_keys) > 1 or b_keys[0] != best_bk:
                pend1.extendleft(k for k in reversed(b_keys) if k != best_bk)

            a = by_rank[best_ak % n]
            b = by_rank[best_bk % n]

        locked[a] = locked[b] = 1
        curkey[a] = curkey[b] = -1
        sequence.append((a, b, best_gain))

        for moved in (a, b):
            side_moved = sides[moved]
            row = nbrs[moved]
            if unit:
                for u in row:
                    if locked[u]:
                        continue
                    g = gains[u] + (2 if sides[u] == side_moved else -2)
                    gains[u] = g
                    key = (B - g) * n + rank[u]
                    curkey[u] = key
                    push(heap1 if sides[u] else heap0, key)
            else:
                wrow = wts[moved]
                for slot, u in enumerate(row):
                    if locked[u]:
                        continue
                    w2 = 2 * wrow[slot]
                    g = gains[u] + (w2 if sides[u] == side_moved else -w2)
                    gains[u] = g
                    key = (B - g) * n + rank[u]
                    curkey[u] = key
                    push(heap1 if sides[u] else heap0, key)

    if stats is not None:
        _accumulate(stats, len(sequence), stale, candidates, prune_hits)
    return sequence


class _SelectState:
    __slots__ = ("heaps", "pending")

    def __init__(self) -> None:
        self.heaps: tuple[list[int], list[int]] = ([], [])
        self.pending: tuple[deque, deque] = (deque(), deque())


def kl_sequence_multi(
    csr: CSRGraph, sides: list[int], gains: list[int], stats: dict | None = None
):
    """Pair sequence with per-vertex-weight classes (contracted graphs)."""
    n = csr.num_vertices
    rank = csr.rank
    by_rank = csr.by_rank
    nbrs = csr.neighbor_lists()
    unit = csr.unit_edge_weights
    wts = None if unit else csr.weight_lists()
    adj_maps = csr.adjacency_maps()
    vweights = csr.vertex_weight_list()
    B = csr.max_weighted_degree

    states: dict[int, _SelectState] = {}
    for i in range(n):
        state = states.setdefault(vweights[i], _SelectState())
        state.heaps[sides[i]].append((B - gains[i]) * n + rank[i])
    for state in states.values():
        state.heaps[0].sort()
        state.heaps[1].sort()

    locked = bytearray(n)
    sequence: list[tuple[int, int, int]] = []
    stale = 0  # obs only, as in the single-class kernel
    candidates = 0
    prune_hits = 0

    def next_key(state: _SelectState, side: int) -> int:
        """Next unlocked, non-stale packed key on ``side``, or -1."""
        nonlocal stale
        heap = state.heaps[side]
        pend = state.pending[side]
        while True:
            if pend:
                key = heappop(heap) if heap and heap[0] < pend[0] else pend.popleft()
            elif heap:
                key = heappop(heap)
            else:
                return -1
            v = by_rank[key % n]
            if not locked[v] and gains[v] == B - key // n:
                return key
            stale += 1

    def select_pair(state: _SelectState):
        nonlocal candidates, prune_hits
        ak = next_key(state, 0)
        if ak < 0:
            return None
        bk = next_key(state, 1)
        if bk < 0:
            state.pending[0].appendleft(ak)
            candidates += 1
            return None

        gain_a = B - ak // n
        top_b_gain = B - bk // n
        best_gain = gain_a + top_b_gain - 2 * adj_maps[by_rank[ak % n]].get(
            by_rank[bk % n], 0
        )
        best_ak, best_bk = ak, bk
        a_keys = [ak]
        b_keys = [bk]

        if best_gain < gain_a + top_b_gain:
            i = 0
            while True:
                if i == len(a_keys):
                    if B - a_keys[-1] // n + top_b_gain <= best_gain:
                        break
                    ak = next_key(state, 0)
                    if ak < 0:
                        break
                    a_keys.append(ak)
                ak = a_keys[i]
                gain_a = B - ak // n
                if gain_a + top_b_gain <= best_gain:
                    break
                adj_a = adj_maps[by_rank[ak % n]]
                j = 0
                while True:
                    if j == len(b_keys):
                        if gain_a + (B - b_keys[-1] // n) <= best_gain:
                            break
                        bk = next_key(state, 1)
                        if bk < 0:
                            break
                        b_keys.append(bk)
                    bk = b_keys[j]
                    upper = gain_a + B - bk // n
                    if upper <= best_gain:
                        break
                    pair_gain = upper - 2 * adj_a.get(by_rank[bk % n], 0)
                    if pair_gain > best_gain:
                        best_gain, best_ak, best_bk = pair_gain, ak, bk
                    j += 1
                i += 1

        candidates += len(a_keys) + len(b_keys)
        if len(a_keys) + len(b_keys) == 2:
            prune_hits += 1
        state.pending[0].extendleft(k for k in reversed(a_keys) if k != best_ak)
        state.pending[1].extendleft(k for k in reversed(b_keys) if k != best_bk)
        return best_gain, best_ak, best_bk

    while True:
        best = None  # (gain, a_key, b_key, state)
        for state in states.values():
            selected = select_pair(state)
            if selected is None:
                continue
            gain, ak, bk = selected
            if best is None or gain > best[0]:
                if best is not None:
                    # Un-choose the previous class's pair: push its pair back.
                    _, pak, pbk, pstate = best
                    heappush(pstate.heaps[0], pak)
                    heappush(pstate.heaps[1], pbk)
                best = (gain, ak, bk, state)
            else:
                heappush(state.heaps[0], ak)
                heappush(state.heaps[1], bk)
        if best is None:
            break

        gain, ak, bk, _state = best
        a = by_rank[ak % n]
        b = by_rank[bk % n]
        locked[a] = locked[b] = 1
        sequence.append((a, b, gain))

        for moved in (a, b):
            side_moved = sides[moved]
            row = nbrs[moved]
            if unit:
                for u in row:
                    if locked[u]:
                        continue
                    g = gains[u] + (2 if sides[u] == side_moved else -2)
                    gains[u] = g
                    heappush(
                        states[vweights[u]].heaps[sides[u]], (B - g) * n + rank[u]
                    )
            else:
                wrow = wts[moved]
                for slot, u in enumerate(row):
                    if locked[u]:
                        continue
                    w2 = 2 * wrow[slot]
                    g = gains[u] + (w2 if sides[u] == side_moved else -w2)
                    gains[u] = g
                    heappush(
                        states[vweights[u]].heaps[sides[u]], (B - g) * n + rank[u]
                    )

    if stats is not None:
        _accumulate(stats, len(sequence), stale, candidates, prune_hits)
    return sequence
