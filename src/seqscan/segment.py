"""Interval scanning and greedy recursive segmentation.

``exhaustive_scan`` evaluates every interval in a region and is the accuracy
reference.  ``iterative_grid_scan`` evaluates a geometric ladder of interval
widths on coarse endpoint grids and then refines the retained candidates down
to single-read resolution, keeping the total work near-linear in the region
size.  ``cbs_segment`` applies the scan recursively, inserting the most
significant interval's endpoints as change points until reaching ``max_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .process import CombinedProcess
from .stats import IntervalStat, StatKernel


@dataclass(frozen=True)
class ScanResult:
    """Best interval found in one region."""

    best: IntervalStat | None
    objective: float


@dataclass(frozen=True)
class ScanStep:
    """One greedy insertion: which change points were added, where, and why."""

    taus_added: tuple[int, ...]
    region: tuple[int, int]
    objective: float


@dataclass
class ChangePointSequence:
    """Ordered change-point insertions produced by cbs_segment."""

    steps: list[ScanStep]
    m: int

    def insertion_order(self) -> list[int]:
        """Individual change points in the order they were added."""
        return [t for step in self.steps for t in step.taus_added]

    def taus_at(self, k: int) -> list[int]:
        """Sorted change points after the first k individual insertions."""
        return sorted(self.insertion_order()[:k])

    @property
    def n_taus(self) -> int:
        return sum(len(step.taus_added) for step in self.steps)


def _argbest_diverse(I: np.ndarray, J: np.ndarray, v: np.ndarray, k: int, radius: int):
    """Up to k well-separated top candidates, ties broken by smallest (i, j)."""
    out = []
    alive = np.ones(v.size, dtype=bool)
    for _ in range(k):
        # an all -inf remainder still yields its lexicographically first interval
        vmax = np.max(v, where=alive, initial=-np.inf)
        tie = (v == vmax) & alive
        Im, Jm = I[tie], J[tie]
        if not Im.size:
            break
        t = np.lexsort((Jm, Im))[0]
        ci, cj = int(Im[t]), int(Jm[t])
        out.append((ci, cj, float(vmax)))
        if len(out) < k:
            alive &= (np.abs(I - ci) >= radius) | (np.abs(J - cj) >= radius)
    return out


def _better(i, j, v, best):
    """Candidate replacement rule: higher objective, then smaller (i, j)."""
    if best is None:
        return True
    bi, bj, bv = best
    return v > bv or (v == bv and (i, j) < (bi, bj))


def _best_of_widths(kernel: StatKernel, lo: int, n_widths: int):
    """Best (i, j, objective) among the window's intervals of widths 1..n_widths.

    One ``objective_width`` pass per width: its first maximum is the width's
    smallest-i tie, and ``_better`` keeps the winner across widths, so the
    pick is the highest objective with the lexicographically smallest (i, j)
    in linear memory.
    """
    best = None
    for d in range(n_widths):
        v = kernel.objective_width(d)
        k = int(np.argmax(v))
        cand = (lo + k, lo + k + d, float(v[k]))
        if _better(*cand, best):
            best = cand
    return best


def _check_region(process: CombinedProcess, lo: int, hi: int) -> None:
    if not (1 <= lo and hi <= process.m):
        raise ValueError(f"region [{lo}, {hi}] outside [1, {process.m}]")


def exhaustive_scan(process: CombinedProcess, stat_kind: str, lo: int, hi: int) -> ScanResult:
    """Evaluate every interval with lo <= i <= j <= hi and return the argmax.

    The intervals are scored one width at a time (``_best_of_widths``), so
    memory stays linear in the region.  The region is scanned as its own
    sequence, so the full-range interval is skipped for the likelihood-ratio
    statistic (it has no outside reads).  A region narrower than 2 reads
    yields an empty result.
    """
    _check_region(process, lo, hi)
    if hi - lo < 1:
        return ScanResult(best=None, objective=float("-inf"))
    kernel = StatKernel(process, stat_kind, lo, hi)
    i, j, obj = _best_of_widths(kernel, lo, hi - lo + 1)
    return ScanResult(best=kernel.stat(i, j), objective=obj)


def _dense_cut(G: int) -> int:
    """Refinement step size below which a candidate's neighborhood is scanned densely."""
    return max(4, 64 // G)


def _ladder_plan(n: int, G: int) -> list[tuple[int, int, int]] | None:
    """(width cap, width floor, endpoint spacing) of every grid level of a region.

    Widths shrink geometrically by G from the region size; levels at or below
    3*G are left to the dense small-width sweep.  A level's spacing starts at
    width/(2G) and widens until the level stays within 2n evaluations, so total
    work per scan does not depend on where n falls between powers of G.
    Returns None where the dense sweep, every level and a refinement budget per
    retained candidate would evaluate at least all n(n + 1)/2 intervals.
    """
    ws = [n]
    while ws[-1] > 2:
        ws.append(max(2, ws[-1] // G))
    plan = []
    work = min(3 * G, n) * n
    for w, below in zip(ws, ws[1:] + [1]):
        if w <= 3 * G:
            continue
        floor = max(below, 3 * G - 1)
        g = max(1, w // (2 * G))
        while (level := (n // g + 1) * max(1, (w - floor) // g)) > 2 * n:
            g += max(1, g // 4)
        plan.append((w, floor, g))
        work += level
    rounds = int(np.log2(max(n, 2)))
    box_work = 3 * (2 * _dense_cut(G) + 1) ** 2 + rounds * (2 * G + 3) ** 2
    work += (1 + 3 * len(plan)) * box_work
    return None if work >= n * (n + 1) // 2 else plan


def _level_pairs(lo: int, hi: int, width_cap: int, width_floor: int, g: int):
    """Intervals with endpoints on a spacing-g grid and width in (floor, cap].

    Each endpoint distance d, a multiple of g above the floor or cap - 1 (at
    most hi - lo), takes the grid starts lo, lo + g, ... that end by hi, then
    its right-anchored interval, which keeps the region edge reachable.
    """
    d = np.append(np.arange(g * (width_floor // g + 1), width_cap - 1, g), width_cap - 1)
    sizes = (hi - lo - d) // g + 2
    first = sizes.cumsum() - sizes
    D = np.repeat(d, sizes)
    I = lo + g * (np.arange(D.size) - np.repeat(first, sizes))
    I[first + sizes - 1] = hi - d
    return I, I + D


def _score_boxes(kernel: StatKernel, lo: int, hi: int, bi, bj, s, G: int):
    """Cells (I, J), values and each box's first cell of every candidate's refinement box.

    Box k crosses the starts bi[k] + off with the ends bj[k] + off, clipped to
    [lo, hi]; off runs -s[k], -s[k] + step, ... capped at s[k], with step 1 at
    or below the dense cut and s[k] // G above it.  The boxes lie row-major,
    back to back, unpadded; one ``objective`` call scores the cells with
    i <= j and the rest are -inf.
    """
    step = np.maximum(1, s // G)
    step[s <= _dense_cut(G)] = 1
    side = (2 * s + step - 1) // step + 1
    # the box axes back to back: entry r of box k has offset min(r * step - s, s)
    axis_box = np.repeat(np.arange(s.size), side)
    axis_first = side.cumsum() - side
    r = np.arange(axis_box.size) - axis_first[axis_box]
    sr = s[axis_box]
    off = np.minimum(r * step[axis_box] - sr, sr)
    Iax = np.minimum(np.maximum(bi[axis_box] + off, lo), hi)
    Jax = np.minimum(np.maximum(bj[axis_box] + off, lo), hi)
    # the cells: start r of box k meets every end of box k
    row_len = side[axis_box]
    first = (side * side).cumsum() - side * side
    I = np.repeat(Iax, row_len)
    J = Jax[np.arange(I.size) - np.repeat(first[axis_box] + r * row_len - axis_first[axis_box],
                                          row_len)]
    # both axes are sorted, so a box has cells with i > j iff its last start passes its first end
    if (Iax[axis_first + side - 1] > Jax[axis_first]).any():
        keep = I <= J
        v = np.full(I.size, -np.inf)
        v[keep] = kernel.objective(I[keep], J[keep])
    else:
        v = kernel.objective(I, J)
    return I, J, v, first


def _refine_lockstep(kernel: StatKernel, lo: int, hi: int, cands, spacings, G: int):
    """Walk every candidate interval to a local argmax with shrinking step sizes.

    The walks advance in lockstep, one ``_score_boxes`` batch per round.  A
    box's axes are sorted, so its first maximum is its smallest (i, j) tie.  A
    candidate moves there when it is ``_better``, else halves s; it stops
    after a box at s = 1 that does not move it.
    """
    bi = np.array([c[0] for c in cands], dtype=np.int64)
    bj = np.array([c[1] for c in cands], dtype=np.int64)
    bv = np.array([c[2] for c in cands], dtype=np.float64)
    s = np.maximum(1, np.array(spacings, dtype=np.int64))
    act = np.arange(len(cands))
    while act.size:
        ba, ja, va, sa = bi[act], bj[act], bv[act], s[act]
        I, J, v, first = _score_boxes(kernel, lo, hi, ba, ja, sa, G)
        top = np.maximum.reduceat(v, first)
        hits = (v == np.repeat(top, np.diff(first, append=v.size))).nonzero()[0]
        win = hits[hits.searchsorted(first)]
        ci, cj, cv = I[win], J[win], v[win]
        moved = (cv > va) | ((cv == va) & ((ci < ba) | ((ci == ba) & (cj < ja))))
        to = act[moved]
        bi[to], bj[to], bv[to] = ci[moved], cj[moved], cv[moved]
        going = moved | (sa > 1)
        s[act[going & ~moved]] //= 2
        act = act[going]
    return list(zip(bi.tolist(), bj.tolist(), bv.tolist()))


def _coord_refine(kernel: StatKernel, lo: int, hi: int, cand, swept: dict, rounds: int = 2):
    """Re-optimize one endpoint at a time over the whole region.

    Each sweep holds one endpoint fixed and moves the other across the full
    axis (endpoints swap roles when they cross), so every sweep evaluates the
    region once (``StatKernel.objective_sweep``), and its plain argmax is
    the smallest (i, j) tie.  A sweep's result depends only on its fixed
    endpoint, so ``swept`` keeps it by endpoint across a scan's candidates.
    The sweeps stop after a round that leaves the candidate unchanged.
    """
    best = cand
    for _ in range(rounds):
        start = best
        for fixed in (best[0], best[1]):
            if fixed not in swept:
                v = kernel.objective_sweep(fixed)
                k = int(np.argmax(v))
                a = lo + k
                swept[fixed] = (min(fixed, a), max(fixed, a), float(v[k]))
            if _better(*swept[fixed], best):
                best = swept[fixed]
        if best == start:
            break
    return best


def iterative_grid_scan(process: CombinedProcess, stat_kind: str, lo: int, hi: int,
                        grid_step: int = 10) -> ScanResult:
    """Coarse-to-fine interval scan.

    Phase 1 evaluates every interval up to width 3*grid_step, then a geometric
    ladder of wider widths on endpoint grids proportional to the width, keeping
    up to three separated candidates per level.  Phase 2 walks all candidates to
    local argmaxes in lockstep, one ``objective`` call per round
    (``_refine_lockstep``), sweeps the top four and the full-range interval one
    endpoint at a time over prefix-sum slices (``_coord_refine``) and returns
    the best.  Regions where the grid costs as much as all pairs are scanned
    exhaustively (``_ladder_plan`` returns None).
    """
    G = int(grid_step)
    if G < 2:
        raise ValueError("grid_step must be >= 2")
    _check_region(process, lo, hi)
    n = hi - lo + 1
    plan = _ladder_plan(n, G)
    # the dense sweep alone, n * n, costs as much as all pairs at n <= 3 * G (and
    # exhaustive_scan returns the empty result for a region of one read)
    if plan is None:
        return exhaustive_scan(process, stat_kind, lo, hi)

    kernel = StatKernel(process, stat_kind, lo, hi)
    # dense sweep of all small widths
    level_best = [(_best_of_widths(kernel, lo, min(3 * G, n)), 1)]

    for w, floor, g in plan:
        I, J = _level_pairs(lo, hi, w, floor, g)
        v = kernel.objective(I, J)
        for cand in _argbest_diverse(I, J, v, k=3, radius=max(2 * g, w // 4)):
            level_best.append((cand, g))

    refined = _refine_lockstep(kernel, lo, hi, *zip(*level_best), G)
    # in _better's order: a candidate after the fourth cannot beat the first's sweep
    refined.sort(key=lambda c: (-c[2], c[0], c[1]))
    # the full-range seed catches argmaxes hugging both region edges
    full = (lo, hi, float(kernel.objective(np.array([lo]), np.array([hi]))[0]))

    best = None
    swept: dict[int, tuple] = {}
    for cand in refined[:4] + [full]:
        r = _coord_refine(kernel, lo, hi, cand, swept)
        if _better(*r, best):
            best = r

    i, j, obj = best
    return ScanResult(best=kernel.stat(i, j), objective=obj)


def cbs_segment(
    process: CombinedProcess,
    stat_kind: str = "glr",
    grid_step: int = 10,
    max_k: int = 50,
) -> ChangePointSequence:
    """Greedy recursive segmentation of the whole read stream.

    Maintains a partition of [1, m].  Each step scans every current region,
    takes the region whose best interval has the highest objective, and
    inserts that interval's endpoints as change points (one endpoint when the
    interval touches the region edge).  Regions whose best interval adds no
    new change point are retired.  Stops after ``max_k`` change points or
    when no region has a positive objective.
    """
    if max_k < 1:
        raise ValueError("max_k must be >= 1")
    m = process.m
    steps: list[ScanStep] = []
    if m < 2:
        return ChangePointSequence(steps=steps, m=m)

    # every region of the partition -> its best (i, j, objective), or None once retired;
    # (objective, -start) orders the regions totally, so the dict's order never matters
    found: dict[tuple[int, int], tuple | None] = {}
    parts = [(1, m)]
    n_taus = 0

    while n_taus < max_k:
        for a, b in parts:
            res = iterative_grid_scan(process, stat_kind, a, b, grid_step)
            found[a, b] = None if res.best is None else (res.best.i, res.best.j, res.objective)
        parts = []

        live = [(reg, cand) for reg, cand in found.items() if cand is not None]
        if not live:
            break
        reg, (i, j, obj) = max(live, key=lambda rc: (rc[1][2], -rc[0][0]))
        a, b = reg
        if obj <= 0.0:
            break

        new_taus = []
        if i > a:
            new_taus.append(i)
        if j < b and j + 1 <= m - 1:
            new_taus.append(j + 1)
        new_taus = new_taus[: max_k - n_taus]
        if not new_taus:
            found[reg] = None  # interval spans the region: nothing left to split
            continue

        steps.append(ScanStep(taus_added=tuple(new_taus), region=reg, objective=obj))
        n_taus += len(new_taus)

        bounds = [a] + sorted(new_taus) + [b + 1]
        del found[reg]
        parts = [(s, e - 1) for s, e in zip(bounds, bounds[1:]) if s <= e - 1]

    return ChangePointSequence(steps=steps, m=m)
