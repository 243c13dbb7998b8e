"""Interval scanning and greedy recursive segmentation.

``exhaustive_scan`` evaluates every interval in a region and is the accuracy
reference.  ``iterative_grid_scan`` evaluates a geometric ladder of interval
widths on coarse endpoint grids and then refines the retained candidates down
to single-read resolution, keeping the total work near-linear in the region
size.  ``cbs_segment`` applies the scan recursively, inserting the most
significant interval's endpoints as change points until reaching ``max_k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .process import CombinedProcess
from .stats import IntervalStat, StatKernel


@dataclass(frozen=True)
class ScanResult:
    """Best interval found in one region, plus the retained candidates."""

    best: IntervalStat | None
    objective: float
    candidates: list[IntervalStat] = field(default_factory=list)


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


def _argbest(I: np.ndarray, J: np.ndarray, v: np.ndarray):
    """Max objective with deterministic lexicographic (i, j) tie-break."""
    vmax = v.max()
    mask = v == vmax
    Im, Jm = I[mask], J[mask]
    k = np.lexsort((Jm, Im))[0]
    return int(Im[k]), int(Jm[k]), float(vmax)


def _argbest_diverse(I: np.ndarray, J: np.ndarray, v: np.ndarray, k: int, radius: int):
    """Up to k well-separated top candidates (same tie-break as _argbest)."""
    out = []
    alive = np.ones(v.size, dtype=bool)
    for _ in range(k):
        if not alive.any():
            break
        Ia, Ja, va = I[alive], J[alive], v[alive]
        ci, cj, cv = _argbest(Ia, Ja, va)
        out.append((ci, cj, cv))
        alive &= ~((np.abs(I - ci) < radius) & (np.abs(J - cj) < radius))
    return out


def _better(i, j, v, best):
    """Candidate replacement rule: higher objective, then smaller (i, j)."""
    if best is None:
        return True
    bi, bj, bv = best
    return v > bv or (v == bv and (i, j) < (bi, bj))


def _check_region(process: CombinedProcess, lo: int, hi: int) -> None:
    if not (1 <= lo and hi <= process.m):
        raise ValueError(f"region [{lo}, {hi}] outside [1, {process.m}]")


def exhaustive_scan(process: CombinedProcess, stat_kind: str, lo: int, hi: int) -> ScanResult:
    """Evaluate every interval with lo <= i <= j <= hi and return the argmax.

    The region is scanned as its own sequence, so the full-range interval is
    skipped for the likelihood-ratio statistic (it has no outside reads).  A
    region narrower than 2 reads yields an empty result.
    """
    _check_region(process, lo, hi)
    if hi - lo < 1:
        return ScanResult(best=None, objective=float("-inf"))
    kernel = StatKernel(process, stat_kind, lo, hi)
    n = hi - lo + 1
    ii, jj = np.triu_indices(n)
    I = ii.astype(np.int64) + lo
    J = jj.astype(np.int64) + lo
    v = kernel.objective(I, J)
    i, j, obj = _argbest(I, J, v)
    best = kernel.stat(i, j)
    return ScanResult(best=best, objective=obj, candidates=[best])


def _dense_cut(G: int) -> int:
    """Refinement step size below which a candidate's neighborhood is scanned densely."""
    return max(4, 64 // G)


def _ladder_plan(n: int, G: int) -> list[tuple[int, int, int]]:
    """(width cap, width floor, endpoint spacing) of every grid level of a region.

    Widths shrink geometrically by G from the region size; levels at or below
    3*G are left to the dense small-width sweep.
    """
    ws = [n]
    while ws[-1] > 2:
        ws.append(max(2, ws[-1] // G))
    plan = []
    for w, below in zip(ws, ws[1:] + [1]):
        if w <= 3 * G:
            continue
        floor = max(below, 3 * G - 1)
        plan.append((w, floor, _level_spacing(n, w, floor, G)))
    return plan


def _grid_work_estimate(n: int, G: int, plan) -> int:
    """Number of interval evaluations the grid scheme would spend on a region.

    Counts the dense small-width sweep, every ladder level, and a refinement
    budget per retained candidate.  Used to fall back to the exhaustive scan
    whenever the grid path would do at least as much work.
    """
    total = min(3 * G, n) * n
    for w, floor, g in plan:
        total += (n // g + 1) * max(1, (w - floor) // g)
    n_cand = 1 + 3 * len(plan)
    box_dense = (2 * _dense_cut(G) + 1) ** 2
    box_grid = (2 * G + 3) ** 2
    rounds = max(1, int(np.log2(max(n, 2))))
    total += n_cand * (3 * box_dense + rounds * box_grid)
    return total


def _level_spacing(n: int, width_cap: int, width_floor: int, G: int) -> int:
    """Endpoint grid spacing for one ladder level.

    Starts at width/(2G) and widens until the level stays within a linear
    evaluation budget, so total work per scan does not depend on where the
    region size falls between powers of G.
    """
    g = max(1, width_cap // (2 * G))
    budget = 2 * n
    while ((n // g + 1) * max(1, (width_cap - width_floor) // g)) > budget:
        g += max(1, g // 4)
    return g


def _level_pairs(lo: int, hi: int, width_cap: int, width_floor: int, g: int):
    """Intervals with endpoints on a spacing-g grid and width in (floor, cap]."""
    starts = np.arange(lo, hi + 1, g, dtype=np.int64)
    d0 = max(g * ((width_floor // g) + 1), g)
    deltas = list(range(d0, width_cap, g))
    if width_cap - 1 >= width_floor:
        deltas.append(width_cap - 1)
    out_I, out_J = [], []
    for d in sorted(set(deltas)):
        I = starts[starts + d <= hi]
        if I.size:
            out_I.append(I)
            out_J.append(I + d)
        # right-anchored interval keeps the region edge reachable
        if hi - d >= lo:
            out_I.append(np.array([hi - d], dtype=np.int64))
            out_J.append(np.array([hi], dtype=np.int64))
    return np.concatenate(out_I), np.concatenate(out_J)


def _refine(kernel: StatKernel, lo: int, hi: int, cand, spacing: int, G: int):
    """Walk a candidate interval to a local argmax with shrinking step sizes.

    Each step scores a box of starts by ends.  Its axes are sorted, so the box's
    row-major argmax is ``_argbest``'s pick; every move improves ``_better``'s order.
    """
    best = cand
    s = max(1, spacing)
    while True:
        off = np.append(np.arange(-s, s, 1 if s <= _dense_cut(G) else max(1, s // G)), s)
        Ii = np.minimum(np.maximum(best[0] + off, lo), hi)
        Jj = np.minimum(np.maximum(best[1] + off, lo), hi)
        v = kernel.objective_box(Ii, Jj)
        r, c = divmod(int(np.argmax(v)), Jj.size)
        cand = (int(Ii[r]), int(Jj[c]), float(v[r, c]))
        if _better(*cand, best):
            best = cand
            continue
        if s == 1:
            break
        s = max(1, s // 2)
    return best


def _coord_refine(kernel: StatKernel, lo: int, hi: int, cand, swept: dict, rounds: int = 2):
    """Re-optimize one endpoint at a time over the whole region.

    Each sweep holds one endpoint fixed and moves the other across the full
    axis (endpoints swap roles when they cross), so every sweep evaluates the
    region once.  A sweep's result depends only on its fixed endpoint, so
    ``swept`` keeps it by endpoint across a scan's candidates.  The sweeps stop
    after a round that leaves the candidate unchanged.
    """
    best = cand
    for _ in range(rounds):
        start = best
        for fixed in (best[0], best[1]):
            if fixed not in swept:
                axis = np.arange(lo, hi + 1, dtype=np.int64)
                I = np.minimum(fixed, axis)
                J = np.maximum(fixed, axis)
                swept[fixed] = _argbest(I, J, kernel.objective(I, J))
            if _better(*swept[fixed], best):
                best = swept[fixed]
        if best == start:
            break
    return best


def iterative_grid_scan(
    process: CombinedProcess, stat_kind: str, lo: int, hi: int, grid_step: int = 10
) -> ScanResult:
    """Coarse-to-fine interval scan.

    Phase 1 evaluates every interval up to width 3*grid_step, then a geometric
    ladder of wider widths on endpoint grids proportional to the width, keeping
    up to three separated candidates per level.  Phase 2 walks each candidate to
    a local argmax (``_refine``), sweeps the top four and the full-range interval
    one endpoint at a time (``_coord_refine``) and returns the best.  Regions
    where the grid costs as much as all pairs are scanned exhaustively.
    """
    G = int(grid_step)
    if G < 2:
        raise ValueError("grid_step must be >= 2")
    _check_region(process, lo, hi)
    n = hi - lo + 1
    plan = _ladder_plan(n, G)
    # the grid degenerates to all pairs whenever it would cost as much anyway
    # (and exhaustive_scan returns the empty result for a region of one read)
    if n <= 3 * G or _grid_work_estimate(n, G, plan) >= n * (n + 1) // 2:
        return exhaustive_scan(process, stat_kind, lo, hi)

    kernel = StatKernel(process, stat_kind, lo, hi)
    level_best: list[tuple] = []

    # dense sweep of all small widths, batched per width; argmax takes the first
    # maximum, the smallest i, as _argbest does among intervals of one width
    small = None
    for d in range(0, min(3 * G, n)):
        v = kernel.objective_width(d)
        k = int(np.argmax(v))
        cand = (lo + k, lo + k + d, float(v[k]))
        if _better(*cand, small):
            small = cand
    level_best.append((small, 1))

    for w, floor, g in plan:
        I, J = _level_pairs(lo, hi, w, floor, g)
        v = kernel.objective(I, J)
        for cand in _argbest_diverse(I, J, v, k=3, radius=max(2 * g, w // 4)):
            level_best.append((cand, g))

    refined = [_refine(kernel, lo, hi, cand, spacing, G) for cand, spacing in level_best]
    refined.sort(key=lambda c: (-c[2], c[0], c[1]))
    # the full-range seed catches argmaxes hugging both region edges
    refined.append((lo, hi, float(kernel.objective(np.array([lo]), np.array([hi]))[0])))

    best = None
    swept: dict[int, tuple] = {}
    for k, cand in enumerate(refined):
        r = _coord_refine(kernel, lo, hi, cand, swept) if k < 4 or k == len(refined) - 1 else cand
        refined[k] = r
        if _better(r[0], r[1], r[2], best):
            best = r

    i, j, obj = best
    stats = [kernel.stat(ri, rj) for ri, rj, _ in sorted(refined, key=lambda c: (-c[2], c[0], c[1]))]
    return ScanResult(best=kernel.stat(i, j), objective=obj, candidates=stats)


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

    regions: list[tuple[int, int]] = [(1, m)]
    cache: dict[tuple[int, int], tuple | None] = {}
    n_taus = 0

    while n_taus < max_k:
        for reg in regions:
            if reg in cache:
                continue
            a, b = reg
            if b - a < 1:
                cache[reg] = None
                continue
            res = iterative_grid_scan(process, stat_kind, a, b, grid_step)
            if res.best is None:
                cache[reg] = None
            else:
                cache[reg] = (res.best.i, res.best.j, res.objective)

        live = [(reg, cache[reg]) for reg in regions if cache[reg] is not None]
        if not live:
            break
        reg, cand = max(live, key=lambda rc: (rc[1][2], -rc[0][0]))
        a, b = reg
        i, j, obj = cand
        if obj <= 0.0:
            break

        new_taus = []
        if i > a:
            new_taus.append(i)
        if j < b and j + 1 <= m - 1:
            new_taus.append(j + 1)
        new_taus = new_taus[: max_k - n_taus]
        if not new_taus:
            cache[reg] = None  # interval spans the region: nothing left to split
            continue

        steps.append(ScanStep(taus_added=tuple(new_taus), region=reg, objective=obj))
        n_taus += len(new_taus)

        bounds = [a] + sorted(new_taus) + [b + 1]
        parts = [(s, e - 1) for s, e in zip(bounds, bounds[1:]) if s <= e - 1]
        regions.remove(reg)
        del cache[reg]
        regions.extend(parts)
        regions.sort()

    return ChangePointSequence(steps=steps, m=m)
