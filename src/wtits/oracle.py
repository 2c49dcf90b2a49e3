"""Numerical ground truth on SO(n) for the SL(n,R) presets.

The maximal compact subgroup of SL(n,R) is SO(n) and the relevant isotropy
component M_0 is trivial, so the extended flag manifold is SO(n) itself and
a point of it is just a special orthogonal matrix.  This module provides:

  * the Iwasawa projection (QR with positive upper factor), for one matrix
    or a stack of them,
  * the characteristic maps Psi_u that parametrize Schubert cells, each a
    product of the rank-one block rotations psi along u's reduced lift,
  * a sampling-based incidence test between cells, and
  * translation flows x -> K-part(g x) and recovery of their minimal
    Morse components.

A cell sample starts with the exact {0, 1/2, 1}^d grid rows, whose images
are the group elements of the closed cell, so every positive incidence
verdict comes from those rows (distance at rounding level).  The uniform
draws after them only bound the negative-pair margin: how close the closed
cell comes to an element outside it.  A cell is processed by two kernels,
a block of parameter rows at a time, and its parameters are streamed too:
each block's uniforms are drawn from the cell's substream straight into a
reused buffer.  The sampling kernel applies each rank-one rotation in
place, to the two columns of its plane, in a component-major (n, n, rows)
buffer, so every update is one vector operation.  The distance kernel
takes one Gram product of the block with every target; a row can be
within GRAM_SLACK of a target's block minimum only if
2 (max_i G_ij - G_ij) <= GRAM_SLACK + (max |x|^2 - min |x|^2), and those
(target, row) pairs are recomputed exactly, so each distance equals the
direct minimum over all rows.  A target that passes on every row of the
block, as one at the same distance from the whole cell does, is
recomputed densely over the block's rows; the other pairs are gathered, a
bounded run at a time.  Both rechecks read the block in its
component-major layout, one vector over the rows per entry, and add the
n^2 squared entries in numpy's pairwise order (`_sum_entries`), so each
sum is the float `np.add.reduce` gives over one point.  Every buffer of
both kernels belongs to one workspace per caller (`_Workspace`), which
holds WORKSPACE_BYTES at most: its block rows follow from n, the longest
reduced lift and the number of targets, so a cell's memory does not
depend on its `count`, and no block allocates an array of its own size.
The agreement report streams every cell through both kernels, one cell
at a time on each worker thread, one worker (and one workspace) per
available CPU; the exact-layer data of every cell (reduced lifts,
rotation planes, cell keys, target matrices) and every combinatorial
verdict are computed on the calling thread.  The workers share the
interpreter lock, which a worker holds between numpy calls and which
every call gives up and takes back, so each step between calls can make
the other worker wait: a block keeps those steps few (its views are made
once per block shape, a rotation updates its two columns in four calls,
and longer blocks make fewer calls per row) and calls nothing that keeps
the lock for a whole run (`np.minimum.at` does).

A flow advances all of its starts (the group points, then the random
ones) as one (starts, n, n) stack: each step is one product with the flow
matrix and one batched QR, with every check applied to each matrix.  A
start that the first step returns bit for bit is fixed, so only the
others are stepped after it; a matrix's QR does not depend on the rest of
its stack, so every limit is the one of the whole stack.
Sample and start stacks, and a flow's table of start-to-component
distances, are refused from their predicted size, before any allocation,
above MAX_STACK_FLOATS (a flow's before U is closed); the report applies
the same refusal to each cell, before any draw, although it never holds
a whole cell, and the order's cap (`xorder.require_order_memory`) before
U is closed.

This is the package's only numpy user.  `wtits` resolves the names it
re-exports from here on first access, so the exact commands never import
it.

Everything random is driven by named integer seeds; per-cell sampling
derives its substream from (seed, cell key), so reports are reproducible
and independent of the order and the thread in which cells run.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from math import hypot, isfinite, log, prod

import numpy as np

from .errors import Frozen
from .utits import (
    GroupPreset,
    UElement,
    canonical_form,
    closed_size,
    cosets,
    coset_label,
    enumerate_U,
    subgroup_U_H,
)
from .xorder import _down_masks, require_order_memory

ORTHO_TOL = 1e-10
MAX_STACK_FLOATS = 1 << 25  # 256 MiB of float64: the largest cell sample or flow stack
CONVERGE_TOL = 1e-4  # the farthest a flow limit may lie from its Morse component


def _require_nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _require_stack_size(floats: int, what: str) -> None:
    """Refuse a stack from its predicted size, before it is allocated."""
    if floats > MAX_STACK_FLOATS:
        raise ValueError(
            f"{what} needs {floats} floats, over the cap of {MAX_STACK_FLOATS}"
        )


def _as_float(mat) -> np.ndarray:
    if isinstance(mat, UElement):
        mat = mat.matrix
    return np.array(mat, dtype=float)


def iwasawa_K(g) -> np.ndarray:
    """K-factor of the Iwasawa decomposition g = k a n, computed as the QR
    factorization normalized to a positive-diagonal upper factor.

    `g` is one matrix or a stack (..., n, n); a stack is factored in one
    batched QR and every matrix of it must pass every check."""
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-1] != g.shape[-2]:
        raise ValueError("expected a square matrix")
    return _iwasawa_K(g)


def _iwasawa_K(g: np.ndarray) -> np.ndarray:
    """`iwasawa_K` of a float stack of square matrices."""
    det = np.linalg.det(g)
    if not (np.isfinite(det) & (det > 0)).all():
        raise ValueError("Iwasawa projection needs det g > 0")
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    if not signs.all():
        raise ValueError("matrix is numerically singular")
    # every sign is +-1, so q r is k (signs r) bit for bit
    residual = _frobenius(q @ r - g)
    if (residual >= ORTHO_TOL * np.maximum(1.0, _frobenius(g))).any():
        raise ArithmeticError("QR reconstruction residual too large")
    return q * signs[..., None, :]  # flip columns so the upper factor has positive diagonal


def _frobenius(x: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack (a scalar for one matrix)."""
    return np.sqrt(np.einsum("...ij,...ij->...", x, x))


def _rotation_block_of(gen: UElement) -> tuple[int, int, int]:
    """Locate the 2x2 quarter-turn block of a split rank-one generator:
    returns (p, q, orientation) with p < q, gen[p][q] = -orientation."""
    mat = gen.matrix
    n = len(mat)
    off = [
        (i, j) for i in range(n) for j in range(n)
        if i != j and mat[i][j] != 0
    ]
    if len(off) != 2:
        raise ValueError("generator is not a single rotation block")
    (i, j), (i2, j2) = off
    if {i, j} != {i2, j2}:
        raise ValueError("generator is not a single rotation block")
    p, q = min(i, j), max(i, j)
    orientation = -mat[p][q]
    if mat[q][p] != orientation or abs(orientation) != 1:
        raise ValueError("generator block is not a quarter turn")
    for k in range(n):
        if k not in (p, q) and mat[k][k] != 1:
            raise ValueError("generator is not a single rotation block")
    if mat[p][p] != 0 or mat[q][q] != 0:
        raise ValueError("generator block is not a quarter turn")
    return p, q, orientation


# -- Schubert cell sampling ----------------------------------------------------


# the type sample_schubert returns, kept with it for benchmarks/tracer.py
class CellSample(Frozen):
    """Points Psi_u(t) of one closed Schubert cell, with their parameters.

    The first rows of `parameters` are the distinguished grid {0, 1/2, 1}^d
    (whose images are exactly the group elements lying in the closed cell,
    the all-halves point giving u itself); the remainder are the uniform
    draws.  `u` is the cell's `UElement`; `points` is an array of shape
    (N, n, n) and `parameters` one of shape (N, d).
    """

    __slots__ = ("u", "points", "parameters")


class _CellPlan(Frozen):
    """The exact-layer data of one cell, as plain numbers: the rotation
    plane (p, q, orientation) of each letter of u's reduced lift, the C
    part as a signed permutation of columns (column j of Psi_u is
    c_signs[j] times column c_columns[j] of the rotation product, both
    arrays of length n), and the substream key, a tuple of ints."""

    _fields = ("n", "planes", "c_columns", "c_signs", "key")

    @cached_property
    def turns(self) -> np.ndarray:
        """pi times each letter's orientation, as a column: t (pi orientation)
        is the same float as pi t orientation."""
        turns = np.pi * np.array([orientation for *_, orientation in self.planes], dtype=float)
        return turns[:, None]


def _cell_plan(u: UElement, count: int) -> _CellPlan:
    """Everything a cell sample needs from the exact layer, with the size
    guard applied before anything is drawn or allocated."""
    preset = u.preset
    if any(m != 1 for m in preset.root_datum.multiplicities):
        raise ValueError("cell sampling requires a split preset (all multiplicities 1)")
    _require_nonnegative("count", count)
    word, c = canonical_form(u)
    n = preset.n
    _require_stack_size((count + 3 ** len(word) + 1) * n * n, f"a cell sample with count={count}")
    planes = tuple(_rotation_block_of(preset.generator(letter)) for letter in word)
    # C is generated by squares of quarter turns, so c is a signed permutation
    c_float = _as_float(c)
    columns = np.abs(c_float).argmax(axis=0)
    return _CellPlan(n, planes, columns, c_float[columns, np.arange(n)], u_cell_key(u))


class _Workspace:
    """The buffers of one kernel caller, allocated once and reused by every
    block.  Each buffer holds a fixed number of entries per block row, set
    by n, the longest reduced lift d and the number of targets, so the
    rows of a block (`rows`) are the most that keep the buffers within
    WORKSPACE_BYTES: a cell's `count` never enters.  A block of `rows` rows
    works in views of their leading entries (`_view`, `_views`), so each
    view has the same contiguous layout as a fresh array of that shape; the
    views of one block shape are made once (`block`).

    Most of a block's intermediates live one after another in the same
    buffer, `scratch`: the sampling kernel's parameters, angles and
    rotated columns, which are spent once the rotation product is taken;
    then the Gram product, spent once its mask is taken; then the exact
    recheck's squared differences, component major like the points."""

    def __init__(self, n: int, d: int, targets: int):
        entries = n * n
        # in floats a row: the sampling kernel's steps, the Gram product,
        # and two points (a difference and a picked target)
        scratch = max(3 * d + 2 * n, targets, 2 * entries)
        row_bytes = (
            8 * (2 * entries + scratch + 2)  # rotated, points, scratch, norms, sums
            + 2 * np.dtype(np.intp).itemsize  # pair_targets, pair_rows
            + targets + 1  # mask, starts
        )
        rows = max(1, (WORKSPACE_BYTES - 9 * targets) // row_bytes)  # reach and tied are per target
        if rows > GRAM_SLICE:
            rows -= rows % GRAM_SLICE
        self.n, self.targets, self.rows = n, targets, rows
        self.rotated = np.empty(entries * rows)  # the rotation product
        self.points = np.empty(entries * rows)  # its columns permuted by the C part
        self.scratch = np.empty(scratch * rows)
        self.norms = np.empty(rows)
        self.reach = np.empty((targets, 1))
        self.mask = np.empty(targets * rows, dtype=bool)
        self.tied = np.empty(targets, dtype=bool)  # targets within the slack on every row
        # the exact recheck of the other hits, a run of at most `pairs` at a time
        self.pairs = rows
        self.pair_targets = np.empty(rows, dtype=np.intp)
        self.pair_rows = np.empty(rows, dtype=np.intp)
        self.sums = np.empty(rows)
        self.starts = np.empty(rows, dtype=bool)  # where a run's next target begins
        self._blocks: dict[tuple[int, int], _BlockViews] = {}

    def block(self, rows: int, d: int) -> _BlockViews:
        """The views of a block of `rows` rows and d letters.  A cell has at
        most two block shapes (full blocks and its last one), so the few
        shapes of a report are each made once instead of once per block."""
        views = self._blocks.get((rows, d))
        if views is None:
            views = self._blocks[(rows, d)] = _BlockViews(self, rows, d)
        return views


class _BlockViews:
    """Every view one block takes of its workspace's buffers."""

    def __init__(self, work: _Workspace, rows: int, d: int):
        n, targets, entries = work.n, work.targets, work.n * work.n
        # the sampling kernel: the sines overwrite their angles, and x_p s
        # and x_q s of one rotation are `moved`
        self.ts, self.cos, self.angles, self.moved = _views(
            work.scratch, (rows, d), (d, rows), (d, rows), (n, 2, rows)
        )
        self.sin = self.angles
        self.rotated = _view(work.rotated, n, n, rows)
        self.diagonal = self.rotated.reshape(entries, rows)[:: n + 1]
        self.points = _view(work.points, n, n, rows)
        # the distance kernel
        self.gram = _view(work.scratch, targets, rows)
        self.norms = work.norms[:rows]
        self.mask = _view(work.mask, targets, rows)
        # the dense recheck of tied targets, as many at a time as fit
        tied = min(targets, len(work.scratch) // (rows * (entries + 1)))
        self.tied_squares, self.tied_sums = _views(
            work.scratch, (tied, entries, rows), (tied, rows)
        )


def _view(buffer: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of a workspace buffer as a C-contiguous array."""
    return buffer[: prod(shape)].reshape(shape)


def _views(buffer: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive leading entries of a workspace buffer, one C-contiguous
    array of each shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + prod(shape)
        views.append(buffer[start:stop].reshape(shape))
        start = stop
    return views


def _cell_parameters(plan: _CellPlan, count: int, seed: int, work: _Workspace):
    """The interior point, the {0, 1/2, 1}^d grid (in the order of
    itertools.product), then `count` uniform draws from the cell's (seed,
    key) substream, yielded `work.rows` rows at a time as views of one
    reused buffer.  The draws of a block go straight into its tail; drawing
    the (count, d) uniforms in pieces consumes the stream exactly as one
    whole draw does.  A point cell (d = 0) has the one empty row."""
    d = len(plan.planes)
    fixed = 1 + 3**d if d else 1  # the interior point and the grid
    total = fixed + count if d else 1
    rng = np.random.default_rng([seed, *plan.key])
    for start in range(0, total, work.rows):
        stop = min(start + work.rows, total)
        ts = work.block(stop - start, d).ts
        if start == 0:
            ts[0] = 0.5
        lo, hi = max(start, 1), min(stop, fixed)
        if lo < hi:
            grid = np.arange(lo - 1, hi - 1)  # grid row g holds the base-3 digits of g, halved
            for col in range(d):
                ts[lo - start : hi - start, col] = grid // 3 ** (d - 1 - col) % 3 * 0.5
        if stop > fixed:
            rng.random(out=ts[max(fixed - start, 0) :])
        yield ts


def _cell_block(plan: _CellPlan, ts: np.ndarray, work: _Workspace) -> np.ndarray:
    """Psi_u(t) = psi_1(t_1) ... psi_d(t_d) c at each row of `ts`, component
    major: entry (i, j) of the point of row r is out[i, j, r].  The result
    is a view of `work.points`, valid until the next block.

    Each psi is a rotation in one plane (p, q), so it is applied in place to
    columns p and q only, each update one vector operation over the rows."""
    rows, d = len(ts), len(plan.planes)
    views = work.block(rows, d)
    x = views.rotated
    x.fill(0.0)
    views.diagonal.fill(1.0)
    np.multiply(ts.T, plan.turns, out=views.angles)  # every letter's angles at once
    np.cos(views.angles, out=views.cos)
    np.sin(views.angles, out=views.sin)  # in place
    moved = views.moved
    for (p, q, _), c, s in zip(plan.planes, views.cos, views.sin):
        pair = x[:, p : q + 1 : q - p]  # columns p and q (p < q) as one (n, 2, rows) view
        np.multiply(pair, s, out=moved)  # x_p s and x_q s
        pair *= c
        pair[:, 0] += moved[:, 1]  # x_p c + x_q s
        pair[:, 1] -= moved[:, 0]  # x_q c - x_p s
    # the indices are in range, and mode="clip" writes `out` without a buffer
    points = x.take(plan.c_columns, axis=1, out=views.points, mode="clip")
    points *= plan.c_signs[:, None]
    return points


# no command calls it; kept because benchmarks/tracer.py wraps it
def sample_schubert(u: UElement, count: int, seed: int) -> CellSample:
    """Sample the closed cell of u: the distinguished {0, 1/2, 1}^d grid
    followed by `count` uniform parameter draws, pushed through
    Psi_u(t) = psi_1(t_1) ... psi_d(t_d) c.  The blocks of the streaming
    kernels are copied out, since the sample holds every row."""
    plan = _cell_plan(u, count)
    work = _Workspace(plan.n, len(plan.planes), 0)
    parameters, points = [], []
    for ts in _cell_parameters(plan, count, seed, work):
        parameters.append(ts.copy())
        points.append(_cell_block(plan, ts, work).transpose(2, 0, 1).copy())
    return CellSample(u=u, points=np.concatenate(points), parameters=np.concatenate(parameters))


def u_cell_key(u: UElement) -> tuple[int, ...]:
    """Deterministic nonnegative substream key, one entry per matrix entry.

    Entries -1, 0, 1 map to 0, 1, 2, which fixes the seeded streams of
    signed-permutation groups; larger entries x map to 2x - 1 and smaller
    ones to -2x, so distinct matrices of one size get distinct keys."""
    return tuple(
        x + 1 if -1 <= x <= 1 else (2 * x - 1 if x > 1 else -2 * x)
        for row in u.matrix
        for x in row
    )


WORKSPACE_BYTES = 1 << 21  # the buffers of one kernel caller; they set its block rows
GRAM_SLACK = 1e-6  # squared-distance slack of the exact recheck
GRAM_SLICE = 64  # sample rows per matrix product of the Gram pass


def _gram(targets: np.ndarray, flat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """targets @ flat, taken as a stack of products of GRAM_SLICE columns
    each (and one for the remainder), written to `out` when given.  Products
    that small run on the calling thread inside BLAS; a whole-block product
    is split over BLAS's own threads, which the report's workers then
    oversubscribe (the sl4 report at 2000 draws took 1.2 s that way against
    0.76 s, two workers on a 2-vCPU VM)."""
    slices = flat.shape[1] // GRAM_SLICE
    bulk = slices * GRAM_SLICE
    gram = np.empty((len(targets), flat.shape[1])) if out is None else out
    if slices:
        np.matmul(
            targets,
            flat[:, :bulk].reshape(len(flat), slices, GRAM_SLICE).transpose(1, 0, 2),
            out=gram[:, :bulk].reshape(len(gram), slices, GRAM_SLICE).transpose(1, 0, 2),
        )
    if bulk < flat.shape[1]:
        np.matmul(targets, flat[:, bulk:], out=gram[:, bulk:])
    return gram


def _sum_entries(squares: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum `squares` (..., entries, rows) over its entry axis into `out`
    (..., rows), in the order `np.add.reduce` sums a contiguous row of
    `entries` floats (numpy's pairwise sum), so each row's sum is the same
    float: fewer than 8 entries left to right; up to 128 in 8 running sums
    over the whole blocks of 8, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
    then the rest left to right; more in two halves, the first a multiple
    of 8 long.  The running sums are kept in `squares`, which is spent."""
    entries = squares.shape[-2]
    if entries > 128:
        half = entries // 2 - entries // 2 % 8
        left = _sum_entries(squares[..., :half, :], squares[..., 0, :])
        right = _sum_entries(squares[..., half:, :], squares[..., half, :])
        return np.add(left, right, out=out)
    if entries < 8:
        np.copyto(out, squares[..., 0, :])
        done = 1
    else:
        done = entries - entries % 8
        acc = squares[..., :8, :]
        for start in range(8, done, 8):
            acc += squares[..., start : start + 8, :]
        acc[..., 0::2, :] += acc[..., 1::2, :]
        acc[..., 0::4, :] += acc[..., 2::4, :]
        np.add(acc[..., 0, :], acc[..., 4, :], out=out)
    for entry in range(done, entries):
        out += squares[..., entry, :]
    return out


def _nearest(x: np.ndarray, targets: np.ndarray, best: np.ndarray, work: _Workspace) -> None:
    """Lower best[j] to the smallest squared distance from targets[j] to a
    point of the component-major block `x` (see `_cell_block`), with every
    intermediate in the buffers of `work`.

    One Gram product G = T x gives every inner product.  Since
    |x_i - t_j|^2 = |x_i|^2 + |t_j|^2 - 2 G_ij, a row i within GRAM_SLACK of
    target j's block minimum satisfies
    2 (max_i G_ij - G_ij) <= GRAM_SLACK + (max |x|^2 - min |x|^2),
    and exactly those (target, row) pairs are recomputed directly.  A
    target that passes on every row (its distance is the same all over the
    cell) is recomputed densely, over the whole block at once, as many such
    targets at a time as the scratch buffer holds.  The other pairs are
    gathered, at most `work.pairs` of them at a time, however many rows
    tie.  Either way the recheck reads the block in its own component-major
    layout: each of the n^2 entries is subtracted and squared as one vector
    over the rows, and `_sum_entries` adds the entry vectors in the order
    `np.add.reduce` sums a point of a CellSample, so each pair's sum is the
    same float.  Each target keeps its minimum across runs and blocks: a
    run is target-major, so its targets' minima are one
    `np.minimum.reduceat` over the run's segments.  The arrays a block
    allocates hold indices of its hits and tied targets, and the tied
    targets' entries: none of them grows with the rows of a tie."""
    entries, rows = x.shape[0] * x.shape[1], x.shape[2]
    flat = x.reshape(entries, rows)
    flat_targets = targets.reshape(len(targets), entries)
    views = work.block(rows, 0)
    gram = _gram(flat_targets, flat, out=views.gram)
    norms = np.einsum("ir,ir->r", flat, flat, out=views.norms)
    reach = np.maximum.reduce(gram, axis=1, keepdims=True, out=work.reach)
    reach -= 0.5 * (GRAM_SLACK + (norms.max() - norms.min()))
    mask = np.greater_equal(gram, reach, out=views.mask)
    # the Gram product is spent: its buffer now holds the squared differences
    tied = np.logical_and.reduce(mask, axis=1, out=work.tied).nonzero()[0]
    if len(tied):
        mask[tied] = False
        for start in range(0, len(tied), len(views.tied_sums)):
            chunk = tied[start : start + len(views.tied_sums)]
            squares = views.tied_squares[: len(chunk)]
            np.subtract(flat, flat_targets[chunk, :, None], out=squares)
            squares *= squares
            sums = _sum_entries(squares, views.tied_sums[: len(chunk)])
            best[chunk] = np.minimum(best[chunk], np.minimum.reduce(sums, axis=1))
    hits = mask.reshape(-1).nonzero()[0]  # target-major (target, row) indices
    for start in range(0, len(hits), work.pairs):
        run = hits[start : start + work.pairs]
        k = len(run)
        cols, picked_rows = np.divmod(run, rows, out=(work.pair_targets[:k], work.pair_rows[:k]))
        squares, picked_targets = _views(work.scratch, (entries, k), (k, entries))
        flat.take(picked_rows, axis=1, out=squares, mode="clip")
        squares -= flat_targets.take(cols, axis=0, out=picked_targets, mode="clip").T
        squares *= squares
        sums = _sum_entries(squares, work.sums[:k])
        # the run is target-major, one segment per target; a target's pairs
        # may span two runs, so each run lowers the minimum of its segments
        starts = work.starts[:k]
        starts[0] = True
        np.not_equal(cols[1:], cols[:-1], out=starts[1:])
        starts = starts.nonzero()[0]
        hit = cols[starts]
        best[hit] = np.minimum(best[hit], np.minimum.reduceat(sums, starts))


def _target_stack(elements, shape) -> np.ndarray:
    return np.array([_as_float(u) for u in elements]).reshape(-1, *shape)


# no command calls it; kept because benchmarks/tracer.py wraps it
def min_distance(u_lo, sample: CellSample) -> float | np.ndarray:
    """Smallest Frobenius distance from u_lo's matrix to a sample point.

    `u_lo` is one element, or a sequence of elements for which the array
    of their distances is returned from one pass over the sample.  Each
    block of a workspace's rows goes through one Gram product and an exact
    recheck of the rows it cannot rule out (`_nearest`).  The Gram form is
    off by at most about 4 n^3 eps for orthogonal points and targets
    (|x|^2 = n; 2.4e-14 for n = 3), far below the slack, so the row of the
    exact minimum is always rechecked and each distance is the direct
    minimum over all rows bit for bit."""
    points = sample.points
    if points.shape[0] == 0:
        raise ValueError("empty cell sample")
    single = isinstance(u_lo, UElement)
    targets = _target_stack([u_lo] if single else u_lo, points.shape[1:])
    work = _Workspace(points.shape[1], 0, len(targets))
    best = np.full(len(targets), np.inf)
    for start in range(0, len(points), work.rows):
        block = points[start : start + work.rows]
        x = work.block(len(block), 0).points
        np.copyto(x, block.transpose(1, 2, 0))
        _nearest(x, targets, best, work)
    distances = np.sqrt(best)
    return float(distances[0]) if single else distances


def _worker_count() -> int:
    """One report worker per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cell_distances(
    plan: _CellPlan, count: int, seed: int, targets: np.ndarray, work: _Workspace | None = None
) -> np.ndarray:
    """Distances from every target to one cell's sample, streamed block by
    block through the buffers of `work` (a new workspace when None): the
    parameters are drawn a block at a time, so neither the cell's points
    nor its parameters are ever held, and the memory does not depend on
    `count`.  Touches numpy arrays only, so it can run on any thread."""
    if work is None:
        work = _Workspace(plan.n, len(plan.planes), len(targets))
    best = np.full(len(targets), np.inf)
    for ts in _cell_parameters(plan, count, seed, work):
        _nearest(_cell_block(plan, ts, work), targets, best, work)
    return np.sqrt(best, out=best)


def _require_positive(name: str, value: float) -> None:
    """Refuse a tolerance, margin or step that is not a finite positive
    number: every comparison with NaN is false, so a NaN tolerance fails
    every pair and a NaN or negative margin passes every pair."""
    if not (isfinite(value) and value > 0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def schubert_agreement_report(
    preset: GroupPreset,
    count: int = 100_000,
    seed: int = 42,
    tol: float = 1e-2,
    reject_margin: float = 5e-2,
) -> dict:
    """Compare the sampled incidence test against the combinatorial order on
    every ordered pair of elements.

    Every exact-layer value (reduced lifts, rotation planes, cell keys,
    target matrices, the combinatorial verdicts) is computed on the calling
    thread; the cells are sampled and measured on one worker thread per
    CPU, each with one workspace for all of its cells.  Each cell draws
    from its own substream, so the report does not depend on the number of
    workers.

    Returns a JSON-ready report; `agree` is True when the two verdicts match
    on all pairs, `margin_ok` when every negative pair also clears the
    rejection margin.
    """
    _require_positive("tol", tol)
    _require_positive("reject_margin", reject_margin)
    require_order_memory(preset.predicted_size)  # the verdicts read the whole order
    table = enumerate_U(preset)
    tables = table.tables
    plans = [_cell_plan(hi, count) for hi in table]
    targets = _target_stack(table, (preset.n, preset.n))
    pairs = []
    agree = True
    margin_ok = True
    longest = max(len(plan.planes) for plan in plans)
    workspaces = threading.local()

    def new_workspace() -> None:
        workspaces.work = _Workspace(preset.n, longest, len(targets))

    def measure(plan: _CellPlan) -> np.ndarray:
        return _cell_distances(plan, count, seed, targets, workspaces.work)

    with ThreadPoolExecutor(max_workers=_worker_count(), initializer=new_workspace) as pool:
        cells = pool.map(measure, plans)
        try:
            down = _down_masks(tables)  # while the workers sample
            for hi, distances in zip(table.ids, cells):
                for lo, dist in zip(table.ids, distances.tolist()):
                    numerical = dist < tol
                    combinatorial = down.leq(lo, hi)
                    if numerical != combinatorial:
                        agree = False
                    if not combinatorial and dist <= reject_margin:
                        margin_ok = False
                    pairs.append(
                        {
                            "lo": tables.word(lo),
                            "hi": tables.word(hi),
                            "combinatorial": combinatorial,
                            "numerical": numerical,
                            "min_distance": dist,
                        }
                    )
        except BaseException:
            # the cells not yet started would only delay the error
            pool.shutdown(cancel_futures=True)
            raise
    pairs.sort(key=lambda p: (p["hi"], p["lo"]))
    return {
        "preset": preset.name,
        "seed": seed,
        "count": count,
        "tol": tol,
        "reject_margin": reject_margin,
        "pairs": pairs,
        "agree": agree,
        "margin_ok": margin_ok,
    }


# -- translation flows ---------------------------------------------------------


def _exp_nilpotent(n_mat: np.ndarray) -> np.ndarray:
    """exp of a nilpotent matrix by its (finite) power series."""
    n = n_mat.shape[0]
    out = np.eye(n)
    term = np.eye(n)
    for k in range(1, n + 1):
        term = term @ n_mat / k
        if not term.any():
            break
        out = out + term
    return out


class FlowSpec(Frozen):
    """A translation flow datum g = elliptic * exp(step H) * exp(step N).

    H is the diagonal hyperbolic direction (nonincreasing, trace zero, i.e.
    in the closed positive chamber), `elliptic` an orthogonal matrix and
    `nilpotent` a strictly upper triangular matrix; the three parts must
    pairwise commute, as in a multiplicative Jordan decomposition.  The
    parts are validated once, on construction, and `flow_matrix` is their
    product g.
    """

    __slots__ = ("H", "elliptic", "nilpotent", "time_step", "flow_matrix")

    def __init__(
        self,
        H: np.ndarray,
        elliptic: np.ndarray | None = None,
        nilpotent: np.ndarray | None = None,
        time_step: float = 1.0,
    ):
        H = np.asarray(H, dtype=float).reshape(-1)
        n = H.shape[0]
        if not np.all(np.isfinite(H)):
            raise ValueError("H must be finite")
        if abs(H.sum()) > 1e-9:
            raise ValueError("H must have zero trace")
        if np.any(np.diff(H) > 1e-12):
            raise ValueError("H must be nonincreasing (closed positive chamber)")
        _require_positive("time_step", time_step)
        elliptic = np.eye(n) if elliptic is None else np.asarray(elliptic, dtype=float)
        nilpotent = np.zeros((n, n)) if nilpotent is None else np.asarray(nilpotent, dtype=float)
        for name, part in (("elliptic", elliptic), ("nilpotent", nilpotent)):
            if part.shape != (n, n):
                raise ValueError(f"{name} part must be {n}x{n}, got shape {part.shape}")
        if not np.isfinite(elliptic).all():
            raise ValueError("elliptic part must be finite")
        if not np.isfinite(nilpotent).all():
            raise ValueError("nilpotent part (--nilpotent) must be finite")
        # no entry of an orthogonal matrix exceeds 1: refused before E^T E can overflow
        big = np.abs(elliptic).max() > 1 + ORTHO_TOL
        if big or np.linalg.norm(elliptic.T @ elliptic - np.eye(n)) > ORTHO_TOL:
            raise ValueError("elliptic part must be orthogonal")
        if np.any(np.tril(nilpotent) != 0):
            raise ValueError("nilpotent part must be strictly upper triangular")
        # exp(step H) has Frobenius norm at most sqrt(n) exp(step max H), and
        # exp(step N) multiplies it by at most sum_{k<n} (step |N|_F)^k / k!:
        # refuse, before any exp, a step whose squares could overflow
        step = float(time_step)  # Python floats: no overflow warning
        peak = step * float(H.max())
        if not 2 * peak + log(n) < log(np.finfo(float).max):
            raise ValueError(
                f"--time-step {time_step:g} times H = {H.tolist()} gives a flow "
                f"matrix with entries up to exp({peak:g}), too large for its Frobenius norm "
                f"to be a finite float; lower --time-step or H"
            )
        norm = hypot(*nilpotent.ravel().tolist())
        factor = term = 1.0
        for k in range(1, n):
            term *= step * norm / k
            factor += term
        if not 2 * (peak + log(factor)) + log(n) < log(np.finfo(float).max):
            raise ValueError(
                f"--time-step {time_step:g} times --nilpotent of Frobenius norm {norm:g} "
                f"gives exp(step N) a Frobenius norm up to {factor:g}, too large with "
                f"H = {H.tolist()} for the flow matrix's Frobenius norm to be a finite "
                f"float; lower --time-step or --nilpotent"
            )
        h = np.diag(np.exp(time_step * H))
        u = _exp_nilpotent(time_step * nilpotent)
        for a, b, names in (
            (elliptic, h, "elliptic/hyperbolic"),
            (elliptic, u, "elliptic/unipotent"),
            (h, u, "hyperbolic/unipotent"),
        ):
            if np.linalg.norm(a @ b - b @ a) > ORTHO_TOL * max(1.0, np.linalg.norm(a @ b)):
                raise ValueError(f"{names} parts do not commute")
        super().__init__(H, elliptic, nilpotent, time_step, elliptic @ h @ u)


def flow_step(spec: FlowSpec, x) -> np.ndarray:
    """One step of the induced flow on K = G/AN: x -> K-part of g x, for one
    point or a stack (..., n, n) of points."""
    return _iwasawa_K(spec.flow_matrix @ np.asarray(x, dtype=float))


def _h_blocks(H: np.ndarray) -> list[tuple[int, int]]:
    """Index ranges of equal consecutive entries of H (the block structure
    of the centralizer K_H^0)."""
    blocks = []
    start = 0
    for i in range(1, len(H) + 1):
        if i == len(H) or abs(H[i] - H[start]) > 1e-9:
            blocks.append((start, i))
            start = i
    return blocks


def component_distance(x: np.ndarray, u_rep: UElement, blocks) -> float | np.ndarray:
    """Frobenius distance from x to the component K_H^0 u: per-block special
    orthogonal Procrustes on M = x u^T.  For a stack (..., n, n) of points it
    returns the array of their distances."""
    m = x @ _as_float(u_rep).T
    n = m.shape[-1]
    trace_max = 0.0
    for lo, hi in blocks:
        sub = m[..., lo:hi, lo:hi]
        if hi - lo == 1:
            trace_max += sub[..., 0, 0]
            continue
        uu, sv, vt = np.linalg.svd(sub)
        improper = np.linalg.det(uu @ vt) < 0
        sv[..., -1] = np.where(improper, -sv[..., -1], sv[..., -1])
        trace_max += sv.sum(axis=-1)
    return np.sqrt(np.maximum(0.0, 2 * n - 2 * trace_max))


class MorseReport(Frozen):
    """Outcome of the flow-based Morse component recovery: the preset's
    name, Theta and the seed; whether the flow is degenerate; the
    recurrent group points (`UElement`s); per component its label and
    recurrent count, and the attractors' component indices; per start (of
    `start_count`) its component (None if its limit converged to none) and
    its limit's distance; and the non-convergent starts."""

    __slots__ = (
        "preset",
        "theta",
        "degenerate",
        "recurrent_points",
        "component_labels",
        "recurrent_per_component",
        "attractor_components",
        "start_count",
        "component_assignment",
        "limit_distances",
        "non_convergent",
        "seed",
    )

    def components_found(self) -> int:
        return len({a for a in self.component_assignment if a is not None})


def recover_morse(
    preset: GroupPreset,
    spec: FlowSpec,
    grid: int = 48,
    iters: int = 2000,
    seed: int = 42,
) -> MorseReport:
    """Recover the minimal Morse components of the flow on SO(n).

    Fixed points of the step map are detected exactly among the group
    matrices; components are the circles/tori K_H^0 u indexed by U_H \\ U,
    and every trajectory limit is matched to its nearest component.  Limits
    farther than `CONVERGE_TOL` from every component are flagged and
    excluded rather than force-classified.  All starts take the first step
    together; after it, only those it moved are stepped.
    """
    if any(m != 1 for m in preset.root_datum.multiplicities):
        raise ValueError("flow recovery requires a split preset")
    _require_nonnegative("grid", grid)
    _require_nonnegative("iters", iters)
    datum = preset.root_datum
    if len(spec.H) != preset.n:
        raise ValueError("H dimension does not match the preset")
    simple_values = [
        float(np.dot([float(x) for x in root], spec.H)) for root in datum.simple_roots
    ]
    if any(val < -1e-9 for val in simple_values):
        raise ValueError("H is not in the closed positive chamber of the preset")
    theta = tuple(i + 1 for i, val in enumerate(simple_values) if abs(val) <= 1e-9)

    # both stacks are sized from the exact |U| and from |U_H| closed on
    # matrices, and refused before U is closed
    n, size = preset.n, preset.predicted_size
    starts = size + grid  # the group points, then the random ones
    _require_stack_size(starts * n * n, f"a flow stack with grid={grid}")
    count = size // closed_size(n, [preset.generators[i - 1] for i in theta])
    _require_stack_size(starts * count, f"a distance table of {starts} starts by {count} classes")
    table = enumerate_U(preset)
    classes = cosets(table, subgroup_U_H(preset, theta))
    blocks = _h_blocks(spec.H)
    degenerate = len(theta) == datum.rank and not np.any(spec.nilpotent)

    # one draw of `grid` matrices is the same stream as `grid` single draws
    gauss = np.random.default_rng(seed).standard_normal((grid, n, n))
    flip = np.linalg.det(gauss) < 0
    gauss[flip, :, :2] = gauss[flip][..., [1, 0]]
    tables = table.tables
    points = np.array([tables.matrix(k) for k in table.ids], dtype=float)
    limits = np.concatenate([points, iwasawa_K(gauss)])
    stepped = flow_step(spec, limits if iters else points)  # every start's first step
    moved = _frobenius(stepped[: len(table)] - points)
    recurrent_ids = [k for k, dist in zip(table.ids, moved) if dist < 1e-9]
    per_component = tuple(len(set(recurrent_ids).intersection(c.ids)) for c in classes)
    attractors = tuple(
        k for k, c in enumerate(classes) if any(tables.pi[m] == tables.weyl.identity for m in c.ids)
    )

    if iters:
        # a start the step returns bit for bit is fixed at every later step
        moving = np.flatnonzero((stepped != limits).any(axis=(1, 2)))
        limits = stepped
        active = limits[moving]
        for _ in range(iters - 1):
            active = flow_step(spec, active)
        limits[moving] = active
    dists = np.empty((starts, len(classes)))
    for j, coset in enumerate(classes):
        dists[:, j] = component_distance(limits, coset.representative, blocks)
    nearest = dists.argmin(axis=-1)
    distances = dists.min(axis=-1)
    converged = distances <= CONVERGE_TOL
    assignment = [int(k) if ok else None for k, ok in zip(nearest, converged)]
    non_convergent = np.flatnonzero(~converged)
    labels = tuple(coset_label(coset) for coset in classes)
    return MorseReport(
        preset=preset.name,
        theta=theta,
        degenerate=degenerate,
        recurrent_points=tuple(map(tables.element, recurrent_ids)),
        component_labels=labels,
        recurrent_per_component=per_component,
        attractor_components=attractors,
        start_count=len(limits),
        component_assignment=tuple(assignment),
        limit_distances=tuple(distances.tolist()),
        non_convergent=tuple(non_convergent.tolist()),
        seed=seed,
    )
