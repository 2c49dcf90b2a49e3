"""Numerical oracle: Iwasawa projection, cell maps, sampling, incidence,
flows.  Closed-form expectations are derived in-line; sampling checks use
fixed seeds."""

import itertools
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import wtits.oracle as oracle

from oracle_reference import contraction_check, psi_rank_one, rank_one_generators
from wtits import (
    FlowSpec,
    display_word,
    enumerate_U,
    flow_step,
    iwasawa_K,
    load_preset,
    recover_morse,
)
from wtits.oracle import (
    MAX_STACK_FLOATS,
    WORKSPACE_BYTES,
    CellSample,
    component_distance,
    _h_blocks,
    _rotation_block_of,
    min_distance,
    sample_schubert,
    schubert_agreement_report,
    u_cell_key,
)
from wtits.utits import GroupPreset, canonical_form, cosets, project_to_W, subgroup_U_H
from wtits.xorder import DownSets, down_covers


def as_float(u):
    return np.array(u.matrix, dtype=float)


# block rows of the sl3 workspaces: the report's (longest lift d = 3, 24
# targets), and those of `min_distance` over 24 targets and over one
REPORT_ROWS = oracle._Workspace(3, 3, 24).rows
TABLE_ROWS = oracle._Workspace(3, 0, 24).rows
SINGLE_ROWS = oracle._Workspace(3, 0, 1).rows


def assert_class_counts_match_matrices(preset, report):
    """A report's recurrent_per_component and attractor_components against
    their definitions on matrices: coset membership and pi(m) = 1."""
    classes = cosets(enumerate_U(preset), subgroup_U_H(preset, report.theta))
    assert report.recurrent_per_component == tuple(
        sum(1 for u in report.recurrent_points if c.tables.position(u) in c.ids) for c in classes
    )
    assert report.attractor_components == tuple(
        k
        for k, c in enumerate(classes)
        if any(project_to_W(m).is_identity() for m in map(c.tables.element, c.ids))
    )


def direct_min_distance(u, points):
    """The one-element distance computed over every row, with no Gram pass:
    the reference every form of `min_distance` must equal bit for bit."""
    diffs = points - as_float(u)
    diffs *= diffs
    return float(np.sqrt(diffs.sum(axis=(1, 2)).min()))


def rotation(gen, t):
    """psi for a split generator, written out: the rotation by pi*t in the
    generator's plane."""
    p, q, orientation = _rotation_block_of(gen)
    out = np.eye(gen.preset.n)
    angle = math.pi * t * orientation
    out[p, p] = out[q, q] = math.cos(angle)
    out[p, q], out[q, p] = -math.sin(angle), math.sin(angle)
    return out


def positive_stack(rng, shape, n=3):
    """Gaussian matrices of the given stack shape, each with det > 0."""
    g = rng.standard_normal((*shape, n, n))
    flip = np.linalg.det(g) < 0
    g[flip, :, :2] = g[flip][..., [1, 0]]
    return g


class TestIwasawa:
    def test_identity_and_upper_triangular(self):
        assert np.allclose(iwasawa_K(np.eye(4)), np.eye(4))
        an = np.array([[2.0, 1.0, -3.0], [0.0, 0.5, 7.0], [0.0, 0.0, 4.0]])
        assert np.allclose(iwasawa_K(an), np.eye(3), atol=1e-12)

    def test_monomial_closed_form(self, sl3):
        s1 = as_float(sl3.generator(1))
        g = np.diag(np.exp([2.0, -1.0, -1.0])) @ s1
        assert np.allclose(iwasawa_K(g), s1, atol=1e-12)

    def test_idempotent_and_equivariant(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            if np.linalg.det(m) < 0:
                m[:, [0, 1]] = m[:, [1, 0]]
            k = iwasawa_K(m)
            assert np.allclose(iwasawa_K(k), k, atol=1e-10)
            m2 = rng.standard_normal((3, 3))
            if np.linalg.det(m2) < 0:
                m2[:, [0, 1]] = m2[:, [1, 0]]
            k2 = iwasawa_K(m2)
            assert np.allclose(iwasawa_K(k2 @ m), k2 @ iwasawa_K(m), atol=1e-9)

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(ValueError):
            iwasawa_K(np.diag([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError):
            iwasawa_K(np.zeros((3, 3)))

    def test_stack_equals_single_calls(self):
        stack = positive_stack(np.random.default_rng(17), (2, 5))
        k = iwasawa_K(stack)
        assert k.shape == stack.shape
        for idx in np.ndindex(2, 5):
            assert np.array_equal(k[idx], iwasawa_K(stack[idx]))

    @pytest.mark.parametrize(
        "bad",
        [np.diag([1.0, -1.0, 1.0]), np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
        ids=["negative-det", "singular"],
    )
    def test_stack_rejects_a_bad_slice_like_the_single_call(self, bad):
        stack = positive_stack(np.random.default_rng(3), (4,))
        stack[2] = bad
        with pytest.raises(ValueError) as single:
            iwasawa_K(bad)
        with pytest.raises(ValueError) as batched:
            iwasawa_K(stack)
        assert str(batched.value) == str(single.value)

    def test_stack_checks_every_factorization(self, monkeypatch):
        stack = positive_stack(np.random.default_rng(5), (4,))
        qr = np.linalg.qr

        def zero_pivot(g):
            q, r = qr(g)
            r[2, 1, 1] = 0.0
            return q, r

        def wrong_q(g):
            q, r = qr(g)
            q[3] = -q[3]
            return q, r

        monkeypatch.setattr(np.linalg, "qr", zero_pivot)
        with pytest.raises(ValueError, match="numerically singular"):
            iwasawa_K(stack)
        monkeypatch.setattr(np.linalg, "qr", wrong_q)
        with pytest.raises(ArithmeticError, match="residual"):
            iwasawa_K(stack)

    def test_factors_through_projection(self, sl3):
        # the step map only sees the K-part of its input
        nil = np.zeros((3, 3))
        nil[1, 2] = 1.0
        spec = FlowSpec(H=np.array([2.0, -1.0, -1.0]), nilpotent=nil)
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3))
        if np.linalg.det(g) < 0:
            g[:, [0, 1]] = g[:, [1, 0]]
        assert np.allclose(
            flow_step(spec, g), flow_step(spec, iwasawa_K(g)), atol=1e-9
        )


def psi_split(gen, t):
    """The rank-one cell map of a split generator at t: the sampling
    kernel on a one-letter plan in the generator's rotation plane, so
    psi(0) = 1, psi(1/2) = s and psi(1) = s^2."""
    n = gen.preset.n
    plan = oracle._CellPlan(n, (_rotation_block_of(gen),), np.arange(n), np.ones(n), ())
    return oracle._cell_block(plan, np.array([[t]]), oracle._Workspace(n, 1, 0))[:, :, 0]


class TestPsiSplit:
    def test_endpoints(self, sl3, sl2):
        for preset in (sl3, sl2):
            for i in range(1, preset.rank + 1):
                s = preset.generator(i)
                assert np.allclose(psi_split(s, 0.0), np.eye(preset.n), atol=1e-12)
                assert np.allclose(psi_split(s, 0.5), as_float(s), atol=1e-12)
                assert np.allclose(psi_split(s, 1.0), as_float(s**2), atol=1e-12)
                # the engine's plan for the cell of s is this one-letter plan
                plan = oracle._cell_plan(s, 0)
                assert plan.planes == (_rotation_block_of(s),)
                assert np.array_equal(plan.c_columns, np.arange(preset.n))
                assert (plan.c_signs == 1).all()

    def test_is_one_parameter_group(self, sl3):
        s = sl3.generator(1)
        a, b = 0.21, 0.47
        assert np.allclose(
            psi_split(s, a) @ psi_split(s, b), psi_split(s, a + b), atol=1e-12
        )

    def test_rejects_non_block_elements(self, sl3):
        with pytest.raises(ValueError, match="not a single rotation block"):
            psi_split(sl3.generator(1) * sl3.generator(2), 0.3)


class TestPsiRankOne:
    def test_proof_identities_sampled(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = rng.integers(2, 6)
            v = rng.standard_normal(m)
            v /= np.linalg.norm(v)
            a, j = rank_one_generators(0.0, v)
            assert np.linalg.norm(a @ a + j) < 1e-10
            assert np.linalg.norm(a @ a @ a + a) < 1e-10
            assert abs(np.trace(a)) < 1e-12
            n = m + 1
            w = np.eye(n)
            w[0, 0] = w[1, 1] = -1.0
            assert np.allclose(psi_rank_one(0.0, v, 0.0), w, atol=1e-12)
            end = psi_rank_one(0.0, v, math.pi)
            assert abs(end[0, 0] - 1.0) < 1e-10
            assert np.allclose(end, (np.eye(n) - 2.0 * j) @ w, atol=1e-10)
            mid = psi_rank_one(0.0, v, 1.1)
            assert np.linalg.norm(mid.T @ mid - np.eye(n)) < 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            psi_rank_one(0.0, np.zeros(3), 0.2)
        with pytest.raises(ValueError):
            psi_rank_one(0.5, np.array([math.sqrt(0.75), 0.0]), 0.2)
        with pytest.raises(ValueError):
            psi_rank_one(0.0, np.array([2.0, 0.0]), 0.2)


class TestSampling:
    def test_identity_cell_is_single_point(self, sl3):
        sample = sample_schubert(sl3.identity(), 500, 42)
        assert sample.points.shape == (1, 3, 3)
        assert np.allclose(sample.points[0], np.eye(3))

    def test_interior_point_hits_element(self, sl3):
        for u in enumerate_U(sl3):
            sample = sample_schubert(u, 10, 42)
            assert np.allclose(sample.points[0], as_float(u), atol=1e-12)

    def test_grid_hits_covers_and_corners_hit_c_level(self, sl3):
        from wtits import down_set, enumerate_C

        u = sl3.generator(2) * sl3.generator(1)
        sample = sample_schubert(u, 0, 42)
        grid_rows = [
            i
            for i, t in enumerate(sample.parameters)
            if set(np.unique(t)) <= {0.0, 0.5, 1.0}
        ]
        grid_images = {
            tuple(np.rint(sample.points[i]).astype(int).ravel()) for i in grid_rows
        }
        cover_images = {tuple(np.array(v.matrix).ravel()) for v in down_covers(u)}
        down_images = {tuple(np.array(v.matrix).ravel()) for v in down_set(u)}
        # the distinguished grid realizes exactly the closed-cell elements
        assert cover_images <= grid_images
        assert grid_images == down_images
        # literal cube corners give the C-level elements below u
        corner_rows = [
            i
            for i, t in enumerate(sample.parameters)
            if t.size and set(np.unique(t)) <= {0.0, 1.0}
        ]
        corner_images = {
            tuple(np.rint(sample.points[i]).astype(int).ravel()) for i in corner_rows
        }
        c_images = {tuple(np.array(c.matrix).ravel()) for c in enumerate_C(sl3)}
        assert corner_images == c_images

    @pytest.mark.parametrize("name", ["sl3", "sl4"])
    def test_points_are_products_of_rotations(self, name, request):
        # Psi_u(t) = psi_1(t_1) ... psi_d(t_d) c, each factor a full matrix;
        # the in-place kernel may differ from it only by rounding
        preset = request.getfixturevalue(name)
        for u in list(enumerate_U(preset))[::5]:
            word, c = canonical_form(u)
            sample = sample_schubert(u, 40, 42)
            rows = 1 + 3 ** len(word) + 40 if word else 1  # a point cell has one row
            assert sample.parameters.shape == (rows, len(word))
            for t, point in zip(sample.parameters, sample.points):
                expected = np.eye(preset.n)
                for letter, t_i in zip(word, t):
                    expected = expected @ rotation(preset.generator(letter), t_i)
                assert np.allclose(point, expected @ as_float(c), rtol=0, atol=1e-14)

    def test_draws_are_the_cell_substream(self, sl3):
        # after the interior point and the grid, the rows are one whole draw
        # of (count, d) uniforms from the (seed, cell key) stream
        u = sl3.generator(1) * sl3.generator(2)
        sample = sample_schubert(u, 5000, 42)
        draws = np.random.default_rng([42, *u_cell_key(u)]).random((5000, 2))
        assert np.array_equal(sample.parameters[1 + 3**2 :], draws)
        assert np.array_equal(sample.parameters[0], [0.5, 0.5])

    def test_deterministic_given_seed(self, sl3):
        u = sl3.generator(1) * sl3.generator(2)
        a = sample_schubert(u, 100, 7)
        b = sample_schubert(u, 100, 7)
        assert np.array_equal(a.points, b.points)
        c = sample_schubert(u, 100, 8)
        assert not np.array_equal(a.points, c.points)

    def test_rejects_non_split_preset(self, so24):
        with pytest.raises(ValueError):
            sample_schubert(so24.generator(1), 10, 42)


class TestIncidence:
    def test_examples(self, sl3):
        s1, s2 = sl3.generator(1), sl3.generator(2)
        sample = sample_schubert(s1, 10_000, 42)
        assert min_distance(s1, sample) < 1e-8
        assert min_distance(sl3.identity(), sample) < 1e-2
        assert not min_distance(s2**2, sample) < 1e-2
        assert min_distance(s2**2, sample) > 1.9

    def test_small_count_agreement(self, sl3):
        report = schubert_agreement_report(sl3, count=500, seed=42)
        assert report["agree"] and report["margin_ok"]
        assert len(report["pairs"]) == 576


class TestBatchedMinDistance:
    """The sequence form of `min_distance` (Gram pass plus exact recheck)
    must equal a per-target loop of the one-element form bit for bit."""

    @pytest.mark.parametrize("count", [0, max(TABLE_ROWS, SINGLE_ROWS) + 1000])
    def test_every_sl3_cell(self, sl3, count):
        table = enumerate_U(sl3)
        rows = []
        for hi in table:
            sample = sample_schubert(hi, count, 42)
            rows.append(len(sample.points))
            batched = min_distance(table, sample)
            single = np.array([min_distance(lo, sample) for lo in table])
            direct = np.array([direct_min_distance(lo, sample.points) for lo in table])
            assert np.array_equal(batched, single), display_word(hi)
            assert np.array_equal(single, direct), display_word(hi)
        # both forms cross a block boundary
        assert (max(rows) > max(TABLE_ROWS, SINGLE_ROWS)) == (count > 0)

    def test_rows_tied_within_the_slack(self, sl3):
        # per target two rows 1e-9 and 2e-9 away in random directions: their
        # squared distances differ by 3e-18, far inside the slack and below
        # the Gram rounding error, so only the exact recheck tells them apart
        table = enumerate_U(sl3)
        rng = np.random.default_rng(5)
        rows = []
        for u in table:
            for scale in rng.permutation([1e-9, 2e-9]):
                bump = rng.standard_normal((3, 3))
                rows.append(as_float(u) + scale * bump / np.linalg.norm(bump))
        points = np.array(rows)
        sample = CellSample(u=sl3.identity(), points=points, parameters=np.zeros((len(rows), 0)))
        batched = min_distance(table, sample)
        single = np.array([min_distance(lo, sample) for lo in table])
        assert np.array_equal(batched, single)
        assert single.tolist() == [direct_min_distance(lo, points) for lo in table]
        assert np.allclose(single, 1e-9, rtol=1e-6)

    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 1000, 2048, REPORT_ROWS, REPORT_ROWS + 1])
    @pytest.mark.parametrize("targets", [0, 1, 24])
    def test_gram_slices_make_one_product(self, rows, targets):
        rng = np.random.default_rng(rows + targets)
        t, flat = rng.standard_normal((targets, 9)), rng.standard_normal((9, rows))
        gram = oracle._gram(t, flat)
        assert gram.shape == (targets, rows)
        assert np.allclose(gram, t @ flat, rtol=0, atol=1e-13)

    def test_one_target_and_empty_inputs(self, sl3):
        sample = sample_schubert(sl3.generator(1), 10, 42)
        assert min_distance([sl3.identity()], sample).tolist() == [
            min_distance(sl3.identity(), sample)
        ]
        assert min_distance([], sample).shape == (0,)
        empty = CellSample(u=sl3.identity(), points=np.zeros((0, 3, 3)), parameters=np.zeros((0, 0)))
        for target in (sl3.identity(), [sl3.identity()]):
            with pytest.raises(ValueError, match="empty cell sample"):
                min_distance(target, empty)


class TestReportThreads:
    """The report streams each cell through the kernels on worker threads."""

    def test_report_equals_min_distance_on_the_full_sample(self, sl3, monkeypatch):
        count = REPORT_ROWS + 1000  # every cell of positive length crosses a block boundary
        reports = [schubert_agreement_report(sl3, count=count, seed=42)]
        monkeypatch.setattr(oracle, "_worker_count", lambda: 1)
        reports.append(schubert_agreement_report(sl3, count=count, seed=42))
        table = enumerate_U(sl3)
        expected = {}
        for hi in table:
            sample = sample_schubert(hi, count, 42)
            for lo in table:
                expected[display_word(lo), display_word(hi)] = min_distance(lo, sample).hex()
        for report in reports:
            assert report["agree"] and report["margin_ok"]
            found = {(p["lo"], p["hi"]): p["min_distance"].hex() for p in report["pairs"]}
            assert found == expected
        assert reports[0] == reports[1]

    def test_exact_layer_stays_on_the_calling_thread(self, sl3, monkeypatch):
        calls = []

        def recording(name, fn):
            def wrapper(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)

            return wrapper

        exact_names = (
            "canonical_form", "cosets", "coset_label", "enumerate_U",
            "subgroup_U_H", "_down_masks", "u_cell_key",
            "_rotation_block_of", "_cell_plan", "_as_float",
        )
        for name in (*exact_names, "_cell_distances"):
            monkeypatch.setattr(oracle, name, recording(name, getattr(oracle, name)))
        monkeypatch.setattr(GroupPreset, "generator", recording("generator", GroupPreset.generator))
        monkeypatch.setattr(oracle, "_worker_count", lambda: 2)
        report = schubert_agreement_report(sl3, count=300, seed=42)
        assert report["agree"] and len(report["pairs"]) == 576
        main = threading.main_thread()
        exact = [(name, thread) for name, thread in calls if name != "_cell_distances"]
        assert {name for name, _ in exact} >= {
            "canonical_form", "enumerate_U", "_down_masks", "generator",
            "u_cell_key", "_rotation_block_of", "_cell_plan", "_as_float",
        }
        assert [name for name, thread in exact if thread is not main] == []
        # the cells themselves did run on the pool
        workers = [thread for name, thread in calls if name == "_cell_distances"]
        assert len(workers) == 24 and all(thread is not main for thread in workers)

    def test_a_failing_verdict_cancels_the_queued_cells(self, sl3, monkeypatch):
        measured = []
        cell_distances = oracle._cell_distances

        def counted(*args):
            measured.append(1)
            return cell_distances(*args)

        def failing(down, lo, hi):
            raise RuntimeError("verdict failed")

        monkeypatch.setattr(oracle, "_worker_count", lambda: 1)
        monkeypatch.setattr(oracle, "_cell_distances", counted)
        monkeypatch.setattr(DownSets, "leq", failing)
        with pytest.raises(RuntimeError, match="verdict failed"):
            schubert_agreement_report(sl3, count=100_000, seed=42)
        # the first cell, and at most the one the worker took up meanwhile
        assert 1 <= len(measured) <= 2


def workspace_bytes(work):
    """The bytes of every buffer of a workspace (a view adds none)."""
    return sum(
        value.nbytes
        for value in vars(work).values()
        if isinstance(value, np.ndarray) and value.base is None
    )


def reference_parameters(u, count, seed):
    """A cell's parameter rows as one whole array: the interior point, the
    itertools grid and one (count, d) draw from the cell's substream."""
    d = len(canonical_form(u)[0])
    if not d:
        return np.zeros((1, 0))
    grid = np.array(list(itertools.product((0.0, 0.5, 1.0), repeat=d)))
    draws = np.random.default_rng([seed, *u_cell_key(u)]).random((count, d))
    return np.vstack([np.full((1, d), 0.5), grid, draws])


def longest(preset):
    return max(enumerate_U(preset), key=lambda v: len(canonical_form(v)[0]))


class TestStreamedKernels:
    """The report draws each cell's parameters a block at a time into
    reused buffers; the stream, the blocks and every distance must be those
    of the whole sample."""

    def test_report_draws_are_blocks_of_one_whole_draw(self, sl3, monkeypatch):
        real = np.random.default_rng
        draws = {}

        class Recording:
            def __init__(self, seed):
                self.generator = real(seed)
                draws[tuple(seed)] = self.rows = []

            def random(self, *args, **kwargs):
                out = self.generator.random(*args, **kwargs)
                self.rows.append(out.copy())
                return out

        monkeypatch.setattr(np.random, "default_rng", Recording)
        count = 2 * REPORT_ROWS + 100  # three blocks of uniforms in the longest cell
        report = schubert_agreement_report(sl3, count=count, seed=42)
        assert report["agree"] and report["margin_ok"]
        table = enumerate_U(sl3)
        assert len(draws) == len(table)
        for u in table:
            d = len(canonical_form(u)[0])
            rows = draws[(42, *u_cell_key(u))]
            assert all(len(block) <= REPORT_ROWS for block in rows)
            if not d:
                assert rows == []
                continue
            expected = real([42, *u_cell_key(u)]).random((count, d))
            assert np.array_equal(np.concatenate(rows), expected), display_word(u)
        assert max(len(rows) for rows in draws.values()) == 3

    @pytest.mark.parametrize(
        "count",
        [0, 100, REPORT_ROWS - 28, REPORT_ROWS + 1],
        ids=["zero", "inside-first-block", "fills-first-block", "block-plus-one"],
    )
    def test_block_edges(self, sl3, count):
        # the longest sl3 cell has d = 3: the interior point and 27 grid rows
        table = enumerate_U(sl3)
        targets = oracle._target_stack(table, (3, 3))
        for u in (longest(sl3), sl3.identity()):
            plan = oracle._cell_plan(u, count)
            work = oracle._Workspace(3, len(plan.planes), len(table))
            blocks = [ts.copy() for ts in oracle._cell_parameters(plan, count, 42, work)]
            expected = reference_parameters(u, count, 42)
            assert [len(ts) for ts in blocks] == [
                len(expected[start : start + work.rows])
                for start in range(0, len(expected), work.rows)
            ]
            assert np.array_equal(np.concatenate(blocks), expected)
            sample = sample_schubert(u, count, 42)
            assert np.array_equal(sample.parameters, expected)
            streamed = oracle._cell_distances(plan, count, 42, targets)
            assert [x.hex() for x in streamed.tolist()] == [
                x.hex() for x in min_distance(table, sample).tolist()
            ]
        assert len(blocks) == 1  # the identity cell is its one interior row
        assert blocks[0].shape == (1, 0)

    def test_longest_sl5_cell_splits_its_grid(self):
        # d = 10: 59,049 grid rows, so the grid alone spans 29 blocks
        sl5 = load_preset("sl5")
        table = list(enumerate_U(sl5))
        u = longest(sl5)
        picked = [table[0], u, *table[1 :: len(table) // 4]]
        targets = oracle._target_stack(picked, (5, 5))
        plan = oracle._cell_plan(u, 50)
        assert len(plan.planes) == 10
        streamed = oracle._cell_distances(plan, 50, 42, targets)
        sample = sample_schubert(u, 50, 42)
        assert len(sample.points) == 1 + 3**10 + 50
        assert [x.hex() for x in streamed.tolist()] == [
            x.hex() for x in min_distance(picked, sample).tolist()
        ]
        assert streamed[1] < 1e-12  # u is in its own cell

    @pytest.mark.parametrize("rows", [1, 5, TABLE_ROWS])
    def test_every_target_tied_is_rechecked_densely(self, sl3, rows):
        # points 1e-9 from the identity tie for every target on every row,
        # so every target is rechecked densely, a few targets at a time
        table = enumerate_U(sl3)
        targets = oracle._target_stack(table, (3, 3))
        points = np.eye(3) + 1e-9 * np.random.default_rng(9).standard_normal((rows, 3, 3))
        work = oracle._Workspace(3, 0, len(table))
        if rows == TABLE_ROWS:
            assert len(work.block(rows, 0).tied_sums) < len(table)  # the targets take several chunks
        best = np.full(len(table), np.inf)
        oracle._nearest(np.ascontiguousarray(points.transpose(1, 2, 0)), targets, best, work)
        assert work.tied.all()
        assert np.sqrt(best).tolist() == [direct_min_distance(lo, points) for lo in table]

    @pytest.mark.parametrize("pairs", [7, 1000, 2048])
    def test_recheck_runs_split_targets(self, sl3, pairs):
        # every third row lies 1e-9 from s1 s2, the others 1e-9 from the
        # identity: the 10 targets exactly as far from both tie on every
        # row and are rechecked densely; the other 14 tie only on the rows
        # near one of the two, and their pairs are gathered in runs of
        # `pairs`, so a target's pairs span many runs and each run
        # boundary cuts through some target
        table = enumerate_U(sl3)
        targets = oracle._target_stack(table, (3, 3))
        centers = np.array([np.eye(3), as_float(sl3.generator(1) * sl3.generator(2))])
        near = np.arange(TABLE_ROWS) % 3 == 1
        points = centers[near.astype(int)]
        points += 1e-9 * np.random.default_rng(9).standard_normal((TABLE_ROWS, 3, 3))
        work = oracle._Workspace(3, 0, len(table))
        assert work.pairs >= pairs
        work.pairs = pairs
        best = np.full(len(table), np.inf)
        oracle._nearest(np.ascontiguousarray(points.transpose(1, 2, 0)), targets, best, work)
        equidistant = [((t - centers[0]) ** 2).sum() == ((t - centers[1]) ** 2).sum() for t in targets]
        assert work.tied.tolist() == equidistant and sum(equidistant) == 10
        assert np.sqrt(best).tolist() == [direct_min_distance(lo, points) for lo in table]

    @pytest.mark.parametrize(
        "name,far,tied_count",
        [("sl2", (1, 1), 2), ("sl4", (1, 2, 3), 44)],
        ids=["sl2-4-entries", "sl4-16-entries"],
    )
    def test_recheck_sums_other_entry_counts(self, name, far, tied_count):
        # as above, with one row in three near `far` (the product of those
        # generators): sl2's 4 entries are summed left to right, sl4's 16 in
        # two blocks of 8 running sums; both the dense recheck of the tied
        # targets and the gathered pairs of the others equal the direct
        # minimum bit for bit, and sl4's tied targets take several chunks
        preset = load_preset(name)
        n = preset.n
        table = enumerate_U(preset)
        targets = oracle._target_stack(table, (n, n))
        work = oracle._Workspace(n, 0, len(table))
        u = preset.identity()
        for letter in far:
            u = u * preset.generator(letter)
        centers = np.array([np.eye(n), as_float(u)])
        near = np.arange(work.rows) % 3 == 1
        points = centers[near.astype(int)]
        points += 1e-9 * np.random.default_rng(9).standard_normal((work.rows, n, n))
        work.pairs = 7  # a target's pairs span many runs
        best = np.full(len(table), np.inf)
        oracle._nearest(np.ascontiguousarray(points.transpose(1, 2, 0)), targets, best, work)
        equidistant = [((t - centers[0]) ** 2).sum() == ((t - centers[1]) ** 2).sum() for t in targets]
        assert work.tied.tolist() == equidistant and sum(equidistant) == tied_count
        if name == "sl4":
            assert len(work.block(work.rows, 0).tied_sums) < tied_count
        assert np.sqrt(best).tolist() == [direct_min_distance(lo, points) for lo in table]

    @pytest.mark.parametrize("entries", [4, 9, 16, 25, 36, 49, 144])
    def test_sum_entries_is_add_reduce_bit_for_bit(self, entries):
        # numpy's pairwise order: left to right under 8 entries, 8 running
        # sums up to 128, two halves above (144); magnitudes 1e-8 to 1e8 of
        # both signs, so any other order rounds differently on many rows
        rng = np.random.default_rng(entries)
        rows = 3000
        values = 10.0 ** rng.uniform(-8, 8, (2, rows, entries))
        values *= rng.choice([-1.0, 1.0], values.shape)
        expected = np.add.reduce(values, axis=-1)
        squares = np.ascontiguousarray(values.transpose(0, 2, 1))
        out = np.empty((2, rows))
        assert oracle._sum_entries(squares, out) is out
        assert out.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert (expected != values.cumsum(axis=-1)[..., -1]).any() or entries < 8

    @pytest.mark.parametrize(
        "n,d,targets",
        [(3, 3, 24), (4, 6, 192), (5, 10, 1920), (3, 0, 24), (3, 0, 1), (3, 3, 0), (5, 10, 0)],
        ids=["sl3", "sl4", "sl5", "sl3-min-distance", "one-target", "sl3-sample", "sl5-sample"],
    )
    def test_workspace_fills_its_byte_budget(self, n, d, targets):
        # the report's workspaces (longest lift, every target), then those
        # of `min_distance` and `sample_schubert`: within the budget, and
        # GRAM_SLICE rows more would not fit
        work = oracle._Workspace(n, d, targets)
        nbytes = workspace_bytes(work)
        row_bytes = (nbytes - 9 * targets) / work.rows
        assert nbytes <= WORKSPACE_BYTES < nbytes + oracle.GRAM_SLICE * row_bytes
        assert work.rows % oracle.GRAM_SLICE == 0

    def test_report_workspaces_do_not_depend_on_count(self, sl3, monkeypatch):
        made = []

        class Recording(oracle._Workspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append((args, self.rows, workspace_bytes(self)))

        monkeypatch.setattr(oracle, "_Workspace", Recording)
        seen = []
        for count in (0, 2 * REPORT_ROWS + 100):
            made.clear()
            schubert_agreement_report(sl3, count=count, seed=42)
            seen.append(set(made))
        assert seen[0] == seen[1]
        ((args, rows, nbytes),) = seen[0]  # one shape for every worker
        assert args == (3, 3, 24) and rows == REPORT_ROWS and nbytes <= WORKSPACE_BYTES
        assert REPORT_ROWS >= 4000  # few numpy calls per row on sl3

    def test_cell_memory_does_not_grow_with_count(self, sl3):
        table = enumerate_U(sl3)
        targets = oracle._target_stack(table, (3, 3))
        plan = oracle._cell_plan(longest(sl3), 10**6)
        tracemalloc.start()
        try:
            oracle._cell_distances(plan, 10**6, 42, targets)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFlow:
    def reference_flow(self):
        nil = np.zeros((3, 3))
        nil[1, 2] = 1.0
        return FlowSpec(H=np.array([2.0, -1.0, -1.0]), nilpotent=nil)

    def test_spec_is_validated_once_and_frozen(self, sl3):
        # flow_matrix is built from the validated parts, so no part may change
        spec = self.reference_flow()
        for name in ("H", "nilpotent", "time_step", "flow_matrix"):
            with pytest.raises(AttributeError, match=f"'{name}'"):
                setattr(spec, name, None)
        report = recover_morse(sl3, spec, grid=0, iters=1)
        with pytest.raises(AttributeError, match="'theta'"):
            report.theta = ()
        points, parameters = np.zeros((1, 3, 3)), np.zeros((1, 0))
        sample = CellSample(u=sl3.identity(), points=points, parameters=parameters)
        with pytest.raises(AttributeError, match="'points'"):
            sample.points = None

    def test_identity_flow_fixes_everything(self, sl3):
        spec = FlowSpec(H=np.zeros(3))
        x = as_float(sl3.generator(1))
        assert np.allclose(flow_step(spec, x), x, atol=1e-12)

    def test_reference_flow_fixes_identity(self):
        spec = self.reference_flow()
        assert np.allclose(flow_step(spec, np.eye(3)), np.eye(3), atol=1e-12)

    def test_trajectory_from_s1_stays_on_circle(self, sl3):
        spec = self.reference_flow()
        blocks = _h_blocks(spec.H)
        x = as_float(sl3.generator(1))
        for _ in range(500):
            x = flow_step(spec, x)
        assert component_distance(x, sl3.identity(), blocks) < 1e-6

    def test_flowspec_validation(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            FlowSpec(H=np.array([-1.0, 2.0, -1.0]))
        with pytest.raises(ValueError, match="trace"):
            FlowSpec(H=np.array([1.0, 0.0, 0.0]))
        nil_low = np.zeros((3, 3))
        nil_low[2, 0] = 1.0
        with pytest.raises(ValueError, match="upper"):
            FlowSpec(H=np.zeros(3), nilpotent=nil_low)
        nil = np.zeros((3, 3))
        nil[0, 1] = 1.0  # does not commute with exp(H) for H = (2,-1,-1)
        with pytest.raises(ValueError, match="commute"):
            FlowSpec(H=np.array([2.0, -1.0, -1.0]), nilpotent=nil)
        with pytest.raises(ValueError, match="H must be finite"):
            FlowSpec(H=np.array([np.nan, 0.0, 0.0]))
        for step in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="time_step must be a finite positive number"):
                FlowSpec(H=np.array([2.0, -1.0, -1.0]), time_step=step)

    @pytest.mark.parametrize("step", [178.0, 300.0, 1e3, 1e308])
    def test_flowspec_refuses_an_overflowing_time_step(self, step):
        # the flow matrix's largest entry is exp(2 step): the squares of its
        # Frobenius norm overflow from step 177.2 on, and the entry itself
        # from 354.9; refused before any exp, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"--time-step \S+ times H = \[2.0, -1.0, -1.0\]"):
                FlowSpec(H=np.array([2.0, -1.0, -1.0]), time_step=step)

    @pytest.mark.parametrize("part", ["elliptic", "nilpotent"])
    def test_flowspec_refuses_non_finite_parts(self, part):
        bad = np.eye(3) if part == "elliptic" else np.zeros((3, 3))
        bad[0, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{part} part .*must be finite$"):
                FlowSpec(H=np.zeros(3), **{part: bad})

    @pytest.mark.parametrize("part", ["elliptic", "nilpotent"])
    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (9,), (1, 3, 3)])
    def test_flowspec_refuses_a_part_that_is_not_n_by_n(self, part, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                FlowSpec(H=np.zeros(3), **{part: np.zeros(shape)})
        assert str(err.value) == f"{part} part must be 3x3, got shape {shape}"

    @pytest.mark.parametrize("entry", [1e200, -1e200, 1.5])
    def test_flowspec_refuses_an_elliptic_entry_above_one(self, entry):
        # no orthogonal matrix has such an entry: refused before
        # elliptic.T @ elliptic, which would overflow at 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^elliptic part must be orthogonal$"):
                FlowSpec(H=np.zeros(3), elliptic=np.full((3, 3), entry))

    @pytest.mark.parametrize("entry,step", [(1e200, 1.0), (1e160, 1.0), (1.0, 1e300), (1e100, 1e100)])
    def test_flowspec_refuses_an_overflowing_unipotent_part(self, entry, step):
        # |exp(step N)|_F <= sum_{k<n} (step |N|_F)^k / k!, checked in Python
        # floats before any exp: no numpy warning
        nil = np.zeros((3, 3))
        nil[0, 1], nil[1, 2] = entry, 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"times --nilpotent of Frobenius norm"):
                FlowSpec(H=np.zeros(3), nilpotent=nil, time_step=step)

    def test_unipotent_bound_leaves_the_hyperbolic_bound(self, sl3):
        # a zero N keeps the H bound exactly: step 177 runs, 178 is refused;
        # a small N still runs at step 1
        H = np.array([2.0, -1.0, -1.0])
        for nil in (None, np.zeros((3, 3))):
            FlowSpec(H=H, nilpotent=nil, time_step=177.0)
            with pytest.raises(ValueError, match=r"--time-step 178 times H"):
                FlowSpec(H=H, nilpotent=nil, time_step=178.0)
        nil = np.zeros((3, 3))
        nil[1, 2] = 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = FlowSpec(H=H, nilpotent=nil)
            assert np.isfinite(flow_step(spec, as_float(sl3.generator(1)))).all()

    def test_largest_time_step_below_the_overflow_runs(self, sl3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = FlowSpec(H=np.array([2.0, -1.0, -1.0]), time_step=177.0)
            x = flow_step(spec, as_float(sl3.generator(1)))
        assert np.isfinite(spec.flow_matrix).all()
        assert np.isfinite(oracle._frobenius(spec.flow_matrix))
        assert np.allclose(x.T @ x, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("name", ["tol", "reject_margin"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_schubert_report_refuses_nonpositive_bounds(self, sl3, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
            schubert_agreement_report(sl3, count=0, **{name: value})

    def test_recover_morse_reference(self, sl3):
        report = recover_morse(sl3, self.reference_flow(), grid=16, iters=1200, seed=42)
        assert not report.degenerate
        assert report.theta == (1,)
        assert len(report.recurrent_points) == 12
        assert len(report.component_labels) == 6
        assert report.components_found() == 6
        assert report.recurrent_per_component == (2,) * 6
        assert not report.non_convergent
        assert max(report.limit_distances) < 1e-4
        assert len(report.attractor_components) == 2
        for a in report.component_assignment[24:]:
            assert a in report.attractor_components
        assert_class_counts_match_matrices(sl3, report)

    def per_start_distances(self, preset, spec, theta, grid, iters, seed=42):
        """The loop the stacked flow replaced: one start and one 2-D step at
        a time, every start stepped `iters` times; each start's distances
        to every component."""
        table = enumerate_U(preset)
        n = preset.n
        rng = np.random.default_rng(seed)
        starts = [as_float(u) for u in table]
        for _ in range(grid):
            gauss = rng.standard_normal((n, n))
            if np.linalg.det(gauss) < 0:
                gauss[:, [0, 1]] = gauss[:, [1, 0]]
            starts.append(iwasawa_K(gauss))
        classes = cosets(table, subgroup_U_H(preset, theta))
        blocks = _h_blocks(spec.H)
        expected = []
        for x in starts:
            for _ in range(iters):
                x = flow_step(spec, x)
            expected.append([component_distance(x, c.representative, blocks) for c in classes])
        return expected

    def record_stacks(self, monkeypatch) -> list[int]:
        """Wrap `flow_step` to record the length of every stack it steps."""
        stacks = []
        step = oracle.flow_step

        def recording(spec, x):
            stacks.append(len(x))
            return step(spec, x)

        monkeypatch.setattr(oracle, "flow_step", recording)
        return stacks

    @pytest.mark.parametrize("iters", [10, 1200])
    def test_recover_morse_matches_per_start_loop(self, sl3, iters, monkeypatch):
        # the 12 recurrent group points are fixed from the first step on,
        # so only the other 28 of the 40 starts are stepped after it
        spec = self.reference_flow()
        stacks = self.record_stacks(monkeypatch)
        report = recover_morse(sl3, spec, grid=16, iters=iters, seed=42)
        assert stacks == [40] + [28] * (iters - 1)
        monkeypatch.undo()
        expected = self.per_start_distances(sl3, spec, report.theta, 16, iters)
        assert report.limit_distances == tuple(min(d) for d in expected)
        assert report.component_assignment == tuple(
            int(np.argmin(d)) if min(d) <= 1e-4 else None for d in expected
        )
        if iters == 10:
            assert report.non_convergent and max(report.limit_distances) > 1e-4

    def test_fixed_starts_are_stepped_once(self, sl3, monkeypatch):
        # the benchmark's flow: the first step of all 72 starts returns the
        # 12 recurrent group points bit for bit, so only the other 60 are
        # stepped again, and every limit is still the one of the whole stack
        spec = self.reference_flow()
        stacks = self.record_stacks(monkeypatch)
        report = recover_morse(sl3, spec, grid=48, iters=2000, seed=42)
        assert stacks == [72] + [60] * 1999
        assert len(report.recurrent_points) == 12
        monkeypatch.undo()
        x = np.array([as_float(u) for u in enumerate_U(sl3)])
        rng = np.random.default_rng(42)
        gauss = rng.standard_normal((48, 3, 3))
        flip = np.linalg.det(gauss) < 0
        gauss[flip, :, :2] = gauss[flip][..., [1, 0]]
        x = np.concatenate([x, iwasawa_K(gauss)])
        for _ in range(2000):
            x = flow_step(spec, x)
        classes = cosets(enumerate_U(sl3), subgroup_U_H(sl3, report.theta))
        blocks = _h_blocks(spec.H)
        distances = [component_distance(x, c.representative, blocks) for c in classes]
        assert report.limit_distances == tuple(np.min(distances, axis=0).tolist())

    def test_no_steps_steps_only_the_group_points(self, sl3, monkeypatch):
        # with no steps the random starts are their own limits, and only the
        # 24 group points take the one step that finds the recurrent ones
        spec = self.reference_flow()
        stacks = self.record_stacks(monkeypatch)
        report = recover_morse(sl3, spec, grid=16, iters=0, seed=42)
        assert stacks == [24]
        assert len(report.recurrent_points) == 12 and report.start_count == 40
        monkeypatch.undo()
        expected = self.per_start_distances(sl3, spec, report.theta, 16, 0)
        assert report.limit_distances == tuple(min(d) for d in expected)

    def test_recover_morse_regular(self, sl3):
        spec = FlowSpec(H=np.array([1.0, 0.0, -1.0]))
        report = recover_morse(sl3, spec, grid=4, iters=200, seed=3)
        assert len(report.recurrent_points) == 24
        assert len(report.component_labels) == 24

    def test_recover_morse_degenerate(self, sl3):
        report = recover_morse(sl3, FlowSpec(H=np.zeros(3)), grid=0, iters=1, seed=3)
        assert report.degenerate

    @pytest.mark.parametrize(
        "H, nilpotent, theta",
        [((3.0, 1.0, -1.0, -3.0), None, ()), ((3.0, -1.0, -1.0, -1.0), (1, 2), (2, 3))],
        ids=["regular", "theta23-e23"],
    )
    def test_recover_morse_sl4(self, sl4, H, nilpotent, theta):
        nil = np.zeros((4, 4))
        if nilpotent:
            nil[nilpotent] = 1.0
        report = recover_morse(sl4, FlowSpec(H=np.array(H), nilpotent=nil), iters=200, seed=42)
        table = enumerate_U(sl4)
        assert report.theta == theta
        assert report.start_count == len(table) + 48
        assert not report.non_convergent
        expected = len(table) // len(subgroup_U_H(sl4, theta))
        assert report.components_found() == len(report.component_labels) == expected
        assert all(k > 0 for k in report.recurrent_per_component)
        for a in report.component_assignment[len(table):]:
            assert a in report.attractor_components
        assert_class_counts_match_matrices(sl4, report)


class TestSizeGuards:
    def test_negative_sizes_name_the_argument(self, sl3):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            sample_schubert(sl3.generator(1), -5, 42)
        spec = FlowSpec(H=np.array([1.0, 0.0, -1.0]))
        with pytest.raises(ValueError, match="grid must be nonnegative"):
            recover_morse(sl3, spec, grid=-3, iters=1)
        with pytest.raises(ValueError, match="iters must be nonnegative"):
            recover_morse(sl3, spec, grid=0, iters=-1)

    def test_stack_caps_from_the_prediction_alone(self, sl3, monkeypatch):
        # every draw fails, so a size the guard lets through allocates nothing
        def no_draws(*args, **kwargs):
            raise AssertionError("passed the guard")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        u = sl3.generator(1) * sl3.generator(2) * sl3.generator(1)
        d = len(canonical_form(u)[0])
        count = MAX_STACK_FLOATS // 9 - 3**d  # (count + 3^d + 1) * 9 just over the cap
        with pytest.raises(ValueError, match="over the cap"):
            sample_schubert(u, count, 42)
        with pytest.raises(AssertionError, match="passed the guard"):
            sample_schubert(u, count - 1, 42)
        # the report never holds a whole cell, yet refuses the same counts
        # before any draw; u has the longest reduced lift of sl3
        assert d == max(len(canonical_form(v)[0]) for v in enumerate_U(sl3))
        with pytest.raises(ValueError, match=f"a cell sample with count={count} needs"):
            schubert_agreement_report(sl3, count=count, seed=42)
        with pytest.raises(AssertionError, match="passed the guard"):
            schubert_agreement_report(sl3, count=count - 1, seed=42)
        # Theta = {2}: 6 classes, so the distance table, (|U| + grid) * 6
        # floats, stays under the flow stack's (|U| + grid) * 9
        spec = FlowSpec(H=np.array([1.0, 1.0, -2.0]))
        grid = MAX_STACK_FLOATS // 9 - len(enumerate_U(sl3)) + 1  # (|U| + grid) * 9
        with pytest.raises(ValueError, match="a flow stack with grid=.* over the cap"):
            recover_morse(sl3, spec, grid=grid, iters=1)
        with pytest.raises(AssertionError, match="passed the guard"):
            recover_morse(sl3, spec, grid=grid - 1, iters=1)

    def test_distance_table_cap_before_any_flow_step(self, sl3, monkeypatch):
        # Theta = {}: 24 classes, so (24 + 4) starts need 672 distances,
        # more than the (24 + 4) * 9 = 252 floats of the flow stack
        def no_flow(*args):
            raise AssertionError("flowed")

        monkeypatch.setattr(oracle, "flow_step", no_flow)
        spec = FlowSpec(H=np.array([1.0, 0.0, -1.0]))
        monkeypatch.setattr(oracle, "MAX_STACK_FLOATS", 671)
        with pytest.raises(ValueError) as err:
            recover_morse(sl3, spec, grid=4, iters=1)
        assert str(err.value) == (
            "a distance table of 28 starts by 24 classes needs 672 floats, over the cap of 671"
        )
        monkeypatch.setattr(oracle, "MAX_STACK_FLOATS", 672)
        with pytest.raises(AssertionError, match="flowed"):
            recover_morse(sl3, spec, grid=4, iters=1)


class TestContraction:
    def test_zero_nilpotent(self):
        res = contraction_check([2.0, -1.0, -1.0], np.zeros((3, 3)), k_max=6)
        assert res == [0.0] * 7

    def test_single_root_rate(self):
        nil = np.zeros((3, 3))
        nil[0, 1] = 1.0
        res = contraction_check([2.0, -1.0, -1.0], nil, k_max=20)
        rate = math.exp(-3.0)
        for k in range(20):
            assert res[k + 1] < res[k]
            assert abs(res[k + 1] / res[k] / rate - 1) < 0.05
        assert res[20] < 1e-8

    def test_regular_full_upper(self):
        nil = np.triu(np.ones((3, 3)), k=1)
        res = contraction_check([1.0, 0.0, -1.0], nil, k_max=25)
        assert all(res[k + 1] < res[k] for k in range(25))
        assert res[25] < 1e-8

    def test_support_violation(self):
        nil = np.zeros((3, 3))
        nil[1, 2] = 1.0  # alpha(H) = 0 on the (2,3) root for this H
        with pytest.raises(ValueError, match="alpha"):
            contraction_check([2.0, -1.0, -1.0], nil, k_max=5)


def test_u_cell_key_separates_entries_beyond_signs(sl3):
    from wtits import UElement, enumerate_U
    from wtits.oracle import u_cell_key

    # entries 2 and -1 shared the key (x + 1) % 3 = 0
    a = UElement(((2, 0), (0, 1)), sl3)
    b = UElement(((-1, 0), (0, 1)), sl3)
    assert u_cell_key(a) != u_cell_key(b)
    keys = {u_cell_key(UElement(((x, y), (0, 1)), sl3)) for x in range(-4, 5) for y in range(-4, 5)}
    assert len(keys) == 81
    # signed-permutation groups keep their keys, so seeded streams are unchanged
    for u in enumerate_U(sl3):
        assert u_cell_key(u) == tuple((x + 1) % 3 for row in u.matrix for x in row)
