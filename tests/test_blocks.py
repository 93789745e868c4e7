"""Row-blocked kernels: the bits of one whole-batch pass, and bounded working memory.

Wide batches run in row blocks of about ``geometry._BLOCK_CELLS`` cells.  A
blocked kernel must give the bytes that the same call gives with blocking
off (the constant patched far above any batch), at every block edge, and its
allocation peak must stay within a fixed multiple of its output.
"""

import tracemalloc

import numpy as np
import pytest

import gcoda as g
from gcoda import cli, geometry

UNBLOCKED = 1 << 60


def rows_per_block(width: int) -> int:
    return max(1, geometry._BLOCK_CELLS // width)


def edge_counts(width: int) -> list[int]:
    """Row counts at the block edges: one block, a folded rest, a kept rest."""
    b = rows_per_block(width)
    fold = b + (b + 1) // 2  # the fewest rows that split into two blocks
    return sorted({1, 2, b - 1, b, b + 1, b + 2, fold - 1, fold, 2 * b + 1, 5000})


def same_bytes(blocked, whole) -> bool:
    return blocked.shape == whole.shape and blocked.tobytes() == whole.tobytes()


def compositions(rng, n, width):
    x = np.exp(rng.uniform(-5, 5, (n, width)))
    return x / x.sum(axis=1, keepdims=True)


def kernels(width: int):
    """(name, function of (ctx, basis, rng, n)) for every blocked kernel."""
    law_mean = np.linspace(-0.3, 0.3, width - 1)

    def sample(ctx, basis, rng, n):
        law = g.make_gaussian(ctx, basis, law_mean, 0.2 * np.eye(width - 1))
        return g.gaussian_sample(law, g.RandomSource(n), n)

    return [
        ("closure", lambda ctx, basis, rng, n: g.closure(ctx, np.exp(rng.uniform(-5, 5, (n, width))))),
        ("log_map", lambda ctx, basis, rng, n: g.log_map(ctx, compositions(rng, n, width))),
        ("exp_map", lambda ctx, basis, rng, n: g.exp_map(ctx, g.log_map(ctx, compositions(rng, n, width)))),
        ("coords", lambda ctx, basis, rng, n: g.coords(ctx, basis, compositions(rng, n, width))),
        ("from_coords", lambda ctx, basis, rng, n: g.from_coords(ctx, basis, rng.normal(size=(n, width - 1)))),
        ("gaussian_sample", sample),
    ]


@pytest.mark.parametrize("width", (5, 51))
@pytest.mark.parametrize("weights", ("uniform", "quadratic", "general"))
def test_blocked_kernels_match_a_whole_batch_pass(width, weights, monkeypatch):
    a = {"uniform": np.ones(width), "quadratic": np.r_[np.ones(width - 1), 2.0],
         "general": np.linspace(0.5, 3.0, width)}[weights]
    ctx, basis = g.make_context(a), g.helmert_basis(width)
    for name, kernel in kernels(width):
        for n in edge_counts(width):
            blocked = kernel(ctx, basis, np.random.default_rng(n), n)
            with monkeypatch.context() as m:
                m.setattr(geometry, "_BLOCK_CELLS", UNBLOCKED)
                whole = kernel(ctx, basis, np.random.default_rng(n), n)
            assert same_bytes(blocked, whole), (name, n)


def test_wide_general_lifts_close_in_four_newton_steps(monkeypatch):
    # The general 51-part lifts of from_coords and the sampler above reach
    # |log x| of 1e4 to 2e5.  Each row must close in at most 4 iterations to
    # within 2 ULP of its max|log x|.
    width = 51
    ctx, basis = g.make_context(np.linspace(0.5, 3.0, width)), g.helmert_basis(width)
    lifts, solve = [], geometry._newton_logt

    def capture(a, logx):
        lifts.append(logx.copy())
        return solve(a, logx)

    with monkeypatch.context() as m:
        m.setattr(geometry, "_newton_logt", capture)
        for name, kernel in kernels(width):
            if name in ("from_coords", "gaussian_sample"):
                for n in edge_counts(width):
                    kernel(ctx, basis, np.random.default_rng(n), n)
    assert sum(map(len, lifts)) == 15790
    monkeypatch.setattr(geometry, "_MAX_ITER", 4)
    for logx in lifts:
        t = solve(ctx.a, logx.copy())
        w = logx + t[:, None] * ctx.a
        wm = w.max(axis=1)
        resid = wm + np.log(np.exp(w - wm[:, None]).sum(axis=1))
        assert (np.abs(resid) <= 2 * np.spacing(np.abs(logx).max(axis=1))).all()


def test_normals_match_an_unchunked_draw(monkeypatch):
    b = rows_per_block(2)  # Box-Muller pairs per chunk
    fold = b + (b + 1) // 2
    for pairs in (1, b - 1, b, b + 1, fold - 1, fold, 2 * b + 1):
        for n in (2 * pairs - 1, 2 * pairs):  # odd and even counts
            src = g.RandomSource(n)
            chunked = np.concatenate([src.normals(n), src.normals(3)])
            with monkeypatch.context() as m:
                m.setattr(geometry, "_BLOCK_CELLS", UNBLOCKED)
                src = g.RandomSource(n)
                whole = np.concatenate([src.normals(n), src.normals(3)])
            assert same_bytes(chunked, whole), n


@pytest.mark.parametrize("width", (2, 5, 51, 20000))
def test_row_blocks_cover_the_rows_with_no_short_block(width):
    b = rows_per_block(width)
    fold = b + (b + 1) // 2
    for n in filter(None, (*edge_counts(width), 3 * b + b // 2)):
        blocks = list(geometry._row_blocks(n, width))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(p.stop == q.start for p, q in zip(blocks, blocks[1:]))
        sizes = [s.stop - s.start for s in blocks]
        assert all(size == b for size in sizes[:-1])
        # a rest shorter than half a block joins the block before it
        assert (len(sizes) == 1) == (n < fold)
        assert len(sizes) == 1 or b <= 2 * sizes[-1] and sizes[-1] < fold


def allocation_peak(call):
    """The output of ``call`` and the most memory it allocated above what was live before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_wide_batch_working_memory_is_bounded_by_its_output():
    # 20000 rows of 51 parts, uniform weights.  A whole-batch pass takes
    # about 7 outputs' worth for the sampler and 4 for coords.
    ctx, basis = g.make_context(np.ones(51)), g.helmert_basis(51)
    law = g.make_gaussian(ctx, basis, np.zeros(50), np.eye(50))
    sample, peak = allocation_peak(lambda: g.gaussian_sample(law, g.RandomSource(1), 20000))
    # the transformed normals, their lift through the basis and the output, plus blocks
    assert peak <= 3.5 * sample.nbytes
    z, peak = allocation_peak(lambda: g.coords(ctx, basis, sample))
    # the validated compositions (log-mapped in place) and the output, plus blocks
    assert peak <= 2.5 * z.nbytes


@pytest.mark.parametrize("rows, width", ((20000, 51), (50000, 5)))
@pytest.mark.parametrize("weights", ("uniform", "quadratic"))
def test_exp_path_lifts_its_own_basis_product(rows, width, weights):
    # The lift xi / e_a is closed in place of the basis product, block by
    # block: beyond its output, from_coords holds blocks and per-row values,
    # and the sampler its transformed normals while they pass through the
    # basis.
    a = np.ones(width) if weights == "uniform" else np.r_[np.ones(width - 1), 2.0]
    ctx, basis = g.make_context(a), g.helmert_basis(width)
    law = g.make_gaussian(ctx, basis, np.zeros(width - 1), 0.2 * np.eye(width - 1))
    sample, peak = allocation_peak(lambda: g.gaussian_sample(law, g.RandomSource(1), rows))
    assert peak <= 2.1 * sample.nbytes
    z = np.random.default_rng(1).normal(size=(rows, width - 1))
    lam, peak = allocation_peak(lambda: g.from_coords(ctx, basis, z))
    assert peak <= 1.5 * lam.nbytes


@pytest.mark.parametrize("rows, width, bound", ((20000, 51, 1.5), (50000, 5, 2.1)))
def test_quadratic_closure_runs_in_blocks(rows, width, bound):
    # The quadratic closed form closes the logarithms in place block by
    # block: beyond its output it holds a block's temporaries and each row's
    # exponent t.  A whole-batch pass took 5.1x and 5.6x.
    ctx = g.make_context(np.r_[np.ones(width - 1), 2.0])
    x = np.exp(np.random.default_rng(1).uniform(-5, 5, (rows, width)))
    lam, peak = allocation_peak(lambda: g.closure(ctx, x))
    assert peak <= bound * lam.nbytes


@pytest.mark.parametrize("op, bound", (("closure", 5.31), ("perturb", 5.36), ("power", 5.58)))
def test_general_closure_working_memory_is_bounded_by_its_output(op, bound):
    # 4000 rows of 5 parts under general weights: the Newton solve runs
    # whole-batch.  Beyond its output it holds the evaluation, the rows still
    # unsolved and per-row values.  perturb and power take their logarithms
    # in place in their validated operands, and perturb sums into one of
    # them and lets the other go.  The closure bound is the multiple of the
    # output that the solve took when it divided every active row by its sum
    # and compacted with boolean masks (5.30x).  perturb and power took 7.36x
    # and 6.58x with a new array for each logarithm.
    ctx = g.make_context((0.5, 1.0, 1.5, 2.0, 3.0))
    rng = np.random.default_rng(1)
    x = np.exp(rng.uniform(-5, 5, (4000, 5)))
    lam, mu = compositions(rng, 4000, 5), compositions(rng, 4000, 5)
    call = {"closure": lambda: g.closure(ctx, x), "perturb": lambda: g.perturb(ctx, lam, mu),
            "power": lambda: g.power(ctx, 1.7, lam)}[op]
    out, peak = allocation_peak(call)
    assert peak <= bound * out.nbytes


def test_gaussian_density_working_memory_is_that_of_coords():
    # 20000 rows of 51 parts: besides coords' output, a whole-batch density
    # kept the deviations, the solve's y and y * y (3.0 outputs' worth)
    ctx, basis = g.make_context(np.ones(51)), g.helmert_basis(51)
    law = g.make_gaussian(ctx, basis, np.linspace(-0.3, 0.3, 50), 0.5 * np.eye(50))
    lam = g.gaussian_sample(law, g.RandomSource(2), 20000)
    z = g.coords(ctx, basis, lam)
    _, peak = allocation_peak(lambda: g.gaussian_density(law, lam))
    assert peak <= 2.5 * z.nbytes


@pytest.mark.parametrize("n", (1, 2, 5000))
def test_gaussian_density_matches_the_whole_batch_expression(n):
    ctx, basis = g.make_context(np.linspace(0.5, 3.0, 5)), g.helmert_basis(5)
    cov = np.array([[1.0, 0.3, 0, 0], [0.3, 2.0, 0.1, 0], [0, 0.1, 0.5, 0], [0, 0, 0, 0.8]])
    law = g.make_gaussian(ctx, basis, np.array([0.1, -0.2, 0.3, 0.0]), cov)
    lam = compositions(np.random.default_rng(n), n, 5)
    inv = np.tril(np.linalg.inv(law.chol)).astype(np.longdouble)
    whiten = np.tril(inv + inv @ (np.eye(4) - law.chol @ inv)).astype(float)
    for x in (lam, lam[0]):
        dev = g.coords(ctx, basis, x) - law.mean_coords
        y = dev @ whiten.T
        log_det = 2.0 * np.sum(np.log(np.diag(law.chol)))
        want = np.exp(-0.5 * (np.sum(y * y, axis=-1) + 4 * np.log(2.0 * np.pi) + log_det))
        assert same_bytes(np.asarray(g.gaussian_density(law, x)), want)


def test_one_csv_block_working_memory_is_bounded():
    # One 16x1000 block of the %.12g kernel, as dist writes it: the block's
    # temporaries, the word buffer the blocks share and the bytes copy of it
    # that the NULs are deleted from.  It took 2.47 MiB with a new bytearray
    # per block and 2.96 MiB with the shared buffer and the copy.
    block = np.random.default_rng(1).uniform(0.0, 3.0, (16, 1000))
    assert len(list(geometry._row_blocks(*block.shape))) == 1
    cli._rows_csv(block)  # the kernel's tables are built on first use
    _, peak = allocation_peak(lambda: cli._rows_csv(block))
    assert peak <= 2.96 * 2**20
