"""Sandwich estimates of the small-ball function Q(u) of linear marginals.

The sphere infimum Q(u) = inf_t P{|<X,t>| >= u} is not computable, so every
report carries both sides of a sandwich:

- upper: a direction-search minimum of the empirical tail (a search over a
  subset of the sphere can only overestimate the infimum);
- lower: the Paley-Zygmund bound (alpha - u)^2, where alpha = inf_t E|<X,t>|.
  Every family is isotropic, E<X,t>^2 = 1, so alpha is the bound's only
  input.  It is exact on a spec, where alpha comes by quadrature, and only
  an estimate on samples, where a direction search can only overestimate
  the infimum alpha.

Search strategy (deterministic under a fixed seed): 80% of the direction
budget goes to uniform random directions, then the 2n signed coordinate
directions, then greedy local refinement of the best candidate by Gaussian
perturbations of decaying scale.  Ties break to the lowest pool index.

Draw order: a search draws its random directions, then one block of
refinement noise, n normals per step, before it projects anything.  Every
step draws its noise whatever the objective values, so the draws of a search
are fixed by its shapes alone.  A curve draws its base pool and the noise of
every grid point's refinement (grid order, then step order), and then its
alpha search draws its own.  Since nothing after that touches the generator,
the curve runs ``moment_ratios`` on a one-worker thread beside its own tail
search and joins it: the two share only the read-only samples, and the
output and the generator's final state are those of running them one after
the other, on any number of cores.

Memory: every statistic over a direction set (tail fractions, means of
|<X,t>|) is accumulated by walking the samples in row blocks of at most
``_BLOCK_ELEMENTS`` projections, written into buffers reused from block to
block, so no samples x directions matrix is built.  The tail counter adds
one byte per projection and grid point.  A curve projects each direction
once: its base pool, then only the refinement candidates, then the pool of
its alpha search; with that search on the worker, two sets of block buffers
are alive at once.  The blocks and the refinement steps run with BLAS pinned
to one thread, so seeded output does not depend on the BLAS thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import blas
from .distributions import DistributionSpec, marginal_abs_moment
from .errors import InvalidInputError, InvalidParameterError, UnsupportedQueryError
from .streams import as_generator, check_array_size

_REFINE_SCALE0 = 0.5
_REFINE_DECAY = 0.9
# projections |<X_i, t>| held at once by _marginals: a block of rows of the
# samples times every direction of the set
_BLOCK_ELEMENTS = 2**16


def _as_samples(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise InvalidInputError(f"samples must be a nonempty 2-D array, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise InvalidInputError("samples must be finite")
    return samples


def _base_pool(n: int, budget: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Random + signed-coordinate directions and the leftover refinement budget.

    At least one random direction is always drawn; coordinate directions
    (e_1..e_n then -e_1..-e_n) are appended only while budget remains, so tiny
    budgets degenerate to pure random search.
    """
    if budget < 1:
        raise InvalidParameterError(f"budget must be >= 1, got {budget}")
    check_array_size("budget x n directions", budget * n)
    n_rand = max(1, int(round(0.8 * budget)))
    g = rng.standard_normal((n_rand, n))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    dirs = [g / norms]
    n_coord = min(2 * n, max(0, budget - n_rand))
    if n_coord > 0:
        eye = np.eye(n)
        coords = np.vstack([eye, -eye])[:n_coord]
        dirs.append(coords)
    pool = np.vstack(dirs)
    n_refine = max(0, budget - pool.shape[0])
    return pool, n_refine


def _perturb(best: np.ndarray, scale: float, noise: np.ndarray) -> np.ndarray:
    cand = best + scale * noise
    norm = np.linalg.norm(cand)
    if norm == 0:
        return best
    return cand / norm


def _refine(chain: list, noise: np.ndarray) -> list:
    """Greedy local refinement of an ``[objective, best value, best direction]`` chain.

    Step k adds row k of ``noise`` (standard normals, one row per step) to
    the best direction, at a scale that decays every step, normalizes, and
    keeps the candidate when its objective is strictly lower.  The chain is
    updated in place; the candidates are returned in step order.  The
    objectives run under the single-thread BLAS pin: a threaded product of
    the samples with one direction spends a second core without saving wall
    time.
    """
    scale = _REFINE_SCALE0
    cands = []
    with blas._single_threaded_blas:
        for step_noise in noise:
            cand = _perturb(chain[2], scale, step_noise)
            val = chain[0](cand)
            if val < chain[1]:
                chain[1], chain[2] = val, cand
            cands.append(cand)
            scale *= _REFINE_DECAY
    return cands


class _Marginals(NamedTuple):
    """Statistics of the marginals |<X_i, d>| over the rows X_i, per direction d."""

    tail: np.ndarray  # (len(us), D): fraction of rows with |<X_i, d>| >= u
    l1: np.ndarray | None  # (D,): mean of |<X_i, d>|, when it was asked for


def _marginals(samples: np.ndarray, dirs: np.ndarray, us=(), l1: bool = False) -> _Marginals:
    """Tail fractions at each u and, when ``l1`` is set, the mean of
    |<X_i, d>|, for every direction d (a row of ``dirs``).

    The samples are walked in row blocks under the single-thread BLAS pin.
    The tails are counted exactly in integers: a block's comparisons at
    every u go into one reused byte buffer, whose rows are folded onto its
    first half, in place, while no cell can pass 255, and the few rows left
    are added in int64.  The projections go into rows 1.. of one buffer
    whose row 0 holds the running sum of |<X_i, d>|, so one sum over axis 0
    adds the rows one at a time in sample order, as a mean over axis 0 of
    the whole projection matrix does, and the means equal that one bit for
    bit.  A single direction is the exception: numpy sums one column
    pairwise, so its mean agrees with the dense one only to round-off.
    """
    N, D = samples.shape[0], dirs.shape[0]
    us = np.asarray(us, dtype=float)[:, None, None]
    counts = np.zeros((len(us), D), dtype=np.int64)
    sums = hits = None
    with blas._single_threaded_blas:
        for rows in blas.row_blocks(N, D, _BLOCK_ELEMENTS):
            end = rows.stop - rows.start + 1
            if sums is None:  # the first block is the longest
                sums = np.zeros((end, D))
                hits = np.empty((len(us), end - 1, D), dtype=np.uint8)
            proj = sums[1:end]
            np.matmul(samples[rows], dirs.T, out=proj)
            np.abs(proj, out=proj)
            if len(us):
                np.greater_equal(proj, us, out=hits[:, : end - 1].view(np.bool_))
                r, most = end - 1, 1  # rows of hits in use, the largest count a cell can hold
                while r > 1 and 2 * most <= 255:
                    k = r // 2
                    hits[:, :k] += hits[:, r - k : r]
                    r, most = r - k, 2 * most
                counts += hits[:, :r].sum(axis=1, dtype=np.int64)
            if l1:
                sums[0] = sums[:end].sum(axis=0)
    return _Marginals(counts / N, sums[0] / N if l1 else None)


def _abs_projection(samples: np.ndarray, d: np.ndarray) -> np.ndarray:
    """|<X_i, d>| over the rows X_i, with the absolute value taken in place."""
    proj = samples @ d
    return np.abs(proj, out=proj)


def _tail_chain(samples: np.ndarray, fracs: np.ndarray, pool: np.ndarray, u: float) -> list:
    """Chain minimizing the empirical tail at u, started at the pool direction
    with the least tail fraction ``fracs``."""
    i = int(np.argmin(fracs))
    N = samples.shape[0]
    return [lambda d: np.count_nonzero(_abs_projection(samples, d) >= u) / N, float(fracs[i]), pool[i]]


def q_inf_search(
    samples: np.ndarray,
    u: float,
    budget: int,
    rng: np.random.Generator | int | None = None,
) -> tuple[float, np.ndarray]:
    """Upper estimate of Q(u): the least empirical tail fraction
    P_N{|<X, t>| >= u} over the search set of directions t.  No command
    calls it; it stays while the benchmark's tracer binds it by name."""
    samples = _as_samples(samples)
    rng = as_generator(rng)
    pool, n_refine = _base_pool(samples.shape[1], budget, rng)
    noise = rng.standard_normal((n_refine, samples.shape[1]))
    chain = _tail_chain(samples, _marginals(samples, pool, [u]).tail[0], pool, u)
    _refine(chain, noise)
    return chain[1], chain[2]


@dataclass(frozen=True)
class MomentRatios:
    """alpha = inf of the L1 norms E|<X,t>| of the marginals over directions t,
    and, on samples, the direction where the search found it."""

    alpha: float
    alpha_dir: np.ndarray | None = None


def moment_ratios(
    source: np.ndarray | DistributionSpec,
    budget: int = 256,
    rng: np.random.Generator | int | None = None,
) -> MomentRatios:
    """alpha of linear marginals, by quadrature or direction search.

    A ``DistributionSpec`` takes the analytic path (rotation-invariant
    families only, where coordinate quadrature equals the sphere extreme).
    An array of samples takes the empirical path: one refinement chain
    minimizing the empirical L1 norm from the best direction of the pool.
    A direction with empirical L1 norm 0 gives alpha = 0.
    """
    if isinstance(source, DistributionSpec):
        if not source.rotation_invariant:
            raise UnsupportedQueryError(
                f"{source.family} is not rotation-invariant; use the empirical path"
            )
        return MomentRatios(alpha=marginal_abs_moment(source, 1.0))

    samples = _as_samples(source)
    rng = as_generator(rng)
    pool, n_refine = _base_pool(samples.shape[1], budget, rng)
    noise = rng.standard_normal((n_refine, samples.shape[1]))
    l1s = _marginals(samples, pool, l1=True).l1
    ai = int(np.argmin(l1s))
    chain = [lambda d: float(_abs_projection(samples, d).mean()), float(l1s[ai]), pool[ai]]
    _refine(chain, noise)
    return MomentRatios(alpha=chain[1], alpha_dir=chain[2])


def paley_zygmund_lower(ratios: MomentRatios, u: float) -> float:
    """Paley-Zygmund lower bound max(alpha - u, 0)^2 on Q(u) for isotropic X.

    For Z = |<X,t>| with E Z^2 = 1, P{Z >= u} >= (E Z - u)^2 when u <= E Z;
    the bound is vacuous (0) when u >= alpha.
    """
    if not u >= 0:
        raise InvalidParameterError(f"u must be >= 0, got {u}")
    return float(max(ratios.alpha - u, 0.0) ** 2)


@dataclass(frozen=True)
class SmallBallCurve:
    """Sandwich of Q(u) over a grid: search upper estimates and PZ lower bounds."""

    u_grid: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    argmin_dirs: np.ndarray
    dir_indices: np.ndarray
    sample_size: int

    def stderr(self) -> np.ndarray:
        """Binomial standard error of each upper estimate."""
        q = self.upper
        return np.sqrt(q * (1.0 - q) / self.sample_size)


def small_ball_curve(
    samples: np.ndarray,
    u_grid,
    budget: int = 256,
    rng: np.random.Generator | int | None = None,
) -> SmallBallCurve:
    """Build the sandwich curve over an ascending threshold grid.

    One direction pool serves every u: base pool first, then refinement
    rounds against each grid point append their candidates, and the final
    minima are taken over the full pool at every u.  Each direction is
    projected once: the base pool's tails seed the refinement and are kept,
    and only the candidates are projected after it.  Minimizing over a common
    set makes the upper estimates nonincreasing in u by construction.  The
    lower side is the Paley-Zygmund bound from ``moment_ratios`` of the same
    samples, drawing its directions from the same generator after the whole
    tail search's draws; it runs on a worker thread beside the tail search
    (see the module docstring).
    """
    samples = _as_samples(samples)
    u_grid = np.asarray(u_grid, dtype=float)
    if u_grid.ndim != 1 or len(u_grid) == 0:
        raise InvalidParameterError("u_grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(u_grid)) or np.any(np.diff(u_grid) < 0) or np.any(u_grid < 0):
        raise InvalidParameterError("u_grid must be finite, ascending and nonnegative")
    rng = as_generator(rng)

    pool, n_refine = _base_pool(samples.shape[1], budget, rng)
    per_u = n_refine // len(u_grid)
    noise = rng.standard_normal((len(u_grid), per_u, samples.shape[1]))
    with ThreadPoolExecutor(max_workers=1) as worker:
        lower_side = worker.submit(moment_ratios, samples, budget=budget, rng=rng)
        all_dirs = pool
        tails = _marginals(samples, pool, u_grid).tail
        if per_u > 0:
            cands = np.vstack(
                [
                    _refine(_tail_chain(samples, fracs, pool, u), u_noise)
                    for u, fracs, u_noise in zip(u_grid, tails, noise)
                ]
            )
            all_dirs = np.vstack([pool, cands])
            tails = np.hstack([tails, _marginals(samples, cands, u_grid).tail])
        indices = np.argmin(tails, axis=1)
        upper = tails[np.arange(len(u_grid)), indices]
        ratios = lower_side.result()
    lower = np.array([paley_zygmund_lower(ratios, u) for u in u_grid])

    return SmallBallCurve(
        u_grid=u_grid,
        upper=upper,
        lower=lower,
        argmin_dirs=all_dirs[indices],
        dir_indices=indices,
        sample_size=samples.shape[0],
    )
