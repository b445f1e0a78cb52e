"""Seeded generators for feasible LP/QP instances plus dataset plumbing,
including the one labelling path that `generate --solve` and `solve` share:
`_label` solves and classifies, `_label_and_save` writes the file, and
`_run_tasks` runs the per-file tasks serially or in a process pool.

Every generator records the feasibility witness it built the right-hand side
around (params["witness"] on the leading provenance record), so downstream
code can check feasibility without re-deriving it.  All randomness flows
through namespaced counter-based streams: the same seed always reproduces the
same instance, independent of call order or process scheduling.
"""
from __future__ import annotations

import inspect
from pathlib import Path

import numpy as np

from .core import (
    InputError,
    LcqpInstance,
    ProblemKind,
    SparseMatrix,
    _ordered_sum,
    kkt_residuals,
)
from .fileio import save_instance, save_manifest
from .rng import derive_rng, derive_seed
from .transforms import MapKind, SolutionMap, TransformRecord, _diagonal, _grown


def _instance(family, name, params, witness, q, a, b, c, kind) -> LcqpInstance:
    """The generated instance, named `name` or "{family}-s{seed}", with one
    "gen_{family}" provenance record holding `params` and then the witness."""
    record = TransformRecord(
        f"gen_{family}", {**params, "witness": np.asarray(witness, dtype=np.float64).tolist()},
        SolutionMap(MapKind.IDENTITY),
    )
    return LcqpInstance(
        q=q, a=a, b=b, c=c, kind=kind,
        name=f"{family}-s{params['seed']}" if name is None else name, provenance=(record,),
    )


def _check_density(value, label="density"):
    if not 0.0 < value <= 1.0:
        raise InputError(f"{label} must lie in (0, 1], got {value}")


def _check_nonnegative(value, label):
    if not value >= 0:  # NaN too
        raise InputError(f"{label} must be nonnegative, got {value}")


def _sparse_normal(rng, m, n, density):
    """A dense m x n array of normal entries, each kept with chance `density`;
    the mask is drawn first, then the values."""
    return np.where(rng.random((m, n)) < density, rng.standard_normal((m, n)), 0.0)


def _feasible_rows(rng, m, n, density_a, slack_noise):
    """Check density_a, the sizes and slack_noise, then draw sparse normal A,
    witness |N|, b = A witness + slack_noise |N| and normal c from `rng`, in
    that order.  A witness is summed by `SparseMatrix.matvec`, not by BLAS."""
    _check_density(density_a, "density_a")
    if m < 1 or n < 1:
        raise InputError("m and n must be at least 1")
    _check_nonnegative(slack_noise, "slack_noise")
    a = SparseMatrix.from_dense(_sparse_normal(rng, m, n, density_a))
    witness = np.abs(rng.standard_normal(n))
    b = a.matvec(witness) + slack_noise * np.abs(rng.standard_normal(m))
    return a, witness, b, rng.standard_normal(n)


def _dot(x, y) -> float:
    """x . y summed in index order from 0.0, as `SparseMatrix.matvec` sums a
    row, so that the value does not depend on the BLAS kernel."""
    return float(_ordered_sum(np.zeros(x.size, dtype=np.intp), x * y, 1)[0])


# ρ: the largest absolute row sum of S in make_sparse_spd's Q = D^½ (I + S) D^½
SPD_RHO = 0.99


def _kept_positions(rng, count, chance):
    """The sorted positions in range(count) that a coin of `chance` keeps,
    drawn as geometric skips from one kept position to the next (Batagelj &
    Brandes, Phys. Rev. E 71, 2005), in O(kept) time and memory."""
    if chance == 0.0 or count == 0:
        return np.empty(0, dtype=np.int64)
    batch = int(count * chance + 4.0 * np.sqrt(count * chance)) + 16
    chunks, last = [], -1
    while last < count:
        # a skip past the end keeps nothing more; clipping it keeps a tiny
        # chance's skips (up to 2^63 - 1) from overflowing the sum
        chunks.append(last + np.cumsum(np.minimum(rng.geometric(chance, batch), count + 1)))
        last = int(chunks[-1][-1])
    kept = np.concatenate(chunks)
    return kept[kept < count]


def make_sparse_spd(n, density, eig_lo=10.0, eig_hi=11.0, seed=0) -> SparseMatrix:
    """Symmetric positive definite Q = D^½ (I + S) D^½, stored sparse and
    built in O(nnz), with no n x n array and no matrix product.

    S is symmetric with a zero diagonal: each pair (i, j), i > j, is kept with
    chance `density`, drawn by position, with a value uniform on [-1, 1].  S
    is then scaled so that its largest absolute row sum is SPD_RHO = 0.99.  D
    is diagonal, uniform on [eig_lo, eig_hi].  Each off-diagonal value
    sqrt(d_i) s_ij sqrt(d_j) is computed once and stored in both triangles,
    so Q is bit-symmetric, and nnz = 2 x (kept pairs) + n, about
    density n (n - 1) + n.  By Gershgorin the spectrum of I + S lies in
    [1 - ρ, 1 + ρ], and by Ostrowski's theorem (Horn & Johnson, Thm 4.5.9)
    that of Q lies in [(1 - ρ) eig_lo, (1 + ρ) eig_hi].  Density 0 gives D.
    """
    if not 0.0 < eig_lo <= eig_hi:
        raise InputError("need 0 < eig_lo <= eig_hi")
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must lie in [0, 1], got {density}")
    rng = derive_rng(seed, "make_sparse_spd")
    # pair positions run row by row over the strict lower triangle; row i
    # holds i of them, from starts[i] = i (i - 1) / 2 on
    starts = np.arange(n) * (np.arange(n) - 1) // 2
    kept = _kept_positions(rng, n * (n - 1) // 2, density)
    rows = np.searchsorted(starts, kept, side="right") - 1
    cols = kept - starts[rows]
    vals = rng.uniform(-1.0, 1.0, kept.size)
    d = rng.uniform(eig_lo, eig_hi, n)
    if vals.size:
        sizes = np.abs(vals)
        row_sums = _ordered_sum(rows, sizes, n) + _ordered_sum(cols, sizes, n)
        vals *= SPD_RHO / row_sums.max()
    root = np.sqrt(d)
    off = root[rows] * vals * root[cols]
    diag = np.arange(n)
    return SparseMatrix(n, n, np.concatenate([rows, cols, diag]),
                        np.concatenate([cols, rows, diag]), np.concatenate([off, off, d]))


def gen_lp(m, n, density_a, seed, bounded=False, slack_noise=1.0,
           box_margin=1.0, name=None) -> LcqpInstance:
    """Feasible LP: sparse normal A, witness |N|, slack-padded b, normal c.

    The raw recipe usually has an unbounded objective (the recession cone is
    huge), which is fine for structural work but useless for labeling;
    bounded=True appends 0 <= x <= witness + |N| + box_margin rows.
    """
    _check_nonnegative(box_margin, "box_margin")
    rng = derive_rng(seed, "gen_lp")
    a, witness, b, c = _feasible_rows(rng, m, n, density_a, slack_noise)
    if bounded:
        ub = witness + np.abs(rng.standard_normal(n)) + box_margin
        a = _grown(a, (m + 2 * n, n),
                   [_diagonal(m, 0, -np.ones(n)), _diagonal(m + n, 0, np.ones(n))])
        b = np.concatenate([b, np.zeros(n), ub])
    return _instance(
        "lp", name,
        {"m": m, "n": n, "density_a": density_a, "seed": seed, "bounded": bounded,
         "slack_noise": slack_noise, "box_margin": box_margin},
        witness, SparseMatrix.zeros(n, n), a, b, c, ProblemKind.LP,
    )


def gen_qp(m, n, density_a, density_q, seed, slack_noise=1.0, name=None) -> LcqpInstance:
    """Feasible QP: the LP recipe plus the PD quadratic term
    Q = D^½ (I + S) D^½ of make_sparse_spd with D uniform on [0.1, 10].
    `density_q` is the chance that an off-diagonal pair of Q is nonzero, so
    nnz(Q) is about density_q n (n - 1) + n, and the spectrum of Q lies in
    [(1 - ρ) 0.1, (1 + ρ) 10] = [0.001, 19.9] with ρ = SPD_RHO = 0.99."""
    _check_density(density_q, "density_q")
    a, witness, b, c = _feasible_rows(derive_rng(seed, "gen_qp"), m, n, density_a, slack_noise)
    q = make_sparse_spd(n, density_q, 0.1, 10.0, seed=derive_seed(seed, "gen_qp", "q"))
    return _instance(
        "qp", name,
        {"m": m, "n": n, "density_a": density_a, "density_q": density_q,
         "seed": seed, "slack_noise": slack_noise},
        witness, q, a, b, c, ProblemKind.QP,
    )


def gen_svm(n_samples, d_features, lambda_reg, density, seed, name=None) -> LcqpInstance:
    """Soft-margin SVM over (w, xi): two class-shifted Gaussian blobs, rows
    -(y_i x_i, e_i) <= -1; Q is PSD with a zero block for the slacks."""
    if n_samples % 2:
        raise InputError("n_samples must be even")
    if n_samples < 2 or d_features < 1:
        raise InputError("need n_samples >= 2 and d_features >= 1")
    _check_nonnegative(lambda_reg, "lambda_reg")
    _check_density(density)
    rng = derive_rng(seed, "gen_svm")
    half = n_samples // 2
    center = 1.0 / (d_features * density)
    spread = np.sqrt(center)
    feats = np.vstack([rng.normal(center, spread, (half, d_features)),
                       rng.normal(-center, spread, (half, d_features))])
    feats = np.where(rng.random((n_samples, d_features)) < density, feats, 0.0)
    y = np.concatenate([np.ones(half), -np.ones(half)])
    n = d_features + n_samples
    a = _grown(SparseMatrix.from_dense(-y[:, None] * feats), (n_samples, n),
               [_diagonal(0, d_features, -np.ones(n_samples))])
    return _instance(
        "svm", name,
        {"n_samples": n_samples, "d_features": d_features, "lambda_reg": lambda_reg,
         "density": density, "seed": seed, "q_definiteness": "psd"},
        np.concatenate([np.zeros(d_features), np.ones(n_samples)]),
        SparseMatrix(n, n, *_diagonal(0, 0, np.ones(d_features))), a, -np.ones(n_samples),
        np.concatenate([np.zeros(d_features), np.full(n_samples, float(lambda_reg))]),
        ProblemKind.QP,
    )


def gen_portfolio(n_assets, density, seed, name=None) -> LcqpInstance:
    """Mean-variance portfolio: PD covariance from make_sparse_spd with D
    uniform on [0.1, 0.9] (spectrum in [0.001, 1.791]), zero cost, one random
    return row, and the budget 0.01 sum(x) = 1 written as an inequality pair
    (the core form has no equality rows).  The recorded witness meets the
    pair to round-off, not exactly."""
    if n_assets < 2:
        raise InputError("n_assets must be at least 2")
    q = make_sparse_spd(n_assets, density, 0.1, 0.9, seed=derive_seed(seed, "gen_portfolio", "q"))
    rng = derive_rng(seed, "gen_portfolio")
    ret_row = rng.normal(0.0, 0.1, n_assets)
    a_dense = np.vstack([ret_row, np.full(n_assets, 0.01), np.full(n_assets, -0.01)])
    base_point = np.full(n_assets, 100.0 / n_assets)
    centered = ret_row - ret_row.mean()
    denom = _dot(centered, centered)
    if denom <= 1e-12:
        raise InputError("degenerate return row, cannot build a witness")
    # slide along a zero-sum direction until the return row sits at -2
    t = (_dot(ret_row, base_point) + 2.0) / denom
    return _instance(
        "portfolio", name, {"n_assets": n_assets, "density": density, "seed": seed},
        base_point - t * centered, q, SparseMatrix.from_dense(a_dense),
        np.array([-1.0, 1.0, -1.0]), np.zeros(n_assets), ProblemKind.QP,
    )


def gen_lasso(n_samples, d_features, lambda_reg, density, seed, name=None) -> LcqpInstance:
    """LASSO as a QP over (w, t): 0.5 w'X'Xw - y'Xw + lambda sum(t) with
    |w_j| <= t_j written as the two row blocks [-I, -I] and [I, -I]."""
    if n_samples < 1 or d_features < 1:
        raise InputError("need n_samples >= 1 and d_features >= 1")
    _check_nonnegative(lambda_reg, "lambda_reg")
    _check_density(density)
    rng = derive_rng(seed, "gen_lasso")
    d = d_features
    dense = _sparse_normal(rng, n_samples, d, density)
    design = SparseMatrix.from_dense(dense)
    w_true = rng.standard_normal(d)
    target = design.matvec(w_true) + rng.normal(0.0, np.sqrt(0.5), n_samples)
    # column k of X'X by `rmatvec`: entry (j, k) sums x_ij x_ik over the rows
    # in order, as entry (k, j) does, so the Gram matrix is bit-symmetric
    gram = np.array([design.rmatvec(col) for col in dense.T])
    q = _grown(SparseMatrix.from_dense(0.5 * gram), (2 * d, 2 * d), [])
    ones = np.ones(d)
    a = _grown(SparseMatrix.zeros(2 * d, 2 * d), (2 * d, 2 * d), [
        _diagonal(0, 0, -ones), _diagonal(0, d, -ones),
        _diagonal(d, 0, ones), _diagonal(d, d, -ones),
    ])
    return _instance(
        "lasso", name,
        {"n_samples": n_samples, "d_features": d_features, "lambda_reg": lambda_reg,
         "density": density, "seed": seed, "q_definiteness": "psd"},
        np.concatenate([np.zeros(d), ones]), q, a, np.zeros(2 * d),
        np.concatenate([-design.rmatvec(target), np.full(d, float(lambda_reg))]),
        ProblemKind.QP if q.nnz else ProblemKind.LP,
    )


GENERATOR_FAMILIES = {
    "lp": gen_lp,
    "qp": gen_qp,
    "svm": gen_svm,
    "portfolio": gen_portfolio,
    "lasso": gen_lasso,
}


def solve_splitting(inst, *args, **kwargs):
    """`solver.solve_splitting`.  The solver is imported on the first
    solve: generating without --solve never loads it."""
    from .solver import solve_splitting

    return solve_splitting(inst, *args, **kwargs)


def _label(inst):
    """Solve `inst` and classify the outcome: ("ok", sol), or a failure status
    and None.  A solution over the 1e-6 relative KKT gate counts as failed."""
    from .solver import InfeasibleOrUnbounded, Unbounded, Unconverged

    try:
        sol = solve_splitting(inst)
    except Unbounded:
        return "unbounded", None
    except InfeasibleOrUnbounded:
        return "infeasible_or_unbounded", None
    except Unconverged:
        return "unconverged", None
    if kkt_residuals(inst, sol, relative=True).max_residual > 1e-6:
        return "kkt_check_failed", None
    return "ok", sol


def _label_and_save(path, inst, solve, source=None):
    """Label `inst` when `solve` is set, save it to `path` (unlabeled unless
    the label is "ok"), and return (solver status, labeled).  The solver's
    InputError, an indefinite Q, is raised naming `source`, the file `inst`
    was read from, or else `path`."""
    try:
        status, sol = _label(inst) if solve else ("not_requested", None)
    except InputError as exc:
        raise InputError(f"{source or path}: {exc}") from exc
    save_instance(path, inst, sol)
    return status, sol is not None


def _run_tasks(fn, tasks, jobs):
    """[fn(t) for t in tasks], in a pool of `jobs` processes when jobs > 1.
    concurrent.futures, and logging with it, is imported for the pool only."""
    if jobs is not None and jobs > 1:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _dataset_worker(task):
    out_dir, family, size_params, inst_seed, stem, solve = task
    try:
        inst = GENERATOR_FAMILIES[family](seed=inst_seed, name=stem, **size_params)
    except TypeError as exc:
        raise InputError(f"bad size_params for family {family!r}: {exc}") from exc
    # made once the family accepted its parameters, so a refusal writes nothing
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    return _label_and_save(Path(out_dir) / f"{stem}.json", inst, solve)


def split_labels(count: int, seed: int) -> list[str]:
    """8:1:1 train/val/test labels for `count` entries, from the seed's split stream."""
    n_hold = count // 10
    split = np.full(count, "train", dtype=object)
    perm = derive_rng(seed, "split").permutation(count)
    split[perm[:n_hold]] = "val"
    split[perm[n_hold:2 * n_hold]] = "test"
    return split.tolist()


def gen_dataset(out_dir, family, size_params, count, seed, solve=False, jobs=None):
    """Write `count` instances plus a manifest with an 8:1:1 split.

    Per-index seeds make the output independent of worker scheduling; the
    manifest is written last so its presence marks a complete dataset.
    Solver failures are recorded per instance and leave the file unlabeled.
    """
    if family not in GENERATOR_FAMILIES:
        raise InputError(f"unknown family {family!r}, expected one of "
                         f"{sorted(GENERATOR_FAMILIES)}")
    if count < 0:
        raise InputError("count must be nonnegative")
    accepted = set(inspect.signature(GENERATOR_FAMILIES[family]).parameters) - {"seed", "name"}
    unknown = set(size_params) - accepted
    if unknown:
        raise InputError(f"unknown size_params for family {family!r}: {sorted(unknown)}")
    out_dir = Path(out_dir)
    seeds = [derive_seed(seed, i) for i in range(count)]
    tasks = [
        (str(out_dir), family, dict(size_params), seeds[i], f"{family}_{i:05d}", bool(solve))
        for i in range(count)
    ]
    results = _run_tasks(_dataset_worker, tasks, jobs)
    split = split_labels(count, seed)
    entries = [
        {"path": f"{family}_{i:05d}.json", "split": split[i], "family": family,
         "seed": seeds[i], "labeled": results[i][1], "solver_status": results[i][0]}
        for i in range(count)
    ]
    out_dir.mkdir(parents=True, exist_ok=True)  # no worker made it when count is 0
    save_manifest(out_dir / "manifest.json", entries)
    return entries
