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

import concurrent.futures
import inspect
from pathlib import Path

import numpy as np

from .core import (
    InputError,
    LcqpInstance,
    ProblemKind,
    SparseMatrix,
    kkt_residuals,
)
from .fileio import save_instance, save_manifest
from .rng import derive_rng, derive_seed
from .transforms import MapKind, SolutionMap, TransformRecord


def _gen_record(op: str, params: dict, witness) -> TransformRecord:
    p = dict(params)
    p["witness"] = np.asarray(witness, dtype=np.float64).tolist()
    return TransformRecord(op, p, SolutionMap(MapKind.IDENTITY))


def _check_density(value, label="density"):
    if not 0.0 < value <= 1.0:
        raise InputError(f"{label} must lie in (0, 1], got {value}")


def _sparse_normal(rng, m, n, density):
    mask = rng.random((m, n)) < density
    vals = rng.standard_normal((m, n))
    return np.where(mask, vals, 0.0)


def _feasible_rows(rng, m, n, density_a, slack_noise):
    """Check density_a and the sizes, then draw sparse normal A, witness |N|,
    b = A witness + slack_noise |N| and normal c from `rng`, in that order."""
    _check_density(density_a, "density_a")
    if m < 1 or n < 1:
        raise InputError("m and n must be at least 1")
    a_dense = _sparse_normal(rng, m, n, density_a)
    witness = np.abs(rng.standard_normal(n))
    b = a_dense @ witness + slack_noise * np.abs(rng.standard_normal(m))
    return a_dense, witness, b, rng.standard_normal(n)


def make_sparse_spd(n, density, eig_lo=10.0, eig_hi=11.0, seed=0) -> SparseMatrix:
    """Sparse symmetric PD matrix via unit-lower-triangular L D L^T.

    D is uniform on [eig_lo, eig_hi]; the product's eigenvalue range is only
    approximately that interval, the PD guarantee is exact.
    """
    if not 0.0 < eig_lo <= eig_hi:
        raise InputError("need 0 < eig_lo <= eig_hi")
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must lie in [0, 1], got {density}")
    rng = derive_rng(seed, "make_sparse_spd")
    mask = np.tril(rng.random((n, n)) < density, -1)
    lvals = rng.uniform(-1.0, 1.0, (n, n))
    lower = np.eye(n) + np.where(mask, lvals, 0.0)
    d = rng.uniform(eig_lo, eig_hi, n)
    dense = (lower * d) @ lower.T
    return SparseMatrix.from_dense((dense + dense.T) / 2.0)


def gen_lp(m, n, density_a, seed, bounded=False, slack_noise=1.0,
           box_margin=1.0, name=None) -> LcqpInstance:
    """Feasible LP: sparse normal A, witness |N|, slack-padded b, normal c.

    The raw recipe usually has an unbounded objective (the recession cone is
    huge), which is fine for structural work but useless for labeling;
    bounded=True appends 0 <= x <= witness + |N| + box_margin rows.
    """
    if slack_noise < 0 or box_margin < 0:
        raise InputError("slack_noise and box_margin must be nonnegative")
    rng = derive_rng(seed, "gen_lp")
    a_dense, witness, b, c = _feasible_rows(rng, m, n, density_a, slack_noise)
    if bounded:
        ub = witness + np.abs(rng.standard_normal(n)) + box_margin
        a_dense = np.vstack([a_dense, -np.eye(n), np.eye(n)])
        b = np.concatenate([b, np.zeros(n), ub])
    record = _gen_record(
        "gen_lp",
        {"m": m, "n": n, "density_a": density_a, "seed": seed, "bounded": bounded,
         "slack_noise": slack_noise, "box_margin": box_margin},
        witness,
    )
    return LcqpInstance(
        q=SparseMatrix.zeros(n, n), a=SparseMatrix.from_dense(a_dense), b=b, c=c,
        kind=ProblemKind.LP, name=name if name is not None else f"lp-s{seed}",
        provenance=(record,),
    )


def gen_qp(m, n, density_a, density_q, seed, slack_noise=1.0, name=None) -> LcqpInstance:
    """Feasible QP: the LP recipe plus a sparse PD quadratic term."""
    _check_density(density_q, "density_q")
    if slack_noise < 0:
        raise InputError("slack_noise must be nonnegative")
    a_dense, witness, b, c = _feasible_rows(
        derive_rng(seed, "gen_qp"), m, n, density_a, slack_noise)
    q = make_sparse_spd(n, density_q, seed=derive_seed(seed, "gen_qp", "q"))
    record = _gen_record(
        "gen_qp",
        {"m": m, "n": n, "density_a": density_a, "density_q": density_q,
         "seed": seed, "slack_noise": slack_noise},
        witness,
    )
    return LcqpInstance(
        q=q, a=SparseMatrix.from_dense(a_dense), b=b, c=c, kind=ProblemKind.QP,
        name=name if name is not None else f"qp-s{seed}", provenance=(record,),
    )


def gen_svm(n_samples, d_features, lambda_reg, density, seed, name=None) -> LcqpInstance:
    """Soft-margin SVM over (w, xi): two class-shifted Gaussian blobs, rows
    -(y_i x_i, e_i) <= -1; Q is PSD with a zero block for the slacks."""
    if n_samples % 2:
        raise InputError("n_samples must be even")
    if n_samples < 2 or d_features < 1:
        raise InputError("need n_samples >= 2 and d_features >= 1")
    if lambda_reg < 0:
        raise InputError("lambda_reg must be nonnegative")
    _check_density(density)
    rng = derive_rng(seed, "gen_svm")
    half = n_samples // 2
    center = 1.0 / (d_features * density)
    spread = np.sqrt(center)
    pos = rng.normal(center, spread, (half, d_features))
    neg = rng.normal(-center, spread, (half, d_features))
    feats = np.vstack([pos, neg])
    mask = rng.random((n_samples, d_features)) < density
    feats = np.where(mask, feats, 0.0)
    y = np.concatenate([np.ones(half), -np.ones(half)])
    a_dense = -np.hstack([y[:, None] * feats, np.eye(n_samples)])
    q = SparseMatrix(
        d_features + n_samples, d_features + n_samples,
        np.arange(d_features), np.arange(d_features), np.ones(d_features),
    )
    c = np.concatenate([np.zeros(d_features), np.full(n_samples, float(lambda_reg))])
    witness = np.concatenate([np.zeros(d_features), np.ones(n_samples)])
    record = _gen_record(
        "gen_svm",
        {"n_samples": n_samples, "d_features": d_features, "lambda_reg": lambda_reg,
         "density": density, "seed": seed, "q_definiteness": "psd"},
        witness,
    )
    return LcqpInstance(
        q=q, a=SparseMatrix.from_dense(a_dense), b=-np.ones(n_samples), c=c,
        kind=ProblemKind.QP, name=name if name is not None else f"svm-s{seed}",
        provenance=(record,),
    )


def gen_portfolio(n_assets, density, seed, name=None) -> LcqpInstance:
    """Mean-variance portfolio: PD covariance with small eigenvalues, zero
    cost, one random return row, and the budget 0.01 sum(x) = 1 written as an
    inequality pair (the core form has no equality rows).  The recorded
    witness meets the pair to round-off, not exactly."""
    if n_assets < 2:
        raise InputError("n_assets must be at least 2")
    q = make_sparse_spd(n_assets, density, 0.1, 0.9, seed=derive_seed(seed, "gen_portfolio", "q"))
    rng = derive_rng(seed, "gen_portfolio")
    ret_row = rng.normal(0.0, 0.1, n_assets)
    a_dense = np.vstack([
        ret_row, np.full(n_assets, 0.01), np.full(n_assets, -0.01),
    ])
    b = np.array([-1.0, 1.0, -1.0])
    base_point = np.full(n_assets, 100.0 / n_assets)
    centered = ret_row - ret_row.mean()
    denom = float(centered @ centered)
    if denom <= 1e-12:
        raise InputError("degenerate return row, cannot build a witness")
    # slide along a zero-sum direction until the return row sits at -2
    t = (float(ret_row @ base_point) + 2.0) / denom
    witness = base_point - t * centered
    record = _gen_record(
        "gen_portfolio",
        {"n_assets": n_assets, "density": density, "seed": seed},
        witness,
    )
    return LcqpInstance(
        q=q, a=SparseMatrix.from_dense(a_dense), b=b, c=np.zeros(n_assets),
        kind=ProblemKind.QP, name=name if name is not None else f"portfolio-s{seed}",
        provenance=(record,),
    )


def gen_lasso(n_samples, d_features, lambda_reg, density, seed, name=None) -> LcqpInstance:
    """LASSO as a QP over (w, t): 0.5 w'X'Xw - y'Xw + lambda sum(t) with
    |w_j| <= t_j written as the two row blocks [-I, -I] and [I, -I]."""
    if n_samples < 1 or d_features < 1:
        raise InputError("need n_samples >= 1 and d_features >= 1")
    if lambda_reg < 0:
        raise InputError("lambda_reg must be nonnegative")
    _check_density(density)
    rng = derive_rng(seed, "gen_lasso")
    d = d_features
    design = _sparse_normal(rng, n_samples, d, density)
    w_true = rng.standard_normal(d)
    noise = rng.normal(0.0, np.sqrt(0.5), n_samples)
    target = design @ w_true + noise
    gram = 0.5 * (design.T @ design)
    gram = (gram + gram.T) / 2.0
    q_dense = np.zeros((2 * d, 2 * d))
    q_dense[:d, :d] = gram
    q = SparseMatrix.from_dense(q_dense)
    c = np.concatenate([-(design.T @ target), np.full(d, float(lambda_reg))])
    idx = np.arange(d)
    a = SparseMatrix(
        2 * d, 2 * d,
        np.concatenate([idx, idx, idx + d, idx + d]),
        np.concatenate([idx, idx + d, idx, idx + d]),
        np.concatenate([-np.ones(d), -np.ones(d), np.ones(d), -np.ones(d)]),
    )
    witness = np.concatenate([np.zeros(d), np.ones(d)])
    record = _gen_record(
        "gen_lasso",
        {"n_samples": n_samples, "d_features": d_features, "lambda_reg": lambda_reg,
         "density": density, "seed": seed, "q_definiteness": "psd"},
        witness,
    )
    return LcqpInstance(
        q=q, a=a, b=np.zeros(2 * d), c=c,
        kind=ProblemKind.QP if q.nnz else ProblemKind.LP,
        name=name if name is not None else f"lasso-s{seed}", provenance=(record,),
    )


GENERATOR_FAMILIES = {
    "lp": gen_lp,
    "qp": gen_qp,
    "svm": gen_svm,
    "portfolio": gen_portfolio,
    "lasso": gen_lasso,
}


def solve_splitting(inst, *args, **kwargs):
    """`solver.solve_splitting`.  The solver, and with it scipy, is imported
    on the first solve: generating without --solve never loads them."""
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


def _label_and_save(path, inst, solve):
    """Label `inst` when `solve` is set, save it to `path` (unlabeled unless
    the label is "ok"), and return (solver status, labeled)."""
    status, sol = _label(inst) if solve else ("not_requested", None)
    save_instance(path, inst, sol)
    return status, sol is not None


def _run_tasks(fn, tasks, jobs):
    """[fn(t) for t in tasks], in a pool of `jobs` processes when jobs > 1."""
    if jobs is not None and jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, tasks))
    return [fn(t) for t in tasks]


def _dataset_worker(task):
    out_dir, family, size_params, inst_seed, stem, solve = task
    maker = GENERATOR_FAMILIES[family]
    try:
        inst = maker(seed=inst_seed, name=stem, **size_params)
    except TypeError as exc:
        raise InputError(f"bad size_params for family {family!r}: {exc}") from exc
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
    out_dir.mkdir(parents=True, exist_ok=True)
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
    save_manifest(out_dir / "manifest.json", entries)
    return entries
