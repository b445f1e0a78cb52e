"""Acceptance gates for the whole package, one test per criterion.

Each test prints a single ACCEPTANCE line with the measured numbers to the
real stdout (past pytest's capture) before asserting, so a plain `pytest -v`
run shows every gate's outcome inline.
"""
import time

import numpy as np

from qpaug import (
    LcqpInstance,
    ProblemKind,
    SparseMatrix,
    add_constraints,
    add_variable_biased,
    add_variable_constrained,
    add_variables,
    bias_instance,
    encode_instance,
    gen_lp,
    gen_qp,
    init_mpnn_weights,
    kkt_residuals,
    map_solution,
    nt_xent_loss,
    objective,
    partition_constraints,
    permute_instance,
    remove_idle_variables,
    remove_inactive_constraints,
    scale_constraints,
    scale_variables,
    solve_enumeration,
    solve_splitting,
)
from qpaug.cli import main
from qpaug.fileio import load_instance, load_manifest
from qpaug.rng import derive_rng
from qpaug.transforms import _drop_constraints, heuristic_accuracy, heuristic_inactive


def _announce(capsys, num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)


# randomized-parameter wrappers over the whole transform catalog; each takes
# (inst, sol, rng) and returns (new_inst, record)

def _op_scale_vars(inst, sol, rng):
    return scale_variables(inst, np.exp(rng.uniform(-1, 1, inst.n)))


def _op_scale_cons(inst, sol, rng):
    return scale_constraints(inst, np.exp(rng.uniform(-1, 1, inst.m)))


def _op_rm_idle(inst, sol, rng):
    return remove_idle_variables(inst, sol)


def _op_rm_inactive(inst, sol, rng):
    return remove_inactive_constraints(inst, sol, fraction=0.5, seed=int(rng.integers(2**31)))


def _op_add_vars(inst, sol, rng):
    return add_variables(inst, rng.standard_normal(inst.n))


def _op_add_var_biased(inst, sol, rng):
    return add_variable_biased(inst, sol, 1.0 + rng.random(), rng.standard_normal(inst.m))


def _op_add_var_constrained(inst, sol, rng):
    return add_variable_constrained(
        inst, rng.random(), -np.abs(rng.standard_normal(inst.m)), -abs(rng.standard_normal())
    )


def _op_add_cons(inst, sol, rng):
    weights = []
    for _ in range(3):
        take = min(3, inst.m)
        picked = rng.choice(inst.m, size=take, replace=False)
        raw = rng.random(take) + 1e-9
        w = np.zeros(inst.m)
        w[picked] = raw / raw.sum()
        weights.append(w)
    return add_constraints(inst, weights)


def _op_bias(inst, sol, rng):
    return bias_instance(inst, sol, rank=2, magnitude=0.1, seed=int(rng.integers(2**31)))


_CATALOG = {
    "scale_variables": _op_scale_vars,
    "scale_constraints": _op_scale_cons,
    "remove_idle_variables": _op_rm_idle,
    "remove_inactive_constraints": _op_rm_inactive,
    "add_variables": _op_add_vars,
    "add_variable_biased": _op_add_var_biased,
    "add_variable_constrained": _op_add_var_constrained,
    "add_constraints": _op_add_cons,
    "bias_instance": _op_bias,
}


def test_criterion_1_mapped_solutions_stay_optimal_at_scale(capsys):
    t0 = time.perf_counter()
    # worst relative residual per op, and over the two-op chains
    failures, checked = [], 0
    names = list(_CATALOG)
    worst = dict.fromkeys([*names, "two-op chains"], 0.0)
    for i in range(200):
        inst = gen_qp(100, 100, 0.05, 0.05, seed=i)
        sol = solve_splitting(inst)
        for name, op in _CATALOG.items():
            out, rec = op(inst, sol, derive_rng(1000 + i, name))
            mapped = map_solution(rec, out, sol)
            r = kkt_residuals(out, mapped, relative=True).max_residual
            worst[name] = max(worst[name], r)
            checked += 1
            if r > 1e-6:
                failures.append((i, name, r))
        combo_rng = np.random.default_rng(i)
        for j in range(50):
            pair = combo_rng.choice(names, size=2, replace=False)
            cur, cur_sol = inst, sol
            for name in pair:
                nxt, rec = _CATALOG[name](cur, cur_sol, derive_rng(i, j, name))
                cur_sol = map_solution(rec, nxt, cur_sol)
                cur = nxt
            r = kkt_residuals(cur, cur_sol, relative=True).max_residual
            worst["two-op chains"] = max(worst["two-op chains"], r)
            checked += 1
            if r > 1e-6:
                failures.append((i, j, tuple(pair), r))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 120.0
    per_op = ", ".join(f"{name} {r:.2e}" for name, r in worst.items())
    _announce(capsys, 1, ok, f"{checked - len(failures)}/{checked} mapped solutions within "
                     f"1e-6 relative (worst {max(worst.values()):.2e}; {per_op}), {dt:.1f}s")
    assert not failures, failures[:5]
    assert dt < 120.0


def test_criterion_2_splitting_agrees_with_enumeration(capsys):
    t0 = time.perf_counter()
    failures, worst_obj, worst_x = [], 0.0, 0.0
    for i in range(100):
        inst = gen_qp(1 + i % 6, 1 + i % 4, 0.8, 0.9, seed=i)
        s = solve_splitting(inst)
        e = solve_enumeration(inst)
        d_obj = abs(s.objective - e.objective) / (1.0 + abs(e.objective))
        # positive definite quadratic term, so the optimum is always unique
        # and the primal bound applies to every instance
        d_x = float(np.abs(s.x - e.x).max()) / (1.0 + float(np.abs(e.x).max()))
        worst_obj, worst_x = max(worst_obj, d_obj), max(worst_x, d_x)
        if d_obj > 1e-6 or d_x > 1e-5:
            failures.append((i, d_obj, d_x))
    dt = time.perf_counter() - t0
    ok = not failures and dt < 10.0
    _announce(capsys, 2, ok, f"100 instances, worst objective gap {worst_obj:.2e} "
                     f"(<=1e-6), worst primal gap {worst_x:.2e} (<=1e-5), {dt:.1f}s")
    assert not failures, failures[:5]
    assert dt < 10.0


def test_criterion_3_heuristic_accuracy_meets_gates(capsys):
    t0 = time.perf_counter()

    def corpus_accuracy(make):
        accs = []
        for seed in range(100):
            inst = make(seed)
            sol = solve_splitting(inst)
            part = partition_constraints(inst, sol)
            k = len(part.inactive)
            if k == 0:
                continue
            accs.append(heuristic_accuracy(part.inactive, heuristic_inactive(inst, k)))
        return np.asarray(accs)

    lp = corpus_accuracy(lambda s: gen_lp(100, 100, 0.05, s, bounded=True, slack_noise=4.0))
    qp = corpus_accuracy(lambda s: gen_qp(100, 100, 0.05, 0.05, s, slack_noise=4.0))
    dt = time.perf_counter() - t0
    ok = lp.mean() >= 0.80 and qp.mean() >= 0.82
    _announce(capsys, 3, ok, f"LP {lp.mean():.4f} +/- {lp.std():.4f} vs gate 0.80 "
                     f"(reference 0.885 +/- 0.029); "
                     f"QP {qp.mean():.4f} +/- {qp.std():.4f} vs gate 0.82 "
                     f"(reference 0.918 +/- 0.034); {dt:.1f}s")
    assert lp.size == 100 and qp.size == 100
    assert lp.mean() >= 0.80, lp.mean()
    assert qp.mean() >= 0.82, qp.mean()


def test_criterion_4_transform_algebraic_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_rel = 0.0
    for case in range(1000):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 10))
        dense = rng.standard_normal((n, n))
        inst = LcqpInstance(
            q=SparseMatrix.from_dense((dense + dense.T) / 2.0 + np.eye(n) * (n + 1)),
            a=SparseMatrix.from_dense(rng.standard_normal((m, n))),
            b=rng.standard_normal(m),
            c=rng.standard_normal(n),
            kind=ProblemKind.QP,
            name=f"case{case}",
        )
        # variable scaling preserves the objective at mapped points
        alpha = np.exp(rng.uniform(-1, 1, n))
        scaled, rec = scale_variables(inst, alpha)
        x = rng.standard_normal(n)
        x_mapped = x * np.asarray(rec.solution_map.values)
        rel = abs(objective(scaled, x_mapped) - objective(inst, x)) / (1.0 + abs(objective(inst, x)))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-12, (case, rel)
        # row scaling stores the exact dual multipliers and leaves x alone
        d = np.exp(rng.uniform(-1, 1, m))
        _, rec2 = scale_constraints(inst, d)
        assert rec2.solution_map.side == "dual"
        assert np.array_equal(np.asarray(rec2.solution_map.values), 1.0 / d)
        # appending rows then dropping them is a bitwise round trip
        weights = []
        for _ in range(int(rng.integers(1, 4))):
            take = min(3, m)
            picked = rng.choice(m, size=take, replace=False)
            raw = rng.random(take) + 1e-9
            w = np.zeros(m)
            w[picked] = raw / raw.sum()
            weights.append(w)
        added, _ = add_constraints(inst, weights)
        back, _ = _drop_constraints(added, list(range(m, m + len(weights))))
        assert back.q == inst.q and back.a == inst.a
        assert np.array_equal(back.b, inst.b) and np.array_equal(back.c, inst.c)
    dt = time.perf_counter() - t0
    ok = dt < 10.0
    _announce(capsys, 4, ok, f"1000 cases: objective drift <= {worst_rel:.2e} (<=1e-12), "
                     f"dual scales exact, add/drop round trips bitwise, {dt:.1f}s")
    assert dt < 10.0


def test_criterion_5_contrastive_loss_matches_brute_force(capsys):
    def brute_force(z, pairs, tau):
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
        total = 0.0
        for i, j in pairs:
            num = np.exp(z[i] @ z[j] / tau)
            den = sum(np.exp(z[i] @ z[k] / tau) for k in range(len(z)) if k != i)
            total += -np.log(num / den)
        return total / len(pairs)

    worst = 0.0
    for batch in range(100):
        rng = np.random.default_rng(batch)
        n_pairs = int(rng.integers(1, 9))
        d = int(rng.integers(1, 6))
        z = rng.standard_normal((2 * n_pairs, d))
        z[np.linalg.norm(z, axis=1) < 1e-6] += 1.0
        pairs = [(2 * t, 2 * t + 1) for t in range(n_pairs)]
        tau = 0.2 + rng.random()
        got = nt_xent_loss(z, pairs, tau=tau)
        worst = max(worst, abs(got - brute_force(z, pairs, tau)))
    v = np.random.default_rng(123).standard_normal(4)
    single = nt_xent_loss(np.vstack([v, v]), [(0, 1)], tau=0.5)
    ok = worst <= 1e-10 and single == 0.0
    _announce(capsys, 5, ok, f"100 batches within {worst:.2e} of brute force (<=1e-10), "
                     f"single identical pair = {single + 0.0}")
    assert worst <= 1e-10
    assert single == 0.0


def test_criterion_6_pooled_embedding_permutation_invariant(capsys):
    weights = init_mpnn_weights(seed=0)
    worst = 0.0
    for i in range(20):
        if i % 2:
            inst = gen_qp(6, 5, 0.5, 0.6, seed=i)
        else:
            inst = gen_lp(8, 4, 0.5, seed=i, bounded=True)
        base = encode_instance(inst, weights)
        rng = np.random.default_rng(100 + i)
        for _ in range(50):
            permuted = permute_instance(inst, rng.permutation(inst.n), rng.permutation(inst.m))
            worst = max(worst, float(np.abs(encode_instance(permuted, weights) - base).max()))
    ok = worst <= 1e-12
    _announce(capsys, 6, ok, f"20 instances x 50 permutations, max deviation {worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_criterion_7_pipeline_byte_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    roots = []
    for run in range(2):
        root = tmp_path / f"run{run}"
        roots.append(root)
        assert main([
            "generate", "--family", "lp", "--rows", "10", "--cols", "6",
            "--density-a", "0.4", "--bounded", "--slack-noise", "4.0",
            "--count", "50", "--seed", "11", "--solve", "--out", str(root / "ds"),
        ]) == 0
        assert main([
            "augment", "--manifest", str(root / "ds" / "manifest.json"),
            "--per-instance", "3", "--seed", "2", "--out", str(root / "aug"),
        ]) == 0
        assert main([
            "graph", "--manifest", str(root / "aug" / "manifest.json"),
            "--out", str(root / "graphs"),
        ]) == 0
    compared = 0
    for sub in ("ds", "aug", "graphs"):
        names_a = sorted(p.name for p in (roots[0] / sub).iterdir())
        names_b = sorted(p.name for p in (roots[1] / sub).iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (roots[0] / sub / name).read_bytes() == (roots[1] / sub / name).read_bytes(), (sub, name)
            compared += 1
    dt = time.perf_counter() - t0
    _announce(capsys, 7, True, f"generate 50 -> augment x3 -> graph export: "
                       f"{compared} files byte-identical across two runs, {dt:.1f}s")
    assert compared == (50 + 1) + (150 + 1) + 150


def test_criterion_8_learned_benchmarks_out_of_scope(tmp_path, capsys):
    # Training results from large learned models are out of scope for this
    # package; what stands in for them is (a) the contrastive-view pipeline
    # refusing ops that would silently need labels, and (b) view pairs
    # producing a finite, well-defined contrastive loss end to end.
    assert main([
        "generate", "--family", "lp", "--rows", "8", "--cols", "4",
        "--density-a", "0.5", "--bounded", "--count", "4", "--seed", "3",
        "--out", str(tmp_path / "ds"),
    ]) == 0
    code = main([
        "augment", "--manifest", str(tmp_path / "ds" / "manifest.json"),
        "--views", "2", "--ops", "drop-vars:0.5", "--out", str(tmp_path / "rejected"),
    ])
    err = capsys.readouterr().err
    gate_ok = code == 4 and "drop-vars" in err
    assert main([
        "augment", "--manifest", str(tmp_path / "ds" / "manifest.json"),
        "--views", "2", "--seed", "5", "--out", str(tmp_path / "views"),
    ]) == 0
    capsys.readouterr()
    entries = load_manifest(tmp_path / "views" / "manifest.json")
    weights = init_mpnn_weights(seed=0)
    embeddings, pairs = [], []
    for stem_idx in range(4):
        row = len(embeddings)
        for view in range(2):
            inst, sol = load_instance(tmp_path / "views" / f"lp_{stem_idx:05d}_view{view:02d}.json")
            assert sol is None
            embeddings.append(encode_instance(inst, weights))
        pairs.append((row, row + 1))
    loss = nt_xent_loss(np.asarray(embeddings), pairs, tau=0.5)
    ok = gate_ok and len(entries) == 8 and np.isfinite(loss)
    _announce(capsys, 8, ok, "learned-model benchmark numbers are out of scope (no "
                     "training here); covered instead by the property gates above, "
                     f"the label gate on views (exit {code}), and a finite "
                     f"end-to-end contrastive loss {loss:.4f}")
    assert gate_ok
    assert len(entries) == 8
    assert np.isfinite(loss)
