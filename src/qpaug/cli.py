"""Command line front end for dataset work: generation, augmentation,
solving, label verification, heuristic evaluation, split reassignment,
graph export, and objective-gap metrics.

Exit codes: 0 success, 2 bad input or usage, 3 solver failure rate over
budget, 4 augmentation needs labels it does not have, 5 verification failed.
Each command prints a JSON report to stdout; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .core import (
    InputError,
    ProblemKind,
    kkt_residuals,
    kkt_residuals_raw,
    objective,
    partition_constraints,
)
from .fileio import (
    _JSON_TYPES,
    _parse,
    load_instance,
    load_instance_unchecked,
    load_manifest,
    save_graph,
    save_instance,
    save_manifest,
)
from .generators import GENERATOR_FAMILIES, _label_and_save, _run_tasks, gen_dataset, split_labels
# solve_splitting and kkt_residuals are not called here but stay importable from
# cli, where perfbench/tracing.py wraps them; this solve_splitting is the
# generators one, which imports the solver (and scipy) only on the first solve
from .generators import solve_splitting  # noqa: F401
from .graphenc import to_bipartite_graph
from .rng import derive_seed
from .transforms import (
    _SOLUTION_DEPENDENT,
    AugmentPolicy,
    COMBO_STRENGTHS,
    SSL_STRENGTHS_LP,
    SSL_STRENGTHS_QP,
    apply_policy,
    heuristic_accuracy,
    heuristic_inactive,
)

def _check_workers(args):
    """Refuse a --failure-budget outside [0, 1] (NaN fails the comparison
    too) or a --jobs below 1, before anything is written."""
    if not 0.0 <= args.failure_budget <= 1.0:
        raise InputError(f"--failure-budget must lie in [0, 1], got {args.failure_budget}")
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")


def _report(doc: dict):
    print(json.dumps(doc, indent=2))


def _label_report(manifest: Path, entries: list, budget: float | None) -> int:
    """Print the report of a manifest `generate` or `solve` wrote; 3 when more
    than `budget` (None: no limit) of its entries are not "ok", else 0."""
    statuses = Counter(e["solver_status"] for e in entries)
    count = len(entries)
    _report({
        "manifest": str(manifest),
        "count": count,
        "label_rate": sum(e["labeled"] for e in entries) / count if count else 0.0,
        "statuses": statuses,
    })
    failures = count - statuses["ok"]
    if budget is not None and count and failures / count > budget:
        print(f"solver failed on {failures}/{count} instances, over budget {budget}",
              file=sys.stderr)
        return 3
    return 0


def _output_names(entries: list, name_of) -> list[str]:
    """name_of(Path(entry path)) for each entry: the name its output file is
    written under.  InputError when two entries, or an entry and the output
    manifest, share a name, before anything is written."""
    names = [name_of(Path(e["path"])) for e in entries]
    owner = {"manifest.json": "the output manifest"}
    for e, name in zip(entries, names):
        if name in owner:
            raise InputError(f"{owner[name]} and {e['path']} share the output name {name}")
        owner[name] = e["path"]
    return names


# ------------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    _check_workers(args)
    # only flags the user actually set are forwarded, so family-specific
    # keywords stay out of the other families
    size_params = {a.dest: getattr(args, a.dest) for a in args.size_flags
                   if getattr(args, a.dest) is not None}
    params = inspect.signature(GENERATOR_FAMILIES[args.family]).parameters
    missing = [a.option_strings[0] for a in args.size_flags if a.dest in params
               and params[a.dest].default is params[a.dest].empty and a.dest not in size_params]
    if missing:
        raise InputError(f"--family {args.family} needs {', '.join(missing)}")
    entries = gen_dataset(
        args.out, args.family, size_params, args.count, args.seed,
        solve=bool(args.solve), jobs=args.jobs,
    )
    return _label_report(Path(args.out) / "manifest.json", entries,
                         args.failure_budget if args.solve else None)


# ---------------------------------------------------------------------- solve

def _solve_task(task):
    src, dst = task
    inst, _ = load_instance(src)
    return _label_and_save(dst, inst, solve=True)


def cmd_solve(args) -> int:
    _check_workers(args)
    entries = load_manifest(args.manifest)
    names = _output_names(entries, lambda p: p.name)
    src_dir = Path(args.manifest).parent
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(str(src_dir / e["path"]), str(out_dir / name)) for e, name in zip(entries, names)]
    results = _run_tasks(_solve_task, tasks, args.jobs)
    out_entries = [
        {**e, "path": name, "labeled": labeled, "solver_status": status}
        for e, name, (status, labeled) in zip(entries, names, results)
    ]
    save_manifest(out_dir / "manifest.json", out_entries)
    return _label_report(out_dir / "manifest.json", out_entries, args.failure_budget)


# -------------------------------------------------------------------- augment

def _parse_ops(spec: str | None):
    """Parse "name:strength,..." into a strength table; "none" means empty."""
    if spec is None:
        return None
    if spec.strip() == "none":
        return {}
    strengths = {}
    for part in spec.split(","):
        name, sep, val = part.partition(":")
        if not sep:
            raise InputError(f"bad op spec {part!r}, expected name:strength")
        try:
            strengths[name.strip()] = float(val)
        except ValueError as exc:
            raise InputError(f"bad strength in op spec {part!r}") from exc
    return strengths


def _strengths(explicit, views, kind: ProblemKind):
    """The strength table for one instance: the --ops table when given, else
    the per-kind contrastive table for views, else the combo table."""
    if explicit is not None:
        return explicit
    if views is not None:
        return SSL_STRENGTHS_QP if kind is ProblemKind.QP else SSL_STRENGTHS_LP
    return COMBO_STRENGTHS


def cmd_augment(args) -> int:
    if args.views is not None and args.views < 1:
        raise InputError("--views must be at least 1")
    if args.per_instance < 1:
        raise InputError("--per-instance must be at least 1")
    entries = load_manifest(args.manifest)
    explicit = _parse_ops(args.ops)
    views = args.views

    # each kind's policy is checked here, before anything is written, and
    # only reseeded per copy
    policies = {
        kind: AugmentPolicy(_strengths(explicit, views, kind), ops_per_instance=args.ops_per_copy,
                            interpolate=views is None)
        for kind in ProblemKind
    }
    # ops that need a solution are rejected up front: views are always
    # unlabeled, and the table of every kind must cover every manifest entry
    needy = sorted({
        op for p in policies.values() for op in _SOLUTION_DEPENDENT
        if p.strengths.get(op, 0.0) > 0.0
    })
    if needy:
        if views is not None:
            print(f"op {needy[0]} needs a solution, views are unlabeled", file=sys.stderr)
            return 4
        if not all(e["labeled"] for e in entries):
            print(
                f"op {needy[0]} needs a solution but the manifest has "
                f"unlabeled instances", file=sys.stderr,
            )
            return 4

    copies = views if views is not None else args.per_instance
    tag = "view" if views is not None else "aug"
    # outputs are named {stem}_{tag}NN.json, so distinct stems keep them apart
    _output_names(entries, lambda p: f"{p.stem}_{tag}00.json")
    src_dir = Path(args.manifest).parent
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_entries = []
    for e in entries:
        inst, sol = load_instance(src_dir / e["path"])
        if views is not None:
            sol = None
        stem = Path(e["path"]).stem
        for j in range(copies):
            pseed = (
                derive_seed(args.seed, stem, "view", j)
                if views is not None
                else derive_seed(args.seed, stem, j)
            )
            policy = dataclasses.replace(policies[inst.kind], seed=pseed)
            new_inst, new_sol, _ = apply_policy(inst, policy, sol)
            new_stem = f"{stem}_{tag}{j:02d}"
            new_inst = dataclasses.replace(new_inst, name=new_stem)
            save_instance(out_dir / f"{new_stem}.json", new_inst, new_sol)
            out_entries.append({
                "path": f"{new_stem}.json",
                "split": e["split"],
                "family": e["family"],
                "seed": pseed,
                "labeled": new_sol is not None,
                "solver_status": "mapped" if new_sol is not None else "not_requested",
            })
    save_manifest(out_dir / "manifest.json", out_entries)
    _report({
        "manifest": str(out_dir / "manifest.json"),
        "count": len(out_entries),
    })
    return 0


# --------------------------------------------------------------------- verify

def cmd_verify(args) -> int:
    if not 0.0 < args.tol < np.inf:  # NaN fails the comparison too
        raise InputError(f"--tol must be positive and finite, got {args.tol}")
    entries = load_manifest(args.manifest)
    src_dir = Path(args.manifest).parent
    checked, failing = 0, []
    worst = {
        "stationarity_inf_norm": 0.0,
        "primal_violation": 0.0,
        "dual_violation": 0.0,
        "complementarity": 0.0,
    }
    for e in entries:
        if not e["labeled"]:
            continue
        # a file that does not load is bad input (exit 2), not a failed label
        inst, arrays = load_instance_unchecked(src_dir / e["path"])
        if arrays is None:
            print(f"{e['path']}: marked labeled but stores no solution", file=sys.stderr)
            failing.append(e["path"])
            continue
        x, lam, stored_obj = arrays
        rep = kkt_residuals_raw(inst, x, lam, relative=not args.absolute)
        checked += 1
        for key in worst:
            worst[key] = max(worst[key], getattr(rep, key))
        ok = rep.max_residual <= args.tol
        if abs(stored_obj - objective(inst, x)) > args.tol * (1.0 + abs(stored_obj)):
            ok = False
        if not ok:
            failing.append(e["path"])
    if checked == 0 and not failing:
        print("manifest has no labeled instances to verify", file=sys.stderr)
        return 2
    _report({
        "checked": checked,
        "tol": args.tol,
        "relative": not args.absolute,
        "worst": worst,
        "failing": failing,
    })
    return 5 if failing else 0


# ------------------------------------------------------------- heuristic-eval

def cmd_heuristic_eval(args) -> int:
    entries = load_manifest(args.manifest)
    src_dir = Path(args.manifest).parent
    buckets: dict[str, list[float]] = {}
    for e in entries:
        if not e["labeled"]:
            continue
        inst, sol = load_instance(src_dir / e["path"])
        part = partition_constraints(inst, sol, tol=args.active_tol)
        k = len(part.inactive)
        if k == 0:
            continue
        acc = heuristic_accuracy(part.inactive, heuristic_inactive(inst, k))
        buckets.setdefault(f"{inst.m}x{inst.n}", []).append(acc)
    if not buckets:
        print("no labeled instances with inactive constraints", file=sys.stderr)
        return 2

    def stats(vals):
        arr = np.asarray(vals, dtype=np.float64)
        return {"mean": float(arr.mean()), "std": float(arr.std()), "count": len(vals)}

    _report({
        "overall": stats([v for vals in buckets.values() for v in vals]),
        "buckets": {key: stats(vals) for key, vals in sorted(buckets.items())},
    })
    return 0


# ----------------------------------------------------------------------- split

def cmd_split(args) -> int:
    entries = load_manifest(args.manifest)
    for e, s in zip(entries, split_labels(len(entries), args.seed)):
        e["split"] = s
    out = args.out if args.out is not None else args.manifest
    save_manifest(out, entries)
    counts = Counter(e["split"] for e in entries)
    _report({"manifest": str(out), **{k: counts[k] for k in ("train", "val", "test")}})
    return 0


# ----------------------------------------------------------------------- graph

def cmd_graph(args) -> int:
    entries = load_manifest(args.manifest)
    names = _output_names(entries, lambda p: f"{p.stem}.graph.json")
    src_dir = Path(args.manifest).parent
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for e, name in zip(entries, names):
        inst, _ = load_instance(src_dir / e["path"])
        graph = to_bipartite_graph(inst)
        save_graph(out_dir / name, graph)
    _report({"out": str(out_dir), "count": len(entries)})
    return 0


# --------------------------------------------------------------------- metrics

def cmd_metrics(args) -> int:
    doc = _parse(args.pairs)
    # true or "2.0" would convert to a number; the instance reader's rule
    # takes JSON numbers only
    numbers = _JSON_TYPES[np.float64]
    if isinstance(doc, list) and any(
        not isinstance(pair, list) or not set(map(type, pair)) <= numbers for pair in doc
    ):
        raise InputError(f"{args.pairs}: pairs must hold JSON numbers only")
    try:
        arr = np.asarray(doc, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(
            f"{args.pairs}: expected [[predicted, reference], ...] ({exc})"
        ) from exc
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise InputError(f"{args.pairs}: expected a nonempty [[predicted, reference], ...]")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{args.pairs}: objective values must be finite")
    zero = np.flatnonzero(arr[:, 1] == 0.0)
    if zero.size:
        print(
            f"reference objective is zero at index {int(zero[0])}, relative "
            f"error is undefined", file=sys.stderr,
        )
        return 2
    err = np.abs(arr[:, 0] - arr[:, 1]) / np.abs(arr[:, 1])
    _report({
        "count": int(arr.shape[0]),
        "mean_relative_objective_error_pct": float(err.mean() * 100.0),
    })
    return 0


# ----------------------------------------------------------------- entry point

def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH",
        help="JSON object of option defaults; explicit flags take precedence",
    )
    workers = argparse.ArgumentParser(add_help=False, parents=[common])
    workers.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1; see README on BLAS threads)")
    workers.add_argument("--failure-budget", type=float, default=0.1,
                         help="max tolerated solver failure rate")
    parser = argparse.ArgumentParser(
        prog="qpaug",
        description="datasets of linearly constrained quadratic programs: "
                    "generate, augment, solve, verify, and export",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    sp = sub.add_parser("generate", parents=[workers],
                        help="write a dataset of random instances")
    sp.add_argument("--family", required=True, choices=sorted(GENERATOR_FAMILIES))
    sp.add_argument("--count", required=True, type=int, help="number of instances")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--solve", action="store_true", default=None,
                    help="label each instance by solving it")
    # each size flag's dest is its generator keyword
    size = sp.add_argument_group("instance size")
    size.add_argument("--rows", dest="m", type=int, help="constraint count m")
    size.add_argument("--cols", dest="n", type=int, help="variable count n")
    size.add_argument("--density-a", type=float)
    size.add_argument("--density-q", type=float,
                      help="density of the strict lower triangle of the unit factor L in "
                           "Q = L D L'; Q itself fills in, so its density is higher, and "
                           "only its positive definiteness is guaranteed")
    size.add_argument("--bounded", action="store_true", default=None,
                      help="add box constraints so the instance stays bounded")
    size.add_argument("--slack-noise", type=float)
    size.add_argument("--box-margin", type=float)
    size.add_argument("--samples", dest="n_samples", type=int, help="sample count n_samples")
    size.add_argument("--features", dest="d_features", type=int,
                      help="feature count d_features")
    size.add_argument("--lambda-reg", type=float)
    size.add_argument("--density", type=float)
    size.add_argument("--assets", dest="n_assets", type=int, help="asset count n_assets")
    sp.set_defaults(handler=cmd_generate, size_flags=size._group_actions)

    sp = sub.add_parser("augment", parents=[common],
                        help="write transformed copies of a dataset")
    sp.add_argument("--manifest", required=True, help="input manifest path")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--ops", help='"name:strength,..." or "none" (default: combo table)')
    sp.add_argument("--per-instance", type=int, default=1,
                    help="augmented copies per input instance")
    sp.add_argument("--ops-per-copy", type=int, default=2,
                    help="ops sampled for each copy")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--views", type=int, default=None,
                    help="emit N unlabeled contrastive views per instance instead")
    sp.set_defaults(handler=cmd_augment)

    sp = sub.add_parser("solve", parents=[workers],
                        help="solve every instance and write a labeled copy")
    sp.add_argument("--manifest", required=True, help="input manifest path")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(handler=cmd_solve)

    sp = sub.add_parser("verify", parents=[common],
                        help="check stored solutions against first-order conditions")
    sp.add_argument("--manifest", required=True, help="input manifest path")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--absolute", action="store_true", default=None,
                    help="use absolute instead of relative residuals")
    sp.set_defaults(handler=cmd_verify)

    sp = sub.add_parser("heuristic-eval", parents=[common],
                        help="score the inactive-constraint heuristic on labeled data")
    sp.add_argument("--manifest", required=True, help="input manifest path")
    sp.add_argument("--active-tol", type=float, default=1e-6,
                    help="slack threshold for calling a row active")
    sp.set_defaults(handler=cmd_heuristic_eval)

    sp = sub.add_parser("split", parents=[common],
                        help="reassign the train/val/test split in place")
    sp.add_argument("--manifest", required=True, help="manifest path to rewrite")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write here instead of in place")
    sp.set_defaults(handler=cmd_split)

    sp = sub.add_parser("graph", parents=[common],
                        help="export each instance as a bipartite graph file")
    sp.add_argument("--manifest", required=True, help="input manifest path")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(handler=cmd_graph)

    sp = sub.add_parser("metrics", parents=[common],
                        help="mean relative objective error of predicted values")
    sp.add_argument("--pairs", required=True, help="JSON file of [predicted, reference] pairs")
    sp.set_defaults(handler=cmd_metrics)

    return parser, sub.choices


# a --config value's JSON types, matched exactly as the instance reader
# does, and their name, by its flag's argparse type
_CONFIG_TYPES = {
    int: (_JSON_TYPES[np.int64], "an integer"),
    float: (_JSON_TYPES[np.float64], "a number"),
    None: (_JSON_TYPES[np.str_], "a string"),
}


def _config_value(path, key, val, action):
    """`val` as `action`'s flag would parse it.  InputError unless it has
    the flag's JSON type: a boolean for a switch, else the type its argparse
    type parses, inside its choices where it has them."""
    if isinstance(action, argparse._StoreTrueAction):
        kinds, want = {bool}, "a boolean"
    else:
        kinds, want = _CONFIG_TYPES[action.type]
    if type(val) not in kinds:
        raise InputError(f"{path}: config key {key!r} must be {want}, got {json.dumps(val)}")
    if action.choices is not None and val not in action.choices:
        raise InputError(
            f"{path}: config key {key!r} must be one of {sorted(action.choices)}, got {val!r}"
        )
    # 1 for a float flag must reach the program, and its records, as 1.0
    return float(val) if action.type is float else val


def _config_defaults(registry, argv):
    """First pass: pull --config, match its keys to the subcommand's flag
    names and its values to their types, and install them as defaults, so
    explicit flags still win on re-parse and a required flag is satisfied."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    known, rest = probe.parse_known_args(argv)
    if known.config is None:
        return
    cmd = rest[0] if rest and not rest[0].startswith("-") else None
    if cmd not in registry:
        raise InputError("--config needs one of the known subcommands")
    doc = _parse(known.config)
    if not isinstance(doc, dict):
        raise InputError(f"{known.config}: config must hold a JSON object")
    flags = {opt: a for a in registry[cmd]._actions if a.dest not in ("help", "config")
             for opt in a.option_strings}
    for key, val in doc.items():
        action = flags.get("--" + key.replace("_", "-"))
        if action is None:
            raise InputError(f"{known.config}: unknown config key {key!r} for {cmd}")
        action.default = _config_value(known.config, key, val, action)
        action.required = False


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, registry = _build_parser()
    try:
        _config_defaults(registry, argv)
        args = parser.parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
