"""qpaug: generation, optimality-preserving augmentation, and graph encoding
of linearly-constrained quadratic programs."""

import importlib

# module -> the public names it defines.  Each name is imported from its
# module on first access (PEP 562), so `import qpaug` loads no submodule
_EXPORTS = {
    "core": (
        "ActivePartition",
        "Definiteness",
        "InputError",
        "KktReport",
        "LcqpInstance",
        "ProblemKind",
        "Solution",
        "SparseMatrix",
        "kkt_residuals",
        "kkt_residuals_raw",
        "objective",
        "partition_constraints",
        "permute_instance",
        "psd_certificate",
    ),
    "solver": (
        "InfeasibleOrUnbounded",
        "SolverConfig",
        "Unbounded",
        "Unconverged",
        "solve_enumeration",
        "solve_splitting",
        "solve_splitting_detailed",
    ),
    "transforms": (
        "AugmentPolicy",
        "MapKind",
        "SolutionMap",
        "TransformRecord",
        "add_constraints",
        "add_variable_biased",
        "add_variable_constrained",
        "add_variables",
        "apply_policy",
        "bias_instance",
        "heuristic_accuracy",
        "heuristic_inactive",
        "heuristic_scores",
        "map_solution",
        "remove_idle_variables",
        "remove_inactive_constraints",
        "scale_constraints",
        "scale_variables",
    ),
    "generators": (
        "GENERATOR_FAMILIES",
        "gen_dataset",
        "gen_lasso",
        "gen_lp",
        "gen_portfolio",
        "gen_qp",
        "gen_svm",
        "make_sparse_spd",
    ),
    "graphenc": (
        "BipartiteGraph",
        "MpnnWeights",
        "encode_instance",
        "init_mpnn_weights",
        "mpnn_forward",
        "nt_xent_loss",
        "pooled_embedding",
        "to_bipartite_graph",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__version__ = "0.1.0"
