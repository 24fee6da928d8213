"""Pancake and burnt pancake graph toolkit.

Computes distance-layer counts from the identity (how many stacks need
exactly k flips to sort), enumerates and classifies short cycles against the
known canonical-form families, and evaluates/cross-checks the closed-form
counting polynomials — all with exact integer arithmetic.

The public names load on first access (PEP 562): ``import pancakes`` imports
no submodule and no NumPy, and ``pancakes.crosscheck``, say, imports
:mod:`pancakes.formulas` when it is first looked up.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "perms": (
        "MAX_N",
        "Perm",
        "SignedPerm",
        "PermError",
        "FlipRangeError",
        "RankRangeError",
        "ParseError",
        "apply_flip",
        "apply_signed_flip",
        "rank",
        "unrank",
        "srank",
        "sunrank",
        "parse_perm",
        "format_perm",
    ),
    "graphs": ("GraphKind", "PancakeGraph"),
    "search": (
        "LayerProfile",
        "MemoryLimitError",
        "DEFAULT_MEMORY_LIMIT",
        "MEMORY_LIMIT_ENV",
        "layer_profile",
        "resume",
        "distance",
        "sort_sequence",
        "required_memory",
        "resolve_memory_limit",
    ),
    "checkpoint": (
        "SearchCheckpoint",
        "CheckpointError",
        "CHECKPOINT_VERSION",
        "crc32c",
        "read_checkpoint",
        "write_checkpoint",
    ),
    "cycles": (
        "Cycle",
        "CycleFamily",
        "CensusReport",
        "FamilyMatch",
        "FamilyTally",
        "UNMATCHED",
        "DEFAULT_NODE_BUDGET",
        "InfeasibleSizeError",
        "UnsupportedLengthError",
        "canonicalize",
        "enumerate_cycles",
        "families_for",
        "match_form",
        "verify_classification",
    ),
    "formulas": (
        "FormulaSpec",
        "FormulaStatus",
        "OutOfValidity",
        "OUT_OF_VALIDITY",
        "CrosscheckReport",
        "CrosscheckRow",
        "IdentityReport",
        "NewtonPoly",
        "Verdict",
        "FitError",
        "UnknownFormulaError",
        "eval_formula",
        "get_formula",
        "formula_names",
        "crosscheck",
        "fit_newton",
        "check_recurrence_cor62",
        "check_gregory_newton_con63",
        "published_cells",
    ),
}
_SUBMODULES = ("reports", "tables")
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SOURCE, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _SOURCE:
        value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
