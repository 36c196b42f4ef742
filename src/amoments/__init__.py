"""amoments: exact desk-scale arithmetic statistics.

Residue matrices over GF(2) and their diagonal twists, binary-quadratic-form
class groups as ground truth, 2-descent machinery for twists of curves with
full rational 2-torsion, congruence densities, and exact character-sum
moment identities, all wired to a deterministic experiment harness.

The seven layer modules load on first use.  Importing the package puts each
of them in `sys.modules` and on the package, but a layer's code is compiled
and run only when one of its attributes is first read, so a CLI command runs
only the layers it reaches (`amoments --help` none of them).  The names of
`__all__` are read from their layer on first access (PEP 562).
"""

import importlib.util
import sys

# the public names of each layer, in the order of __all__
_EXPORTS = {
    "arith": (
        "FactoredInt", "PrimeDiscriminant", "SqfDecomposition", "factor", "is_prime",
        "is_squarefree", "squarefree_part", "jacobi", "kronecker", "star",
        "discriminant", "is_fundamental_discriminant", "prime_discriminant_decompose",
        "hilbert_symbol", "sqf_decompose", "fundamental_discriminants",
    ),
    "gf2": ("Gf2Matrix",),
    "redei": (
        "RedeiSystem", "TwistedRedei", "build_redei", "rk4_narrow", "build_twisted",
        "g_twisted", "g_detector", "check_majorization_class",
    ),
    "quadforms": ("FormClassGroup", "class_group"),
    "selmer": (
        "CurveData", "phi_v", "selmer_condition_kernel", "descent_selmer_oracle",
        "check_majorization_selmer",
    ),
    "density": (
        "Poly", "poly_from_string", "delta", "poly_density", "check_lemma_2_10",
        "frobenian_average",
    ),
    "moments": (
        "MomentReport", "weight_by_name", "check_P_identity", "max_unlinked",
        "first_moment_lhs", "first_moment_rhs", "selmer_first_moment_expand",
        "S_moment",
    ),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = list(_HOME)


def _lazy(layer: str):
    """The module amoments.<layer>, registered now and executed on first
    attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _layer in _EXPORTS:
    globals()[_layer] = _lazy(_layer)
del _layer


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
