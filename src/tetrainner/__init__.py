"""Rational tetra-inner functions and tetrablock geometry.

Only the base layer, ``errors`` and ``polycx`` (and with it numpy), loads
with the package.  Every other public name, and the submodule that holds
it, loads on first use, so a script or CLI command pays only for the
modules it runs.  ``tetrainner.construct`` is the function in every import
order; the submodule of that name is ``sys.modules["tetrainner.construct"]``
(or ``importlib.import_module("tetrainner.construct")``).
"""

import sys
import types
from importlib import import_module

from . import errors, polycx

# submodule: the public names it gives the package
_EXPORTS = {
    "boundary": ("GammaPoint", "GammaRegion", "Matrix2", "TetraPoint", "TetraRegion",
                 "classify_gamma", "classify_tetra", "gamma_to_tetra", "mu_diag_le_one",
                 "mu_diag_value", "pi_map", "psi", "tetra_to_gamma_diff", "tetra_to_gamma_sum"),
    "construct": ("ConstructionSpec", "RecoveredData", "build_e1", "build_royal_target",
                  "construct", "recover_data"),
    "extremal": ("PerturbationMethod", "PerturbationResult", "certify_extreme_symmetric",
                 "convex_combine", "perturb_nonextreme", "scale_nonextreme"),
    "fejriesz": ("TrigPolynomial", "factor", "laurent_shift", "modulus_squared_on_circle"),
    "polycx": ("Polynomial", "RootMultiset", "coeff_distance", "is_n_symmetric", "roots"),
    "tetrafun": ("BlaschkeSpec", "RoyalNode", "SuperficialSpec", "TetraRational", "TypeNK",
                 "circle_trace", "degree", "eval_function", "is_superficial", "psi_omega_check",
                 "royal_nodes", "royal_polynomial", "superficial_build", "type_nk", "validate",
                 "winding_number"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({"errors", *_EXPORTS, *_OWNER})
__version__ = "0.1.0"


def __getattr__(name):
    """Load the submodule behind a public name on its first use."""
    if name in _OWNER:
        value = globals()[name] = getattr(import_module(f".{_OWNER[name]}", __name__), name)
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__


class _Namespace(types.ModuleType):
    """The package module: a submodule never takes the place of an exported name.

    Loading tetrainner.construct binds it on the package; the function of
    that name stays, or is resolved by __getattr__ on first use.
    """

    def __setattr__(self, name, value):
        if not (name in _OWNER and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Namespace
