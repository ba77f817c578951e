"""Adinkra graphs: chromotopologies, height patterns, and their superfield side.

The package splits along the objects it manipulates:

* :mod:`adinkra.core` defines topologies, edge parity, height patterns, and
  the engineerability test for orientations.
* :mod:`adinkra.cube` builds color cubes and the four-color antipodal
  quotient.
* :mod:`adinkra.hanging` rehangs a topology from chosen extreme vertices.
* :mod:`adinkra.mutation` raises and lowers vertices, enumerates families,
  traces raising sequences, and decides isomorphism.
* :mod:`adinkra.superspace` is an exact symbolic engine for superfields,
  superderivatives, and component transformation rules.
* :mod:`adinkra.constraints` turns derivative batteries into Adinkras and
  constraint systems, and back.
* :mod:`adinkra.document` and :mod:`adinkra.cli` move everything through
  JSON documents and a command line.

Importing the package loads none of them: each exported name, and each
submodule, is imported on first use, so a command line process compiles only
the modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

# every exported name and the submodule that defines it, in __all__ order
_EXPORTS = {
    "BOSON": "core",
    "FERMION": "core",
    "MAX_CUBE_COLORS": "cube",
    "SCALAR": "cube",
    "SPINOR": "cube",
    "SOURCES": "hanging",
    "TARGETS": "hanging",
    "Adinkra": "core",
    "AdinkraError": "core",
    "Constraint": "constraints",
    "ConstraintSystem": "constraints",
    "D": "superspace",
    "DTAU": "superspace",
    "Document": "document",
    "DocumentError": "document",
    "EngineerResult": "core",
    "FamilyGraph": "mutation",
    "HookSet": "hanging",
    "Identification": "constraints",
    "ParityResult": "core",
    "Phase": "superspace",
    "Q": "superspace",
    "RuleSet": "superspace",
    "SequenceStep": "mutation",
    "SequenceTrace": "mutation",
    "SourceSpec": "constraints",
    "SuperOp": "superspace",
    "SuperfieldExpr": "superspace",
    "Topology": "core",
    "anticommutator": "superspace",
    "antipodal_quotient": "cube",
    "apply_op": "superspace",
    "automorphic_dual": "mutation",
    "base_adinkra": "mutation",
    "check_annihilation": "constraints",
    "check_hooks": "hanging",
    "check_identity": "superspace",
    "closure_violations": "superspace",
    "code_quotient": "cube",
    "cube_signature": "cube",
    "cube_statistics": "cube",
    "cube_topology": "cube",
    "descending_product": "superspace",
    "deserialize": "document",
    "dimension_vector": "constraints",
    "dist0": "cube",
    "emit_constraints": "constraints",
    "engineerable": "core",
    "enumerate_family": "mutation",
    "export_dot": "document",
    "format_dimension_vector": "constraints",
    "generic_superfield": "superspace",
    "hang": "hanging",
    "hgt0": "cube",
    "hooks_of": "hanging",
    "identify": "constraints",
    "image_adinkra": "constraints",
    "isomorphic": "mutation",
    "isomorphism_classes": "mutation",
    "kernel_orders": "constraints",
    "kinship_distance": "mutation",
    "lower_vertex": "mutation",
    "lowering_sequence_to_one_hooked": "core",
    "main_sequence": "mutation",
    "member_key": "mutation",
    "mu": "constraints",
    "net_ascent": "core",
    "normalize_heights": "core",
    "one_hooked": "hanging",
    "orientation_from_heights": "core",
    "parity_violations": "core",
    "project": "superspace",
    "raise_vertex": "mutation",
    "serialize": "document",
    "solve_edge_parity": "core",
    "sources": "mutation",
    "standard_parity": "cube",
    "subset_label": "cube",
    "targets": "mutation",
    "transformation_rules": "superspace",
    "validate_topology": "core",
    "verify_presentation": "constraints",
}

__all__ = list(_EXPORTS)

_SUBMODULES = frozenset(_EXPORTS.values())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    # the names of an eagerly imported package: the lazy machinery stays out of sight
    hidden = {"importlib", "_EXPORTS", "_SUBMODULES", "__getattr__", "__dir__"}
    return sorted({*globals(), *__all__, *_SUBMODULES} - hidden)
