"""homalg: exact rational verification engine for twisted nonassociative algebras.

``import homalg`` registers every submodule but ``cli`` and ``fixtures`` in
``sys.modules`` and as an attribute of the package, and compiles none of
them: a module's code runs on its first attribute access
(``importlib.util.LazyLoader``).  Each public name is served from its home
module when it is first read (PEP 562), so a command compiles only the
modules it runs.
"""
import importlib.util
import sys

#: each public name, by the module that defines it
_HOMES = {
    "bundle": "Bundle BundleError check_payload diagram_payload dumps_bundle load_bundle"
              " loads_bundle save_bundle",
    "functors": "SPLIT_DIRECTIONS DiagramReport NotAMorphism UnknownDirection commutator"
                " horizontal quadri_split transpose verify_diagram vertical yau_twist",
    "operators": "EndomorphismInvalid HessianInvalid NotCommuting OperatorInvalid"
                 " check_commuting check_hessian check_oop_endomorphism check_operator"
                 " hessian_dendrify induce induce_pair twist_oop_setup",
    "records": "CLASS_ROLES INDUCE_RECIPES KIND_O_OPERATOR KIND_ROTA_BAXTER MALCEV_ACTIONS"
               " OPERATOR_KINDS PAIR_RECIPES PRE_ALTERNATIVE_ACTIONS PRE_MALCEV_ACTIONS"
               " ActionRole BilinearForm CheckReport DimensionMismatch HomStructure"
               " OperatorWitness ProductRole Representation RoleMismatch SingularMatrix"
               " StructureClass UnknownKind Violation make_structure",
    "reps": "DUAL_VARIANTS NotMultiplicative adjoint_rep check_rep dual_malcev_rep"
            " dual_pre_malcev_rep regular_alternative_rep regular_pre_alternative_rep"
            " regular_pre_malcev_rep semidirect",
    "structures": "check check_morphism derived_product",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"

for _name in ("exact", "records", "structures", "reps", "operators", "functors", "bundle"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
