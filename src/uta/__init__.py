"""Unranked bottom-up tree automata: models, conversions, witnesses, oracles.

The names below and their submodules are attributes of the package, but each
loads its module on first use (PEP 562), so ``import uta`` imports no submodule.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "analysis": "EquivalenceVerdict canonical_sdta equiv_bounded equiv_canonical sdta_isomorphic",
    "automata": "DTA_DFA DTA_NFA KINDS NTA_DFA NTA_NFA SDTA DeterminismReport SizePair "
                "TreeAutomaton accepts check_semantic_determinism prune_reachable run size",
    "convert": "ConversionReport dtadfa_to_sdta nta_to_dtadfa nta_to_sdta sdta_to_dtadfa",
    "errors": "AlphabetMismatchError DeterminismError DocumentError KindError OverlapError "
              "SeparationError TreeSyntaxError UnknownSymbolError UtaError",
    "strings": "DFA NFA MooreDFA determinize marked_union minimize_dfa minimize_moore subset_name",
    "trees": "Context EnumerationBounds Tree iter_trees leaf nest node "
             "parse_context parse_tree render_tree substitute word_node",
    "witnesses": "FoolingSetHorizontal FoolingSetVertical LangPredicate certify_horizontal_bound "
                 "certify_vertical_bound first_primes gen_lemma34 gen_thm41 "
                 "lemma34_horizontal_fooling lemma34_vertical_fooling",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_MODULE_OF, *_EXPORTS]
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
