"""Unranked bottom-up tree automata: models, conversions, witnesses, oracles."""

from .analysis import (EquivalenceVerdict, canonical_sdta, equiv_bounded,
                       equiv_canonical, sdta_isomorphic)
from .automata import (DTA_DFA, DTA_NFA, KINDS, NTA_DFA, NTA_NFA, SDTA,
                       DeterminismReport, SizePair, TreeAutomaton, accepts,
                       check_semantic_determinism, classify, prune_reachable,
                       run, size)
from .convert import (ConversionReport, dtadfa_to_sdta, nta_to_dtadfa,
                      nta_to_sdta, sdta_to_dtadfa)
from .errors import (AlphabetMismatchError, DeterminismError, DocumentError,
                     EnumerationCapExceeded, KindError, OverlapError,
                     SeparationError, TreeSyntaxError, UnknownSymbolError,
                     UtaError)
from .strings import (DFA, NFA, MooreDFA, determinize, intersection_witness,
                      marked_union, minimize_dfa, minimize_moore, subset_name)
from .trees import (Context, EnumerationBounds, Tree, enumerate_trees,
                    iter_trees, leaf, nest, node, parse_context, parse_tree,
                    render_tree, substitute, word_node)
from .witnesses import (FoolingSetHorizontal, FoolingSetVertical,
                        LangPredicate, certify_horizontal_bound,
                        certify_vertical_bound, first_primes, gen_lemma34,
                        gen_thm41, lemma34_horizontal_fooling,
                        lemma34_vertical_fooling)

__version__ = "0.1.0"
