"""Conversions between the automaton kinds, with size-bound reports.

Every constructed automaton contains only parts reachable in some bottom-up
run: vertical subset states are produced by a fixed point over assignable
child sets, and horizontal machines are explored from their initial states.
Subset states are named canonically (sorted member list in braces) so
conversion outputs are byte-for-byte reproducible.
"""

from __future__ import annotations

from math import prod

from .automata import (DTA_DFA, SDTA, SizePair, TreeAutomaton, bottom_up_reach,
                       check_semantic_determinism, size)
from .errors import DeterminismError, KindError, OverlapError
from .strings import (DFA, MooreDFA, determinize, explore, marked_union, reading, subset_name,
                      unique_names)
from .trees import _Record


class ConversionReport(_Record):
    """Measured sizes plus the upper-bound formula evaluated on the input."""

    __slots__ = ("rule", "input_size", "output_size", "bound")

    def __init__(self, rule: str, input_size: SizePair, output_size: SizePair, bound: SizePair):
        self._init(rule, input_size, output_size, bound)

    @property
    def bound_satisfied(self) -> bool:
        return self.output_size <= self.bound

    def render(self) -> str:
        return (
            f"conversion: {self.rule}\n"
            f"input-size: {self.input_size}\n"
            f"output-size: {self.output_size}\n"
            f"bound: {self.bound}\n"
            f"bound-satisfied: {'true' if self.bound_satisfied else 'false'}\n"
        )


def sdta_to_dtadfa(a: TreeAutomaton):
    """Split each per-symbol machine into one DFA per output value: the copy
    for state q keeps exactly the finals that output q.  The copies are
    siblings (``DFA.with_finals``) that share the Moore machine's states,
    ``delta`` and compiled form, neither checked nor compiled again, and so
    their positions in ``prune_reachable``.  Vertical states are untouched;
    the result is weakly deterministic by construction."""
    if a.kind != SDTA:
        raise KindError(f"expected an SDTA, got {a.kind}")
    horizontal = {}
    for sym, mach in sorted(a.moore.items()):
        finals: dict = {}
        for s, q in mach.outputs.items():
            finals.setdefault(q, []).append(s)
        for q in sorted(finals):
            horizontal[(q, sym)] = mach.with_finals(finals[q])
    out = TreeAutomaton(DTA_DFA, a.alphabet, a.states, a.finals,
                        horizontal=horizontal, leaf_symbols=a.leaf_symbols)
    insize = size(a)
    bound = SizePair(insize.vertical, insize.vertical * insize.horizontal)
    return out, ConversionReport("sdta-to-dtadfa", insize, size(out), bound)


def dtadfa_to_sdta(a: TreeAutomaton):
    """Merge the per-(state, symbol) DFAs of a weakly deterministic automaton
    into one machine per symbol: their marked union (the reachable product),
    whose output names the state of the component that accepted.

    The marked union checks the DFAs for pairwise disjointness; an overlap
    raises the DeterminismError that ``check_semantic_determinism`` reports.
    Vertical states are untouched.
    """
    if a.kind == SDTA:
        raise KindError("input is already an SDTA")
    if any(not isinstance(m, DFA) for m in a.horizontal.values()):
        raise KindError("expected DFA horizontal acceptors")

    moore = {}
    bound_horizontal = 0
    for sym in sorted(a.alphabet):
        machines = a.machines_for(sym)
        if not machines:
            continue
        bound_horizontal += prod(m.size for _, m in machines)
        try:
            union = marked_union(m for _, m in machines)
        except OverlapError as e:
            i, j = e.indices
            raise DeterminismError(sym, (machines[i - 1][0], machines[j - 1][0]),
                                   e.witness) from None
        moore[sym] = union.map_outputs(lambda i: machines[i - 1][0])

    out = TreeAutomaton(SDTA, a.alphabet, a.states, a.finals,
                        moore=moore, leaf_symbols=a.leaf_symbols)
    insize = size(a)
    bound = SizePair(insize.vertical, bound_horizontal)
    return out, ConversionReport("dtadfa-to-sdta", insize, size(out), bound)


def _subset_moore(a: TreeAutomaton, sym, walk, items, name, alphabet) -> MooreDFA:
    """The horizontal run of ``sym`` (``TreeAutomaton.horizontal_run``), the
    joint subset simulation of its acceptors, as a Moore machine over
    ``alphabet``, read off ``walk``, its ``explore`` over ``items`` in any
    order, with no step taken again: states h0, h1, ... in the BFS order of
    reading ``items`` in order, each item read as the symbol ``name(item)``,
    and every nonempty set of accepting states output as ``name(set)``."""
    runs, walked = walk
    by_item = {}
    for e in walked:
        by_item.setdefault(e[1], []).append(e)
    # each (run, successor) pair is made as it is read, so none is kept
    columns = {item: ((i, j) for i, _, j in es) for item, es in by_item.items()}
    order, edges = explore([0], reading(columns, items))  # the walk renumbered in BFS order
    hname = [f"h{n}" for n in range(len(order))]
    trans = [(hname[i], name(item), hname[j]) for i, item, j in edges]
    finish = a.horizontal_run(sym)[2]
    outs = {hname[n]: finish(runs[i], False) for n, i in enumerate(order)}
    outputs = {h: name(out) for h, out in outs.items() if out}
    return MooreDFA(hname, alphabet, "h0", set(outputs), trans, outputs)


def _assignable_subsets(a: TreeAutomaton):
    """Fixed point of child-set reachability: every state set some run can
    assign to a node, as sorted frozensets of original vertical states, and
    by symbol the walk of its run's sparse ``read`` in the last round, over
    every item (``automata.bottom_up_reach``)."""
    leaf_items = [frozenset([s]) for s in sorted(a.leaf_symbols)]
    syms = _symbols_with_machines(a)

    def outputs(finish):  # a run outputs the state set it assigns, if not empty
        return lambda runs: [s for run in runs if (s := finish(run, False))]

    walks = {}
    found = list(bottom_up_reach([([start], read, outputs(finish))
                                  for start, _, finish, read, *_ in map(a._run, syms)],
                                 leaf_items, walks))
    return sorted(found[len(leaf_items):], key=sorted), dict(zip(syms, walks.values()))


def _symbols_with_machines(a: TreeAutomaton) -> list:
    return [sym for sym in sorted(a.alphabet) if a.machines_for(sym)]


def _eq4_horizontal(a: TreeAutomaton) -> int:
    return sum(2 ** sum(m.size for _, m in a.machines_for(sym)) for sym in a.alphabet)


def nta_to_sdta(a: TreeAutomaton, force_general: bool = False):
    """Determinize the bottom-up computation into a strongly deterministic
    automaton.

    General case: vertical states become the assignable state sets, and each
    symbol gets the joint subset-simulation of its horizontal acceptors as a
    Moore machine whose output is the set of accepting components.

    When the input is already semantically deterministic (detected, or
    forced off with ``force_general``), assignable sets are singletons, so
    the original vertical states are kept; only the horizontal layer is
    rebuilt, and every output is asserted to be a single state.
    """
    if a.kind == SDTA:
        raise KindError("input is already an SDTA")
    insize = size(a)
    refine = not force_general and check_semantic_determinism(a).ok
    if refine:
        out = _nta_to_sdta_refined(a)
        bound = SizePair(insize.vertical, _eq4_horizontal(a))
    else:
        out = _nta_to_sdta_general(a)
        bound = SizePair(2**insize.vertical, _eq4_horizontal(a))
    return out, ConversionReport("nta-to-sdta", insize, size(out), bound)


def _nta_to_sdta_general(a: TreeAutomaton) -> TreeAutomaton:
    (real, walks), leaves = _assignable_subsets(a), sorted(a.leaf_symbols)
    items = [frozenset([s]) for s in leaves] + real  # a leaf item is named by its leaf
    name = dict(zip(items, unique_names(leaves + [*map(subset_name, real)]))).__getitem__
    new_states = {name(p) for p in real}
    ha = frozenset(new_states) | a.leaf_symbols
    moore = {sym: _subset_moore(a, sym, walk, items, name, ha) for sym, walk in walks.items()}
    finals = {name(p) for p in real if p & a.finals}
    finals |= {s for s in a.leaf_symbols if s in a.finals}
    return TreeAutomaton(SDTA, a.alphabet, new_states, finals,
                         moore=moore, leaf_symbols=a.leaf_symbols)


def _sole(states):
    assert len(states) == 1, "deterministic input produced a proper state set"
    return next(iter(states))


def _nta_to_sdta_refined(a: TreeAutomaton) -> TreeAutomaton:
    ha = a.horizontal_alphabet
    items = [frozenset([s]) for s in sorted(ha)]
    runs = {sym: a._run(sym) for sym in _symbols_with_machines(a)}
    moore = {sym: _subset_moore(a, sym, explore([start], read(items)), items, _sole, ha)
             for sym, (start, _, _, read, *_) in runs.items()}
    return TreeAutomaton(SDTA, a.alphabet, a.states, a.finals,
                         moore=moore, leaf_symbols=a.leaf_symbols)


def nta_to_dtadfa(a: TreeAutomaton, force_general: bool = False):
    """Determinize into a weakly deterministic automaton.

    General case: the general SDTA construction of ``nta_to_sdta``, split by
    ``sdta_to_dtadfa``.  The vertical states are the assignable state sets,
    and the horizontal DFA for (P, sym) is the subset-simulation machine of
    ``sym`` with finals restricted to the states whose output is exactly P;
    the DFAs of one symbol are siblings that share that machine's structure.

    For a semantically deterministic input (unless forced off), the vertical
    states are preserved and each horizontal acceptor is determinized
    separately.
    """
    if a.kind == SDTA:
        raise KindError("input is already an SDTA")
    insize = size(a)
    refine = not force_general and check_semantic_determinism(a).ok
    if refine:
        horizontal = {key: determinize(m) for key, m in sorted(a.horizontal.items())}
        bound_h = sum(2**m.size for m in a.horizontal.values())
        out = TreeAutomaton(DTA_DFA, a.alphabet, a.states, a.finals,
                            horizontal=horizontal, leaf_symbols=a.leaf_symbols)
        bound = SizePair(insize.vertical, bound_h)
    else:
        out, _ = sdta_to_dtadfa(_nta_to_sdta_general(a))
        bound = SizePair(2**insize.vertical, 2**insize.vertical * _eq4_horizontal(a))
    return out, ConversionReport("nta-to-dtadfa", insize, size(out), bound)
