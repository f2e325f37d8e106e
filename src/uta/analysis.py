"""Equivalence checking and canonicalization of strongly deterministic
automata; the oracle layer for everything else.

Bounded equivalence is a semi-decision: "equal" means no counterexample
among the enumerated trees.  It is decided by a bottom-up fixed point over
pairs of state sets, a product of the two automata's horizontal runs that
covers every tree of arity within the width bound; trees are enumerated
only when that product finds a pair the automata disagree on, to report the
first counterexample in enumeration order.

Canonical equivalence reduces both automata to a canonical form and tests
exact isomorphism; the canonicalizer is a fixed point of vertical-state
merging and per-symbol Moore minimization, validated empirically against
bounded enumeration rather than trusted as minimal.

Isomorphism is decided in polynomial time by a canonical labelling of the
vertical states, which needs them all reachable (pruned SDTAs are).
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import (DETERMINISTIC_KINDS, SDTA, TreeAutomaton, _evaluate, bottom_up_reach,
                       prune_reachable, sdta_reach)
from .errors import AlphabetMismatchError, KindError
from .strings import MooreDFA, canonical_form, minimize_moore, subset_name
from .trees import DEFAULT_BOUNDS, EnumerationBounds, Tree, iter_trees


@dataclass(frozen=True)
class EquivalenceVerdict:
    equal: bool
    counterexample: Tree | None
    method: str


def equiv_bounded(a: TreeAutomaton, b: TreeAutomaton,
                  bounds: EnumerationBounds = DEFAULT_BOUNDS) -> EquivalenceVerdict:
    """Compare acceptance over every enumerated tree within bounds.

    "Equal" is decided first by ``_agree_within_width``, which enumerates
    nothing.  Only when it cannot vouch for the pair are the trees
    enumerated, by ``iter_trees`` order, and evaluated until the first one
    the automata disagree on; the verdict, the counterexample and any
    ``KindError`` are then exactly those of the enumeration.  The enumerated
    trees share their proper subtrees, so each automaton keeps one
    evaluation memo for the whole enumeration."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(a.alphabet)} vs {sorted(b.alphabet)}")
    if _agree_within_width(a, b, bounds.max_width):
        return EquivalenceVerdict(True, None, "bounded-enumeration")
    memo_a, memo_b = {}, {}
    for t in iter_trees(a.alphabet, bounds):
        if (bool(_evaluate(a, t, memo_a) & a.finals)
                != bool(_evaluate(b, t, memo_b) & b.finals)):
            return EquivalenceVerdict(False, t, "bounded-enumeration")
    return EquivalenceVerdict(True, None, "bounded-enumeration")


def _agree_within_width(a: TreeAutomaton, b: TreeAutomaton, width: int) -> bool:
    """True when a and b agree on every tree of arity <= width, at any
    depth, and no node of such a tree is assigned two states by a
    deterministic kind.

    The pairs (S_a, S_b) of state sets that one tree makes the two automata
    assign are the ``bottom_up_reach`` fixed point of the ``_pair_machine``
    of each symbol.  Every tree within enumeration bounds is among those
    trees, so when every reached pair agrees on acceptance and on
    determinism, the enumeration can find no difference and raise no
    ``KindError``.  The cost grows with the reached pairs, not with the
    number of trees, and the fixed point is left at the first pair that
    disagrees.
    """
    machines = [_pair_machine(a.horizontal_run(sym), b.horizontal_run(sym), width)
                for sym in sorted(a.alphabet)]
    single_a = a.kind in DETERMINISTIC_KINDS
    single_b = b.kind in DETERMINISTIC_KINDS
    for s_a, s_b in bottom_up_reach(machines, ()):
        if bool(s_a & a.finals) != bool(s_b & b.finals):
            return False
        if (single_a and len(s_a) > 1) or (single_b and len(s_b) > 1):
            return False
    return True


def _pair_machine(run_a, run_b, width) -> tuple:
    """The two horizontal runs of one symbol side by side, as a
    ``(start, step, output)`` machine for ``bottom_up_reach``.  Its state is
    (run of a, run of b, children read so far); it reads a child's pair of
    state sets, stops at ``width`` children or once both runs are dead, and
    outputs the pair of state sets the node is assigned.  Stopping at two
    dead runs may leave out (∅, ∅), which both automata reject and which,
    read as a child, leads to nothing but two dead runs."""
    start_a, step_a, finish_a = run_a
    start_b, step_b, finish_b = run_b

    def step(state, letter):
        now_a, now_b, k = state
        if k == width or (now_a is None and now_b is None):
            return None
        s_a, s_b = letter
        return (None if now_a is None else step_a(now_a, s_a),
                None if now_b is None else step_b(now_b, s_b), k + 1)

    def output(state):
        now_a, now_b, k = state
        return finish_a(now_a, k == 0), finish_b(now_b, k == 0)

    return (start_a, start_b, 0), step, output


def canonical_sdta(a: TreeAutomaton) -> TreeAutomaton:
    """Fixed-point reduction of an SDTA.

    Starting from the vertical partition {finals, non-finals}, alternately
    (a) minimize each per-symbol machine as a Moore machine whose outputs
    are the current vertical blocks, and (b) split blocks whose members act
    differently as input symbols of some minimized machine.  Splits are
    permanent, so the iteration terminates; the quotient by the final
    partition is language-equivalent, since block mates have equal finality
    and are interchangeable inside every horizontal machine.

    Designated leaf states are pinned: they never merge with counted states.
    """
    if a.kind != SDTA:
        raise KindError(f"expected an SDTA, got {a.kind}")
    a = prune_reachable(a)
    states = sorted(a.states)
    block = {q: (q in a.finals) for q in states}

    while True:
        reduced = _block_minimized(a, block)
        sig = {}
        for q in states:
            parts = [block[q]]
            for sym, mach in sorted(reduced.items()):
                for s in sorted(mach.states):
                    parts.append((sym, s, mach.delta.get((s, q))))
            sig[q] = tuple(parts)
        ids: dict = {}
        nblock = {q: ids.setdefault(sig[q], len(ids)) for q in states}
        if len(set(nblock.values())) == len(set(block.values())):
            break
        block = nblock

    return _quotient(a, block, reduced)


def _block_minimized(a: TreeAutomaton, block) -> dict:
    """Each per-symbol machine minimized with outputs coarsened to blocks."""
    return {sym: minimize_moore(mach.map_outputs(block.__getitem__))
            for sym, mach in sorted(a.moore.items())}


def _quotient(a: TreeAutomaton, block, reduced) -> TreeAutomaton:
    members: dict = {}
    for q in sorted(a.states):
        members.setdefault(block[q], []).append(q)
    name = {}
    for b, qs in members.items():
        name[b] = qs[0] if len(qs) == 1 else subset_name(qs)
    new_states = frozenset(name.values())
    ha = new_states | a.leaf_symbols

    def sym_name(c):
        return name[block[c]] if c in block else c

    moore = {}
    for sym, mach in sorted(reduced.items()):
        trans = {}
        for (s, c), d in mach.delta.items():
            key = (s, sym_name(c))
            if key in trans and trans[key] != d:
                raise AssertionError("block mates disagreed inside a machine")
            trans[key] = d
        moore[sym] = MooreDFA(mach.states, ha, mach.initial, mach.finals,
                              [(s, c, d) for (s, c), d in sorted(trans.items())],
                              {s: name[b] for s, b in mach.outputs.items()})
    finals = {name[b] for b, qs in members.items() if qs[0] in a.finals}
    finals |= a.finals & a.leaf_symbols
    return TreeAutomaton(SDTA, a.alphabet, new_states, finals,
                         moore=moore, leaf_symbols=a.leaf_symbols)


def sdta_isomorphic(a: TreeAutomaton, b: TreeAutomaton) -> bool:
    """Exact isomorphism: a bijection on vertical states plus, per symbol, a
    bijection on horizontal states preserving transitions, finals and
    outputs.

    Vertical states are renamed to their ``_canonical_labels``.  An
    isomorphism maps one labelling exploration onto the other step for step,
    so the automata are isomorphic iff the renamed finals agree and each
    renamed per-symbol machine has the same canonical BFS form.  No
    permutation is tried: the cost is rounds x symbols x horizontal states x
    horizontal letters, with at most |states| + 1 rounds.  Raises KindError
    if either input has a vertical state no tree reaches.
    """
    if a.kind != SDTA or b.kind != SDTA:
        raise KindError("isomorphism is defined for SDTAs")
    label_a, label_b = _canonical_labels(a), _canonical_labels(b)
    if (a.alphabet != b.alphabet or a.leaf_symbols != b.leaf_symbols
            or len(label_a) != len(label_b) or set(a.moore) != set(b.moore)):
        return False
    if {label_a[q] for q in a.finals} != {label_b[q] for q in b.finals}:
        return False
    return all(canonical_form(_rename(m, label_a))
               == canonical_form(_rename(b.moore[sym], label_b))
               for sym, m in a.moore.items())


def _canonical_labels(a: TreeAutomaton) -> dict:
    """Horizontal letter -> canonical label: leaf symbol ``c`` -> (0, c),
    vertical state -> (1, n) numbered in the order ``sdta_reach`` first
    finds them.

    The fixed point explores every symbol's machine, symbols in sorted
    order, reading the leaf symbols by name and then the states found so far
    in the order found; it depends on the structure only, never on state
    names.  Raises KindError naming a vertical state it never finds.
    """
    found = list(sdta_reach(a))
    leaves = len(a.leaf_symbols)
    label = {c: (0, c) for c in found[:leaves]}
    label.update((q, (1, n)) for n, q in enumerate(found[leaves:]))
    unreached = sorted(a.states.difference(label))
    if unreached:
        raise KindError(f"vertical state {unreached[0]!r} is never reached; "
                        f"prune the SDTA before testing isomorphism")
    return label


def _rename(mach: MooreDFA, label) -> MooreDFA:
    """``mach`` with every letter and output ``c`` renamed to ``label[c]``."""
    trans = [(s, label[c], d) for s, c, d in mach.transitions()]
    outputs = {s: label[v] for s, v in mach.outputs.items()}
    return MooreDFA(mach.states, map(label.__getitem__, mach.alphabet), mach.initial,
                    mach.finals, trans, outputs)


def equiv_canonical(a: TreeAutomaton, b: TreeAutomaton,
                    bounds: EnumerationBounds = DEFAULT_BOUNDS) -> EquivalenceVerdict:
    """Equality of canonical forms up to isomorphism; on mismatch, bounded
    enumeration supplies a counterexample when one exists within bounds."""
    ca = canonical_sdta(a)
    cb = canonical_sdta(b)
    if sdta_isomorphic(ca, cb):
        return EquivalenceVerdict(True, None, "canonical-sdta")
    fallback = equiv_bounded(a, b, bounds)
    return EquivalenceVerdict(False, fallback.counterexample, "canonical-sdta")
