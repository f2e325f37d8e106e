"""Equivalence checking and canonicalization of strongly deterministic
automata; the oracle layer for everything else.

Bounded equivalence is a semi-decision: "equal" means no counterexample
among the enumerated trees.  It is decided by a bottom-up fixed point over
pairs of state sets, a product of the two automata's horizontal runs that
covers every tree of arity within the width bound; trees are enumerated
only when that product finds a pair the automata disagree on, to report the
first counterexample in enumeration order.

Canonical equivalence compares two canonical forms with ``==``.  The
canonicalizer quotients a pruned SDTA by one coarsest stable partition of
its vertical and horizontal states and a vertical sink, which trims the
states in no accepted tree and gives the unique minimal SDTA, and names the
states by structure alone, so its output is a normal form: language-equal
inputs give equal automata and byte-identical documents.

Isomorphism is decided in polynomial time by comparing the same structural
renaming of both automata, which needs every vertical state reachable
(pruned SDTAs have that).
"""

from __future__ import annotations

from .automata import (DETERMINISTIC_KINDS, SDTA, TreeAutomaton, _evaluate, bottom_up_reach,
                       prune_reachable, reach)
from .errors import AlphabetMismatchError, KindError
from .strings import MooreDFA, coarsest_partition
from .trees import DEFAULT_BOUNDS, EnumerationBounds, Tree, _Record, iter_trees


class EquivalenceVerdict(_Record):
    __slots__ = ("equal", "counterexample", "method")

    def __init__(self, equal: bool, counterexample: Tree | None, method: str):
        self._init(equal, counterexample, method)


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
    ``(starts, read, outputs)`` machine for ``bottom_up_reach``.  Its state is
    (run of a, run of b, children read so far); it reads a child's pair of
    state sets, stops at ``width`` children or once both runs are dead, and
    outputs the pair of state sets the node is assigned.  Stopping at two
    dead runs may leave out (∅, ∅), which both automata reject and which,
    read as a child, leads to nothing but two dead runs."""
    start_a, step_a, finish_a = run_a
    start_b, step_b, finish_b = run_b

    def read(letters):
        def successors(state):
            now_a, now_b, k = state
            if k < width and (now_a is not None or now_b is not None):
                for c in letters:
                    yield c, (None if now_a is None else step_a(now_a, c[0]),
                              None if now_b is None else step_b(now_b, c[1]), k + 1)
        return successors

    def outputs(states):
        return [(finish_a(now_a, k == 0), finish_b(now_b, k == 0)) for now_a, now_b, k in states]

    return [(start_a, start_b, 0)], read, outputs


def canonical_sdta(a: TreeAutomaton) -> TreeAutomaton:
    """The minimal SDTA for the language of ``a``, in normal form.

    After ``prune_reachable``, one ``coarsest_partition`` runs over integer
    elements: the vertical states, a vertical sink, and per machine its
    compiled positions and a dead sink.  A vertical state is keyed by its
    finality (the sink as non-final); its row holds the state each
    horizontal state moves to on reading it.  A horizontal state is keyed by
    its symbol; its row holds its output (the sink when not final) and its
    transitions.  Rows start at the sinks, and each compiled transition
    fills two entries.  The worklist reads a row again only after a successor
    changed block, which each element does at most log2 n times.  Block
    mates are interchangeable in every run, and the useless states (in no
    accepted tree) join the sink's block, since every pruned horizontal
    state is reachable.  The quotient drops that block, the finals that
    output it and the machines whose initial state joins their own sink.
    It is the unique minimal trimmed SDTA of the language (Martens &
    Niehren, JCSS 2007), and ``_normal`` names its states, so language-equal
    inputs give equal results.  Designated leaf states are letters, not
    elements, so they never merge.
    """
    if a.kind != SDTA:
        raise KindError(f"expected an SDTA, got {a.kind}")
    a = prune_reachable(a)
    vertical = sorted(a.states)
    vindex = {q: v for v, q in enumerate(vertical)}
    keys = [q in a.finals for q in vertical] + [False]  # then the vertical sink
    first_h = len(keys)  # the first horizontal element
    letters = {c: x for x, c in enumerate(sorted(a.leaf_symbols) + vertical, 1)}
    machines, sinks = [], []
    for sym, m in sorted(a.moore.items()):
        form = m.compiled()
        base, n = first_h + len(sinks), len(form.states)  # its states, then its dead sink
        machines.append((sym, m, form, base))
        keys += [sym] * (n + 1)
        sinks += [base + n] * (n + 1)
    # a vertical row: where each horizontal state goes on reading it; a
    # horizontal row: the output, then where each letter leads
    rows = [sinks.copy() for _ in range(first_h)]
    rows += [[first_h - 1] + [sink] * len(letters) for sink in sinks]
    for sym, m, form, base in machines:
        for s, q in m.outputs.items():
            rows[base + form.index[s]][0] = vindex[q]
        for c, column in form.columns.items():
            x, v = letters[c], vindex.get(c)
            for i, j in column:
                rows[base + i][x] = base + j
                if v is not None:
                    rows[v][base + i - first_h] = base + j
    block = coarsest_partition(keys, rows)

    first: dict = {}
    rep = [first.setdefault(b, x) for x, b in enumerate(block)]  # x -> its block's first
    name = [*vertical, None, *(s for _, _, form, _ in machines for s in [*form.states, None])]
    states = {name[rep[v]] for v in range(len(vertical))} - {name[rep[len(vertical)]]}
    ha = states | a.leaf_symbols
    moore = {}
    for sym, m, form, base in machines:
        sink = base + len(form.states)
        live = {rep[i] for i in range(base, sink)} - {rep[sink]}
        initial = rep[base + form.index[m.initial]]
        if initial not in live:
            continue
        trans = [(name[base + i], c, name[rep[base + j]]) for c in ha
                 for i, j in form.columns.get(c, ()) if base + i in live and rep[base + j] in live]
        outputs = {name[i]: q for i in live if (q := name[rep[rows[i][0]]]) in states}
        moore[sym] = MooreDFA([name[i] for i in live], ha, name[initial], set(outputs), trans,
                              outputs)
    return _normal(TreeAutomaton(SDTA, a.alphabet, states,
                                 {name[rep[vindex[q]]] if q in vindex else q for q in a.finals},
                                 moore=moore, leaf_symbols=a.leaf_symbols))


def sdta_isomorphic(a: TreeAutomaton, b: TreeAutomaton) -> bool:
    """Exact isomorphism: a bijection on vertical states plus, per symbol, a
    bijection on horizontal states preserving transitions, finals and
    outputs.

    An isomorphism maps one ``_normal`` exploration onto the other
    step for step, and so each automaton's ``_normal`` renaming onto the
    other's: the automata are isomorphic iff the renamed automata are equal.
    No permutation is tried.  Raises KindError if either input has a
    vertical state no tree reaches.
    """
    if a.kind != SDTA or b.kind != SDTA:
        raise KindError("isomorphism is defined for SDTAs")
    return _normal(a) == _normal(b)


def _normal(a: TreeAutomaton) -> TreeAutomaton:
    """``a`` renamed by its structure alone, never by its state names.

    ``reach`` finds the letters in structural order: it explores every
    symbol's machine, symbols in sorted order, reading the leaf symbols by
    name and then the states found so far in the order found.  Each leaf
    symbol keeps its name, and the vertical states are named ``v.0``,
    ``v.1``, ... in that order (no tree symbol contains a dot).  Each
    machine's states are named ``h0, h1, ...`` in the order of the search's
    last round, which read every letter; states it does not reach keep only
    their number and follow as bare states, with no transitions and no
    output.  Raises KindError naming a vertical state the search never
    finds."""
    walks = {}
    found = list(reach(a, walks))
    leaves = len(a.leaf_symbols)
    label = {c: c for c in found[:leaves]}
    label.update((q, f"v.{n}") for n, q in enumerate(found[leaves:]))
    unreached = sorted(a.states.difference(label))
    if unreached:
        raise KindError(f"vertical state {unreached[0]!r} is never reached; "
                        f"prune the SDTA before testing isomorphism")
    moore = {}
    for sym, m in sorted(a.moore.items()):
        order, edges = walks[sym,]
        order = [*map(m.compiled().states.__getitem__, order)]
        names = [f"h{i}" for i in range(len(m.states))]
        finals = [i for i, s in enumerate(order) if s in m.finals]
        moore[sym] = MooreDFA(names, label.values(), names[0], [names[i] for i in finals],
                              [(names[i], label[c], names[j]) for i, c, j in edges],
                              {names[i]: label[m.outputs[order[i]]] for i in finals})
    return TreeAutomaton(SDTA, a.alphabet, [label[q] for q in a.states],
                         [label[q] for q in a.finals], moore=moore,
                         leaf_symbols=a.leaf_symbols)


def equiv_canonical(a: TreeAutomaton, b: TreeAutomaton,
                    bounds: EnumerationBounds = DEFAULT_BOUNDS) -> EquivalenceVerdict:
    """Equality of canonical forms; on mismatch, bounded enumeration supplies
    a counterexample when one exists within bounds."""
    if canonical_sdta(a) == canonical_sdta(b):
        return EquivalenceVerdict(True, None, "canonical-sdta")
    fallback = equiv_bounded(a, b, bounds)
    return EquivalenceVerdict(False, fallback.counterexample, "canonical-sdta")
