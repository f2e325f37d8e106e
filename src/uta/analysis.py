"""Equivalence checking and canonicalization of strongly deterministic
automata; the oracle layer for everything else.

Bounded equivalence is a semi-decision: "equal" means no counterexample
among the enumerated trees.  It is decided by a bottom-up fixed point over
pairs of state sets, a product of the two automata's horizontal runs that
covers every tree of arity within the width bound; trees are enumerated
only when that product finds a pair the automata disagree on, to report the
first counterexample in enumeration order.

Canonical equivalence compares two canonical forms with ``==``.  The
canonicalizer trims a pruned SDTA to the states in some accepted tree, then
quotients it by the coarsest stable partition of its vertical and
horizontal states, refined over the transitions that exist: the unique
minimal SDTA, named by structure alone, so language-equal inputs give
equal automata and byte-identical documents.

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

    After ``prune_reachable`` every state is reachable, so a backward pass
    from the final vertical states over outputs and transitions finds the
    useful elements (vertical states and compiled positions in some
    accepted tree).  One ``coarsest_partition`` refines sparse rows: a
    horizontal state's output, then its successors by letter; a vertical
    state's successors on the transitions reading it, by source.  Rows
    hold only entries into useful elements, and keys their labels, so no
    entry stands for a sink; the useless elements form one dead block per
    kind, which the quotient drops.  It is the unique minimal trimmed SDTA
    (Martens & Niehren, JCSS 2007), named by ``_normal``, so language-equal
    inputs give equal results.  Leaf states are letters, so never merged.
    """
    if a.kind != SDTA:
        raise KindError(f"expected an SDTA, got {a.kind}")
    a = prune_reachable(a)
    vertical = sorted(a.states)
    vindex = {q: v for v, q in enumerate(vertical)}
    machines, back = [], [[] for _ in vertical]  # per element, the elements it makes useful
    for sym, m in sorted(a.moore.items()):
        form, base = m.compiled(), len(back)
        machines.append((sym, m, form, base))
        back += [[] for _ in form.states]
        for s, q in m.outputs.items():
            back[vindex[q]].append(base + form.index[s])
        for c, column in form.columns.items():
            for i, j in column:  # a leaf letter is no element: the source stands in
                back[base + j] += (base + i, vindex.get(c, base + i))
    useful, todo = [False] * len(back), [vindex[q] for q in a.finals & a.states]
    while todo:
        x = todo.pop()
        if not useful[x]:
            useful[x] = True
            todo += back[x]
    keys, rows = [[q in a.finals] for q in vertical], [[] for _ in vertical]
    for sym, m, form, base in machines:
        for i, (s, out) in enumerate(zip(form.states, form.out), base):
            q = vindex.get(m.outputs.get(s))
            label, row = ([sym, None], [q]) if q is not None and useful[q] else ([sym], [])
            for c, (j,) in out.items():
                if useful[base + j]:
                    label.append(c)
                    row.append(base + j)
                    if (v := vindex.get(c)) is not None:
                        keys[v].append(i)
                        rows[v].append(base + j)
            keys.append(tuple(label))
            rows.append(row)
    keys[:len(vertical)] = map(tuple, keys[:len(vertical)])
    block = coarsest_partition(keys, rows)

    first: dict = {}
    rep = [first.setdefault(b, x) for x, b in enumerate(block)]  # x -> its block's first
    name = [*vertical, *(s for _, _, form, _ in machines for s in form.states)]
    states = {name[rep[v]] for v in range(len(vertical)) if useful[v]}
    ha, moore = states | a.leaf_symbols, {}
    for sym, m, form, base in machines:
        initial = rep[base + form.index[m.initial]]
        if not useful[initial]:
            continue
        live = {rep[i] for i in range(base, base + len(form.states)) if useful[i]}
        trans = [(name[i], c, name[rep[j]]) for i in live
                 for c, j in zip(keys[i][1:], rows[i]) if c in ha]
        outputs = {name[i]: name[rep[rows[i][0]]] for i in live if keys[i][1] is None}
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
