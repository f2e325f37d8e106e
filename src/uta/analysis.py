"""Equivalence checking and canonicalization of strongly deterministic
automata; the oracle layer for everything else.

Both equivalence checks run one product: a bottom-up fixed point over
pairs of state sets, the two automata's horizontal runs side by side,
stepped only on the pairs one side's run has a transition on.  Bounded
equivalence is a semi-decision: "equal" means no counterexample among the
enumerated trees.  Its product covers every tree of arity within the width
bound; trees are enumerated only when that product finds a pair the
automata disagree on, to report the first counterexample in enumeration
order.  Canonical equivalence of two SDTAs runs the product with no width:
it reaches every pair some tree is assigned, so it decides whether the
canonical forms are equal without building either.

The canonicalizer finds the states in some accepted tree by one forward and
one backward pass, quotients by the coarsest stable partition of its
vertical and horizontal states, refined over the transitions that exist,
and names the blocks in one walk: the unique minimal SDTA, named by
structure alone, so language-equal inputs give equal automata and
byte-identical documents.

Isomorphism is decided in polynomial time by comparing the same structural
renaming of both automata, which needs every vertical state reachable
(pruned SDTAs have that).
"""

from __future__ import annotations

from functools import partial

from .automata import (DETERMINISTIC_KINDS, SDTA, TreeAutomaton, _evaluate, _label,
                       bottom_up_reach, forward)
from .errors import AlphabetMismatchError, KindError
from .strings import MooreDFA, SubsetMachine, coarsest_partition, reading
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
    if _agree(a, b, bounds.max_width):
        return EquivalenceVerdict(True, None, "bounded-enumeration")
    memo_a, memo_b = {}, {}
    for t in iter_trees(a.alphabet, bounds):
        if (bool(_evaluate(a, t, memo_a) & a.finals)
                != bool(_evaluate(b, t, memo_b) & b.finals)):
            return EquivalenceVerdict(False, t, "bounded-enumeration")
    return EquivalenceVerdict(True, None, "bounded-enumeration")


def _agree(a: TreeAutomaton, b: TreeAutomaton, width: int | None = None) -> bool:
    """True when a and b agree on every tree, of arity <= ``width`` if one
    is given, at any depth, and no node of such a tree is assigned two
    states by a deterministic kind.

    The pairs (S_a, S_b) of state sets that one tree makes the two automata
    assign are the ``bottom_up_reach`` fixed point of the ``_pair_machine``
    of each symbol.  When every reached pair agrees on acceptance and on
    determinism, no tree within the width (so no enumerated tree) tells
    them apart or raises ``KindError``; with no width this is the
    product-emptiness test of bottom-up automata (Comon et al., TATA,
    ch. 1).  The cost grows with the reached pairs, not with the number of
    trees, and the fixed point is left at the first pair that disagrees.
    """
    machines = [_pair_machine(a._run(sym), b._run(sym), width) for sym in sorted(a.alphabet)]
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
    ``(starts, read, outputs)`` machine for ``bottom_up_reach``: its state is
    (run of a, run of b, children read, counted up to ``width`` or, with no
    width, up to 1 for ``finish``'s designated-leaf rule).  It reads a pair of
    state sets, in item order, only if one run has a letter in it, and it
    outputs the pair the node is assigned, but (∅, ∅): both reject it."""
    start_a, step_a, finish_a, _, _, _, letters_a = run_a
    start_b, step_b, finish_b, _, _, _, letters_b = run_b
    most = 1 if width is None else width

    def read(items):
        hit = {}  # (letters of a's run, of b's) -> the items that hold one

        def successors(state):
            now_a, now_b, k = state
            if k == width:
                return ()
            if (got := hit.get(held := (letters_a(now_a), letters_b(now_b)))) is None:
                got = hit[held] = [c for c in items if not (held[0].isdisjoint(c[0])
                                                            and held[1].isdisjoint(c[1]))]
            k = min(k + 1, most)
            return [(c, (now_a and step_a(now_a, c[0]), now_b and step_b(now_b, c[1]), k))
                    for c in got]
        return successors

    def outputs(states):
        return [pair for now_a, now_b, k in states
                if any(pair := (finish_a(now_a, k == 0), finish_b(now_b, k == 0)))]

    return [(start_a, start_b, 0)], read, outputs


def canonical_sdta(a: TreeAutomaton) -> TreeAutomaton:
    """The minimal SDTA for the language of ``a``, in normal form.

    Each step runs once, over integer elements: the positions of one
    ``strings.SubsetMachine`` (a group per Moore machine), then the vertical
    states.  ``forward`` finds the reached positions and assignable letters;
    a backward pass from the assignable finals over live edges (from a
    reached position, on an assignable letter) finds the useful elements,
    those in some accepted tree.  One ``coarsest_partition`` refines sparse
    rows: a useful position's output and successors by letter; a useful
    vertical state's successors on the transitions reading it, by source.
    Rows hold entries into useful elements on useful letters only, keys
    their labels; useless elements, with empty rows and keyed non-final,
    form one dead block per kind, which the quotient drops.  ``_named``
    names its blocks: the unique minimal trimmed SDTA (Martens & Niehren,
    JCSS 2007), so language-equal inputs give equal results."""
    if a.kind != SDTA:
        raise KindError(f"expected an SDTA, got {a.kind}")
    blocks = a._blocks
    sub = SubsetMachine([m for _, m in blocks], partial(_label, blocks),
                        [[k] for k in range(len(blocks))])
    reached, letters = forward(sub, a.leaf_symbols)
    out, marks, n = sub.out, sub.marks, len(sub.names)
    vindex = {q: v for v, q in enumerate(sorted(a.states), n)}  # a vertical state's element
    back = [[] for _ in range(n + len(vindex))]  # per element, the elements it makes useful
    for p in reached:
        for q in marks[p]:
            back[vindex[q]].append(p)
        for c, (j,) in out[p].items():
            if c in letters:  # a leaf letter is no element: the source stands in
                back[j] += (p, vindex.get(c, p))
    useful, todo = [False] * len(back), [vindex[q] for q in a.finals & letters if q in vindex]
    while todo:
        x = todo.pop()
        if not useful[x]:
            useful[x] = True
            todo += back[x]
    keys = [[sym] for (sym,), m in blocks for _ in m.states]
    keys += [[useful[x] and q in a.finals] for q, x in vindex.items()]
    rows = [[] for _ in keys]
    for p in filter(useful.__getitem__, range(n)):
        if marks[p] and useful[q := vindex[marks[p][0]]]:
            keys[p].append(None)
            rows[p].append(q)
        for c, (j,) in out[p].items():
            if useful[j] and useful[x := vindex.get(c, p)]:
                keys[p].append(c)
                rows[p].append(j)
                if x != p:
                    keys[x].append(p)
                    rows[x].append(j)
    block = coarsest_partition([*map(tuple, keys)], rows)

    first: dict = {}
    rep = [first.setdefault(b, x) for x, b in enumerate(block)]  # x -> its block's first
    name = {x: q for q, x in vindex.items()}  # a vertical element's state
    states = [q for q, x in vindex.items() if useful[x] and rep[x] == x]
    ha, machines = a.leaf_symbols.union(states), []
    for ((sym,), _), (base, form) in zip(blocks, sub.forms.values()):
        if useful[start := rep[base + form.initials[0]]]:
            live = {rep[p] for p in range(base, base + len(form.states)) if useful[p]}
            columns, outputs = {}, {}
            for i in live:
                for c, j in zip(keys[i][1:], rows[i]):
                    if c is None:
                        outputs[i] = name[rep[j]]
                    elif c in ha:
                        columns.setdefault(c, []).append((i, rep[j]))
            machines.append((sym, len(live), start, columns, outputs))
    return _named(a, machines, states, [q if x is None else name[rep[x]] for q in a.finals
                                        if (x := vindex.get(q)) is None or useful[x]])


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
    """``a`` renamed by structure alone: ``_named`` over its compiled forms."""
    return _named(a, [(sym, len(form.states), form.initials[0], form.columns,
                       {form.index[s]: q for s, q in m.outputs.items()})
                      for (sym,), m in a._blocks for form in [m.compiled()]], a.states, a.finals)


def _named(a: TreeAutomaton, machines, states, finals) -> TreeAutomaton:
    """The SDTA with the alphabet and leaf states of ``a``, vertical
    ``states`` and ``finals``, and per symbol in sorted order the machine
    ``(sym, size, start, columns, outputs)`` over positions, with columns
    ``{letter: [(position, successor)]}`` and outputs ``{position: state}``,
    named by structure alone.  ``bottom_up_reach`` walks each machine,
    reading the sorted leaf states, then the states found so far in the
    order found, through rows built per walk (``strings.reading``).  The
    vertical states are ``v.0``, ``v.1``, ... in the order found (no tree
    symbol contains a dot), a machine's states ``h0, h1, ...`` in the order
    of its last walk, which read every letter, and those of its ``size`` not
    reached follow, bare.  A vertical state never found raises KindError."""
    leaves, walks = sorted(a.leaf_symbols), {}
    found = list(bottom_up_reach([([start], partial(reading, columns),
                                   lambda order, out=outputs: [out[i] for i in order if i in out])
                                  for _, _, start, columns, outputs in machines], leaves, walks))
    label = dict(zip(leaves, leaves)) | {q: f"v.{n}" for n, q in enumerate(found[len(leaves):])}
    if unreached := sorted(set(states).difference(label)):
        raise KindError(f"vertical state {unreached[0]!r} is never reached; "
                        f"prune the SDTA before testing isomorphism")
    moore = {}
    for (sym, size, _, _, outputs), (order, edges) in zip(machines, walks.values()):
        names = [f"h{i}" for i in range(size)]
        ends = [i for i, p in enumerate(order) if p in outputs]
        moore[sym] = MooreDFA(names, label.values(), names[0], [names[i] for i in ends],
                              [(names[i], label[c], names[j]) for i, c, j in edges],
                              {names[i]: label[outputs[order[i]]] for i in ends})
    return TreeAutomaton(SDTA, a.alphabet, [label[q] for q in states],
                         [label[q] for q in finals], moore=moore, leaf_symbols=a.leaf_symbols)


def equiv_canonical(a: TreeAutomaton, b: TreeAutomaton,
                    bounds: EnumerationBounds = DEFAULT_BOUNDS) -> EquivalenceVerdict:
    """Equality of canonical forms, decided by one pair product (``_agree``
    with no width), not by canonicalizing: over one alphabet and one set of
    leaf states, equal languages have equal canonical forms (Martens &
    Niehren, JCSS 2007), and other leaf states give other forms.  On "not
    equal", bounded enumeration supplies a counterexample when one exists
    within bounds."""
    for x in (a, b):
        if x.kind != SDTA:
            raise KindError(f"expected an SDTA, got {x.kind}")
    if a.alphabet == b.alphabet and a.leaf_symbols == b.leaf_symbols and _agree(a, b):
        return EquivalenceVerdict(True, None, "canonical-sdta")
    fallback = equiv_bounded(a, b, bounds)
    return EquivalenceVerdict(False, fallback.counterexample, "canonical-sdta")
