"""Test-only oracles: the dict-stepping code that compiled walks replaced.

Each function is the library code as it was before machines were compiled
into integer rows, or before tree runs stepped a compiled subset machine: it
steps one ``(state, letter)`` lookup at a time, reading the transition dicts
itself, and tries every letter in every state.  The differential tests check
that the library gives exactly the same results.  ``recursive_run`` is tree
evaluation as it was before one pass read each child's set through a step
table: recursive, in postorder, each node's children stepped one at a time
through a ``(start, step, finish)`` run, such as ``union_run`` or ``moore_run``.
``stepwise`` reads every letter in every state, where a horizontal run's
``read`` skips the items it has no transition on.

The next three are the library code as it was before it stopped redoing
work: a second walk of each subset machine in the general conversion, every
document block rendered on its own, and the separator-key check.  The last
is ``TreeAutomaton``'s validation as it was before every machine became one
keyed block: one branch for an SDTA's Moore machines, one for the other
kinds' acceptors.  ``canonical_sdta_dense`` is the canonicalizer as it was
before it trimmed useless states first: every row dense, a missing
transition read as a sink element.  It prunes by ``prune_by_step_any`` and
names by ``normal_by_reach``, the structural renaming as it was when a
round-based ``reach_by_rounds`` found the letters, so it shares no code
with the canonicalizer's forward pass and namer.  ``walk_by_column`` is
``SubsetMachine.walk`` as it was before a DFA walk stepped a tuple only on
the letters its positions read: every letter of the alphabet through a dense
column, the dead tuple dropped after it was built.
"""

from __future__ import annotations

from uta import (DFA, KINDS, NFA, SDTA, KindError, MooreDFA, TreeAutomaton, UnknownSymbolError,
                 UtaError)
from functools import partial

from uta.automata import DETERMINISTIC_KINDS, DFA_KINDS, _label, bottom_up_reach
from uta.convert import _assignable_subsets, _symbols_with_machines
from uta.docs import (ALPHABET, FINALS, HORIZONTAL, INITIAL, KIND, LEAFSTATES, MACHINES, OUTPUTS,
                      STATES, TRANS, _check_token, _check_tree_alphabet)
from uta.errors import DocumentError
from uta.strings import (SubsetMachine, coarsest_partition, explore, shared_structures,
                         subset_name, unique_names)


def walk_by_column(sub):
    """``explore`` of ``sub`` from its start by every letter in sorted order,
    dead left out: a DFA walk steps a tuple of one position per structure
    through each letter's dense column, as ``SubsetMachine.column`` built
    it; an NFA walk steps a frozenset by ``step``."""
    letters = sorted(set().union(*(m.alphabet for m in sub.machines)))
    if any(m._many for m in sub.machines):
        return explore([sub.start], lambda s: [(c, sub.step(s, (c,)) or None) for c in letters])
    dead = (len(sub.names),) * len(sub.forms)
    columns = []
    for c in letters:  # the successor on c of each position, and of the dead one
        column = [len(sub.names)] * (len(sub.names) + 1)
        for base, form in sub.forms.values():
            for i, j in form.columns.get(c, ()):
                column[base + i] = base + j
        columns.append((c, column.__getitem__))
    return explore([tuple(sorted(sub.start))], lambda cur: [
        (c, nxt) for c, at in columns if (nxt := tuple(map(at, cur))) != dead])


def explore_by_step(start, step, letters):
    """Breadth-first search from ``start`` reading ``letters`` in order;
    ``step(state, letter)`` is the successor or None.  Returns the states in
    discovery order and the (i, letter, j) edges."""
    index = {start: 0}
    order = [start]
    edges = []
    for i, s in enumerate(order):
        for c in letters:
            t = step(s, c)
            if t is None:
                continue
            j = index.get(t)
            if j is None:
                j = index[t] = len(order)
                order.append(t)
            edges.append((i, c, j))
    return order, edges


def stepwise(step):
    """``read(letters)``, the ``explore`` successors reading every letter of
    ``letters`` in order, of a machine whose ``step(state, letter)`` is a
    state or None: the dense reader the conversions used before each
    horizontal run read only the items it has a transition on."""
    def read(letters):
        def successors(s):
            for c in letters:
                yield c, step(s, c)
        return successors
    return read


def successor(m):
    """A DFA's ``step(state, letter)`` over its transition dict."""
    return lambda s, c: m.delta.get((s, c))


def sdta_reach_by_step(a: TreeAutomaton) -> list:
    """The bottom-up fixed point over an SDTA's Moore machines, symbols in
    sorted order, from the sorted leaf states: the items in the order found."""
    items = sorted(a.leaf_symbols)
    found = set(items)
    grew = True
    while grew:
        grew = False
        for _, m in sorted(a.moore.items()):
            order, _ = explore_by_step(m.initial, successor(m), items)
            for s in order:
                out = m.outputs.get(s)
                if out is not None and out not in found:
                    found.add(out)
                    items.append(out)
                    grew = True
    return items


def delta_step(m, subset, letters) -> frozenset:
    """The states some member of ``subset`` reaches on some letter of
    ``letters``, one ``m.delta`` lookup at a time: an NFA maps a (state,
    letter) key to a set of states, a DFA to one state."""
    out = set()
    for s in subset:
        for c in letters:
            t = m.delta.get((s, c))
            if t is not None:
                out |= t if isinstance(m, NFA) else {t}
    return frozenset(out)


def union_run(a: TreeAutomaton, sym):
    """The ``(start, step, finish)`` horizontal run of ``sym`` for a
    non-SDTA kind as one NFA: the disjoint union of the acceptors, states
    tagged (i, h) by acceptor index, whose run is its current subset (None
    once empty).  Nothing is memoized."""
    leaf = frozenset([sym]) if sym in a.leaf_symbols else None
    pairs = a.machines_for(sym)
    union = None
    if pairs:
        tagged = list(enumerate(m for _, m in pairs))
        union = NFA([(i, h) for i, m in tagged for h in m.states], a.horizontal_alphabet,
                    [(i, h) for i, m in tagged for h in m.initials],
                    [(i, h) for i, m in tagged for h in m.finals],
                    [((i, h), c, (i, d)) for i, m in tagged for h, c, d in m.transitions()])

    def step(run, s):
        return delta_step(union, run, s) or None

    def finish(run, empty):
        if empty and leaf:
            return leaf
        if run is None:
            return frozenset()
        return frozenset([pairs[i][0] for i, _ in run & union.finals])

    return (union.initials if union else None), step, finish


def recursive_run(a, t, runs=TreeAutomaton.horizontal_run, seen=None):
    """The recursive evaluation that ``run`` once was: a dict filled in
    postorder, each node's children stepped one at a time, after all of
    them are evaluated, through the ``(start, step, finish)`` triple that
    ``runs(a, sym)`` gives (the public ``horizontal_run`` unless an oracle
    is given).  Kept as the oracle of ``run`` and ``accepts``.  A given
    ``seen`` counter tallies what the internal nodes read."""
    assignment = {}

    def go(n, addr):
        child_sets = [go(c, addr + (i,)) for i, c in enumerate(n.children)]
        if n.label not in a.alphabet:
            raise UnknownSymbolError(n.label)
        start, step, finish = runs(a, n.label)
        run = start
        for s in child_sets:
            if run is None:
                break
            run = step(run, s)
        states = assignment[addr] = finish(run, not child_sets)
        if len(states) > 1 and a.kind in DETERMINISTIC_KINDS:
            raise KindError(f"deterministic kind {a.kind} assigned {sorted(states)} at {addr}")
        if seen is not None and child_sets:
            seen["dead" if run is None else "alive"] += 1
            seen["assigns" if states else "assigns nothing"] += 1
            seen["empty set"] += frozenset() in child_sets
            seen["multi-state set"] += any(len(s) > 1 for s in child_sets)
            seen["designated leaf"] += any(s & a.leaf_symbols for s in child_sets)
        return states

    go(t, ())
    return assignment


def moore_run(a, sym):
    """An SDTA's ``(start, step, finish)`` run read off its Moore machine's
    dicts, with nothing memoized: the oracle ``union_run`` is for the other
    kinds."""
    m = a.moore.get(sym)
    leaf = frozenset([sym]) if sym in a.leaf_symbols else None

    def step(run, s):
        return m.delta.get((run, *s)) if s else None

    def finish(run, empty):
        if empty and leaf:
            return leaf
        return frozenset([m.outputs[run]]) if m and run in m.outputs else frozenset()

    return (m.initial if m else None), step, finish


def _reachable_by_step_any(mach, allowed) -> set:
    seen = set(mach.initials)
    frontier = set(seen)
    while frontier:
        nxt = delta_step(mach, frontier, allowed) - seen
        seen |= nxt
        frontier = nxt
    return seen


def _restrict_by_step_any(mach, allowed):
    reach = _reachable_by_step_any(mach, allowed)
    if not reach & mach.finals:
        return None
    trans = [(s, c, d) for s, c, d in mach.transitions()
             if s in reach and d in reach and c in allowed]
    if isinstance(mach, MooreDFA):
        return MooreDFA(reach, allowed, mach.initial, mach.finals & reach, trans,
                        {s: v for s, v in mach.outputs.items() if s in reach})
    if isinstance(mach, DFA):
        return DFA(reach, allowed, mach.initial, mach.finals & reach, trans)
    return NFA(reach, allowed, mach.initials & reach, mach.finals & reach, trans)


def live_by_step_any(a: TreeAutomaton) -> set:
    """The leaf states and assignable states of ``a`` over frozenset steps:
    an SDTA's are what its fixed point reaches; another kind adds a state
    once one of its acceptors, each walked on its own, reaches a final
    reading live letters only, until nothing changes."""
    if a.kind == SDTA:
        return set(sdta_reach_by_step(a))
    live = set(a.leaf_symbols)
    changed = True
    while changed:
        changed = False
        for (q, _), mach in a.horizontal.items():
            if q not in live and _reachable_by_step_any(mach, live) & mach.finals:
                live.add(q)
                changed = True
    return live


def prune_by_step_any(a: TreeAutomaton) -> TreeAutomaton:
    """``prune_reachable`` over frozenset steps: the states of
    ``live_by_step_any`` are kept, and each kept machine is restricted to
    the live letters and to the states they reach."""
    live = live_by_step_any(a)
    keep = frozenset(live & a.states)
    allowed = keep | a.leaf_symbols
    machines = a.moore if a.kind == SDTA else a.horizontal
    cut = {}
    for key, mach in sorted(machines.items()):
        if a.kind != SDTA and key[0] not in keep:
            continue
        got = _restrict_by_step_any(mach, allowed)
        if got is not None:
            cut[key] = got
    kw = {"moore": cut} if a.kind == SDTA else {"horizontal": cut}
    return TreeAutomaton(a.kind, a.alphabet, keep, a.finals & allowed,
                         leaf_symbols=a.leaf_symbols, **kw)


def marked_union_by_product(parts) -> MooreDFA:
    """The marked union of disjoint DFAs as the product over state names,
    a dead component as None, explored over the sorted alphabet."""
    alphabet = parts[0].alphabet

    def step(cur, c):
        nxt = tuple(None if s is None else p.delta.get((s, c)) for p, s in zip(parts, cur))
        return None if all(s is None for s in nxt) else nxt

    order, edges = explore_by_step(tuple(p.initial for p in parts), step, sorted(alphabet))
    names = ["(" + "|".join("-" if s is None else s for s in tup) + ")" for tup in order]
    outputs = {}
    for n, tup in zip(names, order):
        accepting = [i for i, s in enumerate(tup) if s is not None and s in parts[i].finals]
        if accepting:
            outputs[n] = accepting[0] + 1
    return MooreDFA(names, alphabet, names[0], set(outputs),
                    [(names[i], c, names[j]) for i, c, j in edges], outputs)


def subset_moore_by_walk(a: TreeAutomaton, sym, items, name, alphabet) -> MooreDFA:
    """The horizontal run of ``sym`` walked again over ``items`` in order,
    as a Moore machine: states h0, h1, ... in the order found."""
    start, step, finish = a.horizontal_run(sym)
    order, edges = explore([start], stepwise(step)(items))
    hname = [f"h{i}" for i in range(len(order))]
    trans = [(hname[i], name(item), hname[j]) for i, item, j in edges]
    outs = {h: finish(run, False) for h, run in zip(hname, order)}
    outputs = {h: name(out) for h, out in outs.items() if out}
    return MooreDFA(hname, alphabet, hname[0], set(outputs), trans, outputs)


def nta_to_sdta_general_by_walk(a: TreeAutomaton) -> TreeAutomaton:
    """The general NTA -> SDTA conversion with each symbol's subset machine
    walked a second time, after the fixed point found the state sets."""
    real, leaves = _assignable_subsets(a)[0], sorted(a.leaf_symbols)
    items = [frozenset([s]) for s in leaves] + real
    name = dict(zip(items, unique_names(leaves + [*map(subset_name, real)]))).__getitem__
    new_states = {name(p) for p in real}
    ha = frozenset(new_states) | a.leaf_symbols
    moore = {sym: subset_moore_by_walk(a, sym, items, name, ha)
             for sym in _symbols_with_machines(a)}
    finals = {name(p) for p in real if p & a.finals}
    finals |= {s for s in a.leaf_symbols if s in a.finals}
    return TreeAutomaton(SDTA, a.alphabet, new_states, finals,
                         moore=moore, leaf_symbols=a.leaf_symbols)


def _machine_lines_by_block(mach, indent="") -> list:
    for s in mach.states:
        _check_token(s, "state name")
    lines = [(f"{indent}{STATES}: " + " ".join(sorted(mach.states))).rstrip()]
    lines.append(f"{indent}{INITIAL}: " + " ".join(sorted(mach.initials)))
    lines.append((f"{indent}{FINALS}: " + " ".join(sorted(mach.finals))).rstrip())
    if isinstance(mach, MooreDFA):
        for v in mach.outputs.values():
            _check_token(str(v), "output value")
        outs = " ".join(f"{s}={mach.outputs[s]}" for s in sorted(mach.outputs))
        lines.append(f"{indent}{OUTPUTS}: {outs}".rstrip())
    for src, sym, dst in mach.transitions():
        lines.append(f"{indent}{TRANS}: {src} {sym} {dst}")
    return lines


def render_automaton_by_block(a, header_comments=()) -> str:
    """``docs.render_automaton`` with every block rendered on its own."""
    lines = [f"# {c}" for c in header_comments]
    tree = isinstance(a, TreeAutomaton)
    kind = a.kind if tree else {c: k for k, c in MACHINES.items()}[type(a)]
    lines.append(f"{KIND}: {kind}")
    lines.append(f"{ALPHABET}: " + " ".join(sorted(a.alphabet)))
    if tree:
        _check_tree_alphabet(sorted(a.alphabet))
        for q in a.states:
            _check_token(q, "state name")
        lines.append((f"{STATES}: " + " ".join(sorted(a.states))).rstrip())
        lines.append((f"{FINALS}: " + " ".join(sorted(a.finals))).rstrip())
        if a.leaf_symbols:
            lines.append(f"{LEAFSTATES}: " + " ".join(sorted(a.leaf_symbols)))
        blocks = {**a.horizontal, **{(sym,): m for sym, m in a.moore.items()}}
        for key in sorted(blocks):
            lines.append(f"{HORIZONTAL} {' '.join(key)}:")
            lines.extend(_machine_lines_by_block(blocks[key], "  "))
    else:
        for sym in a.alphabet:
            _check_token(sym, "alphabet symbol")
        lines.extend(_machine_lines_by_block(a))
    return "\n".join(lines) + "\n"


def check_keys_by_loop(separators, n: int, lines=None):
    """``witnesses._check_keys`` as one test per key, indexing the key."""
    for key in separators:
        if not (type(key) is tuple and len(key) == 2 and type(key[0]) is type(key[1]) is int
                and 0 <= key[0] < key[1] < n):
            if lines is not None:
                raise DocumentError(f"separator 'sep {key[0]} {key[1]}' needs indices "
                                    f"0 <= i < j < {n}", lines[key])
            raise UtaError(f"separator key {key!r} needs indices 0 <= i < j < {n}")


def validate_by_kind(kind, alphabet, states, finals, horizontal=None, moore=None,
                     leaf_symbols=()):
    """What ``TreeAutomaton(...)`` raised for these arguments when its
    validation had one branch per form; None where it accepted them."""
    if kind not in KINDS:
        raise KindError(f"unknown kind {kind!r}")
    alphabet, states = frozenset(alphabet), frozenset(states)
    leaf_symbols, finals = frozenset(leaf_symbols), frozenset(finals)
    horizontal, moore = dict(horizontal or {}), dict(moore or {})
    if not leaf_symbols <= alphabet:
        raise KindError("leaf convention declared for symbols outside the alphabet")
    if states & leaf_symbols:
        raise KindError("designated leaf states must not collide with state names")
    if not finals <= (states | leaf_symbols):
        raise KindError("finals must be declared states")
    ha = states | leaf_symbols

    if kind == SDTA:
        if horizontal:
            raise KindError("an SDTA defines one machine per symbol, not per (state, symbol)")
        for sym, mach in moore.items():
            if sym not in alphabet:
                raise KindError(f"machine for undeclared symbol {sym!r}")
            if not isinstance(mach, MooreDFA):
                raise KindError(f"machine for {sym!r} must be a MooreDFA")
            if mach.alphabet != ha:
                raise KindError(f"machine for {sym!r} must read the horizontal alphabet")
            if not set(mach.outputs.values()) <= states:
                raise KindError(f"outputs of machine for {sym!r} must be vertical states")
            if sym in leaf_symbols and mach.initial in mach.finals:
                raise KindError(
                    f"machine for {sym!r} accepts the empty string, clashing "
                    f"with the designated leaf state")
        return

    if moore:
        raise KindError(f"kind {kind} does not take per-symbol Moore machines")
    for key, mach in horizontal.items():
        if not (isinstance(key, tuple) and len(key) == 2):
            raise KindError(f"machine keyed by {key!r}, not by a (state, symbol) pair")
        q, sym = key
        if q not in states:
            raise KindError(f"machine keyed by undeclared state {q!r}")
        if sym not in alphabet:
            raise KindError(f"machine keyed by undeclared symbol {sym!r}")
        if kind in DFA_KINDS and not isinstance(mach, DFA):
            raise KindError(f"kind {kind} requires DFA horizontal acceptors")
        if not isinstance(mach, (NFA, DFA)):
            raise KindError(f"machine for ({q!r},{sym!r}) must be an NFA or DFA")
        if mach.alphabet != ha:
            raise KindError(f"machine for ({q!r},{sym!r}) must read the horizontal alphabet")
        if sym in leaf_symbols and mach.initials & mach.finals:
            raise KindError(
                f"machine for ({q!r},{sym!r}) accepts the empty string, clashing "
                f"with the designated leaf state")


def canonical_sdta_dense(a: TreeAutomaton) -> TreeAutomaton:
    """``analysis.canonical_sdta`` as it was before it trimmed first and
    refined sparse rows: dense rows over sink elements.

    After ``prune_by_step_any``, one ``coarsest_partition`` runs over integer
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
    Niehren, JCSS 2007), and ``normal_by_reach`` names its states, so language-equal
    inputs give equal results.  Designated leaf states are letters, not
    elements, so they never merge.
    """
    if a.kind != SDTA:
        raise KindError(f"expected an SDTA, got {a.kind}")
    a = prune_by_step_any(a)
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
    finals = {name[rep[vindex[q]]] if q in vindex else q for q in a.finals}
    return normal_by_reach(TreeAutomaton(SDTA, a.alphabet, states, finals, moore=moore,
                                         leaf_symbols=a.leaf_symbols))


def _reading(form):
    """``read(letters)``, the ``explore`` successors over the positions of a
    compiled form reading only ``letters`` in their order, with one row list
    per walk: the compiled form's ``reading`` method as it was."""
    def read(letters):
        rows = [[] for _ in form.states]
        for c in letters:
            for i, j in form.columns.get(c, ()):
                rows[i].append((c, j))
        return rows.__getitem__
    return read


def reach_by_rounds(a: TreeAutomaton, walks=None):
    """``bottom_up_reach`` over the compiled machines of the blocks of ``a``,
    in key order, from its leaf states in sorted order: the library's
    ``reach`` as it was before one forward pass replaced its rounds.  Yields
    the leaf states, then each vertical state that some tree is assigned,
    in the order found; once exhausted, it leaves in a given dict ``walks``
    each block's walk of the last round, by key, as (compiled positions,
    edges).  Acceptors of one structure are walked as one; an SDTA's Moore
    machines are walked one by one, in key order."""
    ms = [m for _, m in a._blocks]
    groups = shared_structures(ms)  # which also shares compiled forms
    if a.kind == SDTA:  # one walk per Moore machine keeps the order found
        groups = [[k] for k in range(len(ms))]
    sub = SubsetMachine(ms, partial(_label, a._blocks), groups)
    machines, marks = [], sub.marks
    for base, form in sub.forms.values():
        machines.append((form.initials, _reading(form),
                         lambda order, base=base: [q for i in order for q in marks[base + i]]))
    shared = {}
    yield from bottom_up_reach(machines, sorted(a.leaf_symbols), shared)
    if walks is not None:
        for x, g in enumerate(groups):
            walks.update((a._blocks[k][0], shared[x]) for k in g)


def normal_by_reach(a: TreeAutomaton) -> TreeAutomaton:
    """``analysis._normal`` as it was, over ``reach_by_rounds``: the vertical
    states named ``v.0``, ``v.1``, ... in the order found, each machine's
    states ``h0, h1, ...`` in the order of the last round's walk, unreached
    states last and bare.  Raises KindError naming a vertical state the
    search never finds."""
    walks = {}
    found = list(reach_by_rounds(a, walks))
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
