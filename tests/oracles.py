"""Test-only oracles: the dict-stepping code that compiled walks replaced.

Each function is the library code as it was before machines were compiled
into integer rows, or before tree runs stepped a compiled subset machine: it
steps one ``(state, letter)`` lookup at a time, reading the transition dicts
itself, and tries every letter in every state.  The differential tests check
that the library gives exactly the same results.
"""

from __future__ import annotations

from uta import DFA, NFA, SDTA, MooreDFA, TreeAutomaton


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
