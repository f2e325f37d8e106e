"""Unranked bottom-up tree automata: the five kinds and their run semantics.

An automaton assigns sets of vertical states to tree nodes bottom-up.  For a
node labeled ``sym`` whose children were assigned S_1..S_m, a state ``q`` is
assigned iff some choice (q_1..q_m) from S_1 x..x S_m is accepted by the
horizontal acceptor for (q, sym).  This is computed exactly in polynomial
time by one subset simulation of the acceptors of ``sym`` on whole child
state sets (``_horizontal_run``), instead of enumerating the product of the
children's state sets; each step is computed once per automaton and then
looked up, one table cell per child (keyed by child set or leaf label; dead
runs are cells), by ``_evaluate`` in one pass linear in the tree.

Leaf-state convention: an automaton may designate, per symbol, a dedicated
state (named by the symbol itself) that leaves with that label receive.
Designated leaf states appear in horizontal languages as ordinary symbols
but are excluded from the vertical state count.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import partial

from .errors import KindError, UnknownSymbolError
from .strings import DFA, MooreDFA, NFA, SubsetMachine, explore, first_overlap
from .trees import Tree, _Record

NTA_NFA = "nta-nfa"
NTA_DFA = "nta-dfa"
DTA_NFA = "dta-nfa"
DTA_DFA = "dta-dfa"
SDTA = "sdta"

KINDS = (NTA_NFA, NTA_DFA, DTA_NFA, DTA_DFA, SDTA)
DETERMINISTIC_KINDS = (DTA_NFA, DTA_DFA, SDTA)
DFA_KINDS = (NTA_DFA, DTA_DFA)


class SizePair(_Record):
    """Vertical and horizontal state counts, compared componentwise."""

    __slots__ = ("vertical", "horizontal")

    def __init__(self, vertical: int, horizontal: int):
        self._init(vertical, horizontal)

    def __le__(self, other: "SizePair") -> bool:
        return self.vertical <= other.vertical and self.horizontal <= other.horizontal

    def __str__(self) -> str:
        return f"[{self.vertical}; {self.horizontal}]"


class DeterminismReport(_Record):
    __slots__ = ("ok", "symbol", "pair", "witness")

    def __init__(self, ok: bool, symbol: str | None = None, pair: tuple | None = None,
                 witness: tuple | None = None):
        self._init(ok, symbol, pair, witness)


class TreeAutomaton:
    """One of the five automaton kinds over a fixed alphabet.

    ``states`` are the counted vertical states.  ``leaf_symbols`` lists the
    symbols using the designated-leaf-state convention; each such leaf state
    is named by its symbol and lives outside ``states``.  Non-SDTA kinds
    carry ``horizontal``: a sparse map (state, symbol) -> NFA/DFA over the
    horizontal alphabet (missing entry = empty language).  SDTAs carry
    ``moore``: a sparse map symbol -> MooreDFA whose outputs are vertical
    states.  Every machine is a block of ``_blocks``, in key order with its
    key: ``(q, sym)``, or an SDTA's ``(sym,)``, as documents write it.
    """

    def __init__(self, kind, alphabet, states, finals, horizontal=None,
                 moore=None, leaf_symbols=()):
        if kind not in KINDS:
            raise KindError(f"unknown kind {kind!r}")
        self.kind = kind
        self.alphabet = frozenset(alphabet)
        self.states = frozenset(states)
        self.leaf_symbols = frozenset(leaf_symbols)
        self.finals = frozenset(finals)
        self.horizontal = dict(horizontal or {})
        self.moore = dict(moore or {})
        self._blocks = self._validate()
        self._by_symbol: dict = {}  # sym -> its blocks, in key order
        for key, mach in self._blocks:
            self._by_symbol.setdefault(key[-1], []).append((key, mach))
        self._runs: dict = {}
        self._leaves: dict = {}

    @property
    def horizontal_alphabet(self) -> frozenset:
        """Symbols readable by horizontal acceptors: vertical plus leaf states."""
        return self.states | self.leaf_symbols

    def _validate(self) -> list:
        """Checks the declarations, then each block as given; returns the blocks in key order."""
        if not self.leaf_symbols <= self.alphabet:
            raise KindError("leaf convention declared for symbols outside the alphabet")
        if self.states & self.leaf_symbols:
            raise KindError("designated leaf states must not collide with state names")
        if not self.finals <= (self.states | self.leaf_symbols):
            raise KindError("finals must be declared states")
        sdta = self.kind == SDTA
        if sdta and self.horizontal:
            raise KindError("an SDTA defines one machine per symbol, not per (state, symbol)")
        if self.moore and not sdta:
            raise KindError(f"kind {self.kind} does not take per-symbol Moore machines")
        # how messages name a block's machine, and the class it must have
        named = "machine for {!r}" if sdta else "machine for ({!r},{!r})"
        cls, wrong = ((MooreDFA, "{} must be a MooreDFA") if sdta
                      else (DFA, f"kind {self.kind} requires DFA horizontal acceptors")
                      if self.kind in DFA_KINDS else ((NFA, DFA), "{} must be an NFA or DFA"))
        ha, blocks = self.horizontal_alphabet, []
        for key, mach in (self.moore if sdta else self.horizontal).items():
            if not (sdta or isinstance(key, tuple) and len(key) == 2):
                raise KindError(f"machine keyed by {key!r}, not by a (state, symbol) pair")
            q, sym = (None, key) if sdta else key
            key = (sym,) if sdta else (q, sym)
            if not sdta and q not in self.states:
                raise KindError(f"machine keyed by undeclared state {q!r}")
            if sym not in self.alphabet:
                raise KindError(f"machine {'for' if sdta else 'keyed by'} undeclared "
                                f"symbol {sym!r}")
            if not isinstance(mach, cls):
                raise KindError(wrong.format(named.format(*key)))
            if mach.alphabet != ha:
                raise KindError(f"{named.format(*key)} must read the horizontal alphabet")
            if sdta and not set(mach.outputs.values()) <= self.states:
                raise KindError(f"outputs of {named.format(*key)} must be vertical states")
            if sym in self.leaf_symbols and mach.initials & mach.finals:
                raise KindError(f"{named.format(*key)} accepts the empty string, clashing "
                                f"with the designated leaf state")
            blocks.append((key, mach))
        return sorted(blocks)

    def horizontal_run(self, sym):
        """The ``(start, step, finish)`` run that assigns states to a ``sym``
        node; built on first use (see ``_horizontal_run``)."""
        return self._run(sym)[:3]

    def _run(self, sym):
        """The run, its ``read``, table, assigned states and letters; kept for alphabet symbols."""
        got = self._runs.get(sym)
        if got is None:
            got = _horizontal_run(self, sym)
            if sym in self.alphabet:
                self._runs[sym] = got
        return got

    def __getstate__(self):
        # runs hold closures, which do not pickle; runs and leaf states are rebuilt on use
        return {**self.__dict__, "_runs": {}, "_leaves": {}}

    def machines_for(self, sym):
        """Sorted (state, machine) pairs for one symbol; none in an SDTA."""
        return [(key[0], m) for key, m in self._by_symbol.get(sym, ()) if len(key) == 2]

    def __eq__(self, other):
        return (isinstance(other, TreeAutomaton) and self.kind == other.kind
                and self.alphabet == other.alphabet and self.states == other.states
                and self.finals == other.finals
                and self.leaf_symbols == other.leaf_symbols
                and self.horizontal == other.horizontal and self.moore == other.moore)

    def __hash__(self):
        return hash((self.kind, self.alphabet, self.states, self.finals))

    def __repr__(self):
        return f"<TreeAutomaton {self.kind} {size(self)}>"


def _from_blocks(kind, alphabet, states, finals, leaf_symbols, blocks: dict) -> TreeAutomaton:
    """The automaton whose machines are ``blocks``, by block key."""
    if kind == SDTA:
        return TreeAutomaton(kind, alphabet, states, finals, leaf_symbols=leaf_symbols,
                             moore={sym: m for (sym,), m in blocks.items()})
    return TreeAutomaton(kind, alphabet, states, finals, blocks, leaf_symbols=leaf_symbols)


def _label(blocks, k, s):
    """What the machine of ``blocks[k]`` assigns at its final s: its output, or q of (q, sym)."""
    key, mach = blocks[k]
    return mach.outputs[s] if len(key) == 1 else key[0]


def run(a: TreeAutomaton, t: Tree) -> Mapping:
    """Bottom-up state-set assignment, as a read-only mapping: node address
    (tuple of child indexes) -> set of assignable vertical states.  It reads
    ``_evaluate``'s memo: ``[()]`` costs O(1), ``[addr]`` O(len(addr)).
    For deterministic kinds every assigned set has at most one element; a
    violation means the declared kind is wrong and raises KindError.
    """
    memo = {}
    return _Assignment(t, _evaluate(a, t, memo, addressed=True), memo, a._leaves)


class _Assignment(Mapping):
    """``run``'s result: a node's states depend only on its subtree.
    Iteration is postorder and holds only the path to the current node."""

    def __init__(self, tree, root, memo, leaves):
        self._tree, self._root, self._memo, self._leaves = tree, root, memo, leaves

    def __getitem__(self, addr):
        if type(addr) is not tuple:
            raise KeyError(addr)
        node = self._tree
        for i in addr:
            if not isinstance(i, int) or not 0 <= i < len(node.children):
                raise KeyError(addr)
            node = node.children[i]
        if node is self._tree:
            return self._root
        return self._memo[id(node)][1] if node.children else self._leaves[node.label]

    def __iter__(self):
        path, stack = [], [iter(enumerate(self._tree.children))]
        while stack:
            i, c = next(stack[-1], (None, None))
            if c is None:
                stack.pop()
                yield tuple(path)
                del path[-1:]
            else:
                path.append(i)
                stack.append(iter(enumerate(c.children)))

    def __len__(self):
        return self._tree.node_count()


def _evaluate(a: TreeAutomaton, t: Tree, memo: dict, addressed=False) -> frozenset:
    """The states assigned to the root of ``t``, computed bottom-up in one
    pass with an explicit stack, children left to right, so the first fault
    raised is the one a recursive postorder raises, in O(depth) frames.

    A frame is a node, an iterator over its children (each read once) and
    the node's run, step table and assigned states.  Each child moves the
    run by one cell, ``table[key][run]``, keyed by child set or leaf label:
    its state set, from ``memo`` or a frame of its own, or its label.  Dead
    runs are cells, and ``_cell`` fills a missing one.  No fault is cached
    (``_cell`` keys a label's row only once ``_leaf`` has checked its
    states, ``TreeAutomaton._run`` keeps no unknown symbol's run), so a
    faulty tree raises on every call; a KindError's address (if
    ``addressed``) is rebuilt from the stack on that error path only.
    ``memo`` maps id(subtree) -> (subtree, states) for internal proper
    subtrees: it is read and extended but never given the root, so a memo
    kept across many trees grows with their shared subtrees only, and
    holding the subtree keeps its id from being reused while it lives.
    """
    runs = a._runs
    if not t.children:
        return _leaf(a, t.label, addressed and ([], t))
    det = a.kind in DETERMINISTIC_KINDS
    stack, node, kids = [], t, iter(t.children)
    run, _, _, _, table, assigned, _ = runs.get(t.label) or a._run(t.label)
    while True:
        for c in kids:
            if c.children:
                got = memo.get(id(c))
                if got is None:
                    stack.append((node, kids, run, table, assigned))
                    node, kids = c, iter(c.children)
                    run, _, _, _, table, assigned, _ = runs.get(c.label) or a._run(c.label)
                    break
                key = got[1]
            else:
                key = c.label
            try:
                run = table[key][run]
            except KeyError:
                run = _cell(a, node.label, table, key, run, addressed and (stack, node, c))
        else:
            states = assigned[run] if run in assigned else a._run(node.label)[2](run, False)
            if det and len(states) > 1:
                raise _kind_error(a, states, node.label, addressed and (stack, node))
            if not stack:
                return states
            memo[id(node)] = (node, states)
            node, kids, run, table, assigned = stack.pop()
            try:
                run = table[states][run]
            except KeyError:
                run = _cell(a, node.label, table, states, run, None)


def _cell(a: TreeAutomaton, sym: str, table: dict, key, run, where):
    """``table[key][run]`` of the ``sym`` run, filled first; a leaf label's
    row is its states' row, keyed only once ``_leaf`` has checked them."""
    s = key if type(key) is frozenset else a._leaves.get(key) or _leaf(a, key, where)
    row = table[key] = table.setdefault(s, {None: None})
    return row[run] if run in row else a._run(sym)[1](run, s)


def _leaf(a: TreeAutomaton, label: str, where) -> frozenset:
    """The states of a ``label`` leaf, kept in ``a._leaves`` if no fault."""
    start, _, finish = a._run(label)[:3]
    states = finish(start, True)
    if len(states) > 1 and a.kind in DETERMINISTIC_KINDS:
        raise _kind_error(a, states, label, where)
    a._leaves[label] = states
    return states


def _kind_error(a: TreeAutomaton, states, sym: str, where) -> KindError:
    """Names the node by label, or by the address of ``where``, a path
    ``(frames, *nodes)`` down which each node is the first child that is it."""
    path = where and [f[0] for f in where[0]] + [*where[1:]]
    at = tuple(next(i for i, c in enumerate(p.children) if c is n)
               for p, n in zip(path, path[1:])) if path else f"a {sym!r} node"
    return KindError(f"deterministic kind {a.kind} assigned {sorted(states)} at {at}")


def _horizontal_run(a: TreeAutomaton, sym: str) -> tuple:
    """The horizontal run that assigns states to a ``sym`` node, as
    ``(start, step, finish, read, table, assigned, letters)``.  ``step(run, S)``
    reads the state set S of the next child; the run is None once it is
    dead, and ``step`` is never given a dead run.  ``finish(run, empty)`` is
    the node's state set, where ``empty`` says the node has no children (the
    designated-leaf rule); for a symbol outside the alphabet the run is dead,
    the table empty and ``finish`` raises UnknownSymbolError.

    Every kind runs one ``strings.SubsetMachine`` over the blocks of
    ``sym``, its positions labelled by the states they assign (``_label``).
    A run is a frozenset of positions.  ``table`` keeps the steps taken,
    keyed by child set or leaf label, then by run: ``step`` fills
    ``table[S][run]``, the run after ``run`` reads child set S, and
    ``_evaluate`` reads the cells itself (see ``_cell``).  Dead runs are
    cells: every row maps None to None.  There is at most one live cell per
    cell of the transition table of the machine ``convert._subset_moore``
    builds, plus one per run for the empty set.  ``assigned`` keeps what
    ``finish`` gives each run of a node with children, and ``letters(run)``
    the letters its positions have a transition on (their ``out``).  These
    live as long as the run (in ``TreeAutomaton._runs``, which pickling
    drops), and equal sets among them are one object.  ``read(items)``,
    ``strings.explore``'s successors over the child sets ``items``, steps a
    run through ``step`` only on the items that hold one of its letters, in
    item order: each step it takes is live.
    """
    if sym not in a.alphabet:
        def refuse(run, empty):
            raise UnknownSymbolError(sym)
        return None, None, refuse, None, {}, {}, None
    leaf = frozenset([sym]) if sym in a.leaf_symbols else None
    blocks = a._by_symbol.get(sym, ())
    sub = SubsetMachine([m for _, m in blocks], partial(_label, blocks))
    marks, assigned, table, heads = sub.marks, {None: frozenset()}, {}, {None: frozenset()}
    keep = {}.setdefault  # one kept object per distinct run, state set or letter set

    def step(run, s):
        try:
            return table[s][run]
        except KeyError:
            row = table.get(s) or table.setdefault(s, {None: None})
            got = sub.step(run, s)
            row[run] = got = keep(got, got) if got else None
            return got

    def finish(run, empty):
        if empty and leaf:
            return leaf
        got = assigned.get(run)
        if got is None:
            got = frozenset().union(*map(marks.__getitem__, run))
            got = assigned[run] = keep(got, got)
        return got

    def letters(run):
        if (got := heads.get(run)) is None:
            got = frozenset().union(*map(sub.out.__getitem__, run))
            got = heads[run] = keep(got, got)
        return got

    def read(items):
        hit = {}  # letters -> the items that hold one

        def successors(run):
            if (got := hit.get(held := letters(run))) is None:
                got = hit[held] = [s for s in items if not held.isdisjoint(s)]
            return [(s, step(run, s)) for s in got]
        return successors

    return sub.start or None, step, finish, read, table, assigned, letters


def accepts(a: TreeAutomaton, t: Tree) -> bool:
    return bool(_evaluate(a, t, {}) & a.finals)


def check_semantic_determinism(a: TreeAutomaton) -> DeterminismReport:
    """Horizontal languages for distinct states under the same symbol must be
    pairwise disjoint (an SDTA's output function makes them so by definition).
    Returns the violating (symbol, state pair) and a shortest witness string
    when they are not."""
    for sym in sorted(a.alphabet):
        machines = a.machines_for(sym)
        overlap = first_overlap([m for _, m in machines])
        if overlap is not None:
            i, j, w = overlap
            return DeterminismReport(False, sym, (machines[i][0], machines[j][0]), w)
    return DeterminismReport(True)


def size(a: TreeAutomaton) -> SizePair:
    """Two-component size: counted vertical states (designated leaf states
    excluded) and the sum of the sizes of the blocks' horizontal machines."""
    return SizePair(len(a.states), sum(m.size for _, m in a._blocks))


def bottom_up_reach(machines, items, walks=None):
    """Fixed point of bottom-up reachability over vertical items.

    ``machines`` is a list of (starts, read, outputs) triples, where
    ``read(letters)`` gives ``strings.explore`` the successors reading
    ``letters`` in order and ``outputs(states)`` gives the items that the
    states of a walk output, in their order; ``items`` are the letters every
    tree provides, such as the leaf states.  Each round explores every
    machine in turn over the items found so far and adds each new item its
    reached states output, until a round finds nothing new.  Yields the
    items in the order first found, the given ones first, each as soon as it
    is found.  Once exhausted, it leaves in a given dict ``walks``, by
    index, each machine's ``explore`` result of the last round, which read
    every item."""
    items = list(items)
    yield from items
    found = set(items)
    grew = True
    while grew:
        grew = False
        for k, (starts, read, outputs) in enumerate(machines):
            order, edges = explore(starts, read(items))
            if walks is not None:
                walks[k] = order, edges
            for out in outputs(order):
                if out not in found:
                    found.add(out)
                    items.append(out)
                    grew = True
                    yield out


def forward(sub: SubsetMachine, letters) -> tuple:
    """Horn reachability over ``sub`` in one worklist pass, linear in the
    edges (Dowling & Gallier, 1984): a popped position makes its marks
    assignable, pushes its successors on assignable letters and parks the
    others under their letter until it is assignable.  ``letters`` are
    assignable at the start (the leaf states), and each position's ``out``
    is read once.  Returns the reached positions and the assignable letters."""
    reached, letters, parked = set(), set(letters), {}
    todo, out, marks = [*sub.start], sub.out, sub.marks
    while todo:
        p = todo.pop()
        if p in reached:
            continue
        reached.add(p)
        for q in marks[p]:
            if q not in letters:
                letters.add(q)
                todo += parked.pop(q, ())
        for c, js in out[p].items():
            if c in letters:
                todo += js
            else:
                parked.setdefault(c, []).extend(js)
    return reached, letters


def prune_reachable(a: TreeAutomaton) -> TreeAutomaton:
    """Drop vertical states no run can assign, then drop horizontal states
    that became unreachable.  The language is unchanged.

    One ``forward`` pass over the ``strings.SubsetMachine`` of the blocks,
    where acceptors of one structure (such as ``convert.sdta_to_dtadfa``'s
    siblings) share positions.  Each machine keeps its reached states and
    their transitions on assignable letters, or is dropped if it reaches no
    final.  If every state is assignable, a machine that reaches all its
    states and a final is kept as it is; if every machine is, so is ``a``.
    """
    sub = SubsetMachine([m for _, m in a._blocks], partial(_label, a._blocks))
    reached, allowed = forward(sub, a.leaf_symbols)
    keep, at, parts = a.states & allowed, {}, {}
    for g in sub.groups:  # block -> (base, compiled form, reached states)
        base, form = sub.forms[g[0]]
        at.update(dict.fromkeys(g, (base, form, [s for i, s in enumerate(form.states, base)
                                                 if i in reached])))
    whole = trim = keep == a.states
    for k, (key, m) in enumerate(a._blocks):
        base, form, names = at[k]
        if trim and len(names) == len(form.states) and m.finals:
            parts[key] = m  # every state reached, reading every letter
            continue
        whole, states = False, form.states
        if finals := m.finals.intersection(names):
            args = (names, allowed, m.initials if isinstance(m, NFA) else m.initial, finals,
                    [(states[i], c, states[j]) for c, column in form.columns.items()
                     if c in allowed for i, j in column if base + i in reached])
            parts[key] = (MooreDFA(*args, {s: m.outputs[s] for s in finals})
                          if isinstance(m, MooreDFA) else type(m)(*args))
    return a if whole else _from_blocks(a.kind, a.alphabet, keep, a.finals & allowed,
                                        a.leaf_symbols, parts)
