"""Finite automata over arbitrary finite symbol domains.

The same machinery serves plain alphabets, vertical states, and sets of
vertical states: symbols and states are opaque string tokens.  DFAs may be
partial; a missing transition rejects.  Reported sizes count the declared
states only, so the implicit reject sink is never included.  Walks read a
machine's ``compiled`` form, which holds the transitions that exist, as
integer columns per letter and as ``out``, a ``{letter: successors}`` map
per position, so they cost O(edges), not O(states x letters).

Sets of states are stepped by one ``SubsetMachine``, through ``out``:
``determinize`` walks it, and NFA acceptance and every tree automaton's
horizontal run step it, a run only on the items it has a transition on
(``automata._horizontal_run``).  ``marked_union`` walks DFAs, one position
per structure, by column; its walk decides disjointness, and
``first_overlap``'s pair search, over ``out``, names a witness.  Every
construction that builds reachable states runs one breadth-first explorer,
``explore``, but ``first_overlap`` (parent pointers, an early exit) and
``automata.forward`` (Horn reachability) keep their own worklists.  Every
minimizer, here and in ``analysis``, runs one ``coarsest_partition``.
"""

from __future__ import annotations

from bisect import bisect
from collections import defaultdict
from functools import cached_property
from operator import itemgetter

from .errors import AlphabetMismatchError, OverlapError, UnknownSymbolError, UtaError


def subset_name(members) -> str:
    """Canonical name for a set of states: sorted members in braces."""
    return "{" + ",".join(sorted(members)) + "}"


def unique_names(names) -> list:
    """``names``, generated state names, if no two are equal."""
    if len(set(names)) < len(names):
        s = sorted(names)
        clash = next(x for x, y in zip(s, s[1:]) if x == y)
        raise UtaError(f"two different states would both be named {clash!r}")
    return names


class _Compiled:
    """A machine in integer form: ``states`` in sorted order, ``index`` from
    state to position, sorted ``initials``, and per letter a column of the
    transitions that exist, as (position, successor position) pairs; an
    NFA's successors of one state come in sorted order.  Positions sort like
    the names, so every tie-break and witness is the one the names give."""

    __slots__ = ("states", "index", "columns", "initials", "_out")

    def __init__(self, m):
        self.states = sorted(m.states)
        self.index = index = dict(zip(self.states, range(len(self.states))))
        self.initials = sorted(map(index.__getitem__, m.initials))
        self.columns = columns = {c: [] for c in m.alphabet}
        for (s, c), d in m.delta.items():
            if m._many:
                columns[c] += [(index[s], j) for j in sorted(map(index.__getitem__, d))]
            else:
                columns[c].append((index[s], index[d]))
        self._out = None

    @property
    def out(self) -> list:
        """Per position, its ``{letter: successor positions}`` map in sorted
        letter order; kept with the form, so siblings share it."""
        if self._out is None:
            self._out = [{} for _ in self.states]
            for c in sorted(self.columns):
                for i, j in self.columns[c]:
                    self._out[i].setdefault(c, []).append(j)
        return self._out


class _Machine:
    """What NFAs and DFAs share: the size, acceptance, equality, hash and
    repr, and the ``compiled`` form, built on first use, cached on the
    machine, and left out of pickling and of equality.  ``delta`` maps
    (state, letter) to a frozenset of states in an NFA (``_many``) and to
    one state in a DFA."""

    _form = None

    @property
    def size(self) -> int:
        return len(self.states)

    def _ends(self, word):
        """The states the runs on ``word`` end in, through an NFA's
        ``SubsetMachine`` or a DFA's ``delta``; every letter is checked."""
        sub = SubsetMachine([self]) if self._many else None
        cur = sub.start if sub else self.initial
        for c in word:
            if c not in self.alphabet:
                raise UnknownSymbolError(c)
            cur = sub.step(cur, (c,)) if sub else self.delta.get((cur, c))
        return map(sub.names.__getitem__, cur) if sub else () if cur is None else (cur,)

    def accepts(self, word) -> bool:
        return not self.finals.isdisjoint(self._ends(word))

    def compiled(self) -> _Compiled:
        if self._form is None:
            self._form = _Compiled(self)
        return self._form

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_form"}

    def __eq__(self, other):
        return type(other) is type(self) and self.__getstate__() == other.__getstate__()

    def __hash__(self):
        return hash((self.states, self.alphabet, self.finals))

    def __repr__(self):
        return f"<{type(self).__name__} {len(self.states)} states, {len(self.delta)} edges>"


class NFA(_Machine):
    """Nondeterministic finite automaton; transitions form a relation."""

    _many = True

    def __init__(self, states, alphabet, initials, finals, transitions):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.initials = frozenset(initials)
        self.finals = frozenset(finals)
        states, alphabet, delta = self.states, self.alphabet, {}
        for src, sym, dst in transitions:
            if src not in states or dst not in states:
                raise ValueError(f"transition ({src},{sym},{dst}) uses undeclared state")
            if sym not in alphabet:
                raise ValueError(f"transition ({src},{sym},{dst}) uses undeclared symbol")
            delta.setdefault((src, sym), set()).add(dst)
        self.delta = {k: frozenset(v) for k, v in delta.items()}
        if not self.initials:
            raise ValueError("initial state set must be non-empty")
        if not self.initials <= self.states or not self.finals <= self.states:
            raise ValueError("initials/finals must be declared states")

    def transitions(self):
        for (src, sym), dsts in sorted(self.delta.items()):
            for dst in sorted(dsts):
                yield src, sym, dst


class DFA(_Machine):
    """Deterministic, possibly partial, finite automaton."""

    _many = False

    def __init__(self, states, alphabet, initial, finals, transitions):
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.initial = initial
        self.finals = frozenset(finals)
        states, alphabet, delta = self.states, self.alphabet, {}
        for src, sym, dst in transitions:
            if src not in states or dst not in states:
                raise ValueError(f"transition ({src},{sym},{dst}) uses undeclared state")
            if sym not in alphabet:
                raise ValueError(f"transition ({src},{sym},{dst}) uses undeclared symbol")
            if delta.setdefault((src, sym), dst) != dst:
                raise ValueError(f"conflicting transitions from ({src},{sym})")
        self.delta = delta
        if self.initial not in self.states:
            raise ValueError(f"initial state {initial!r} not declared")
        if not self.finals <= self.states:
            raise ValueError("finals must be declared states")

    def transitions(self):
        for (src, sym), dst in sorted(self.delta.items()):
            yield src, sym, dst

    @property
    def initials(self) -> frozenset:
        return frozenset([self.initial])

    def with_finals(self, finals) -> "DFA":
        """A DFA sibling of this machine (a Moore machine's, too) that
        differs only in its ``finals``, which must be declared states: it
        shares the states, alphabet, initial state, ``delta`` and compiled
        form, so no transition is checked or compiled again."""
        finals = frozenset(finals)
        if not finals <= self.states:
            raise ValueError("finals must be declared states")
        twin = DFA.__new__(DFA)
        twin.__dict__.update(states=self.states, alphabet=self.alphabet, initial=self.initial,
                             finals=finals, delta=self.delta, _form=self.compiled())
        return twin

    def to_nfa(self) -> NFA:
        return NFA(self.states, self.alphabet, {self.initial}, self.finals,
                   list(self.transitions()))


class MooreDFA(DFA):
    """A DFA with an output attached to every final state (and only those)."""

    def __init__(self, states, alphabet, initial, finals, transitions, outputs):
        super().__init__(states, alphabet, initial, finals, transitions)
        self.outputs = dict(outputs)
        if set(self.outputs) != set(self.finals):
            raise ValueError("outputs must be defined exactly on final states")

    def output_of(self, word):
        """Output for the word, or None if the word is not accepted."""
        return self.outputs.get(next(iter(self._ends(word)), None))

    def map_outputs(self, f) -> "MooreDFA":
        """The same machine with every output ``v`` replaced by ``f(v)``."""
        return MooreDFA(self.states, self.alphabet, self.initial, self.finals,
                        [(s, c, d) for (s, c), d in self.delta.items()],
                        {s: f(v) for s, v in self.outputs.items()})


def reading(columns, letters):
    """``explore``'s successors reading only ``letters``, in their order,
    over ``columns``, a ``{letter: [(position, successor)]}`` map."""
    rows = defaultdict(list)
    for c in letters:
        for i, j in columns.get(c, ()):
            rows[i].append((c, j))
    return rows.__getitem__


def explore(starts, successors):
    """Breadth-first search from ``starts``; ``successors(state)`` yields
    (letter, next state or None) pairs in reading order.  Returns the states
    in discovery order and the edges as (i, letter, j) triples of indexes
    into that order."""
    order, index, edges = [], {}, []
    for s in starts:
        index[s] = len(order)
        order.append(s)
    for i, s in enumerate(order):
        for c, t in successors(s):
            if t is None:
                continue
            j = index.get(t)
            if j is None:
                j = index[t] = len(order)
                order.append(t)
            edges.append((i, c, j))
    return order, edges


class SubsetMachine:
    """One subset machine over ``machines``; ``step`` steps a frozenset of
    integer positions.  Each ``shared_structures`` group g (or given group)
    is placed once, at ``forms[g[0]] = (base, compiled form)``, so siblings
    share positions.  ``names[p]`` is the state at position p, ``start`` the
    initial positions, ``marks[p]`` the labels ``label(k, s)`` of the members
    k final at p, in member order, and ``out[p]`` its ``{letter: successor
    positions}`` map: a lone structure's is its compiled form's ``out``,
    and several structures' are shifted by their bases on first use."""

    def __init__(self, machines, label=lambda k, s: k, groups=None):
        self.machines = machines = list(machines)
        self.groups = shared_structures(machines) if groups is None else groups
        self.forms, self.names, self.marks = {}, [], []
        for g in self.groups:
            form, base = machines[g[0]].compiled(), len(self.names)
            self.forms[g[0]] = base, form
            self.names += form.states
            self.marks += [[] for _ in form.states]
            for k in g:
                for s in machines[k].finals:
                    self.marks[base + form.index[s]].append(label(k, s))
        self.start = frozenset([b + i for b, f in self.forms.values() for i in f.initials])

    @cached_property
    def out(self) -> list:
        parts = [*self.forms.values()]
        return parts[0][1].out if len(parts) == 1 else [
            {c: [base + j for j in js] for c, js in row.items()}
            for base, form in parts for row in form.out]

    def column(self, c) -> list:
        """Over DFAs, the successor on ``c`` of each position and of the
        dead position ``len(names)``, which stands for no successor."""
        out = [len(self.names)] * (len(self.names) + 1)
        for base, form in self.forms.values():
            for i, j in form.columns.get(c, ()):
                out[base + i] = base + j
        return out

    def step(self, subset, letters) -> frozenset:
        """The positions some member of ``subset`` reaches on some letter."""
        got, out = set(), self.out
        for c in letters:
            for i in subset:
                got.update(out[i].get(c, ()))
        return frozenset(got)

    def walk(self):
        """``explore`` from the start by single letters in sorted order; dead
        is left out.  Over DFAs a state is a tuple of one position per
        structure (``len(names)`` if dead); else a frozenset of positions."""
        letters = sorted(set().union(*(m.alphabet for m in self.machines)))
        if any(m._many for m in self.machines):
            return explore([self.start],
                           lambda s: [(c, self.step(s, (c,)) or None) for c in letters])
        dead = (len(self.names),) * len(self.forms)
        columns = [(c, self.column(c).__getitem__) for c in letters]
        # one initial position per structure, and bases grow in group order
        return explore([tuple(sorted(self.start))], lambda cur: [
            (c, nxt) for c, at in columns if (nxt := tuple(map(at, cur))) != dead])


def determinize(m) -> DFA:
    """Subset construction over reachable subsets only, for an NFA or a DFA:
    a walk of its ``SubsetMachine``, each subset named canonically by its
    sorted members, so the result is reproducible."""
    order, edges = (sub := SubsetMachine([m])).walk()
    names = unique_names([subset_name(map(sub.names.__getitem__, s)) for s in order])
    rejecting = {p for p, mark in enumerate(sub.marks) if mark}.isdisjoint
    return DFA(names, m.alphabet, names[0], {n for n, s in zip(names, order) if not rejecting(s)},
               [(names[i], c, names[j]) for i, c, j in edges])


def coarsest_partition(keys, rows) -> list:
    """The coarsest partition of the elements ``0 .. len(keys) - 1`` that
    separates different keys and is stable: block mates have rows of
    successors (``rows[i]``, a list of indexes) that agree block by block.
    Returns each element's block number, in the order of first members.

    A worklist after Hopcroft (1971): a pass splits blocks by their members'
    signatures, the successor block ids one precomputed ``itemgetter`` reads
    (a scalar for one entry, None for none; rows of different lengths never
    sign alike), but re-signs only the predecessors of elements that changed
    block in the pass before (at first, all).  The largest part keeps the
    block id, so an element changes block at most log2 n times, and rows of
    bounded length cost O(m log n) in all.
    """
    ids: dict = {}
    block = [ids.setdefault(k, len(ids)) for k in keys]
    members = [set() for _ in ids]
    for i, b in enumerate(block):
        members[b].add(i)
    preds = [[] for _ in block]
    for i, row in enumerate(rows):
        for j in set(row):
            preds[j].append(i)
    sign = [itemgetter(*row) if row else None for row in rows]
    hit = range(len(block))
    while hit:
        touched = {}
        for p in hit:
            touched.setdefault(block[p], []).append(p)
        moved = []
        for b, resign in touched.items():
            rest = members[b]
            if len(rest) == 1:
                continue
            parts = {}
            for i in resign:
                parts.setdefault(get(block) if (get := sign[i]) else None, []).append(i)
            parts = [*map(set, parts.values())]
            if len(resign) < len(rest):
                # the untouched keep the signature they shared, and no
                # touched member does: one of its successors changed block
                rest.difference_update(resign)
                parts.append(rest)
            elif len(parts) == 1:
                continue
            members[b] = max(parts, key=len)
            for part in parts:
                if part is not members[b]:
                    moved.append((len(members), part))
                    members.append(part)
        hit = set()
        for b, part in moved:
            for i in part:
                block[i] = b
                hit.update(preds[i])
    first: dict = {}
    return [first.setdefault(b, len(first)) for b in block]


def _minimize(machine, block_key, make):
    """Quotient of ``machine`` by the coarsest stable partition of its
    compiled states plus a virtual sink, seeded by ``block_key(state)`` and
    ``block_key(None)``.  Missing transitions go to the sink, which loops on
    every symbol, so states that never reach a final merge with it; states
    that are not reachable change no reachable block.  The blocks reachable
    from the initial one are named m0, m1, ... in breadth-first order."""
    form = machine.compiled()
    syms = sorted(machine.alphabet)
    sink = len(form.states)
    rows = [*zip(*map(SubsetMachine([machine]).column, syms))] or [()] * (sink + 1)
    block = coarsest_partition([*map(block_key, form.states), block_key(None)], rows)
    start, dead = block[form.index[machine.initial]], block[sink]
    if start == dead:
        # empty language: a lone initial state is the smallest valid machine
        return make(["m0"], machine.alphabet, "m0", [], [], {})

    rep = {}  # block -> its first state's index
    for i, b in enumerate(block):
        rep.setdefault(b, i)
    live = [None if b == dead else b for b in block].__getitem__
    order, edges = explore([start], lambda b: zip(syms, map(live, rows[rep[b]])))
    names = [f"m{i}" for i in range(len(order))]
    final_rep = {n: s for n, b in zip(names, order)
                 if (s := form.states[rep[b]]) in machine.finals}
    outputs = ({n: machine.outputs[s] for n, s in final_rep.items()}
               if isinstance(machine, MooreDFA) else {})
    return make(names, machine.alphabet, "m0", list(final_rep),
                [(names[i], c, names[j]) for i, c, j in edges], outputs)


def minimize_dfa(m: DFA) -> DFA:
    """Unique minimal partial DFA: unreachable and dead states drop out,
    indistinguishable states merge.  Minimality is the Myhill-Nerode
    partition over live residuals."""
    return _minimize(m, lambda s: s is not None and s in m.finals,
                     lambda st, al, i, f, tr, _o: DFA(st, al, i, f, tr))


def minimize_moore(m: MooreDFA) -> MooreDFA:
    """Minimal Moore machine for the same partial word-to-output function.

    The initial partition separates states by (final?, output); refinement
    then proceeds exactly as for DFA minimization.
    """
    def key(s):
        if s is None or s not in m.finals:
            return None
        return ("out", m.outputs[s])

    return _minimize(m, key, MooreDFA)


def shared_structures(machines) -> list:
    """``machines`` grouped by equal alphabet, states, initials and delta, as
    lists of indexes; each group's members get its first member's compiled form.
    Siblings (``DFA.with_finals``) share one ``delta``, and members of a group
    found before share one compiled form, so they match at sight."""
    groups, shapes = [], {}
    for i, m in enumerate(machines):
        alike = shapes.setdefault((m.states, len(m.delta)), [])
        for g in alike:
            o = machines[g[0]]
            if o.alphabet == m.alphabet and o.initials == m.initials and (
                    o.delta is m.delta or o._form is m._form is not None or o.delta == m.delta):
                m._form = o.compiled()
                break
        else:
            alike.append(g := [])
            groups.append(g)
        g.append(i)
    return groups


def _pair_search(a, b, first, best):
    """Breadth-first search over pairs of states of two structures, each
    given as its compiled ``out``, its initials and per position the members
    final there (``SubsetMachine.marks``).  The least member pair i < j
    final at a pair it meets, if it comes before ``best``, becomes the
    ``best`` (i, j, word); the search ends at ``first``, the least pair it
    can meet."""
    out_a, initials_a, final_a = a
    out_b, initials_b, final_b = b
    order = [(p, q) for p in initials_a for q in initials_b]
    parent = dict.fromkeys(order)
    for pq in order:
        p, q = pq
        if final_a[p] and final_b[q]:
            ij = next(((i, j) for i in final_a[p] for j in final_b[q] if i < j), best[:2])
            if ij < best[:2]:
                word, at = [], pq
                while parent[at] is not None:
                    at, c = parent[at]
                    word.append(c)
                best = (*ij, tuple(reversed(word)))
                if ij == first:
                    return best
        row_b = out_b[q]
        for c, ps in out_a[p].items():
            qs = row_b.get(c, ())
            for p2 in ps:
                for q2 in qs:
                    if (p2, q2) not in parent:
                        parent[(p2, q2)] = (pq, c)
                        order.append((p2, q2))
    return best


def first_overlap(machines):
    """The first pair i < j of ``machines`` whose languages meet, in
    lexicographic order, as ``(i, j, shortest shared word)``, None if none
    do; an earlier pair of alphabets that differ raises.  Each structure
    (``shared_structures``) reads one ``out`` for all its members, and each
    ordered pair of them is searched once, least possible pair first."""
    mismatch = next((j for j, m in enumerate(machines) if m.alphabet != machines[0].alphabet), 0)
    groups = (sub := SubsetMachine(machines)).groups
    prepared = [(form.out, form.initials, sub.marks[base:base + len(form.states)])
                for base, form in sub.forms.values()]
    # (0, mismatch) is the first pair of alphabets that differ, if any
    best = (0, mismatch, None) if mismatch else (len(machines), 0, None)
    for x, g in enumerate(groups):
        if best[0] < g[0]:
            break
        for j, y in sorted((h[bisect(h, g[0])], y) for y, h in enumerate(groups) if h[-1] > g[0]):
            if best[:2] <= (g[0], j):
                break
            best = _pair_search(prepared[x], prepared[y], (g[0], j), best)
    if best[2] is None and mismatch:
        raise AlphabetMismatchError(f"alphabets differ: {sorted(machines[0].alphabet)} "
                                    f"vs {sorted(machines[mismatch].alphabet)}")
    return None if best[2] is None else best


def marked_union(parts) -> MooreDFA:
    """One deterministic machine that recognizes the union of pairwise
    disjoint DFA languages and outputs the 1-based index of the part each
    accepted word belongs to.

    A walk of the parts' ``SubsetMachine``, a state named ``(s1|s2|...)``
    by each part's state, ``-`` where that part is dead.  The parts overlap
    iff a reachable state accepts in two of them; only then does
    ``first_overlap`` run, to name the first such pair and its shortest
    shared word in the ``OverlapError``.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("marked_union needs at least one part")
    alphabet = parts[0].alphabet
    for i, p in enumerate(parts, start=1):
        if not isinstance(p, DFA):
            raise ValueError(f"part {i} is not a DFA")
        if p.alphabet != alphabet:
            raise AlphabetMismatchError(f"part {i} has a different alphabet")

    order, edges = (sub := SubsetMachine(parts)).walk()
    marks = [*sub.marks, ()]  # and none at the dead position
    accepting = [[k + 1 for p in tup for k in marks[p]] for tup in order]
    if max(map(len, accepting)) > 1:
        i, j, w = first_overlap(parts)
        raise OverlapError(i + 1, j + 1, w)
    # a part's state is at the coordinate of its structure
    coordinate = [x for _, x in sorted((k, x) for x, g in enumerate(sub.groups) for k in g)]
    label = [*sub.names, "-"].__getitem__
    names = unique_names(["(" + "|".join(map(label, map(tup.__getitem__, coordinate))) + ")"
                          for tup in order])
    outputs = {n: ks[0] for n, ks in zip(names, accepting) if ks}
    return MooreDFA(names, alphabet, names[0], set(outputs),
                    [(names[i], c, names[j]) for i, c, j in edges], outputs)
