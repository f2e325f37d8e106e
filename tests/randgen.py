"""Seeded random generators for automata and trees used across the suite.

Every generator takes a random.Random so tests stay reproducible.  The
weakly deterministic generator builds disjoint horizontal languages by
splitting one complete master DFA per symbol along its output map, then
disguises the copies with renamings and state duplications; completeness of
the copies is what keeps the product construction inside the stated bounds.
``canonical_form`` compares string machines up to isomorphism.
"""

from __future__ import annotations

import random

from uta import DFA, NFA, DTA_DFA, DTA_NFA, NTA_NFA, SDTA, MooreDFA, Tree, TreeAutomaton
from uta.strings import explore

from oracles import stepwise

ALPHABET_POOL = ("a", "b", "c")


def rand_tree(rng: random.Random, alphabet, max_depth=4, max_width=3) -> Tree:
    label = rng.choice(sorted(alphabet))
    if max_depth <= 1:
        return Tree(label)
    width = rng.randint(0, max_width)
    return Tree(label, tuple(rand_tree(rng, alphabet, max_depth - 1, max_width)
                             for _ in range(width)))


def rand_trees(rng, alphabet, count, max_depth=4, max_width=3):
    return [rand_tree(rng, alphabet, max_depth, max_width) for _ in range(count)]


def _rand_moore(rng, ha, max_states, out_pool) -> MooreDFA:
    n = rng.randint(1, max_states)
    states = [f"h{i}" for i in range(n)]
    trans = []
    for s in states:
        for c in sorted(ha):
            if rng.random() < 0.8:
                trans.append((s, c, rng.choice(states)))
    finals = [s for s in states if rng.random() < 0.5]
    outputs = {s: rng.choice(out_pool) for s in finals}
    return MooreDFA(states, ha, "h0", finals, trans, outputs)


def rand_sdta(rng: random.Random, max_vertical=4, max_horizontal=6,
              max_alphabet=3) -> TreeAutomaton:
    alphabet = ALPHABET_POOL[: rng.randint(1, max_alphabet)]
    n = rng.randint(1, max_vertical)
    states = [f"q{i}" for i in range(n)]
    moore = {sym: _rand_moore(rng, frozenset(states), max_horizontal, states)
             for sym in alphabet}
    finals = [q for q in states if rng.random() < 0.5]
    if not finals:
        finals = [rng.choice(states)]
    return TreeAutomaton(SDTA, alphabet, states, finals, moore=moore)


def rand_sdta_leaves(rng: random.Random, max_vertical=4, max_horizontal=6,
                     max_alphabet=3) -> TreeAutomaton:
    """An SDTA with designated leaf states: at least one symbol uses the
    leaf convention, so a bare leaf of it is assigned the symbol itself,
    which the machines read as a letter and which is final about half the
    time.  Some symbols have no machine.  It is opt-in: no other generator
    calls it, so their seeded draws stay as they are."""
    alphabet = ALPHABET_POOL[: rng.randint(1, max_alphabet)]
    leaves = [s for s in alphabet if rng.random() < 0.5] or [rng.choice(alphabet)]
    states = [f"q{i}" for i in range(rng.randint(1, max_vertical))]
    ha = frozenset(states) | frozenset(leaves)
    moore = {}
    for sym in alphabet:
        if rng.random() < 0.15:
            continue
        m = _rand_moore(rng, ha, max_horizontal, states)
        if sym in leaves and m.initial in m.finals:
            # the empty word would clash with the leaf state
            finals = m.finals - {m.initial}
            m = MooreDFA(m.states, ha, m.initial, finals, m.transitions(),
                         {s: m.outputs[s] for s in finals})
        moore[sym] = m
    finals = [x for x in states + leaves if rng.random() < 0.5] or [rng.choice(leaves)]
    return TreeAutomaton(SDTA, alphabet, states, finals, moore=moore, leaf_symbols=leaves)


def _rand_complete_dfa(rng, ha, max_states):
    n = rng.randint(1, max_states)
    states = [f"g{i}" for i in range(n)]
    trans = [(s, c, rng.choice(states)) for s in states for c in sorted(ha)]
    return states, trans


def _disguise(rng, dfa: DFA) -> DFA:
    """Language-preserving noise: rename states, maybe duplicate one."""
    states = sorted(dfa.states)
    perm = states[:]
    rng.shuffle(perm)
    ren = dict(zip(states, perm))
    trans = [(ren[s], c, ren[d]) for s, c, d in dfa.transitions()]
    finals = {ren[s] for s in dfa.finals}
    initial = ren[dfa.initial]
    out = DFA(perm, dfa.alphabet, initial, finals, trans)
    if rng.random() < 0.5:
        src = rng.choice(sorted(out.states))
        twin = "dup"
        trans = []
        for s, c, d in out.transitions():
            if d == src and rng.random() < 0.5:
                d = twin
            trans.append((s, c, d))
        trans += [(twin, c, out.delta[(src, c)]) for c in sorted(out.alphabet)]
        finals = set(out.finals) | ({twin} if src in out.finals else set())
        out = DFA(list(out.states) + [twin], out.alphabet, out.initial, finals, trans)
    return out


def rand_dtadfa(rng: random.Random, max_vertical=4, max_horizontal=5,
                max_alphabet=3) -> TreeAutomaton:
    """Semantically deterministic by construction: per symbol, the horizontal
    languages are preimages of one complete master DFA's output map."""
    alphabet = ALPHABET_POOL[: rng.randint(1, max_alphabet)]
    n = rng.randint(1, max_vertical)
    qs = [f"q{i}" for i in range(n)]
    ha = frozenset(qs)
    horizontal = {}
    for sym in alphabet:
        states, trans = _rand_complete_dfa(rng, ha, max_horizontal)
        finals = [s for s in states if rng.random() < 0.6]
        owner = {s: rng.choice(qs) for s in finals}
        for q in qs:
            fq = {s for s, o in owner.items() if o == q}
            if not fq:
                continue
            copy = DFA(states, ha, states[0], fq, trans)
            horizontal[(q, sym)] = _disguise(rng, copy)
    finals = [q for q in qs if rng.random() < 0.5] or [qs[0]]
    return TreeAutomaton(DTA_DFA, alphabet, qs, finals, horizontal=horizontal)


def rand_nta(rng: random.Random, max_vertical=3, max_horizontal=3,
             max_alphabet=2) -> TreeAutomaton:
    alphabet = ALPHABET_POOL[: rng.randint(1, max_alphabet)]
    n = rng.randint(1, max_vertical)
    qs = [f"q{i}" for i in range(n)]
    ha = frozenset(qs)
    horizontal = {}
    for sym in alphabet:
        for q in qs:
            if rng.random() < 0.25:
                continue
            k = rng.randint(1, max_horizontal)
            states = [f"h{i}" for i in range(k)]
            trans = []
            for s in states:
                for c in sorted(ha):
                    for d in states:
                        if rng.random() < 0.35:
                            trans.append((s, c, d))
            initials = {s for s in states if rng.random() < 0.4} or {states[0]}
            finals = {s for s in states if rng.random() < 0.4}
            horizontal[(q, sym)] = NFA(states, ha, initials, finals, trans)
    finals = [q for q in qs if rng.random() < 0.5] or [qs[0]]
    return TreeAutomaton(NTA_NFA, alphabet, qs, finals, horizontal=horizontal)


def rand_dta_nfa(rng: random.Random, max_vertical=3, max_horizontal=3,
                 max_alphabet=2) -> TreeAutomaton:
    """Deterministic bottom-up with NFA transitions: per symbol, each state's
    language starts with symbols from its own slice of the alphabet (and the
    empty string belongs to at most one state), so the languages are disjoint
    whatever the random tails do."""
    alphabet = ALPHABET_POOL[: rng.randint(1, max_alphabet)]
    n = rng.randint(1, max_vertical)
    qs = [f"q{i}" for i in range(n)]
    ha = sorted(qs)
    horizontal = {}
    for sym in alphabet:
        entries = {q: [] for q in qs}
        for c in ha:
            entries[rng.choice(qs)].append(c)
        epsilon_owner = rng.choice(qs + [None])
        for q in qs:
            if not entries[q] and epsilon_owner != q:
                continue
            k = rng.randint(1, max_horizontal)
            tails = [f"t{i}" for i in range(k)]
            trans = []
            for c in entries[q]:
                for d in tails:
                    if rng.random() < 0.6:
                        trans.append(("i", c, d))
            for s in tails:
                for c in ha:
                    for d in tails:
                        if rng.random() < 0.3:
                            trans.append((s, c, d))
            finals = {s for s in tails if rng.random() < 0.5}
            if epsilon_owner == q:
                finals.add("i")
            horizontal[(q, sym)] = NFA(["i"] + tails, frozenset(qs), {"i"}, finals, trans)
    finals = [q for q in qs if rng.random() < 0.5] or [qs[0]]
    return TreeAutomaton(DTA_NFA, alphabet, qs, finals, horizontal=horizontal)


def rename_sdta(rng: random.Random, a: TreeAutomaton) -> TreeAutomaton:
    """The same automaton under a random bijection of vertical state names."""
    states = sorted(a.states)
    fresh = [f"p{i}" for i in range(len(states))]
    rng.shuffle(fresh)
    ren = dict(zip(states, fresh))
    ha = frozenset(fresh) | a.leaf_symbols
    moore = {}
    for sym, m in a.moore.items():
        trans = [(s, ren.get(c, c), d) for s, c, d in m.transitions()]
        outputs = {s: ren[v] for s, v in m.outputs.items()}
        moore[sym] = MooreDFA(m.states, ha, m.initial, m.finals, trans, outputs)
    finals = {ren.get(q, q) for q in a.finals}
    return TreeAutomaton(SDTA, a.alphabet, fresh, finals, moore=moore,
                         leaf_symbols=a.leaf_symbols)


def inflate_sdta(rng: random.Random, a: TreeAutomaton) -> TreeAutomaton:
    """Duplicate one vertical state: the twin copies the original's symbol
    behavior and finality, and steals a random share of the outputs that
    produced the original.  The language is unchanged."""
    states = sorted(a.states)
    victim = rng.choice(states)
    twin = "mirror"
    ha = frozenset(states) | {twin} | a.leaf_symbols
    moore = {}
    for sym, m in a.moore.items():
        trans = list(m.transitions())
        trans += [(s, twin, d) for s, c, d in m.transitions() if c == victim]
        outputs = {}
        for s, v in m.outputs.items():
            if v == victim and rng.random() < 0.5:
                v = twin
            outputs[s] = v
        moore[sym] = MooreDFA(m.states, ha, m.initial, m.finals, trans, outputs)
    finals = set(a.finals) | ({twin} if victim in a.finals else set())
    return TreeAutomaton(SDTA, a.alphabet, states + [twin], finals, moore=moore,
                         leaf_symbols=a.leaf_symbols)


def canonical_form(m):
    """Structure of a DFA/Moore machine under BFS renaming; two machines are
    isomorphic iff their forms are equal."""
    read = stepwise(lambda s, c: m.delta.get((s, c)))
    order, edges = explore([m.initial], read(sorted(m.alphabet)))
    number = {s: i for i, s in enumerate(order)}
    finals = tuple(sorted(number[s] for s in m.finals if s in number))
    outs = ()
    if isinstance(m, MooreDFA):
        outs = tuple(sorted((number[s], m.outputs[s]) for s in m.finals if s in number))
    stray = len(m.states) - len(number)  # unreachable states still distinguish
    return (len(order), stray, tuple(edges), finals, outs)
