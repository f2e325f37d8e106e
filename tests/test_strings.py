import collections
import itertools
import pickle
import random

import pytest

import uta.analysis
import uta.strings
from uta import (DFA, NFA, AlphabetMismatchError, MooreDFA, NTA_DFA, OverlapError,
                 TreeAutomaton, UnknownSymbolError, UtaError, canonical_sdta,
                 check_semantic_determinism,
                 determinize, dtadfa_to_sdta, gen_lemma34, gen_thm41, marked_union,
                 minimize_dfa, minimize_moore, nta_to_dtadfa, nta_to_sdta, prune_reachable)
from uta.docs import render_automaton
from uta.strings import (SubsetMachine, coarsest_partition, explore, first_overlap, reading,
                         shared_structures)

from oracles import (delta_step, explore_by_step, marked_union_by_product, successor,
                     walk_by_column)
from randgen import canonical_form, rand_dta_nfa, rand_dtadfa, rand_nta, rand_sdta


def nfa_b_then_one(n):
    """NFA for (a+b)* b (a+b)^n with n+2 states."""
    states = [f"n{i}" for i in range(n + 2)]
    trans = [("n0", "a", "n0"), ("n0", "b", "n0"), ("n0", "b", "n1")]
    for i in range(1, n + 1):
        trans += [(f"n{i}", "a", f"n{i+1}"), (f"n{i}", "b", f"n{i+1}")]
    return NFA(states, "ab", ["n0"], [f"n{n+1}"], trans)


def residue_dfa(modulus, residue, sym="a"):
    states = [f"r{j}" for j in range(modulus)]
    trans = [(f"r{j}", sym, f"r{(j+1) % modulus}") for j in range(modulus)]
    return DFA(states, [sym], "r0", {f"r{residue % modulus}"}, trans)


def words(alphabet, upto):
    for n in range(upto + 1):
        yield from itertools.product(sorted(alphabet), repeat=n)


def language(machine, upto):
    return {w for w in words(machine.alphabet, upto) if machine.accepts(w)}


class TestAcceptance:
    def test_direct_run(self):
        m = nfa_b_then_one(1)
        assert m.accepts("ba")
        assert not m.accepts("ab")

    def test_empty_word_with_initial_final_overlap(self):
        m = NFA(["s"], ["a"], ["s"], ["s"], [])
        assert m.accepts("")

    def test_unknown_symbol_raises_also_after_the_run_dies(self):
        d = DFA(["s", "t"], "ab", "s", ["t"], [("s", "a", "t")])
        moore = MooreDFA(["s", "t"], "ab", "s", ["t"], [("s", "a", "t")], {"t": "out"})
        # "b" kills the run before "z" is read; "a" keeps it alive
        for word in ("bz", "az"):
            for check in (d.accepts, d.to_nfa().accepts, moore.accepts, moore.output_of):
                with pytest.raises(UnknownSymbolError) as e:
                    check(word)
                assert e.value.symbol == "z"
        assert not d.accepts("b") and d.accepts("a") and d.to_nfa().accepts("a")
        assert moore.output_of("a") == "out" and moore.output_of("ab") is None


class TestDeterminize:
    def test_already_deterministic_keeps_reachable_count(self):
        d = residue_dfa(3, 0)
        out = determinize(d.to_nfa())
        assert out.size == 3

    def test_minimal_dfa_for_b_then_one_has_four_states(self):
        # oracle: residual classes of the language over words up to length 6,
        # distinguished by suffixes up to length 4
        m = nfa_b_then_one(1)
        member = lambda w: len(w) >= 2 and w[-2] == "b"
        classes = set()
        for w in words("ab", 6):
            classes.add(tuple(member(w + s) for s in words("ab", 4)))
        live = sum(1 for c in classes if any(c))
        assert live == 4
        assert minimize_dfa(determinize(m)).size == 4

    def test_preserves_language_exhaustively(self):
        # every word up to length 8 over a 3-symbol alphabet
        m = NFA(["u", "v", "w"], "abc", ["u"], ["w"],
                [("u", "a", "u"), ("u", "b", "v"), ("v", "a", "w"),
                 ("v", "c", "u"), ("w", "b", "w"), ("u", "a", "w")])
        d = determinize(m)
        for w in words("abc", 8):
            assert m.accepts(w) == d.accepts(w)

    def test_subset_names_are_canonical(self):
        m = nfa_b_then_one(1)
        d = determinize(m)
        assert d.initial == "{n0}"
        assert "{n0,n1}" in d.states


class TestSteppingInterface:
    def test_dfa_steps_like_its_nfa(self):
        rng = random.Random(5)
        for _ in range(40):
            dfas = (list(rand_dtadfa(rng).horizontal.values())
                    + list(rand_sdta(rng).moore.values()))
            for d in dfas:
                n = d.to_nfa()
                assert d.initials == n.initials
                states, syms = sorted(d.states), sorted(d.alphabet)
                for _ in range(5):
                    sub = frozenset(rng.sample(states, rng.randint(0, len(states))))
                    some = rng.sample(syms, rng.randint(0, len(syms)))
                    want = delta_step(d, sub, some)
                    assert _stepped(d, sub, some) == _stepped(n, sub, some) == want
                    for c in syms:
                        want = delta_step(n, sub, (c,))
                        assert _stepped(d, sub, (c,)) == _stepped(n, sub, (c,)) == want
                assert determinize(d) == determinize(n)


def _stepped(m, subset, letters) -> frozenset:
    """``SubsetMachine([m]).step`` on a set of state names, through the map
    between positions and names; its start is ``m``'s initial states."""
    sub = SubsetMachine([m])
    assert {sub.names[p] for p in sub.start} == m.initials
    at = {s: p for p, s in enumerate(sub.names)}
    stepped = sub.step(frozenset(map(at.__getitem__, subset)), letters)
    return frozenset(map(sub.names.__getitem__, stepped))


class TestMinimizeDfa:
    def test_unreachable_state_removed(self):
        d = DFA(["s", "t", "junk"], ["b"], "s", ["t"], [("s", "b", "t")])
        assert minimize_dfa(d).size == 2

    def test_even_cycle(self):
        assert minimize_dfa(residue_dfa(2, 0, "b")).size == 2

    def test_idempotent_up_to_isomorphism(self):
        d = minimize_dfa(determinize(nfa_b_then_one(2)))
        assert canonical_form(d) == canonical_form(minimize_dfa(d))

    def test_dead_states_dropped(self):
        d = DFA(["s", "t", "dead"], ["a"], "s", ["t"],
                [("s", "a", "t"), ("t", "a", "dead"), ("dead", "a", "dead")])
        out = minimize_dfa(d)
        assert out.size == 2
        assert language(out, 5) == language(d, 5)

    def test_empty_language_collapses_to_one_state(self):
        d = DFA(["s", "t"], ["a"], "s", [], [("s", "a", "t")])
        out = minimize_dfa(d)
        assert out.size == 1 and not out.finals

    def test_states_pairwise_distinguishable(self):
        m = minimize_dfa(determinize(nfa_b_then_one(3)))
        # no two states accept the same residual language up to length 6
        residuals = {}
        for s in m.states:
            probe = DFA(m.states, m.alphabet, s, m.finals, list(m.transitions()))
            residuals[s] = frozenset(language(probe, 6))
        assert len(set(residuals.values())) == len(m.states)


class TestMinimizeMoore:
    def test_single_output_matches_plain_minimization(self):
        base = minimize_dfa(determinize(nfa_b_then_one(1)))
        moore = MooreDFA(base.states, base.alphabet, base.initial, base.finals,
                         list(base.transitions()), {s: "only" for s in base.finals})
        assert minimize_moore(moore).size == base.size

    def test_mod3_marked_union_needs_three_states(self):
        mu = marked_union([residue_dfa(3, i) for i in (1, 2, 0)])
        assert minimize_moore(mu).size == 3

    def test_idempotent(self):
        mu = minimize_moore(marked_union([residue_dfa(3, i) for i in (1, 2, 0)]))
        again = minimize_moore(mu)
        assert canonical_form(mu) == canonical_form(again)

    def test_distinct_outputs_block_merging(self):
        m = MooreDFA(["s", "t", "u"], ["a"], "s", ["t", "u"],
                     [("s", "a", "t"), ("t", "a", "u"), ("u", "a", "t")],
                     {"t": 1, "u": 2})
        out = minimize_moore(m)
        assert out.size == 3
        for w in words("a", 7):
            assert out.output_of(w) == m.output_of(w)

    def test_never_smaller_than_underlying_dfa_minimization(self):
        import random
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 6)
            states = [f"s{i}" for i in range(n)]
            trans = [(s, c, rng.choice(states)) for s in states for c in "ab"
                     if rng.random() < 0.85]
            finals = [s for s in states if rng.random() < 0.5]
            outputs = {s: rng.randint(1, 3) for s in finals}
            m = MooreDFA(states, "ab", "s0", finals, trans, outputs)
            plain = DFA(states, "ab", "s0", finals, trans)
            mm = minimize_moore(m)
            assert mm.size >= minimize_dfa(plain).size
            for w in words("ab", 6):
                assert mm.output_of(w) == m.output_of(w)


class TestDisjointness:
    def test_marker_suffixes_disjoint(self):
        alpha = frozenset("b01")
        d1 = DFA(["s0", "c1", "acc"], alpha, "s0", ["acc"],
                 [("s0", "b", "c1"), ("c1", "b", "s0"), ("s0", "1", "acc")])
        d2 = DFA(["t0", "t1", "t2", "m", "acc"], alpha, "t0", ["acc"],
                 [("t0", "b", "t1"), ("t1", "b", "t2"), ("t2", "b", "t0"),
                  ("t0", "1", "m"), ("m", "0", "acc")])
        # oracle: no shared word up to length 8
        shared = language(d1, 8) & language(d2, 8)
        assert not shared
        assert first_overlap([d1, d2]) is None

    def test_language_meets_itself(self):
        d = residue_dfa(2, 0)
        assert first_overlap([d, d]) == (0, 1, ())

    def test_anything_vs_empty(self):
        d = residue_dfa(2, 0)
        empty = DFA(["z"], ["a"], "z", [], [])
        assert first_overlap([d, empty]) is None

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            first_overlap([residue_dfa(2, 0, "a"), residue_dfa(2, 0, "b")])


def _reference_witness(a, b):
    """Test-only reference: the shortest word in the languages of both
    machines, as the overlap search found it before it ran over live-state
    rows, a breadth-first search over pairs of NFA states that sorts every
    successor set it visits."""
    if frozenset(a.alphabet) != frozenset(b.alphabet):
        raise AlphabetMismatchError(
            f"alphabets differ: {sorted(a.alphabet)} vs {sorted(b.alphabet)}")
    na, nb = [m if isinstance(m, NFA) else m.to_nfa() for m in (a, b)]
    start = [(p, q) for p in sorted(na.initials) for q in sorted(nb.initials)]
    parent = {pq: None for pq in start}
    queue = collections.deque(start)
    while queue:
        p, q = queue.popleft()
        if p in na.finals and q in nb.finals:
            word = []
            cur = (p, q)
            while parent[cur] is not None:
                cur, sym = parent[cur]
                word.append(sym)
            return tuple(reversed(word))
        for c in sorted(na.alphabet):
            for p2 in sorted(na.delta.get((p, c), ())):
                for q2 in sorted(nb.delta.get((q, c), ())):
                    if (p2, q2) not in parent:
                        parent[(p2, q2)] = ((p, q), c)
                        queue.append((p2, q2))
    return None


def _reference_first_overlap(machines):
    for i in range(len(machines)):
        for j in range(i + 1, len(machines)):
            w = _reference_witness(machines[i], machines[j])
            if w is not None:
                return i, j, w
    return None


def _random_machine(rng, alphabet="ab", most=3):
    """A partial DFA or an NFA of 1 to ``most`` states over ``alphabet``.
    Neither the state names nor the transitions come in sorted order, and
    the NFAs often have several initial states.  States that cannot reach a
    final state (dead states) are common in both."""
    states = rng.sample("pqrstuvw", rng.randint(1, most))
    finals = [s for s in states if rng.random() < 0.35]
    if rng.random() < 0.5:
        trans = [(s, c, rng.choice(states)) for s in states for c in alphabet
                 if rng.random() < 0.7]
        rng.shuffle(trans)
        return DFA(states, alphabet, states[0], finals, trans)
    trans = [(s, c, d) for s in states for c in alphabet for d in states
             if rng.random() < 0.35]
    rng.shuffle(trans)
    return NFA(states, alphabet, rng.sample(states, rng.randint(1, len(states))),
               finals, trans)


def _dead_states(m):
    """The states of ``m`` that cannot reach a final state."""
    dead = set()
    for start in m.states:
        seen, todo = {start}, [start]
        while todo:
            for t in delta_step(m, {todo.pop()}, m.alphabet) - seen:
                seen.add(t)
                todo.append(t)
        if not seen & m.finals:
            dead.add(start)
    return dead


class TestOverlapSearch:
    def pairs(self, seed, alphabet, most, count=600):
        rng = random.Random(seed)
        return [(_random_machine(rng, alphabet, most), _random_machine(rng, alphabet, most))
                for _ in range(count)]

    def test_witness_against_brute_force(self):
        found = disjoint = 0
        for a, b in self.pairs(23, "ab", 3):
            horizon = a.size * b.size  # the pair product has at most this many states
            shared = language(a, horizon) & language(b, horizon)
            got = first_overlap([a, b])
            if got is None:
                assert not shared
                disjoint += 1
            else:
                i, j, w = got
                assert (i, j) == (0, 1)
                assert a.accepts(w) and b.accepts(w)
                assert len(w) == min(map(len, shared))
                found += 1
        assert found >= 100 and disjoint >= 100

    def test_same_word_as_the_nfa_search(self):
        rng = random.Random(29)
        kinds = collections.Counter()
        for pairs in (self.pairs(23, "ab", 3), self.pairs(37, "abc", 6)):
            for a, b in pairs:
                assert first_overlap([a, b]) == _reference_first_overlap([a, b])
                for m in (a, b):
                    kinds["nfa" if isinstance(m, NFA) else "dfa"] += 1
                    kinds["several initials"] += len(m.initials) > 1
                    dead = _dead_states(m)
                    kinds["dead state"] += bool(dead)
                    # dead initial pairs enter the search, and must change nothing
                    kinds["dead initial"] += bool(dead & m.initials)
            machines = [m for pair in pairs for m in pair]
            for _ in range(200):
                group = rng.sample(machines, rng.randint(2, 6))
                got = first_overlap(group)
                assert got == _reference_first_overlap(group)
                kinds["overlap" if got else "disjoint"] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_first_mismatching_pair_raises(self):
        rng = random.Random(31)
        outcomes = collections.Counter()
        for _ in range(100):
            group = [_random_machine(rng, rng.choice(["ab", "ab", "abc"]))
                     for _ in range(rng.randint(2, 5))]
            try:
                want = _reference_first_overlap(group)
            except AlphabetMismatchError as err:
                with pytest.raises(AlphabetMismatchError) as got:
                    first_overlap(group)
                assert str(got.value) == str(err)
                outcomes["mismatch"] += 1
            else:
                assert first_overlap(group) == want
                outcomes["searched"] += 1
        assert min(outcomes.values()) >= 20, outcomes


class TestConstructorErrors:
    @pytest.mark.parametrize("initials, transitions, message", [
        (set(), [], "initial state set must be non-empty"),
        ({"t"}, [], "initials/finals must be declared states"),
        ({"s"}, [("s", "a", "t")], "transition (s,a,t) uses undeclared state"),
        ({"s"}, [("s", "b", "s")], "transition (s,b,s) uses undeclared symbol"),
        ({"s"}, [("s", "b", "t")], "transition (s,b,t) uses undeclared state"),
    ])
    def test_nfa(self, initials, transitions, message):
        with pytest.raises(ValueError) as err:
            NFA({"s"}, {"a"}, initials, set(), transitions)
        assert str(err.value) == message

    def test_dfa_undeclared_symbol(self):
        with pytest.raises(ValueError) as err:
            DFA({"s"}, {"a"}, "s", set(), [("s", "b", "s")])
        assert str(err.value) == "transition (s,b,s) uses undeclared symbol"

    def test_marked_union(self):
        with pytest.raises(ValueError) as err:
            marked_union([])
        assert str(err.value) == "marked_union needs at least one part"
        with pytest.raises(AlphabetMismatchError) as err:
            marked_union([residue_dfa(2, 0), DFA({"s"}, {"a", "b"}, "s", {"s"}, [])])
        assert str(err.value) == "part 2 has a different alphabet"


class TestMarkedUnion:
    def test_mod3_gap_against_plain_union(self):
        parts = [residue_dfa(3, i) for i in (1, 2, 0)]
        mu = minimize_moore(marked_union(parts))
        assert mu.size == 3
        union = NFA([f"{p}{s}" for p in "uvw" for s in range(3)], ["a"],
                    ["u0", "v0", "w0"], ["u1", "v2", "w0"],
                    [(f"{p}{s}", "a", f"{p}{(s+1) % 3}") for p in "uvw" for s in range(3)])
        assert minimize_dfa(determinize(union)).size == 1

    def test_outputs_identify_parts(self):
        parts = [residue_dfa(3, i) for i in (1, 2, 0)]
        mu = marked_union(parts)
        for w in words("a", 9):
            expect = next((i + 1 for i, p in enumerate(parts) if p.accepts(w)), None)
            assert mu.output_of(w) == expect

    def test_single_part_constant_output(self):
        (d,) = [residue_dfa(2, 0)]
        mu = marked_union([d])
        assert set(mu.outputs.values()) == {1}
        for w in words("a", 8):
            assert mu.accepts(w) == d.accepts(w)

    def test_overlap_reported_with_indices(self):
        with pytest.raises(OverlapError) as err:
            marked_union([residue_dfa(2, 0), residue_dfa(4, 0)])
        assert err.value.indices == (1, 2)

    def test_overlap_named_as_check_semantic_determinism_names_it(self):
        # the same machines as one symbol's horizontal acceptors, state q<i>
        # owning part i + 1, must report the same first pair and word
        rng = random.Random(11)
        overlapping = 0
        for _ in range(200):
            names = [f"q{i}" for i in range(rng.randint(2, 5))]
            parts = []
            for _ in names:
                states = [f"s{k}" for k in range(rng.randint(1, 3))]
                trans = [(s, c, rng.choice(states)) for s in states for c in names
                         if rng.random() < 0.7]
                finals = [s for s in states if rng.random() < 0.4]
                parts.append(DFA(states, names, "s0", finals, trans))
            auto = TreeAutomaton(NTA_DFA, ["a"], names, [],
                                 horizontal={(q, "a"): m for q, m in zip(names, parts)})
            report = check_semantic_determinism(auto)
            try:
                marked_union(parts)
            except OverlapError as err:
                i, j = err.indices
                assert not report.ok
                assert report.pair == (names[i - 1], names[j - 1])
                assert report.witness == err.witness
                overlapping += 1
            else:
                assert report.ok
        assert overlapping >= 50

    def test_map_outputs_keeps_the_machine(self):
        mu = marked_union([residue_dfa(3, i) for i in (1, 2, 0)])
        named = mu.map_outputs(str)
        assert named.outputs == {s: str(v) for s, v in mu.outputs.items()}
        assert (named.states, named.initial, named.finals, named.delta) == \
            (mu.states, mu.initial, mu.finals, mu.delta)

    def test_no_reachable_state_accepts_twice(self):
        parts = [residue_dfa(5, i) for i in (0, 2, 4)]
        mu = marked_union(parts)  # the product walk's overlap check guards this
        assert mu.size >= 5

    def test_a_part_that_is_no_dfa_is_named(self):
        nfa = residue_dfa(3, 1).to_nfa()
        with pytest.raises(ValueError, match="^part 2 is not a DFA$"):
            marked_union([residue_dfa(3, 0), nfa])
        with pytest.raises(ValueError, match="^part 1 is not a DFA$"):
            marked_union([nfa, residue_dfa(3, 0)])


def _disjoint_families():
    """Disjoint parts: residues, each symbol's acceptors of lemma 3.4
    (2,3,5,7), and the 15 siblings of one structure that theorem 4.1 (4)
    gives as a dta-dfa."""
    yield [residue_dfa(3, i) for i in (1, 2, 0)]
    lemma = gen_lemma34((2, 3, 5, 7))[0]
    for sym in sorted(lemma.alphabet):
        if lemma.machines_for(sym):
            yield [m for _, m in lemma.machines_for(sym)]
    yield [m for _, m in nta_to_dtadfa(gen_thm41(4)[0])[0].machines_for("a")]


def _overlapping_families():
    """The disjoint families with one part's language put into another's,
    by a copy or, for siblings, by a final shared, and overlapping residues."""
    yield [residue_dfa(2, 0), residue_dfa(4, 0)]
    yield [residue_dfa(3, 1), residue_dfa(5, 0), residue_dfa(6, 4)]
    for parts in _disjoint_families():
        last = len(parts) - 1
        yield parts[:last] + [parts[0]]
        if len(shared_structures(parts)) == 1:
            yield parts[:1] + [parts[1].with_finals(parts[1].finals | parts[last].finals)] \
                + parts[2:]


class TestMarkedUnionDecidesDisjointness:
    """The product walk decides disjointness; ``first_overlap`` runs only to
    name the witness of an overlap."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []

        def counting(machines):
            calls.append(len(machines))
            return first_overlap(machines)

        monkeypatch.setattr(uta.strings, "first_overlap", counting)
        return calls

    def test_disjoint_parts_are_not_searched(self, searches):
        families = list(_disjoint_families())
        for parts in families:
            mu = marked_union(parts)
            assert set(mu.outputs.values()) <= set(range(1, len(parts) + 1))
        assert searches == [] and len(families) == 3

    def test_overlapping_parts_are_searched_once(self, searches):
        families = list(_overlapping_families())
        for parts in families:
            i, j, w = first_overlap(parts)
            searches.clear()
            with pytest.raises(OverlapError) as err:
                marked_union(parts)
            assert searches == [len(parts)]
            assert (err.value.indices, err.value.witness) == ((i + 1, j + 1), w)
        assert len(families) == 7


def round_partition(keys, successors) -> dict:
    """Test oracle: Moore-style refinement by rounds, the plain form of
    ``coarsest_partition``.  ``keys`` maps each element to a key, and
    ``successors`` to a tuple of elements; each round re-signs every element
    by its block and its successors' blocks, until a round splits nothing.
    Returns element -> block number, blocks numbered in the order their
    first member appears in ``keys``."""
    ids: dict = {}
    block = {s: ids.setdefault(k, len(ids)) for s, k in keys.items()}
    while True:
        count = len(ids)
        ids = {}
        block = {s: ids.setdefault((b, *map(block.__getitem__, successors[s])), len(ids))
                 for s, b in block.items()}
        if len(ids) == count:
            return block


def agrees_with_rounds(keys, rows):
    worklist = coarsest_partition(keys, rows)
    rounds = round_partition(dict(enumerate(keys)), dict(enumerate(map(tuple, rows))))
    assert worklist == [rounds[i] for i in range(len(keys))]
    return worklist


def random_graph(rng):
    """Keys and rows over up to 30 elements: rows of 0 to 5 successors, some
    repeated, some self-loops, some empty, and a few keys met only once."""
    n = rng.randint(1, 30)
    keys = [rng.choice("aab") if rng.random() < 0.85 else f"only{i}" for i in range(n)]
    width = rng.randint(0, 3)
    rows = []
    for i in range(n):
        row = [rng.randrange(n) for _ in range(width + (rng.random() < 0.1))]
        if row and rng.random() < 0.2:
            row[rng.randrange(len(row))] = i
        if row and rng.random() < 0.2:
            row.append(row[0])
        rows.append([] if rng.random() < 0.1 else row)
    return keys, rows


def mixed_width_graph(rng):
    """Keys and rows over up to 30 elements whose rows hold 0, 1 or 3
    successors: per key one of those lengths or a mix of all three, so the
    lengths differ within keys and across them.  A row is signed by ``None``,
    one block id or a tuple of three."""
    n = rng.randint(1, 30)
    keys = [rng.choice("abc") for _ in range(n)]
    widths = {k: rng.choice([(0,), (1,), (3,), (0, 1, 3)]) for k in "abc"}
    return keys, [[rng.randrange(n) for _ in range(rng.choice(widths[k]))] for k in keys]


class TestCoarsestPartition:
    def test_worklist_agrees_with_rounds_on_random_graphs(self):
        rng = random.Random(15)
        seen = collections.Counter()
        for _ in range(600):
            keys, rows = random_graph(rng)
            block = agrees_with_rounds(keys, rows)
            seen["repeated"] += any(len(set(r)) < len(r) for r in rows)
            seen["self-loop"] += any(i in r for i, r in enumerate(rows))
            seen["empty row"] += any(not r for r in rows)
            seen["singleton"] += any(n == 1 for n in collections.Counter(block).values())
            seen["split"] += len(set(block)) > len(set(keys))
        assert min(seen.values()) >= 100, seen

    def test_rows_of_zero_one_and_three_entries(self):
        rng = random.Random(23)
        seen = collections.Counter()
        for _ in range(400):
            keys, rows = mixed_width_graph(rng)
            block = agrees_with_rounds(keys, rows)
            lengths = {}
            for k, row in zip(keys, rows):
                lengths.setdefault(k, set()).add(len(row))
            seen["mixed within a key"] += any(len(w) > 1 for w in lengths.values())
            seen["differ across keys"] += len({frozenset(w) for w in lengths.values()}) > 1
            seen["split"] += len(set(block)) > len(set(keys))
        assert min(seen.values()) >= 100, seen

    def test_cycle_with_one_marked_element_splits_into_singletons(self):
        # a cycle with one distinguished element: every element ends alone
        for n in (1, 2, 17, 64):
            keys = [i == 0 for i in range(n)]
            assert agrees_with_rounds(keys, [[(i + 1) % n] for i in range(n)]) == list(range(n))

    @pytest.mark.parametrize("make", [
        lambda: nta_to_sdta(gen_thm41(3)[0])[0],
        lambda: nta_to_sdta(gen_thm41(4)[0])[0],
        lambda: dtadfa_to_sdta(gen_lemma34((2, 3, 5, 7))[0])[0],
        lambda: dtadfa_to_sdta(gen_lemma34((3, 4, 5, 7))[0])[0],
    ], ids=["thm41(3)", "thm41(4)", "lemma34(2,3,5,7)", "lemma34(3,4,5,7)"])
    def test_worklist_agrees_with_rounds_in_canonical_sdta(self, make, monkeypatch):
        inputs = []

        def recording(keys, rows):
            inputs.append((keys, rows))
            return coarsest_partition(keys, rows)

        monkeypatch.setattr(uta.analysis, "coarsest_partition", recording)
        canonical_sdta(make())
        (keys, rows), = inputs
        assert len(keys) > 40
        agrees_with_rounds(keys, rows)

    def test_canonical_sdta_rows_hold_only_transitions_that_exist(self, monkeypatch):
        inputs = []

        def recording(keys, rows):
            inputs.append(rows)
            return coarsest_partition(keys, rows)

        monkeypatch.setattr(uta.analysis, "coarsest_partition", recording)
        a = prune_reachable(nta_to_sdta(gen_thm41(5)[0])[0])
        canonical_sdta(a)
        (rows,) = inputs
        transitions = sum(len(m.delta) for m in a.moore.values())
        outputs = sum(len(m.outputs) for m in a.moore.values())
        # dense rows, one entry per horizontal state or letter, held 152 295
        assert transitions == 2342 and sum(map(len, rows)) <= 2 * transitions + outputs


def _string_machines(rng):
    """DFAs, Moore machines and NFAs from the seeded tree-automaton
    generators, whose horizontal alphabets are vertical state names."""
    out = list(rand_dtadfa(rng).horizontal.values()) + list(rand_sdta(rng).moore.values())
    out += list(rand_nta(rng).horizontal.values()) + list(rand_dta_nfa(rng).horizontal.values())
    return out


def _letter_orders(rng, m):
    """Sorted, shuffled, partial, and with letters outside the alphabet."""
    letters = sorted(m.alphabet)
    shuffled = rng.sample(letters, len(letters))
    partial = rng.sample(letters, rng.randint(0, len(letters)))
    foreign = rng.sample(letters + ["zz", "q9", "a"], rng.randint(1, len(letters) + 3))
    return [letters, shuffled, partial, foreign]


def _compiled_walk(m, letters):
    """``explore`` over the compiled form from the initial states, with the
    positions turned back into state names."""
    form = m.compiled()
    order, edges = explore(form.initials, reading(form.columns, letters))
    return [form.states[i] for i in order], edges


def _nfa_walk_by_step(m, letters):
    """Test oracle: breadth-first search over an NFA's states from its
    sorted initial states, reading ``letters`` in order and each letter's
    successors in sorted order."""
    order = sorted(m.initials)
    index = {s: i for i, s in enumerate(order)}
    edges = []
    for i, s in enumerate(order):
        for c in letters:
            for t in sorted(m.delta.get((s, c), ())):
                if t not in index:
                    index[t] = len(order)
                    order.append(t)
                edges.append((i, c, index[t]))
    return order, edges


class TestCompiledForm:
    def test_walks_match_dict_stepping(self):
        rng = random.Random(41)
        seen = collections.Counter()
        for _ in range(60):
            for m in _string_machines(rng):
                for letters in _letter_orders(rng, m):
                    if isinstance(m, NFA):
                        want = _nfa_walk_by_step(m, letters)
                    else:
                        want = explore_by_step(m.initial, successor(m), letters)
                    assert _compiled_walk(m, letters) == want
                    seen[type(m).__name__] += 1
                    seen["foreign letter"] += not set(letters) <= m.alphabet
                    seen["unsorted"] += letters != sorted(letters)
        assert min(seen.values()) >= 200, seen

    def test_compiled_once_and_positions_sort_like_names(self):
        m = rand_sdta(random.Random(2)).moore["a"]
        form = m.compiled()
        assert m.compiled() is form
        assert form.states == sorted(m.states)
        assert all(form.index[s] == i for i, s in enumerate(form.states))
        edges = [(form.states[i], c, form.states[j])
                 for c, column in form.columns.items() for i, j in column]
        assert sorted(edges) == list(m.transitions())

    def test_pickling_drops_the_compiled_form(self):
        rng = random.Random(43)
        for m in _string_machines(rng) + [nfa_b_then_one(3), residue_dfa(3, 1)]:
            before = pickle.dumps(m)
            letters = sorted(m.alphabet)
            walked = _compiled_walk(m, letters)
            assert pickle.dumps(m) == before
            again = pickle.loads(before)
            assert again == m and type(again) is type(m)
            assert "_form" not in vars(again)
            assert _compiled_walk(again, letters) == walked

    def test_equality_goes_by_kind_and_every_field_but_the_compiled_form(self):
        trans = [("s", "a", "t")]
        d = DFA(["s", "t"], "ab", "s", ["t"], trans)
        moore = MooreDFA(["s", "t"], "ab", "s", ["t"], trans, {"t": 1})
        twin = MooreDFA(["s", "t"], "ab", "s", ["t"], trans, {"t": 1})
        twin.compiled()
        assert moore == twin and hash(moore) == hash(twin)
        assert d != moore and d.to_nfa() != d
        assert moore != moore.map_outputs(str)
        assert d != DFA(["s", "t"], "ab", "t", ["t"], trans)
        assert d.to_nfa() != NFA(["s", "t"], "ab", ["s", "t"], ["t"], trans)
        assert [repr(m) for m in (d.to_nfa(), d, moore)] == [
            "<NFA 2 states, 1 edges>", "<DFA 2 states, 1 edges>", "<MooreDFA 2 states, 1 edges>"]

    def test_siblings_differ_only_in_their_finals(self):
        trans = [("s", "a", "t"), ("t", "b", "s")]
        moore = MooreDFA(["s", "t"], "ab", "s", ["t"], trans, {"t": 1})
        for m in (moore, DFA(["s", "t"], "ab", "s", ["t"], trans)):
            twin = m.with_finals(["s"])
            assert type(twin) is DFA and twin == DFA(["s", "t"], "ab", "s", ["s"], trans)
            assert twin.delta is m.delta and twin.compiled() is m.compiled()
            assert twin.accepts("ab") and not twin.accepts("a") and m.accepts("a")
            assert shared_structures([m, twin, m.with_finals([])]) == [[0, 1, 2]]
            again = pickle.loads(pickle.dumps(twin))
            assert again == twin and "_form" not in vars(again)
            with pytest.raises(ValueError, match="finals must be declared states"):
                m.with_finals(["s", "u"])


def _disjoint_parts(rng):
    """Copies of one master DFA over one alphabet, its finals split among
    them, with states renamed per copy.  Each copy drops some transitions,
    which only shrinks its language, so the copies stay disjoint."""
    alphabet = rng.sample("abc", rng.randint(1, 3))
    states = [f"g{i}" for i in range(rng.randint(1, 6))]
    trans = [(s, c, rng.choice(states)) for s in states for c in alphabet]
    count = rng.randint(1, 4)
    owner = {s: rng.randrange(count + 1) for s in states}
    parts = []
    for i in range(count):
        name = {s: f"{s}.{i}" for s in states}
        parts.append(DFA(name.values(), alphabet, name["g0"],
                         {name[s] for s in states if owner[s] == i},
                         [(name[s], c, name[d]) for s, c, d in trans if rng.random() < 0.85]))
    return parts


class TestMarkedUnionAgainstTheNameProduct:
    def test_equal_to_the_product_over_state_names(self):
        rng = random.Random(47)
        sizes = collections.Counter()
        for _ in range(300):
            parts = _disjoint_parts(rng)
            assert first_overlap(parts) is None
            mu = marked_union(parts)
            assert mu == marked_union_by_product(parts)
            sizes["parts > 1"] += len(parts) > 1
            sizes["dead component"] += any("-" in s for s in mu.states)
        assert min(sizes.values()) >= 50, sizes

    def test_first_overlap_as_the_reference_search(self):
        rng = random.Random(53)
        found = collections.Counter()
        for _ in range(300):
            parts = _disjoint_parts(rng)
            if rng.random() < 0.5:
                parts.append(rng.choice(parts))  # a part overlaps itself unless empty
            rng.shuffle(parts)
            got = first_overlap(parts)
            assert got == _reference_first_overlap(parts)
            found["overlap" if got else "disjoint"] += 1
        assert min(found.values()) >= 50, found


def _residues(m):
    """The parts ``uta witness marked-union --m m`` builds: the unary residue
    DFAs, each built on its own, so they have equal ``delta`` but are not
    siblings."""
    states = [f"r{j}" for j in range(m)]
    trans = [(f"r{j}", "a", f"r{(j + 1) % m}") for j in range(m)]
    return [DFA(states, ["a"], "r0", {f"r{i % m}"}, trans) for i in range(1, m + 1)]


def _two_sibling_groups_and_one_part(rng):
    """Disjoint parts of three structures, shuffled: the finals of two
    ``_disjoint_parts`` copies split among ``with_finals`` siblings, and a
    third copy as it is; None if the draw has fewer than three copies."""
    parts = _disjoint_parts(rng)
    if len(parts) < 3:
        return None
    mixed = [parts[2]]
    for p in parts[:2]:
        finals = sorted(p.finals)
        cut = rng.randint(0, len(finals))
        mixed += [p.with_finals(finals[:cut]), p.with_finals(finals[cut:])]
    rng.shuffle(mixed)
    return mixed


class TestWalkOverStructures:
    """A walk of DFAs steps a tuple of one position per structure; a walk
    with an NFA steps sets, as ``determinize`` of the touchstone does."""

    def test_dfa_walks_hold_one_coordinate_per_structure(self):
        siblings = [m for _, m in nta_to_dtadfa(gen_thm41(4)[0])[0].machines_for("a")]
        parts = [m for _, m in gen_lemma34((2, 3, 5, 7))[0].machines_for("a")]
        assert len(siblings) == 15 and len(parts) == 4
        for machines, width in ((siblings, 1), (parts, 4), (_residues(5), 1)):
            sub = SubsetMachine(machines)
            order, _ = sub.walk()
            assert len(sub.groups) == width
            assert all(type(s) is tuple and len(s) == width for s in order)
            assert all(min(s) < len(sub.names) for s in order)  # the dead state is left out

    def test_an_nfa_walk_steps_sets(self):
        for machines in ([nfa_b_then_one(2)], [residue_dfa(3, 0).to_nfa(), residue_dfa(3, 1)]):
            order, _ = SubsetMachine(machines).walk()
            assert all(type(s) is frozenset and s for s in order)

    def test_tuples_walk_as_sets_do(self):
        rng = random.Random(79)
        seen = collections.Counter()
        for _ in range(300):
            parts = _two_sibling_groups_and_one_part(rng) or _disjoint_parts(rng)
            sub = SubsetMachine(parts)
            order, edges = sub.walk()
            as_sets = SubsetMachine([p.to_nfa() for p in parts]).walk()
            dead = len(sub.names)
            assert ([frozenset(p for p in s if p != dead) for s in order], edges) == as_sets
            seen[f"{len(sub.groups)} structures"] += 1
            seen["siblings"] += len(sub.groups) < len(parts)
        assert min(seen[k] for k in ("1 structures", "3 structures", "siblings")) >= 30, seen

    def test_marked_union_is_the_name_product_on_shared_structures(self):
        rng = random.Random(83)
        thm41 = nta_to_dtadfa(gen_thm41(3)[0])[0]
        families = [[m for _, m in thm41.machines_for("a")]]
        families += [_residues(m) for m in range(1, 8)]
        families += [mixed for _ in range(200) if (mixed := _two_sibling_groups_and_one_part(rng))]
        for parts in families:
            assert marked_union(parts) == marked_union_by_product(parts)
        assert len(families[0]) == 7 and len(SubsetMachine(families[0]).groups) == 1
        assert all(len(SubsetMachine(p).groups) == 1 for p in families[1:8])
        assert len(families) >= 58
        assert all(len(SubsetMachine(p).groups) == 3 for p in families[8:])


class TestLiveLetterWalk:
    """A DFA walk steps a tuple only on the letters its positions read; the
    walk through every letter's dense column (``walk_by_column``) is the
    reference for its states and edges in order, for the marked unions and
    SDTAs built on it, and for the pair and word an ``OverlapError`` names."""

    @staticmethod
    def _by_both_walks(monkeypatch, f, *args) -> list:
        """What ``f(*args)`` gives, rendered, by the library's walk and then
        by the column walk; an ``OverlapError`` as its pair and word."""
        got = []
        for walk in (SubsetMachine.walk, walk_by_column):
            with monkeypatch.context() as patch:
                patch.setattr(SubsetMachine, "walk", walk)
                try:
                    out = f(*args)
                except OverlapError as err:
                    got.append((err.indices, err.witness))
                    continue
            got.append(render_automaton(out.map_outputs(str) if isinstance(out, MooreDFA)
                                        else out[0]))
        return got

    def _dtadfas(self):
        rng = random.Random(151)
        yield from (rand_dtadfa(rng) for _ in range(150))
        yield from (gen_lemma34(k)[0] for k in ((2, 3), (2, 3, 5), (2, 3, 5, 7), (3, 4, 5, 7)))
        yield from (nta_to_dtadfa(gen_thm41(n)[0])[0] for n in (2, 3, 4))

    def test_marked_unions_and_sdtas_render_as_by_the_column_walk(self, monkeypatch):
        seen = collections.Counter()
        for a in self._dtadfas():
            new, old = self._by_both_walks(monkeypatch, dtadfa_to_sdta, a)
            assert new == old
            for sym in sorted(a.alphabet):
                if parts := [m for _, m in a.machines_for(sym)]:
                    assert SubsetMachine(parts).walk() == walk_by_column(SubsetMachine(parts))
                    new, old = self._by_both_walks(monkeypatch, marked_union, parts)
                    assert new == old
                    seen["unions"] += 1
                    seen["several structures"] += len(shared_structures(parts)) > 1
        assert seen["unions"] >= 200 and seen["several structures"] >= 50, seen

    def test_overlaps_keep_their_pair_and_word(self, monkeypatch):
        rng = random.Random(157)
        families = list(_overlapping_families())
        for _ in range(200):  # disjoint copies, half of them with one copy twice
            parts = _disjoint_parts(rng)
            if rng.random() < 0.5:
                parts.insert(rng.randint(0, len(parts)), rng.choice(parts))
            families.append(parts)
        seen = collections.Counter()
        for parts in families:
            assert SubsetMachine(parts).walk() == walk_by_column(SubsetMachine(parts))
            new, old = self._by_both_walks(monkeypatch, marked_union, parts)
            assert new == old
            seen["overlap" if type(new) is tuple else "disjoint"] += 1
        assert min(seen.values()) >= 60, seen


class TestGeneratedNamesDoNotClash:
    """A state name that holds a separator could make two generated names
    equal; the construction refuses such input instead of merging states."""

    def test_determinize(self):
        trans = [("s", "u", "a"), ("s", "u", "b"), ("s", "v", "a,b")]
        nfa = NFA(["s", "a", "b", "a,b"], "uv", ["s"], ["a,b"], trans)
        loops = NFA(nfa.states, "uv", ["s"], ["a,b"], trans + [("a", "u", "a"), ("a,b", "u", "s")])
        for m in (nfa, loops):
            with pytest.raises(UtaError, match=r"^two different states would both be named "
                                               r"'\{a,b\}'$"):
                determinize(m)
        # a separator is no fault while the names stay apart
        apart = NFA(["s", "a,b"], "u", ["s"], ["a,b"], [("s", "u", "a,b")])
        assert determinize(apart).states == {"{s}", "{a,b}"}

    def test_marked_union(self):
        one = DFA(["i", "a|b", "a"], "uv", "i", ["a|b"], [("i", "u", "a|b"), ("i", "v", "a")])
        two = DFA(["i", "c", "b|c"], "uv", "i", ["b|c"], [("i", "u", "c"), ("i", "v", "b|c")])
        with pytest.raises(UtaError, match=r"^two different states would both be named "
                                           r"'\(a\|b\|c\)'$"):
            marked_union([one, two])
        assert marked_union([one, one.with_finals([])]).output_of("u") == 1


def _copy(m, finals, extra=()):
    """``m`` with its finals replaced, and ``extra`` states declared that no
    transition touches; equal delta and initials."""
    trans = list(m.transitions())
    if isinstance(m, NFA):
        return NFA(m.states | set(extra), m.alphabet, m.initials, finals, trans)
    return DFA(m.states | set(extra), m.alphabet, m.initial, finals, trans)


def _split_copies(rng, alphabet="ab", most=5):
    """2 to 5 copies of one random machine, each final of it given to at
    most one copy; DFA copies are disjoint, NFA copies may meet."""
    m = _random_machine(rng, alphabet, most)
    count = rng.randint(2, 5)
    owner = {s: rng.randrange(count + 1) for s in m.states}
    return m, [_copy(m, {s for s in m.finals if owner[s] == i}) for i in range(count)]


class TestSharedStructureSearch:
    """``first_overlap`` searches machines of one structure together; the
    result must be the pair-by-pair reference search's."""

    def test_copies_with_split_finals(self):
        rng = random.Random(67)
        seen = collections.Counter()
        for _ in range(300):
            m, copies = _split_copies(rng)
            got = first_overlap(copies)
            assert got == _reference_first_overlap(copies)
            assert shared_structures(copies) == [list(range(len(copies)))]
            if isinstance(m, DFA):
                assert got is None
            seen["dfa" if isinstance(m, DFA) else "nfa"] += 1
        assert min(seen.values()) >= 100, seen

    def test_copies_sharing_one_final(self):
        rng = random.Random(71)
        seen = collections.Counter()
        for _ in range(300):
            m, copies = _split_copies(rng)
            shared = rng.choice(sorted(m.states))
            i, j = rng.sample(range(len(copies)), 2)
            for k in (i, j):
                copies[k] = _copy(m, copies[k].finals | {shared})
            got = first_overlap(copies)
            assert got == _reference_first_overlap(copies)
            seen["overlap" if got else "disjoint"] += 1
        assert seen["overlap"] >= 100 and seen["disjoint"] >= 20, seen

    def test_equal_delta_and_initials_but_other_declared_states(self):
        rng = random.Random(73)
        seen = collections.Counter()
        for _ in range(300):
            m, copies = _split_copies(rng)
            for k in rng.sample(range(len(copies)), rng.randint(1, len(copies))):
                extra = rng.sample(["x0", "x1", "x2"], rng.randint(1, 2))
                copies[k] = _copy(m, copies[k].finals | set(extra[:rng.randint(0, 1)]),
                                  extra)
            got = first_overlap(copies)
            assert got == _reference_first_overlap(copies)
            seen["groups"] += len(shared_structures(copies)) > 1
            seen["overlap" if got else "disjoint"] += 1
        assert seen["groups"] >= 250 and min(seen.values()) >= 20, seen

    def test_groups_interleaved_with_unrelated_machines(self):
        rng = random.Random(79)
        seen = collections.Counter()
        for _ in range(400):
            alphabet = rng.choice(["ab", "abc"])
            groups = []
            for _ in range(rng.randint(2, 3)):
                m, copies = _split_copies(rng, alphabet, 4)
                if rng.random() < 0.5:
                    k = rng.randrange(len(copies))
                    copies[k] = _copy(m, copies[k].finals | {rng.choice(sorted(m.states))})
                groups.append(copies)
            machines = [m for g in groups for m in g]
            machines += [_random_machine(rng, alphabet, 3) for _ in range(rng.randint(0, 3))]
            rng.shuffle(machines)
            got = first_overlap(machines)
            assert got == _reference_first_overlap(machines)
            where = [[machines.index(m) for m in g] for g in groups[:2]]
            seen["both orders"] += (min(where[0]) < max(where[1])
                                    and min(where[1]) < max(where[0]))
            seen["overlap" if got else "disjoint"] += 1
        assert seen["both orders"] >= 100 and min(seen.values()) >= 50, seen

    def test_machine_against_itself(self):
        rng = random.Random(83)
        seen = collections.Counter()
        for _ in range(200):
            d = _random_machine(rng, rng.choice(["ab", "abc"]), 5)
            want = _reference_first_overlap([d, d])
            assert first_overlap([d, d]) == want
            assert first_overlap([d, _copy(d, d.finals)]) == want
            seen["empty" if want is None else "meets"] += 1
        assert min(seen.values()) >= 50, seen


class TestOverlapSearchEndsAtTheFirstPair:
    """Meeting machines 0 and 1 ends the pair search, which is the one early
    exit it has: theorem 4.1's acceptors of ``a`` all accept the empty word,
    so they meet at the first seed and no pair is expanded."""

    @pytest.fixture
    def rows_read(self, monkeypatch):
        reads, out = [], SubsetMachine.__dict__["out"].func

        class Spy(list):
            def __getitem__(self, p):
                reads.append(p)
                return super().__getitem__(p)

        monkeypatch.setattr(SubsetMachine, "out", property(lambda sub: Spy(out(sub))))
        return reads

    def test_acceptors_meeting_at_a_seed_expand_no_pair(self, rows_read):
        a, _ = gen_thm41(4)
        machines = [m for _, m in a.machines_for("a")]
        assert len(machines) == 4 and all(m.accepts(()) for m in machines)
        assert first_overlap(machines) == (0, 1, ())
        assert rows_read == []

    def test_disjoint_acceptors_are_searched_through(self, rows_read):
        a, _ = gen_lemma34((2, 3))
        machines = [m for _, m in a.machines_for("a")]
        assert len(shared_structures(machines)) > 1
        assert first_overlap(machines) is None
        assert rows_read
