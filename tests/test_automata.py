import ast
import collections
import itertools
import pickle
from functools import partial

import pytest

from uta import (DFA, DTA_DFA, DTA_NFA, KINDS, NTA_DFA, NTA_NFA, NFA, SDTA,
                 KindError, MooreDFA, SizePair, Tree, TreeAutomaton, UnknownSymbolError,
                 accepts, canonical_sdta, check_semantic_determinism, determinize,
                 dtadfa_to_sdta, gen_lemma34, gen_thm41, leaf, nest,
                 nta_to_dtadfa, nta_to_sdta, node, parse_tree, prune_reachable, render_tree,
                 run, sdta_isomorphic, sdta_to_dtadfa, size, word_node)
from uta import EnumerationBounds, iter_trees
from uta.analysis import _normal
from uta.automata import _evaluate, _label, bottom_up_reach, forward
from uta.cli import cli_main
from uta.docs import render_automaton
from uta import analysis, strings
from uta.strings import SubsetMachine, shared_structures

from oracles import (live_by_step_any, moore_run, normal_by_reach, prune_by_step_any,
                     recursive_run, sdta_reach_by_step, stepwise, union_run)
from randgen import (rand_dta_nfa, rand_dtadfa, rand_nta, rand_sdta, rand_sdta_leaves,
                     rand_tree, rand_trees)
import random
import re
import time


def enum(alphabet, depth, width, count):
    return list(iter_trees(alphabet, EnumerationBounds(depth, width, count)))


@pytest.fixture(scope="module")
def lemma34_pair():
    return gen_lemma34((2, 3))


class TestRun:
    def test_level_one_witness(self, lemma34_pair):
        auto, _ = lemma34_pair
        assignment = run(auto, parse_tree("a(b,b,1)", auto.alphabet))
        assert assignment[()] == frozenset({"q1"})
        assert assignment[(0,)] == frozenset({"b"})

    def test_wrong_residue_gets_no_state(self, lemma34_pair):
        auto, _ = lemma34_pair
        assert run(auto, parse_tree("a(b,1)", auto.alphabet))[()] == frozenset()

    def test_chain_resolves_through_successor_state(self, lemma34_pair):
        auto, pred = lemma34_pair
        t = parse_tree("a(a(b,b,b,1,0))", auto.alphabet)
        inner = run(auto, t)
        assert inner[(0,)] == frozenset({"q2"})
        assert inner[()] == frozenset({"q1"})
        assert accepts(auto, t) and pred(t)

    def test_designated_leaf_state(self, lemma34_pair):
        auto, _ = lemma34_pair
        for sym in "ab01":
            assert run(auto, leaf(sym))[()] == frozenset({sym})

    def test_unknown_symbol_rejected(self, lemma34_pair):
        auto, _ = lemma34_pair
        with pytest.raises(Exception):
            run(auto, leaf("z"))

    def test_empty_finals_reject_everything(self, lemma34_pair):
        auto, _ = lemma34_pair
        hollow = TreeAutomaton(auto.kind, auto.alphabet, auto.states, (),
                               horizontal=auto.horizontal,
                               leaf_symbols=auto.leaf_symbols)
        for t in enum(auto.alphabet, 3, 3, 200):
            assert not accepts(hollow, t)

    def test_deterministic_kinds_assign_singletons(self, lemma34_pair):
        auto, _ = lemma34_pair
        rng = random.Random(7)
        for _ in range(300):
            t = rand_tree(rng, auto.alphabet, max_depth=4, max_width=4)
            for states in run(auto, t).values():
                assert len(states) <= 1

    def test_pickles_after_a_run(self, lemma34_pair):
        auto, _ = lemma34_pair
        t = parse_tree("a(a(b,b,b,1,0))", auto.alphabet)
        assert accepts(auto, t)
        trees = enum(auto.alphabet, 3, 3, 400)
        verdicts = [accepts(auto, u) for u in trees]
        table, labels = _step_table(auto, "a"), _label_rows(auto, "a")
        assert table and auto._leaves and labels
        again = pickle.loads(pickle.dumps(auto))
        assert again._runs == {} and again._leaves == {}
        assert not _step_table(again, "a") and not _label_rows(again, "a")
        assert again == auto and accepts(again, t)
        assert [accepts(again, u) for u in trees] == verdicts
        assert [dict(run(again, u)) for u in trees] == [dict(run(auto, u)) for u in trees]
        # the same trees fill the same steps and label rows (the fixture's
        # table holds more)
        assert _step_table(again, "a").items() <= table.items()
        assert _label_rows(again, "a").items() <= labels.items()

    def test_nondeterministic_sets_can_grow(self):
        auto, _ = gen_thm41(2)
        root = run(auto, leaf("a"))[()]
        assert root == frozenset({"q1", "q2"})


class TestSemanticDeterminism:
    def test_lemma34_is_deterministic(self, lemma34_pair):
        assert check_semantic_determinism(lemma34_pair[0]).ok

    def test_shared_empty_string_is_reported(self):
        ha = frozenset({"q1", "q2"})
        machines = {
            (q, "a"): DFA(["h"], ha, "h", ["h"], [])
            for q in ("q1", "q2")
        }
        auto = TreeAutomaton(NTA_NFA, ["a"], ["q1", "q2"], ["q1"], horizontal=machines)
        report = check_semantic_determinism(auto)
        assert not report.ok
        assert report.symbol == "a" and report.witness == ()
        assert set(report.pair) == {"q1", "q2"}

    def test_single_state_vacuously_deterministic(self):
        ha = frozenset({"q"})
        auto = TreeAutomaton(NTA_NFA, ["a"], ["q"], ["q"],
                             horizontal={("q", "a"): NFA(["h"], ha, ["h"], ["h"], [])})
        assert check_semantic_determinism(auto).ok

    def test_thm41_shares_epsilon_for_n2(self):
        report = check_semantic_determinism(gen_thm41(2)[0])
        assert not report.ok and report.witness == ()


class TestSize:
    def test_lemma34_formula(self, lemma34_pair):
        assert size(lemma34_pair[0]) == SizePair(2, 12)

    def test_thm41_formula(self):
        assert size(gen_thm41(2)[0]) == SizePair(2, 9)
        assert size(gen_thm41(3)[0]) == SizePair(3, 2 + 3 + 5 + 6)

    def test_no_machines_means_zero_horizontal(self):
        auto = TreeAutomaton(NTA_NFA, ["a"], ["q1", "q2"], ["q1"])
        assert size(auto) == SizePair(2, 0)

    def test_componentwise_order(self):
        assert SizePair(2, 9) <= SizePair(2, 9)
        assert SizePair(2, 9) <= SizePair(3, 9)
        assert not SizePair(2, 9) <= SizePair(3, 8)
        assert not SizePair(4, 1) <= SizePair(3, 8)


class TestPrune:
    def test_tight_automaton_unchanged(self):
        auto, _ = gen_thm41(2)
        assert size(prune_reachable(auto)) == size(auto)

    def test_state_with_empty_languages_removed(self):
        ha = frozenset({"q1", "q2"})
        machines = {
            ("q1", "a"): DFA(["h"], ha, "h", ["h"], []),
            ("q2", "a"): DFA(["g"], ha, "g", [], []),  # empty language
        }
        auto = TreeAutomaton(NTA_NFA, ["a"], ["q1", "q2"], ["q1"], horizontal=machines)
        pruned = prune_reachable(auto)
        assert pruned.states == frozenset({"q1"})

    def test_language_preserved(self, lemma34_pair):
        auto, _ = lemma34_pair
        pruned = prune_reachable(auto)
        assert size(pruned) <= size(auto)
        for t in enum(auto.alphabet, 4, 4, 600):
            assert accepts(auto, t) == accepts(pruned, t)

    def test_lemma34_inert_padding_state_dropped(self, lemma34_pair):
        # the last level's successor arm exists only to keep the declared
        # state count uniform; no run ever enters it
        auto, _ = lemma34_pair
        assert size(prune_reachable(auto)) == SizePair(2, 11)


def _all_kinds(rng):
    """One seeded automaton of each kind; the nta-dfa is a dta-dfa
    declared with the weaker kind."""
    d = rand_dtadfa(rng)
    return [rand_nta(rng), TreeAutomaton(NTA_DFA, d.alphabet, d.states, d.finals,
                                         horizontal=d.horizontal),
            rand_dta_nfa(rng), rand_dtadfa(rng), rand_sdta(rng)]


def _assignable(a) -> set:
    """The letters ``forward`` finds assignable over the blocks of ``a``, as
    ``prune_reachable`` runs it: the leaf states and the assignable states."""
    sub = SubsetMachine([m for _, m in a._blocks], partial(_label, a._blocks))
    return forward(sub, a.leaf_symbols)[1]


def _found_by_namer(a) -> list:
    """The letters ``analysis._named`` finds, in the order found, when
    ``_normal`` renames ``a``: the leaf states, then the vertical states."""
    found = []

    def recording(machines, items, walks):
        for x in bottom_up_reach(machines, items, walks):
            found.append(x)
            yield x

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "bottom_up_reach", recording)
        try:
            _normal(a)
        except KindError:  # a vertical state no tree reaches
            pass
    return found


def _normal_or_error(normal, a):
    try:
        return normal(a)
    except KindError as e:
        return str(e)


class TestPruneAgainstFrozensetSteps:
    def test_equal_to_the_step_any_reference(self):
        rng = random.Random(59)
        seen = collections.Counter()
        named = [gen_lemma34((2, 3))[0], gen_thm41(2)[0], nta_to_dtadfa(gen_thm41(2)[0])[0],
                 dtadfa_to_sdta(gen_lemma34((2, 3))[0])[0]]
        for auto in named + [a for _ in range(80) for a in _all_kinds(rng)]:
            pruned = prune_reachable(auto)
            assert pruned == prune_by_step_any(auto)
            seen[auto.kind] += 1
            seen["states dropped"] += pruned.states != auto.states
            seen["machines dropped"] += (len(pruned.horizontal) + len(pruned.moore)
                                         < len(auto.horizontal) + len(auto.moore))
        assert set(seen) >= set(KINDS) and min(seen.values()) >= 20, seen

    def test_siblings_equal_to_the_step_any_reference(self):
        """Split automata hold sibling acceptors of one structure, which
        prune walks as one; random SDTAs often hold unassignable states."""
        rng = random.Random(97)
        seen = collections.Counter()
        for _ in range(120):
            general = nta_to_dtadfa(rand_nta(rng), force_general=True)[0]
            for auto in (sdta_to_dtadfa(rand_sdta(rng))[0], general):
                pruned = prune_reachable(auto)
                assert pruned == prune_by_step_any(auto)
                assert (pruned is auto) == (pruned == auto)
                machines = list(auto.horizontal.values())
                seen["siblings"] += len(shared_structures(machines)) < len(machines)
                seen["states dropped"] += pruned.states != auto.states
                seen["kept whole"] += pruned is auto
        assert min(seen.values()) >= 20, seen

    def test_trim_automata_come_back_as_they_are(self):
        rng = random.Random(101)
        seen = collections.Counter()
        thm = gen_thm41(2)[0]
        named = [thm, nta_to_dtadfa(thm)[0], canonical_sdta(nta_to_sdta(thm)[0]),
                 sdta_to_dtadfa(canonical_sdta(dtadfa_to_sdta(gen_lemma34((2, 3))[0])[0]))[0]]
        for auto in named:
            assert prune_reachable(auto) is auto
        for auto in [a for _ in range(60) for a in _all_kinds(rng)]:
            pruned = prune_reachable(auto)
            assert (pruned is auto) == (pruned == auto)
            assert prune_reachable(pruned) is pruned
            seen[auto.kind] += 1
            seen["rebuilt"] += pruned is not auto
        assert set(seen) >= set(KINDS) and seen["rebuilt"] >= 100, seen

    def test_acceptor_reach_finds_the_per_machine_fixed_point(self):
        """Acceptors of one structure are walked as one machine; the states
        found must be those of one walk per acceptor."""
        rng = random.Random(103)
        seen = collections.Counter()
        for _ in range(100):
            for auto in _all_kinds(rng)[:4] + [sdta_to_dtadfa(rand_sdta(rng))[0]]:
                assert _assignable(auto) == live_by_step_any(auto)
                machines = list(auto.horizontal.values())
                seen[auto.kind] += 1
                seen["siblings"] += len(shared_structures(machines)) < len(machines)
        assert seen["siblings"] >= 50 and min(seen.values()) >= 50, seen

    def test_sdta_reach_order_as_the_step_reference(self):
        rng = random.Random(61)
        for _ in range(150):
            auto = rand_sdta(rng)
            assert _found_by_namer(auto) == sdta_reach_by_step(auto)
        auto = dtadfa_to_sdta(gen_lemma34((2, 3, 5))[0])[0]
        assert _found_by_namer(auto) == sdta_reach_by_step(auto)

    def test_leaf_state_draws_and_their_round_trips(self):
        """SDTAs with designated leaf states, their dta-dfa splits and the
        splits merged back: prune against the frozenset-step reference, the
        structural renaming against the round-based one, and a bare leaf
        accepted iff the input accepts it."""
        rng = random.Random(137)
        seen = collections.Counter()
        for _ in range(150):
            a = rand_sdta_leaves(rng)
            split = sdta_to_dtadfa(a)[0]
            back = dtadfa_to_sdta(split)[0]
            for auto in (a, split, back):
                pruned = prune_reachable(auto)
                assert pruned == prune_by_step_any(auto)
                seen["states dropped"] += pruned.states != auto.states
                for sym in sorted(auto.leaf_symbols):
                    t = parse_tree(sym, auto.alphabet)
                    want = accepts(auto, t)
                    assert accepts(pruned, t) == want
                    for x in (auto, pruned):
                        assert bool(recursive_run(x, t)[()] & x.finals) == want
                    seen["final leaf" if want else "nonfinal leaf"] += 1
            for auto in (a, back, prune_reachable(a), prune_reachable(back)):
                got = _normal_or_error(_normal, auto)
                assert got == _normal_or_error(normal_by_reach, auto)
                if isinstance(got, str):
                    seen["unreached"] += 1
                    continue
                seen["renamed"] += 1
                for sym in sorted(auto.leaf_symbols):
                    t = parse_tree(sym, auto.alphabet)
                    assert accepts(got, t) == accepts(auto, t)
            pruned = prune_reachable(a)
            merged = prune_reachable(dtadfa_to_sdta(sdta_to_dtadfa(pruned)[0])[0])
            assert sdta_isomorphic(pruned, merged) and sdta_isomorphic(merged, pruned)
            assert _normal(pruned) == normal_by_reach(merged)
        assert min(seen.values()) >= 30, seen


class TestBottomUpReach:
    def test_yields_each_item_as_found(self):
        def step(state, letter):
            raise AssertionError("explored past the first item")

        leaf = ([0], stepwise(step), lambda states: [("leaf", s) for s in states])
        found = bottom_up_reach([leaf], ())
        assert next(found) == ("leaf", 0)

    def test_items_in_order_found_given_first(self):
        counter = ([0], stepwise(lambda n, c: n + 1 if n < 3 else None),
                   lambda states: [f"s{n}" for n in states])
        assert list(bottom_up_reach([counter], ["x"])) == ["x", "s0", "s1", "s2", "s3"]


@pytest.fixture(scope="module")
def thm41_canonical():
    return canonical_sdta(nta_to_sdta(gen_thm41(4)[0])[0])


@pytest.fixture
def thm41_split(thm41_canonical):
    """The canonical SDTA of theorem 4.1 (4) split into a dta-dfa: one
    symbol, one Moore machine copied once per output value.  Each test gets
    fresh machines, so none finds forms compiled by another: the split's
    siblings share their source's compiled form, so the source is a pickled
    copy, which carries no compiled form."""
    return sdta_to_dtadfa(pickle.loads(pickle.dumps(thm41_canonical)))[0]


def _equal_machine_sdtas(rng):
    """Pruned random SDTAs in which two symbols carry equal Moore machines."""
    while True:
        a = rand_sdta(rng, max_alphabet=3)
        if len(a.alphabet) < 2:
            continue
        x, y = rng.sample(sorted(a.alphabet), 2)
        m = a.moore[x]
        moore = {**a.moore, y: MooreDFA(m.states, m.alphabet, m.initial, m.finals,
                                        list(m.transitions()), m.outputs)}
        yield prune_reachable(TreeAutomaton(SDTA, a.alphabet, a.states, a.finals, moore=moore))


def _renamed_per_symbol(a):
    """``a`` with each symbol's horizontal states renamed apart."""
    moore = {}
    for sym, m in a.moore.items():
        name = {s: f"{sym}.{s}" for s in m.states}
        moore[sym] = MooreDFA(name.values(), m.alphabet, name[m.initial],
                              {name[s] for s in m.finals},
                              [(name[s], c, name[d]) for s, c, d in m.transitions()],
                              {name[s]: v for s, v in m.outputs.items()})
    return TreeAutomaton(SDTA, a.alphabet, a.states, a.finals, moore=moore,
                         leaf_symbols=a.leaf_symbols)


class TestSharedStructures:
    def test_determinism_check_prepares_one_structure(self, thm41_split, monkeypatch):
        machines = list(thm41_split.horizontal.values())
        assert all(m.delta == machines[0].delta for m in machines)
        reads = []

        def counting(form):
            reads.append(form)
            return out.fget(form)

        out = strings._Compiled.out
        monkeypatch.setattr(strings._Compiled, "out", property(counting))
        assert check_semantic_determinism(thm41_split).ok
        # the pair search reads the out of the one structure the 15 share
        assert len(machines) == 15 and reads == [machines[0].compiled()]

    def test_each_split_compiles_its_own_form(self, thm41_split, thm41_canonical):
        (form,) = {m.compiled() for m in thm41_split.horizontal.values()}
        assert form._out is None
        assert all(m.compiled() is not form for m in thm41_canonical.moore.values())
        again = sdta_to_dtadfa(pickle.loads(pickle.dumps(thm41_canonical)))[0]
        assert all(m.compiled() is not form for m in again.horizontal.values())

    def test_prune_reads_each_shared_position_once(self, thm41_split, monkeypatch):
        reads = collections.Counter()

        class Counting(list):
            def __getitem__(self, p):
                reads[p] += 1
                return super().__getitem__(p)

        out = strings._Compiled.out
        monkeypatch.setattr(strings._Compiled, "out",
                            property(lambda form: Counting(out.fget(form))))
        pruned = prune_reachable(thm41_split)
        monkeypatch.undo()
        # the 15 siblings share one structure, whose positions the forward
        # pass reads once each
        assert len(reads) == 226 and set(reads.values()) == {1}
        assert pruned is thm41_split
        assert pruned == prune_by_step_any(thm41_split)

    def test_equal_moore_machines_keep_the_reach_order(self):
        rng = random.Random(89)
        seen = collections.Counter()
        for a in itertools.islice(_equal_machine_sdtas(rng), 250):
            assert _found_by_namer(a) == sdta_reach_by_step(a)
            b = _renamed_per_symbol(a)
            assert sdta_isomorphic(a, b) and sdta_isomorphic(b, a)
            forms = {len(shared_structures(list(x.moore.values()))) for x in (a, b)}
            seen["shared"] += forms == {len(a.moore) - 1, len(a.moore)}
        assert seen["shared"] >= 100, seen


def test_kind_validated_not_inferred():
    ha = frozenset({"q1", "q2"})
    machines = {
        (q, "a"): NFA(["h"], ha, ["h"], ["h"], [])
        for q in ("q1", "q2")
    }
    with pytest.raises(KindError):
        TreeAutomaton(DTA_DFA, ["a"], ["q1", "q2"], ["q1"], horizontal=machines)


class TestLeafConvention:
    def test_epsilon_in_machine_clashes_with_convention(self):
        ha = frozenset({"q", "a"})
        mach = DFA(["h"], ha, "h", ["h"], [])  # accepts the empty string
        with pytest.raises(KindError):
            TreeAutomaton(NTA_NFA, ["a"], ["q"], ["q"],
                          horizontal={("q", "a"): mach}, leaf_symbols=["a"])

    def test_leaf_state_name_collision_rejected(self):
        with pytest.raises(KindError):
            TreeAutomaton(NTA_NFA, ["a"], ["a"], ["a"], leaf_symbols=["a"])

    def test_leaf_state_may_be_final(self):
        # the language of the single leaf b
        auto = TreeAutomaton(NTA_NFA, ["a", "b"], [], ["b"], leaf_symbols=["b"])
        assert accepts(auto, leaf("b"))
        assert not accepts(auto, leaf("a"))
        assert not accepts(auto, node("b", leaf("b")))
        assert size(auto) == SizePair(0, 0)
        from uta.docs import parse_automaton, render_automaton
        assert parse_automaton(render_automaton(auto)) == auto


def _rand_nta_dfa(rng):
    a = rand_nta(rng)
    return TreeAutomaton(NTA_DFA, a.alphabet, a.states, a.finals,
                         horizontal={k: determinize(m) for k, m in a.horizontal.items()})


RANDOM_AUTOMATA = {NTA_NFA: rand_nta, NTA_DFA: _rand_nta_dfa, DTA_NFA: rand_dta_nfa,
                   DTA_DFA: rand_dtadfa, SDTA: rand_sdta}


def _with_shared_subtrees(rng, trees):
    """Trees that reuse subtree objects, some twice under one parent."""
    out = []
    for _ in range(len(trees)):
        kids = [rng.choice(trees) for _ in range(rng.randint(1, 3))]
        kids.append(kids[0])
        out.append(Tree(trees[0].label, tuple(kids)))
    return out


class TestMemoizedEvaluation:
    @pytest.mark.parametrize("kind", KINDS)
    def test_memo_agrees_with_run(self, kind):
        rng = random.Random(kind)
        for _ in range(12):
            a = RANDOM_AUTOMATA[kind](rng)
            assert a.kind == kind
            trees = rand_trees(rng, a.alphabet, 60)
            trees += _with_shared_subtrees(rng, trees)
            trees += list(iter_trees(a.alphabet, EnumerationBounds(3, 3, 400)))
            memo = {}
            for t in trees:
                want = run(a, t)[()]
                assert _evaluate(a, t, memo) == want
                assert accepts(a, t) == bool(want & a.finals)

    def test_memo_holds_proper_subtrees_only(self):
        a = rand_sdta(random.Random(3))
        trees = list(iter_trees(a.alphabet, EnumerationBounds(3, 3, 400)))
        memo = {}
        for t in trees:
            _evaluate(a, t, memo)
        proper = {id(c) for t in trees for n in _nodes(t) for c in n.children}
        assert set(memo) <= proper
        # enumerated roots are never children, and the root is never stored
        assert not set(memo) & {id(t) for t in trees}

    def test_foreign_label_raises(self, lemma34_pair):
        auto, _ = lemma34_pair
        for t in (leaf("z"), node("a", leaf("b"), leaf("z")), nest("a", 3, leaf("z"))):
            with pytest.raises(UnknownSymbolError):
                accepts(auto, t)

    def test_two_states_under_deterministic_kind_raise(self):
        wrong = _two_leaf_states()
        for t in (leaf("a"), node("b", leaf("a")), nest("b", 3, leaf("a"))):
            with pytest.raises(KindError):
                accepts(wrong, t)

    def test_first_fault_raised_as_run_raises_it(self):
        wrong = _two_leaf_states()
        for text, error in (("b(z,a)", UnknownSymbolError),
                            ("b(a,z)", KindError),
                            # a leaf ahead of an internal sibling is read first
                            ("b(a,b(z))", KindError),
                            ("b(b(z),a)", UnknownSymbolError),
                            ("b(b(b),a,b(z))", KindError)):
            t = parse_tree(text, {"a", "b", "z"})
            for evaluate in (run, accepts):
                with pytest.raises(error):
                    evaluate(wrong, t)

    def test_faults_are_never_cached(self):
        wrong = _two_leaf_states()
        for text in ("a", "b(b,a)", "z", "b(b,z)", "z(b)", "b(z(a),b)"):
            t = parse_tree(text, {"a", "b", "z"})
            for evaluate in (run, accepts):
                first = _outcome(evaluate, wrong, t)
                assert first[0] is not bool
                # the same fault again, from the same (warm) automaton
                assert _outcome(evaluate, wrong, t) == first
            assert "a" not in wrong._leaves and "z" not in wrong._leaves
            assert "z" not in wrong._runs
        # what passed its checks is kept
        assert wrong._leaves == {"b": frozenset()} and set(wrong._runs) == {"a", "b"}

    def test_warm_step_tables_answer_as_cold_ones(self):
        rng = random.Random(10)
        autos = [gen_lemma34((2, 3))[0], gen_thm41(2)[0], _two_leaf_states()]
        for _ in range(100):
            autos += [f(rng) for f in (rand_sdta, rand_dtadfa, rand_nta, rand_dta_nfa)]
        for a in autos:
            trees = list(iter_trees(a.alphabet, EnumerationBounds(3, 3, 200)))
            fresh = _fresh(a)
            cold = [_outcome(accepts, a, t) for t in trees]
            warm = [_outcome(accepts, a, t) for t in trees]
            # the copy fills its tables in the other order
            other = [_outcome(accepts, fresh, t) for t in reversed(trees)][::-1]
            assert cold == warm == other
            # the same for whole views, from cold runs and leaf states
            fresh, other_fresh = _fresh(a), _fresh(a)
            views = [_outcome(_view, fresh, t) for t in trees]
            assert [_outcome(_view, fresh, t) for t in trees] == views
            assert [_outcome(_view, other_fresh, t) for t in reversed(trees)][::-1] == views
            for t, got in zip(trees, cold):
                want = _outcome(lambda b, u: bool(run(b, u)[()] & b.finals), a, t)
                assert got[0] == want[0]
                if got[0] is bool:
                    assert got == want


class TestRunAgainstTheUnionNfa:
    def test_same_runs_as_the_tagged_union(self):
        rng = random.Random(67)
        seen = collections.Counter()
        named = [gen_lemma34((2, 3))[0], gen_thm41(2)[0], nta_to_dtadfa(gen_thm41(2)[0])[0]]
        autos = named + [RANDOM_AUTOMATA[kind](rng) for _ in range(40)
                         for kind in (NTA_NFA, NTA_DFA, DTA_NFA, DTA_DFA)]
        for a in autos:
            letters = sorted(a.horizontal_alphabet)
            for sym in sorted(a.alphabet):
                start, step, finish = a.horizontal_run(sym)
                u_start, u_step, u_finish = union_run(a, sym)
                tagged = _tagged(_subset_machine(a, sym))
                assert tagged(start) == u_start
                assert finish(start, True) == u_finish(u_start, True)
                for _ in range(6):
                    # child sets as nodes are assigned them, empty ones included
                    run, u_run = start, u_start
                    for _ in range(rng.randint(1, 4)):
                        if run is None:
                            break
                        s = frozenset(rng.sample(letters, rng.randint(0, min(2, len(letters)))))
                        run, u_run = step(run, s), u_step(u_run, s)
                        assert tagged(run) == u_run
                    assert finish(run, False) == u_finish(u_run, False)
                    seen["dead" if run is None else "alive"] += 1
                    seen["assigns" if finish(run, False) else "assigns nothing"] += 1
                seen[a.kind] += 1
                seen["leaf symbol"] += sym in a.leaf_symbols
        assert min(seen.values()) >= 5 and seen["assigns"] >= 100, seen


def _subset_machine(a, sym):
    """The ``SubsetMachine`` that the horizontal run of ``sym`` steps."""
    step = a._run(sym)[1]
    (sub,) = [c.cell_contents for c in step.__closure__
              if type(c.cell_contents) is SubsetMachine]
    return sub


def _tagged(sub):
    """Maps a run of ``sub``'s positions (None once dead) to the run of the
    tagged union (``union_run``): a position stands for its state in every
    acceptor of its group, as an (acceptor index, state) pair."""
    owners = {}
    for g in sub.groups:
        base, form = sub.forms[g[0]]
        owners.update(dict.fromkeys(range(base, base + len(form.states)), g))
    return lambda run: None if run is None else frozenset(
        (k, sub.names[p]) for p in run for k in owners[p])


class TestSharedPositions:
    def test_a_cold_run_builds_one_structure_for_fifteen_siblings(self):
        g4 = gen_thm41(4)[0]
        d4 = nta_to_dtadfa(g4)[0]
        machines = d4.machines_for("a")
        assert len(machines) == 15 and {m.size for _, m in machines} == {226}
        t = parse_tree("a(a(a(b,b,b,b)))", d4.alphabet)
        assert run(d4, t)[()] and bool(accepts(d4, t)) == accepts(g4, t)
        sub = _subset_machine(d4, "a")
        # 226 positions, not 15 x 226, read through the one out the siblings share
        assert len(sub.names) == len(sub.marks) == len(sub.out) == 226
        assert sub.groups == [list(range(15))] and sub.out is machines[0][1].compiled().out
        # the siblings split one Moore machine's finals: one label a final position
        assert {len(mark) for mark in sub.marks} == {0, 1}
        assert {q for mark in sub.marks for q in mark} == {q for q, _ in machines}


def _fresh(a):
    """An equal automaton whose runs and step tables start empty."""
    return TreeAutomaton(a.kind, a.alphabet, a.states, a.finals, horizontal=a.horizontal,
                         moore=a.moore, leaf_symbols=a.leaf_symbols)


class TestFusedPass:
    """The evaluator steps each child's set into its parent's run as the
    child is read; it must take the steps, and only the steps, that
    stepping each node's children one at a time takes."""

    def test_same_steps_as_one_step_at_a_time_and_the_oracles(self):
        rng = random.Random(21)
        seen = collections.Counter()
        lemma, thm = gen_lemma34((2, 3))[0], gen_thm41(2)[0]
        named = [lemma, dtadfa_to_sdta(lemma)[0], thm, nta_to_dtadfa(thm)[0],
                 nta_to_sdta(thm)[0]]
        autos = named + [RANDOM_AUTOMATA[kind](rng) for _ in range(25) for kind in KINDS]
        for a in autos:
            oracle = moore_run if a.kind == SDTA else union_run
            trees = rand_trees(rng, a.alphabet, 10)
            trees += _with_shared_subtrees(rng, trees)
            # conversions fill the tables of their input: start both cold
            fused, stepper = _fresh(a), _fresh(a)
            for t in trees:
                want = _outcome(lambda b, u: recursive_run(b, u, oracle, seen), a, t)
                assert _outcome(_view, fused, t) == want
                assert _outcome(recursive_run, stepper, t) == want
                got = _outcome(accepts, fused, t)
                assert got[0] == want[0]
                if got[0] is bool:
                    assert got[1] == bool(want[1][()] & a.finals)
                seen[a.kind] += 1
            # a fault can stop the two routes at different points; retrace the
            # trees that raised none on cold copies, which must then fill the
            # same tables
            fused, stepper = _fresh(a), _fresh(a)
            clean = [t for t in trees if _outcome(accepts, a, t)[0] is bool]
            for t in clean:
                run(fused, t), recursive_run(stepper, t)
            for sym in sorted(a.alphabet):
                assert _step_table(fused, sym) == _step_table(stepper, sym)
                # the pass keys a row by each label it read as a leaf under sym
                assert set(_label_rows(fused, sym)) == {
                    c.label for t in clean for n in _nodes(t) if n.label == sym
                    for c in n.children if not c.children}
                assert not _label_rows(stepper, sym)
        assert min(seen.values()) >= 20 and seen["assigns"] >= 200, seen

    def test_a_pass_fills_the_table_step_reads(self):
        a = gen_thm41(2)[0]
        b, q1 = frozenset({"b"}), frozenset({"q1"})
        assert not _step_table(a, "a")
        assert run(a, node("a", *[leaf("b")] * 12))[()] == frozenset({"q1", "q2"})
        table = _step_table(a, "a")
        assert {s for _, s in table} == {b} and len(table) == 7
        assert _label_rows(a, "a") == {"b": b}
        # past the entry state the 2- and 3-counters cycle: the table stops growing
        assert accepts(a, node("a", *[leaf("b")] * 60)) and _step_table(a, "a") == table
        start, step, finish = a.horizontal_run("a")
        twelve = start
        for _ in range(12):
            twelve = step(twelve, b)
        assert finish(twelve, False) == frozenset({"q1", "q2"})
        assert step(twelve, b) == table[twelve, b] and _step_table(a, "a") == table
        # a q1 child after twelve b leaves kills the run
        t = node("a", *[leaf("b")] * 12, node("a", leaf("b"), leaf("b")))
        assert run(a, t)[(12,)] == q1 and run(a, t)[()] == frozenset()
        assert _step_table(a, "a")[twelve, q1] is None
        assert table.items() <= _step_table(a, "a").items()


class TestOneCellPerChild:
    """Each child moves its parent's run by one cell of the step table,
    keyed by child set or leaf label; dead runs are cells, and ``step`` and
    ``finish`` are called only on a miss."""

    def test_a_warm_wide_node_makes_no_step_call(self):
        g2, lemma = gen_thm41(2)[0], gen_lemma34((2, 3))[0]
        for a in (g2, nta_to_sdta(g2)[0], nta_to_dtadfa(g2)[0], lemma):
            for n in (1, 12, 601):
                t, cold = node("a", *[leaf("b")] * n), _fresh(a)
                calls = _count_calls(cold, "a")
                want = run(cold, t)[()]
                assert calls["step"] and calls["finish"]
                calls.clear()  # now warm
                assert run(cold, t)[()] == want and accepts(cold, t) == bool(want & a.finals)
                assert not calls

    def test_a_faulty_leaf_after_a_dead_run_raises_on_every_call(self):
        wrong = _dies_then_faulty_leaf()
        q1 = frozenset({"q1"})
        # the b run dies on its first child, a b leaf (state q1); warm it
        assert run(wrong, parse_tree("b(b,b)", wrong.alphabet))[()] == frozenset()
        start = wrong.horizontal_run("b")[0]
        assert _step_table(wrong, "b") == {(start, q1): None}
        for text, addr in (("b(b,a)", (1,)), ("b(b,b,a)", (2,)), ("b(b,b(b,a))", (1, 1))):
            t = parse_tree(text, wrong.alphabet)
            with pytest.raises(KindError) as oracle:
                recursive_run(_fresh(wrong), t, union_run)
            message = f"deterministic kind dta-nfa assigned ['q1', 'q2'] at {addr}"
            assert str(oracle.value) == message
            for _ in range(3):
                assert _outcome(_view, wrong, t) == (KindError, message)
                assert _outcome(accepts, wrong, t) == (KindError, _by_label(t, message))
            assert "a" not in wrong._leaves and "a" not in _label_rows(wrong, "b")
        assert _label_rows(wrong, "b") == {"b": q1}

    @pytest.mark.parametrize("family", [rand_sdta, rand_dtadfa, rand_nta, rand_dta_nfa])
    def test_first_fault_is_the_recursive_postorders(self, family):
        rng = random.Random(f"first fault {family.__name__}")
        seen = collections.Counter()
        for _ in range(15):
            a = family(rng)
            if a.kind == NTA_NFA:
                # declared deterministic, it assigns two states where its languages overlap
                a = TreeAutomaton(DTA_NFA, a.alphabet, a.states, a.finals,
                                  horizontal=a.horizontal, leaf_symbols=a.leaf_symbols)
            oracle = moore_run if a.kind == SDTA else union_run
            # "z" is outside every alphabet
            trees = rand_trees(rng, sorted(a.alphabet) * 4 + ["z"], 40)
            trees += _with_shared_subtrees(rng, trees)
            warm = _fresh(a)
            for t in trees + trees:  # the second time round, every table is warm
                want = _outcome(lambda b, u: recursive_run(b, u, oracle), a, t)
                assert _outcome(_view, warm, t) == want
                got = _outcome(accepts, warm, t)
                if want[0] is bool:
                    assert got == (bool, bool(want[1][()] & a.finals))
                else:
                    assert got == (want[0], _by_label(t, want[1]) if want[0] is KindError
                                   else want[1])
                seen[want[0].__name__] += 1
        assert seen["bool"] >= 100 and seen["UnknownSymbolError"] >= 100, seen
        assert seen["KindError"] >= (100 if family is rand_nta else 0), seen


def _count_calls(a, sym):
    """Swaps the kept run of ``sym`` for one whose ``step`` and ``finish``
    tally their calls in the counter returned; its ``read`` and table stay
    the same."""
    calls = collections.Counter()
    start, step, finish, read, table, assigned = a._run(sym)

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    a._runs[sym] = start, counted("step", step), counted("finish", finish), read, table, assigned
    return calls


def _dies_then_faulty_leaf():
    """A dta-nfa whose b leaves get q1, whose b-node run dies on a q1 child,
    and whose a leaves wrongly get both its states."""
    empty = NFA(["h"], {"q1", "q2"}, ["h"], ["h"], [])
    return TreeAutomaton(DTA_NFA, ["a", "b"], ["q1", "q2"], ["q1"],
                         horizontal={("q1", "a"): empty, ("q2", "a"): empty,
                                     ("q1", "b"): empty})


def _by_label(t, message):
    """The message ``accepts`` gives for ``run``'s KindError ``message``:
    the node named by its label, not by its address in ``t``."""
    head, at = message.rsplit(" at ", 1)
    n = t
    for i in ast.literal_eval(at):
        n = n.children[i]
    return f"{head} at a {n.label!r} node"


class TestAddressView:
    @pytest.mark.parametrize("family", [rand_sdta, rand_dtadfa, rand_nta, rand_dta_nfa,
                                        _rand_nta_dfa])
    def test_view_equals_the_recursive_run(self, family):
        rng = random.Random(family.__name__)
        for _ in range(15):
            a = family(rng)
            trees = rand_trees(rng, a.alphabet, 40)
            trees += [leaf(sym) for sym in sorted(a.alphabet)]
            trees += _with_shared_subtrees(rng, trees)
            trees += list(iter_trees(a.alphabet, EnumerationBounds(3, 3, 100)))
            for t in trees:
                got = _outcome(_view, a, t)
                want = _outcome(recursive_run, a, t)
                assert got == want
                verdict = _outcome(accepts, a, t)
                assert verdict[0] == want[0]
                if got[0] is bool:
                    assert verdict[1] == bool(want[1][()] & a.finals)
                if got[0] is bool:
                    view = run(a, t)
                    # the same addresses, in the same (postorder) order
                    assert list(view) == list(want[1])
                    assert len(view) == t.node_count()
                    assert all(addr in view for addr in want[1])

    def test_shared_subtree_at_two_addresses(self, lemma34_pair):
        auto, _ = lemma34_pair
        inner = parse_tree("a(b,b,b,1,0)", auto.alphabet)
        t = node("a", node("a", inner, inner), inner)
        view = run(auto, t)
        assert dict(view) == recursive_run(auto, t)
        assert view[(0, 0)] == view[(0, 1)] == view[(1,)] == frozenset({"q2"})
        assert view[(0, 1, 4)] == frozenset({"0"})

    def test_missing_addresses_raise_key_error(self, lemma34_pair):
        auto, _ = lemma34_pair
        t = parse_tree("a(a(b,b,b,1,0))", auto.alphabet)
        view = run(auto, t)
        for addr in [(1,), (0, 5), (0, 0, 0), (-1,), (0, -1), (0.0,), ("0",),
                     [0], 0, "", None]:
            with pytest.raises(KeyError):
                view[addr]
            assert view.get(addr) is None
            assert addr not in view
        assert () in view and (0, 4) in view
        assert sorted(view) == [()] + [(0,)] + [(0, i) for i in range(5)]
        assert view == recursive_run(auto, t)

    def test_leaf_root(self, lemma34_pair):
        auto, _ = lemma34_pair
        view = run(auto, leaf("b"))
        assert list(view.items()) == [((), frozenset({"b"}))]
        with pytest.raises(KeyError):
            view[(0,)]

    def test_kind_error_names_the_address(self):
        wrong = _two_leaf_states()
        for text, addr in (("a", ()), ("b(b,a)", (1,)), ("b(b,b(b,b(a)))", (1, 1, 0)),
                           ("b(b(b),b(b,a),a)", (1, 1))):
            t = parse_tree(text, wrong.alphabet)
            with pytest.raises(KindError, match=rf"at {re.escape(str(addr))}$") as err:
                run(wrong, t)
            with pytest.raises(KindError) as oracle:
                recursive_run(wrong, t)
            assert str(err.value) == str(oracle.value)
            # accepts names the label, not the address
            with pytest.raises(KindError, match="at a 'a' node$"):
                accepts(wrong, t)

    def test_kind_error_names_the_first_copy_of_a_shared_subtree(self):
        # the address is rebuilt from identities: a frame's node is the first
        # child that is it, as later copies are read from the memo
        wrong = _two_leaf_states()
        a, b = leaf("a"), leaf("b")
        inner = node("b", b, b, a)
        for t, addr in ((node("b", b, a, a), (1,)),
                        (node("b", b, inner, inner), (1, 2)),
                        (node("b", node("b", b), node("b", inner, b), inner), (1, 0, 2))):
            with pytest.raises(KindError, match=rf"at {re.escape(str(addr))}$") as err:
                run(wrong, t)
            with pytest.raises(KindError) as oracle:
                recursive_run(wrong, t)
            assert str(err.value) == str(oracle.value)


def _view(a, t):
    return dict(run(a, t))


def _outcome(evaluate, a, t):
    """(bool, verdict), or (error type, message) when ``evaluate`` raises."""
    try:
        return bool, evaluate(a, t)
    except (KindError, UnknownSymbolError) as e:
        return type(e), str(e)


def _step_table(a, sym):
    """The steps of ``sym``'s horizontal run that ``step`` fills and the
    evaluator reads, from the rows keyed by child set, flattened to
    (run, child set) -> next run; the dead run's cells are left out.  The
    rows keyed by leaf label are read apart (``_label_rows``); every row
    must map the dead run to itself."""
    _, step, _, _, table, _ = a._run(sym)
    (cell,) = [c.cell_contents for c in step.__closure__ if type(c.cell_contents) is dict]
    assert cell is table
    assert all(type(row) is dict and row[None] is None for row in table.values())
    sets = {s: row for s, row in table.items() if type(s) is frozenset}
    assert len(sets) + len(_label_rows(a, sym)) == len(table)
    return {(run, s): got for s, row in sets.items() for run, got in row.items()
            if run is not None}


def _label_rows(a, sym):
    """The leaf labels that key a row of ``sym``'s step table, each with
    its leaf's states: that row must be the row of those states."""
    table = a._run(sym)[4]
    labels = {k: a._leaves[k] for k in table if type(k) is str}
    assert all(table[k] is table[s] for k, s in labels.items())
    return labels


def _two_leaf_states():
    """A dta-nfa that wrongly assigns both its states to an a-leaf."""
    ha = frozenset({"q1", "q2"})
    both_empty = {(q, "a"): NFA(["h"], ha, ["h"], ["h"], []) for q in ("q1", "q2")}
    return TreeAutomaton(DTA_NFA, ["a", "b"], ["q1", "q2"], ["q1"], horizontal=both_empty)


def _nodes(t):
    stack = [t]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(n.children)


DEEP = 20_000


class TestDeepTrees:
    def test_lemma34_chains(self, lemma34_pair):
        auto, pred = lemma34_pair
        autos = (auto, dtadfa_to_sdta(auto)[0])
        for bottom in ("bb1", "bbb10", "b1"):
            for extra in (DEEP - 1, DEEP):
                t = nest("a", extra, word_node("a", bottom))
                for a in autos:
                    assert accepts(a, t) == pred(t), (a.kind, bottom, extra)

    def test_thm41_chains(self):
        auto, pred = gen_thm41(2)
        autos = (auto, nta_to_dtadfa(auto)[0])
        verdicts = set()
        for k in (3, 4):
            for extra in (DEEP - 1, DEEP):
                t = nest("a", extra, word_node("a", "b" * k))
                want = pred(t)
                verdicts.add(want)
                for a in autos:
                    assert accepts(a, t) == want, (a.kind, k, extra)
        assert verdicts == {True, False}

    def test_chain_of_100_000_through_every_layer(self, tmp_path, capsys):
        auto, pred = gen_thm41(2)
        depth = 100_000
        text = "a(" * depth + "b,b,b" + ")" * depth
        t = parse_tree(text, auto.alphabet)
        assert t.depth() == depth + 1 and pred(t)
        assert render_tree(t) == text
        assert repr(t) == f"Tree({text!r})"
        view = run(auto, t)
        assert view[()] & auto.finals and accepts(auto, t)
        assert view[(0,) * depth] == frozenset({"b"})
        assert len(view) == depth + 3
        doc = tmp_path / "g2.uta"
        doc.write_text(render_automaton(auto))
        assert cli_main(["run", str(doc), "--tree", text]) == 0
        assert capsys.readouterr().out.startswith("accept {")


WIDE = 100_000


def _wide_automata():
    lemma, lemma_pred = gen_lemma34((2, 3))
    thm, thm_pred = gen_thm41(2)
    return [((lemma, dtadfa_to_sdta(lemma)[0]), lemma_pred),
            ((thm, nta_to_dtadfa(thm)[0], nta_to_sdta(thm)[0]), thm_pred)]


class TestWideTrees:
    """Nodes with 100 000 children, leaves or internal nodes: each child is
    read once, so a run takes time linear in the tree."""

    @pytest.mark.parametrize("text", [
        "a(" + "b," * WIDE + "1)",          # lemma 3.4: in the language
        "a(" + "b," * (WIDE + 1) + "1)",    # one b too many
        "a(" + "b," * (WIDE - 1) + "b)",    # theorem 4.1: b^WIDE
        "a(a(" + "b," * (WIDE - 2) + "b))",  # b^(WIDE - 1) one level down
    ], ids=["lemma34-in", "lemma34-out", "thm41-in", "thm41-out"])
    def test_leaf_children(self, text):
        self._check_everywhere(text)

    @pytest.mark.parametrize("text", [
        "a(" + ",".join(["a(b,b,1)"] * WIDE) + ")",
        "a(" + ",".join(["a(b,b)"] * WIDE) + ")",
    ], ids=["lemma34", "thm41"])
    def test_internal_children(self, text):
        self._check_everywhere(text)

    def _check_everywhere(self, text):
        for autos, pred in _wide_automata():
            if not set(text) - set("(),") <= pred.alphabet:
                continue
            t = parse_tree(text, pred.alphabet)
            assert render_tree(t) == text
            want = pred(t)
            for a in autos:
                began = time.perf_counter()
                assert accepts(a, t) == want, a.kind
                # about 45 s per call while each resumed frame copied the children left
                assert time.perf_counter() - began < 10
                view = run(a, t)
                assert bool(view[()] & a.finals) == want
                last = t.children[-1]
                assert bool(view[(len(t.children) - 1,)] & a.finals) == (
                    pred(last) if last.children else False)

    def test_through_the_cli(self, tmp_path, capsys):
        auto, pred = gen_thm41(2)
        doc = tmp_path / "g2.uta"
        doc.write_text(render_automaton(auto))
        # b^(WIDE + 2) is a multiple of 2 and of 3, so both states are assigned
        for text, out in (("a(" + "b," * (WIDE + 1) + "b)", "accept {q1,q2}"),
                          ("a(" + ",".join(["a(b)"] * WIDE) + ")", "reject {}")):
            want = pred(parse_tree(text, auto.alphabet))
            assert want == out.startswith("accept")
            assert cli_main(["run", str(doc), "--tree", text]) == 0
            assert capsys.readouterr().out == out + "\n"
