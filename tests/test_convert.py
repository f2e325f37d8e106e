"""Conversion constructions: language preservation against the enumeration
oracle, bound conformance, and the deterministic refinements."""

import pickle
import random

import pytest

from uta import (DFA, DTA_DFA, NFA, NTA_NFA, SDTA, DeterminismError, KindError, MooreDFA,
                 SizePair, TreeAutomaton, UtaError, accepts, check_semantic_determinism,
                 dtadfa_to_sdta, gen_lemma34, gen_thm41, nta_to_dtadfa,
                 nta_to_sdta, prune_reachable, sdta_to_dtadfa, size)
from uta import EnumerationBounds, iter_trees

from uta import Tree, automata, canonical_sdta, convert
from oracles import nta_to_sdta_general_by_walk, recursive_run, subset_moore_by_walk
from randgen import rand_dta_nfa, rand_dtadfa, rand_nta, rand_sdta, rand_trees


def enum(alphabet, depth=3, width=3, count=400):
    return list(iter_trees(alphabet, EnumerationBounds(depth, width, count)))


def assert_equivalent(a, b, trees):
    for t in trees:
        assert accepts(a, t) == accepts(b, t), f"disagree on {t}"


class TestSdtaToDtadfa:
    def test_scale_bound(self):
        rng = random.Random(11)
        a = rand_sdta(rng)
        out, report = sdta_to_dtadfa(a)
        n, m = size(a).vertical, size(a).horizontal
        assert report.bound == SizePair(n, n * m)
        assert size(out) <= report.bound and report.bound_satisfied

    def test_constant_output_leaves_one_machine_per_symbol(self):
        ha = frozenset({"q1", "q2"})
        mach = MooreDFA(["h0", "h1"], ha, "h0", ["h1"],
                        [("h0", "q1", "h1"), ("h1", "q1", "h1")], {"h1": "q1"})
        a = TreeAutomaton(SDTA, ["a"], ["q1", "q2"], ["q1"], moore={"a": mach})
        out, _ = sdta_to_dtadfa(a)
        assert set(out.horizontal) == {("q1", "a")}

    def test_round_trip_preserves_language(self):
        base, _ = gen_lemma34((2, 3))
        sdta, _ = dtadfa_to_sdta(base)
        back, _ = sdta_to_dtadfa(sdta)
        assert_equivalent(base, back, enum(base.alphabet, 4, 4, 800))

    def test_kind_mismatch(self):
        with pytest.raises(KindError):
            sdta_to_dtadfa(gen_lemma34((2, 3))[0])

    def test_siblings_share_one_structure(self):
        """Each copy equals the DFA the constructor builds from the Moore
        machine and its finals for q, and shares the machine's delta and
        compiled form; pickling keeps the copies equal."""
        rng = random.Random(13)
        autos = [nta_to_sdta(gen_thm41(3)[0], force_general=True)[0]]
        autos += [rand_sdta(rng) for _ in range(60)]
        copies = 0
        for a in autos:
            out, _ = sdta_to_dtadfa(a)
            copies += len(out.horizontal)
            for (q, sym), m in out.horizontal.items():
                mach = a.moore[sym]
                finals = {s for s, v in mach.outputs.items() if v == q}
                assert type(m) is DFA and m == DFA(mach.states, mach.alphabet, mach.initial,
                                                   finals, list(mach.transitions()))
                assert m.delta is mach.delta and m.compiled() is mach.compiled()
            back = pickle.loads(pickle.dumps(out))
            assert back == out and back.horizontal.keys() == out.horizontal.keys()
            for key, m in back.horizontal.items():
                assert m.compiled().columns == out.horizontal[key].compiled().columns
            trees = rand_trees(rng, a.alphabet, 20)
            assert [accepts(back, t) for t in trees] == [accepts(a, t) for t in trees]
        assert copies >= 100, copies


class TestDtadfaToSdta:
    def test_lemma34_product_and_lower_bound(self):
        from uta import canonical_sdta
        base, _ = gen_lemma34((2, 3))
        out, report = dtadfa_to_sdta(base)
        assert report.bound == SizePair(2, 5 * 7)
        assert report.bound_satisfied
        assert canonical_sdta(out).moore["a"].size >= 6

    def test_lemma34_m3_lower_bound(self):
        from uta import canonical_sdta
        base, _ = gen_lemma34((2, 3, 5))
        out, _ = dtadfa_to_sdta(base)
        assert canonical_sdta(out).moore["a"].size >= 30

    def test_single_state_input_gets_constant_output(self):
        ha = frozenset({"q"})
        mach = DFA(["h0", "h1"], ha, "h0", ["h1"], [("h0", "q", "h1")])
        a = TreeAutomaton(DTA_DFA, ["a"], ["q"], ["q"], horizontal={("q", "a"): mach})
        out, _ = dtadfa_to_sdta(a)
        assert set(out.moore["a"].outputs.values()) == {"q"}
        assert out.moore["a"].size == mach.size

    def test_vertical_states_untouched(self):
        rng = random.Random(3)
        a = rand_dtadfa(rng)
        out, _ = dtadfa_to_sdta(a)
        assert out.states == a.states and out.finals == a.finals

    def test_nondeterministic_input_rejected_with_witness(self):
        ha = frozenset({"q1", "q2"})
        machines = {(q, "a"): DFA(["h"], ha, "h", ["h"], []) for q in ("q1", "q2")}
        bad = TreeAutomaton("nta-dfa", ["a"], ["q1", "q2"], ["q1"], horizontal=machines)
        with pytest.raises(DeterminismError) as err:
            dtadfa_to_sdta(bad)
        assert err.value.witness == ()

    def test_overlap_under_second_symbol_reported_as_check_det_does(self):
        ha = frozenset({"q1", "q2", "q3"})

        def chain(word, ends):  # accepts the prefixes of word of the given lengths
            states = [f"s{i}" for i in range(len(word) + 1)]
            trans = [(states[i], c, states[i + 1]) for i, c in enumerate(word)]
            return DFA(states, ha, "s0", [states[n] for n in ends], trans)

        machines = {("q1", "a"): chain([], [0]), ("q2", "a"): chain(["q1"], [1]),
                    ("q1", "b"): chain(["q1"], [1]),
                    ("q2", "b"): chain(["q2", "q2"], [1, 2]),
                    ("q3", "b"): chain(["q2", "q2"], [2])}
        bad = TreeAutomaton(DTA_DFA, ["a", "b"], ["q1", "q2", "q3"], ["q1"],
                            horizontal=machines)
        det = check_semantic_determinism(bad)
        with pytest.raises(DeterminismError) as err:
            dtadfa_to_sdta(bad)
        got = (err.value.symbol, err.value.pair, err.value.witness)
        assert got == (det.symbol, det.pair, det.witness) == ("b", ("q2", "q3"), ("q2", "q2"))


class TestNtaToSdta:
    def test_single_state_scale(self):
        ha = frozenset({"q"})
        mach = DFA(["h0", "h1"], ha, "h0", ["h1"], [("h0", "q", "h1")])
        a = TreeAutomaton("nta-dfa", ["a"], ["q"], ["q"], horizontal={("q", "a"): mach})
        out, report = nta_to_sdta(a, force_general=True)
        assert size(out).vertical <= 1
        assert report.bound.horizontal == 2**2

    def test_thm41_reachable_subsets(self):
        a, pred = gen_thm41(2)
        out, report = nta_to_sdta(a)
        # reachability oracle: collect the root sets runs actually produce
        from uta import run, nest, word_node
        seen = set()
        for i in range(1, 5):
            for k in range(0, 13):
                seen.add(run(a, nest("a", i - 1, word_node("a", "b" * k)))[()])
        seen.discard(frozenset())
        assert len(seen) == 3
        assert size(out).vertical == len(seen) == 3
        assert report.bound_satisfied

    def test_nta_dfa_input_keeps_general_bound(self):
        a, _ = gen_thm41(2)
        _, report = nta_to_sdta(a)
        assert report.bound == SizePair(2**2, 2**9 + 2**0)

    def test_general_flag_on_deterministic_input(self):
        base, _ = gen_lemma34((2, 3))
        forced, _ = nta_to_sdta(base, force_general=True)
        auto, _ = nta_to_sdta(base)
        assert auto.states == base.states  # refinement keeps the states
        assert all(name.startswith("{") for name in forced.states)
        assert_equivalent(forced, auto, enum(base.alphabet, 4, 4, 600))

    def test_state_sets_of_one_name_are_refused(self):
        # f(u) is assigned {p, r} and g(u) {"p,r"}: both would be named {p,r}
        ha = {"p", "r", "p,r", "u"}
        m = NFA(["h0", "h1"], ha, ["h0"], ["h1"], [("h0", "u", "h1")])
        a = TreeAutomaton(NTA_NFA, ["f", "g", "u"], ["p", "r", "p,r"], ["p,r"], leaf_symbols=["u"],
                          horizontal={("p", "f"): m, ("r", "f"): m, ("p,r", "g"): m})
        for convert in (nta_to_sdta, nta_to_dtadfa):
            with pytest.raises(UtaError, match=r"^two different states would both be named "
                                               r"'\{p,r\}'$"):
                convert(a)
        apart = TreeAutomaton(NTA_NFA, ["f", "u"], ["p", "r", "p,r"], ["p,r"], leaf_symbols=["u"],
                              horizontal={("p", "f"): m, ("p,r", "f"): m})
        assert nta_to_sdta(apart)[0].states == {"{p,p,r}"}


class TestNtaToDtadfa:
    def test_thm41_sizes_and_bound(self):
        a, _ = gen_thm41(2)
        out, report = nta_to_dtadfa(a)
        pruned = prune_reachable(out)
        assert size(pruned).vertical >= 3
        assert size(pruned).horizontal >= 18
        assert size(out) <= report.bound
        assert check_semantic_determinism(out).ok

    def test_dta_nfa_per_language_determinization(self):
        rng = random.Random(5)
        a = rand_dta_nfa(rng)
        out, report = nta_to_dtadfa(a)
        assert out.states == a.states
        for (q, sym), mach in out.horizontal.items():
            assert mach.size <= 2 ** a.horizontal[(q, sym)].size
        assert report.bound_satisfied

    def test_equivalence_on_enumerated_trees(self):
        a, _ = gen_thm41(2)
        out, _ = nta_to_dtadfa(a)
        assert_equivalent(a, out, enum(a.alphabet, 4, 5, 600))


class TestRandomizedInvariants:
    def test_language_preservation_random_ntas(self):
        # enumerated trees plus 1000 random trees from larger bounds
        rng = random.Random(42)
        for _ in range(8):
            a = rand_nta(rng)
            trees = enum(a.alphabet) + rand_trees(rng, a.alphabet, 125, 5, 3)
            s, rs = nta_to_sdta(a, force_general=True)
            d, rd = nta_to_dtadfa(a, force_general=True)
            assert rs.bound_satisfied and rd.bound_satisfied
            assert_equivalent(a, s, trees)
            assert_equivalent(a, d, trees)

    def test_outputs_pass_their_kind_checks(self):
        rng = random.Random(43)
        for _ in range(5):
            a = rand_nta(rng)
            d, _ = nta_to_dtadfa(a, force_general=True)
            assert check_semantic_determinism(d).ok
            s, _ = nta_to_sdta(a, force_general=True)
            assert s.kind == SDTA


def _final_leaf_nta(b_final):
    """A non-trim nta-nfa whose b leaves get their designated state, final
    if ``b_final``.  An a node over one or more b leaves gets q, and u,
    whose a node needs a u child, is assigned to no node, so pruning
    rebuilds the automaton."""
    ha = ["b", "q", "u"]
    horizontal = {("q", "a"): NFA("if", ha, "i", "f", [("i", "b", "f"), ("f", "b", "f")]),
                  ("u", "a"): NFA("if", ha, "i", "f", [("i", "u", "f")])}
    return TreeAutomaton(NTA_NFA, "ab", ["q", "u"], ["q", "u", "b"] if b_final else ["q", "u"],
                         horizontal=horizontal, leaf_symbols="b")


class TestDesignatedFinalLeaf:
    @pytest.mark.parametrize("b_final", [True, False])
    def test_every_output_accepts_the_bare_leaf_iff_the_input_does(self, b_final):
        a = _final_leaf_nta(b_final)
        leaf = Tree("b")
        want = bool(recursive_run(a, leaf)[()] & a.finals)
        assert accepts(a, leaf) == want == b_final
        sdta, general = nta_to_sdta(a)[0], nta_to_sdta(a, force_general=True)[0]
        dtadfa, general_dtadfa = nta_to_dtadfa(a)[0], nta_to_dtadfa(a, force_general=True)[0]
        assert sdta.states == a.states and general.states != a.states  # refined and general
        pruned = prune_reachable(a)
        assert pruned.states == {"q"}
        outputs = [sdta, general, dtadfa, general_dtadfa, sdta_to_dtadfa(general)[0],
                   dtadfa_to_sdta(dtadfa)[0], pruned, canonical_sdta(sdta),
                   canonical_sdta(general)]
        trees = enum(a.alphabet, count=60)
        assert leaf in trees
        for out in outputs:
            assert accepts(out, leaf) == bool(recursive_run(out, leaf)[()] & out.finals) == want
            assert_equivalent(out, a, trees)


def assert_same_sdta(got, want):
    """Equal automata whose Moore machines also list their transitions and
    outputs in the same order, which compiled forms and walks follow."""
    assert got == want
    for sym, m in want.moore.items():
        assert list(got.moore[sym].delta.items()) == list(m.delta.items())
        assert list(got.moore[sym].outputs.items()) == list(m.outputs.items())


def _count_steps(a, seen):
    """Makes every kept run of ``a`` tally in ``seen["steps"]`` its ``step``
    calls, those its ``read`` takes included; the tables start empty."""
    for sym in convert._symbols_with_machines(a):
        start, step, finish, read, *rest = a._run(sym)

        def counted(run, s, step=step):
            seen["steps"] += 1
            return step(run, s)

        (cell,) = [c for name, c in zip(read.__code__.co_freevars, read.__closure__)
                   if name == "step"]
        cell.cell_contents = counted
        a._runs[sym] = start, counted, finish, read, *rest


class TestOneWalkPerSubsetMachine:
    """The general conversion reads each symbol's Moore machine off the
    fixed point's last walk, renumbered to the order a second walk over the
    sorted items would find; the refined one renumbers its own walk."""

    def test_general_conversion_matches_a_second_walk(self):
        rng = random.Random(28)
        autos = [gen_thm41(n)[0] for n in (2, 3, 4)] + [gen_lemma34((2, 3))[0]]
        autos += [make(rng) for _ in range(40) for make in (rand_nta, rand_dta_nfa, rand_dtadfa)]
        walked = 0
        for a in autos:
            want = nta_to_sdta_general_by_walk(a)
            assert_same_sdta(convert._nta_to_sdta_general(a), want)
            walked += len(want.moore)
        assert walked >= 150, walked

    def test_refined_conversion_matches_a_second_walk(self):
        rng = random.Random(29)
        autos = [gen_lemma34((2, 3))[0], gen_lemma34((2, 3, 5))[0]]
        autos += [make(rng) for _ in range(40) for make in (rand_dta_nfa, rand_dtadfa)]
        for a in autos:
            assert check_semantic_determinism(a).ok
            ha = a.horizontal_alphabet
            items = [frozenset([s]) for s in sorted(ha)]
            moore = {sym: subset_moore_by_walk(a, sym, items, convert._sole, ha)
                     for sym in convert._symbols_with_machines(a)}
            want = TreeAutomaton(SDTA, a.alphabet, a.states, a.finals, moore=moore,
                                 leaf_symbols=a.leaf_symbols)
            assert_same_sdta(convert._nta_to_sdta_refined(a), want)

    @pytest.mark.parametrize("n, steps", [(4, 437), (5, 4653)])
    def test_theorem_41_walks_each_machine_once(self, monkeypatch, n, steps):
        """The fixed point's two rounds are the only walks that step, and
        each steps a run only on the items it has a transition on: reading
        every item took 3 827 steps for n = 4 and 77 255 for n = 5, and
        before that the Moore machine walked the same items again (3 616
        and 74 944 more).  The third ``explore`` renumbers the last walk
        over its recorded edges and steps nothing."""
        seen = {"explore": 0, "steps": 0}

        def counting_explore(real):
            def explore(starts, successors):
                seen["explore"] += 1
                return real(starts, successors)
            return explore

        monkeypatch.setattr(automata, "explore", counting_explore(automata.explore))
        monkeypatch.setattr(convert, "explore", counting_explore(convert.explore))
        a = gen_thm41(n)[0]
        _count_steps(a, seen)
        out, _ = nta_to_sdta(a)
        assert seen == {"explore": 3, "steps": steps}
        assert size(out).vertical == 2**n - 1

    def test_theorem_41_takes_no_dead_step(self, monkeypatch):
        """Every step of the general conversion is an edge of one of the
        fixed point's two walks: no step gives a dead run."""
        seen, edges, real = {"steps": 0}, [], automata.explore

        def recording(starts, successors):
            walk = real(starts, successors)
            edges.append(len(walk[1]))
            return walk

        monkeypatch.setattr(automata, "explore", recording)
        a = gen_thm41(4)[0]
        _count_steps(a, seen)
        out, _ = nta_to_sdta(a)
        # the Moore machine's transitions are the last walk's edges
        assert len(edges) == 2 and seen["steps"] == sum(edges) == 437
        assert edges[1] == len(out.moore["a"].delta) == 226
