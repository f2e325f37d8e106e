"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion;
each test also prints a PASS line with the measured values (visible with
``-s``).  Every tolerance is exact as stated; the randomized suites allow
zero violations.
"""

import random
import time

import pytest

from uta import (DFA, NFA, SizePair, TreeAutomaton, accepts, canonical_sdta,
                 certify_vertical_bound, check_semantic_determinism,
                 determinize, dtadfa_to_sdta, equiv_bounded, equiv_canonical,
                 gen_lemma34, gen_thm41, lemma34_vertical_fooling,
                 marked_union, minimize_dfa, minimize_moore, nest,
                 nta_to_dtadfa, nta_to_sdta, parse_tree, prune_reachable,
                 render_tree, run, sdta_to_dtadfa, size, word_node)
from uta import EnumerationBounds, iter_trees

from randgen import (inflate_sdta, rand_dta_nfa, rand_dtadfa, rand_nta,
                     rand_sdta, rand_tree, rename_sdta)

EQ_BOUNDS = EnumerationBounds(3, 3, 300)


def enum(alphabet, depth, width, count):
    return list(iter_trees(alphabet, EnumerationBounds(depth, width, count)))


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_lemma34_m2_reproduction():
    auto, pred = gen_lemma34((2, 3))
    assert size(auto) == SizePair(2, 12)
    sdta, _ = dtadfa_to_sdta(auto)
    canon = canonical_sdta(sdta)
    h_a = canon.moore["a"].size
    assert h_a >= 6
    assert len(canon.states) >= 2
    certified = certify_vertical_bound(pred, lemma34_vertical_fooling((2, 3)))
    assert certified == 2
    report("criterion 1", f"size [2; 12]; canonical H_a = {h_a} >= 6; "
                          f"vertical {len(canon.states)} >= 2; certified bound 2")


def test_criterion_2_lemma34_m3_scale():
    start = time.monotonic()
    auto, _ = gen_lemma34((2, 3, 5))
    sdta, _ = dtadfa_to_sdta(auto)
    h_a = canonical_sdta(sdta).moore["a"].size
    elapsed = time.monotonic() - start
    assert h_a >= 30
    assert elapsed < 10.0
    report("criterion 2", f"minimized H_a = {h_a} >= 30 in {elapsed:.2f}s")


def test_criterion_3_thm41_reproduction():
    auto, pred = gen_thm41(2)
    assert size(auto) == SizePair(2, 9)

    grid = [nest("a", i - 1, word_node("a", "b" * k))
            for i in range(1, 7) for k in range(0, 19)]
    for t in grid:
        assert accepts(auto, t) == pred(t), render_tree(t)

    det, rep = nta_to_dtadfa(auto)
    pruned = prune_reachable(det)
    psize = size(pruned)
    assert psize.vertical >= 3
    assert psize.horizontal >= 18
    assert size(det) <= rep.bound

    for t in grid:
        assert accepts(det, t) == pred(t), render_tree(t)
    for t in enum(auto.alphabet, 4, 5, 600):
        assert accepts(det, t) == accepts(auto, t), render_tree(t)
    report("criterion 3", f"size [2; 9]; grid (6 x 19) exact; pruned {psize} "
                          f">= [3; 18]; bound {rep.bound} holds")


def test_criterion_4_sdta_to_dtadfa_bound():
    rng = random.Random(2024)
    violations = 0
    for _ in range(50):
        a = rand_sdta(rng, max_vertical=4, max_horizontal=6, max_alphabet=3)
        out, rep = sdta_to_dtadfa(a)
        n, m = size(a).vertical, size(a).horizontal
        if not size(out) <= SizePair(n, n * m):
            violations += 1
        elif not equiv_bounded(a, out, EQ_BOUNDS).equal:
            violations += 1
    assert violations == 0
    report("criterion 4", "50/50 within [n; n*m] and equivalent")


def test_criterion_5_dtadfa_to_sdta_bound():
    rng = random.Random(2025)
    violations = 0
    for _ in range(50):
        a = rand_dtadfa(rng, max_vertical=4, max_horizontal=5, max_alphabet=3)
        out, rep = dtadfa_to_sdta(a)  # internal assert guards the product invariant
        if not rep.bound_satisfied:
            violations += 1
        elif not equiv_bounded(a, out, EQ_BOUNDS).equal:
            violations += 1
    assert violations == 0
    report("criterion 5", "50/50 within the per-symbol product bound and equivalent")


def test_criterion_6_nta_conversion_bounds():
    rng = random.Random(2026)
    violations = 0
    for _ in range(50):
        a = rand_nta(rng, max_vertical=3, max_horizontal=3)
        s, rs = nta_to_sdta(a, force_general=True)
        d, rd = nta_to_dtadfa(a, force_general=True)
        if not (rs.bound_satisfied and rd.bound_satisfied):
            violations += 1
            continue
        trees = enum(a.alphabet, 3, 3, 250)
        if any(accepts(a, t) != accepts(s, t) or accepts(a, t) != accepts(d, t)
               for t in trees):
            violations += 1
    assert violations == 0

    kept = 0
    for _ in range(20):
        a = rand_dta_nfa(rng, max_vertical=3, max_horizontal=3)
        assert check_semantic_determinism(a).ok
        s, _ = nta_to_sdta(a)
        d, _ = nta_to_dtadfa(a)
        if s.states == a.states and d.states == a.states:
            kept += 1
        trees = enum(a.alphabet, 3, 3, 250)
        assert all(accepts(a, t) == accepts(s, t) == accepts(d, t) for t in trees)
    assert kept == 20
    report("criterion 6", "50/50 NTAs within the stated bounds and equivalent; "
                          "20/20 deterministic refinements kept |Q|")


def test_criterion_7_marked_union_gap():
    parts = []
    for i in (1, 2, 3):
        states = [f"r{j}" for j in range(3)]
        trans = [(f"r{j}", "a", f"r{(j + 1) % 3}") for j in range(3)]
        parts.append(DFA(states, ["a"], "r0", {f"r{i % 3}"}, trans))
    moore = minimize_moore(marked_union(parts))
    assert moore.size == 3

    union = NFA([f"{p}{s}" for p in "uvw" for s in range(3)], ["a"],
                ["u0", "v0", "w0"], ["u1", "v2", "w0"],
                [(f"{p}{s}", "a", f"{p}{(s + 1) % 3}") for p in "uvw" for s in range(3)])
    plain = minimize_dfa(determinize(union))
    assert plain.size == 1
    report("criterion 7", "marked union needs 3 states, plain union needs 1")


def test_criterion_8_256_state_determinization():
    start = time.monotonic()
    states = [f"n{i}" for i in range(9)]
    trans = [("n0", "a", "n0"), ("n0", "b", "n0"), ("n0", "b", "n1")]
    for i in range(1, 8):
        trans += [(f"n{i}", "a", f"n{i + 1}"), (f"n{i}", "b", f"n{i + 1}")]
    nfa = NFA(states, "ab", ["n0"], ["n8"], trans)
    minimal = minimize_dfa(determinize(nfa))
    elapsed = time.monotonic() - start
    assert minimal.size == 256
    assert elapsed < 10.0
    report("criterion 8", f"minimal DFA has 256 states in {elapsed:.2f}s")


def test_criterion_9_property_suite():
    rng = random.Random(2027)
    failures = 0

    # parse/render round-trip over enumerated trees
    for t in enum("ab01", 3, 3, 400):
        if parse_tree(render_tree(t), frozenset("ab01")) != t:
            failures += 1

    # run() singleton invariant across deterministic kinds, 1000 random trees
    deterministic = [
        gen_lemma34((2, 3))[0],
        dtadfa_to_sdta(gen_lemma34((2, 3))[0])[0],
        rand_dtadfa(rng),
        rand_dta_nfa(rng),
        rand_sdta(rng),
    ]
    per_automaton = 200
    for auto in deterministic:
        for _ in range(per_automaton):
            t = rand_tree(rng, auto.alphabet, max_depth=4, max_width=3)
            if any(len(states) > 1 for states in run(auto, t).values()):
                failures += 1
    assert 5 * per_automaton == 1000

    # prune preserves the language
    for auto in (gen_thm41(2)[0], rand_nta(rng), rand_dtadfa(rng)):
        pruned = prune_reachable(auto)
        for t in enum(auto.alphabet, 3, 3, 200):
            if accepts(auto, t) != accepts(pruned, t):
                failures += 1

    # canonicalization is idempotent
    for _ in range(10):
        c1 = canonical_sdta(rand_sdta(rng))
        c2 = canonical_sdta(c1)
        if size(c1) != size(c2):
            failures += 1

    # canonical and bounded equivalence agree on 30 random SDTA pairs
    compared = 0
    while compared < 30:
        a = rand_sdta(rng)
        if rng.random() < 0.5:
            b = inflate_sdta(rng, rename_sdta(rng, a))
        else:
            b = rand_sdta(rng)
            if b.alphabet != a.alphabet:
                continue
        vb = equiv_bounded(a, b, EQ_BOUNDS)
        vc = equiv_canonical(a, b, EQ_BOUNDS)
        if vc.equal != vb.equal:
            failures += 1
        compared += 1

    assert failures == 0
    report("criterion 9", "round-trips, singleton runs (1000 trees), pruning, "
                          "idempotence, 30 equivalence pairs: zero failures")
