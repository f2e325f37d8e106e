"""The three benchmark workloads: enum-verify, construct and cli.

Each workload builds its fixtures from the seed, then yields one cycle of
jobs at a time.  A cycle is the workload's fixed job mix; the seed changes
inputs (random trees, renamings, fooling-set subsets), never the mix, so
runs with different seeds do the same amount of work.  Known values below
come from the paper's bounds, from the README, or were recorded at the
commit that introduced the benchmark (the canonical SDTA is unique, so
they must not change); each is also backed by an oracle spot-check.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import sys

import uta
from uta import MooreDFA, Tree, docs

from harness import OUT_DIR, ROOT, Job, Workload, bare_interpreter, expect, nodes

KNOWN = {
    # stated in the README or in ROADMAP.md
    "lemma34(2,3) size": (2, 12),
    "thm41(2) dtadfa size": (3, 30),
    "thm41(4) dtadfa size": (15, 3390),
    "lemma34(2,3,5,7) canon H_a": 231,
    "touchstone states": 256,
    # recorded when the benchmark was introduced
    "lemma34(3,4,5,7) canon H_a": 441,
    "thm41(3) dtadfa size": (7, 266),
    "thm41(3) canon size": (7, 38),
    "thm41(4) sdta size": (15, 226),
}


def sha(text) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:12]


def size_of(a) -> tuple:
    s = uta.size(a)
    return (s.vertical, s.horizontal)


# --- seeded inputs --------------------------------------------------------

def chain(depth: int, bottom_labels) -> Tree:
    """a^depth(w): ``depth`` a-nodes, the lowest with leaf children ``w``."""
    t = Tree("a", tuple(Tree(c) for c in bottom_labels))
    for _ in range(depth - 1):
        t = Tree("a", (t,))
    return t


def near_lemma34(rng, k, width=None) -> Tree:
    """A chain at or next to membership in the lemma 3.4 language."""
    i = rng.randint(1, len(k) + 1)
    ki = k[min(i, len(k)) - 1]
    r = ki * rng.randint(0, 3) if width is None else width - width % ki
    r += rng.choice((0, 0, 1))
    numeral = format(rng.choice((i, i, max(1, i - 1))), "b")
    return chain(i, "b" * r + numeral)


def near_thm41(rng, n, depth=None, width=None) -> Tree:
    """A chain a^i(b^k) at or next to membership in the theorem 4.1 language."""
    primes = uta.first_primes(n)
    i = depth if depth is not None else rng.randint(1, 2 * n + 1)
    p = primes[(i - 1) % n]
    k = p * rng.randint(1, 4) if width is None else width - width % p
    return chain(i, "b" * (k + rng.choice((0, 0, 1))))


def spot_check(autos, pred, trees):
    """Every automaton agrees with the oracle on every tree."""
    for t in trees:
        want = pred(t)
        for a in autos:
            expect(uta.accepts(a, t) == want, "oracle", f"{uta.render_tree(t)[:60]}")


def rename_sdta(a, rng):
    """The SDTA with vertical and horizontal states renamed by a seeded
    permutation: an isomorphic copy, built from public fields only."""
    vs = sorted(a.states)
    perm = rng.sample(range(len(vs)), len(vs))
    vmap = {q: f"v{perm[i]}" for i, q in enumerate(vs)}

    def v(c):
        return vmap.get(c, c)

    moore = {}
    for sym, m in a.moore.items():
        hs = sorted(m.states)
        hperm = rng.sample(range(len(hs)), len(hs))
        h = {s: f"g{hperm[i]}" for i, s in enumerate(hs)}
        moore[sym] = MooreDFA([h[s] for s in m.states], {v(c) for c in m.alphabet},
                              h[m.initial], {h[s] for s in m.finals},
                              [(h[s], v(c), h[d]) for s, c, d in m.transitions()],
                              {h[s]: v(o) for s, o in m.outputs.items()})
    return uta.TreeAutomaton(uta.SDTA, a.alphabet, {v(q) for q in a.states},
                             {v(q) for q in a.finals}, moore=moore,
                             leaf_symbols=a.leaf_symbols)


# --- traced compositions of public entry points -----------------------------

def equiv_bounded(tr, a, b, bounds):
    """equiv_bounded, or in traced cycles the same loop composed here from
    iter_trees and accepts; both give (equal, counterexample)."""
    if not tr.on:
        v = uta.equiv_bounded(a, b, bounds)
        return v.equal, v.counterexample
    with tr.span("analysis.equiv_bounded"):
        with tr.span("trees.iter_trees"):
            trees = list(uta.iter_trees(a.alphabet, bounds))
        with tr.span("automata.accepts"):
            va = [uta.accepts(a, t) for t in trees]
        with tr.span("automata.accepts"):
            vb = [uta.accepts(b, t) for t in trees]
        cex = next((t for t, x, y in zip(trees, va, vb) if x != y), None)
    n = sum(nodes(t) for t in trees)
    tr.count("trees.enumerated", len(trees))
    tr.count("trees.nodes", n)
    tr.count("automata.accepts_calls", 2 * len(trees))
    tr.count("automata.nodes", 2 * n)
    return cex is None, cex


def equiv_canonical(tr, a, b):
    """equiv_canonical, or in traced cycles canonical_sdta twice and
    sdta_isomorphic composed here; both give the verdict."""
    if not tr.on:
        return uta.equiv_canonical(a, b).equal
    with tr.span("analysis.equiv_canonical"):
        ca = tr.call("analysis.canonical_sdta", uta.canonical_sdta, a)
        cb = tr.call("analysis.canonical_sdta", uta.canonical_sdta, b)
        return tr.call("analysis.sdta_isomorphic", uta.sdta_isomorphic, ca, cb)


def convert(tr, key, fn, *args, **kwargs):
    out, rep = tr.call(f"convert.{fn.__name__}", fn, *args, **kwargs)
    tr.count("convert.reports")
    tr.count("convert.bound_ok", int(rep.bound_satisfied))
    tr.record(f"convert:{key}", uta.size(out).horizontal)
    return out, rep


def canonical(tr, key, a):
    c = tr.call("analysis.canonical_sdta", uta.canonical_sdta, a)
    tr.record(f"canon:{key}", uta.size(c).horizontal)
    return c


def instrumented(tr, pred, automaton=None):
    """The predicate a certifier calls, counted and spanned in traced cycles;
    backed by the automaton's acceptance when one is given."""
    if automaton is not None:
        pred = uta.LangPredicate(pred.alphabet, lambda t: uta.accepts(automaton, t),
                                 f"language of {pred.description}")
    if not tr.on:
        return pred
    name = "automata.accepts" if automaton is not None else "witnesses.oracle"

    def decide(t):
        tr.count("witnesses.oracle_calls")
        if automaton is not None:
            tr.count("automata.accepts_calls")
            tr.count("automata.nodes", nodes(t))
        with tr.span(name):
            return pred(t)

    return uta.LangPredicate(pred.alphabet, decide, pred.description)


# --- enum-verify -------------------------------------------------------------

ENUM_DEPTH, ENUM_WIDTH = 4, 5
# (family, cap, copies per cycle).  Each cap cuts into a large level.  The
# copies shape the latency mix of 20 jobs so that p50 and p90 each fall in
# the middle of one job type's block: lemma34@2000 holds ranks 8-12 and
# thm41@5000 ranks 18-19, below the one failing probe.
ENUM_MIX = (("thm41", 1000, 2), ("lemma34", 2000, 5), ("lemma34", 5000, 5),
            ("thm41", 5000, 2))
WIDE_PER_CYCLE = 5
DEEP_PER_CYCLE = 1
ORACLE_SAMPLE = 100


def enum_setup(rng, tr, known):
    kn = {**KNOWN, **known}
    L, Lp = tr.call("witnesses.gen_lemma34", uta.gen_lemma34, (2, 3))
    S, _ = uta.dtadfa_to_sdta(L)
    T, Tp = tr.call("witnesses.gen_thm41", uta.gen_thm41, 2)
    D, _ = uta.nta_to_dtadfa(T)
    expect(size_of(L) == kn["lemma34(2,3) size"], "size")
    expect(size_of(D) == kn["thm41(2) dtadfa size"], "size")
    fams = {"lemma34": (L, S, Lp), "thm41": (T, D, Tp)}
    top = max(cap for _, cap, _ in ENUM_MIX)
    bounds = uta.EnumerationBounds(ENUM_DEPTH, ENUM_WIDTH, top)
    # only the sampled trees are kept, so the fixtures do not swell the heap
    # that the garbage collector scans during the jobs
    samples = {}
    for f, (a, _, _) in fams.items():
        trees = list(uta.iter_trees(a.alphabet, bounds))
        for fam, cap, _ in ENUM_MIX:
            if fam == f:
                samples[(f, cap)] = [trees[i] for i in rng.sample(range(cap), ORACLE_SAMPLE)]
    wide = []
    for i in range(4 * WIDE_PER_CYCLE):
        width = rng.randint(1000, 1500)
        fam = ("lemma34", "thm41")[i % 2]
        t = (near_lemma34(rng, (2, 3), width=width) if fam == "lemma34"
             else near_thm41(rng, 2, width=width))
        wide.append((fam, t, nodes(t)))
    deep = []
    for _ in range(4 * DEEP_PER_CYCLE):
        t = near_thm41(rng, 2, depth=rng.randint(1000, 1500), width=rng.randint(3, 12))
        deep.append(("thm41", t, nodes(t)))
    return {"fams": fams, "samples": samples,
            "wide": wide, "deep": deep, "cycle": 0}


def enum_cycle(fx):
    c = fx["cycle"]
    fx["cycle"] += 1
    jobs = []
    for fam, cap, copies in ENUM_MIX:
        for _ in range(copies):
            jobs.append(_equiv_job(fx, fam, cap))
    for i in range(WIDE_PER_CYCLE):
        item = fx["wide"][(c * WIDE_PER_CYCLE + i) % len(fx["wide"])]
        jobs.append(_tree_job(fx, f"wide-{i}", item))
    for i in range(DEEP_PER_CYCLE):
        item = fx["deep"][(c * DEEP_PER_CYCLE + i) % len(fx["deep"])]
        # run() recurses once per tree level and fails past ~1000 levels
        jobs.append(_tree_job(fx, f"deep-{i}", item, probe="RecursionError"))
    return jobs


def _equiv_job(fx, fam, cap):
    a, b, pred = fx["fams"][fam]
    bounds = uta.EnumerationBounds(ENUM_DEPTH, ENUM_WIDTH, cap)

    def check(res):
        equal, cex = res
        expect(equal, "verdict", f"counterexample {cex}")
        spot_check([a], pred, fx["samples"][(fam, cap)])
        return f"equal cex={cex}"

    return Job(f"equiv {fam}@{cap}", lambda tr: equiv_bounded(tr, a, b, bounds), check)


def _tree_job(fx, key, item, probe=None):
    fam, t, n = item
    a, b, pred = fx["fams"][fam]

    def work(tr):
        out = []
        for auto in (a, b):
            tr.count("automata.accepts_calls")
            tr.count("automata.nodes", n)
            with tr.span("automata.run"):
                root = uta.run(auto, t)[()]
            out.append(bool(root & auto.finals))
        return out

    def check(out):
        want = pred(t)
        expect(out == [want, want], "oracle")
        return "agree"

    return Job(key, work, check, probe=probe)


# --- construct ---------------------------------------------------------------

CERT_TUPLES = 24
CERT_ORACLE_COPIES = 3
CERT_AUTOMATON_COPIES = 4
SPOT_TREES = 24


def touchstone_nfa():
    """NFA for (a+b)*b(a+b)^7, whose minimal DFA has 256 states."""
    states = [f"n{i}" for i in range(9)]
    trans = [("n0", "a", "n0"), ("n0", "b", "n0"), ("n0", "b", "n1")]
    for i in range(1, 8):
        trans += [(f"n{i}", "a", f"n{i + 1}"), (f"n{i}", "b", f"n{i + 1}")]
    return uta.NFA(states, "ab", ["n0"], ["n8"], trans)


def construct_setup(rng, tr, known):
    fx = {"known": {**KNOWN, **known}}
    gen = {}
    for k in ((2, 3, 5), (2, 3, 5, 7), (3, 4, 5, 7)):
        gen[k] = tr.call("witnesses.gen_lemma34", uta.gen_lemma34, k)
    for n in (3, 4):
        gen[n] = tr.call("witnesses.gen_thm41", uta.gen_thm41, n)
    fx["gen"] = gen
    fooling = tr.call("witnesses.lemma34_horizontal_fooling",
                      uta.lemma34_horizontal_fooling, (2, 3, 5, 7))
    subsets = []
    for _ in range(max(CERT_ORACLE_COPIES, CERT_AUTOMATON_COPIES)):
        # one tuple per stratum: a tuple's cost grows with its length, so
        # stratified subsets cost the same whatever the seed
        n = len(fooling.tuples)
        idx = [rng.randrange(j * n // CERT_TUPLES, (j + 1) * n // CERT_TUPLES)
               for j in range(CERT_TUPLES)]
        seps = {(i, j): fooling.separators[(idx[i], idx[j])]
                for i in range(len(idx)) for j in range(i + 1, len(idx))}
        subsets.append(uta.FoolingSetHorizontal([fooling.tuples[i] for i in idx],
                                                fooling.symbol, seps))
    fx["subsets"] = subsets
    vertical = tr.call("witnesses.lemma34_vertical_fooling",
                       uta.lemma34_vertical_fooling, (2, 3, 5))
    fx["vertical"] = uta.FoolingSetVertical(vertical.trees, {})  # separators searched
    fx["sdta"] = {n: uta.nta_to_sdta(gen[n][0])[0] for n in (3, 4)}
    fx["canon"] = {n: uta.canonical_sdta(fx["sdta"][n]) for n in (3, 4)}
    fx["canon"][(2, 3, 5, 7)] = uta.canonical_sdta(uta.dtadfa_to_sdta(gen[(2, 3, 5, 7)][0])[0])
    fx["renamed"] = {n: rename_sdta(fx["canon"][n], rng) for n in (3, 4)}
    fx["nfa"] = touchstone_nfa()
    fx["words"] = ["".join(rng.choice("ab") for _ in range(rng.randint(6, 16)))
                   for _ in range(64)]
    fx["trees"] = {k: [near_lemma34(rng, k) for _ in range(SPOT_TREES)]
                   for k in ((2, 3, 5, 7), (3, 4, 5, 7))}
    for n in (3, 4):
        fx["trees"][n] = [near_thm41(rng, n) for _ in range(SPOT_TREES)]
    return fx


def construct_cycle(fx):
    kn = fx["known"]
    jobs = [
        _touchstone_job(fx, kn),
        _lemma_pipeline_job(fx, kn, (2, 3, 5, 7), "lemma34(2,3,5,7) canon H_a"),
        _lemma_pipeline_job(fx, kn, (3, 4, 5, 7), "lemma34(3,4,5,7) canon H_a"),
        _thm3_pipeline_job(fx, kn),
        _thm4_job(fx, "thm41(4) nta_to_dtadfa", uta.nta_to_dtadfa, {},
                  kn["thm41(4) dtadfa size"], floor=_paper_floor_thm41(4)),
        _thm4_job(fx, "thm41(4) nta_to_sdta", uta.nta_to_sdta, {},
                  kn["thm41(4) sdta size"]),
        _thm4_job(fx, "thm41(4) nta_to_sdta general", uta.nta_to_sdta,
                  {"force_general": True}, kn["thm41(4) sdta size"]),
        _thm4_canon_job(fx, kn),
        _round_trip_job(fx, (2, 3, 5, 7)),
        _round_trip_job(fx, 4),
        _renamed_job(fx, 3),
        _vertical_job(fx),
    ]
    jobs += [_horizontal_job(fx, i, automaton=False) for i in range(CERT_ORACLE_COPIES)]
    jobs += [_horizontal_job(fx, i, automaton=True) for i in range(CERT_AUTOMATON_COPIES)]
    # the permutation search in sdta_isomorphic does not finish on 15 states
    jobs.append(_renamed_job(fx, 4, probe="deadline"))
    return jobs


def _paper_floor_thm41(n):
    """Theorem 4.1: weakly deterministic equivalents need at least
    [2^n - 1; (2^n - 1) * product of the first n primes]."""
    v = 2 ** n - 1
    return (v, v * math.prod(uta.first_primes(n)))


def _touchstone_job(fx, kn):
    def work(tr):
        d = tr.call("strings.determinize", uta.determinize, fx["nfa"])
        m = tr.call("strings.minimize_dfa", uta.minimize_dfa, d)
        tr.record("touchstone:", m.size)
        return m

    def check(m):
        expect(m.size == kn["touchstone states"], "size", str(m.size))
        for w in fx["words"]:
            expect(m.accepts(w) == (len(w) >= 8 and w[-8] == "b"), "oracle", w)
        return f"states={m.size} doc={sha(docs.render_automaton(m))}"

    return Job("touchstone", work, check)


def _lemma_pipeline_job(fx, kn, k, known_key):
    auto, pred = fx["gen"][k]

    def work(tr):
        s, rep = convert(tr, f"lemma34{k}", uta.dtadfa_to_sdta, auto)
        return s, rep, canonical(tr, f"lemma34{k}", s)

    def check(res):
        s, rep, c = res
        expect(rep.bound_satisfied, "bound")
        h = c.moore["a"].size
        expect(h == kn[known_key] and h >= math.prod(k), "size", f"H_a={h}")
        spot_check([s, c], pred, fx["trees"][k])
        return f"{uta.size(s)} {rep.bound} {uta.size(c)} doc={sha(docs.render_automaton(c))}"

    return Job(f"lemma34{k} sdta+canon", work, check)


def _thm3_pipeline_job(fx, kn):
    auto, pred = fx["gen"][3]

    def work(tr):
        d, rd = convert(tr, "thm41(3) dtadfa", uta.nta_to_dtadfa, auto)
        s, rs = convert(tr, "thm41(3) sdta", uta.nta_to_sdta, auto)
        g, rg = convert(tr, "thm41(3) sdta general", uta.nta_to_sdta, auto,
                        force_general=True)
        return d, s, g, canonical(tr, "thm41(3)", s), (rd, rs, rg)

    def check(res):
        d, s, g, c, reps = res
        expect(all(r.bound_satisfied for r in reps), "bound")
        (v, h), floor = size_of(d), _paper_floor_thm41(3)
        expect((v, h) == kn["thm41(3) dtadfa size"] and v >= floor[0] and h >= floor[1],
               "size")
        expect(size_of(c) == kn["thm41(3) canon size"], "size")
        spot_check([d, s, g, c], pred, fx["trees"][3])
        return " ".join(f"{uta.size(x)} doc={sha(docs.render_automaton(x))}"
                        for x in (d, s, g, c))

    return Job("thm41(3) convert+canon", work, check)


def _thm4_job(fx, key, fn, kwargs, known_size, floor=(0, 0)):
    auto, pred = fx["gen"][4]

    def check(res):
        out, rep = res
        expect(rep.bound_satisfied, "bound")
        v, h = size_of(out)
        expect((v, h) == tuple(known_size) and v >= floor[0] and h >= floor[1], "size",
               str(uta.size(out)))
        spot_check([out], pred, fx["trees"][4])
        return f"{uta.size(out)} {rep.bound} doc={sha(docs.render_automaton(out))}"

    return Job(key, lambda tr: convert(tr, key, fn, auto, **kwargs), check)


def _thm4_canon_job(fx, kn):
    _, pred = fx["gen"][4]

    def check(c):
        expect(size_of(c) == kn["thm41(4) sdta size"], "size", str(uta.size(c)))
        spot_check([c], pred, fx["trees"][4])
        return f"{uta.size(c)} doc={sha(docs.render_automaton(c))}"

    return Job("thm41(4) canon", lambda tr: canonical(tr, "thm41(4)", fx["sdta"][4]), check)


def _round_trip_job(fx, which):
    c = fx["canon"][which]
    pred = fx["gen"][which][1]
    # splitting copies each per-symbol machine once per distinct output
    expected_h = sum(m.size * len(set(m.outputs.values())) for m in c.moore.values())

    def work(tr):
        b, rep = convert(tr, f"round-trip {which}", uta.sdta_to_dtadfa, c)
        det = tr.call("automata.check_semantic_determinism", uta.check_semantic_determinism, b)
        p = tr.call("automata.prune_reachable", uta.prune_reachable, b)
        return b, rep, det, p

    def check(res):
        b, rep, det, p = res
        expect(rep.bound_satisfied, "bound")
        expect(det.ok, "determinism")
        expect(size_of(b) == (len(c.states), expected_h), "size", str(uta.size(b)))
        expect(uta.size(p) <= uta.size(b), "size")
        spot_check([b, p], pred, fx["trees"][which])
        return f"{uta.size(b)} {uta.size(p)} doc={sha(docs.render_automaton(p))}"

    return Job(f"round-trip {which}", work, check)


def _renamed_job(fx, n, probe=None):
    a, b = fx["canon"][n], fx["renamed"][n]

    def check(equal):
        expect(equal, "verdict")
        return "equal"

    return Job(f"renamed thm41({n}) equiv", lambda tr: equiv_canonical(tr, a, b), check,
               probe=probe)


def _horizontal_job(fx, i, automaton):
    fs = fx["subsets"][i]
    auto, pred = fx["gen"][(2, 3, 5, 7)]

    def work(tr):
        tr.count("witnesses.pairs", len(fs.tuples) * (len(fs.tuples) - 1) // 2)
        p = instrumented(tr, pred, auto if automaton else None)
        return tr.call("witnesses.certify_horizontal_bound", uta.certify_horizontal_bound, p, fs)

    def check(bound):
        expect(bound == len(fs.tuples) - 1, "bound", str(bound))
        return f"bound={bound}"

    via = "automaton" if automaton else "oracle"
    return Job(f"certify horizontal {via} {i}", work, check)


def _vertical_job(fx):
    fs = fx["vertical"]
    _, pred = fx["gen"][(2, 3, 5)]

    def work(tr):
        tr.count("witnesses.pairs", len(fs.trees) * (len(fs.trees) - 1) // 2)
        return tr.call("witnesses.certify_vertical_bound", uta.certify_vertical_bound,
                       instrumented(tr, pred), fs)

    def check(bound):
        expect(bound == 3, "bound", str(bound))  # m + 1 trees for m = 3 moduli
        return f"bound={bound}"

    return Job("certify vertical search", work, check)


# --- cli -----------------------------------------------------------------------

LEMMA_ALPHABET = ("a", "b", "0", "1")
EQUAL_BOUNDED = "equal (bounded-enumeration)\n"


def size_line(size) -> str:
    return f"[{size[0]}; {size[1]}]\n"


def cli_sequence(kn) -> tuple:
    """(command, expected exit status, expected stdout or None for a
    document, documents read, documents written).  The README sequence
    first, then the same commands scaled up to thm41 --n 4 and lemma34 --k
    2,3,5,7.  The README's default equiv bounds take about 30 s, so equiv
    gets small explicit bounds."""
    canon_2357 = (4, kn["lemma34(2,3,5,7) canon H_a"])
    return (
        ("witness lemma34 --k 2,3 --out family.uta --fooling-vertical fv.txt "
         "--fooling-horizontal fh.txt", 0, "", (), ("family.uta", "fv.txt", "fh.txt")),
        ("size family.uta", 0, size_line(kn["lemma34(2,3) size"]), ("family.uta",), ()),
        ("run family.uta --tree a(b,b,1)", 0, "accept {q1}\n", ("family.uta",), ()),
        ("check-det family.uta", 0, "deterministic\n", ("family.uta",), ()),
        ("witness thm41 --n 2 --out guess.uta", 0, "", (), ("guess.uta",)),
        ("convert guess.uta --to dtadfa --out det.uta", 0, "", ("guess.uta",), ("det.uta",)),
        ("size det.uta", 0, size_line(kn["thm41(2) dtadfa size"]), ("det.uta",), ()),
        ("equiv guess.uta det.uta --depth 4 --width 4 --count 2000", 0, EQUAL_BOUNDED,
         ("guess.uta", "det.uta"), ()),
        ("convert family.uta --to sdta --out strong.uta", 0, "", ("family.uta",),
         ("strong.uta",)),
        ("canon strong.uta --out minimal.uta", 0, "", ("strong.uta",), ("minimal.uta",)),
        ("prune family.uta", 0, None, ("family.uta",), ()),
        ("certify vertical lemma34:2,3 --fooling-set fv.txt", 0,
         "certified lower bound: 2\n", ("fv.txt",), ()),
        ("certify horizontal lemma34:2,3 --fooling-set fh.txt", 0,
         "certified lower bound: 5\n", ("fh.txt",), ()),
        ("witness marked-union --m 3", 0, None, (), ()),
        ("witness thm41 --n 4 --out g4.uta", 0, "", (), ("g4.uta",)),
        ("convert g4.uta --to dtadfa --out d4.uta", 0, "", ("g4.uta",), ("d4.uta",)),
        ("size d4.uta", 0, size_line(kn["thm41(4) dtadfa size"]), ("d4.uta",), ()),
        ("check-det d4.uta", 0, "deterministic\n", ("d4.uta",), ()),
        ("prune d4.uta", 0, None, ("d4.uta",), ()),
        ("equiv g4.uta d4.uta --depth 3 --width 3 --count 500", 0, EQUAL_BOUNDED,
         ("g4.uta", "d4.uta"), ()),
        ("witness lemma34 --k 2,3,5,7 --out f4.uta --fooling-horizontal fh4.txt", 0, "", (),
         ("f4.uta", "fh4.txt")),
        ("convert f4.uta --to sdta --out s4.uta", 0, "", ("f4.uta",), ("s4.uta",)),
        ("canon s4.uta --out m4.uta", 0, "", ("s4.uta",), ("m4.uta",)),
        ("size m4.uta", 0, size_line(canon_2357), ("m4.uta",), ()),
        ("equiv s4.uta m4.uta", 0, "equal (canonical-sdta)\n", ("s4.uta", "m4.uta"), ()),
    )


# Usage errors must exit 2; both exit 1 with a traceback.  One runs per
# cycle, alternating.  The missing file lies inside the run's directory.
CLI_PROBES = (
    "certify vertical lemma34:2,3 --fooling-set missing/fv.txt",
    "certify vertical thm41:abc --fooling-set fv.txt",
)


def cli_setup(rng, tr, known):
    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"cli-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    fx = {"tmp": tmp, "env": env, "cycle": 0, "known": {**KNOWN, **known}}
    _startup(fx, tr)  # also byte-compiles the package on a fresh checkout
    return fx


def cli_cleanup(fx):
    shutil.rmtree(fx["tmp"], ignore_errors=True)


def _startup(fx, tr):
    with tr.span("cli.startup"):
        subprocess.run([sys.executable, "-c", "import uta"], cwd=fx["tmp"], env=fx["env"],
                       check=True, capture_output=True)


def cli_cycle(fx):
    c = fx["cycle"]
    fx["cycle"] += 1
    jobs = [_cli_job(fx, *entry) for entry in cli_sequence(fx["known"])]
    jobs.append(_cli_job(fx, CLI_PROBES[c % len(CLI_PROBES)], 2, "", (), (), probe="exit-1"))
    first, docs_extra = jobs[0], jobs[0].extra

    def extra(tr):
        _startup(fx, tr)  # the start-up floor, once per traced cycle
        docs_extra(tr)

    first.extra = extra
    return jobs


def _cli_job(fx, cmd, rc, stdout, reads, writes, probe=None):
    argv = cmd.split()
    tmp = fx["tmp"]

    def work(tr):
        with tr.span(f"cli.{argv[0]}"):
            return subprocess.run([sys.executable, "-m", "uta.cli", *argv], cwd=tmp,
                                  env=fx["env"], capture_output=True, text=True)

    def check(p):
        expect(p.returncode == rc, f"exit-{p.returncode}", p.stderr[-200:])
        if stdout is not None:
            expect(p.stdout == stdout, "stdout", p.stdout[:80])
        if argv[0] == "convert":
            expect("bound-satisfied: true" in p.stderr, "bound")
        parts = [f"rc={p.returncode}", f"out={sha(p.stdout)}"]
        for name in writes:
            data = (tmp / name).read_bytes()
            expect(len(data) > 0, "document", name)
            parts.append(f"{name}={sha(data)}")
        return " ".join(parts)

    def extra(tr):
        for name in reads + writes:
            _parse_render(tr, (tmp / name).read_text(encoding="utf-8"), name)

    return Job(cmd, work, check, probe=probe, extra=extra if reads or writes else None)


def _parse_render(tr, text, name):
    """Parse and re-render one document in-process, so a command's time
    splits into start-up, documents and work.  Rendering is canonical, so
    the round trip must give back the document minus its comments."""
    tr.count("docs.parsed")
    tr.count("docs.bytes", len(text.encode()))
    if name.endswith(".txt"):
        with tr.span("docs.parse"):
            fs = docs.parse_fooling_set(text, LEMMA_ALPHABET)
        render = (docs.render_fooling_vertical if isinstance(fs, uta.FoolingSetVertical)
                  else docs.render_fooling_horizontal)
        with tr.span("docs.render"):
            again = render(fs)
    else:
        with tr.span("docs.parse"):
            a = docs.parse_automaton(text)
        with tr.span("docs.render"):
            again = docs.render_automaton(a)
    body = "".join(line for line in text.splitlines(keepends=True) if not line.startswith("#"))
    if again != body:
        raise RuntimeError(f"{name}: render(parse(doc)) differs from the document")


WORKLOADS = {
    "enum-verify": Workload("enum-verify", 5.0, enum_setup, enum_cycle),
    "construct": Workload("construct", 1.5, construct_setup, construct_cycle),
    "cli": Workload("cli", 10.0, cli_setup, cli_cycle, cli_cleanup,
                    speed_probe=bare_interpreter, speed_ref_s=0.05),
}
