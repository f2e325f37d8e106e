import random

import pytest

from uta import (DFA, DTA_DFA, NFA, SDTA, DocumentError, FoolingSetHorizontal,
                 FoolingSetVertical, MooreDFA, TreeAutomaton, UtaError, dtadfa_to_sdta,
                 gen_lemma34, gen_thm41, marked_union, nta_to_dtadfa, nta_to_sdta, parse_context,
                 parse_tree, sdta_to_dtadfa)
from uta import automata
from uta.cli import _build_parser, cli_main
from uta.docs import (parse_automaton, parse_fooling_set, render_automaton,
                      render_fooling_horizontal, render_fooling_vertical)
from uta.strings import first_overlap, shared_structures
from uta.witnesses import lemma34_horizontal_fooling, lemma34_vertical_fooling

from oracles import render_automaton_by_block
from randgen import rand_dta_nfa, rand_dtadfa, rand_nta, rand_sdta


class TestDocumentRoundTrip:
    def test_all_tree_kinds(self):
        rng = random.Random(1)
        samples = [
            gen_lemma34((2, 3))[0],                    # dta-dfa with leaf states
            gen_thm41(2)[0],                           # nta-dfa
            dtadfa_to_sdta(gen_lemma34((2, 3))[0])[0], # sdta
            nta_to_dtadfa(gen_thm41(2)[0])[0],         # subset-named dta-dfa
            rand_nta(rng),                             # nta-nfa
            rand_dta_nfa(rng),                         # dta-nfa
            rand_sdta(rng),
            rand_dtadfa(rng),
        ]
        for auto in samples:
            text = render_automaton(auto)
            assert parse_automaton(text) == auto
            assert render_automaton(parse_automaton(text)) == text

    def test_standalone_machines(self):
        d = DFA(["s", "t"], ["a"], "s", ["t"], [("s", "a", "t")])
        n = NFA(["s", "t"], ["a"], ["s", "t"], ["t"], [("s", "a", "t"), ("s", "a", "s")])
        parts = [DFA([f"r{j}" for j in range(3)], ["a"], "r0", {f"r{i}"},
                     [(f"r{j}", "a", f"r{(j+1) % 3}") for j in range(3)])
                 for i in (1, 2, 0)]
        mu = marked_union(parts)
        mu = MooreDFA(mu.states, mu.alphabet, mu.initial, mu.finals,
                      list(mu.transitions()), {s: str(v) for s, v in mu.outputs.items()})
        for mach in (d, n, mu):
            assert parse_automaton(render_automaton(mach)) == mach

    def test_comments_ignored(self):
        text = render_automaton(gen_thm41(2)[0], ["made for a test", "second line"])
        assert text.startswith("# made for a test\n")
        assert parse_automaton(text) == gen_thm41(2)[0]

    def test_fooling_sets(self):
        fv = lemma34_vertical_fooling((2, 3))
        fh = lemma34_horizontal_fooling((2, 3))
        alpha = frozenset("ab01")
        got_v = parse_fooling_set(render_fooling_vertical(fv), alpha)
        assert got_v.trees == fv.trees and got_v.separators == fv.separators
        got_h = parse_fooling_set(render_fooling_horizontal(fh), alpha)
        assert got_h.tuples == fh.tuples and got_h.symbol == fh.symbol
        assert got_h.separators == fh.separators

    def test_horizontal_fooling_separators_are_shared(self):
        fh = lemma34_horizontal_fooling((2, 3, 5, 7))
        assert len(fh.separators) == 21945

        def distinct(fs):
            return (len({id(c) for c, _ in fs.separators.values()}),
                    len({id(p) for _, p in fs.separators.values()}))

        assert distinct(fh) == (4, 17)
        assert len({id(sep) for sep in fh.separators.values()}) == 17
        text = render_fooling_horizontal(fh)
        lines = text.splitlines()[2 + len(fh.tuples):]
        assert lines == [f"sep {i} {j}: {c} | {' '.join(map(str, p))}".rstrip()
                         for (i, j), (c, p) in sorted(fh.separators.items())]
        got = parse_fooling_set(text, frozenset("ab01"))
        assert distinct(got) == (4, 17)
        assert len({id(sep) for sep in got.separators.values()}) == 17
        assert got.tuples == fh.tuples and got.separators == fh.separators
        assert render_fooling_horizontal(got) == text


class TestSharedStructureRendering:
    """Blocks of one structure render their states and trans lines once;
    the text is the one every block rendered on its own gives."""

    def test_split_theorem_41_output(self):
        d = nta_to_dtadfa(gen_thm41(4)[0])[0]
        blocks = [m for _, m in sorted(d.horizontal.items())]
        assert [len(g) for g in shared_structures(blocks)] == [15]
        assert render_automaton(d) == render_automaton_by_block(d)

    def test_parsed_blocks_are_equal_but_apart(self):
        text = render_automaton(nta_to_dtadfa(gen_thm41(4)[0])[0])
        p = parse_automaton(text)
        deltas = [m.delta for (_, sym), m in p.horizontal.items() if sym == "a"]
        assert len(deltas) == 15 and len({id(x) for x in deltas}) == 15
        assert all(x == deltas[0] for x in deltas)
        assert render_automaton(p) == render_automaton_by_block(p) == text

    def test_sibling_groups_among_lone_machines(self):
        """Siblings of one structure with lone machines between them in key
        order, a parsed-apart equal copy, and a Moore machine whose DFA
        sibling shares its delta but renders no outputs line."""
        ha = frozenset({"p", "q", "r", "s"})
        m = MooreDFA(["h0", "h1", "h2"], ha, "h0", ["h1", "h2"],
                     [("h0", "p", "h1"), ("h1", "q", "h2"), ("h2", "p", "h2")],
                     {"h1": "p", "h2": "r"})
        lone = DFA(["h0", "h1"], ha, "h0", ["h1"], [("h0", "s", "h1")])
        copy = DFA(m.states, ha, "h0", ["h2"], list(m.transitions()))
        horizontal = {("p", "a"): m.with_finals(["h1"]), ("q", "a"): lone,
                      ("r", "a"): m.with_finals(["h2"]), ("s", "a"): m, ("p", "b"): copy,
                      ("q", "b"): lone, ("r", "b"): m.with_finals([])}
        a = TreeAutomaton(DTA_DFA, ["a", "b"], ["p", "q", "r", "s"], ["p"],
                          horizontal=horizontal)
        ms = [mach for _, mach in sorted(a.horizontal.items())]
        assert [len(g) for g in shared_structures(ms)] == [5, 2]
        assert render_automaton(a) == render_automaton_by_block(a)
        rng = random.Random(31)
        for _ in range(60):
            split = sdta_to_dtadfa(rand_sdta(rng))[0]
            assert render_automaton(split) == render_automaton_by_block(split)

    @pytest.mark.parametrize("make", [rand_sdta, rand_dtadfa, rand_nta, rand_dta_nfa])
    def test_random_automata(self, make):
        rng = random.Random(32)
        for _ in range(60):
            a = make(rng)
            outs = [a, nta_to_sdta(a)[0], nta_to_dtadfa(a)[0]] if a.kind != SDTA else [a]
            for x in outs:
                assert render_automaton(x) == render_automaton_by_block(x)
                assert render_automaton(x, ["a comment"]) == \
                    render_automaton_by_block(x, ["a comment"])

    def test_the_same_first_error(self):
        """A bad state name fails at its structure's first block, and a bad
        output value (set after construction, which checks outputs) at the
        block that holds it, as block by block."""
        ha = frozenset({"q", "r"})
        good = MooreDFA(["h0", "h1"], ha, "h0", ["h1"], [("h0", "q", "h1")], {"h1": "q"})
        bad = MooreDFA(["h0", "h 1"], ha, "h0", ["h 1"], [("h0", "q", "h 1")], {"h 1": "q"})
        worse = MooreDFA(["h 0", "h1"], ha, "h 0", ["h1"], [("h 0", "r", "h1")], {"h1": "r"})
        bad_state, bad_output = "state name 'h 1'", "output value 'q q'"
        cases = [({"a": good, "b": bad, "c": worse, "d": bad}, None, bad_state),
                 ({"a": good, "b": good.map_outputs(str), "c": worse}, "b", bad_output),
                 ({"a": bad, "b": good, "c": bad.map_outputs(str)}, "b", bad_state)]
        for moore, spoil, what in cases:
            a = TreeAutomaton(SDTA, sorted(moore), ["q", "r"], ["q"], moore=moore)
            if spoil:
                a.moore[spoil].outputs["h1"] = "q q"
            errors = []
            for render in (render_automaton, render_automaton_by_block):
                with pytest.raises(DocumentError) as err:
                    render(a)
                errors.append(str(err.value))
            assert errors == [f"{what} is not a valid token"] * 2


class TestDocumentValidation:
    def test_unknown_kind(self):
        with pytest.raises(DocumentError):
            parse_automaton("kind: hedge\n")

    def test_missing_field_diagnosed(self):
        with pytest.raises(DocumentError) as err:
            parse_automaton("kind: nta-nfa\nstates: q\nfinals: q\n")
        assert "alphabet" in str(err.value)

    def test_bad_transition_reports_line(self):
        text = ("kind: nta-nfa\nalphabet: a\nstates: q\nfinals: q\n"
                "horizontal q a:\n  states: h\n  initial: h\n  finals: h\n"
                "  trans: h q\n")
        with pytest.raises(DocumentError) as err:
            parse_automaton(text)
        assert err.value.line == 9

    def test_weakly_deterministic_kind_enforced(self):
        text = ("kind: dta-dfa\nalphabet: a\nstates: q1 q2\nfinals: q1\n"
                "horizontal q1 a:\n  states: h\n  initial: h\n  finals: h\n"
                "horizontal q2 a:\n  states: h\n  initial: h\n  finals: h\n")
        with pytest.raises(DocumentError) as err:
            parse_automaton(text)
        assert "disjoint" in str(err.value)

    def test_dfa_kind_rejects_nondeterministic_block(self):
        text = ("kind: nta-dfa\nalphabet: a\nstates: q\nfinals: q\n"
                "horizontal q a:\n  states: h g\n  initial: h\n  finals: g\n"
                "  trans: h q g\n  trans: h q h\n")
        with pytest.raises(DocumentError):
            parse_automaton(text)

    def test_outputs_only_in_moore_blocks(self):
        block = "states: s\ninitial: s\nfinals: s\noutputs: s=1\n"
        for text in (f"kind: dfa\nalphabet: a\n{block}",
                     f"kind: nfa\nalphabet: a\n{block}",
                     "kind: nta-nfa\nalphabet: a\nstates: q\nfinals: q\n"
                     f"horizontal q a:\n{block}"):
            with pytest.raises(DocumentError) as err:
                parse_automaton(text)
            assert "unexpected field 'outputs'" in str(err.value)
            assert err.value.line == text.count("\n")
        moore = parse_automaton(f"kind: moore-dfa\nalphabet: a\n{block}")
        assert moore.outputs == {"s": "1"}

    @pytest.mark.parametrize("block, line, message", [
        ("outputs: h0=q\noutputs: h1=q\n", 12, "duplicate field 'outputs'"),
        ("outputs: h0=q h1=q h1=p\n", 11, "state 'h1' has two outputs"),
        ("outputs: h0=q h1=q\nfinals: h0\n", 12, "duplicate field 'finals'"),
        ("outputs: hq\n", 11, "output entry 'hq' needs 'state=value'"),
    ], ids=["outputs-twice", "state-output-twice", "finals-twice", "output-without-value"])
    def test_machine_block_lines_not_dropped(self, tmp_path, capsys, block, line, message):
        # the first two used to parse, keeping the last of the repeated values
        text = ("kind: sdta\nalphabet: a\nstates: p q\nfinals: q\nhorizontal a:\n"
                "  states: h0 h1\n  initial: h0\n  finals: h0 h1\n"
                "  trans: h0 q h1\n  trans: h1 p h0\n" + block)
        with pytest.raises(DocumentError) as err:
            parse_automaton(text)
        assert message in str(err.value)
        assert err.value.line == line
        doc = tmp_path / "bad.uta"
        doc.write_text(text)
        assert cli_main(["size", str(doc)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_render_refuses_symbols_it_cannot_write_back(self):
        # the first rendered a document of alphabet {a, b}, the second one that
        # parse_automaton rejects, the third a machine of alphabet {a, b}
        for bad, message in (
                (TreeAutomaton("nta-nfa", {"a b"}, ["q"], ["q"]),
                 "alphabet symbol 'a b' is not a valid tree symbol"),
                (TreeAutomaton("nta-nfa", {"x"}, ["q"], ["q"]),
                 "alphabet symbol 'x' is not a valid tree symbol"),
                (DFA(["s"], ["a b"], "s", ["s"], []),
                 "alphabet symbol 'a b' is not a valid token")):
            with pytest.raises(DocumentError) as err:
                render_automaton(bad)
            assert str(err.value) == message

    def test_token_check_flags_what_isspace_flags(self):
        from uta.docs import _check_token

        def refused(tok):
            try:
                _check_token(tok, "state name")
            except DocumentError as e:
                assert str(e) == f"state name {tok!r} is not a valid token"
                return True
            return False

        def old(tok):  # the per-character predicate the check replaced
            return not tok or any(c.isspace() for c in tok) or "=" in tok

        mismatched, refused_chars = [], 0
        for cp in range(0x110000):
            c = chr(cp)
            refused_chars += refused(c)
            for tok in (c, f"q{c}q"):
                if refused(tok) != old(tok):
                    mismatched.append(hex(cp))
        assert mismatched == []
        assert refused_chars == 30  # the 29 code points isspace() flags, and "="
        for tok in ("", "=", "a=", "=b", "a=b", "q0", "h12", "{q1,q2}"):
            assert refused(tok) == old(tok)

    def test_separator_indices_checked(self):
        alpha = frozenset("ab01")
        vertical = "kind: fooling-vertical\ntree: b\ntree: a(b)\ntree: a(1)\n"
        horizontal = "kind: fooling-horizontal\nsymbol: a\ntuple: b\ntuple: b b\ntuple: 1\n"
        for head, sep in ((vertical, "x"), (horizontal, "x | b")):
            for key in ("7 9", "1 0", "1 1", "-1 2", "0 3"):
                with pytest.raises(DocumentError) as err:
                    parse_fooling_set(f"{head}sep {key}: {sep}\n", alpha)
                assert f"'sep {key}'" in str(err.value)
                assert err.value.line == head.count("\n") + 1
            assert (0, 2) in parse_fooling_set(f"{head}sep 0 2: {sep}\n", alpha).separators

    @pytest.mark.parametrize("key", [(1, 0), (0, 2), (0, 0), (0, 1, 2), (0.0, 1.0)])
    def test_renderers_refuse_keys_the_parser_rejects(self, key):
        b, ab = parse_tree("b", "ab"), parse_tree("a(b)", "ab")
        ctx = parse_context("a(x)", "ab")
        for render, fs in (
                (render_fooling_vertical, FoolingSetVertical([b, ab], {key: ctx})),
                (render_fooling_horizontal,
                 FoolingSetHorizontal([(b,), (b, b)], "a", {key: (ctx, (b,))}))):
            with pytest.raises(UtaError) as err:
                render(fs)
            assert str(err.value) == f"separator key {key!r} needs indices 0 <= i < j < 2"

    @pytest.mark.parametrize("text, line, message", [
        ("kind: fooling-vertical\ntree: a(b\ntree: b\n", 2, "expected ',' or ')' (at offset 3)"),
        ("kind: fooling-vertical\ntree: b\ntree: a(y)\n", 3, "unknown symbol 'y' (at offset 2)"),
        ("kind: fooling-horizontal\nsymbol: a\ntuple: b\ntuple: b a(\n",
         4, "expected a symbol (at offset 2)"),
        ("kind: fooling-vertical\ntree: b\ntree: a(b)\nsep 0 1: a(y)\n",
         4, "unknown symbol 'y' (at offset 2)"),
        ("kind: fooling-vertical\ntree: b\ntree: a(b)\nsep 0 1: a(x,x)\n",
         4, "context must contain exactly one 'x' leaf, found 2 (at offset 0)"),
        ("kind: fooling-horizontal\nsymbol: a\ntuple: b\ntuple: b b\nsep 0 1: a(x)) | b\n",
         5, "trailing input after tree (at offset 4)"),
        ("kind: fooling-horizontal\nsymbol: a\ntuple: b\ntuple: b b\nsep 0 1: x | b y\n",
         5, "unknown symbol 'y' (at offset 0)"),
    ], ids=["tree", "tree-symbol", "tuple", "vertical-separator", "vertical-separator-variables",
            "horizontal-separator", "padding"])
    def test_malformed_trees_name_their_line(self, text, line, message):
        with pytest.raises(DocumentError) as err:
            parse_fooling_set(text, frozenset("ab"))
        assert str(err.value) == f"{message} (line {line})"
        assert err.value.line == line

    @pytest.mark.parametrize("text, line, message", [
        ("kind: fooling-vertical\ntree: b\ntree: a(b)\nsep 0 1: x\nsep 0 1: a(x)\n",
         5, "duplicate separator 'sep 0 1'"),
        ("kind: fooling-horizontal\nsymbol: a\ntuple: b\ntuple: b b\n"
         "sep 0 1: x | b\nsep 0  1: a(x) |\n", 6, "duplicate separator 'sep 0  1'"),
        ("kind: fooling-horizontal\nsymbol: a\ntuple: b\nsymbol: b\n",
         4, "duplicate field 'symbol'"),
        ("kind: fooling-horizontal\ntuple: b\nsymbol: a b\n",
         3, "symbol takes exactly one value"),
        ("kind: fooling-horizontal extra\nsymbol: a\ntuple: b\n",
         1, "kind takes exactly one value"),
        ("kind: fooling-vertical\ntree: b\ntree: a(b)\n: a(x)\n",
         4, "unexpected field ''"),
    ], ids=["sep-twice-vertical", "sep-twice-horizontal", "symbol-twice",
            "symbol-two-values", "kind-extra-value", "empty-field-name"])
    def test_fooling_set_lines_not_dropped(self, text, line, message):
        # each of these used to parse, keeping one of the repeated values,
        # except the empty field name, which raised IndexError
        with pytest.raises(DocumentError) as err:
            parse_fooling_set(text, frozenset("ab"))
        assert message in str(err.value)
        assert err.value.line == line


# documents whose generated state names clash: the subsets {a, b} and {"a,b"},
# the vertical state sets {p, r} and {"p,r"}, and the product states
# ("a|b", "c") and ("a", "b|c")
CLASH_SUBSETS = """kind: nta-nfa
alphabet: f u v
states: q
finals: q
leafstates: u v
horizontal q f:
  states: s a b a,b
  initial: s
  finals: a,b
  trans: s u a
  trans: s u b
  trans: s v a,b
"""
CLASH_VERTICAL = "".join(["kind: nta-nfa\nalphabet: f g u\nstates: p r p,r\nfinals: p,r\n"
                          "leafstates: u\n"] + [
    f"horizontal {q}:\n  states: h0 h1\n  initial: h0\n  finals: h1\n  trans: h0 u h1\n"
    for q in ("p f", "r f", "p,r g")])
CLASH_UNION = """kind: dta-dfa
alphabet: f u v
states: q1 q2
finals: q1
leafstates: u v
horizontal q1 f:
  states: i a|b a
  initial: i
  finals: a|b
  trans: i u a|b
  trans: i v a
horizontal q2 f:
  states: i c b|c
  initial: i
  finals: b|c
  trans: i u c
  trans: i v b|c
"""


# an nta-nfa document's head and one block body, for the document errors below
_HEAD = "kind: nta-nfa\nalphabet: a b\nstates: q\nleafstates: b\nfinals: q\n"
_RUN = "  states: h0 h1\n  initial: h0\n  finals: h1\n  trans: h0 b h1\n"


class TestCli:
    def run_cli(self, capsys, *argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_witness_size_pipeline(self, tmp_path, capsys):
        doc = tmp_path / "thm41.uta"
        code, _, _ = self.run_cli(capsys, "witness", "thm41", "--n", "2",
                                  "--out", str(doc))
        assert code == 0
        code, out, _ = self.run_cli(capsys, "size", str(doc))
        assert code == 0 and out.strip() == "[2; 9]"

    def test_run_command(self, tmp_path, capsys):
        doc = tmp_path / "l.uta"
        self.run_cli(capsys, "witness", "lemma34", "--k", "2,3", "--out", str(doc))
        code, out, _ = self.run_cli(capsys, "run", str(doc), "--tree", "a(b,b,1)")
        assert code == 0 and out.strip() == "accept {q1}"
        code, out, _ = self.run_cli(capsys, "run", str(doc), "--tree", "a(b,1)")
        assert code == 0 and out.strip() == "reject {}"

    def test_convert_then_size(self, tmp_path, capsys):
        doc = tmp_path / "thm41.uta"
        conv = tmp_path / "det.uta"
        self.run_cli(capsys, "witness", "thm41", "--n", "2", "--out", str(doc))
        code, _, err = self.run_cli(capsys, "convert", str(doc), "--to", "dtadfa",
                                    "--out", str(conv))
        assert code == 0
        assert "bound-satisfied: true" in err
        code, out, _ = self.run_cli(capsys, "size", str(conv))
        v, h = out.strip().strip("[]").split(";")
        assert int(v) >= 3 and int(h) >= 18

    def test_equiv_with_self_and_status_codes(self, tmp_path, capsys):
        doc = tmp_path / "l.uta"
        self.run_cli(capsys, "witness", "lemma34", "--k", "2,3", "--out", str(doc))
        code, out, _ = self.run_cli(capsys, "equiv", str(doc), str(doc),
                                    "--depth", "3", "--width", "3", "--count", "200")
        assert code == 0 and out.startswith("equal")
        other = tmp_path / "o.uta"
        self.run_cli(capsys, "witness", "lemma34", "--k", "3,5", "--out", str(other))
        code, out, _ = self.run_cli(capsys, "equiv", str(doc), str(other),
                                    "--depth", "4", "--width", "4", "--count", "3000")
        assert code == 1 and "counterexample" in out

    def test_check_det_statuses(self, tmp_path, capsys):
        det = tmp_path / "det.uta"
        nondet = tmp_path / "nondet.uta"
        self.run_cli(capsys, "witness", "lemma34", "--k", "2,3", "--out", str(det))
        self.run_cli(capsys, "witness", "thm41", "--n", "2", "--out", str(nondet))
        assert self.run_cli(capsys, "check-det", str(det))[0] == 0
        code, out, _ = self.run_cli(capsys, "check-det", str(nondet))
        assert code == 1 and "nondeterministic" in out

    def test_check_det_searches_a_weakly_deterministic_document_once(
            self, tmp_path, capsys, monkeypatch):
        doc = tmp_path / "d2.uta"
        self.run_cli(capsys, "witness", "thm41", "--n", "2", "--out", str(doc))
        self.run_cli(capsys, "convert", str(doc), "--to", "dtadfa", "--out", str(doc))
        auto = parse_automaton(doc.read_text())
        assert auto.kind == DTA_DFA
        calls = []

        def counting(machines):
            calls.append(len(machines))
            return first_overlap(machines)

        monkeypatch.setattr(automata, "first_overlap", counting)
        assert self.run_cli(capsys, "check-det", str(doc))[:2] == (0, "deterministic\n")
        # one search per symbol, as parsing made it, and none after
        assert calls == [len(auto.machines_for(s)) for s in sorted(auto.alphabet)]
        assert sum(calls) > 1

    def test_certify_via_named_predicate(self, tmp_path, capsys):
        fv = tmp_path / "fv.txt"
        fv.write_text(render_fooling_vertical(lemma34_vertical_fooling((2, 3))))
        code, out, _ = self.run_cli(capsys, "certify", "vertical", "lemma34:2,3",
                                    "--fooling-set", str(fv))
        assert code == 0 and out.strip() == "certified lower bound: 2"
        fh = tmp_path / "fh.txt"
        fh.write_text(render_fooling_horizontal(lemma34_horizontal_fooling((2, 3))))
        code, out, _ = self.run_cli(capsys, "certify", "horizontal", "lemma34:2,3",
                                    "--fooling-set", str(fh))
        assert code == 0 and out.strip() == "certified lower bound: 5"

    def test_witness_emits_fooling_sets(self, tmp_path, capsys):
        doc = tmp_path / "l.uta"
        fv = tmp_path / "fv.txt"
        fh = tmp_path / "fh.txt"
        code, _, _ = self.run_cli(capsys, "witness", "lemma34", "--k", "2,3",
                                  "--out", str(doc),
                                  "--fooling-vertical", str(fv),
                                  "--fooling-horizontal", str(fh))
        assert code == 0
        code, out, _ = self.run_cli(capsys, "certify", "vertical", str(doc),
                                    "--fooling-set", str(fv))
        assert code == 0 and out.strip() == "certified lower bound: 2"
        code, out, _ = self.run_cli(capsys, "certify", "horizontal", str(doc),
                                    "--fooling-set", str(fh))
        assert code == 0 and out.strip() == "certified lower bound: 5"

    def test_canon_and_prune(self, tmp_path, capsys):
        doc = tmp_path / "l.uta"
        sdta = tmp_path / "s.uta"
        self.run_cli(capsys, "witness", "lemma34", "--k", "2,3", "--out", str(doc))
        code, _, _ = self.run_cli(capsys, "convert", str(doc), "--to", "sdta",
                                  "--out", str(sdta))
        assert code == 0
        canon = tmp_path / "c.uta"
        assert self.run_cli(capsys, "canon", str(sdta), "--out", str(canon))[0] == 0
        code, out, _ = self.run_cli(capsys, "size", str(canon))
        assert out.strip() == "[2; 11]"
        pruned = tmp_path / "p.uta"
        assert self.run_cli(capsys, "prune", str(doc), "--out", str(pruned))[0] == 0
        code, out, _ = self.run_cli(capsys, "size", str(pruned))
        assert out.strip() == "[2; 11]"

    @pytest.mark.parametrize("doc, to, name", [
        (CLASH_SUBSETS, "dtadfa", "{a,b}"),
        (CLASH_SUBSETS + "  trans: a u a\n  trans: a,b u s\n", "dtadfa", "{a,b}"),
        (CLASH_VERTICAL, "sdta", "{p,r}"),
        (CLASH_UNION, "sdta", "(a|b|c)")], ids=["subsets", "subsets-loop", "vertical", "union"])
    def test_generated_names_that_clash_exit_two(self, tmp_path, capsys, doc, to, name):
        src, out = tmp_path / "clash.uta", tmp_path / "out.uta"
        src.write_text(doc)
        code, stdout, err = self.run_cli(capsys, "convert", str(src), "--to", to,
                                         "--out", str(out))
        assert (code, stdout, err) == (2, "", f"error: two different states would both be named "
                                              f"{name!r}\n")
        assert not out.exists()

    def test_marked_union_witness(self, capsys):
        code, out, _ = self.run_cli(capsys, "witness", "marked-union", "--m", "3")
        assert code == 0
        assert "kind: moore-dfa" in out and "expected-size: 3" in out

    def test_byte_determinism(self, tmp_path, capsys):
        outs = []
        for name in ("x.uta", "y.uta"):
            doc = tmp_path / name
            self.run_cli(capsys, "witness", "thm41", "--n", "3", "--out", str(doc))
            outs.append(doc.read_bytes())
        assert outs[0] == outs[1]

    def test_usage_and_format_errors_exit_two(self, tmp_path, capsys):
        assert self.run_cli(capsys, "no-such-command")[0] == 2
        bad = tmp_path / "bad.uta"
        bad.write_text("kind: dta-dfa\nalphabet: a\n")
        assert self.run_cli(capsys, "size", str(bad))[0] == 2
        assert self.run_cli(capsys, "size", str(tmp_path / "missing.uta"))[0] == 2

    def test_certify_usage_errors_exit_two(self, tmp_path, capsys):
        fv = tmp_path / "fv.txt"
        fv.write_text(render_fooling_vertical(lemma34_vertical_fooling((2, 3))))
        empty_v = tmp_path / "empty_v.txt"
        empty_v.write_text("kind: fooling-vertical\n")
        empty_h = tmp_path / "empty_h.txt"
        empty_h.write_text("kind: fooling-horizontal\nsymbol: a\n")
        twice = tmp_path / "twice.txt"
        twice.write_text(fv.read_text() + "sep 0 1: x\n")
        for direction, source, fooling in (
                ("vertical", "lemma34:2,3", tmp_path / "missing" / "fv.txt"),
                ("vertical", "thm41:abc", fv), ("vertical", "thm41:2,3", fv),
                ("vertical", "lemma34:2,3", empty_v),
                ("horizontal", "lemma34:2,3", empty_h),
                ("vertical", "lemma34:2,3", twice)):
            code, out, err = self.run_cli(capsys, "certify", direction, source,
                                          "--fooling-set", str(fooling))
            assert (code, out) == (2, "") and err.startswith("error: "), (source, fooling)

    def test_deep_separator_fails_certification_cleanly(self, tmp_path, capsys):
        deep = 100_000
        fs = lemma34_vertical_fooling((2, 3))
        fs.separators[(1, 2)] = parse_context("a(" * deep + "x" + ")" * deep, "ab01")
        fv = tmp_path / "fv.txt"
        fv.write_text(render_fooling_vertical(fs))
        code, out, err = self.run_cli(capsys, "certify", "vertical", "lemma34:2,3",
                                      "--fooling-set", str(fv))
        assert (code, out) == (1, "")
        assert err.startswith("certification failed: context a(a(")
        assert len(err) < 200

    def test_empty_field_name_in_fooling_set_exits_two(self, tmp_path, capsys):
        fv = tmp_path / "bad.txt"
        fv.write_text("kind: fooling-vertical\ntree: b\ntree: a(b)\n: a(x)\n")
        code, out, err = self.run_cli(capsys, "certify", "vertical", "lemma34:2,3",
                                      "--fooling-set", str(fv))
        assert (code, out) == (2, "")
        assert err == ("error: unexpected field '' in fooling-vertical document "
                       "(line 4)\n")

    def test_malformed_tree_in_fooling_set_exits_two(self, tmp_path, capsys):
        fv = tmp_path / "fv.txt"
        for tree, message in (("a(b", "expected ',' or ')' (at offset 3)"),
                              ("a(y)", "unknown symbol 'y' (at offset 2)")):
            fv.write_text(f"kind: fooling-vertical\ntree: {tree}\ntree: b\n")
            code, out, err = self.run_cli(capsys, "certify", "vertical", "lemma34:2,3",
                                          "--fooling-set", str(fv))
            assert (code, out, err) == (2, "", f"error: {message} (line 2)\n")

    @pytest.mark.parametrize("symbol", ["z", "x"])
    def test_fooling_symbol_outside_the_alphabet_exits_two(self, tmp_path, capsys, symbol):
        # with the named predicate this was a false refutation, exit 1; with
        # the automaton, an "unknown symbol" error that named no line
        doc = tmp_path / "l.uta"
        fh = tmp_path / "fh.txt"
        self.run_cli(capsys, "witness", "lemma34", "--k", "2,3", "--out", str(doc),
                     "--fooling-horizontal", str(fh))
        fh.write_text(fh.read_text().replace("symbol: a\n", f"symbol: {symbol}\n"))
        for source in ("lemma34:2,3", str(doc)):
            code, out, err = self.run_cli(capsys, "certify", "horizontal", source,
                                          "--fooling-set", str(fh))
            assert (code, out) == (2, "")
            assert err == f"error: unknown symbol '{symbol}' (line 2)\n"

    def test_block_in_standalone_machine_exits_two(self, tmp_path, capsys):
        # the header and everything after it used to be dropped without a word
        doc = tmp_path / "dfa.uta"
        doc.write_text("kind: dfa\nalphabet: a\nstates: s\ninitial: s\nfinals: s\n"
                       "horizontal q a:\nnonsense\n")
        with pytest.raises(DocumentError) as err:
            parse_automaton(doc.read_text())
        assert err.value.line == 6
        code, out, err = self.run_cli(capsys, "size", str(doc))
        assert (code, out) == (2, "")
        assert err == "error: unexpected field 'horizontal' in dfa machine (line 6)\n"

    def test_non_utf8_document_exits_two(self, tmp_path, capsys):
        binary = tmp_path / "bin.uta"
        binary.write_bytes(b"\xff\xfe")
        code, out, err = self.run_cli(capsys, "size", str(binary))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {binary}: not UTF-8")

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        doc = tmp_path / "family.uta"
        self.run_cli(capsys, "witness", "lemma34", "--k", "2,3", "--out", str(doc))
        for argv, target in (
                (("witness", "lemma34", "--k", "2,3"), tmp_path / "nodir" / "x.uta"),
                (("convert", str(doc), "--to", "sdta"), tmp_path / "nodir" / "y.uta")):
            code, out, err = self.run_cli(capsys, *argv, "--out", str(target))
            assert (code, out) == (2, ""), argv
            assert err == f"error: cannot write {target}: No such file or directory\n"

    def test_equiv_bound_flags(self, tmp_path, capsys):
        doc = tmp_path / "l.uta"
        self.run_cli(capsys, "witness", "lemma34", "--k", "2,3", "--out", str(doc))
        for flag in (("--depth", "-1"), ("--count", "0")):
            code, out, err = self.run_cli(capsys, "equiv", str(doc), str(doc), *flag)
            assert (code, out) == (2, "") and err.startswith("error: invalid enumeration")
        # every tree over {a}, against the leaf a alone: they differ only on
        # trees with children, so width 0 cannot tell them apart
        ha = frozenset(["q"])
        every = DFA(["s"], ha, "s", ["s"], [("s", "q", "s")])
        empty = DFA(["s"], ha, "s", ["s"], [])
        paths = []
        for name, mach in (("every.uta", every), ("leaf.uta", empty)):
            auto = TreeAutomaton(DTA_DFA, ["a"], ["q"], ["q"], horizontal={("q", "a"): mach})
            (tmp_path / name).write_text(render_automaton(auto))
            paths.append(str(tmp_path / name))
        assert self.run_cli(capsys, "equiv", *paths, "--width", "0")[:2] == (
            0, "equal (bounded-enumeration)\n")
        assert self.run_cli(capsys, "equiv", *paths, "--width", "1")[:2] == (
            1, "not equal: counterexample a(a)\n")

    @pytest.mark.parametrize("doc, message", [
        ("kind: nta-nfa\nalphabet: a b\nstates: q\nfinals: q\nleafstates: z\n",
         "leaf convention declared for symbols outside the alphabet"),
        ("kind: nta-nfa\nalphabet: a b\nstates: q\nfinals: p\n",
         "finals must be declared states"),
        (f"{_HEAD}horizontal r a:\n{_RUN}", "machine keyed by undeclared state 'r'"),
        (f"{_HEAD}horizontal q:\n{_RUN}",
         "a nta-nfa block header reads 'horizontal <state> <symbol>:' (line 6)"),
        (f"{_HEAD}horizontal q a:\n{_RUN}horizontal q a:\n{_RUN}",
         "duplicate block 'q a:' (line 11)"),
    ])
    def test_document_errors_exit_two_with_one_line(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.uta"
        path.write_text(doc)
        assert self.run_cli(capsys, "size", str(path)) == (2, "", f"error: {message}\n")

    def test_commands_on_the_wrong_kind(self, tmp_path, capsys):
        family, sdta = tmp_path / "family.uta", tmp_path / "s.uta"
        self.run_cli(capsys, "witness", "lemma34", "--k", "2,3", "--out", str(family))
        self.run_cli(capsys, "convert", str(family), "--to", "sdta", "--out", str(sdta))
        assert self.run_cli(capsys, "convert", str(sdta), "--to", "sdta") == (
            2, "", "error: input is already strongly deterministic\n")
        code, _, err = self.run_cli(capsys, "convert", str(sdta), "--to", "dtadfa",
                                    "--out", str(tmp_path / "d.uta"))
        assert code == 0
        assert err.splitlines()[:4] == ["conversion: sdta-to-dtadfa", "input-size: [2; 12]",
                                        "output-size: [2; 24]", "bound: [2; 24]"]
        assert self.run_cli(capsys, "canon", str(family)) == (
            2, "", "error: canon applies to strongly deterministic automata only\n")

    def test_marked_union_needs_a_part(self, capsys):
        assert self.run_cli(capsys, "witness", "marked-union", "--m", "0") == (
            2, "", "error: --m must be at least 1\n")

    def test_certify_vertical_through_theorem_41(self, tmp_path, capsys):
        fv = tmp_path / "fv.txt"
        fv.write_text("kind: fooling-vertical\ntree: a(b,b)\ntree: a(b,b,b)\nsep 0 1: x\n")
        assert self.run_cli(capsys, "certify", "vertical", "thm41:2", "--fooling-set", str(fv)) == (
            0, "certified lower bound: 1\n", "")


# argv lists for every command: help, a missing or an unknown argument, a bad
# value and an extra positional, which the top-level parser reports
_PARSER_ARGV = [
    ["run"], ["run", "-h"], ["run", "f.uta"], ["run", "f.uta", "--tree", "a(b)", "extra"],
    ["convert", "f.uta"], ["convert", "f.uta", "--to", "nfa"], ["convert", "--help"],
    ["convert", "f.uta", "--to", "sdta", "--fo", "--bogus"],
    ["size"], ["size", "a.uta", "b.uta"], ["size", "--", "-h"], ["size", "a.uta", "-h"],
    ["equiv", "a.uta"], ["equiv", "a.uta", "b.uta", "--depth", "two"], ["equiv", "-h"],
    ["check-det"], ["check-det", "a.uta", "--out", "x"], ["prune", "a.uta", "--out"],
    ["prune", "-h"], ["witness"], ["witness", "-h"], ["witness", "lemma34"],
    ["witness", "lemma34", "-h"], ["witness", "thm41", "--n", "x"], ["witness", "nope"],
    ["witness", "marked-union", "--m", "2", "extra"], ["certify"], ["certify", "-h"],
    ["certify", "sideways", "x", "--fooling-set", "y"], ["certify", "vertical", "x"],
    ["canon"], ["canon", "a.uta", "b.uta"], ["canon", "-h"],
]


@pytest.mark.parametrize("columns", ["80", "40"])
def test_the_chosen_command_parser_prints_what_the_full_parser_prints(monkeypatch, capsys,
                                                                    columns):
    """``cli_main`` builds only the subparser of a known first argument; its
    outcome, exit code and every text must be the full parser's, also when
    the usage line wraps."""
    monkeypatch.setenv("COLUMNS", columns)
    texts = ""
    for argv in _PARSER_ARGV:
        outcomes = []
        for parser in (_build_parser(argv[0]), _build_parser()):
            try:
                outcome = vars(parser.parse_args(argv))
            except SystemExit as e:
                outcome = e.code
            outcomes.append((outcome, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv
        texts += outcomes[0][1] + outcomes[0][2]
    assert "uta: error: unrecognized arguments" in texts and "usage: uta witness" in texts
