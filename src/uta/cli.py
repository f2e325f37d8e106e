"""Command-line interface.

Exit status 0 on success, 1 when a checked property fails (inequivalence,
nondeterminism, a violated bound, a failed certification), 2 on usage or
document errors.  All output is deterministic: the same inputs produce
byte-identical documents.

The ``equiv`` flags ``--depth``, ``--width`` and ``--count`` override the
default enumeration bounds used by tree-level equivalence checks.

Commands import ``analysis``, ``convert`` and ``witnesses`` on first use, to start faster.
"""

from __future__ import annotations

import argparse
import sys

from . import docs
from .automata import DTA_DFA, DTA_NFA, SDTA, TreeAutomaton, accepts
from .automata import check_semantic_determinism, prune_reachable, run, size
from .errors import SeparationError, UtaError
from .strings import DFA, marked_union
from .trees import EnumerationBounds, parse_tree


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UtaError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise UtaError(f"cannot read {path}: not UTF-8") from None


def _load(path: str):
    return docs.parse_automaton(_read(path))


def _load_tree_automaton(path: str) -> TreeAutomaton:
    a = _load(path)
    if not isinstance(a, TreeAutomaton):
        raise UtaError(f"{path} holds a string machine, not a tree automaton")
    return a


def _emit(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UtaError(f"cannot write {out}: {e.strerror}") from None


def _cmd_run(args) -> int:
    a = _load_tree_automaton(args.file)
    t = parse_tree(args.tree, a.alphabet)
    root = run(a, t)[()]
    verdict = "accept" if root & a.finals else "reject"
    print(f"{verdict} {{{','.join(sorted(root))}}}")
    return 0


def _cmd_convert(args) -> int:
    from . import convert
    a = _load_tree_automaton(args.file)
    if args.to == "sdta":
        if a.kind == SDTA:
            raise UtaError("input is already strongly deterministic")
        if a.kind == DTA_DFA and not args.force_general:
            out, report = convert.dtadfa_to_sdta(a)
        else:
            out, report = convert.nta_to_sdta(a, force_general=args.force_general)
    else:
        if a.kind == SDTA:
            out, report = convert.sdta_to_dtadfa(a)
        else:
            out, report = convert.nta_to_dtadfa(a, force_general=args.force_general)
    _emit(docs.render_automaton(out), args.out)
    sys.stderr.write(report.render())
    return 0 if report.bound_satisfied else 1


def _cmd_size(args) -> int:
    print(size(_load_tree_automaton(args.file)))
    return 0


def _cmd_equiv(args) -> int:
    from . import analysis
    a = _load_tree_automaton(args.file1)
    b = _load_tree_automaton(args.file2)
    given = {"max_depth": args.depth, "max_width": args.width, "max_count": args.count}
    try:
        bounds = EnumerationBounds(**{k: v for k, v in given.items() if v is not None})
    except ValueError as e:  # out-of-range bounds are a usage error
        raise UtaError(str(e)) from None
    if a.kind == SDTA and b.kind == SDTA:
        verdict = analysis.equiv_canonical(a, b, bounds)
    else:
        verdict = analysis.equiv_bounded(a, b, bounds)
    if verdict.equal:
        print(f"equal ({verdict.method})")
        return 0
    if verdict.counterexample is not None:
        print(f"not equal: counterexample {verdict.counterexample}")
    else:
        print("not equal (canonical forms differ; no counterexample within bounds)")
    return 1


def _cmd_check_det(args) -> int:
    a = _load_tree_automaton(args.file)
    if a.kind in (DTA_NFA, DTA_DFA):
        # parse_automaton rejects these kinds when horizontal languages overlap
        print("deterministic")
        return 0
    report = check_semantic_determinism(a)
    if report.ok:
        print("deterministic")
        return 0
    q1, q2 = report.pair
    word = " ".join(report.witness) if report.witness else "<empty string>"
    print(f"nondeterministic: symbol {report.symbol} states {q1},{q2} share {word!r}")
    return 1


def _cmd_prune(args) -> int:
    _emit(docs.render_automaton(prune_reachable(_load_tree_automaton(args.file))), args.out)
    return 0


def _cmd_witness(args) -> int:
    from . import witnesses
    if args.family == "lemma34":
        k = _parse_ints(args.k, "--k")
        auto, pred = witnesses.gen_lemma34(k)
        manifest = [f"witness: lemma34 k={','.join(map(str, k))}",
                    f"expected-size: {size(auto)}",
                    f"language: {pred.description}"]
        _emit(docs.render_automaton(auto, manifest), args.out)
        if args.fooling_vertical:
            _emit(docs.render_fooling_vertical(
                witnesses.lemma34_vertical_fooling(k)), args.fooling_vertical)
        if args.fooling_horizontal:
            _emit(docs.render_fooling_horizontal(
                witnesses.lemma34_horizontal_fooling(k)), args.fooling_horizontal)
        return 0
    if args.family == "thm41":
        auto, pred = witnesses.gen_thm41(args.n)
        manifest = [f"witness: thm41 n={args.n}",
                    f"expected-size: {size(auto)}",
                    f"language: {pred.description}"]
        _emit(docs.render_automaton(auto, manifest), args.out)
        return 0
    # marked-union: the m unary residue languages j = i (mod m)
    m = args.m
    if m < 1:
        raise UtaError("--m must be at least 1")
    parts = []
    for i in range(1, m + 1):
        states = [f"r{j}" for j in range(m)]
        trans = [(f"r{j}", "a", f"r{(j + 1) % m}") for j in range(m)]
        parts.append(DFA(states, ["a"], "r0", {f"r{i % m}"}, trans))
    machine = marked_union(parts).map_outputs(str)
    manifest = [f"witness: marked-union m={m}", f"expected-size: {machine.size}"]
    _emit(docs.render_automaton(machine, manifest), args.out)
    return 0


def _parse_ints(raw: str, flag: str) -> tuple:
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise UtaError(f"{flag} takes comma-separated integers, got {raw!r}") from None


def _named_predicate(spec: str):
    from . import witnesses
    name, _, rest = spec.partition(":")
    if name == "lemma34":
        _, pred = witnesses.gen_lemma34(_parse_ints(rest, "lemma34:"))
        return pred
    if name == "thm41":
        n = _parse_ints(rest, "thm41:")
        if len(n) != 1:
            raise UtaError(f"thm41: takes one integer, got {rest!r}")
        _, pred = witnesses.gen_thm41(n[0])
        return pred
    return None


def _cmd_certify(args) -> int:
    from . import witnesses
    pred = _named_predicate(args.source)
    if pred is None:
        auto = _load_tree_automaton(args.source)
        pred = witnesses.LangPredicate(auto.alphabet, lambda t: accepts(auto, t),
                                       f"language of {args.source}")
    fs = docs.parse_fooling_set(_read(args.fooling_set), pred.alphabet)
    if args.direction == "vertical":
        if not isinstance(fs, witnesses.FoolingSetVertical):
            raise UtaError("vertical certification needs a fooling-vertical document")
        bound = witnesses.certify_vertical_bound(pred, fs)
    else:
        if not isinstance(fs, witnesses.FoolingSetHorizontal):
            raise UtaError("horizontal certification needs a fooling-horizontal document")
        bound = witnesses.certify_horizontal_bound(pred, fs)
    print(f"certified lower bound: {bound}")
    return 0


def _cmd_canon(args) -> int:
    from . import analysis
    a = _load_tree_automaton(args.file)
    if a.kind != SDTA:
        raise UtaError("canon applies to strongly deterministic automata only")
    _emit(docs.render_automaton(analysis.canonical_sdta(a)), args.out)
    return 0


_COMMANDS = ("run", "convert", "size", "equiv", "check-det", "prune", "witness", "certify",
             "canon")


def _build_parser(command=None) -> argparse.ArgumentParser:
    """The ``uta`` parser.  Given a known ``command``, only that command's
    subparser is built; its ``{...}`` metavar keeps the full parser's usage
    line, the only text of the top level that a known command can print
    (after an unrecognized argument).  Help, a missing or an unknown command
    need the full parser."""
    p = argparse.ArgumentParser(prog="uta", description="unranked tree automata toolkit")
    only = command in _COMMANDS
    sub = p.add_subparsers(dest="command", required=True,
                           metavar="{" + ",".join(_COMMANDS) + "}" if only else None)

    def add(name, text, fn):
        if only and name != command:
            return None
        s = sub.add_parser(name, help=text)
        s.set_defaults(fn=fn)
        return s

    if s := add("run", "evaluate an automaton on a tree", _cmd_run):
        s.add_argument("file")
        s.add_argument("--tree", required=True, help="tree in term syntax, e.g. a(b,b)")

    if s := add("convert", "convert between automaton kinds", _cmd_convert):
        s.add_argument("file")
        s.add_argument("--to", choices=("sdta", "dtadfa"), required=True)
        s.add_argument("--force-general", action="store_true",
                       help="use the subset construction even for deterministic input")
        s.add_argument("--out", help="write the document here instead of stdout")

    if s := add("size", "print the [vertical; horizontal] size pair", _cmd_size):
        s.add_argument("file")

    if s := add("equiv", "compare two automata on enumerated trees", _cmd_equiv):
        s.add_argument("file1")
        s.add_argument("file2")
        s.add_argument("--depth", type=int)
        s.add_argument("--width", type=int)
        s.add_argument("--count", type=int)

    if s := add("check-det", "check semantic determinism", _cmd_check_det):
        s.add_argument("file")

    if s := add("prune", "drop states no run can assign", _cmd_prune):
        s.add_argument("file")
        s.add_argument("--out")

    if s := add("witness", "generate a lower-bound witness family", _cmd_witness):
        fam = s.add_subparsers(dest="family", required=True)
        f = fam.add_parser("lemma34", help="coprime-moduli chain family (weakly deterministic)")
        f.add_argument("--k", required=True, help="comma-separated coprime moduli, e.g. 2,3")
        f.add_argument("--out")
        f.add_argument("--fooling-vertical", help="also write the packaged vertical fooling set")
        f.add_argument("--fooling-horizontal",
                       help="also write the packaged horizontal fooling set")
        f = fam.add_parser("thm41", help="prime-divisibility chain family (nondeterministic)")
        f.add_argument("--n", type=int, required=True)
        f.add_argument("--out")
        f = fam.add_parser("marked-union", help="unary residue marked union (string machine)")
        f.add_argument("--m", type=int, required=True)
        f.add_argument("--out")

    if s := add("certify", "verify a fooling set and print its bound", _cmd_certify):
        s.add_argument("direction", choices=("vertical", "horizontal"))
        s.add_argument("source", help="automaton document, or lemma34:K1,K2 / thm41:N")
        s.add_argument("--fooling-set", required=True)

    if s := add("canon", "canonicalize a strongly deterministic automaton", _cmd_canon):
        s.add_argument("file")
        s.add_argument("--out")
    return p


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SeparationError as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return 1
    except UtaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
