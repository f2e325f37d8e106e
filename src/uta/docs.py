"""The textual document format for automata and fooling sets.

One self-describing, line-oriented format covers all five tree automaton
kinds and standalone string machines, so conversion output can be piped
straight back into any command.  Rendering is canonical (sorted fields,
fixed order), which makes every command's output byte-reproducible, and
``parse(render(x)) == x`` for every automaton the library produces.

Lines are ``field: tokens``; tokens are whitespace-separated; ``#`` starts a
comment line.  Tree-automaton documents contain one ``horizontal`` block per
(state, symbol) pair, or per symbol with an ``outputs`` line for the
strongly deterministic kind.
"""

from __future__ import annotations

from .automata import (DFA_KINDS, DTA_DFA, DTA_NFA, KINDS, SDTA, TreeAutomaton,
                       check_semantic_determinism)
from .errors import DocumentError
from .strings import DFA, NFA, MooreDFA
from .trees import SYMBOL_RE, VARIABLE, parse_context, parse_tree, render_tree

MACHINE_KINDS = ("nfa", "dfa", "moore-dfa")


def _check_token(tok: str, what: str):
    if not tok or any(c.isspace() for c in tok) or "=" in tok:
        raise DocumentError(f"{what} {tok!r} is not a valid token")


def render_machine_lines(mach, indent="") -> list:
    for s in mach.states:
        _check_token(s, "state name")
    if isinstance(mach, MooreDFA):
        for v in mach.outputs.values():
            _check_token(str(v), "output value")
    lines = [(f"{indent}states: " + " ".join(sorted(mach.states))).rstrip()]
    if isinstance(mach, DFA):
        lines.append(f"{indent}initial: {mach.initial}")
    else:
        lines.append(f"{indent}initial: " + " ".join(sorted(mach.initials)))
    lines.append((f"{indent}finals: " + " ".join(sorted(mach.finals))).rstrip())
    if isinstance(mach, MooreDFA):
        outs = " ".join(f"{s}={mach.outputs[s]}" for s in sorted(mach.outputs))
        lines.append(f"{indent}outputs: {outs}".rstrip())
    for src, sym, dst in mach.transitions():
        lines.append(f"{indent}trans: {src} {sym} {dst}")
    return lines


def render_automaton(a, header_comments=()) -> str:
    """Canonical document text for a TreeAutomaton or a standalone machine."""
    lines = [f"# {c}" for c in header_comments]
    if isinstance(a, TreeAutomaton):
        for q in a.states:
            _check_token(q, "state name")
        lines.append(f"kind: {a.kind}")
        lines.append("alphabet: " + " ".join(sorted(a.alphabet)))
        lines.append(("states: " + " ".join(sorted(a.states))).rstrip())
        lines.append(("finals: " + " ".join(sorted(a.finals))).rstrip())
        if a.leaf_symbols:
            lines.append("leafstates: " + " ".join(sorted(a.leaf_symbols)))
        if a.kind == SDTA:
            for sym in sorted(a.moore):
                lines.append(f"horizontal {sym}:")
                lines.extend(render_machine_lines(a.moore[sym], "  "))
        else:
            for (q, sym) in sorted(a.horizontal):
                lines.append(f"horizontal {q} {sym}:")
                lines.extend(render_machine_lines(a.horizontal[(q, sym)], "  "))
        return "\n".join(lines) + "\n"

    kind = {NFA: "nfa", DFA: "dfa", MooreDFA: "moore-dfa"}[type(a)]
    lines.append(f"kind: {kind}")
    lines.append("alphabet: " + " ".join(sorted(a.alphabet)))
    lines.extend(render_machine_lines(a))
    return "\n".join(lines) + "\n"


class _Lines:
    def __init__(self, text):
        self.items = []
        for no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            self.items.append((no, line))
        self.pos = 0

    def peek(self):
        return self.items[self.pos] if self.pos < len(self.items) else (None, None)

    def next(self):
        item = self.peek()
        self.pos += 1
        return item

    def done(self):
        return self.pos >= len(self.items)


def _field(line, no, expected=None):
    if ":" not in line:
        raise DocumentError(f"expected 'field: value', got {line!r}", no)
    name, _, rest = line.partition(":")
    name = name.strip()
    if expected is not None and name != expected:
        raise DocumentError(f"expected field {expected!r}, got {name!r}", no)
    return name, rest.split()


def _parse_machine_block(lines: _Lines, cls, alphabet, where):
    fields = {}
    trans = []
    outputs = {}
    while not lines.done():
        no, line = lines.peek()
        if line.startswith("horizontal"):
            break
        lines.next()
        name, toks = _field(line, no)
        if name == "trans":
            if len(toks) != 3:
                raise DocumentError(f"trans needs 'src sym dst', got {toks}", no)
            trans.append(tuple(toks))
        elif name == "outputs" and cls is MooreDFA:
            if name in fields:
                raise DocumentError(f"duplicate field {name!r} in {where}", no)
            fields[name] = (no, toks)
            for tok in toks:
                if "=" not in tok:
                    raise DocumentError(f"output entry {tok!r} needs 'state=value'", no)
                s, _, v = tok.partition("=")
                if s in outputs:
                    raise DocumentError(f"state {s!r} has two outputs in {where}", no)
                outputs[s] = v
        elif name in ("states", "initial", "finals"):
            if name in fields:
                raise DocumentError(f"duplicate field {name!r} in {where}", no)
            fields[name] = (no, toks)
        else:
            raise DocumentError(f"unexpected field {name!r} in {where}", no)
    for req in ("states", "initial", "finals"):
        if req not in fields:
            raise DocumentError(f"{where} is missing field {req!r}")
    no_i, initial = fields["initial"]
    try:
        if cls is NFA:
            return NFA(fields["states"][1], alphabet, initial, fields["finals"][1], trans)
        if len(initial) != 1:
            raise DocumentError(f"{where} needs exactly one initial state", no_i)
        if cls is MooreDFA:
            return MooreDFA(fields["states"][1], alphabet, initial[0],
                            fields["finals"][1], trans, outputs)
        return DFA(fields["states"][1], alphabet, initial[0], fields["finals"][1], trans)
    except ValueError as e:
        raise DocumentError(f"{where}: {e}", fields["states"][0]) from None


def parse_automaton(text: str):
    """Parse a document into a TreeAutomaton or a standalone machine.

    Documents violating the invariants of their declared kind are rejected,
    including the semantic-determinism requirement of the two weakly
    deterministic kinds.
    """
    lines = _Lines(text)
    no, line = lines.next()
    if line is None:
        raise DocumentError("empty document")
    _, toks = _field(line, no, "kind")
    if len(toks) != 1:
        raise DocumentError("kind takes exactly one value", no)
    kind = toks[0]
    if kind in MACHINE_KINDS:
        return _parse_standalone(lines, kind)
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}", no)
    return _parse_tree_automaton(lines, kind)


def _parse_standalone(lines: _Lines, kind):
    no, line = lines.next()
    if line is None:
        raise DocumentError("missing alphabet", no)
    _, alphabet = _field(line, no, "alphabet")
    cls = {"nfa": NFA, "dfa": DFA, "moore-dfa": MooreDFA}[kind]
    return _parse_machine_block(lines, cls, alphabet, f"{kind} machine")


def _parse_tree_automaton(lines: _Lines, kind):
    header = {}
    while not lines.done():
        no, line = lines.peek()
        if line.startswith("horizontal"):
            break
        lines.next()
        name, toks = _field(line, no)
        if name not in ("alphabet", "states", "finals", "leafstates"):
            raise DocumentError(f"unexpected header field {name!r}", no)
        if name in header:
            raise DocumentError(f"duplicate header field {name!r}", no)
        header[name] = toks
    for req in ("alphabet", "states", "finals"):
        if req not in header:
            raise DocumentError(f"document is missing field {req!r}")
    alphabet = header["alphabet"]
    for sym in alphabet:
        if not SYMBOL_RE.fullmatch(sym) or sym == VARIABLE:
            raise DocumentError(f"alphabet symbol {sym!r} is not a valid tree symbol")
    states = header["states"]
    leaf = header.get("leafstates", [])
    ha = set(states) | set(leaf)

    horizontal = {}
    moore = {}
    while not lines.done():
        no, line = lines.next()
        if not line.startswith("horizontal"):
            raise DocumentError(f"expected a horizontal block, got {line!r}", no)
        head = line[len("horizontal"):].strip()
        if not head.endswith(":"):
            raise DocumentError("horizontal block header must end with ':'", no)
        keys = head[:-1].split()
        if kind == SDTA:
            if len(keys) != 1:
                raise DocumentError("sdta horizontal blocks are keyed by one symbol", no)
            mach = _parse_machine_block(lines, MooreDFA, ha, f"block {head!r}")
            if keys[0] in moore:
                raise DocumentError(f"duplicate block for symbol {keys[0]!r}", no)
            moore[keys[0]] = mach
        else:
            if len(keys) != 2:
                raise DocumentError("horizontal blocks are keyed by state and symbol", no)
            cls = DFA if kind in DFA_KINDS else NFA
            mach = _parse_machine_block(lines, cls, ha, f"block {head!r}")
            if tuple(keys) in horizontal:
                raise DocumentError(f"duplicate block for {keys}", no)
            horizontal[tuple(keys)] = mach

    try:
        auto = TreeAutomaton(kind, alphabet, states, header["finals"],
                             horizontal=horizontal, moore=moore, leaf_symbols=leaf)
    except Exception as e:
        raise DocumentError(str(e)) from None
    if kind in (DTA_NFA, DTA_DFA):
        det = check_semantic_determinism(auto)
        if not det.ok:
            raise DocumentError(
                f"kind {kind} requires disjoint horizontal languages, but "
                f"states {det.pair[0]!r} and {det.pair[1]!r} overlap under "
                f"{det.symbol!r} on {' '.join(det.witness)!r}")
    return auto


def render_fooling_vertical(fs) -> str:
    lines = ["kind: fooling-vertical", *(f"tree: {render_tree(t)}" for t in fs.trees)]
    return _render_separators(lines, fs.separators, str)


def render_fooling_horizontal(fs) -> str:
    lines = ["kind: fooling-horizontal", f"symbol: {fs.symbol}"]
    lines += [("tuple: " + " ".join(map(render_tree, tup))).rstrip() for tup in fs.tuples]
    return _render_separators(
        lines, fs.separators,
        lambda sep: f"{sep[0]} | {' '.join(map(render_tree, sep[1]))}".rstrip())


def _render_separators(lines, separators, render) -> str:
    """``lines`` and then one ``sep i j`` line per pair, in index order;
    each separator object is rendered once, however many pairs share it."""
    texts = {}
    for i, j in sorted(separators):
        sep = separators[i, j]
        if id(sep) not in texts:
            texts[id(sep)] = render(sep)
        lines.append(f"sep {i} {j}: {texts[id(sep)]}")
    return "\n".join(lines) + "\n"


def _parse_padding(text, alphabet):
    return tuple(parse_tree(t, alphabet) for t in text.split())


def parse_fooling_set(text: str, alphabet):
    """Parse a fooling-set document; trees use term syntax with no internal
    whitespace so they can be listed space-separated.  Each distinct text
    is parsed once, and equal texts share one parsed object: a horizontal
    separator is one (context, padding) pair per distinct text, whose parts
    are shared with the other pairs as well."""
    from .witnesses import FoolingSetHorizontal, FoolingSetVertical
    lines = _Lines(text)
    no, line = lines.next()
    if line is None:
        raise DocumentError("empty document")
    _, toks = _field(line, no, "kind")
    if len(toks) != 1:
        raise DocumentError("kind takes exactly one value", no)
    kind = toks[0]
    horizontal = kind == "fooling-horizontal"
    if not horizontal and kind != "fooling-vertical":
        raise DocumentError(f"unknown fooling-set kind {kind!r}", no)
    parsed, sep_lines = {}, {}

    def once(parse, text):
        got = parsed.get((parse, text))
        if got is None:
            got = parsed[parse, text] = parse(text, alphabet)
        return got

    def parse_separator(text, alphabet):
        toks = text.split()
        cut = toks.index("|")
        return (once(parse_context, " ".join(toks[:cut])),
                once(_parse_padding, " ".join(toks[cut + 1:])))

    symbol, members, seps = None, [], {}
    while not lines.done():
        no, line = lines.next()
        name, toks = _field(line, no)
        if name == "symbol" and horizontal:
            if symbol is not None:
                raise DocumentError("duplicate field 'symbol'", no)
            if len(toks) != 1:
                raise DocumentError("symbol takes exactly one value", no)
            symbol = toks[0]
        elif name == ("tuple" if horizontal else "tree"):
            members.append(tuple(once(parse_tree, t) for t in toks) if horizontal
                           else once(parse_tree, " ".join(toks)))
        else:
            parts = name.split()
            if len(parts) != 3 or parts[0] != "sep":
                raise DocumentError(f"unexpected field {parts[0]!r}", no)
            try:
                key = int(parts[1]), int(parts[2])
            except ValueError:
                raise DocumentError(f"separator indices must be integers: {name!r}", no) from None
            if key in sep_lines:
                raise DocumentError(f"duplicate separator {name!r}", no)
            sep_lines[key] = no, name
            if horizontal and "|" not in toks:
                raise DocumentError("separator needs 'context | padding...'", no)
            seps[key] = once(parse_separator if horizontal else parse_context, " ".join(toks))
    if horizontal and symbol is None:
        raise DocumentError("fooling-horizontal document is missing its symbol")
    for (i, j), (no, name) in sep_lines.items():
        if not 0 <= i < j < len(members):
            raise DocumentError(
                f"separator {name!r} needs indices 0 <= i < j < {len(members)}", no)
    if horizontal:
        return FoolingSetHorizontal(members, symbol, seps)
    return FoolingSetVertical(members, seps)
