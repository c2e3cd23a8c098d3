"""Line-oriented text formats for groups and operators.

A group block lists "domain: n", optional "label: ..." and "order: ..."
lines and "gen: ..." lines (space-separated 0-based images).  An operator
block appends "op: ..." (image indices into the canonical element list),
or a "proc: ..." construction descriptor followed by the "distinguished:",
"r:" and "t:" lines of the build; parse_operator rebuilds a proc: operator
and checks the whole block, up to the build's "t:" line, against
format_operator of the build.  Lines after a block's last line are not
read, so a `construct --dump` or `build-an --dump` printout parses.
Round-trips are bit-exact.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterator

from .perm import FiniteGroup, Perm
from .rbop import RBOperator


class FormatError(ValueError):
    pass


def _expect(line: str, key: str) -> str:
    prefix = key + ":"
    if not line.startswith(prefix):
        raise FormatError(f"expected {prefix!r}, got {line!r}")
    return line[len(prefix) :].strip()


def _ints(line: str, key: str) -> tuple[int, ...]:
    """The space-separated integers of a `key:` line."""
    try:
        return tuple(int(tok) for tok in _expect(line, key).split())
    except ValueError:
        raise FormatError(f"bad token in {line!r}") from None


def _count(line: str, key: str) -> int:
    """The one non-negative integer of a `key:` line."""
    value = _ints(line, key)
    if len(value) != 1 or value[0] < 0:
        raise FormatError(f"{key} needs one non-negative integer, got {line!r}")
    return value[0]


def format_group(G: FiniteGroup) -> str:
    lines = [f"domain: {G.degree}"]
    if G.label:
        lines.append(f"label: {G.label}")
    if not G.enumerated:
        lines.append(f"order: {G.order()}")
    for g in G.generators:
        lines.append("gen: " + " ".join(str(i) for i in g))
    return "\n".join(lines) + "\n"


def parse_group(text: str | list[str]) -> FiniteGroup:
    lines = _lines(text)
    if not lines:
        raise FormatError("empty group block")
    degree = _count(lines[0], "domain")
    label = ""
    order = None
    gens = []
    for line in lines[1:]:
        if line.startswith("label:"):
            label = _expect(line, "label")
        elif line.startswith("order:"):
            order = _count(line, "order")
        elif line.startswith("gen:"):
            imgs = _ints(line, "gen")
            if len(imgs) != degree:
                raise FormatError(f"generator degree {len(imgs)} != domain {degree}")
            gens.append(Perm.checked(imgs))
        else:
            raise FormatError(f"unexpected group line {line!r}")
    if order is not None:
        return FiniteGroup.generator_only(degree, gens, order=order, label=label)
    if not gens:
        gens = [Perm.identity(degree)]
    return FiniteGroup.from_generators(gens, label=label)


def format_operator(B: RBOperator) -> str:
    out = format_group(B.group)
    if B.is_table:
        out += "op: " + " ".join(map(str, B.table)) + "\n"
    else:
        st = B.structural
        out += f"proc: an n={B.group.degree} case={st['case']} variant={st['variant']}\n"
        for key in ("distinguished", "r", "t"):
            out += f"{key}: " + " ".join(map(str, st[key])) + "\n"
    return out


def parse_operator(text: str | list[str]) -> RBOperator:
    lines = _lines(text)
    split = next(
        (i for i, l in enumerate(lines) if l.startswith(("op:", "proc:"))), None
    )
    if split is None:
        raise FormatError("operator block has no op: or proc: line")
    head = lines[split]
    if head.startswith("op:"):
        G = parse_group(lines[:split])
        if not G.enumerated:
            raise FormatError("table operator needs an enumerated group")
        n = G.order()
        table = _ints(head, "op")
        if len(table) != n:
            raise FormatError(f"op line has {len(table)} entries, need {n}")
        if not all(0 <= i < n for i in table):
            raise FormatError(f"op line has an index outside 0..{n - 1}")
        return RBOperator(group=G, table=table, provenance="file")
    tokens = _expect(head, "proc").split()[1:]
    if not all("=" in tok for tok in tokens):
        raise FormatError(f"proc line needs key=value tokens, got {head!r}")
    fields = dict(tok.split("=", 1) for tok in tokens)
    if not {"n", "variant"} <= fields.keys():
        raise FormatError(f"proc line needs n= and variant=, got {head!r}")
    try:
        n = int(fields["n"])
    except ValueError:
        raise FormatError(f"proc line needs an integer n=, got {head!r}") from None
    from .transitive import build_an_operator

    B = build_an_operator(n, fields["variant"])
    built = _lines(format_operator(B))
    # the block ends at the build's last line, as an op: block ends at op:
    for i, (line, want) in enumerate(zip_longest(lines[: len(built)], built, fillvalue="")):
        if line != want:
            raise FormatError(f"line {i + 1}, {line!r}, does not match the build's {want!r}")
    return B


def _lines(text: str | list[str]) -> list[str]:
    if isinstance(text, str):
        raw: Iterator[str] = iter(text.splitlines())
    else:
        raw = iter(text)
    return [l.strip() for l in raw if l.strip()]
