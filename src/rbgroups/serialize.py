"""Line-oriented text formats for groups and operators.

A group block lists "domain: n", an optional "label: ..." line and
"gen: ..." lines (space-separated 0-based images); format_group adds an
"order: ..." line for a generator-only group, and parse_group, which
enumerates every group it reads, refuses one.  An operator block appends
"op: ..." (image indices into the canonical element list) to the block of
an RBOperator's group, or for a transitive.AnOperator a "proc: ..."
construction descriptor followed by the "distinguished:", "r:" and "t:"
lines of the build; parse_operator rebuilds a proc: operator and checks
the whole block, up to the build's "t:" line, against format_operator of
the build.  Lines after a block's last line are not read, so a
`construct --dump` or `build-an --dump` printout parses.  A line is read
only as the formatter spells it: "key: " and then the value, integers in
the spelling str(int) writes, one space between them, no blank line and
no space at either end, so round-trips are bit-exact.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import TYPE_CHECKING

from .perm import FiniteGroup, Perm
from .rbop import RBOperator

if TYPE_CHECKING:  # transitive is loaded only to rebuild a proc: block
    from .transitive import AnOperator


class FormatError(ValueError):
    pass


def _expect(line: str, key: str) -> str:
    """The value of a `key: value` line, with no space at either end."""
    prefix = key + ": "
    value = line[len(prefix) :]
    if not line.startswith(prefix) or value != value.strip():
        raise FormatError(f"expected {prefix!r} and a value, got {line!r}")
    return value


def _ints(line: str, key: str) -> tuple[int, ...]:
    """The integers of a `key:` line, each spelled as str(int) spells it,
    one space apart."""
    text = _expect(line, key)
    try:
        value = tuple(map(int, text.split()))
    except ValueError:
        value = ()
    if " ".join(map(str, value)) != text:
        raise FormatError(f"bad token in {line!r}")
    return value


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
    gens = []
    for line in lines[1:]:
        if line.startswith("label:"):
            label = _expect(line, "label")
        elif line.startswith("gen:"):
            imgs = _ints(line, "gen")
            if len(imgs) != degree:
                raise FormatError(f"generator degree {len(imgs)} != domain {degree}")
            gens.append(Perm.checked(imgs))
        else:
            raise FormatError(f"unexpected group line {line!r}")
    if not gens:
        gens = [Perm.identity(degree)]
    return FiniteGroup.from_generators(gens, label=label)


def format_operator(B: RBOperator | AnOperator) -> str:
    out = format_group(B.group)
    if isinstance(B, RBOperator):
        return out + "op: " + " ".join(map(str, B.table)) + "\n"
    out += f"proc: an n={B.group.degree} case={B.case} variant={B.variant}\n"
    for key, value in (("distinguished", B.distinguished), ("r", B.r), ("t", B.t)):
        out += f"{key}: " + " ".join(map(str, value)) + "\n"
    return out


def parse_operator(text: str | list[str]) -> RBOperator | AnOperator:
    lines = _lines(text)
    split = next(
        (i for i, l in enumerate(lines) if l.startswith(("op:", "proc:"))), None
    )
    if split is None:
        raise FormatError("operator block has no op: or proc: line")
    head = lines[split]
    if head.startswith("op:"):
        G = parse_group(lines[:split])
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
    return text.splitlines() if isinstance(text, str) else text
