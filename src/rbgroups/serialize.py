"""Line-oriented text formats for permutations, groups, and operators.

One permutation per line ("perm: 1 0 2", space-separated 0-based images);
group blocks list "domain: n" and "gen: ..." lines; operator blocks append
"op: ..." (image indices into the canonical element list) or "proc: ..."
(construction descriptor).  Round-trips are bit-exact.
"""

from __future__ import annotations

from typing import Iterator

from .perm import FiniteGroup, Perm, PermError
from .rbop import RBOperator


class FormatError(ValueError):
    pass


def format_perm(p: Perm) -> str:
    return "perm: " + " ".join(str(i) for i in p)


def parse_perm(line: str) -> Perm:
    body = _expect(line, "perm")
    try:
        return Perm.checked(int(tok) for tok in body.split())
    except (ValueError, PermError) as exc:
        raise FormatError(f"bad permutation line {line!r}: {exc}") from None


def _expect(line: str, key: str) -> str:
    prefix = key + ":"
    if not line.startswith(prefix):
        raise FormatError(f"expected {prefix!r}, got {line!r}")
    return line[len(prefix) :].strip()


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
    degree = int(_expect(lines[0], "domain"))
    label = ""
    order = None
    gens = []
    for line in lines[1:]:
        if line.startswith("label:"):
            label = _expect(line, "label")
        elif line.startswith("order:"):
            order = int(_expect(line, "order"))
        elif line.startswith("gen:"):
            imgs = [int(tok) for tok in _expect(line, "gen").split()]
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
        out += "distinguished: " + " ".join(str(i) for i in st["distinguished"]) + "\n"
        out += "r: " + " ".join(str(i) for i in st["r"]) + "\n"
        out += "t: " + " ".join(str(i) for i in st["t"]) + "\n"
    return out


def parse_operator(text: str | list[str]) -> RBOperator:
    lines = _lines(text)
    split = next(
        (i for i, l in enumerate(lines) if l.startswith(("op:", "proc:"))), None
    )
    if split is None:
        raise FormatError("operator block has no op: or proc: line")
    G = parse_group(lines[:split])
    head = lines[split]
    if head.startswith("op:"):
        if not G.enumerated:
            raise FormatError("table operator needs an enumerated group")
        n = G.order()
        table = tuple(int(tok) for tok in _expect(head, "op").split())
        if len(table) != n:
            raise FormatError(f"op line has {len(table)} entries, need {n}")
        if not all(0 <= i < n for i in table):
            raise FormatError(f"op line has an index outside 0..{n - 1}")
        return RBOperator(group=G, table=table, provenance="file")
    fields = dict(
        tok.split("=", 1) for tok in _expect(head, "proc").split()[1:]
    )
    if not {"n", "variant"} <= fields.keys():
        raise FormatError(f"proc line needs n= and variant=, got {head!r}")
    n = int(fields["n"])
    variant = fields["variant"]
    from .transitive import build_an_operator

    B = build_an_operator(n, variant)
    st = B.structural
    for line in lines[split + 1 :]:
        if line.startswith("distinguished:"):
            got = tuple(int(t) for t in _expect(line, "distinguished").split())
            if got != tuple(st["distinguished"]):
                raise FormatError("distinguished points do not match the build")
        elif line.startswith("r:"):
            if parse_perm("perm: " + _expect(line, "r")) != st["r"]:
                raise FormatError("involution r does not match the build")
        elif line.startswith("t:"):
            if parse_perm("perm: " + _expect(line, "t")) != st["t"]:
                raise FormatError("coset representative t does not match the build")
        else:
            raise FormatError(f"unexpected operator line {line!r}")
    return B


def _lines(text: str | list[str]) -> list[str]:
    if isinstance(text, str):
        raw: Iterator[str] = iter(text.splitlines())
    else:
        raw = iter(text)
    return [l.strip() for l in raw if l.strip()]
