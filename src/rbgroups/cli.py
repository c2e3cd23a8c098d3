"""Command-line interface.

Deterministic, line-oriented output: identical invocations produce
byte-identical bytes.  Exit codes: 0 success, 1 precondition error,
2 verification failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional

# Only what every command needs is imported here; each command imports the
# rest when it runs, so `verify` on a table dump never loads `classify`,
# `transitive` or `labels` (without a bytecode cache, every module loaded is
# compiled).
from .perm import ClosureCapExceeded, FactorizationWitness
from .rbop import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    ENUMERATE_GUARANTEED,
    RBOperator,
    descendent_group,
    image_meet,
    is_splitting,
    kernel_invariant,
    verify,
)

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_VERIFY = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="rbgroups", description=__doc__)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a catalog or derived operator")
    c.add_argument("--example", help="catalog name, e.g. s3, a4_b2, d16, q60")
    c.add_argument("--split", nargs=3, metavar=("G", "H", "L"),
                   help="group spec plus two generator lists (perms as "
                        "comma-separated images, generators ;-separated)")
    c.add_argument("--dump", action="store_true")

    e = sub.add_parser("enumerate", help="all operators on a small group")
    e.add_argument("group")
    e.add_argument("--up-to-equivalence", action="store_true")
    e.add_argument("--max-order", type=int, default=ENUMERATE_GUARANTEED)

    k = sub.add_parser("classify", help="classification report")
    k.add_argument("group", nargs="?")
    k.add_argument("--family", choices=("dihedral", "quaternion"))
    k.add_argument("--n-from", type=int, default=2)
    k.add_argument("--n-to", type=int, default=9)
    k.add_argument("--max-order", type=int, default=ENUMERATE_GUARANTEED)

    v = sub.add_parser("verify", help="verify an operator file")
    v.add_argument("file")
    v.add_argument("--verify-samples", type=int, default=DEFAULT_SAMPLES,
                   help="random pairs of layer 3; it and --seed apply to proc: "
                        "dumps only, as a table is checked on all pairs")

    a = sub.add_parser("admissible", help="degree admissibility")
    a.add_argument("--n", type=int, required=True)

    ba = sub.add_parser("build-an", help="the non-splitting operator on A_n")
    ba.add_argument("--n", type=int, required=True)
    ba.add_argument("--variant", default="default",
                    choices=("S1", "S2", "S3", "default"))
    ba.add_argument("--verify-samples", type=int, default=DEFAULT_SAMPLES)
    ba.add_argument("--dump", action="store_true")

    s2 = sub.add_parser("sharply2", help="the group L(m,q,t)")
    s2.add_argument("--m", type=int, required=True)
    s2.add_argument("--q", type=int, required=True)
    s2.add_argument("--t", type=int, required=True)
    s2.add_argument("--dump", action="store_true")

    s3 = sub.add_parser("sharply3", help="the group M(q)")
    s3.add_argument("--q", type=int, required=True)
    s3.add_argument("--dump", action="store_true")

    d = sub.add_parser("descendent", help="descendent group of an operator")
    d.add_argument("--example")
    d.add_argument("--file")
    d.add_argument("--n", type=int, help="structure report for the A_n operator")
    return p


def _parse_split(spec: str, h_text: str, l_text: str) -> FactorizationWitness:
    from . import families
    from .perm import Perm, exact_factorization

    G = families.parse_group_spec(spec).group

    def gens(text: str) -> list[Perm]:
        out = []
        for chunk in text.split(";"):
            out.append(Perm.checked([int(t) for t in chunk.split(",")]))
        return out

    H = G.subgroup(gens(h_text), label="H")
    L = G.subgroup(gens(l_text), label="L")
    return exact_factorization(G, H, L)


def _operator_line(B: RBOperator) -> str:
    from .labels import iso_label

    R = image_meet(B)
    return (
        f"op: {' '.join(map(str, B.table))} | splitting="
        f"{'yes' if R.order() == 1 else 'no'} R={iso_label(R)}"
    )


def _cmd_construct(args, out) -> int:
    if bool(args.example) == bool(args.split):
        raise UsageError("construct needs exactly one of --example / --split")
    from . import build

    if args.example:
        B = build.catalog_operator(args.example)
    else:
        w = _parse_split(*args.split)
        e = w.group.identity
        B = build.construction(w, lambda l: e, w.right.subgroup([e]), "split[H*L]")
    v = verify(B)
    if args.dump:
        from . import serialize

        out.write(serialize.format_operator(B))
    ki = kernel_invariant(B)
    out.write(
        f"operator: {B.provenance} group={B.group.label} "
        f"splitting={'yes' if is_splitting(B) else 'no'} "
        f"kernels={ki[0]},{ki[1]}\n"
    )
    out.write(v.line() + "\n")
    return EXIT_OK if v.ok else EXIT_VERIFY


def _cmd_enumerate(args, out) -> int:
    from . import families
    from .classify import enumerate_rb, equivalence_classes, summarize

    G = families.parse_group_spec(args.group).group
    ops = enumerate_rb(G, cap=args.max_order)
    if args.up_to_equivalence:
        classes = equivalence_classes(G, ops)
        out.write(f"group: {G.label} operators: {len(ops)} classes: {len(classes)}\n")
        for members in classes:
            out.write(summarize(members).line("class") + "\n")
    else:
        out.write(f"group: {G.label} operators: {len(ops)}\n")
        for B in ops:
            out.write(_operator_line(B) + "\n")
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    if bool(args.group) == bool(args.family):
        raise UsageError("classify needs exactly one of a group spec / --family")
    from . import families
    from .classify import classify

    if args.group:
        G = families.parse_group_spec(args.group).group
        for line in classify(G, cap=args.max_order).lines():
            out.write(line + "\n")
        return EXIT_OK
    if args.n_from > args.n_to:
        raise UsageError(f"empty family range: --n-from {args.n_from} > --n-to {args.n_to}")
    maker = families.dihedral if args.family == "dihedral" else families.generalized_quaternion
    for n in range(args.n_from, args.n_to + 1):
        rep = classify(maker(n).group, cap=args.max_order)
        for line in rep.lines():
            out.write(line + "\n")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    if args.verify_samples < 0:
        raise ValueError(f"sample count must be >= 0, got {args.verify_samples}")
    from . import serialize

    with open(args.file) as fh:
        B = serialize.parse_operator(fh.read())
    if isinstance(B, RBOperator):
        v = verify(B)
        out.write(v.line() + "\n")
        return EXIT_OK if v.ok else EXIT_VERIFY
    from .transitive import verify_an_operator

    lv = verify_an_operator(B, sample_count=args.verify_samples, seed=args.seed)
    out.write(lv.line() + "\n")
    if not lv.ok:
        out.write(f"detail: {lv.detail}\n")
    return EXIT_OK if lv.ok else EXIT_VERIFY


def _cmd_admissible(args, out) -> int:
    from .transitive import admissible

    v = admissible(args.n)
    if v.admissible:
        out.write(f"yes case={v.case} q={v.q} m={v.m} s={v.s}\n")
    else:
        out.write("no\n")
    return EXIT_OK


def _cmd_build_an(args, out) -> int:
    from .labels import iso_label
    from .transitive import build_an_operator, verify_an_operator

    B = build_an_operator(args.n, args.variant)
    lv = verify_an_operator(B, sample_count=args.verify_samples, seed=args.seed)
    if args.dump:
        from . import serialize

        out.write(serialize.format_operator(B))
    out.write(
        f"operator: {B.provenance} ker={iso_label(B.ker)} "
        f"ker_tilde={iso_label(B.ker_tilde)} |R|={B.R.order()} "
        f"splitting={'yes' if B.R.order() == 1 else 'no'}\n"
    )
    out.write(lv.line() + "\n")
    if not lv.ok:
        out.write(f"detail: {lv.detail}\n")
    return EXIT_OK if lv.ok else EXIT_VERIFY


def _cmd_sharply2(args, out) -> int:
    from .labels import iso_label
    from .transitive import sharply2

    st = sharply2(args.m, args.q, args.t)
    out.write(
        f"group: {st.group.label} degree={st.degree} order={st.group.order()} "
        f"N={iso_label(st.n_part)}\n"
    )
    if st.s1 is not None:
        for name, S in (("FS1", st.s1), ("FS2", st.s2), ("FS3", st.s3)):
            out.write(f"{name}: order={S.order()} label={iso_label(S)}\n")
    if args.dump:
        from . import serialize

        out.write(serialize.format_group(st.group))
    return EXIT_OK


def _cmd_sharply3(args, out) -> int:
    from .transitive import sharply3

    st = sharply3(args.q)
    out.write(
        f"group: {st.group.label} degree={st.degree} order={st.group.order()} "
        f"psl_index={st.group.order() // st.psl.order()}\n"
    )
    if args.dump:
        from . import serialize

        out.write(serialize.format_group(st.group))
    return EXIT_OK


def _cmd_descendent(args, out) -> int:
    given = [x for x in (args.example, args.file, args.n) if x is not None]
    if len(given) != 1:
        raise UsageError("descendent needs exactly one of --example / --file / --n")
    if args.n is not None:
        from .transitive import build_an_operator, descendent_structure

        B = build_an_operator(args.n)
        rep = descendent_structure(B, seed=args.seed)
        out.write(
            f"descendent: {'pass' if rep.ok else 'fail'} "
            f"s_pairs={rep.s_pairs} k_samples={rep.k_samples} "
            f"twist_samples={rep.twist_samples}\n"
        )
        if not rep.ok:
            out.write(f"detail: {rep.detail}\n")
        return EXIT_OK if rep.ok else EXIT_VERIFY
    if args.example is not None:
        from . import build

        B = build.catalog_operator(args.example)
    else:
        from . import serialize

        with open(args.file) as fh:
            B = serialize.parse_operator(fh.read())
    _, label = descendent_group(B)
    out.write(f"descendent: {label}\n")
    return EXIT_OK


_COMMANDS = {
    "construct": _cmd_construct,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
    "admissible": _cmd_admissible,
    "build-an": _cmd_build_an,
    "sharply2": _cmd_sharply2,
    "sharply3": _cmd_sharply3,
    "descendent": _cmd_descendent,
}


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        if getattr(args, "max_order", 1) < 1:
            raise UsageError(f"--max-order must be >= 1, got {args.max_order}")
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, ClosureCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def run() -> int:
    """The process entry: main() on sys.argv, then gc.freeze().

    At exit CPython collects every object the cyclic collector tracks,
    every Perm among them; frozen objects sit in the permanent generation,
    which those collections skip, and the OS takes the memory back.  The
    freeze comes after the command has returned, so atexit handlers, the
    flush of stdout and stderr and refcount teardown still run.  main()
    never freezes: tests and library callers run it in a process that
    goes on."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
