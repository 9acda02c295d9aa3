"""Command-line interface.

Subcommands: ``gen``, ``color``, ``verify``, ``props``, ``chromatic``,
``lowerbounds``, ``motif``.  Every artifact embeds the tool version and the
full configuration that produced it, and identical invocations write
byte-identical files.  Exit codes: 0 success, 1 usage error, 2 verification
failure, 3 budget exhausted / unknown.

Start-up: the arguments are parsed before any library module is imported,
and a command imports only the modules it runs.  ``--version``, ``--help``
and usage errors load none of them; ``gen`` and ``verify`` never load
``colorers`` or ``props``.  Each library function the commands call is a
module attribute here, a stand-in from :func:`_deferred` that imports its
module on its first call; classes are imported where they are used.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from importlib import import_module

from . import __version__


def _deferred(module: str, name: str):
    """A stand-in for the library function ``signedgrids.<module>.<name>``.

    Its first call imports the module and takes the function as the module
    holds it then; every call goes through to that function.  The stand-in
    carries the function's ``__module__`` and ``__name__``, so that code
    which wraps it by module attribute (the benchmark's span recorders)
    names it as the function itself, and it binds nothing in this module.
    """
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(import_module(f"{__package__}.{module}"), name)
        return target(*args, **kwargs)

    call.__module__ = f"{__package__}.{module}"
    call.__name__ = call.__qualname__ = name
    return call


# every library function the commands call; perfbench/tracing.py patches
# some of them here by name
color_hex = _deferred("colorers", "color_hex")
color_tri = _deferred("colorers", "color_tri")
build_SP9 = _deferred("core", "build_SP9")
build_T4 = _deferred("core", "build_T4")
rho_sp9_plus = _deferred("core", "rho_sp9_plus")
rho_t4 = _deferred("core", "rho_t4")
sp5_plus = _deferred("core", "sp5_plus")
sp9_plus = _deferred("core", "sp9_plus")
switch = _deferred("core", "switch")  # never called here; perfbench/tracing.py patches signedgrids.cli.switch
graph_from_dict = _deferred("graphio", "graph_from_dict")
graph_to_dict = _deferred("graphio", "graph_to_dict")
graph_to_dot = _deferred("graphio", "graph_to_dot")
hom_from_dict = _deferred("graphio", "hom_from_dict")
hom_to_dict = _deferred("graphio", "hom_to_dict")
all_c4_unbalanced_grid = _deferred("grids", "all_c4_unbalanced_grid")
make_grid = _deferred("grids", "make_grid")
random_signature = _deferred("grids", "random_signature")
unbalanced_c6 = _deferred("grids", "unbalanced_c6")
unbalanced_wheel7 = _deferred("grids", "unbalanced_wheel7")
SearchBudget = _deferred("hom", "SearchBudget")
all_complete_targets = _deferred("hom", "all_complete_targets")
canonical_complete_targets = _deferred("hom", "canonical_complete_targets")
complete_signed_graph = _deferred("hom", "complete_signed_graph")
ec_to_signed = _deferred("hom", "ec_to_signed")
find_signed_hom = _deferred("hom", "find_signed_hom")
signed_chromatic_number = _deferred("hom", "signed_chromatic_number")
verify_ec = _deferred("hom", "verify_ec")
verify_signed = _deferred("hom", "verify_signed")
automorphisms = _deferred("props", "automorphisms")
check_antiautomorphic = _deferred("props", "check_antiautomorphic")
check_pkn = _deferred("props", "check_pkn")
check_pstar21 = _deferred("props", "check_pstar21")
check_transitivity = _deferred("props", "check_transitivity")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_UNKNOWN = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_atomic(path: str, *parts: str) -> None:
    # a fresh file created with mode 0o666 gets the umask, as with open();
    # mkstemp would fix 0o600, which os.replace keeps
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".signedgrids-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.writelines(parts)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        # name the path asked for, not the hidden temporary file
        raise OSError(exc.errno, exc.strerror, path) from None


def _emit(path: str | None, payload: dict, command: str, config: dict) -> None:
    from .graphio import ArtifactEncoder

    artifact = {
        "tool": "signedgrids",
        "version": __version__,
        "command": command,
        "config": config,
    }
    artifact.update(payload)
    # the text and its final newline are written one after the other, not
    # joined into a copy of the whole artifact
    text = json.dumps(artifact, indent=2, sort_keys=True, cls=ArtifactEncoder)
    if path is None:
        sys.stdout.writelines((text, "\n"))
    else:
        _write_atomic(path, text, "\n")


@contextlib.contextmanager
def _collector_paused():
    # a JSON value holds no reference cycles, so the cyclic collector is
    # paused while a grid file's many small lists are read or written
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def _load_json(path: str):
    try:
        with _collector_paused(), open(path) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _emit_dot(args, g, marks: list[str]) -> None:
    """Write the ``--dot`` drawing; if that fails, the run's JSON artifact
    is removed too, so that a failed run leaves none."""
    try:
        _write_atomic(args.dot, graph_to_dot(g, annotations=marks))
    except BaseException:
        if args.output is not None:
            os.unlink(args.output)
        raise


def _load_graph(path: str):
    """The graph or grid in a graph file or in an artifact's ``graph``."""
    # the file's lists are freed before the collector resumes, so that it
    # never scans them
    with _collector_paused():
        data = _load_json(path)
        wrapped = isinstance(data, dict) and "graph" in data
        g = graph_from_dict(data["graph"] if wrapped else data)
        del data
    return g


def cmd_gen(args) -> int:
    from .grids import GridSpec

    spec = GridSpec(args.kind, args.rows, args.cols)
    sig = random_signature(spec, args.seed, args.p_neg)
    g = make_grid(spec, sig)
    config = {
        "kind": args.kind,
        "rows": args.rows,
        "cols": args.cols,
        "seed": args.seed,
        "p_neg": args.p_neg,
    }
    with _collector_paused():
        _emit(args.output, {"graph": graph_to_dict(g)}, "gen", config)
    return EXIT_OK


# grid kind -> (target name, base target, its antitwin doubling, colorer giving
# a witness into the doubling); lambdas look the colorers up at call time
_GRID_KINDS = {
    "hex": ("T4", build_T4, rho_t4, lambda g: color_hex(g)),
    "tri": ("SP9+", sp9_plus, rho_sp9_plus, lambda g: color_tri(g)[0]),
}


def cmd_color(args) -> int:
    from .grids import SignedGrid

    g = _load_graph(args.input)
    if not isinstance(g, SignedGrid):
        print("color: input file carries no grid metadata", file=sys.stderr)
        return EXIT_USAGE
    target_name, base_target, doubled_target, colorer = _GRID_KINDS[g.grid.kind]
    ec_hom = colorer(g)
    base = base_target()
    if not verify_ec(g, doubled_target().graph, ec_hom.mapping):
        print("color: certificate failed independent verification", file=sys.stderr)
        return EXIT_VERIFY
    signed = ec_to_signed(ec_hom, base.n)
    identities = len(set(signed.mapping))
    config = {"input": args.input}
    payload = {
        "target_name": target_name,
        "identities_used": identities,
        "certificate": hom_to_dict(signed, base),
    }
    _emit(args.output, payload, "color", config)
    if args.dot:
        marks = [
            f"{base.label(signed.mapping[v])}{'*' if v in signed.switch_set else ''}"
            for v in range(g.n)
        ]
        _emit_dot(args, g, marks)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .grids import SignedGrid

    g = _load_graph(args.input)
    cert = _load_json(args.certificate)
    wrapped = isinstance(cert, dict) and "certificate" in cert
    hom, target = hom_from_dict(cert["certificate"] if wrapped else cert)
    # a grid's certificate must embed the target of that grid kind, not any graph
    pinned = not isinstance(g, SignedGrid) or target == _GRID_KINDS[g.grid.kind][1]()
    # a mapping for another graph's vertices certifies nothing about this one
    ok = pinned and len(hom.mapping) == g.n and verify_signed(g, target, hom)
    print("certificate OK" if ok else "certificate REJECTED")
    return EXIT_OK if ok else EXIT_VERIFY


def _report_to_dict(report) -> dict:
    return {
        "name": report.name,
        "holds": report.holds,
        "counterexamples": [
            {"tuple": list(t), "signs": list(a) if a else None, "count": c}
            for t, a, c in report.counterexamples
        ],
    }


def _rho_t4_suite():
    atg = rho_t4()
    return [check_pkn(atg.graph, 1, 3), check_pstar21(atg)], None


def _rho_sp9_plus_suite():
    g = rho_sp9_plus().graph
    autos = list(automorphisms(g))
    reports = [
        check_pkn(g, 1, 9),
        check_pkn(g, 2, 4),
        check_pkn(g, 3, 1),
        check_transitivity(g, 1, autos=autos),
        check_transitivity(g, 2, autos=autos),
    ]
    return reports, g


# --target -> (property reports, graph to test for an antiautomorphism or None)
_PROPS = {
    "rhoT4": _rho_t4_suite,
    "rhoSP9plus": _rho_sp9_plus_suite,
    "SP9": lambda: ([], build_SP9()),
}


def cmd_props(args) -> int:
    reports, anti_graph = _PROPS[args.target]()
    payload = {"reports": [_report_to_dict(r) for r in reports]}
    holds = all(r.holds for r in reports)
    if anti_graph is not None:
        payload["antiautomorphic"] = check_antiautomorphic(anti_graph) is not None
        holds = holds and payload["antiautomorphic"]
    payload["all_hold"] = holds
    _emit(args.output, payload, "props", {"target": args.target})
    return EXIT_OK


def cmd_chromatic(args) -> int:
    from .hom import BudgetExceededError

    g = _load_graph(args.input)
    budget = SearchBudget(args.budget) if args.budget is not None else None
    config = {"input": args.input, "max_order": args.max_order, "budget": args.budget}
    try:
        result = signed_chromatic_number(g, args.max_order, budget=budget)
    except BudgetExceededError:
        _emit(args.output, {"status": "unknown"}, "chromatic", config)
        return EXIT_UNKNOWN
    if result is None:
        payload = {"status": "none", "max_order": args.max_order}
    else:
        order, target, hom = result
        payload = {
            "status": "found",
            "order": order,
            "witness": hom_to_dict(hom, target),
        }
    _emit(args.output, payload, "chromatic", config)
    return EXIT_OK


def cmd_lowerbounds(args) -> int:
    from .hom import BudgetExceededError

    budget = SearchBudget(args.budget) if args.budget is not None else None
    config = {"instance": args.instance, "budget": args.budget}
    try:
        if args.instance == "c6":
            g = unbalanced_c6().graph()  # the searches below share one conversion
            admitting = [
                mask
                for mask in range(8)
                if find_signed_hom(g, complete_signed_graph(3, mask), budget=budget)
            ]
            t4_hom = find_signed_hom(g, build_T4(), budget=budget)
            conclusion = (
                "no target of order 3; order-4 witness T4 => chromatic number = 4"
                if not admitting and t4_hom
                else "unexpected"
            )
            payload = {
                "order3_admitting": admitting,
                "order4_T4_admits": t4_hom is not None,
                "conclusion": conclusion,
            }
            lines = [conclusion]
        else:
            g = unbalanced_wheel7()
            admitting5 = 0
            for h in all_complete_targets(5):
                if find_signed_hom(g, h, budget=budget):
                    admitting5 += 1
            witness6 = None
            for mask in canonical_complete_targets(6):
                h = complete_signed_graph(6, mask)
                found = find_signed_hom(g, h, budget=budget)
                if found is not None:
                    witness6 = (mask, found)
                    break
            payload = {
                "order5_admitting_count": admitting5,
                "order6_witness_mask": witness6[0] if witness6 else None,
                "conclusion": (
                    "no target of order 5; order-6 witness found => chromatic number = 6"
                    if admitting5 == 0 and witness6
                    else "unexpected"
                ),
            }
            lines = [payload["conclusion"]]
    except BudgetExceededError:
        _emit(args.output, {"status": "unknown"}, "lowerbounds", config)
        return EXIT_UNKNOWN
    _emit(args.output, payload, "lowerbounds", config)
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_motif(args) -> int:
    g, coloring = all_c4_unbalanced_grid(args.rows, args.cols)
    target = sp5_plus()
    config = {"rows": args.rows, "cols": args.cols}
    payload = {
        "graph": graph_to_dict(g),
        "coloring": [coloring[v] for v in range(g.n)],
        "target": graph_to_dict(target),
    }
    _emit(args.output, payload, "motif", config)
    if args.dot:
        _emit_dot(args, g, [str(coloring[v]) for v in range(g.n)])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring up to its notes on start-up
    parser = _Parser(prog="signedgrids", description=__doc__.partition("\n\nStart-up:")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random signed grid")
    p.add_argument("--kind", choices=("hex", "tri"), required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-neg", type=float, default=0.5, dest="p_neg")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("color", help="color a grid and emit a verified certificate")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("verify", help="re-check a certificate against a graph")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-c", "--certificate", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("props", help="run the target property suites")
    p.add_argument("--target", choices=tuple(_PROPS), required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("chromatic", help="exact chromatic number by target sweep")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--max-order", type=int, default=6, dest="max_order")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("lowerbounds", help="run the fixed lower-bound sweeps")
    p.add_argument("--instance", choices=("c6", "wheel7"), required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_lowerbounds)

    p = sub.add_parser("motif", help="emit the periodic all-unbalanced triangular fixture")
    p.add_argument("--rows", type=int, default=12)
    p.add_argument("--cols", type=int, default=12)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--dot", default=None)
    p.set_defaults(func=cmd_motif)

    return parser


# built once per process: a parser holds reference cycles (its help
# formatters) that only the cyclic collector frees
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"signedgrids: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
