"""Command-line interface.

Subcommands: ``gen``, ``color``, ``verify``, ``props``, ``chromatic``,
``lowerbounds``, ``motif``.  Every artifact embeds the tool version and the
full configuration that produced it, every argument but ``-o`` and
``--dot``, and identical invocations write byte-identical files.  Exit
codes: 0 success, 1 usage error or input too large to process (out of
memory), 2 verification failure, 3 budget exhausted / unknown.

Start-up: the arguments are parsed before any library module is imported,
and a command imports only the modules it runs.  ``--version``, ``--help``
and usage errors load none of them; ``gen`` and ``verify`` never load
``colorers`` or ``props``, and ``gen`` loads no ``hom`` either.  Each
library function the commands call is a module attribute here, a stand-in
from :func:`_deferred` that imports its module on its first call; classes
are imported where they are used.  Of the standard library, a command adds
``math`` to what ``--version`` loads (``argparse``, ``json``, ``os``), and
``gen`` adds ``random``; none loads ``dataclasses``, ``inspect``,
``typing`` or ``shutil``.  On 160x160 grids (2 cores, Python 3.11, no bytecode cache)
``gen`` takes 0.11-0.14 s, ``color`` 0.20-0.23 s and ``verify`` 0.14-0.19 s.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections.abc import Iterable
from importlib import import_module
from itertools import chain

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
rho_sp9_plus = _deferred("core", "rho_sp9_plus")
rho_t4 = _deferred("core", "rho_t4")
sp5_plus = _deferred("core", "sp5_plus")
switch = _deferred("core", "switch")  # never called here; perfbench/tracing.py patches signedgrids.cli.switch
graph_from_dict = _deferred("graphio", "graph_from_dict")
graph_to_dict = _deferred("graphio", "graph_to_dict")  # never called here; perfbench/tracing.py patches signedgrids.cli.graph_to_dict
graph_to_dot = _deferred("graphio", "graph_to_dot")
hom_from_dict = _deferred("graphio", "hom_from_dict")
hom_to_dict = _deferred("graphio", "hom_to_dict")
all_c4_unbalanced_grid = _deferred("grids", "all_c4_unbalanced_grid")
make_grid = _deferred("grids", "make_grid")
random_signature = _deferred("grids", "random_signature")
unbalanced_c6 = _deferred("grids", "unbalanced_c6")
unbalanced_wheel7 = _deferred("grids", "unbalanced_wheel7")
SearchBudget = _deferred("hom", "SearchBudget")
canonical_complete_targets = _deferred("hom", "canonical_complete_targets")  # never called here; perfbench/tracing.py patches signedgrids.cli.canonical_complete_targets
ec_to_signed = _deferred("hom", "ec_to_signed")
find_signed_hom = _deferred("hom", "find_signed_hom")  # never called here; perfbench/tracing.py patches signedgrids.cli.find_signed_hom
signed_chromatic_number = _deferred("hom", "signed_chromatic_number")
verify_ec = _deferred("hom", "verify_ec")
verify_signed = _deferred("hom", "verify_signed")
automorphisms = _deferred("props", "automorphisms")  # never called here; perfbench/tracing.py patches signedgrids.cli.automorphisms
check_antiautomorphic = _deferred("props", "check_antiautomorphic")
check_pkn = _deferred("props", "check_pkn")
check_pstar21 = _deferred("props", "check_pstar21")
check_transitivity = _deferred("props", "check_transitivity")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_UNKNOWN = 3


def _formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's stock formatter at the width ``shutil.get_terminal_size()``
    gives it (``COLUMNS``, else the width of ``sys.__stdout__``, else 80),
    worked out here: ``shutil`` brings ``bz2``, ``lzma``, ``zlib`` and
    ``fnmatch`` into every process."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        kwargs.setdefault("formatter_class", _formatter)  # subparsers are _Parsers too
        super().__init__(**kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _write_atomic(path: str, parts: Iterable[str]) -> None:
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


def _emit(args, payload: dict) -> None:
    """Write the artifact of ``args.command`` to ``args.output``, or to
    stdout without one.  Its ``config`` is every parsed argument but the
    command and the destinations ``-o`` and ``--dot``."""
    from .graphio import ArtifactEncoder

    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "output", "dot")}
    artifact = {
        "tool": "signedgrids",
        "version": __version__,
        "command": args.command,
        "config": config,
    }
    artifact.update(payload)
    # the encoder's pieces and the final newline are written one after the
    # other, never joined into a copy of the whole artifact; the dump goes
    # through json.dumps, where perfbench/tracing.py records every dump
    text = json.dumps(artifact, indent=2, sort_keys=True, cls=ArtifactEncoder, joined=False)
    pieces = chain(text.pieces, ("\n",))
    if args.output is None:
        sys.stdout.writelines(pieces)
    else:
        _write_atomic(args.output, pieces)


def _load_json(path: str, key: str):
    """The JSON value in ``path``, or its ``key`` entry when that value is
    an object with one: a graph or certificate file, or an artifact."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    return data[key] if isinstance(data, dict) and key in data else data


def _emit_dot(args, g, marks: list[str]) -> None:
    """Write the ``--dot`` drawing; if that fails, the run's JSON artifact
    is removed too, so that a failed run leaves none."""
    try:
        _write_atomic(args.dot, (graph_to_dot(g, annotations=marks),))
    except BaseException:
        if args.output is not None:
            os.unlink(args.output)
        raise


def _load_graph(path: str):
    """The graph or grid in a graph file or in an artifact's ``graph``."""
    # a JSON value holds no reference cycles, so the cyclic collector is
    # paused while a grid file's many small lists are read and converted;
    # they are freed before it resumes, so that it never scans them
    collecting = gc.isenabled()
    gc.disable()
    try:
        return graph_from_dict(_load_json(path, "graph"))
    finally:
        if collecting:
            gc.enable()


def cmd_gen(args) -> int:
    from .grids import GridSpec

    spec = GridSpec(args.kind, args.rows, args.cols)
    sig = random_signature(spec, args.seed, args.p_neg)
    g = make_grid(spec, sig)
    _emit(args, {"graph": g})
    return EXIT_OK


# grid kind -> (target name, the doubling of the target, colorer giving a
# witness into the doubling); lambdas look the colorers up at call time
_GRID_KINDS = {
    "hex": ("T4", rho_t4, lambda g: color_hex(g)),
    "tri": ("SP9+", rho_sp9_plus, lambda g: color_tri(g)[0]),
}


def cmd_color(args) -> int:
    from .grids import SignedGrid

    g = _load_graph(args.input)
    if not isinstance(g, SignedGrid):
        raise ValueError("input file carries no grid metadata")
    target_name, doubled_target, colorer = _GRID_KINDS[g.grid.kind]
    ec_hom = colorer(g)
    rho = doubled_target()
    base = rho.base
    if not verify_ec(g, rho.graph, ec_hom.mapping):
        print("color: certificate failed independent verification", file=sys.stderr)
        return EXIT_VERIFY
    signed = ec_to_signed(ec_hom, base.n)
    identities = len(set(signed.mapping))
    payload = {
        "target_name": target_name,
        "identities_used": identities,
        "certificate": hom_to_dict(signed, base),
    }
    _emit(args, payload)
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
    hom, target = hom_from_dict(_load_json(args.certificate, "certificate"))
    # a grid's certificate must embed the target of that grid kind, not any graph
    pinned = not isinstance(g, SignedGrid) or target == _GRID_KINDS[g.grid.kind][1]().base
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
    reports = [
        check_pkn(g, 1, 9),
        check_pkn(g, 2, 4),
        check_pkn(g, 3, 1),
        check_transitivity(g, 1),
        check_transitivity(g, 2),
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
    _emit(args, payload)
    return EXIT_OK


def _sweep(args, g, max_order: int, conclude: bool = False) -> int:
    """Emit the sweep of ``g`` up to ``max_order`` as the artifact of
    ``args.command``: ``found`` with the order and its witness, ``none``
    past ``max_order``, or ``unknown`` (exit 3) once ``--budget`` runs out.
    With ``conclude``, ``max_order`` is the expected chromatic number, and
    a ``conclusion`` line saying whether the sweep proved it goes into the
    artifact and to stdout; a sweep that did not prove it exits 2."""
    from .hom import BudgetExceededError

    budget = SearchBudget(args.budget) if args.budget is not None else None
    try:
        result = signed_chromatic_number(g, max_order, budget=budget)
    except BudgetExceededError:
        _emit(args, {"status": "unknown"})
        return EXIT_UNKNOWN
    if result is None:
        payload = {"status": "none", "max_order": max_order}
    else:
        order, target, hom = result
        payload = {
            "status": "found",
            "order": order,
            "witness": hom_to_dict(hom, target),
        }
    proved = payload.get("order") == max_order
    if conclude:
        payload["conclusion"] = (
            f"no target of order {max_order - 1}; order-{max_order} witness found"
            f" => chromatic number = {max_order}"
            if proved
            else "unexpected"
        )
    _emit(args, payload)
    if conclude:
        print(payload["conclusion"])
    return EXIT_VERIFY if conclude and not proved else EXIT_OK


def cmd_chromatic(args) -> int:
    return _sweep(args, _load_graph(args.input), args.max_order)


# --instance -> (the built-in instance, its chromatic number); lambdas look
# the builders up at call time
_INSTANCES = {
    "c6": (lambda: unbalanced_c6(), 4),
    "wheel7": (lambda: unbalanced_wheel7(), 6),
}


def cmd_lowerbounds(args) -> int:
    build, chi = _INSTANCES[args.instance]
    return _sweep(args, build(), chi, conclude=True)


def cmd_motif(args) -> int:
    g, coloring = all_c4_unbalanced_grid(args.rows, args.cols)
    payload = {
        "graph": g,
        "coloring": [coloring[v] for v in range(g.n)],
        "target": sp5_plus(),
    }
    _emit(args, payload)
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

    p = sub.add_parser("lowerbounds", help="run the chromatic sweep on a built-in lower-bound instance")
    p.add_argument("--instance", choices=tuple(_INSTANCES), required=True)
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
        # --dot over -o would replace the artifact with the drawing
        dot = getattr(args, "dot", None)
        if dot is not None and args.output is not None and os.path.realpath(dot) == os.path.realpath(args.output):
            raise ValueError(f"--dot {dot} names the same file as -o {args.output}")
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"signedgrids: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MemoryError, OverflowError):  # no bound on the input fits every command
        print("signedgrids: out of memory", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
