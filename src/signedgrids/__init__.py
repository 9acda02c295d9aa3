"""Signed-graph homomorphisms and constructive grid colorings.

Library layout:

* :mod:`signedgrids.core` -- signed graphs, switching, antitwin doubling,
  and the fixed targets (T4, SP9, SP5 and their extensions).
* :mod:`signedgrids.grids` -- hexagonal / triangular grids as
  :class:`SignedGrid` values (a spec plus one sign per edge), their
  generators, and fixed fixtures.
* :mod:`signedgrids.hom` -- exact homomorphism search, the certificate
  verifier, and the exact chromatic number on small instances.
* :mod:`signedgrids.props` -- exhaustive target-property checks (extension
  properties, transitivity, antiautomorphy).
* :mod:`signedgrids.colorers` -- one row pass that colors both grid kinds.
* :mod:`signedgrids.graphio` -- JSON and DOT serialization.
* :mod:`signedgrids.cli` -- command-line interface.

The package is lazy (PEP 562): ``import signedgrids`` loads none of these
modules.  A re-exported name such as ``signedgrids.color_tri``, or a
submodule such as ``signedgrids.hom``, imports its module on first access,
so a process pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# re-exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("core", "NEG POS AntitwinnedGraph SignedGraph antitwin_double build_SP5 build_SP9 build_T4 "
                 "negate plus_universal rho_sp9_plus rho_t4 sign_masks sp5_plus sp9_plus switch"),
        ("colorers", "CandidateTrace ColoringInvariantError color_hex color_tri normalize_hex"),
        ("grids", "GridSpec SignedGrid all_c4_unbalanced_grid make_grid random_signature "
                  "unbalanced_c6 unbalanced_wheel7"),
        ("hom", "BudgetExceededError Homomorphism SearchBudget canonical_complete_targets "
                "complete_signed_graph find_ec_hom find_signed_hom signed_chromatic_number "
                "verify_ec verify_signed"),
        ("props", "PropertyReport automorphisms check_antiautomorphic check_pkn check_pstar21 "
                  "check_transitivity find_isomorphism"),
    )
    for name in names.split()
}
_SUBMODULES = ("cli", "colorers", "core", "graphio", "grids", "hom", "props")

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later reads find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
