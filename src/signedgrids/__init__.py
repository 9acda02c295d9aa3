"""Signed-graph homomorphisms and constructive grid colorings.

Library layout:

* :mod:`signedgrids.core` -- signed graphs, switching, antitwin doubling,
  and the fixed targets (T4, SP9, SP5 and their extensions).
* :mod:`signedgrids.grids` -- hexagonal / triangular grids as
  :class:`SignedGrid` values (a spec plus one sign array), their
  generators, and fixed fixtures.
* :mod:`signedgrids.hom` -- exact homomorphism search, the certificate
  verifier, and the exact chromatic number on small instances.
* :mod:`signedgrids.props` -- exhaustive target-property checks (extension
  properties, transitivity, antiautomorphy).
* :mod:`signedgrids.colorers` -- the two constructive coloring algorithms.
* :mod:`signedgrids.graphio` -- JSON and DOT serialization.
* :mod:`signedgrids.cli` -- command-line interface.
"""

from .core import (
    NEG,
    POS,
    AntitwinnedGraph,
    SignedGraph,
    antitwin_double,
    build_SP5,
    build_SP9,
    build_T4,
    f9_squares,
    negate,
    plus_universal,
    rho_sp9_plus,
    rho_t4,
    sign_masks,
    sp5_plus,
    sp9_plus,
    switch,
)
from .colorers import (
    CandidateTrace,
    ColoringInvariantError,
    color_hex,
    color_tri,
    normalize_hex,
)
from .grids import (
    GridSpec,
    SignedGrid,
    all_c4_unbalanced_grid,
    make_grid,
    random_signature,
    unbalanced_c6,
    unbalanced_wheel7,
)
from .hom import (
    BudgetExceededError,
    Homomorphism,
    SearchBudget,
    canonical_complete_targets,
    complete_signed_graph,
    find_ec_hom,
    find_signed_hom,
    signed_chromatic_number,
    verify_ec,
    verify_signed,
)
from .props import (
    PropertyReport,
    automorphisms,
    check_antiautomorphic,
    check_pkn,
    check_pstar21,
    check_transitivity,
    find_isomorphism,
)

__version__ = "0.1.0"
