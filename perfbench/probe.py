"""Set-up probe: import signedgrids, build the lazy targets, print the seconds taken.

Run in a fresh process (``python3 perfbench/probe.py`` with ``src`` on
``PYTHONPATH``); the benchmark takes the median over several such runs.
"""

from time import perf_counter


def setup() -> None:
    """The lazy construction every in-process workload needs before its first request."""
    from signedgrids import core, hom

    core.rho_t4()
    core.rho_sp9_plus()
    for order in range(1, 7):
        hom.canonical_complete_targets(order)


if __name__ == "__main__":
    start = perf_counter()
    import signedgrids  # noqa: F401

    setup()
    print(perf_counter() - start)
