"""The package's modules, split by job.

No module's compile peaks above 1.5 MiB: CI sets
``PYTHONDONTWRITEBYTECODE=1``, so every process compiles the package
from source there, and the largest compile sets the import's high-water
RSS.  The split of the search into the residue engine (``mod9``), the box
(``box``) and the scans (``search``) keeps every public name, and
``quatcube.search`` still hands perfbench the defining modules' own
objects.
"""

import tracemalloc
from pathlib import Path

import quatcube
from quatcube import box, mod9, search

PACKAGE = Path(quatcube.__file__).resolve().parent

# quatcube.__all__ before the search was split, less identity_6z,
# identity_6z3 and p_value, which only tests called
ALL = [
    "Case", "CaseTag", "Decomposition", "InvalidResidues", "LemmaReport", "MixedRings",
    "NotRepresentable", "ParseError", "PreconditionViolated", "QuatcubeError", "Quaternion",
    "ResidueClass", "RingParams", "SearchConfig", "VerificationFailed", "classify_case", "cube",
    "cube_coeffs", "cube_root_congruence", "decompose", "delta", "in_S", "in_T2", "in_T3",
    "lemma_residue_check", "lnr6", "member_cube_subgroup", "min_cubes_search",
    "parse_quaternion", "select_pair", "swap_iso",
    "three_cube_residues_mod9", "two_cube_obstruction", "verify",
]


def _compile_peak(path: Path) -> int:
    """Bytes tracemalloc sees at the peak of compiling path, as an import does."""
    source = path.read_bytes()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        compile(source, str(path), "exec", dont_inherit=True)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_no_module_compiles_above_one_and_a_half_mib():
    peaks = {path.name: _compile_peak(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {"box.py", "mod9.py", "search.py"} <= peaks.keys()
    assert {name: peak for name, peak in peaks.items() if peak >= 1.5 * 2**20} == {}


def test_search_split_keeps_public_names_and_shared_objects():
    assert quatcube.__all__ == ALL
    for name in ("SearchConfig", "min_cubes_search", "three_cube_residues_mod9",
                 "two_cube_obstruction"):
        assert getattr(search, name) is getattr(quatcube, name)
    assert search.two_cube_obstruction is mod9.two_cube_obstruction
    assert search.three_cube_residues_mod9 is mod9.three_cube_residues_mod9
    # perfbench/run.py clears search._MOD9_CACHE, which _mod9_tables reads,
    # and perfbench/tracing.py patches these classes through quatcube.search
    assert search._MOD9_CACHE is mod9._MOD9_CACHE
    assert search._Mod9Tables is mod9._Mod9Tables
    assert search._SearchSpace is box._SearchSpace
    # perfbench/tracing.py names a span after the wrapped function's module
    for name in ("_scan_two", "_scan_three_range"):
        assert getattr(search, name).__module__ == "quatcube.search"
