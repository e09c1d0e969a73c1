"""Acceptance criteria, one test per criterion.

Each test drives the same suite functions the command line exposes, checks
every item at its stated tolerance (exact equality unless a float
tolerance is called out), enforces the runtime budget where one is given,
and prints a single PASS line on success.
"""

import time

from sga.suites import (
    brauer_weyl_suite,
    conjugation_suite,
    dirac_suite,
    exclusion_suite,
    odd_dimension_suite,
    pauli_suite,
    periodicity_suite,
    rotor_suite,
    sign_law_suite,
    trace_chain_suite,
)


def _run(label, suite_fn, budget=None, **kwargs):
    start = time.time()
    checks = suite_fn(**kwargs)
    elapsed = time.time() - start
    failures = [c for c in checks if not c.ok]
    for c in failures:
        print(f"FAIL {label}: {c.name} {c.detail}")
    assert not failures, f"{label}: {len(failures)} of {len(checks)} checks failed"
    if budget is not None:
        assert elapsed < budget, f"{label}: took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {label}: PASS ({len(checks)} checks, {elapsed:.2f}s)")


def test_criterion_01_pauli_suite():
    _run("1 pauli", pauli_suite, budget=1.0)


def test_criterion_02_dirac_suite():
    start = time.time()
    checks = dirac_suite()
    elapsed = time.time() - start
    assert len(checks) == 16
    assert all(c.ok for c in checks)
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 dirac: PASS (16 identities, {elapsed:.2f}s)")


def test_criterion_03_isomorphism_round_trips():
    _run("3 brauer-weyl", brauer_weyl_suite, budget=180.0, dimensions=(2, 4, 6, 8, 10, 12, 14))


def test_criterion_04_sign_laws():
    _run("4 sign-laws", sign_law_suite)


def test_criterion_05_periodicity():
    _run("5 periodicity", periodicity_suite)


def test_criterion_06_rotors():
    _run("6 rotors", rotor_suite)


def test_criterion_07_conjugation():
    _run("7 conjugation", conjugation_suite)


def test_criterion_08_exclusion():
    _run("8 exclusion", exclusion_suite)


def test_criterion_09_odd_dimensions():
    _run("9 odd-dimensions", odd_dimension_suite)


def test_criterion_10_traces_and_chains():
    _run("10 traces-chains", trace_chain_suite)
