"""Consolidated acceptance suite: every criterion at its stated tolerance.

Each test invokes one criterion from pinchlab.acceptance, prints a
one-line pass/fail summary (visible with ``pytest -s`` or on failure), and
asserts the pass flag.  The same criteria back the ``pinchlab verify``
command.
"""

import pytest

from pinchlab import acceptance

SEED = 1234


def _run(criterion):
    result = criterion(SEED)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.cid}: {result.name} | "
          f"measured {result.measured} | threshold {result.threshold}")
    assert result.passed, (result.measured, result.threshold)
    return result


def test_criterion_01_zariski_suite():
    _run(acceptance.criterion_1_zariski)


def test_criterion_02_pseudoinverse_suite():
    _run(acceptance.criterion_2_pseudoinverse)


def test_criterion_03_small_eigenvalue_law():
    _run(acceptance.criterion_3_small_eigenvalues)


def test_criterion_04_spectral_gap():
    _run(acceptance.criterion_4_spectral_gap)


def test_criterion_05_model_function_estimates():
    _run(acceptance.criterion_5_model_functions)


def test_criterion_06_correlation_matrix():
    _run(acceptance.criterion_6_correlation)


def test_criterion_07_truncated_green_bound():
    _run(acceptance.criterion_7_truncated_green)


def test_criterion_08_potential_oracles():
    _run(acceptance.criterion_8_potential_oracles)


def test_criterion_09_estimate_shapes():
    _run(acceptance.criterion_9_estimate_shapes)


def test_criterion_10_pairing_algebra():
    _run(acceptance.criterion_10_pairing_algebra)


def test_criterion_11_main_slope_law():
    _run(acceptance.criterion_11_slope_law)


def test_criterion_12_continuity_law():
    _run(acceptance.criterion_12_continuity_law)


def test_criterion_13_base_change_consistency():
    _run(acceptance.criterion_13_base_change)


def test_criterion_14_dynamics():
    _run(acceptance.criterion_14_dynamics)


def test_criterion_15_node_integral_asymptotics():
    _run(acceptance.criterion_15_node_integral)


def test_criterion_16_determinism():
    _run(acceptance.criterion_16_determinism)


def test_run_all_aggregates_every_criterion():
    results = [result for result, _ in acceptance.run_all(SEED)]
    assert [r.cid for r in results] == list(range(1, 17))
    assert all(r.passed for r in results)


@pytest.mark.parametrize("seed", [7, 2024])
def test_randomized_criteria_pass_for_other_seeds(seed):
    # the seeded criteria are properties, not fitted to one RNG stream
    for crit in (acceptance.criterion_1_zariski,
                 acceptance.criterion_2_pseudoinverse,
                 acceptance.criterion_8_potential_oracles,
                 acceptance.criterion_11_slope_law):
        result = crit(seed)
        assert result.passed, (seed, result.name, result.measured)
