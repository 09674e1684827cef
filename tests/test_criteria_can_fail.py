"""Acceptance criteria must be able to fail.

Each test swaps ``geometry.build_chain`` for a builder whose necks carry the
wrong weight, then runs one criterion and asserts that it reports FAIL.  A
criterion that still passes on the broken model checks nothing.
"""

import dataclasses

from pinchlab import acceptance, geometry

SEED = 1234


def _mutate_build_chain(monkeypatch, wrong_L):
    """Build each chain at ``wrong_L(L)``, then label it with the requested L."""
    build = geometry.build_chain

    def mutated(cfg, L, resolution=64):
        return dataclasses.replace(build(cfg, wrong_L(L), resolution=resolution), L=L)

    monkeypatch.setattr(geometry, "build_chain", mutated)


def _assert_fails(criterion):
    result = criterion(SEED)
    assert not result.passed, (result.measured, result.threshold)


def test_criterion_08_fails_with_half_weight_necks(monkeypatch):
    # neck weight l0/(2L): the circuit oracle at L sees twice the potential drop
    _mutate_build_chain(monkeypatch, lambda L: 2 * L)
    _assert_fails(acceptance.criterion_8_potential_oracles)


def test_criterion_13_fails_when_neck_weight_is_not_l0_over_L(monkeypatch):
    # neck weight l0/L^1.1: the pairing is no longer affine in L, so the
    # slopes of the s- and t-families stop differing by the factor d
    _mutate_build_chain(monkeypatch, lambda L: L**1.1)
    _assert_fails(acceptance.criterion_13_base_change)
