"""Sphere shatter families and the hidden-subset adversarial game."""

import math

import numpy as np
import pytest

from robustlab.classifiers import LabeledExample, linear_net_2d, robust_loss_point
from robustlab.regions import point_key
from robustlab.shatter_game import (
    best_response_learner,
    build_failure_instance,
    build_shatter_family,
    cap_mismatch_fraction,
    cross_loss_exact,
    cross_loss_formula,
    omniscient_learner,
    positive_cap_radius,
    random_consistent_learner,
    run_adversarial_game,
    stipulation_one_failures,
    tangent_hypothesis,
)


class TestTangentHypothesis:
    def test_axis_tangent(self):
        h = tangent_hypothesis((1.0, 0.0), 1.0)
        assert np.allclose(h.w, [1.0, 0.0])
        assert h.b == -1.0
        assert h.predict((1.0, 0.0)) == 1  # tangency point is positive
        assert h.predict((0.0, 0.0)) == -1

    def test_other_axis(self):
        h = tangent_hypothesis((0.0, 2.0), 2.0)
        assert np.allclose(h.w, [0.0, 1.0])
        assert h.b == -2.0

    def test_off_sphere_rejected(self):
        with pytest.raises(ValueError):
            tangent_hypothesis((0.5, 0.0), 1.0)

    def test_cap_radius_value(self):
        # frozen arithmetic: sqrt(2 * 0.125 * 1.125) = 0.5303300858...
        assert positive_cap_radius(1.0, 0.125) == pytest.approx(0.530330085889911)

    def test_cap_identity(self):
        frac = cap_mismatch_fraction(1.0, 0.125, (1.0, 0.0), 100_000, seed=0)
        assert frac < 1e-3

    def test_cap_identity_random_direction(self):
        x = np.array([0.6, 0.8])
        frac = cap_mismatch_fraction(1.0, 0.05, x, 50_000, seed=1)
        assert frac < 1e-3


class TestShatterFamily:
    def test_small_circle_family(self):
        fam = build_shatter_family(1.0, 2, 4, seed=0)
        assert fam.M == 4
        assert len(fam.cells) == 4
        assert len(fam.witnesses) == 4
        assert fam.cover.mesh == pytest.approx(2 * positive_cap_radius(1.0, fam.beta))

    def test_single_cell_family(self):
        fam = build_shatter_family(1.0, 2, 1, seed=1)
        assert fam.M == 1
        assert len(fam.cells) == 1  # whole sphere merged into one cell

    def test_builds_the_m_equals_two_size(self):
        fam = build_shatter_family(1.0, 2, 15, seed=2)
        assert len(fam.cells) == 15
        assert len(fam.cover) >= 15

    def test_witnesses_negative_off_their_cell(self):
        fam = build_shatter_family(1.0, 2, 6, seed=3)
        for i, h in enumerate(fam.witnesses):
            for j, cell in enumerate(fam.cells):
                preds = h.predict_many(cell)
                if j != i:
                    assert np.all(preds == -1)
                else:
                    assert preds[0] == 1  # own center is positive

    def test_cells_partition_samples(self):
        fam = build_shatter_family(1.0, 2, 5, seed=4)
        keys = [set(map(point_key, cell)) for cell in fam.cells]
        for i in range(len(keys)):
            for j in range(i + 1, len(keys)):
                assert not keys[i] & keys[j]

    def test_every_net_hypothesis_positive_somewhere(self):
        fam = build_shatter_family(1.0, 2, 8, seed=5)
        net = linear_net_2d(1.0, 25, 20)
        assert stipulation_one_failures(fam, net) == 0

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            build_shatter_family(1.0, 1, 3, seed=0)

    def test_coexisting_families_disjointness_audit(self):
        from robustlab.shatter_game import cells_mutually_disjoint

        # distinct starting cap scales put the families on distinct spheres
        a = build_shatter_family(1.0, 2, 4, seed=0, beta0=0.25)
        b = build_shatter_family(1.0, 2, 6, seed=0, beta0=0.2)
        assert a.sphere_radius != b.sphere_radius
        assert cells_mutually_disjoint(a, b)
        # negative control: an identical build collides with itself
        assert not cells_mutually_disjoint(a, build_shatter_family(1.0, 2, 4, seed=0, beta0=0.25))


class TestFailureInstance:
    def test_m_one_structure(self):
        inst = build_failure_instance(1, 1.0, 2, seed=0)
        assert inst.M == 3
        assert inst.n_anchors == 3
        assert inst.subsets == ((0,), (1,), (2,))
        # realizability: each witness is robust off its own subset
        for t in range(3):
            assert cross_loss_exact(inst, t, t) == 0.0

    def test_m_one_cross_losses_match_formula(self):
        inst = build_failure_instance(1, 1.0, 2, seed=0)
        for t in range(3):
            for tp in range(3):
                assert cross_loss_exact(inst, t, tp) == pytest.approx(
                    cross_loss_formula(inst, t, tp)
                )

    def test_m_two_witness_sample_loss_is_third(self):
        inst = build_failure_instance(2, 1.0, 2, seed=1)
        sample = [LabeledExample(a, -1) for a in inst.anchors]
        for h in inst.witnesses[:5]:
            # each witness lacks robustness on exactly its m = 2 anchors
            losses = [robust_loss_point(h, inst.family.region_for(e.x), e) for e in sample]
            assert np.mean(losses) == pytest.approx(2 / 6)

    def test_m_two_random_cross_loss_pairs(self):
        inst = build_failure_instance(2, 1.0, 2, seed=1)
        rng = np.random.default_rng(9)
        for _ in range(30):
            t, tp = rng.integers(inst.M, size=2)
            assert cross_loss_exact(inst, int(t), int(tp)) == pytest.approx(
                cross_loss_formula(inst, int(t), int(tp))
            )

    def test_anchors_distinct_and_inside_regions(self):
        inst = build_failure_instance(2, 1.0, 2, seed=1)
        keys = set(map(point_key, inst.anchors))
        assert len(keys) == inst.n_anchors
        for a in inst.anchors:
            assert inst.family.region_for(a).contains(a)

    def test_every_bounded_halfspace_pays_a_third(self):
        # enumeration over a discretized net: any bounded halfspace is
        # positive on some cell, hence non-robust on all m anchors of that
        # cell's subset, so its sample loss on the full support is >= m/(3m)
        inst = build_failure_instance(1, 1.0, 2, seed=2)
        sample = [LabeledExample(a, -1) for a in inst.anchors]
        for h in linear_net_2d(1.0, 20, 15):
            losses = [robust_loss_point(h, inst.family.region_for(e.x), e) for e in sample]
            assert np.mean(losses) >= 1 / 3


@pytest.fixture(scope="module")
def inst():
    return build_failure_instance(2, 1.0, 2, seed=1)


class TestAdversarialGame:

    def test_omniscient_learner_never_loses(self, inst):
        result = run_adversarial_game(inst, omniscient_learner, 2, 500, seed=0)
        assert np.all(result.loss_samples == 0.0)

    def test_best_response_mean_loss(self, inst):
        result = run_adversarial_game(inst, best_response_learner, 2, 3000, seed=1)
        # conditional expectation oracle: 3/4 trials see two distinct
        # anchors (mean loss 1/4), 1/4 see a duplicate (mean loss 3/10),
        # so the expected loss is 0.2625; per-trial sd is 0.1474
        sigma = 0.1474 / math.sqrt(3000)
        assert result.mean_loss >= 0.25 - 3 * sigma
        assert abs(result.mean_loss - 0.2625) <= 4 * sigma

    def test_best_response_tail(self, inst):
        result = run_adversarial_game(inst, best_response_learner, 2, 3000, seed=2)
        # exact tail: 1 - [(3/4)(1/6) + (1/4)(1/10)] = 0.85
        sigma = math.sqrt(0.85 * 0.15 / 3000)
        assert result.freq_loss_above_eighth >= 1 / 7 - 3 * sigma
        assert abs(result.freq_loss_above_eighth - 0.85) <= 4 * sigma

    def test_random_consistent_learner_also_suffers(self, inst):
        result = run_adversarial_game(inst, random_consistent_learner, 2, 2000, seed=3)
        assert result.mean_loss >= 0.25 - 3 * 0.15 / math.sqrt(2000)

    def test_exact_expectation_enumeration(self, inst):
        """Combinatorially exact expected loss over all (subset, sample) pairs."""
        from fractions import Fraction

        from robustlab.shatter_game import exact_expected_loss

        value = exact_expected_loss(inst, best_response_learner)
        # conditional-expectation oracle: 3/4 of ordered draws are distinct
        # (conditional mean 1/4), 1/4 are duplicates (conditional mean 3/10)
        assert value == Fraction(21, 80)
        assert value >= Fraction(1, 4)

    def test_exact_expectation_m_one(self):
        from fractions import Fraction

        from robustlab.shatter_game import exact_expected_loss

        small = build_failure_instance(1, 1.0, 2, seed=4)
        assert exact_expected_loss(small, best_response_learner) == Fraction(1, 4)

    def test_reproducible(self, inst):
        a = run_adversarial_game(inst, best_response_learner, 2, 200, seed=7)
        b = run_adversarial_game(inst, best_response_learner, 2, 200, seed=7)
        assert np.array_equal(a.loss_samples, b.loss_samples)
