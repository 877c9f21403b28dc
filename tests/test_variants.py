import pytest

from memnet.datagen import random_dataset
from memnet.gadgets import ParameterError
from memnet.netir import compose_serial, eval_exact, metrics
from memnet.pipeline import (build_stage2, build_stage3,
                             craft_codes, default_bucket_count,
                             project_to_line, projected_values, verify_exact)
from memnet.variants import assemble_bounded_bits, assemble_bounded_depth


class TestBudgetCheck:
    def test_budget_bounds(self):
        ds = random_dataset(60, 2, 4, seed=1)
        small = random_dataset(4, 2, 2, seed=1)
        for assemble in (assemble_bounded_depth, assemble_bounded_bits):
            for budget in (0, 9):  # ceil(sqrt(60)) = 8
                with pytest.raises(ParameterError,
                                   match=rf"^budget {budget} outside 1\.\.ceil\(sqrt\(N\)\)=8$"):
                    assemble(ds, budget)
            for budget in (1, 2):  # ceil(sqrt(4)) = 2
                assert assemble(small, budget)[1].memorized


class TestBoundedDepth:
    def test_memorizes(self):
        ds = random_dataset(64, 2, 4, seed=1)
        for L in (2, 4, 8):
            net, report = assemble_bounded_depth(ds, L, seed=1)
            assert report.memorized and report.passed
            assert report.info.subnet_count == -(-64 // (L * L))

    def test_degenerate_budget_is_single_subset(self):
        ds = random_dataset(36, 1, 2, seed=2)
        net, report = assemble_bounded_depth(ds, 6, seed=2)
        assert report.info.subnet_count == 1
        assert report.realized.width <= 12

    def test_width_tracks_subset_count(self):
        ds = random_dataset(64, 1, 2, seed=3)
        widths = {}
        depths = {}
        for L in (2, 4, 8):
            _, report = assemble_bounded_depth(ds, L, seed=3)
            k = report.info.subnet_count
            assert report.realized.width <= 12 * k
            widths[L] = report.realized.width
            depths[L] = report.realized.depth
        assert widths[2] > widths[4] > widths[8]
        assert depths[2] < depths[8]

    def test_off_subset_points_contribute_exact_zero(self):
        ds = random_dataset(18, 1, 3, seed=4)
        proj, _ = project_to_line(ds, seed=4)
        zs = projected_values(proj, ds)
        order = sorted(range(ds.n), key=lambda i: zs[i])
        z_sorted = [zs[i] for i in order]
        labels_sorted = [ds.labels[i] for i in order]
        size = 9  # L = 3
        top = max(z.numerator // z.denominator for z in z_sorted)
        subnets = []
        for lo in range(0, ds.n, size):
            chunk = slice(lo, lo + size)
            code = craft_codes(z_sorted[chunk], labels_sorted[chunk],
                               default_bucket_count(size), ds.num_classes,
                               sentinel_base=top)
            subnets.append(compose_serial(
                build_stage2(code),
                build_stage3(code.bucket_size, code.rho, code.c)))
        for idx, z in enumerate(z_sorted):
            owner = idx // size
            for k, sub in enumerate(subnets):
                got = eval_exact(sub, [z])[0]
                want = labels_sorted[idx] if k == owner else 0
                assert got == want

    def test_partition_is_contiguous_and_complete(self):
        ds = random_dataset(50, 2, 2, seed=5)
        _, report = assemble_bounded_depth(ds, 4, seed=5)
        sizes = report.info.extra["subset_sizes"]
        assert sum(sizes) == 50
        assert all(s == 16 for s in sizes[:-1]) and 0 < sizes[-1] <= 16


class TestBoundedBits:
    def test_memorizes(self):
        ds = random_dataset(64, 2, 4, seed=6)
        for B in (2, 4, 8):
            net, report = assemble_bounded_bits(ds, B, seed=6)
            assert report.memorized and report.passed
            assert report.realized.width <= 13

    def test_degenerate_budget_matches_single_chain(self):
        ds = random_dataset(25, 1, 2, seed=7)
        net, report = assemble_bounded_bits(ds, 5, seed=7)
        assert report.info.subnet_count == 1
        assert report.memorized

    def test_bits_shrink_with_budget(self):
        ds = random_dataset(64, 1, 4, seed=8)
        bits = {}
        depths = {}
        for B in (2, 8):
            _, report = assemble_bounded_bits(ds, B, seed=8)
            bits[B] = report.effective_bits
            depths[B] = report.realized.depth
        assert bits[2] < bits[8]
        assert depths[2] > depths[8]

    def test_accumulator_stays_nonnegative(self):
        # the accumulator rides identity rows, which alias ReLU outputs
        # (test_eval_differential.py::test_passthrough_units_alias_relu_outputs)
        ds = random_dataset(20, 2, 3, seed=9)
        net, _ = assemble_bounded_bits(ds, 2, seed=9)
        ok, bad = verify_exact(net, ds.points, ds.labels)
        assert ok and not bad

    def test_metrics_width_never_exceeds_chain_limit(self):
        ds = random_dataset(30, 3, 4, seed=10)
        net, report = assemble_bounded_bits(ds, 3, seed=10)
        assert metrics(net).width <= 14
