import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import memnet
from memnet import netir
from memnet.datagen import random_dataset
from memnet.exactnum import bin_range
from memnet.gadgets import ParameterError
from memnet.netir import eval_exact, metrics, net_to_json_bytes
from memnet.pipeline import (DuplicatePointError, LabelRangeError,
                             ProjectionSearchExhausted, assemble_sqrt,
                             build_stage2, build_stage3, craft_codes,
                             default_bucket_count, load_and_validate,
                             project_to_line, projected_values,
                             regression_dataset, regression_wrap, verify_exact)


class TestLoadAndValidate:
    def test_two_points_on_a_line(self):
        ds = load_and_validate([("0",), ("3",)], [1, 2])
        assert ds.delta_sq == 9 and ds.r_sq == 9

    def test_single_point_has_no_separation(self):
        ds = load_and_validate([("5", "1")], [1])
        assert ds.delta_sq is None

    def test_unit_square_corners(self):
        ds = load_and_validate([("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")],
                               [1, 2, 1, 2])
        assert ds.delta_sq == 1 and ds.r_sq == 2

    def test_duplicate_points(self):
        with pytest.raises(DuplicatePointError):
            load_and_validate([("1", "2"), ("1", "2")], [1, 1])

    def test_label_range(self):
        with pytest.raises(LabelRangeError):
            load_and_validate([("0",), ("3",)], [0, 1], num_classes=2)
        with pytest.raises(LabelRangeError):
            load_and_validate([("0",), ("3",)], [1, 3], num_classes=2)

    def test_decimal_coordinates_are_exact(self):
        ds = load_and_validate([("0.1",), ("0.3",)], [1, 1], num_classes=2)
        assert ds.delta_sq == Fraction(1, 25)


class TestProjection:
    def test_two_integer_points_need_no_magnification(self):
        ds = load_and_validate([("0",), ("3",)], [1, 2])
        proj, net = project_to_line(ds, seed=0)
        assert proj.scale.as_fraction() <= 1
        assert metrics(net).width == 1 and len(net.layers) == 2

    def test_invariants_hold_exactly(self):
        for seed in (0, 1, 2):
            ds = random_dataset(32, 3, 4, seed=seed)
            proj, net = project_to_line(ds, seed=seed)
            zs = projected_values(proj, ds)
            assert all(z >= 0 for z in zs)
            zs_sorted = sorted(zs)
            assert all(b - a >= 2 for a, b in zip(zs_sorted, zs_sorted[1:]))
            assert max(zs) == proj.R_realized
            # the network computes the same embedding
            for p, z in zip(ds.points[:5], zs[:5]):
                assert eval_exact(net, list(p))[0] == z

    def test_realized_range_within_formula_ceiling(self):
        ds = random_dataset(32, 3, 4, seed=9)
        proj, _ = project_to_line(ds, seed=9)
        r = max(1.0, math.sqrt(float(ds.r_sq)))
        delta = min(1.0, math.sqrt(float(ds.delta_sq)))
        ceiling = 10 * r * 32 ** 2 * math.sqrt(math.pi * 3) / delta
        assert float(proj.R_realized) <= ceiling

    def test_first_layer_params_equal_dim_plus_one(self):
        ds = random_dataset(8, 3, 2, seed=4)
        _, net = project_to_line(ds, seed=4)
        assert net.layers[0].nonzero_params() <= 3 + 1

    def test_collinear_points_in_the_plane(self):
        pts = [(str(k), str(2 * k)) for k in range(6)]
        ds = load_and_validate(pts, [1] * 6, num_classes=2)
        proj, _ = project_to_line(ds, seed=0)
        zs = sorted(projected_values(proj, ds))
        assert all(b - a >= 2 for a, b in zip(zs, zs[1:]))

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setenv("MEMNET_RETRY_BUDGET", "0")
        ds = load_and_validate([("0",), ("3",)], [1, 2])
        with pytest.raises(ProjectionSearchExhausted):
            project_to_line(ds, seed=0)

    def test_gap_check_raises_under_optimize(self):
        """The projected gaps are checked by a raise, not an assert, so the
        check holds under python -O too: with the scale exponent forced to
        0, points 1/8 apart project less than 2 apart."""
        script = "\n".join([
            "import sys",
            "from memnet import pipeline",
            "assert sys.flags.optimize and False",  # stripped under -O
            "pipeline._doubling_exponent = lambda num, den: 0",
            "ds = pipeline.load_and_validate([('0',), ('1/8',)], [1, 2])",
            "try:",
            "    pipeline.project_to_line(ds, seed=0)",
            "except pipeline.MemorizationError as exc:",
            "    print(exc)",
        ])
        src = os.path.dirname(os.path.dirname(memnet.__file__))
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "projected training values are less than 2 apart\n"


def _blocks(packed: int, size: int, width: int) -> tuple:
    """The size width-bit blocks of a payload integer, block 0 first."""
    return tuple(bin_range(packed, k * width + 1, (k + 1) * width, size * width)
                 for k in range(size))


class TestCraftCodes:
    def test_single_bucket_example(self):
        code = craft_codes([Fraction(21, 5), Fraction(97, 10)], [3, 1], 1, 3)
        assert code.u == (73,) and code.w == (13,)
        assert code.rho == 4 and code.c == 2

    def test_single_point(self):
        code = craft_codes([Fraction(9, 2)], [2], 1, 2)
        assert code.u == (4,) and code.w == (2,)

    def test_sentinels_fill_partial_bucket(self):
        zs = [Fraction(v) for v in (0, 2, 4)]
        code = craft_codes(zs, [1, 2, 1], 2, 2)
        assert code.bucket_size == 2 and code.bucket_count == 2
        assert _blocks(code.u[1], 2, code.rho) == (4, 6)  # max floor 4, sentinel 4 + 2
        assert _blocks(code.w[1], 2, code.c) == (1, 0)

    def test_block_gaps_at_least_two(self):
        ds = random_dataset(40, 2, 4, seed=2)
        proj, _ = project_to_line(ds, seed=2)
        zs = sorted(projected_values(proj, ds))
        code = craft_codes(zs, [1] * 40, default_bucket_count(40), 4)
        for u in code.u:
            vals = sorted(_blocks(u, code.bucket_size, code.rho))
            assert all(b - a >= 2 for a, b in zip(vals, vals[1:]))

    def test_sentinels_above_all_floors(self):
        ds = random_dataset(23, 1, 2, seed=6)
        proj, _ = project_to_line(ds, seed=6)
        zs = sorted(projected_values(proj, ds))
        code = craft_codes(zs, [1] * 23, 5, 2)
        top = max(z.numerator // z.denominator for z in zs)
        real = 23 - (code.bucket_count - 1) * code.bucket_size  # points in the last bucket
        sentinels = _blocks(code.u[-1], code.bucket_size, code.rho)[real:]
        assert len(sentinels) == 2 and all(s >= top + 2 for s in sentinels)

    def test_last_bucket_interval_clamps_to_final_point(self):
        zs = [Fraction(2 * k) for k in range(5)]
        code = craft_codes(zs, [1] * 5, 2, 2)
        # bucket size 3: second bucket holds points 4 and 5 only
        assert code.intervals[-1] == (6, 9)

    def test_rejects_narrow_gaps(self):
        with pytest.raises(ParameterError):
            craft_codes([Fraction(0), Fraction(1)], [1, 1], 1, 2)


class TestStageNets:
    def test_stage2_single_bucket_constant_payload(self):
        code = craft_codes([Fraction(21, 5), Fraction(97, 10)], [3, 1], 1, 3)
        net = build_stage2(code)
        for z in (Fraction(21, 5), Fraction(97, 10)):
            out = eval_exact(net, [z])
            assert [out[1], out[2]] == [13, 73]

    def test_stage2_two_buckets_route_disjointly(self):
        zs = [Fraction(v) for v in (1, 3, 9, 11)]
        code = craft_codes(zs, [1, 2, 2, 1], 2, 2)
        net = build_stage2(code)
        for z, (w, u) in zip(zs, [(code.w[0], code.u[0])] * 2
                             + [(code.w[1], code.u[1])] * 2):
            out = eval_exact(net, [z])
            assert (out[1], out[2]) == (w, u)

    def test_stage2_metrics(self):
        code = craft_codes([Fraction(2 * k) for k in range(7)], [1] * 7, 3, 2)
        m = metrics(build_stage2(code))
        assert m.depth == 3 * code.bucket_count + 2
        assert m.width == 5

    def test_stage3_examples(self):
        net = build_stage3(2, 4, 2)
        assert eval_exact(net, [Fraction(9, 2), 13, 73])[0] == 3
        assert eval_exact(net, [Fraction(91, 10), 13, 73])[0] == 1
        assert eval_exact(net, [Fraction(20), 13, 73])[0] == 0

    def test_stage3_metrics_formula(self):
        for (n, rho, c) in ((2, 4, 2), (1, 1, 1), (3, 2, 5)):
            m = metrics(build_stage3(n, rho, c))
            assert m.depth == 3 * n * max(rho, c) + 2 * n + 2
            assert m.width <= 12

    def test_stage3_zero_far_from_all_blocks(self):
        net = build_stage3(2, 4, 2)  # blocks 4 and 9
        for x in (Fraction(25, 4), Fraction(1, 2), Fraction(11), Fraction(100)):
            if any(abs(x - b) < Fraction(3, 2) for b in (4, 9)):
                continue
            assert eval_exact(net, [x, 13, 73])[0] == 0


class TestAssemble:
    def test_spec_scale_datasets(self):
        for (n, d, c, seed) in ((1, 1, 2, 0), (2, 2, 2, 1), (16, 3, 16, 2),
                                (64, 1, 4, 3)):
            ds = random_dataset(n, d, c, seed=seed)
            net, report = assemble_sqrt(ds, seed=seed)
            assert report.memorized and report.passed
            assert report.realized.width <= 12
            ok, _ = verify_exact(net, ds.points, ds.labels)
            assert ok

    def test_memorization_across_seeds(self):
        ds = random_dataset(24, 2, 4, seed=5)
        for seed in range(3):
            net, report = assemble_sqrt(ds, seed=seed)
            assert report.memorized

    def test_depth_formula_exact(self):
        ds = random_dataset(48, 2, 4, seed=8)
        net, report = assemble_sqrt(ds, seed=8)
        info = report.info
        want = 2 + (3 * info.bucket_count + 2) + \
            (3 * info.bucket_size * max(info.rho, info.c) + 2 * info.bucket_size + 2)
        assert report.realized.depth == want == report.ceilings["depth_construction"]

    def test_deterministic_bytes(self):
        ds = random_dataset(20, 2, 4, seed=5)
        a, _ = assemble_sqrt(ds, seed=5)
        b, _ = assemble_sqrt(ds, seed=5)
        assert net_to_json_bytes(a) == net_to_json_bytes(b)

    def test_weights_are_walked_once_per_build(self, monkeypatch):
        # the audit's metrics and effective_bits and the writer's cap check
        walked = []
        stored_values = netir._stored_values
        monkeypatch.setattr(netir, "_stored_values",
                            lambda net: walked.append(net) or stored_values(net))
        ds = random_dataset(20, 2, 4, seed=5)
        net, report = assemble_sqrt(ds, seed=5)
        net_to_json_bytes(net, report.info.to_json())
        assert report.realized == metrics(net) and report.effective_bits > 0
        assert sum(w is net for w in walked) == 1

    def test_dyadic_inputs_give_dyadic_outputs(self):
        ds = random_dataset(8, 2, 2, seed=3, coord_kind="dyadic")
        net, report = assemble_sqrt(ds, seed=3)
        out = eval_exact(net, list(ds.points[0]))[0]
        # a Fraction whose denominator is a power of two
        assert isinstance(out, Fraction) and not out.denominator & (out.denominator - 1)

    def test_decimal_inputs_ride_rational_path(self):
        ds = random_dataset(8, 2, 3, seed=4, coord_kind="decimal")
        net, report = assemble_sqrt(ds, seed=4)
        assert report.memorized


class TestRegression:
    def test_grid_aligned_labels_recover_exactly(self):
        # labels sit at cell midpoints of the [0,1] quarter grid
        pts = [(str(3 * k),) for k in range(8)]
        labels = [Fraction(k % 4, 4) + Fraction(1, 8) for k in range(8)]
        net, report = regression_wrap(pts, labels, Fraction(1, 4),
                                      seed=0, lo=0, hi=1)
        for p, y in zip(pts, labels):
            assert eval_exact(net, [Fraction(p[0])])[0] == y  # midpoints of the grid cells

    def test_eighth_grid_gives_sixteen_classes_error_bound(self):
        pts = [(str(5 * k),) for k in range(12)]
        labels = [Fraction((7 * k) % 9, 8) for k in range(12)]
        net, report = regression_wrap(pts, labels, Fraction(1, 8),
                                      seed=1)
        assert report.info.num_classes == 8
        assert Fraction(report.info.extra["max_abs_error"]) <= Fraction(1, 16)

    def test_class_count_comes_from_the_label_range(self):
        pts = [(str(3 * k),) for k in range(4)]
        labels = ["1/8", "3/8", "5/8", "15/16"]
        # ceil((15/16 - 1/8) / (1/8)) = 7 classes; a declared hi of 2 gives 15
        assert regression_dataset(pts, labels, Fraction(1, 8), Fraction(1, 8)).num_classes == 7
        ds = regression_dataset(pts, labels, Fraction(1, 8), Fraction(1, 8), hi=2)
        assert ds.num_classes == 15 and ds.labels == (1, 3, 5, 7)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ParameterError):
            regression_wrap([("0",), ("3",)], [Fraction(0), Fraction(1)], 0)

    def test_params_grow_with_log_inverse_epsilon(self):
        pts = [(str(4 * k),) for k in range(16)]
        labels = [Fraction(k, 16) for k in range(16)]
        p = {}
        for eps in (Fraction(1, 4), Fraction(1, 16)):
            _, report = regression_wrap(pts, labels, eps, seed=2)
            p[eps] = report.realized.params
        assert p[Fraction(1, 16)] > p[Fraction(1, 4)]
