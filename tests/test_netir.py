import gc
import json
import math
import random
from fractions import Fraction

import pytest

from memnet.exactnum import DyadicRational
from memnet.gadgets import build_triangle, build_indicator, indicator_value, triangle_iterate
from memnet.netir import (MAX_EXPONENT, MAX_MANTISSA_BITS, AffineLayer,
                          ContractViolation, DimensionError, LayeredNet,
                          TapeBuilder, compose_serial, deserialize_net,
                          effective_bits, eval_exact, eval_float, load_net,
                          metrics, net_to_json_bytes, save_net, stack_parallel)


def passthrough_net():
    """Hand-built net on (x, v): output 0 carries x through pass-through
    units in every layer, output 1 is sigma(2v - 1) + 1."""
    layers = [
        AffineLayer(2, 2, [((0, 1),), ((1, 2),)], [0, -1], relu=True),
        AffineLayer(2, 2, [((0, 1),), ((1, 1),)], [0, 0], relu=True),
        AffineLayer(2, 2, [((0, 1),), ((1, 1),)], [0, 1], relu=False),
    ]
    return LayeredNet(2, layers, "passthrough")


def identity_net(dim=1):
    t = TapeBuilder([f"x{k}" for k in range(dim)])
    t.layer([(f"x{k}", 0, {f"x{k}": 1}) for k in range(dim)], relu=False)
    return t.build("identity", output_nonneg=False)


class TestEval:
    def test_identity(self):
        net = identity_net()
        assert eval_exact(net, [Fraction(3, 2)])[0] == Fraction(3, 2)
        assert eval_float(net, [1.5]) == [1.5]

    def test_triangle_quarter(self):
        net = build_triangle()
        assert eval_exact(net, [Fraction(1, 4)])[0] == Fraction(1, 2)
        assert eval_float(net, [0.25]) == [0.5]

    def test_fraction_path_matches_dyadic_path(self):
        # odd denominators scale the integer program by D; both match the formula
        net = build_indicator(2, 5)
        for num in range(-8, 40):
            d = eval_exact(net, [Fraction(num, 4)])[0]
            f = eval_exact(net, [Fraction(num, 3)])[0]
            assert d == indicator_value(2, 5, Fraction(num, 4))
            assert f == indicator_value(2, 5, Fraction(num, 3))
            assert type(d) is type(f) is Fraction

    @pytest.mark.parametrize("x", [DyadicRational(1, -1), 0.5, "1"], ids=repr)
    def test_inputs_other_than_int_or_fraction_are_refused(self, x):
        # a dyadic is only a weight's stored form; a float would round
        with pytest.raises(TypeError):
            eval_exact(identity_net(), [x])

    def test_summation_order_invariant(self):
        rng = random.Random(5)
        terms = {f"x{k}": DyadicRational(rng.randint(-9, 9), rng.randint(-4, 4))
                 for k in range(6)}
        xs = [rng.randint(-9, 9) * Fraction(2) ** rng.randint(-4, 4) for _ in range(6)]
        results = []
        for _ in range(4):
            items = list(terms.items())
            rng.shuffle(items)
            t = TapeBuilder([f"x{k}" for k in range(6)])
            t.layer([("y", 0, dict(items))], relu=False)
            results.append(eval_exact(t.build("sum"), xs)[0])
        assert all(r == results[0] for r in results)

    def test_passthrough_values(self):
        net = passthrough_net()
        out = eval_exact(net, [Fraction(7, 2), 3])
        assert out == [Fraction(7, 2), 6]
        assert all(isinstance(v, Fraction) for v in out)
        out = eval_exact(net, [Fraction(7, 3), 3])
        assert out == [Fraction(7, 3), 6]
        assert all(isinstance(v, Fraction) for v in out)

    def test_negative_passthrough_is_clipped(self):
        # the first layer's pass-through unit reads a raw input, so its ReLU
        # clips a negative value like any other unit's
        net = passthrough_net()
        for x in (-1, Fraction(-1), Fraction(-1, 3), Fraction(-1, 16)):
            assert eval_exact(net, [x, 3]) == [0, 6]
        assert eval_exact(net, [1, -5]) == [1, 1]

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            eval_exact(identity_net(), [1, 2])

    def test_float_diverges_on_wide_mantissa(self):
        # a weight with a 100-bit mantissa cannot survive float64 rounding
        wide = DyadicRational((1 << 100) + 1, 0)
        t = TapeBuilder(["x"])
        t.layer([("y", 0, {"x": wide})], relu=False)
        net = t.build("wide")
        exact = eval_exact(net, [1])[0]
        approx = eval_float(net, [1.0])[0]
        assert approx != exact

    def test_float_inf_propagates(self):
        t = TapeBuilder(["x"])
        t.layer([("y", 0, {"x": DyadicRational(1, 3000)})], relu=False)
        net = t.build("huge")
        assert math.isinf(eval_float(net, [1.0])[0])


class TestCompose:
    def test_identity_compose(self):
        net = compose_serial(build_indicator(2, 5), identity_net())
        for x in (2, 5, 7):
            assert eval_exact(net, [x])[0] == \
                eval_exact(build_indicator(2, 5), [x])[0]

    def test_depth_adds_exactly(self):
        a, b = build_triangle(), build_triangle()
        net = compose_serial(a, b)
        assert len(net.layers) == len(a.layers) + len(b.layers)

    def test_triangle_iteration(self):
        net = build_triangle()
        for k in range(2, 5):
            net = compose_serial(net, build_triangle())
            for num in range(0, 33):
                want = triangle_iterate(Fraction(num, 32), k)
                assert eval_exact(net, [Fraction(num, 32)])[0] == want

    def test_matches_sequential_evaluation(self):
        a = build_indicator(2, 5)
        t = TapeBuilder(["v"])
        t.layer([("y", 1, {"v": 2})], relu=False)
        b = t.build("affine")
        net = compose_serial(a, b)
        for x in (Fraction(9, 4), Fraction(11, 2), 3):
            mid = eval_exact(a, [x])[0]
            assert eval_exact(net, [x])[0] == eval_exact(b, [mid])[0]

    def test_uncertified_net_cannot_be_composed(self):
        # a ReLU after a's readout would clip its negative outputs
        t = TapeBuilder(["x"])
        t.layer([("h", 0, {"x": 1})])
        t.layer([("v", -5, {"h": 1})], relu=False)  # negative on x < 5
        a = t.build("shifted", output_nonneg=False)
        with pytest.raises(ContractViolation):
            compose_serial(a, identity_net())

    def test_interface_mismatch(self):
        with pytest.raises(DimensionError):
            compose_serial(identity_net(2), identity_net(1))


class TestStack:
    def test_single_member_is_identity_wrapper(self):
        a = build_indicator(2, 5)
        s = stack_parallel([a])
        for x in (1, 3, 6):
            assert eval_exact(s, [x]) == eval_exact(a, [x])

    def test_componentwise_and_width_sum(self):
        a, b = build_indicator(2, 5), build_indicator(10, 12)
        s = stack_parallel([a, b])
        for x in (2, 11, 7):
            assert eval_exact(s, [x]) == [eval_exact(a, [x])[0],
                                          eval_exact(b, [x])[0]]
        assert metrics(s).width == metrics(a).width + metrics(b).width

    def test_params_add_exactly(self):
        a, b = build_indicator(2, 5), build_indicator(10, 12)
        assert metrics(stack_parallel([a, b])).params == \
            metrics(a).params + metrics(b).params

    def test_padding_preserves_function(self):
        deep = compose_serial(build_indicator(2, 5), identity_net())
        shallow = build_indicator(9, 11)
        s = stack_parallel([deep, shallow])
        assert len(s.layers) == len(deep.layers)
        for x in (2, 10, 8):
            assert eval_exact(s, [x]) == [eval_exact(deep, [x])[0],
                                          eval_exact(shallow, [x])[0]]

    def test_input_dim_must_match(self):
        with pytest.raises(DimensionError):
            stack_parallel([identity_net(1), identity_net(2)])

    def test_uncertified_shorter_member_cannot_be_padded(self):
        deep = compose_serial(build_indicator(2, 5), identity_net())
        with pytest.raises(ContractViolation):
            stack_parallel([deep, identity_net()])


class TestTapeBuilder:
    """layer() skips the checking constructor, so it checks its own rows."""

    def test_unknown_source_is_refused(self):
        t = TapeBuilder(["x"])
        with pytest.raises(KeyError, match="unknown source channel 'z'"):
            t.layer([("y", 0, {"x": 1, "z": 0})])
        assert t.layers == [] and t.names == ["x"]

    def test_duplicate_output_name_is_refused(self):
        t = TapeBuilder(["x"])
        with pytest.raises(ValueError, match="duplicate output channel names"):
            t.layer([("y", 0, {"x": 1}), ("y", 0, {"x": 2})])
        assert t.layers == [] and t.names == ["x"]

    @pytest.mark.parametrize("row", [("y", 0, {"x": 0.5}), ("y", 0.5, {"x": 1})],
                             ids=["coefficient", "bias"])
    def test_float_is_refused(self, row):
        t = TapeBuilder(["x"])
        with pytest.raises(TypeError, match="int or DyadicRational"):
            t.layer([row])
        assert t.layers == [] and t.names == ["x"]

    def test_rows_are_stored_as_the_checking_constructor_stores_them(self):
        t = TapeBuilder(["x", "v"])
        t.layer([("a", 3, {"v": 2, "x": 0}),
                 ("b", DyadicRational(0), {"x": DyadicRational(1, -2)})], relu=1)
        (layer,) = t.layers
        assert layer.rows == (((1, DyadicRational(2)),), ((0, DyadicRational(1, -2)),))
        assert layer.biases == (DyadicRational(3), DyadicRational(0))
        assert layer.relu is True and t.names == ["a", "b"]


class TestMetricsAndSerialization:
    def test_zero_weights_unstored(self):
        layer = AffineLayer(2, 1, [((0, 1), (1, DyadicRational(0)))], [0], False)
        assert layer.rows == (((0, DyadicRational(1)),),)
        assert layer.nonzero_params() == 1

    def test_row_naming_a_column_twice_is_refused(self):
        # a dense file would keep only one of the terms, a sparse one is refused
        with pytest.raises(DimensionError, match="column twice"):
            AffineLayer(2, 1, [((0, 1), (0, 1))], [0], False)

    def test_effective_bits(self):
        t = TapeBuilder(["x"])
        t.layer([("y", DyadicRational(1, -9), {"x": 6})], relu=False)
        net = t.build("b")
        # 6 = 3 * 2: 2 mantissa bits + exponent 1 = 3; bias 2^-9 gives 10
        assert effective_bits(net) == 10

    def test_round_trip_bit_exact(self):
        net = compose_serial(build_triangle(), build_indicator(3, 9))
        again = deserialize_net(json.loads(net_to_json_bytes(net)))
        rng = random.Random(2)
        for _ in range(25):
            x = rng.randint(-64, 64) * Fraction(2) ** rng.randint(-5, 2)
            assert eval_exact(again, [x]) == eval_exact(net, [x])
        assert metrics(again) == metrics(net)

    def test_sparse_encoding_used_for_wide_nets(self):
        wide = stack_parallel([build_indicator(2 * k + 2, 2 * k + 4)
                               for k in range(9)])
        obj = json.loads(net_to_json_bytes(wide))
        assert any(isinstance(layer["w"], dict) for layer in obj["layers"])
        again = deserialize_net(obj)
        assert eval_exact(again, [5]) == eval_exact(wide, [5])

    def test_final_layer_must_be_affine(self):
        layer = AffineLayer(1, 1, [((0, 1),)], [0], relu=True)
        with pytest.raises(DimensionError):
            LayeredNet(1, [layer], "bad")

    @pytest.mark.parametrize("at_cap, past_cap", [
        (DyadicRational(1, MAX_EXPONENT), DyadicRational(1, MAX_EXPONENT + 1)),
        (DyadicRational(-3, -MAX_EXPONENT), DyadicRational(-3, -MAX_EXPONENT - 1)),
        (DyadicRational((1 << MAX_MANTISSA_BITS) - 1),
         DyadicRational((1 << MAX_MANTISSA_BITS) + 1)),
    ], ids=["exponent", "negative-exponent", "mantissa"])
    def test_only_nets_within_the_load_caps_are_saved(self, tmp_path, at_cap, past_cap):
        def one_weight(w):
            return LayeredNet(1, [AffineLayer(1, 1, [((0, w),)], [0], relu=False)])

        path = tmp_path / "net.json"
        save_net(one_weight(at_cap), path)
        assert load_net(path)[0].layers[0].rows == (((0, at_cap),),)
        with pytest.raises(ValueError, match="load caps"):
            net_to_json_bytes(one_weight(past_cap))
        path.unlink()
        with pytest.raises(ValueError, match="load caps"):
            save_net(one_weight(past_cap), path)
        assert not path.exists()

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("content", [None, '{"format_version": 99}', "[" * 100_000],
                             ids=["good", "refused", "too-deep"])
    def test_load_net_leaves_the_collector_as_it_found_it(self, tmp_path, enabled, content):
        path = tmp_path / "net.json"
        if content is None:
            save_net(passthrough_net(), path)
        else:
            path.write_text(content)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if content is None:
                load_net(path)
            else:
                with pytest.raises(ValueError):
                    load_net(path)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
