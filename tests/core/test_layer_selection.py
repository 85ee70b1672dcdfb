"""Layer selection: Tab. I reproduction and the multi-layer extension."""

from __future__ import annotations

import pytest

from repro.core.layer_selection import select_layer, select_multi
from repro.nn import zoo
from repro.nn.arch import ArchSpec


class TestPaperSelection:
    @pytest.mark.parametrize("module", zoo.ALL_MODELS, ids=lambda m: m.NAME)
    def test_reproduces_table1(self, module):
        spec = module.full()
        assert select_layer(spec).name == module.SELECTED_LAYER

    def test_deepest_wins_near_tie(self):
        """ResNet-50: the stage-5 3x3 convs are slightly larger than
        fc1000 but shallower; the tolerance window lets depth win."""
        spec = zoo.resnet50.full()
        conv = spec.layer("conv5_block1_conv2")
        fc = spec.layer("fc1000")
        assert conv.weight_params > fc.weight_params  # the conflict is real
        assert select_layer(spec).name == "fc1000"

    def test_zero_tolerance_picks_absolute_max(self):
        spec = zoo.resnet50.full()
        sel = select_layer(spec, tolerance=0.0)
        assert sel.weight_params == max(
            l.weight_params for l in spec.parametric_layers()
        )

    def test_no_parametric_layers(self):
        with pytest.raises(ValueError):
            select_layer(ArchSpec("empty", (1, 28, 28)))


class TestMultiSelection:
    def test_returns_in_network_order(self):
        spec = zoo.vgg16.full()
        chosen = select_multi(spec, max_layers=3)
        names = [l.name for l in chosen]
        order = [l.name for l in spec.layers]
        assert names == sorted(names, key=order.index)

    def test_respects_depth_constraint(self):
        spec = zoo.vgg16.full()
        chosen = select_multi(spec, max_layers=2, min_depth_fraction=0.5)
        max_depth = max(l.depth for l in spec.parametric_layers())
        assert all(l.depth >= 0.5 * max_depth for l in chosen)

    def test_single_layer_matches_largest_deep(self):
        spec = zoo.vgg16.full()
        chosen = select_multi(spec, max_layers=1)
        assert chosen[0].name == "dense_1"

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            select_multi(zoo.lenet5.full(), max_layers=0)
