"""Layer-selection policy (Sec. IV-A, *Layer Selection* block of Fig. 8).

The paper compresses a single layer per network, chosen as "the layer
with the largest number of parameters and more in depth located": deep
layers tolerate perturbation best (Fig. 9), and the largest layer
maximizes the weighted compression ratio.

Two criteria can conflict (e.g. ResNet-50's deepest 3x3 convs are
slightly *larger* than ``fc1000`` but much shallower), so the policy is:
consider every parametric layer whose parameter count is within
``tolerance`` of the maximum, then pick the deepest of those.  With the
default 25 % tolerance this reproduces the paper's Tab. I selection for
all six models; each zoo module records that pick as ``SELECTED_LAYER``,
which the experiments compress on both the full-scale model and its
proxy.

``select_multi`` implements the paper's *future work* extension: a
greedy multi-layer selection maximizing footprint reduction under an
accuracy-driven depth constraint.
"""

from __future__ import annotations

from ..nn.arch import ArchSpec, LayerSpec

__all__ = ["select_layer", "select_multi"]


def select_layer(spec: ArchSpec, tolerance: float = 0.25) -> LayerSpec:
    """Select the compression target of a full-scale model: the deepest
    layer among those within ``tolerance`` of the largest weight count."""
    layers = spec.parametric_layers()
    if not layers:
        raise ValueError("model has no parametric layers")
    threshold = (1.0 - tolerance) * max(l.weight_params for l in layers)
    candidates = [l for l in layers if l.weight_params >= threshold]
    return max(candidates, key=lambda l: l.depth)


def select_multi(
    spec: ArchSpec,
    max_layers: int,
    min_depth_fraction: float = 0.5,
) -> list[LayerSpec]:
    """Greedy multi-layer selection (the paper's future-work extension).

    Chooses up to ``max_layers`` layers by descending parameter count,
    restricted to the deepest ``1 - min_depth_fraction`` of the network
    (the sensitivity analysis shows shallow layers are fragile).
    """
    if max_layers < 1:
        raise ValueError("max_layers must be >= 1")
    layers = spec.parametric_layers()
    if not layers:
        raise ValueError("model has no parametric layers")
    max_depth = max(l.depth for l in layers)
    depth_cut = min_depth_fraction * max_depth
    eligible = [l for l in layers if l.depth >= depth_cut]
    if not eligible:  # degenerate tiny models: fall back to the deepest
        eligible = [max(layers, key=lambda l: l.depth)]
    ranked = sorted(eligible, key=lambda l: l.weight_params, reverse=True)
    chosen = ranked[:max_layers]
    # report in network order
    order = {l.name: i for i, l in enumerate(spec.layers)}
    return sorted(chosen, key=lambda l: order[l.name])
