"""DAG model container.

A :class:`Model` is a directed acyclic graph of named layers.  Nodes are
added in topological order (each node's inputs must already exist),
which makes forward a single in-order sweep and backward the reverse
sweep with gradient accumulation at fan-out points.  The special input
name ``"input"`` denotes the model input.

Residual (ResNet) and branchy (Inception) topologies are expressed with
the :class:`repro.nn.layers.Add` / :class:`~repro.nn.layers.Concat`
merge layers, which take a list of upstream node names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers.base import Layer, MergeLayer, Parameter

__all__ = ["Model", "Node"]

INPUT = "input"


@dataclass
class Node:
    name: str
    layer: Layer
    inputs: list[str]
    #: populated during forward
    output: np.ndarray | None = field(default=None, repr=False)


class Model:
    """A named-node DAG of layers with forward/backward execution."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._order: list[str] = []
        self._outputs: list[str] = []

    # -- construction ----------------------------------------------------
    def add(
        self,
        layer: Layer,
        inputs: str | list[str] = "",
        name: str | None = None,
    ) -> str:
        """Append a layer; returns the node name.

        ``inputs`` defaults to the previously added node (or the model
        input for the first node).  Merge layers require an explicit list
        of input names.
        """
        if name is None:
            name = f"{type(layer).__name__.lower()}_{len(self._order)}"
        if name in self._nodes or name == INPUT:
            raise ValueError(f"duplicate node name: {name!r}")
        if inputs == "":
            inputs = [self._order[-1]] if self._order else [INPUT]
        elif isinstance(inputs, str):
            inputs = [inputs]
        for src in inputs:
            if src != INPUT and src not in self._nodes:
                raise ValueError(f"unknown input node {src!r} for {name!r}")
        if isinstance(layer, MergeLayer) and len(inputs) < 2:
            raise ValueError(f"merge layer {name!r} needs >= 2 inputs")
        if not isinstance(layer, MergeLayer) and len(inputs) != 1:
            raise ValueError(f"layer {name!r} takes exactly one input")
        if not layer.name:
            layer.name = name
        self._nodes[name] = Node(name=name, layer=layer, inputs=list(inputs))
        self._order.append(name)
        return name

    # -- introspection ----------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __getitem__(self, name: str) -> Layer:
        return self._nodes[name].layer

    @property
    def node_names(self) -> list[str]:
        return list(self._order)

    def layers(self) -> list[Layer]:
        return [self._nodes[n].layer for n in self._order]

    def params(self) -> list[Parameter]:
        return [p for layer in self.layers() for p in layer.params()]

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params())

    def parametric_layers(self) -> list[tuple[str, Layer]]:
        """(name, layer) for layers with trainable weights, in depth order."""
        return [
            (n, self._nodes[n].layer)
            for n in self._order
            if self._nodes[n].layer.params()
        ]

    def state_dict(self) -> dict[str, np.ndarray]:
        """All model state: trainable parameters *and* buffers.

        Use this (not :meth:`params` alone) for checkpointing — layers
        like batch norm carry running statistics that inference depends
        on but training does not update through gradients.
        """
        out: dict[str, np.ndarray] = {}
        for name in self._order:
            layer = self._nodes[name].layer
            for i, p in enumerate(layer.params()):
                out[f"{name}.param{i}"] = p.data
            for key, arr in layer.buffers().items():
                out[f"{name}.buffer.{key}"] = arr
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`state_dict`; strict on keys and shapes."""
        expected = self.state_dict()
        if set(state) != set(expected):
            missing = set(expected) - set(state)
            extra = set(state) - set(expected)
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)[:3]}, "
                f"unexpected={sorted(extra)[:3]}"
            )
        for name in self._order:
            layer = self._nodes[name].layer
            for i, p in enumerate(layer.params()):
                arr = np.asarray(state[f"{name}.param{i}"], dtype=np.float32)
                if arr.shape != p.data.shape:
                    raise ValueError(
                        f"{name}.param{i}: shape {arr.shape} != {p.data.shape}"
                    )
                p.data = arr
            for key in layer.buffers():
                arr = np.asarray(state[f"{name}.buffer.{key}"], dtype=np.float32)
                if arr.shape != getattr(layer, key).shape:
                    raise ValueError(f"{name}.buffer.{key}: shape mismatch")
                setattr(layer, key, arr)

    def get_weights(self, node_name: str) -> np.ndarray:
        """The weight tensor (not bias) of a parametric layer."""
        layer = self._nodes[node_name].layer
        ps = layer.params()
        if not ps:
            raise ValueError(f"layer {node_name!r} has no parameters")
        return ps[0].data

    def set_weights(self, node_name: str, weights: np.ndarray) -> None:
        layer = self._nodes[node_name].layer
        ps = layer.params()
        if not ps:
            raise ValueError(f"layer {node_name!r} has no parameters")
        if ps[0].data.shape != weights.shape:
            raise ValueError(
                f"shape mismatch for {node_name!r}: "
                f"{ps[0].data.shape} vs {weights.shape}"
            )
        ps[0].data = np.asarray(weights, dtype=np.float32)

    # -- execution ---------------------------------------------------------
    def _walk(
        self,
        x: np.ndarray,
        training: bool = False,
        weight_providers: dict | None = None,
        transform=None,
    ) -> dict[str, np.ndarray]:
        """The one topological node loop behind every forward.

        Returns every node's activation by name (plus the input under
        :data:`INPUT`).  ``weight_providers`` feeds the named nodes their
        weights through the fused streamed path (the keyword is passed
        only to those nodes); ``transform(name, out)`` replaces each
        node's output before it feeds downstream nodes.
        """
        acts: dict[str, np.ndarray] = {INPUT: np.asarray(x, dtype=np.float32)}
        for name in self._order:
            node = self._nodes[name]
            layer = node.layer
            provider = weight_providers.get(name) if weight_providers else None
            if training and getattr(layer, "is_output_activation", False):
                # softmax is fused into the loss during training
                out = acts[node.inputs[0]]
            elif isinstance(layer, MergeLayer):
                if provider is not None:
                    raise ValueError(f"merge layer {name!r} takes no weights")
                out = layer.forward([acts[i] for i in node.inputs], training=training)
            elif provider is not None:
                out = layer.forward(
                    acts[node.inputs[0]], training=training, weight_provider=provider
                )
            else:
                out = layer.forward(acts[node.inputs[0]], training=training)
            acts[name] = out if transform is None else transform(name, out)
        return acts

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        acts = self._walk(x, training=training)
        self._acts = acts if training else None
        return acts[self._order[-1]]

    def backward(self, dloss: np.ndarray) -> np.ndarray:
        """Back-propagate from the last node; returns d(input)."""
        grads: dict[str, np.ndarray] = {self._order[-1]: dloss}
        for name in reversed(self._order):
            node = self._nodes[name]
            layer = node.layer
            g = grads.pop(name, None)
            if g is None:
                raise RuntimeError(f"no gradient reached node {name!r}")
            if getattr(layer, "is_output_activation", False):
                din = [g]
            elif isinstance(layer, MergeLayer):
                din = layer.backward(g)
            else:
                din = [layer.backward(g)]
            for src, gi in zip(node.inputs, din):
                if src in grads:
                    grads[src] = grads[src] + gi
                else:
                    grads[src] = gi
        return grads[INPUT]

    def forward_streamed(
        self, x: np.ndarray, weight_providers: dict
    ) -> np.ndarray:
        """Inference forward with per-layer fused streamed weights.

        ``weight_providers`` maps node names to
        :class:`~repro.core.provider.WeightProvider` instances; those
        nodes consume their weights tile-by-tile through the fused
        decode+MAC path (``layer.forward(weight_provider=...)``) while
        every other node runs the classic materialized forward.  This
        is the serving path: the provider decides whether tiles come
        from a hot decoded-weight cache or a streaming decode, and the
        layer's stored weights are never read for provided nodes.

        Row contract: row i of the output equals the forward of
        ``x[i:i + 1]`` alone, bit for bit, when every ``Dense`` and
        ``Conv2D`` node has a provider.  A provided node reads each tile
        once per batch and applies it to all samples by one stacked
        matmul, which repeats per sample the BLAS call a lone sample
        makes; a node without a provider runs the materialized forward,
        whose one GEMM over the stacked rows is not batch-invariant.
        """
        unknown = set(weight_providers) - set(self._nodes)
        if unknown:
            raise ValueError(
                f"weight providers for unknown nodes: {sorted(unknown)}"
            )
        return self._walk(x, weight_providers=weight_providers)[self._order[-1]]

    def forward_traced(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Inference forward that also returns every node's activation.

        Used by the activation-compression analysis; unlike the
        training-mode cache this returns a plain name->array mapping.
        """
        acts = self._walk(x)
        del acts[INPUT]  # callers index by node name only
        return acts[self._order[-1]], acts

    def forward_transformed(
        self, x: np.ndarray, transform
    ) -> np.ndarray:
        """Forward pass with ``transform(name, activation)`` applied to
        every node output before it feeds downstream nodes.

        This is how approximate-activation studies inject lossy
        activation codecs into inference without touching the layers.
        """
        return self._walk(x, transform=transform)[self._order[-1]]

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Batched inference."""
        outs = [
            self.forward(x[i : i + batch_size])
            for i in range(0, len(x), batch_size)
        ]
        return np.concatenate(outs, axis=0)

    def zero_grad(self) -> None:
        for p in self.params():
            p.zero_grad()

    def summary(self) -> str:
        lines = [f"Model {self.name!r}: {self.num_params:,} params"]
        for name in self._order:
            node = self._nodes[name]
            lines.append(
                f"  {name:<24} {type(node.layer).__name__:<16} "
                f"params={node.layer.num_params:>10,}  <- {','.join(node.inputs)}"
            )
        return "\n".join(lines)
