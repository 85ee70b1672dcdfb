"""Topology variants beyond the paper's single 4x4 mesh.

The scenario matrix asks whether the compression win survives when the
NoC itself becomes the bottleneck.  Two knobs scale the substrate:

* **bigger meshes** — plain :class:`~repro.noc.mesh.Mesh` already takes
  arbitrary ``width x height``.
* **chiplet packages** — :class:`ChipletMesh` models a Simba-like
  multi-chiplet platform (the paper's own reference platform is a
  36-chiplet package): a ``chiplets_x x chiplets_y`` grid of
  ``chiplet_width x chiplet_height`` mesh dies, stitched into one
  routable mesh whose inter-die links are slower than on-die links.
  The die-to-die penalty is modelled through the routers'
  ``port_pipeline_depth``: a flit crossing a chiplet boundary becomes
  switch-eligible ``d2d_extra`` cycles later than an on-die hop, on
  both steppers (the reference stepper reads the same per-port table),
  so fast-path/reference :class:`~repro.noc.simulator.NocStats`
  identity holds on chiplet topologies too.

Memory interfaces stay at the *package* corners (the floorplan every
schedule and the transaction model assume), so traffic to a PE deep in
a far chiplet pays the boundary crossings — exactly the scaling
pressure the scenario matrix wants to measure.
"""

from __future__ import annotations

from .mesh import OPPOSITE, Mesh

__all__ = ["ChipletMesh"]


class ChipletMesh(Mesh):
    """A package of mesh chiplets exposed as one routable mesh.

    Geometry: ``chiplets_x * chiplet_width`` columns by
    ``chiplets_y * chiplet_height`` rows.  Routing, scheduling, and both
    simulator steppers treat it as a normal mesh; only the per-port
    pipeline depths differ, so every existing routing algorithm remains
    deadlock-free (turn rules are untouched).
    """

    def __init__(
        self,
        chiplets_x: int = 2,
        chiplets_y: int = 2,
        chiplet_width: int = 4,
        chiplet_height: int = 4,
        buffer_depth: int = 4,
        pipeline_depth: int = 2,
        routing: str = "xy",
        num_vcs: int = 1,
        d2d_extra: int = 2,
    ) -> None:
        if chiplets_x < 1 or chiplets_y < 1:
            raise ValueError("need at least one chiplet per package axis")
        if chiplet_width < 1 or chiplet_height < 1:
            raise ValueError("chiplet dimensions must be >= 1")
        if d2d_extra < 0:
            raise ValueError(f"d2d_extra must be >= 0, got {d2d_extra}")
        super().__init__(
            chiplets_x * chiplet_width,
            chiplets_y * chiplet_height,
            buffer_depth,
            pipeline_depth,
            routing=routing,
            num_vcs=num_vcs,
        )
        self.chiplets_x = chiplets_x
        self.chiplets_y = chiplets_y
        self.chiplet_width = chiplet_width
        self.chiplet_height = chiplet_height
        self.d2d_extra = d2d_extra
        # raise the arrival latency of every boundary-crossing input
        # port: the link from A to B lands on B's OPPOSITE[out] port
        for node in range(self.num_nodes):
            for out_port in range(4):
                neighbor = self.neighbor_table[node][out_port]
                if neighbor is None:
                    continue
                if self.chiplet_of(node) != self.chiplet_of(neighbor):
                    self.routers[neighbor].port_pipeline_depth[
                        OPPOSITE[out_port]
                    ] = pipeline_depth + d2d_extra

    def chiplet_of(self, node_id: int) -> tuple[int, int]:
        """(cx, cy) grid position of the chiplet hosting ``node_id``."""
        x, y = node_id % self.width, node_id // self.width
        return x // self.chiplet_width, y // self.chiplet_height

    def boundary_links(self) -> list[tuple[int, int]]:
        """Directed (src, dst) pairs that cross a chiplet boundary."""
        links = []
        for node in range(self.num_nodes):
            for out_port in range(4):
                neighbor = self.neighbor_table[node][out_port]
                if neighbor is not None and self.chiplet_of(
                    node
                ) != self.chiplet_of(neighbor):
                    links.append((node, neighbor))
        return links
