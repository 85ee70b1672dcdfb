"""Whole-model compressed archives.

The deployable artifact of this system: a container holding, per layer,
either a codec's compressed weight blob (for layers the selection
policy / multi-layer optimizer chose) or the raw tensor, plus
everything needed to restore an inference-ready model.  This is what a
host would flash into the accelerator's parameter storage.

Archives are codec-agnostic: each compressed layer records the registry
name and parameters of the codec that produced it (plus the blob's
decode metadata), so an archive built with ``codec="huffman"`` restores
exactly like one built with the default ``"linefit"``.  Archives written
before the codec registry existed (no ``meta.codecs`` entry) decode
through the line-fit wire format, as before.

Integrity (archive format version 2): every compressed layer's codec
spec carries a CRC32 of its payload (``meta.codecs[layer].meta.crc32``),
verified before decoding; the line-fit wire payload additionally
carries its own per-frame framing (:mod:`repro.core.codec` version 3).
Version-1 archives (no checksums, v2 wire payloads) still load and
apply — the legacy fallback.  :meth:`ModelArchive.decode_layer` is the
one path from a compressed layer to its weights: for the accuracy of
``CompressionPipeline`` and ``optimize_multilayer`` (each builds an
archive with :func:`compress_model`), for :meth:`ModelArchive.apply`
and for the serving path (``repro.serve.ServedModel``).  On damage it
follows a per-layer degradation policy: ``"raise"`` (default),
``"zero"`` (salvage undamaged segments, zero the rest), or ``"raw"``
(restore the optional uncompressed fallback copy).

Format: a ``.npz`` with
  ``meta.format``              archive format version (absent = 1)
  ``meta.layers``              ordered layer names (JSON)
  ``meta.assignments``         layer -> delta_pct for compressed layers
  ``meta.codecs``              layer -> codec spec (name/params/meta/bytes)
  ``compressed.<name>``        codec payload bytes (uint8)
  ``shape.<name>``             original tensor shape
  ``raw.<name>``               raw float32 tensor for untouched layers
  ``fallback.<name>``          optional raw copy of a *compressed* layer
  ``state.<key>``              non-weight model state (biases, BN, ...)
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from ..nn.graph import Model
from .codec import decode as wire_decode
from .codecs import Codec, CompressedBlob, get_codec
from .errors import CodecError, IntegrityError

__all__ = [
    "ModelArchive",
    "compress_model",
    "load_archive",
    "check_on_fault",
    "FORMAT_VERSION",
    "ON_FAULT_POLICIES",
]

#: current archive format: 2 = per-layer payload CRCs + optional fallbacks
FORMAT_VERSION = 2

#: per-layer degradation policies of :meth:`ModelArchive.decode_layer`,
#: shared by :meth:`ModelArchive.apply` and ``repro.serve.ServedModel``
ON_FAULT_POLICIES = ("raise", "zero", "raw")


@dataclass
class ModelArchive:
    """In-memory form of a compressed model container."""

    #: layer -> delta_pct used
    assignments: dict[str, float]
    #: layer -> (codec payload bytes, original shape)
    compressed: dict[str, tuple[bytes, tuple[int, ...]]]
    #: layer -> raw weight tensor (not compressed)
    raw: dict[str, np.ndarray]
    #: everything else the model needs (biases, BN stats, ...)
    state: dict[str, np.ndarray] = field(default_factory=dict)
    #: layer -> codec spec (see ``CompressedBlob.spec``); layers absent
    #: here decode through the legacy line-fit wire path
    codecs: dict[str, dict] = field(default_factory=dict)
    #: optional raw copies of compressed layers (the ``"raw"`` policy)
    fallback: dict[str, np.ndarray] = field(default_factory=dict)
    #: archive format version this container was loaded from/built at
    version: int = FORMAT_VERSION

    @property
    def compressed_weight_bytes(self) -> int:
        return sum(len(blob) for blob, _ in self.compressed.values())

    @property
    def raw_weight_bytes(self) -> int:
        return sum(a.nbytes for a in self.raw.values())

    def weights_footprint(self) -> int:
        """Parameter-storage bytes (weight tensors only).

        Fallback copies are intentionally excluded: they model a host-
        side recovery image, not what is flashed into the accelerator's
        parameter storage.
        """
        return self.compressed_weight_bytes + self.raw_weight_bytes

    # -- persistence -------------------------------------------------------
    def to_file(self, path: str | Path) -> None:
        arrays: dict[str, np.ndarray] = {
            "meta.format": np.asarray([self.version], dtype=np.int64),
            "meta.layers": np.frombuffer(
                json.dumps(sorted(set(self.compressed) | set(self.raw))).encode(),
                dtype=np.uint8,
            ),
            "meta.assignments": np.frombuffer(
                json.dumps(self.assignments).encode(), dtype=np.uint8
            ),
        }
        if self.codecs:
            arrays["meta.codecs"] = np.frombuffer(
                json.dumps(self.codecs).encode(), dtype=np.uint8
            )
        for name, (blob, shape) in self.compressed.items():
            arrays[f"compressed.{name}"] = np.frombuffer(blob, dtype=np.uint8)
            arrays[f"shape.{name}"] = np.asarray(shape, dtype=np.int64)
        for name, arr in self.raw.items():
            arrays[f"raw.{name}"] = arr
        for name, arr in self.fallback.items():
            arrays[f"fallback.{name}"] = arr
        for key, arr in self.state.items():
            arrays[f"state.{key}"] = arr
        np.savez_compressed(path, **arrays)

    # -- application -------------------------------------------------------
    def decode_layer(self, name: str, on_fault: str = "raise") -> tuple[np.ndarray, dict | None]:
        """One compressed layer's flat weight stream, under a degradation policy.

        Verifies the payload checksum, then decodes.  When either raises
        a :class:`CodecError`, ``on_fault`` (see :data:`ON_FAULT_POLICIES`)
        decides what happens:

        * ``"raise"`` — propagate the error;
        * ``"zero"`` — keep the undamaged segments of a pure line-fit
          payload and zero-fill the damaged ones (whole-layer zeros for
          other codecs or structurally broken payloads);
        * ``"raw"`` — return the archive's uncompressed fallback copy
          (requires ``compress_model(..., raw_fallback=True)``).

        Returns the weights and a damage report: ``None`` when the layer
        decoded cleanly, else ``{"action": ..., "error": ...}`` plus the
        :class:`~repro.resilience.degrade.DamageReport` fields when the
        ``"zero"`` policy salvaged segments.
        """
        check_on_fault(on_fault)
        payload = self.compressed[name][0]
        spec = self.codecs.get(name)
        try:
            if spec is None:
                # legacy archive: line-fit wire format, no registry record
                return wire_decode(payload).decompress().ravel(), None
            blob = CompressedBlob.rebuild(spec, payload)
            # v2 archives record a payload CRC; v1 specs verify vacuously
            blob.verify(context=f"layer {name!r}")
            codec = get_codec(spec["name"], **spec.get("params", {}))
            return np.asarray(codec.decode(blob)).ravel(), None
        except CodecError as exc:
            if on_fault == "raise":
                raise
            return self._degrade_layer(name, exc, on_fault)

    def _degrade_layer(
        self, name: str, error: CodecError, on_fault: str
    ) -> tuple[np.ndarray, dict]:
        """Apply the ``"zero"`` or ``"raw"`` policy to one damaged layer."""
        if on_fault == "raw":
            if name not in self.fallback:
                raise IntegrityError(
                    f"layer {name!r} is damaged and the archive stores no raw "
                    f"fallback copy (build with compress_model(raw_fallback=True))"
                ) from error
            weights = self.fallback[name].astype(np.float32).ravel()
            return weights, {"action": "raw-fallback", "error": str(error)}
        # "zero": salvage undamaged line-fit frames, zero everything else
        payload, shape = self.compressed[name]
        num_weights = int(np.prod(shape, dtype=np.int64))
        spec = self.codecs.get(name)
        if spec is None or spec["name"] == "linefit":
            from ..resilience.degrade import decode_degraded  # late: avoid cycle

            try:
                weights, report = decode_degraded(payload, num_weights)
                return weights.ravel(), {
                    "action": "zero-fill (salvaged segments)",
                    "error": str(error),
                    **asdict(report),
                }
            except CodecError:
                pass  # structurally unsalvageable: fall through to full zero
        return (
            np.zeros(num_weights, dtype=np.float32),
            {"action": "zero-fill (whole layer)", "error": str(error)},
        )

    def apply(self, model: Model, on_fault: str = "raise") -> dict[str, dict]:
        """Install the archive's weights into a model (decompressing).

        ``on_fault`` selects the per-layer degradation policy when a
        payload fails integrity verification or decoding (see
        :meth:`decode_layer`).  Returns the damage report of every
        degraded layer — the same per-layer dicts ``ServedModel.damage``
        records — and is empty when every layer decoded cleanly.
        """
        check_on_fault(on_fault)
        damage: dict[str, dict] = {}
        for name, (_, shape) in self.compressed.items():
            weights, report = self.decode_layer(name, on_fault)
            if report is not None:
                damage[name] = report
            model.set_weights(name, weights.reshape(shape))
        self.install_uncompressed(model)
        return damage

    def install_uncompressed(self, model: Model) -> None:
        """Install the raw layers and the non-weight state into ``model``."""
        for name, arr in self.raw.items():
            if name not in model:
                raise ValueError(f"archive layer {name!r} unknown to model")
            model.set_weights(name, arr)
        if self.state:
            # merge: archive state keys override, others stay
            current = model.state_dict()
            for key, arr in self.state.items():
                if key not in current:
                    raise ValueError(f"archive state key {key!r} unknown to model")
                current[key] = arr
            model.load_state_dict(current)


def check_on_fault(on_fault: str) -> None:
    """Reject a degradation policy that is not in :data:`ON_FAULT_POLICIES`."""
    if on_fault not in ON_FAULT_POLICIES:
        raise ValueError(
            f"unknown degradation policy {on_fault!r}; use {ON_FAULT_POLICIES}"
        )


def compress_model(
    model: Model,
    assignments: dict[str, float],
    include_state: bool = True,
    codec: str | Codec = "linefit",
    raw_fallback: bool = False,
) -> ModelArchive:
    """Build an archive from a trained model and a delta assignment.

    Layers named in ``assignments`` are stored as codec blobs at their
    delta; every other parametric layer is stored raw.  ``codec`` is any
    :mod:`repro.core.codecs` spec (per-layer deltas parameterize it;
    lossless codecs ignore them).  With ``include_state`` the non-weight
    state (biases, batch-norm statistics) rides along so
    :meth:`ModelArchive.apply` fully restores inference behaviour.  With
    ``raw_fallback`` each compressed layer additionally keeps its
    uncompressed tensor, enabling the ``"raw"`` degradation policy.
    """
    parametric = dict(model.parametric_layers())
    unknown = set(assignments) - set(parametric)
    if unknown:
        raise ValueError(f"assignments for unknown layers: {sorted(unknown)}")
    compressed = {}
    codecs = {}
    fallback = {}
    for name, delta in assignments.items():
        weights = model.get_weights(name)
        codec_obj = (
            codec
            if isinstance(codec, Codec)
            else get_codec(codec, delta_pct=float(delta))
        )
        blob = codec_obj.encode(weights.ravel()).with_checksum()
        compressed[name] = (blob.payload, tuple(weights.shape))
        codecs[name] = blob.spec()
        if raw_fallback:
            fallback[name] = weights.copy()
    raw = {
        name: model.get_weights(name).copy()
        for name in parametric
        if name not in assignments
    }
    state = {}
    if include_state:
        weight_keys = {f"{n}.param0" for n in parametric}
        state = {
            k: v.copy()
            for k, v in model.state_dict().items()
            if k not in weight_keys
        }
    return ModelArchive(
        assignments=dict(assignments),
        compressed=compressed,
        raw=raw,
        state=state,
        codecs=codecs,
        fallback=fallback,
        version=FORMAT_VERSION,
    )


def load_archive(path: str | Path) -> ModelArchive:
    with np.load(path) as data:
        version = (
            int(data["meta.format"][0]) if "meta.format" in data.files else 1
        )
        assignments = json.loads(bytes(data["meta.assignments"]).decode())
        codecs = (
            json.loads(bytes(data["meta.codecs"]).decode())
            if "meta.codecs" in data.files
            else {}
        )
        compressed = {}
        raw = {}
        state = {}
        fallback = {}
        for key in data.files:
            if key.startswith("compressed."):
                name = key[len("compressed.") :]
                compressed[name] = (
                    bytes(data[key]),
                    tuple(int(v) for v in data[f"shape.{name}"]),
                )
            elif key.startswith("raw."):
                raw[key[len("raw.") :]] = data[key]
            elif key.startswith("fallback."):
                fallback[key[len("fallback.") :]] = data[key]
            elif key.startswith("state."):
                state[key[len("state.") :]] = data[key]
    return ModelArchive(
        assignments={k: float(v) for k, v in assignments.items()},
        compressed=compressed,
        raw=raw,
        state=state,
        codecs=codecs,
        fallback=fallback,
        version=version,
    )
