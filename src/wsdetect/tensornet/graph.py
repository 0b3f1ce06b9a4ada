"""Model base class and the WSNET1 single-file checkpoint format.

A checkpoint is: the magic bytes ``WSNET1\\n``, an 8-byte little-endian
header length, a JSON header (model kind, config, array manifest,
model-specific extras), then every array as raw little-endian float64
in manifest order. Loading requires each of the model's arrays exactly
once, in its model shape, and nothing after the last one.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"WSNET1\n"


class CheckpointError(Exception):
    pass


class ModelGraph:
    """Ordered named layers plus bookkeeping shared by both detectors.

    Subclasses implement `forward(inputs, mode, rng)` returning logits,
    `backward(dlogits)`, and the checkpoint hooks `config_header()` /
    `from_config(header)`.
    """

    kind = "base"

    def __init__(self):
        self._layers: list[tuple[str, object]] = []

    def add_layer(self, name: str, layer):
        self._layers.append((name, layer))
        return layer

    def layers(self):
        return list(self._layers)

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self._layers:
            for pname, value in layer.params.items():
                out[f"{name}.{pname}"] = value
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self._layers:
            for pname, value in layer.grads.items():
                out[f"{name}.{pname}"] = value
        return out

    def named_buffers(self) -> dict[str, np.ndarray]:
        out = {}
        for name, layer in self._layers:
            for bname, value in layer.buffers.items():
                out[f"{name}.{bname}"] = value
        return out

    def zero_grads(self):
        for _, layer in self._layers:
            layer.zero_grads()

    def frozen_masks(self) -> dict[str, np.ndarray]:
        """Boolean masks of parameter entries pinned at their init value
        (frozen embedding padding rows). Gradients there are forced to
        zero, so oracles must skip them."""
        out = {}
        for name, layer in self._layers:
            getter = getattr(layer, "frozen_mask", None)
            if getter is None:
                continue
            for pname in layer.params:
                mask = getter(pname)
                if mask is not None:
                    out[f"{name}.{pname}"] = mask
        return out

    def forward(self, inputs, mode="eval", rng=None):
        raise NotImplementedError

    def backward(self, dlogits):
        raise NotImplementedError

    # --- checkpoint hooks --------------------------------------------

    def config_header(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_config(cls, header: dict) -> "ModelGraph":
        raise NotImplementedError


_MODEL_KINDS: dict[str, type[ModelGraph]] = {}


def register_model_kind(kind: str, cls: type[ModelGraph]) -> None:
    _MODEL_KINDS[kind] = cls


def save_model(model: ModelGraph, path: str | Path) -> None:
    arrays = {}
    manifest = []
    for name, value in model.parameters().items():
        arrays[name] = value
        manifest.append({"name": name, "shape": list(value.shape), "role": "param"})
    for name, value in model.named_buffers().items():
        arrays[name] = value
        manifest.append({"name": name, "shape": list(value.shape), "role": "buffer"})
    header = {
        "kind": model.kind,
        "arrays": manifest,
        "config": model.config_header(),
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for entry in manifest:
            fh.write(np.ascontiguousarray(
                arrays[entry["name"]], dtype="<f8").tobytes())


def load_model(path: str | Path) -> ModelGraph:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a WSNET1 checkpoint")
        (header_len,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        kind = header.get("kind")
        if kind not in _MODEL_KINDS:
            raise CheckpointError(f"{path}: unknown model kind {kind!r}")
        model = _MODEL_KINDS[kind].from_config(header["config"])
        params = model.parameters()
        buffers = model.named_buffers()
        loaded: set[str] = set()
        for entry in header["arrays"]:
            name = entry["name"]
            target = params if entry["role"] == "param" else buffers
            if name not in target:
                raise CheckpointError(
                    f"{path}: checkpoint array {name} has no slot in model")
            if name in loaded:
                raise CheckpointError(f"{path}: array {name} listed twice")
            loaded.add(name)
            shape = tuple(entry["shape"])
            if shape != target[name].shape:
                raise CheckpointError(
                    f"{path}: array {name} has shape {shape}, "
                    f"model expects {target[name].shape}")
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise CheckpointError(f"{path}: truncated array {name}")
            target[name][...] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        missing = (set(params) | set(buffers)) - loaded
        if missing:
            raise CheckpointError(
                f"{path}: checkpoint lacks array(s) {', '.join(sorted(missing))}")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last array")
    return model
