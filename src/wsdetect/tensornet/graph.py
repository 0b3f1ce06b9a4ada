"""Model base class and the WSNET1 single-file checkpoint format.

A checkpoint is: the magic bytes ``WSNET1\\n``, an 8-byte little-endian
header length, a JSON header (model kind, config, array manifest,
model-specific extras), then every array as raw little-endian float64
in manifest order. Loading requires each of the model's arrays exactly
once, in its model shape, and nothing after the last one; any malformed
header or config raises `CheckpointError` naming the file.
"""

from __future__ import annotations

import json
import os
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


def _read_header(fh, path) -> dict:
    raw_len = fh.read(8)
    if len(raw_len) != 8:
        raise CheckpointError(f"{path}: truncated header length")
    (header_len,) = struct.unpack("<Q", raw_len)
    # checked before reading: a corrupt length must not size a buffer
    if header_len > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError(f"{path}: truncated header")
    blob = fh.read(header_len)
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: header is not UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("config", "arrays"):
        if key not in header:
            raise CheckpointError(f"{path}: header lacks {key!r}")
    if not isinstance(header["arrays"], list):
        raise CheckpointError(f"{path}: array manifest is not a list")
    return header


def load_model(path: str | Path) -> ModelGraph:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a WSNET1 checkpoint")
        header = _read_header(fh, path)
        kind = header.get("kind")
        if not isinstance(kind, str) or kind not in _MODEL_KINDS:
            raise CheckpointError(f"{path}: unknown model kind {kind!r}")
        try:
            model = _MODEL_KINDS[kind].from_config(header["config"])
        except Exception as exc:
            # from_config runs model code on values read from the file:
            # whatever it raises (TypeError, KeyError, SrcModelError, ...)
            # means the file is bad
            raise CheckpointError(
                f"{path}: invalid {kind} config: {exc!r}") from exc
        params = model.parameters()
        buffers = model.named_buffers()
        loaded: set[str] = set()
        for entry in header["arrays"]:
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("name"), str)
                    and entry.get("role") in ("param", "buffer")
                    and isinstance(entry.get("shape"), list)):
                raise CheckpointError(
                    f"{path}: malformed manifest entry {entry!r}")
            name, shape = entry["name"], tuple(entry["shape"])
            target = params if entry["role"] == "param" else buffers
            if name not in target:
                raise CheckpointError(
                    f"{path}: checkpoint array {name} has no slot in model")
            if name in loaded:
                raise CheckpointError(f"{path}: array {name} listed twice")
            loaded.add(name)
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
