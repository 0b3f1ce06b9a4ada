"""Model base class and the WSNET1 single-file checkpoint format.

A checkpoint is: the magic bytes ``WSNET1\\n``, an 8-byte little-endian
header length, a JSON header (model kind, config, array manifest,
model-specific extras), then every array as raw little-endian float64
in manifest order. Loading requires each of the model's arrays exactly
once, in its model shape, and nothing after the last one; any malformed
header or config, or a model kind other than the caller expects, raises
`CheckpointError` naming the file.
"""

from __future__ import annotations

import bisect
import json
import os
import pkgutil
import struct
from pathlib import Path

import numpy as np

MAGIC = b"WSNET1\n"


class CheckpointError(Exception):
    pass


class FlatParams:
    """Named arrays packed in order into one contiguous float64 buffer,
    `params`, plus a zeroed gradient buffer of the same layout, `grads`.
    `views(buffer)` gives each named array as a view into either buffer,
    in its own shape."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.names = list(arrays)
        self.shapes = [a.shape for a in arrays.values()]
        self.ends = np.cumsum([a.size for a in arrays.values()]).tolist()
        self.params = np.empty(self.ends[-1] if self.ends else 0)
        for view, value in zip(self.views(self.params).values(), arrays.values()):
            view[...] = value
        self.grads = np.zeros_like(self.params)

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        return {name: buffer[start:end].reshape(shape) for name, start, end, shape
                in zip(self.names, [0, *self.ends], self.ends, self.shapes)}

    def name_at(self, index: int) -> str:
        """The name owning flat entry `index`."""
        return self.names[bisect.bisect_right(self.ends, index)]


class ModelGraph:
    """Ordered named layers plus bookkeeping shared by both detectors.

    Subclasses implement `forward(inputs, mode, rng)` returning logits,
    `backward(dlogits)`, and the checkpoint hooks `config_header()` /
    `from_config(header)`.

    On first use, after the last `add_layer`, every parameter moves into
    one `FlatParams` buffer and every gradient into its second buffer:
    each layer's `params[name]` and `grads[name]` become views into them,
    so layers must update both in place, never rebind them.
    """

    kind = "base"

    def __init__(self):
        self._layers: list[tuple[str, object]] = []
        self._flat: FlatParams | None = None

    def add_layer(self, name: str, layer):
        if self._flat is not None:
            raise RuntimeError("layers are fixed once the parameter buffers exist")
        self._layers.append((name, layer))
        return layer

    def _named(self, attr: str) -> dict[str, np.ndarray]:
        return {f"{name}.{key}": value for name, layer in self._layers
                for key, value in getattr(layer, attr).items()}

    def flat(self) -> FlatParams:
        """The model's `FlatParams`, built on the first call."""
        if self._flat is None:
            flat = FlatParams(self._named("params"))
            params, grads = flat.views(flat.params), flat.views(flat.grads)
            for name, layer in self._layers:
                for pname in layer.params:
                    key = f"{name}.{pname}"
                    grads[key][...] = layer.grads[pname]
                    layer.params[pname], layer.grads[pname] = params[key], grads[key]
            self._flat = flat
        return self._flat

    def parameters(self) -> dict[str, np.ndarray]:
        self.flat()
        return self._named("params")

    def named_buffers(self) -> dict[str, np.ndarray]:
        return self._named("buffers")

    def zero_grads(self):
        self.flat().grads.fill(0.0)

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


# Each checkpoint kind, as the "module:class" that defines it; the
# module is imported when a checkpoint of its kind is loaded.
MODEL_KINDS = {
    "opcode_cnn": "wsdetect.srcmodel:OpcodeCnn",
    "tabular_dnn": "wsdetect.trafficmodel:TabularDnn",
}


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


def load_model(path: str | Path, expect: type[ModelGraph] = ModelGraph) -> ModelGraph:
    """The model saved at `path`, which must be an `expect` (any kind by
    default)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: not a WSNET1 checkpoint")
        header = _read_header(fh, path)
        kind = header.get("kind")
        if not isinstance(kind, str) or kind not in MODEL_KINDS:
            raise CheckpointError(f"{path}: unknown model kind {kind!r}")
        cls = pkgutil.resolve_name(MODEL_KINDS[kind])
        if not issubclass(cls, expect):
            raise CheckpointError(
                f"{path}: model kind is {kind!r}, expected {expect.kind!r}")
        try:
            model = cls.from_config(header["config"])
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
