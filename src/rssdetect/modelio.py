"""Versioned binary model files.

Layout (all little-endian):

    bytes 0-3   magic  "RSSM"
    bytes 4-7   u32    format version (currently 1)
    bytes 8-11  4-byte model tag: "DN32", "DNNC", "DBC1", "DBC2", or "KMC\\0"
    ...         tag-specific payload

Detector payload: u32 layer count n, u32 sizes[n+1], f64 leaky slope,
u32 M, f64 mean[M], f64 std[M], then per layer the row-major (out, in)
weight matrix and the bias vector, in the width the tag names: f32 for
"DN32" (float32 parameters, as a trained detector holds), f64 for "DNNC"
(float64 parameters, as every detector file of the releases that decided
in float64 holds).  Each loads back in its own width, bit for bit.

DBC payload: f64 threshold (the norm order is the tag).

KMC payload: u32 kappa, u32 M, f64 centroids[kappa*M] row-major,
f64 threshold.

:func:`load_model` raises ``DataFormatError`` on any file that does not
decode to a valid model: bad magic, version or tag, truncation, trailing
bytes, detector layer sizes that do not end in one output, and any value
the model's class refuses (a non-finite weight, bias, mean, std, slope
or centroid, a NaN threshold, ``std <= 0``, a slope outside [0, 1],
weight or bias shapes that do not chain, M = 0 features or kappa = 0).  The classes check those values at
construction, so every model :func:`save_model` writes loads back.
"""

from __future__ import annotations

import struct

import numpy as np

from .benchmarks import DbcModel, KmcModel
from .detector import Decision, DetectorModel, decide
from .errors import DataFormatError
from .neural import MlpParams

_MAGIC = b"RSSM"
_VERSION = 1
_TAG_DNNC = b"DNNC"
_TAG_DN32 = b"DN32"
_TAG_DBC1 = b"DBC1"
_TAG_DBC2 = b"DBC2"
_TAG_KMC = b"KMC\0"


# detector tag -> dtype of its weights and biases
_DNN_DTYPES = {_TAG_DN32: np.dtype(np.float32), _TAG_DNNC: np.dtype(np.float64)}
_F64 = np.dtype(np.float64)


def _packed(arr, dtype=_F64) -> bytes:
    return np.ascontiguousarray(arr, dtype=dtype.newbyteorder("<")).tobytes()


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise DataFormatError(f"{self.path}: truncated model file")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def floats(self, n: int, dtype=_F64) -> np.ndarray:
        raw = self.take(dtype.itemsize * n)
        return np.frombuffer(raw, dtype=dtype.newbyteorder("<")).astype(dtype)


def save_model(model, path) -> None:
    chunks = [_MAGIC, struct.pack("<I", _VERSION)]
    if isinstance(model, DetectorModel):
        sizes = model.params.layer_sizes
        dtype = model.params.weights[0].dtype
        chunks.append(next(tag for tag, d in _DNN_DTYPES.items() if d == dtype))
        chunks.append(struct.pack("<I", model.params.n_layers))
        chunks.append(struct.pack(f"<{len(sizes)}I", *sizes))
        chunks.append(struct.pack("<d", model.negative_slope))
        chunks.append(struct.pack("<I", model.n_features))
        chunks.append(_packed(model.feature_mean))
        chunks.append(_packed(model.feature_std))
        for w, b in zip(model.params.weights, model.params.biases):
            chunks.append(_packed(w, dtype))
            chunks.append(_packed(b, dtype))
    elif isinstance(model, DbcModel):
        chunks.append(_TAG_DBC1 if model.norm_order == 1 else _TAG_DBC2)
        chunks.append(struct.pack("<d", model.threshold))
    elif isinstance(model, KmcModel):
        kappa, m = model.centroids.shape
        chunks.append(_TAG_KMC)
        chunks.append(struct.pack("<II", kappa, m))
        chunks.append(_packed(model.centroids))
        chunks.append(struct.pack("<d", model.threshold))
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_model(path):
    """Read any model file; the returned type follows the stored tag."""
    with open(path, "rb") as fh:
        r = _Reader(fh.read(), path)
    try:
        model = _decode(r)
    except DataFormatError:
        raise
    except ValueError as exc:  # a model invariant, such as std > 0 or finite weights
        raise DataFormatError(f"{path}: {exc}") from exc
    if r.off != len(r.data):
        raise DataFormatError(f"{path}: {len(r.data) - r.off} trailing bytes")
    return model


def _decode(r: _Reader):
    path = r.path
    if r.take(4) != _MAGIC:
        raise DataFormatError(f"{path}: not a model file (bad magic)")
    version = r.u32()
    if version != _VERSION:
        raise DataFormatError(f"{path}: unsupported model format version {version}")
    tag = r.take(4)
    if tag in _DNN_DTYPES:
        dtype = _DNN_DTYPES[tag]
        n_layers = r.u32()
        sizes = [r.u32() for _ in range(n_layers + 1)]
        # a header check: the body's length follows from the sizes
        if n_layers < 1 or sizes[-1] != 1:
            raise DataFormatError(f"{path}: layer sizes {sizes} do not end in one output")
        slope = r.f64()
        m = r.u32()
        mean = r.floats(m)
        std = r.floats(m)
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            weights.append(r.floats(fan_in * fan_out, dtype).reshape(fan_out, fan_in))
            biases.append(r.floats(fan_out, dtype))
        return DetectorModel(
            params=MlpParams(weights=weights, biases=biases),
            feature_mean=mean,
            feature_std=std,
            negative_slope=slope,
        )
    if tag in (_TAG_DBC1, _TAG_DBC2):
        return DbcModel(norm_order=1 if tag == _TAG_DBC1 else 2, threshold=r.f64())
    if tag == _TAG_KMC:
        kappa = r.u32()
        m = r.u32()
        centroids = r.floats(kappa * m).reshape(kappa, m)
        return KmcModel(centroids=centroids, threshold=r.f64())
    raise DataFormatError(f"{path}: unknown model tag {tag!r}")


def decide_any(model, f, f_prime) -> Decision:
    """Decide one pair with any model: :func:`detector.decide`, the
    threshold-0 rule on the model's own statistic; a batch raises ``ValueError``."""
    return decide(model, f, f_prime)
