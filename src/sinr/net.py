"""Coordinate network: residual MLP encoder, multi-species sigmoid head.

The model maps an encoded input vector through a linear layer plus a stack of
residual blocks (the location encoder) to a feature vector, then through a
single linear head with an elementwise sigmoid to per-species presence
probabilities. Everything here — initialization, forward, reverse-mode
gradients, the Adam update, and the binary model file — is implemented
directly on numpy arrays.

Parameters and model files use float32; gradient checking works because every
function runs in whatever dtype the parameter arrays carry, so tests can
build float64 instances of the same code path.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geo import InputLayout
from .parallel import map_row_chunks
from .util import atomic_write, seed_u64

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_MAGIC = b"SINR"
_FORMAT_VERSION = 1
_FLAG_IDENTITY_ENCODER = 1
_LAYOUT_CODES = {InputLayout.COORDS: 0, InputLayout.ENV: 1, InputLayout.ENV_PLUS_COORDS: 2}
_CODE_LAYOUTS = {v: k for k, v in _LAYOUT_CODES.items()}

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1
#: Species ids are stored with a uint16 UTF-8 byte length.
MAX_SPECIES_ID_BYTES = 0xFFFF


class ModelFormatError(ValueError):
    """Base class for model-file parsing failures."""


class BadMagicError(ModelFormatError):
    """The file does not start with the model magic bytes."""


class UnsupportedVersionError(ModelFormatError):
    """The file declares a format version this code cannot read."""


class TruncatedFileError(ModelFormatError):
    """The file ends before the declared content does."""


class NonFiniteGradientError(FloatingPointError):
    """An optimizer update was handed NaN or infinite gradient entries, or
    its result has NaN or infinite parameters."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture and initialization settings.

    With ``identity_encoder`` set, the encoder is skipped entirely and the
    head reads the raw input vector, which turns the model into independent
    per-species logistic regressions; ``hidden_dim`` and
    ``n_residual_layers`` are ignored in that case.
    """

    input_dim: int
    n_species: int
    hidden_dim: int = 256
    n_residual_layers: int = 4
    dropout_p: float = 0.5
    seed: int = 0
    identity_encoder: bool = False

    def __post_init__(self) -> None:
        for name in ("input_dim", "n_species", "hidden_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_residual_layers < 0:
            raise ValueError(f"n_residual_layers must be >= 0, got {self.n_residual_layers}")
        if not (0.0 <= self.dropout_p < 1.0):
            raise ValueError(f"dropout_p must lie in [0, 1), got {self.dropout_p}")
        if not (_I64_MIN <= int(self.seed) <= _I64_MAX):
            raise ValueError("seed must fit in a signed 64-bit integer")

    @property
    def feature_dim(self) -> int:
        return self.input_dim if self.identity_encoder else self.hidden_dim


@dataclass(frozen=True)
class ResidualBlock:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class NetParams:
    """Parameter tree. ``w_in``/``b_in`` and ``blocks`` are absent (None/empty)
    for the identity encoder."""

    w_in: np.ndarray | None
    b_in: np.ndarray | None
    blocks: tuple[ResidualBlock, ...]
    w_head: np.ndarray
    b_head: np.ndarray

    def flat(self) -> list[np.ndarray]:
        """Arrays in serialization order: input layer, blocks, head."""
        out: list[np.ndarray] = []
        if self.w_in is not None:
            out += [self.w_in, self.b_in]
        for blk in self.blocks:
            out += [blk.w1, blk.b1, blk.w2, blk.b2]
        out += [self.w_head, self.b_head]
        return out

    def names(self) -> list[str]:
        """Array names in :meth:`flat` order, such as ``blocks[1].w2``."""
        out = [] if self.w_in is None else ["w_in", "b_in"]
        for i in range(len(self.blocks)):
            out += [f"blocks[{i}].{n}" for n in ("w1", "b1", "w2", "b2")]
        return out + ["w_head", "b_head"]

    @classmethod
    def from_flat(cls, arrays: list[np.ndarray]) -> NetParams:
        """Inverse of :meth:`flat`; two arrays are a bare head (identity encoder)."""
        if len(arrays) == 2:
            return cls(None, None, (), arrays[0], arrays[1])
        if len(arrays) < 4 or len(arrays) % 4:
            raise ValueError(f"{len(arrays)} arrays do not form a parameter tree")
        blocks = tuple(ResidualBlock(*arrays[i : i + 4]) for i in range(2, len(arrays) - 2, 4))
        return cls(arrays[0], arrays[1], blocks, arrays[-2], arrays[-1])


def _map_arrays(fn: Callable[..., np.ndarray], *trees: NetParams) -> NetParams:
    flats = [t.flat() for t in trees]
    return NetParams.from_flat([fn(*arrs) for arrs in zip(*flats)])


def param_shapes(cfg: NetConfig) -> list[tuple[int, ...]]:
    """Array shapes in ``NetParams.flat()`` order for this configuration."""
    h = cfg.hidden_dim
    shapes: list[tuple[int, ...]] = []
    if not cfg.identity_encoder:
        shapes += [(cfg.input_dim, h), (h,)]
        shapes += [(h, h), (h,), (h, h), (h,)] * cfg.n_residual_layers
    shapes += [(cfg.feature_dim, cfg.n_species), (cfg.n_species,)]
    return shapes


def init_params(cfg: NetConfig) -> NetParams:
    """Draw initial parameters deterministically from ``cfg.seed``.

    Weights are uniform on ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]``; biases are
    zero. Draw order is fixed (input weights, block weights in order, head
    weights) so a seed pins the full parameter vector.
    """
    rng = np.random.default_rng(seed_u64(cfg.seed))

    def draw(fan_in: int, shape: tuple[int, ...]) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(np.float32)

    h = cfg.hidden_dim
    if cfg.identity_encoder:
        w_in = b_in = None
        blocks: tuple[ResidualBlock, ...] = ()
    else:
        w_in = draw(cfg.input_dim, (cfg.input_dim, h))
        b_in = np.zeros(h, dtype=np.float32)
        blocks = tuple(
            ResidualBlock(
                draw(h, (h, h)),
                np.zeros(h, dtype=np.float32),
                draw(h, (h, h)),
                np.zeros(h, dtype=np.float32),
            )
            for _ in range(cfg.n_residual_layers)
        )
    w_head = draw(cfg.feature_dim, (cfg.feature_dim, cfg.n_species))
    b_head = np.zeros(cfg.n_species, dtype=np.float32)
    return NetParams(w_in, b_in, blocks, w_head, b_head)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid, clamped strictly inside (0, 1).

    ``1 / (1 + exp(-z))`` for z >= 0 and ``exp(z) / (1 + exp(z))`` for z < 0,
    without selecting either half: ``e = exp(-|z|)`` is exactly ``exp(-z)``
    or ``exp(z)``, and ``max(sign(z), e)`` is the numerator (1 where z >= 0,
    -0 included; ``e`` where z < 0), so every entry gets the rounding of its
    branch's formula.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.sign(z)
    np.maximum(out, e, out=out)
    e += 1
    np.divide(out, e, out=out)
    one = z.dtype.type(1)
    zero = z.dtype.type(0)
    return np.clip(out, np.nextafter(zero, one), np.nextafter(one, zero), out=out)


@dataclass
class ForwardCache:
    """Intermediate activations retained for :func:`backward`."""

    x: np.ndarray
    a_in: np.ndarray | None
    block_h_in: list[np.ndarray] = field(default_factory=list)
    block_u: list[np.ndarray] = field(default_factory=list)
    block_d: list[np.ndarray] = field(default_factory=list)
    block_v: list[np.ndarray] = field(default_factory=list)
    block_mask: list[np.ndarray | None] = field(default_factory=list)
    features: np.ndarray | None = None


#: Least output entries per row block of the head. OpenBLAS picks its GEMM
#: kernel by M*N*K (at most 1e6 takes another kernel, with other bits), so a
#: block of at least this many entries takes the kernel of the whole product.
HEAD_BLOCK_ENTRIES = 1 << 21


def row_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """``(start, stop)`` row ranges of at least ``HEAD_BLOCK_ENTRIES / n_cols``
    rows, never 1 row unless ``n_rows`` is 1; a short last block is merged
    into the one before it."""
    step = max(2, -(-HEAD_BLOCK_ENTRIES // n_cols))
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and n_rows - starts[-1] < step:
        starts.pop()
    return list(zip(starts, starts[1:] + [n_rows]))


#: Largest M*N*K that OpenBLAS runs on its small-matrix GEMM kernel.
SMALL_GEMM_MAX = 1_000_000


def head_columns(needed, n_rows: int, n_feat: int, n_species: int) -> np.ndarray | None:
    """Head columns to compute when only ``needed`` are read: those, sorted
    and unique, padded with the lowest unused ids so the head product takes
    the dense product's GEMM kernel, and so its bits. A 1-column product runs
    GEMV and one of M*N*K <= ``SMALL_GEMM_MAX`` the small-matrix kernel, both
    with other rounding. ``None`` (every column) when the count reaches
    ``n_species``."""
    cols = np.unique(np.asarray(needed, dtype=np.int64))
    count = max(cols.size, 2, SMALL_GEMM_MAX // (n_rows * n_feat) + 1)
    if count >= n_species:
        return None
    free = np.ones(count, dtype=bool)  # the lowest unused ids lie below count
    free[cols[cols < count]] = False
    pad = np.flatnonzero(free)[: count - cols.size]
    return np.sort(np.concatenate([cols, pad]))


def logit_grad_in_place(y: np.ndarray, d_y: np.ndarray) -> np.ndarray:
    """Overwrite sigmoid outputs ``y`` with ``dL/dz = d_y * y * (1 - y)``,
    computed in ``d_y``'s precision and rounded once to ``y``'s dtype."""
    dz = 1.0 - y
    dz *= y
    return np.multiply(d_y, dz, out=y)


def forward(
    params: NetParams,
    cfg: NetConfig,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    return_cache: bool = False,
    columns: np.ndarray | None = None,
):
    """Run the network on a batch ``x`` of shape ``(batch, input_dim)``.

    Returns ``(features, y_hat)``, or ``(features, y_hat, cache)`` when
    ``return_cache`` is set; ``y_hat`` has every species, or the head
    ``columns`` given (see :func:`head_columns`). In ``"train"`` mode with
    ``dropout_p > 0`` an inverted-dropout mask (kept units scaled by
    ``1/(1-p)``) is drawn from ``rng`` inside each residual block, one mask per
    block in block order; in ``"eval"`` mode dropout is disabled and no random
    numbers are consumed.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"x must have shape (batch, {cfg.input_dim}), got {x.shape}")
    dtype = params.w_head.dtype
    x = x.astype(dtype, copy=False)
    use_dropout = bool(
        mode == "train" and cfg.dropout_p > 0.0 and not cfg.identity_encoder and params.blocks
    )
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout_p > 0 requires an rng")

    cache = ForwardCache(x=x, a_in=None)
    if cfg.identity_encoder:
        h = x
    else:
        a = x @ params.w_in + params.b_in
        cache.a_in = a
        h = np.maximum(a, 0)
        keep = 1.0 - cfg.dropout_p
        for blk in params.blocks:
            u = h @ blk.w1 + blk.b1
            r = np.maximum(u, 0)
            if use_dropout:
                mask = (rng.random(size=r.shape) < keep).astype(dtype) / dtype.type(keep)
                d = r * mask
            else:
                mask = None
                d = r
            v = d @ blk.w2 + blk.b2
            if return_cache:  # else each block's arrays are freed by the next block
                cache.block_h_in.append(h)
                cache.block_u.append(u)
                cache.block_d.append(d)
                cache.block_v.append(v)
                cache.block_mask.append(mask)
            h = h + np.maximum(v, 0)
    w_head, b_head = params.w_head, params.b_head
    if columns is not None:
        w_head, b_head = w_head[:, columns], b_head[columns]
    y_hat = np.empty((h.shape[0], w_head.shape[1]), dtype=dtype)
    for r0, r1 in row_blocks(*y_hat.shape):
        np.matmul(h[r0:r1], w_head, out=y_hat[r0:r1])

    def bias_and_sigmoid(r0: int, r1: int) -> None:
        z = y_hat[r0:r1]
        z += b_head
        z[...] = _sigmoid(z)

    map_row_chunks(bias_and_sigmoid, *y_hat.shape)
    cache.features = h
    if return_cache:
        return h, y_hat, cache
    return h, y_hat


def backward(
    params: NetParams,
    cfg: NetConfig,
    cache: ForwardCache,
    d_z: np.ndarray | None = None,
    d_features: np.ndarray | None = None,
    columns: np.ndarray | None = None,
) -> NetParams:
    """Exact reverse-mode gradients for a cached forward pass.

    ``d_z`` (the derivative of a scalar objective with respect to the head
    logits, see :func:`logit_grad_in_place`) and/or ``d_features`` (with
    respect to the features) seed the pass; the result is a
    :class:`NetParams` tree of derivatives with respect to every parameter,
    in the parameters' dtype. With the ``columns`` of a gathered forward,
    ``d_z`` holds those columns and the other head columns get zero gradients.
    """
    if d_z is None and d_features is None:
        raise ValueError("backward needs d_z and/or d_features")
    dtype = params.w_head.dtype
    feats = cache.features
    w_head = params.w_head if columns is None else params.w_head[:, columns]
    if d_z is None:
        dz = np.zeros((feats.shape[0], w_head.shape[1]), dtype=dtype)
    else:
        dz = np.asarray(d_z).astype(dtype, copy=False)
    g_w_head = feats.T @ dz
    g_b_head = dz.sum(axis=0)
    dh = dz @ w_head.T
    if columns is not None:  # the columns not computed get zero gradients
        full_w, full_b = np.zeros_like(params.w_head), np.zeros_like(params.b_head)
        full_w[:, columns], full_b[columns] = g_w_head, g_b_head
        g_w_head, g_b_head = full_w, full_b
    if d_features is not None:
        dh = dh + np.asarray(d_features).astype(dtype, copy=False)

    if cfg.identity_encoder:
        return NetParams(None, None, (), g_w_head, g_b_head)

    g_blocks: list[ResidualBlock] = []
    for i in range(len(params.blocks) - 1, -1, -1):
        blk = params.blocks[i]
        dv = dh * (cache.block_v[i] > 0)
        g_w2 = cache.block_d[i].T @ dv
        g_b2 = dv.sum(axis=0)
        dd = dv @ blk.w2.T
        mask = cache.block_mask[i]
        dr = dd * mask if mask is not None else dd
        du = dr * (cache.block_u[i] > 0)
        g_w1 = cache.block_h_in[i].T @ du
        g_b1 = du.sum(axis=0)
        g_blocks.append(ResidualBlock(g_w1, g_b1, g_w2, g_b2))
        dh = dh + du @ blk.w1.T  # skip path plus block-input path
    da = dh * (cache.a_in > 0)
    g_w_in = cache.x.T @ da
    g_b_in = da.sum(axis=0)
    return NetParams(g_w_in, g_b_in, tuple(reversed(g_blocks)), g_w_head, g_b_head)


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: NetParams
    v: NetParams
    t: int = 0


def init_adam(params: NetParams) -> AdamState:
    return AdamState(m=zeros_like_params(params), v=zeros_like_params(params), t=0)


def adam_step(
    params: NetParams,
    grads: NetParams,
    state: AdamState,
    lr: float,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    eps: float = ADAM_EPS,
) -> tuple[NetParams, AdamState]:
    """One bias-corrected Adam update; returns new params and state.

    Raises :class:`NonFiniteGradientError`, leaving the inputs untouched, if
    any gradient entry is NaN or infinite, or if the update itself overflows
    (a huge learning rate) to a NaN or infinite parameter.
    """
    for name, g in zip(grads.names(), grads.flat()):
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(
                f"non-finite gradient entries in {name} at step {state.t + 1}"
            )
    t = state.t + 1
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    new_m = _map_arrays(lambda m, g: beta1 * m + (1.0 - beta1) * g, state.m, grads)
    new_v = _map_arrays(lambda v, g: beta2 * v + (1.0 - beta2) * g * g, state.v, grads)
    new_p = _map_arrays(
        lambda p, m, v: p - lr * (m / bc1) / (np.sqrt(v / bc2) + eps),
        params,
        new_m,
        new_v,
    )
    for p in new_p.flat():
        if not np.all(np.isfinite(p)):
            raise NonFiniteGradientError(
                f"non-finite parameters after the update at step {t} (lr={lr!r})"
            )
    return new_p, AdamState(m=new_m, v=new_v, t=t)


# ---------------------------------------------------------------------------
# Model file format (version 1, little-endian)
#
#   magic "SINR" | u32 version | u32 flags | u32 layout code
#   u32 input_dim | u32 hidden_dim | u32 n_residual_layers | u32 n_species
#   f64 dropout_p | i64 seed
#   u32 species-id count | per id: u16 UTF-8 byte length + bytes
#   u64 total float32 count | float32 parameter data in flat() order
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIIIIIIdq")


@dataclass(frozen=True)
class ModelFile:
    """Everything stored in a model file."""

    params: NetParams
    cfg: NetConfig
    input_layout: InputLayout
    species_ids: tuple[str, ...]


def model_to_bytes(
    params: NetParams,
    cfg: NetConfig,
    input_layout: InputLayout = InputLayout.COORDS,
    species_ids: tuple[str, ...] = (),
) -> bytes:
    flags = _FLAG_IDENTITY_ENCODER if cfg.identity_encoder else 0
    out = [
        _HEADER.pack(
            _MAGIC,
            _FORMAT_VERSION,
            flags,
            _LAYOUT_CODES[InputLayout(input_layout)],
            cfg.input_dim,
            cfg.hidden_dim,
            cfg.n_residual_layers,
            cfg.n_species,
            cfg.dropout_p,
            int(cfg.seed),
        ),
        struct.pack("<I", len(species_ids)),
    ]
    for sid in species_ids:
        raw = sid.encode("utf-8")
        if len(raw) > MAX_SPECIES_ID_BYTES:
            raise ValueError(f"species id too long to serialize: {sid[:32]!r}...")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
    out.append(struct.pack("<Q", sum(a.size for a in params.flat())))
    out += _param_chunks(params)
    return b"".join(out)


def _param_chunks(params: NetParams) -> list[bytes]:
    """One parameter tree as float32 bytes, in :meth:`NetParams.flat` order."""
    return [np.ascontiguousarray(a, dtype=np.float32).tobytes() for a in params.flat()]


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedFileError(
                f"needed {n} bytes at offset {self.pos}, file has {len(self.buf)}"
            )
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def params(self, cfg: NetConfig) -> NetParams:
        """Read one float32 parameter tree shaped for ``cfg``."""
        arrays = []
        for shape in param_shapes(cfg):
            data = np.frombuffer(self.take(4 * math.prod(shape)), dtype="<f4")
            arrays.append(data.astype(np.float32).reshape(shape))
        return NetParams.from_flat(arrays)


def model_from_bytes(buf: bytes) -> tuple[ModelFile, int]:
    """Parse a model blob; returns the model and the number of bytes consumed."""
    r = _Reader(buf)
    head = r.take(_HEADER.size)
    (magic, version, flags, layout_code, input_dim, hidden_dim, n_res, n_species,
     dropout_p, seed) = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if version != _FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported model format version {version}")
    if layout_code not in _CODE_LAYOUTS:
        raise ModelFormatError(f"unknown input layout code {layout_code}")
    try:
        cfg = NetConfig(
            input_dim=input_dim,
            n_species=n_species,
            hidden_dim=hidden_dim,
            n_residual_layers=n_res,
            dropout_p=dropout_p,
            seed=seed,
            identity_encoder=bool(flags & _FLAG_IDENTITY_ENCODER),
        )
    except ValueError as exc:
        raise ModelFormatError(f"invalid configuration in model file: {exc}") from exc

    (n_ids,) = struct.unpack("<I", r.take(4))
    ids = []
    for _ in range(n_ids):
        (ln,) = struct.unpack("<H", r.take(2))
        try:
            ids.append(r.take(ln).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"species id {len(ids)} is not valid UTF-8") from exc
    if len(set(ids)) != len(ids):
        raise ModelFormatError("species catalog contains duplicate ids")

    (total,) = struct.unpack("<Q", r.take(8))
    # Bound the declared sizes by the bytes present (every residual layer
    # holds more than one float) before expanding them into a shape list.
    n_layers = 0 if cfg.identity_encoder else cfg.n_residual_layers
    if 4 * max(total, n_layers) > len(buf) - r.pos:
        raise TruncatedFileError(f"declared sizes exceed the {len(buf) - r.pos} bytes left")
    expected = sum(math.prod(s) for s in param_shapes(cfg))
    if total != expected:
        raise ModelFormatError(
            f"parameter count {total} does not match configuration (expected {expected})"
        )
    params = r.params(cfg)
    if not all(np.isfinite(a).all() for a in params.flat()):
        raise ModelFormatError("model parameters contain NaN or infinite values")
    return ModelFile(params, cfg, _CODE_LAYOUTS[layout_code], tuple(ids)), r.pos


def save_model(
    params: NetParams,
    cfg: NetConfig,
    path,
    *,
    input_layout: InputLayout = InputLayout.COORDS,
    species_ids: tuple[str, ...] = (),
) -> None:
    """Write a model file; byte-for-byte deterministic for equal inputs."""
    blob = model_to_bytes(params, cfg, input_layout, species_ids)
    with atomic_write(path, "wb") as fh:
        fh.write(blob)


def read_model_file(path) -> ModelFile:
    """Load a model file including its input layout and species catalog."""
    with open(path, "rb") as fh:
        buf = fh.read()
    model, consumed = model_from_bytes(buf)
    if consumed != len(buf):
        raise ModelFormatError(
            f"{len(buf) - consumed} unexpected trailing bytes after model data"
        )
    return model


def zeros_like_params(params: NetParams) -> NetParams:
    return _map_arrays(np.zeros_like, params)


def params_close(a: NetParams, b: NetParams, **kwargs) -> bool:
    """True when every corresponding array pair is allclose."""
    fa, fb = a.flat(), b.flat()
    return len(fa) == len(fb) and all(
        x.shape == y.shape and np.allclose(x, y, **kwargs) for x, y in zip(fa, fb)
    )


def params_equal(a: NetParams, b: NetParams) -> bool:
    """True when every corresponding array pair is bit-identical."""
    fa, fb = a.flat(), b.flat()
    return len(fa) == len(fb) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(fa, fb)
    )


def cast_params(params: NetParams, dtype) -> NetParams:
    return _map_arrays(lambda a: a.astype(dtype), params)


__all__ = [
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
    "AdamState",
    "BadMagicError",
    "ForwardCache",
    "ModelFile",
    "ModelFormatError",
    "NetConfig",
    "NetParams",
    "NonFiniteGradientError",
    "ResidualBlock",
    "TruncatedFileError",
    "UnsupportedVersionError",
    "adam_step",
    "backward",
    "cast_params",
    "forward",
    "head_columns",
    "init_adam",
    "init_params",
    "logit_grad_in_place",
    "model_from_bytes",
    "model_to_bytes",
    "param_shapes",
    "params_close",
    "params_equal",
    "read_model_file",
    "row_blocks",
    "save_model",
    "zeros_like_params",
]
