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

import copy
import io
import math
import struct
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geo import InputLayout
from .parallel import BLAS_PINNED, map_ranges, row_chunks
from .util import atomic_write, errors_named, seed_u64

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
    arrays = []
    for shape in param_shapes(cfg):
        if len(shape) == 2:  # a weight matrix; its fan-in is the first axis
            bound = 1.0 / np.sqrt(shape[0])
            arrays.append(rng.uniform(-bound, bound, size=shape).astype(np.float32))
        else:
            arrays.append(np.zeros(shape, dtype=np.float32))
    return NetParams.from_flat(arrays)


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
    """What :func:`backward` reads of a cached forward: the input ``x``; the
    L+1 block inputs ``h``, ``h[0]`` the input layer's ReLU output and
    ``h[-1]`` the features (``[x]`` for the identity encoder); each block's
    dropped-out hidden units ``d`` and second pre-activations ``v``;
    ``dropout_scale``, the ``1/(1-p)`` of a kept unit when masks were drawn,
    else None; and after a forward with ``read``, those head columns and
    their weights, ``w_read[r, k] = w_head[:, read[r, k]]``, else None. The
    ReLU and dropout masks are read back from ``d`` and ``h[0]``: ``d > 0``
    exactly where the unit was kept and its pre-activation was positive."""

    x: np.ndarray
    h: list[np.ndarray]
    d: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    dropout_scale: np.floating | None = None
    read: np.ndarray | None = None
    w_read: np.ndarray | None = None

    @property
    def features(self) -> np.ndarray:
        return self.h[-1]


#: Largest M*N*K that OpenBLAS runs on its small-matrix GEMM kernel.
SMALL_GEMM_MAX = 1_000_000
#: Least M*N*K of a head GEMM block: past ``SMALL_GEMM_MAX``, so a block takes
#: the whole product's kernel and bits, and worth handing to a worker.
GEMM_BLOCK_MACS = 1 << 25
#: Most blocks per head GEMM: 512-row blocks at 4,096 rows; smaller row blocks
#: repack the other operand once each for a few per cent more time per block.
GEMM_MAX_BLOCKS = 8


def _near_equal(n: int, least: int, most: int) -> list[tuple[int, int]]:
    """``(start, stop)`` ranges of ``[0, n)``: ``i * n // count`` splits into
    at most ``most`` ranges of at least ``least``, else the one range
    ``(0, n)``, which is also the plan when BLAS is not pinned to one thread
    (its own threads then run each product whole)."""
    count = max(1, min(most, n // least)) if BLAS_PINNED == "1" else 1
    return [(i * n // count, (i + 1) * n // count) for i in range(count)]


def gemm_blocks(n: int, line_macs: int) -> list[tuple[int, int]]:
    """``(start, stop)`` ranges that split a head product along an axis of
    ``n`` rows or columns, each costing ``line_macs`` multiply-adds: at most
    ``GEMM_MAX_BLOCKS`` near-equal blocks, each at least 2 wide and past
    ``GEMM_BLOCK_MACS``, else the one block ``(0, n)``. Also one block when
    BLAS is not pinned to one thread: its own threads then run the product."""
    return _near_equal(n, max(2, GEMM_BLOCK_MACS // max(line_macs, 1) + 1), GEMM_MAX_BLOCKS)


def encoder_tiles(n: int, hidden_dim: int) -> list[tuple[int, int]]:
    """``(start, stop)`` row tiles in which the residual blocks of an
    ``n``-row batch run: the most near-equal tiles that are each at least 2
    rows with each block product (``hidden_dim`` by ``hidden_dim``) past
    ``GEMM_BLOCK_MACS``, so every tile's GEMMs take the whole product's kernel
    and bits; else the one tile ``(0, n)``, also when BLAS is not pinned to
    one thread."""
    least = max(2, GEMM_BLOCK_MACS // hidden_dim**2 + 1)
    return _near_equal(n, least, n)


def head_columns(needed, n_rows: int, n_feat: int, n_species: int) -> np.ndarray | None:
    """Head columns to compute when only ``needed`` are read: those, sorted
    and unique, padded with the lowest unused ids so the head product takes
    the dense product's GEMM kernel, and so its bits. A 1-column product runs
    GEMV and one of M*N*K <= ``SMALL_GEMM_MAX`` the small-matrix kernel, both
    with other rounding. ``None`` (every column) when the count reaches
    ``n_species``, and for fewer than 2 rows: a 1-row product runs GEMV,
    which rounds a column by its place in the column block."""
    if n_rows < 2:
        return None
    cols = np.unique(np.asarray(needed, dtype=np.int64))
    count = max(cols.size, 2, SMALL_GEMM_MAX // (n_rows * n_feat) + 1)
    if count >= n_species:
        return None
    free = np.ones(count, dtype=bool)  # the lowest unused ids lie below count
    free[cols[cols < count]] = False
    pad = np.flatnonzero(free)[: count - cols.size]
    return np.sort(np.concatenate([cols, pad]))


#: Doubles a row tile draws at a time for a dropout mask. Pieces this small
#: (64 KiB) are served from the allocator's free lists; tile-sized draws on
#: the workers left about 1 MiB more resident at the training step's peak.
MASK_PIECE_DRAWS = 8192


def _encode(params: NetParams, x: np.ndarray, dropout_p: float,
            rng: np.random.Generator | None, keep_cache: bool) -> ForwardCache:
    """The location encoder on ``x``, as a cache whose ``features`` are the
    result. The input layer runs as one product, and its ReLU overwrites its
    output in place. Then every residual block runs on one row tile at a time
    (:func:`encoder_tiles`), the tiles spread over the workers, with each
    array's bits those of the whole-array computation. With ``dropout_p > 0``
    each tile draws its rows of every block's mask from a copy of ``rng``
    advanced to them, so the masks are those of drawing one whole mask per
    block, in block order; ``rng`` then moves past all of them. With
    ``keep_cache`` the tiles write the cache's block inputs, ``d`` and ``v``;
    without it, a tile keeps tile-sized temporaries and the features
    overwrite the input layer's output."""
    a = x @ params.w_in + params.b_in
    blocks = params.blocks
    keep = 1.0 - dropout_p
    dtype = a.dtype
    n, width = a.shape
    dropout = dropout_p > 0.0 and bool(blocks)
    if dropout:
        # PCG64's advance(k) skips exactly k doubles, so a tile can reach its rows.
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError("train-mode dropout needs a PCG64 bit generator, "
                            f"got {type(bitgen).__name__}")
        start = bitgen.state
        piece_rows = max(1, MASK_PIECE_DRAWS // width)
    n_cached = len(blocks) if keep_cache else 0
    hs = [a] + [np.empty_like(a) for _ in range(n_cached)]
    ds, vs = ([np.empty_like(a) for _ in range(n_cached)] for _ in range(2))

    def tile(r0: int, r1: int) -> None:
        if dropout:
            draws = copy.deepcopy(rng)
            draws.bit_generator.advance(r0 * width)
        h = np.maximum(a[r0:r1], 0, out=a[r0:r1])
        for i, blk in enumerate(blocks):
            u = np.matmul(h, blk.w1)
            u += blk.b1
            d = np.maximum(u, 0, out=ds[i][r0:r1] if keep_cache else u)
            if dropout:
                for c in range(0, r1 - r0, piece_rows):
                    piece = d[c:c + piece_rows]
                    kept = draws.random(size=piece.shape) < keep
                    piece *= kept.astype(dtype) / dtype.type(keep)
                draws.bit_generator.advance((n - (r1 - r0)) * width)  # to the next block's rows
            v = np.matmul(d, blk.w2, out=vs[i][r0:r1] if keep_cache else None)
            v += blk.b2
            relu_v = np.maximum(v, 0, out=None if keep_cache else v)
            h = np.add(h, relu_v, out=hs[i + 1][r0:r1] if keep_cache else h)

    map_ranges(tile, encoder_tiles(n, width))
    if not dropout:
        return ForwardCache(x, hs, ds, vs, None)
    bitgen.advance(len(blocks) * n * width)
    if start["has_uint32"]:  # advance drops the buffered 32-bit half, which doubles leave
        bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": start["uinteger"]}
    return ForwardCache(x, hs, ds, vs, dtype.type(1) / dtype.type(keep))


def forward(
    params: NetParams,
    cfg: NetConfig,
    x: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
    return_cache: bool = False,
    columns: np.ndarray | None = None,
    read: np.ndarray | None = None,
):
    """Run the network on a batch ``x`` of shape ``(batch, input_dim)``.

    Returns ``(features, y_hat)``, or ``(features, y_hat, cache)`` when
    ``return_cache`` is set; ``y_hat`` has every species, or the head
    ``columns`` given (see :func:`head_columns`). With ``read``, a
    ``(batch, k)`` array of head columns, the head is computed only at those
    entries and ``y_hat`` is ``(batch, k)``: ``y_hat[r, k]`` is row r's
    output for species ``read[r, k]`` (see :func:`_read_head`). In
    ``"train"`` mode with ``dropout_p > 0`` an inverted-dropout mask (kept
    units scaled by ``1/(1-p)``) is drawn from ``rng`` for each residual
    block, one whole mask per block in block order, which needs a PCG64 bit
    generator (else TypeError): the row tiles draw their rows of each mask
    from copies advanced to them. In ``"eval"`` mode dropout is disabled and
    no random numbers are consumed. The residual blocks run in row tiles on
    the workers (see :func:`encoder_tiles`).
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"x must have shape (batch, {cfg.input_dim}), got {x.shape}")
    if read is not None and (np.ndim(read) != 2 or len(read) != len(x)):
        raise ValueError(f"read must have shape ({len(x)}, k), got {np.shape(read)}")
    dtype = params.w_head.dtype
    x = x.astype(dtype, copy=False)
    use_dropout = bool(
        mode == "train" and cfg.dropout_p > 0.0 and not cfg.identity_encoder and params.blocks
    )
    if use_dropout and rng is None:
        raise ValueError("train-mode forward with dropout_p > 0 requires an rng")

    if cfg.identity_encoder:
        cache = ForwardCache(x, [x])
    else:
        cache = _encode(params, x, cfg.dropout_p if use_dropout else 0.0, rng, return_cache)
    h = cache.features
    if read is not None:
        y_hat = _read_head(params, h, cache, np.asarray(read))
    else:
        w_head, b_head = params.w_head, params.b_head
        if columns is not None:
            w_head, b_head = w_head[:, columns], b_head[columns]
        y_hat = np.empty((h.shape[0], w_head.shape[1]), dtype=dtype)
        map_ranges(lambda r0, r1: np.matmul(h[r0:r1], w_head, out=y_hat[r0:r1]),
                   gemm_blocks(len(h), w_head.size))

        def bias_and_sigmoid(r0: int, r1: int) -> None:
            z = y_hat[r0:r1]
            z += b_head
            z[...] = _sigmoid(z)

        map_ranges(bias_and_sigmoid, row_chunks(*y_hat.shape))
    return (h, y_hat, cache) if return_cache else (h, y_hat)


def _read_head(params: NetParams, h: np.ndarray, cache: ForwardCache,
               read: np.ndarray) -> np.ndarray:
    """The head's outputs at the entries ``read`` alone: ``y[r, k] =
    sigmoid(h[r] . w_head[:, read[r, k]] + b_head[read[r, k]])``, row-wise
    dot products that numpy sums over the features in its pairwise order,
    B*H work instead of the GEMM's B*H*S. The rows run in chunks on the
    workers, each entry's bits set by its row alone; the gathered weights
    are cached for :func:`backward`."""
    cache.read, cache.w_read = read, np.empty(read.shape + h.shape[1:], dtype=h.dtype)
    y_hat = np.empty(read.shape, dtype=h.dtype)

    def entries(r0: int, r1: int) -> None:
        w = cache.w_read[r0:r1]
        w[...] = params.w_head.T[read[r0:r1]]
        z = np.multiply(w, h[r0:r1, None, :]).sum(axis=-1)
        y_hat[r0:r1] = _sigmoid(z + params.b_head[read[r0:r1]])

    map_ranges(entries, row_chunks(len(h), cache.w_read[0].size))
    return y_hat


def _beside(*jobs: Callable[[], None]) -> None:
    """Run independent ``jobs`` side by side, one per worker; in order on the
    calling thread when BLAS is not pinned to one thread (its own threads
    then run each product)."""
    if BLAS_PINNED == "1":
        map_ranges(lambda i, _: jobs[i](), [(i, i + 1) for i in range(len(jobs))])
    else:
        for job in jobs:
            job()


def _weight_grads(inp: np.ndarray, d_out: np.ndarray, g_w: np.ndarray, g_b: np.ndarray) -> None:
    """A linear layer's gradients: ``inp.T @ d_out`` into ``g_w`` and the
    column sums of ``d_out`` into ``g_b``."""
    np.matmul(inp.T, d_out, out=g_w)
    np.sum(d_out, axis=0, out=g_b)


def _block_backward(blk: ResidualBlock, cache: ForwardCache, i: int,
                    dh: np.ndarray) -> tuple[ResidualBlock, np.ndarray]:
    """Block ``i``'s parameter gradients and the gradient at its input, from
    ``dh``, the gradient at its output. Two rounds each run a weight gradient
    beside an input gradient (:func:`_beside`): ``w2`` and ``b2`` beside
    ``du``, then ``w1`` and ``b1`` beside the block input's gradient. Every
    product runs whole, so the bits are those of running them in turn; every
    output is allocated here, on the calling thread."""
    h_in, d, scale, dtype = cache.h[i], cache.d[i], cache.dropout_scale, dh.dtype
    dv = dh * (cache.v[i] > 0)
    g_w1, g_w2 = np.empty(blk.w1.shape, dtype), np.empty(blk.w2.shape, dtype)
    g_b1, g_b2 = np.empty(blk.b1.shape, dtype), np.empty(blk.b2.shape, dtype)
    du, dh_in = np.empty_like(dh), np.empty_like(dh)

    def hidden_grads() -> None:  # through the dropout scale and the ReLU and dropout masks
        np.matmul(dv, blk.w2.T, out=du)
        if scale is not None:
            np.multiply(du, scale, out=du)
        np.multiply(du, d > 0, out=du)

    def input_grads() -> None:  # the skip path plus the first layer's path
        np.matmul(du, blk.w1.T, out=dh_in)
        np.add(dh, dh_in, out=dh_in)

    _beside(lambda: _weight_grads(d, dv, g_w2, g_b2), hidden_grads)
    _beside(lambda: _weight_grads(h_in, du, g_w1, g_b1), input_grads)
    return ResidualBlock(g_w1, g_b1, g_w2, g_b2), dh_in


def backward(
    params: NetParams,
    cfg: NetConfig,
    cache: ForwardCache,
    d_z: np.ndarray,
) -> NetParams:
    """Exact reverse-mode gradients for a cached forward pass.

    ``d_z``, the derivative of a scalar objective with respect to the head
    logits (what :func:`sinr.losses.compute_loss` leaves in the predictions),
    seeds the pass; the result is a :class:`NetParams` tree of derivatives
    with respect to every parameter, in the parameters' dtype. After a
    forward with ``read``, ``d_z`` holds the read entries alone, and the
    head's gradients come from them (:func:`_read_head_backward`); otherwise
    the head products run in :func:`gemm_blocks` on the workers. Each
    residual block runs in two rounds of two products side by side
    (:func:`_block_backward`).
    """
    dtype = params.w_head.dtype
    feats = cache.features
    dz = np.asarray(d_z).astype(dtype, copy=False)
    if cache.read is not None:
        g_w_head, g_b_head, dh = _read_head_backward(params, feats, cache, dz)
    else:
        # Each block of the head products writes its slice of one output array.
        w_head = params.w_head
        g_w_head = np.empty(w_head.shape, dtype=dtype)
        g_b_head = np.empty(w_head.shape[1], dtype=dtype)
        map_ranges(lambda c0, c1: _weight_grads(feats, dz[:, c0:c1], g_w_head[:, c0:c1],
                                                g_b_head[c0:c1]),
                   gemm_blocks(w_head.shape[1], feats.size))
        dh = np.empty(feats.shape, dtype=dtype)
        map_ranges(lambda r0, r1: np.matmul(dz[r0:r1], w_head.T, out=dh[r0:r1]),
                   gemm_blocks(len(feats), w_head.size))

    if cfg.identity_encoder:
        return NetParams(None, None, (), g_w_head, g_b_head)

    g_blocks: list[ResidualBlock] = []
    for i in range(len(params.blocks) - 1, -1, -1):
        grads, dh = _block_backward(params.blocks[i], cache, i, dh)
        g_blocks.append(grads)
    da = dh * (cache.h[0] > 0)
    g_w_in = cache.x.T @ da
    g_b_in = da.sum(axis=0)
    return NetParams(g_w_in, g_b_in, tuple(reversed(g_blocks)), g_w_head, g_b_head)


def _read_head_backward(params: NetParams, feats: np.ndarray, cache: ForwardCache,
                        dz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(g_w_head, g_b_head, dh)`` from the derivatives ``dz`` at a read
    forward's entries. Row r's feature gradient, ``sum_k dz[r, k] *
    w_head[:, read[r, k]]``, runs in row chunks on the workers. A read
    column's head gradients sum its entries' ``dz * feats[r]`` and ``dz`` in
    a pairwise tree over them in row order, on the calling thread, so their
    bits depend on those entries alone; columns no row reads get +0."""
    read, w_read = cache.read, cache.w_read
    dh = np.empty(feats.shape, dtype=dz.dtype)
    map_ranges(lambda r0, r1: np.multiply(w_read[r0:r1], dz[r0:r1, :, None]).sum(
        axis=1, out=dh[r0:r1]), row_chunks(len(feats), w_read[0].size))
    order = np.argsort(read.reshape(-1), kind="stable")  # by column, then row
    cols = read.reshape(-1)[order]
    starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
    counts = np.diff(np.r_[starts, len(cols)])
    terms = np.empty((len(cols), feats.shape[1] + 1), dtype=dz.dtype)  # dz * feats[r], dz
    terms[:, -1] = dz.reshape(-1)[order]
    np.multiply(feats[order // read.shape[1]], terms[:, -1:], out=terms[:, :-1])
    at = np.arange(len(cols)) - np.repeat(starts, counts)  # place in its column's run
    left = np.repeat(counts, counts) - at  # entries from there to the run's end
    step = 1
    while step < counts.max():
        pairs = np.flatnonzero((at % (2 * step) == 0) & (left > step))
        terms[pairs] += terms[pairs + step]
        step *= 2
    g_w_head, g_b_head = np.zeros_like(params.w_head), np.zeros_like(params.b_head)
    g_w_head.T[cols[starts]] = terms[starts, :-1]
    g_b_head[cols[starts]] = terms[starts, -1]
    return g_w_head, g_b_head, dh


@dataclass
class AdamState:
    """First/second moment accumulators and the step counter."""

    m: NetParams
    v: NetParams
    t: int = 0


def init_adam(params: NetParams) -> AdamState:
    return AdamState(m=zeros_like_params(params), v=zeros_like_params(params), t=0)


def adam_step(params: NetParams, grads: NetParams, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, written in place into ``params``,
    ``state.m`` and ``state.v``; ``grads`` is only read. Each array is split
    into :func:`row_chunks` of its flattened entries, and the chunks of every
    array run on the workers.

    Each chunk runs the scalar operations of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and ``p = p - lr*(m/bc1)/(sqrt(v/bc2)+eps)``
    in that order, so p, m and v get the bits of those expressions.

    Raises :class:`NonFiniteGradientError` if any gradient entry is NaN or
    infinite; every chunk is checked before any is written, so the inputs
    are left untouched. Also raises it if the update itself overflows (a
    huge learning rate) to a NaN or infinite parameter. Every chunk has then
    been written, but ``state.t`` is unchanged.
    """
    chunks = []  # (array index, p, m, v, g) over each row chunk of each flattened array
    arrays = zip(params.flat(), state.m.flat(), state.v.flat(), grads.flat())
    for k, (p, m, v, g) in enumerate(arrays):
        p, m, v = (a.reshape(-1, copy=False) for a in (p, m, v))
        g = g.reshape(-1)
        chunks += [(k, p[a:b], m[a:b], v[a:b], g[a:b]) for a, b in row_chunks(p.size, 1)]
    jobs = [(i, i + 1) for i in range(len(chunks))]

    def finite_grads(i: int, _) -> bool:
        return bool(np.all(np.isfinite(chunks[i][4])))

    finite = map_ranges(finite_grads, jobs)
    if not all(finite):
        name = grads.names()[chunks[finite.index(False)][0]]
        raise NonFiniteGradientError(
            f"non-finite gradient entries in {name} at step {state.t + 1}"
        )
    t = state.t + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t

    def update(i: int, _) -> None:
        _, p, m, v, g = chunks[i]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if not np.all(np.isfinite(p)):
            raise NonFiniteGradientError(
                f"non-finite parameters after the update at step {t} (lr={lr!r})"
            )

    map_ranges(update, jobs)
    state.t = t


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
_U16 = struct.Struct("<H")
#: Catalog bytes gathered before each write, so a file is never held whole.
CATALOG_PIECE_BYTES = 1 << 16


@dataclass(frozen=True)
class ModelFile:
    """Everything stored in a model file."""

    params: NetParams
    cfg: NetConfig
    input_layout: InputLayout
    species_ids: tuple[str, ...]


def _write_model(fh, params: NetParams, cfg: NetConfig, input_layout: InputLayout,
                 species_ids: tuple[str, ...]) -> None:
    """Write a model file's bytes to the binary stream ``fh``: the header and
    the catalog, in pieces of about :data:`CATALOG_PIECE_BYTES`, then
    :func:`_write_params`."""
    flags = _FLAG_IDENTITY_ENCODER if cfg.identity_encoder else 0
    piece = bytearray(_HEADER.pack(
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
    ))
    piece += struct.pack("<I", len(species_ids))
    for sid in species_ids:
        raw = sid.encode("utf-8")
        if len(raw) > MAX_SPECIES_ID_BYTES:
            raise ValueError(f"species id too long to serialize: {sid[:32]!r}...")
        piece += _U16.pack(len(raw))
        piece += raw
        if len(piece) >= CATALOG_PIECE_BYTES:
            fh.write(piece)
            del piece[:]
    piece += struct.pack("<Q", sum(a.size for a in params.flat()))
    fh.write(piece)
    _write_params(fh, params)


def _write_params(fh, params: NetParams) -> None:
    """One parameter tree as float32, in :meth:`NetParams.flat` order: each
    array's buffer is written as it is, without a copy when it is a C-ordered
    float32 array."""
    for a in params.flat():
        fh.write(np.ascontiguousarray(a, dtype=np.float32))


def model_to_bytes(
    params: NetParams,
    cfg: NetConfig,
    input_layout: InputLayout = InputLayout.COORDS,
    species_ids: tuple[str, ...] = (),
) -> bytes:
    """The bytes of a model file (see :func:`save_model`)."""
    buf = io.BytesIO()
    _write_model(buf, params, cfg, input_layout, species_ids)
    return buf.getvalue()


class _Reader:
    """Reads a file's fields in order from the binary stream ``fh``, checking
    each against the bytes left before reading it; each array is read straight
    into its buffer. A stream that cannot seek, such as a pipe, is read whole
    first."""

    def __init__(self, fh):
        self.fh = fh if fh.seekable() else io.BytesIO(fh.read())
        self.pos = self.fh.tell()
        self.size = self.fh.seek(0, io.SEEK_END)
        self.fh.seek(self.pos)

    def _advance(self, n: int, got: int) -> None:
        """Move past ``n`` bytes of which a read got ``got``. Fewer is truncation: the
        file shrank, or the read was not made (``got`` 0) as ``n`` runs past the end."""
        if got != n:
            raise TruncatedFileError(f"needed {n} bytes at offset {self.pos}, file has {self.size}")
        self.pos += n

    def take(self, n: int) -> bytes:
        data = self.fh.read(n) if n <= self.size - self.pos else b""
        self._advance(n, len(data))
        return data

    def species_ids(self, count: int) -> list[str]:
        """``count`` ids, each a u16 UTF-8 byte length and the bytes."""
        ids = []
        for i in range(count):
            raw = self.take(_U16.unpack(self.take(2))[0])
            try:
                ids.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ModelFormatError(f"species id {i} is not valid UTF-8") from exc
        return ids

    def params(self, cfg: NetConfig) -> NetParams:
        """One float32 parameter tree shaped for ``cfg``, each array filled by one ``readinto``."""
        arrays = []
        for shape in param_shapes(cfg):
            a = np.empty(shape, "<f4")
            self._advance(a.nbytes, self.fh.readinto(a) if a.nbytes <= self.size - self.pos else 0)
            arrays.append(a)
        return NetParams.from_flat(arrays)


def read_model(r: _Reader) -> ModelFile:
    """Parse a model from ``r``, leaving it just past the model's bytes."""
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
    ids = r.species_ids(n_ids)
    if len(set(ids)) != len(ids):
        raise ModelFormatError("species catalog contains duplicate ids")
    if ids and len(ids) != cfg.n_species:
        raise ModelFormatError(f"species catalog has {len(ids)} ids for {cfg.n_species} species")

    (total,) = struct.unpack("<Q", r.take(8))
    # Bound the declared sizes by the bytes present (every residual layer
    # holds more than one float) before expanding them into a shape list.
    n_layers = 0 if cfg.identity_encoder else cfg.n_residual_layers
    if 4 * max(total, n_layers) > r.size - r.pos:
        raise TruncatedFileError(f"declared sizes exceed the {r.size - r.pos} bytes left")
    expected = sum(math.prod(s) for s in param_shapes(cfg))
    if total != expected:
        raise ModelFormatError(
            f"parameter count {total} does not match configuration (expected {expected})"
        )
    params = r.params(cfg)
    if not all(np.isfinite(a).all() for a in params.flat()):
        raise ModelFormatError("model parameters contain NaN or infinite values")
    return ModelFile(params, cfg, _CODE_LAYOUTS[layout_code], tuple(ids))


def model_from_bytes(buf: bytes) -> tuple[ModelFile, int]:
    """Parse a model blob; returns the model and the number of bytes consumed."""
    r = _Reader(io.BytesIO(buf))
    return read_model(r), r.pos


def save_model(
    params: NetParams,
    cfg: NetConfig,
    path,
    *,
    input_layout: InputLayout = InputLayout.COORDS,
    species_ids: tuple[str, ...] = (),
) -> None:
    """Write a model file, array by array; byte-for-byte deterministic for
    equal inputs."""
    with atomic_write(path, "wb") as fh:
        _write_model(fh, params, cfg, input_layout, species_ids)


def read_model_file(path) -> ModelFile:
    """Load a model file including its input layout and species catalog."""
    with errors_named(path), open(path, "rb") as fh:
        r = _Reader(fh)
        model = read_model(r)
        if r.pos != r.size:
            raise ModelFormatError(f"{r.size - r.pos} unexpected trailing bytes after model data")
    return model


def zeros_like_params(params: NetParams) -> NetParams:
    return NetParams.from_flat([np.zeros_like(a) for a in params.flat()])


def params_equal(a: NetParams, b: NetParams) -> bool:
    """True when every corresponding array pair is bit-identical."""
    fa, fb = a.flat(), b.flat()
    return len(fa) == len(fb) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(fa, fb)
    )

