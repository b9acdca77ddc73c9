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
from dataclasses import dataclass, field, replace
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
    for the identity encoder. A gradient tree may hold the head's columns of
    ``head_species`` alone, ascending: ``w_head`` is then ``(H, k)``, column
    i the gradient of ``w_head[:, head_species[i]]``, and ``b_head`` ``(k,)``;
    every other head entry's gradient is +0."""

    w_in: np.ndarray | None
    b_in: np.ndarray | None
    blocks: tuple[ResidualBlock, ...]
    w_head: np.ndarray
    b_head: np.ndarray
    head_species: np.ndarray | None = None

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
    dropped-out hidden units ``d`` and the mask ``v_pos`` of its second
    pre-activations ``v > 0``, a bool array (one byte an entry);
    ``dropout_scale``, the ``1/(1-p)`` of a kept unit when masks were drawn,
    else None; and after a forward with a 2-D ``read``, those head columns
    and their weights, ``w_read[r, k] = w_head[:, read[r, k]]``, else None. The
    other ReLU and dropout masks are read back from ``d`` and ``h[0]``: ``d > 0``
    exactly where the unit was kept and its pre-activation was positive."""

    x: np.ndarray
    h: list[np.ndarray]
    d: list[np.ndarray] = field(default_factory=list)
    v_pos: list[np.ndarray] = field(default_factory=list)
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


#: Species a block of the dense head takes, and the most groups of blocks.
HEAD_BLOCK, HEAD_GROUPS = 512, 2


def head_plan(n_species: int) -> list[list[tuple[int, int]]]:
    """The dense head's ``(start, stop)`` blocks of ``HEAD_BLOCK`` species in
    order, dealt into at most ``HEAD_GROUPS`` near-equal groups: a function
    of S alone, so neither the workers nor the BLAS threads move a bit."""
    blocks = [(c, min(c + HEAD_BLOCK, n_species)) for c in range(0, n_species, HEAD_BLOCK)]
    count = min(HEAD_GROUPS, len(blocks))
    return [blocks[g * len(blocks) // count:(g + 1) * len(blocks) // count] for g in range(count)]


def _head_columns(needed, n_rows: int, n_feat: int, n_species: int) -> np.ndarray | None:
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
    array's bits those of the whole-array computation. Given ``rng``, with
    ``dropout_p > 0`` and residual blocks, each tile draws its rows of every
    block's mask from a copy of ``rng`` advanced to them, so the masks are
    those of drawing one whole mask per block, in block order; ``rng`` then
    moves past all of them. With ``keep_cache`` the tiles write the cache's
    block inputs, ``d`` and ``v_pos``; without it, a tile keeps tile-sized
    temporaries and the features overwrite the input layer's output."""
    a = x @ params.w_in + params.b_in
    blocks = params.blocks
    keep = 1.0 - dropout_p
    dtype = a.dtype
    n, width = a.shape
    dropout = rng is not None and dropout_p > 0.0 and bool(blocks)
    if dropout:
        # PCG64's advance(k) skips exactly k doubles, so a tile can reach its rows.
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError("dropout needs a PCG64 bit generator, "
                            f"got {type(bitgen).__name__}")
        start = bitgen.state
        piece_rows = max(1, MASK_PIECE_DRAWS // width)
    n_cached = len(blocks) if keep_cache else 0
    hs = [a] + [np.empty_like(a) for _ in range(n_cached)]
    ds = [np.empty_like(a) for _ in range(n_cached)]
    v_pos = [np.empty(a.shape, dtype=bool) for _ in range(n_cached)]

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
            v = np.matmul(d, blk.w2)
            v += blk.b2
            if keep_cache:
                np.greater(v, 0, out=v_pos[i][r0:r1])
            h = np.add(h, np.maximum(v, 0, out=v), out=hs[i + 1][r0:r1] if keep_cache else h)

    map_ranges(tile, encoder_tiles(n, width))
    if not dropout:
        return ForwardCache(x, hs, ds, v_pos, None)
    bitgen.advance(len(blocks) * n * width)
    if start["has_uint32"]:  # advance drops the buffered 32-bit half, which doubles leave
        bitgen.state = {**bitgen.state, "has_uint32": 1, "uinteger": start["uinteger"]}
    return ForwardCache(x, hs, ds, v_pos, dtype.type(1) / dtype.type(keep))


def forward(
    params: NetParams,
    cfg: NetConfig,
    x: np.ndarray,
    rng: np.random.Generator | None = None,
    return_cache: bool = False,
    read: np.ndarray | None = None,
):
    """Run the network on a batch ``x`` of shape ``(batch, input_dim)``.

    Returns ``(features, y_hat)``, or ``(features, y_hat, cache)`` when
    ``return_cache`` is set. Without ``read`` ``y_hat`` has every species.
    A 1-D ``read`` of k species gives ``(batch, k)`` in that order with the
    dense head's bytes, from a product over the columns :func:`_head_columns`
    plans (whose cache :func:`backward` cannot use), gathered unless the
    plan is ``read`` itself. A ``(batch, k)`` ``read``
    gives ``y_hat[r, k]``, row r's output for species ``read[r, k]``,
    computed at those entries alone (see :func:`_read_head`), and a
    ``(batch, 0)`` one runs the encoder alone. Given ``rng``,
    with ``dropout_p > 0`` and residual blocks, an inverted-dropout mask
    (kept units scaled by ``1/(1-p)``) is drawn from it for each block, one
    whole mask per block in block order, which needs a PCG64 bit generator
    (else TypeError): the row tiles (:func:`encoder_tiles`) draw their rows
    of each mask from copies advanced to them. Otherwise nothing is drawn.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise ValueError(f"x must have shape (batch, {cfg.input_dim}), got {x.shape}")
    if read is not None:
        read = np.asarray(read)
        if read.ndim not in (1, 2) or (read.ndim == 2 and len(read) != len(x)):
            raise ValueError(f"read must have shape (k,) or ({len(x)}, k), got {read.shape}")
    x = x.astype(params.w_head.dtype, copy=False)
    if cfg.identity_encoder:
        cache = ForwardCache(x, [x])
    else:
        cache = _encode(params, x, cfg.dropout_p, rng, return_cache)
    h = cache.features
    if read is not None and read.ndim == 2:
        y_hat = _read_head(params, h, cache, read) if read.shape[1] else h[:, :0]
    else:
        cols = None if read is None else _head_columns(read, len(h), h.shape[1], cfg.n_species)
        w_head, b_head = ((params.w_head, params.b_head) if cols is None
                          else (params.w_head[:, cols], params.b_head[cols]))
        y_hat = np.empty((h.shape[0], w_head.shape[1]), dtype=h.dtype)
        map_ranges(lambda r0, r1: np.matmul(h[r0:r1], w_head, out=y_hat[r0:r1]),
                   gemm_blocks(len(h), w_head.size))

        def bias_and_sigmoid(r0: int, r1: int) -> None:
            z = y_hat[r0:r1]
            z += b_head
            z[...] = _sigmoid(z)

        map_ranges(bias_and_sigmoid, row_chunks(*y_hat.shape))
        if read is not None and not np.array_equal(
                read, np.arange(cfg.n_species) if cols is None else cols):
            y_hat = y_hat[:, read if cols is None else np.searchsorted(cols, read)]
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


def _block_backward(blk: ResidualBlock, cache: ForwardCache, i: int, dh: np.ndarray,
                    out: ResidualBlock, scratch: tuple[np.ndarray, np.ndarray]) -> None:
    """Block ``i``'s parameter gradients, written into ``out``, and the
    gradient at its input, which overwrites ``dh``, the gradient at its
    output. Two rounds each run a weight gradient beside an input gradient
    (:func:`_beside`): ``w2`` and ``b2`` beside ``du``, then ``w1`` and ``b1``
    beside the block input's gradient. Every product runs whole, so the bits
    are those of running them in turn. ``scratch``, two arrays of ``dh``'s
    shape, holds ``dv`` (then the first layer's input gradient) and ``du``."""
    h_in, d, scale = cache.h[i], cache.d[i], cache.dropout_scale
    dv, du = scratch
    np.multiply(dh, cache.v_pos[i], out=dv)

    def hidden_grads() -> None:  # through the dropout scale and the ReLU and dropout masks
        np.matmul(dv, blk.w2.T, out=du)
        if scale is not None:
            np.multiply(du, scale, out=du)
        np.multiply(du, d > 0, out=du)

    def input_grads() -> None:  # the skip path plus the first layer's path, in dv's buffer
        np.matmul(du, blk.w1.T, out=dv)
        np.add(dh, dv, out=dh)

    _beside(lambda: _weight_grads(d, dv, out.w2, out.b2), hidden_grads)
    _beside(lambda: _weight_grads(h_in, du, out.w1, out.b1), input_grads)


def backward(
    params: NetParams,
    cfg: NetConfig,
    cache: ForwardCache,
    d_z: np.ndarray | Callable[[np.ndarray, int], None],
    out: NetParams | None = None,
) -> NetParams:
    """Exact reverse-mode gradients for a cached forward pass.

    ``d_z``, the derivative of a scalar objective with respect to the head
    logits (what :func:`sinr.losses.compute_loss` leaves in the predictions),
    seeds the pass. Every derivative with respect to a parameter is written
    into ``out``, a :class:`NetParams` tree of the parameters' shapes in their
    dtype, which is returned; without ``out`` a new tree is allocated, so a
    training run can hand one tree back every step. After a forward with a
    2-D ``read``, ``d_z`` holds the read entries alone, and the head's
    gradients come from them (:func:`_read_head_backward`): the result is
    ``out`` with the read columns as its head (:class:`NetParams`), and no
    ``(H, S)`` array is written or allocated. Otherwise ``d_z`` is a function
    ``d_z(z, c0)`` that overwrites ``z = features @ w_head[:, c0:c0 + k]``
    with dL/dz there (``losses.FullLoss``), and the head runs block by block
    (:func:`_dense_head_backward`). Each residual block runs in two rounds of
    two products side by side (:func:`_block_backward`), in two scratch
    arrays shared by the blocks.
    """
    dtype = params.w_head.dtype
    if out is None:
        arrays = params.flat()
        if cache.read is not None:  # the head comes as rows
            arrays = arrays[:-2] + [np.empty((0, 0)), np.empty(0)]
        out = NetParams.from_flat([np.empty(a.shape, dtype) for a in arrays])
    feats = cache.features
    if cache.read is not None:
        dz = np.asarray(d_z).astype(dtype, copy=False)
        dh, species, g_w, g_b = _read_head_backward(feats, cache, dz)
        out = replace(out, w_head=g_w.T, b_head=g_b, head_species=species)
    else:
        dh = _dense_head_backward(params, feats, d_z, out, not cfg.identity_encoder)

    if cfg.identity_encoder:
        return out
    scratch = (np.empty_like(dh), np.empty_like(dh))
    for i in range(len(params.blocks) - 1, -1, -1):
        _block_backward(params.blocks[i], cache, i, dh, out.blocks[i], scratch)
    _weight_grads(cache.x, np.multiply(dh, cache.h[0] > 0, out=dh), out.w_in, out.b_in)
    return out


def _dense_head_backward(params: NetParams, feats: np.ndarray, d_z: Callable, out: NetParams,
                         need_dh: bool) -> np.ndarray | None:
    """``dh`` (None unless ``need_dh``) over :func:`head_plan`'s blocks, with
    their head gradients written into ``out``. Each group runs its blocks in
    turn in one block buffer, where ``d_z`` writes dL/dz, and adds each
    ``dz @ w_head[:, blk].T`` into its ``dh`` partial; the groups run side by
    side when BLAS is pinned, and their partials are added in group order."""
    w_head, groups = params.w_head, head_plan(params.w_head.shape[1])
    # Allocated on this thread: each group's block buffer, dh partial and dh term.
    width = min(HEAD_BLOCK, w_head.shape[1])
    bufs = [(np.empty((len(feats), width), feats.dtype), np.zeros_like(feats), np.empty_like(feats))
            for _ in groups]

    def group(g: int) -> None:
        buf, dh, term = bufs[g]
        for c0, c1 in groups[g]:
            dz = np.matmul(feats, w_head[:, c0:c1], out=buf[:, :c1 - c0])
            d_z(dz, c0)
            _weight_grads(feats, dz, out.w_head[:, c0:c1], out.b_head[c0:c1])
            if need_dh:
                dh += np.matmul(dz, w_head[:, c0:c1].T, out=term)

    map_ranges(lambda g0, g1: [group(g) for g in range(g0, g1)],
               [(g, g + 1) for g in range(len(groups))] if BLAS_PINNED == "1"
               else [(0, len(groups))])
    dh = bufs[0][1]
    for _, part, _ in bufs[1:]:
        dh += part
    return dh if need_dh else None


def _read_head_backward(feats: np.ndarray, cache: ForwardCache, dz: np.ndarray):
    """``(dh, species, g_w, g_b)`` from the derivatives ``dz`` at a read
    forward's entries: the read species ascending and their head gradients
    as rows, ``(k, H)`` and ``(k,)``. Row r's feature gradient, ``sum_k dz[r,
    k] * w_head[:, read[r, k]]``, runs in row chunks on the workers. A read
    column's head gradients sum its entries' ``dz * feats[r]`` and ``dz`` in
    a pairwise tree over them in row order, on the calling thread, so their
    bits depend on those entries alone."""
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
    return dh, cols[starts], terms[starts, :-1], terms[starts, -1]


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
    ``state.m`` and ``state.v``; ``grads`` is only read. Each encoder array is
    split into :func:`row_chunks` of its flattened entries, and the head
    arrays into chunks of whole rows of their ``(H, S)`` shape (``b_head`` one
    row); the chunks of every array run on the workers. A head gradient of
    read columns (``grads.head_species``) is written into a zeroed
    chunk-sized buffer for each chunk, so each unread entry gets the g = 0
    update of a dense zero-filled gradient.

    Each chunk runs the scalar operations of ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g*g`` and ``p = p - lr*(m/bc1)/(sqrt(v/bc2)+eps)``
    in that order, so p, m and v get the bits of those expressions.

    Raises :class:`NonFiniteGradientError` if any gradient entry is NaN or
    infinite, naming the first such array; every entry is checked before any
    chunk is written, so the inputs are left untouched. Also raises it if the
    update itself overflows (a huge learning rate) to a NaN or infinite
    parameter. Every chunk has then been written, but ``state.t`` is
    unchanged.
    """
    checks = [(k, g[a:b]) for k, g in enumerate(g.ravel("K") for g in grads.flat())
              for a, b in row_chunks(g.size, 1)]
    finite = map_ranges(lambda i, _: bool(np.all(np.isfinite(checks[i][1]))),
                        [(i, i + 1) for i in range(len(checks))])
    if not all(finite):
        name = grads.names()[checks[finite.index(False)][0]]
        raise NonFiniteGradientError(
            f"non-finite gradient entries in {name} at step {state.t + 1}"
        )
    t = state.t + 1
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    species, n_encoder = grads.head_species, len(grads.flat()) - 2
    chunks = []  # (p, m, v, g) over row chunks of each array, shaped (rows, width)
    arrays = zip(params.flat(), state.m.flat(), state.v.flat(), grads.flat())
    for k, (p, m, v, g) in enumerate(arrays):
        width = p.shape[-1] if k >= n_encoder else 1
        p, m, v = (a.reshape(-1, width, copy=False) for a in (p, m, v))
        g = g.reshape(len(p), -1)  # (rows, k) for a head of read columns
        chunks += [(p[a:b], m[a:b], v[a:b], g[a:b]) for a, b in row_chunks(len(p), width)]

    def update(i: int, _) -> None:
        p, m, v, g = chunks[i]
        if g.shape != p.shape:  # a head of read columns
            g, cols = np.zeros(p.shape, g.dtype), g
            g[:, species] = cols
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        if not np.all(np.isfinite(p)):
            raise NonFiniteGradientError(
                f"non-finite parameters after the update at step {t} (lr={lr!r})"
            )

    map_ranges(update, [(i, i + 1) for i in range(len(chunks))])
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


def _check_catalog(ids, n_species: int, error: type[ValueError]) -> None:
    """Raise ``error`` unless the catalog ``ids`` is empty or one unique id per
    species. Repeats are sought among the sorted hashes first, 8 bytes an id
    where a set of the ids takes about 40, and as fast."""
    hashes = np.fromiter(map(hash, ids), np.int64, len(ids))
    hashes.sort()
    if (hashes[1:] == hashes[:-1]).any() and len(set(ids)) != len(ids):
        raise error("species catalog contains duplicate ids")
    if ids and len(ids) != n_species:
        raise error(f"species catalog has {len(ids)} ids for {n_species} species")


def _write_model(fh, params: NetParams, cfg: NetConfig, input_layout: InputLayout,
                 species_ids: tuple[str, ...]) -> None:
    """Write a model file's bytes to the binary stream ``fh``: the header and
    the catalog, in pieces of about :data:`CATALOG_PIECE_BYTES`, then
    :func:`_write_params`; a catalog :func:`read_model` rejects raises first."""
    _check_catalog(species_ids, cfg.n_species, ValueError)
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

    def _ahead(self, buf: bytes, at: int, n: int) -> bytes:
        """Move past ``buf[:at]`` and read the next piece after ``buf[at:]``,
        raising truncation unless the two hold the ``n`` bytes wanted."""
        self.pos += at
        unread = self.size - self.pos - (len(buf) - at)
        buf = buf[at:] + self.fh.read(min(max(n, CATALOG_PIECE_BYTES), unread))
        if len(buf) < n:
            self._advance(n, len(buf))
        return buf

    def species_ids(self, count: int) -> list[str]:
        """``count`` ids, each a u16 UTF-8 byte length and the bytes, split out
        of pieces of about :data:`CATALOG_PIECE_BYTES` read at once."""
        ids, buf, at = [], b"", 0  # buf[0] is the byte at offset self.pos
        for i in range(count):
            if len(buf) - at < 2:
                buf, at = self._ahead(buf, at, 2), 0
            (n,) = _U16.unpack_from(buf, at)
            at += 2
            if len(buf) - at < n:
                buf, at = self._ahead(buf, at, n), 0
            try:
                ids.append(buf[at:at + n].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ModelFormatError(f"species id {i} is not valid UTF-8") from exc
            at += n
        self.pos += at
        self.fh.seek(self.pos)
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
    _check_catalog(ids, cfg.n_species, ModelFormatError)

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

