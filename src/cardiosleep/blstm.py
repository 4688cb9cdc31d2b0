"""Bidirectional LSTM sequence labeler, implemented from scratch in numpy.

Two stacked bidirectional layers (hidden size 16 each direction) and a
4-class softmax output layer. All math is double precision so finite
difference gradient checks at 1e-5 are meaningful. Gate order inside the
stacked weight matrices is input, forget, cell, output.

Every pass runs its sequences as one batch: a padded (T, B, ...) array, time
first, then sequence, then features, with T the longest of the B lengths.
Each sequence is padded at its end. The backward direction is the same
forward-in-time recurrence run over each sequence reversed within its own
length, so its padding stays at the end too. Both directions of a layer
share one time loop, stacked on a leading axis, and each step does one
batched product with the recurrent weights of both. Padded epochs have loss
weight 0: padded states never reach a valid step and every gradient at a
padded step is exactly 0, so neither recurrence needs a mask. One sequence
is a batch of one. Work that does not depend on the previous hidden state
(input projection, weight gradients) is done outside the time loop.
Prediction (``forward_batch``) and evaluation (``evaluate_loss``) run
consecutive sequences in batches of at most ``BATCH_STEPS`` padded steps, so
their memory does not grow with the number of nights.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from . import signal_io
from .errors import (EmptyDataset, ManifestMismatch, MissingMember,
                     NonFiniteInput, NonFiniteLoss, ShapeMismatch)
from .types import Hypnogram, four_hypnogram_from_indices

CHECKPOINT_VERSION = 1
# the metadata keys a checkpoint carries besides its version and config;
# those after the first are BlstmParams' dimensions, in its field order
META_KEYS = ("manifest_hash", "input_dim", "hidden", "layers", "classes",
             "bidirectional")

# A prediction pass holds about 1.5 KB of gate and hidden-state arrays per
# padded time step and sequence, so forward_batch and evaluate_loss run
# consecutive sequences in groups whose padded T_max * B stays within this.
BATCH_STEPS = 8192


@dataclass
class BlstmParams:
    input_dim: int
    hidden: int
    layers: int
    classes: int
    bidirectional: bool
    weights: dict

    def copy(self) -> "BlstmParams":
        return BlstmParams(self.input_dim, self.hidden, self.layers,
                           self.classes, self.bidirectional,
                           {k: v.copy() for k, v in self.weights.items()})

    @property
    def directions(self) -> tuple:
        return ("f", "b") if self.bidirectional else ("f",)


CLIP_NORM = 5.0  # global gradient-norm ceiling for each Adam step


def require_int(name: str, value) -> None:
    """Reject a non-integer (bools included) where a count or seed is due."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 200
    batch_size: int = 4
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("max_epochs", "batch_size", "patience", "seed"):
            require_int(name, getattr(self, name))
        for name, low in (("learning_rate", 0), ("max_epochs", 1),
                          ("batch_size", 1), ("patience", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


def weight_shapes(input_dim, hidden, layers, classes, bidirectional) -> dict:
    """The shape of each weight of a model with these dimensions, in the
    order ``init_params`` draws them."""
    if min(input_dim, hidden, layers, classes) <= 0:
        raise ValueError("all dimensions must be positive")
    ndir = 2 if bidirectional else 1
    shapes = {}
    for l in range(layers):
        din = input_dim if l == 0 else hidden * ndir
        for d in ("f", "b")[:ndir]:
            shapes.update({f"l{l}{d}_W": (4 * hidden, din),
                           f"l{l}{d}_U": (4 * hidden, hidden),
                           f"l{l}{d}_b": (4 * hidden,)})
    return {**shapes, "out_W": (classes, hidden * ndir), "out_b": (classes,)}


def init_params(seed: int, input_dim: int = 152, hidden: int = 16,
                layers: int = 2, classes: int = 4,
                bidirectional: bool = True) -> BlstmParams:
    """Glorot-uniform weights, zero biases except forget-gate biases at 1.0;
    a gate's ``hidden`` rows of W or U count as its fan-out."""
    dims = (input_dim, hidden, layers, classes, bidirectional)
    rng = np.random.default_rng(seed)
    weights: dict = {}
    for k, shape in weight_shapes(*dims).items():
        if len(shape) == 1:
            weights[k] = np.zeros(shape)
            if k != "out_b":
                weights[k][hidden:2 * hidden] = 1.0  # forget gate
        else:
            fan_out = classes if k == "out_W" else hidden
            lim = np.sqrt(6.0 / (shape[1] + fan_out))
            weights[k] = rng.uniform(-lim, lim, size=shape)
    return BlstmParams(*dims, weights)


# --- batches --------------------------------------------------------------
# Per-direction arrays are (T, B, K, ...), the K directions on axis 2. The
# time loops step through (K, B, ...) views of them.

def _check(params: BlstmParams, sequences: Sequence[np.ndarray]):
    """The (T_k, input_dim) sequences as float arrays, and their lengths."""
    arrays = []
    for X in sequences:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != params.input_dim:
            raise ShapeMismatch(
                f"expected (T, {params.input_dim}) input, got {X.shape}")
        if X.shape[0] == 0:
            raise ShapeMismatch("empty sequence")
        if not np.all(np.isfinite(X)):
            raise NonFiniteInput("input contains non-finite values")
        arrays.append(X)
    return arrays, np.array([len(X) for X in arrays], dtype=int)


def _pad_labels(data: Sequence[tuple], lengths: np.ndarray,
                class_weights: np.ndarray):
    """Labels (T, B) padded like their sequences, and each epoch's loss
    weight (T, B): its class weight, 0 on padding."""
    Y = np.zeros((int(lengths.max(initial=0)), len(lengths)), dtype=int)
    for k, (_, y) in enumerate(data):
        y = np.asarray(y, dtype=int)
        if len(y) != lengths[k]:
            raise ShapeMismatch("label length differs from sequence length")
        Y[:len(y), k] = y
    valid = np.arange(len(Y))[:, None] < lengths
    return Y, np.where(valid, class_weights[Y], 0.0)


def _flip_backward(A: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Reverse the backward direction (index 1 of axis 2) of A (T, B, K, ...)
    in place, each sequence within its own length: natural time to the
    backward direction's own time, and back. Padding stays at the end."""
    if A.shape[2] == 2:
        for k, L in enumerate(lengths):
            A[:L, k, 1] = A[L - 1::-1, k, 1]
    return A


def _stacked(params: BlstmParams, l: int):
    """Layer l's weights, directions stacked: W (K*4H, din), U (K, 4H, H)
    and b (K*4H,)."""
    w = params.weights
    ds = params.directions
    return (np.concatenate([w[f"l{l}{d}_W"] for d in ds]),
            np.stack([w[f"l{l}{d}_U"] for d in ds]),
            np.concatenate([w[f"l{l}{d}_b"] for d in ds]))


# --- forward --------------------------------------------------------------

def _recurrence(Z: np.ndarray, U: np.ndarray, keep: bool):
    """The LSTM cells of every direction and sequence, one time step per
    iteration. Z (T, B, K, 4H) holds the input projections in each
    direction's own time and is overwritten with the gate activations: tanh
    for the cell gate, sigmoid for the others. Returns the hidden states
    (T+1, B, K, H), row 0 the zero initial state, and with ``keep`` the cell
    states of the same shape (otherwise None)."""
    T, B, K, G = Z.shape
    H = G // 4
    hs = np.zeros((T + 1, B, K, H))
    cs = np.zeros((T + 1, B, K, H)) if keep else None
    c = np.zeros((K, B, H))
    UT = np.ascontiguousarray(U.transpose(0, 2, 1))
    # the loop's (K, B, ...) views
    Z, h = Z.transpose(0, 2, 1, 3), hs.transpose(0, 2, 1, 3)
    cv = cs.transpose(0, 2, 1, 3) if keep else None
    i_f, g, o = Z[..., :2 * H], Z[..., 2 * H:3 * H], Z[..., 3 * H:]
    i, f = Z[..., :H], Z[..., H:2 * H]
    for t in range(T):
        Z[t] += np.matmul(h[t], UT)
        expit(i_f[t], out=i_f[t])
        np.tanh(g[t], out=g[t])
        expit(o[t], out=o[t])
        c = np.add(f[t] * c, i[t] * g[t], out=cv[t + 1] if keep else None)
        np.multiply(o[t], np.tanh(c), out=h[t + 1])
    return hs, cs


def _layer_forward(params: BlstmParams, l: int, inputs: list,
                   lengths: np.ndarray, keep: bool):
    """Layer l over the batch of (T_k, din) sequences ``inputs``: its output
    (T, B, K*H) and, with ``keep``, its (inputs, gates, hidden states, cell
    states) for backprop."""
    T, B = int(lengths.max(initial=0)), len(lengths)
    K, H = len(params.directions), params.hidden
    W, U, b = _stacked(params, l)
    Z = np.zeros((T, B, K * 4 * H))
    for k, x in enumerate(inputs):
        np.matmul(x, W.T, out=Z[:len(x), k])
    Z += b
    Z = _flip_backward(Z.reshape(T, B, K, 4 * H), lengths)
    hs, cs = _recurrence(Z, U, keep)
    out = _flip_backward(hs[1:].copy() if keep else hs[1:], lengths)
    out = out.reshape(T, B, K * H)
    return out, ((inputs, Z, hs, cs) if keep else None)


def _forward_full(params: BlstmParams, inputs: list, lengths: np.ndarray,
                  keep: bool = False):
    """Probabilities (T, B, classes) of the batch of (T_k, input_dim)
    sequences ``inputs``, the top layer's output (T, B, K*H) and each
    layer's ``_layer_forward`` cache."""
    layer_caches = []
    for l in range(params.layers):
        out, cache = _layer_forward(params, l, inputs, lengths, keep)
        layer_caches.append(cache)
        inputs = [out[:L, k] for k, L in enumerate(lengths)]

    logits = out @ params.weights["out_W"].T + params.weights["out_b"]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=-1, keepdims=True)
    return probs, out, layer_caches


def _groups(lengths: np.ndarray):
    """Consecutive index ranges ``[a, b)`` of the sequences whose padded
    size, longest length times count, stays within ``BATCH_STEPS``; a longer
    sequence is a group alone."""
    start = longest = 0
    for k, L in enumerate(lengths.tolist()):
        longest = max(longest, L)
        if k > start and longest * (k + 1 - start) > BATCH_STEPS:
            yield start, k
            start, longest = k, L
    if len(lengths):
        yield start, len(lengths)


def _grouped_forward(params: BlstmParams, sequences: Sequence[np.ndarray]):
    """One forward pass per group of consecutive sequences (see ``BATCH_STEPS``),
    all checked first: yields each group's slice, lengths and probabilities."""
    inputs, lengths = _check(params, sequences)
    for a, b in _groups(lengths):
        probs, _, _ = _forward_full(params, inputs[a:b], lengths[a:b])
        yield slice(a, b), lengths[a:b], probs


def forward_batch(params: BlstmParams, sequences: Sequence[np.ndarray]
                  ) -> list[np.ndarray]:
    """Per-epoch class probabilities of each (T_k, input_dim) sequence, shape
    (T_k, classes), from one pass per group of consecutive sequences."""
    return [probs[:L, k]
            for _, lengths, probs in _grouped_forward(params, sequences)
            for k, L in enumerate(lengths)]


def forward(params: BlstmParams, X: np.ndarray) -> np.ndarray:
    """Per-epoch class probabilities, shape (T, classes); rows sum to 1."""
    return forward_batch(params, [X])[0]


def _stages(probs: np.ndarray) -> Hypnogram:
    return four_hypnogram_from_indices(np.argmax(probs, axis=1))


def predict(params: BlstmParams, X: np.ndarray) -> Hypnogram:
    """Argmax decision per epoch; ties resolve to the lower class index."""
    return _stages(forward(params, X))


def predict_batch(params: BlstmParams, sequences: Sequence[np.ndarray]
                  ) -> list[Hypnogram]:
    """``predict`` of each sequence, from one pass over the whole batch."""
    return [_stages(p) for p in forward_batch(params, sequences)]


# --- backward -------------------------------------------------------------

def _recurrence_backward(dH: np.ndarray, U: np.ndarray, Z: np.ndarray,
                         cs: np.ndarray) -> np.ndarray:
    """dZ (T, B, K, 4H), the loss gradient of the pre-activations of a run of
    ``_recurrence`` that left gates Z and cell states cs, given dH
    (T, B, K, H), that of its hidden states."""
    T, B, K, H = dH.shape
    i, f, g, o = (Z[..., k * H:(k + 1) * H] for k in range(4))
    tc = np.tanh(cs[1:])
    # derivative of each pre-activation with respect to dc (input, forget
    # and cell gates) or dh (output gate)
    dz_dc = np.stack([g * i * (1 - i), cs[:-1] * f * (1 - f),
                      i * (1 - g * g)], axis=3)
    dz_dh = tc * o * (1 - o)
    dc_dh = o * (1 - tc * tc)
    dZ = np.empty((T, B, K, 4 * H))
    # the loop's (K, B, ...) views
    dH, dc_dh, f = (a.transpose(0, 2, 1, 3) for a in (dH, dc_dh, f))
    dz_dc, dz_dh = dz_dc.transpose(0, 2, 1, 3, 4), dz_dh.transpose(0, 2, 1, 3)
    dZ_kb = dZ.transpose(0, 2, 1, 3)
    dZ_gates = dZ.reshape(T, B, K, 4, H).transpose(0, 2, 1, 3, 4)
    dZ_c, dZ_h = dZ_gates[:, :, :, :3], dZ_gates[:, :, :, 3]
    dh = np.zeros((K, B, H))
    dc = np.zeros((K, B, H))
    for t in range(T - 1, -1, -1):
        dh += dH[t]
        dc += dh * dc_dh[t]
        np.multiply(dc[:, :, None], dz_dc[t], out=dZ_c[t])
        np.multiply(dh, dz_dh[t], out=dZ_h[t])
        dc *= f[t]
        dh = np.matmul(dZ_kb[t], U)
    return dZ


def _weighted_nll(probs: np.ndarray, Y: np.ndarray,
                  w: np.ndarray) -> tuple[float, float]:
    """(weighted negative log-likelihood of labels Y (T, B) under probs
    (T, B, classes) with epoch weights w (T, B), sum of the weights)."""
    p = np.maximum(np.take_along_axis(probs, Y[..., None], axis=2)[..., 0],
                   1e-300)
    return float(np.sum(-w * np.log(p))), float(np.sum(w))


def loss_and_gradients(params: BlstmParams, batch: Sequence[tuple],
                       class_weights: np.ndarray) -> tuple[float, dict]:
    """Class-weighted mean cross-entropy over all epochs of the batch, with
    gradients from full backpropagation through time.

    ``batch`` is a sequence of (features (T x input_dim), labels (T,)) pairs,
    run as one padded batch.
    """
    if not batch:
        raise EmptyDataset("empty batch")
    class_weights = np.asarray(class_weights, dtype=float)
    # allocated before the batch's caches and temporaries, so that the
    # gradients, which outlive this call, do not split the heap space those
    # leave free; over many minibatches that would raise the process's peak
    # RSS by several MB
    grads = {k: np.empty_like(v) for k, v in params.weights.items()}
    inputs, lengths = _check(params, [X for X, _ in batch])
    Y, w = _pad_labels(batch, lengths, class_weights)
    probs, hcat, layer_caches = _forward_full(params, inputs, lengths,
                                              keep=True)
    total_loss, total_weight = _weighted_nll(probs, Y, w)
    if not np.isfinite(total_loss) or total_weight <= 0:
        raise NonFiniteLoss(f"loss={total_loss}, weight={total_weight}")

    # padding has weight 0, so its dlogits, and every gradient flowing back
    # from it, are exactly 0
    T, B, C = probs.shape
    H = params.hidden
    K = len(params.directions)
    dlogits = probs - np.eye(C)[Y]
    dlogits *= (w / total_weight)[..., None]
    grads["out_W"][...] = (dlogits.reshape(T * B, C).T
                           @ hcat.reshape(T * B, K * H))
    grads["out_b"][...] = dlogits.sum(axis=(0, 1))
    dlayer = dlogits @ params.weights["out_W"]
    for l in range(params.layers - 1, -1, -1):
        inputs, Z, hs, cs = layer_caches.pop()
        W, U, _ = _stacked(params, l)
        dH = _flip_backward(dlayer.reshape(T, B, K, H), lengths)
        dZ = _recurrence_backward(dH, U, Z, cs)
        h_prev = hs[:-1].reshape(T * B, K, H)
        dU = [dZ[:, :, k].reshape(T * B, 4 * H).T @ h_prev[:, k]
              for k in range(K)]
        dZ = _flip_backward(dZ, lengths).reshape(T, B, K * 4 * H)
        dW = sum(dZ[:len(x), k].T @ x for k, x in enumerate(inputs))
        db = dZ.sum(axis=(0, 1))
        for k, d in enumerate(params.directions):
            rows = slice(4 * H * k, 4 * H * (k + 1))
            grads[f"l{l}{d}_W"][...] = dW[rows]
            grads[f"l{l}{d}_U"][...] = dU[k]
            grads[f"l{l}{d}_b"][...] = db[rows]
        if l:
            dlayer = dZ @ W
    return total_loss / total_weight, grads


# --- training -------------------------------------------------------------

def _clip(grads: dict) -> None:
    norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    if norm > CLIP_NORM:
        scale = CLIP_NORM / norm
        for g in grads.values():
            g *= scale


def default_class_weights(labels: Sequence[np.ndarray], classes: int = 4) -> np.ndarray:
    """Inverse-frequency weights, mean-normalized, floored at 0.25. With k
    classes present each weight is at most k, an absent class's at most 1."""
    counts = np.zeros(classes)
    for y in labels:
        counts += np.bincount(np.asarray(y, dtype=int), minlength=classes)
    freq = counts / max(1.0, counts.sum())
    inv = np.where(freq > 0, 1.0 / np.maximum(freq, 1e-12), 1.0)
    inv = inv / np.mean(inv[freq > 0]) if np.any(freq > 0) else inv
    return np.maximum(inv, 0.25)


def evaluate_loss(params: BlstmParams, data: Sequence[tuple],
                  class_weights: np.ndarray) -> tuple[float, float]:
    """(weighted mean loss, plain accuracy) over a dataset, from one forward
    pass per group of consecutive sequences."""
    class_weights = np.asarray(class_weights, dtype=float)
    total_loss = total_weight = 0.0
    correct = 0
    for group, lengths, probs in _grouped_forward(params, [X for X, _ in data]):
        Y, w = _pad_labels(data[group], lengths, class_weights)
        loss, weight = _weighted_nll(probs, Y, w)
        total_loss += loss
        total_weight += weight
        valid = np.arange(len(Y))[:, None] < lengths
        correct += int(np.sum((np.argmax(probs, axis=2) == Y) & valid))
    return (total_loss / max(total_weight, 1e-300),
            correct / max(sum(len(X) for X, _ in data), 1))


def train(config: TrainConfig, train_data: Sequence[tuple],
          val_data: Optional[Sequence[tuple]] = None
          ) -> tuple[BlstmParams, dict]:
    """Adam over whole-night sequences with gradient clipping and early
    stopping on the validation loss, or without ``val_data`` on the training
    loss. Deterministic for a fixed config. Returns the best parameters and
    the per-epoch history, whose ``val_*`` lists exist only with ``val_data``."""
    if not train_data:
        raise EmptyDataset("no training sequences")
    input_dim = np.asarray(train_data[0][0]).shape[1]
    params = init_params(config.seed, input_dim=input_dim)

    cw = default_class_weights([y for _, y in train_data], params.classes)

    rng = np.random.default_rng(config.seed)
    m = {k: np.zeros_like(v) for k, v in params.weights.items()}
    v = {k: np.zeros_like(w) for k, w in params.weights.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    history = {k: [] for k in ("train_loss", "val_loss", "train_acc", "val_acc")
               if val_data or k.startswith("train_")}
    best_loss = np.inf
    best_params = params.copy()
    bad_epochs = 0

    for _epoch in range(config.max_epochs):
        order = rng.permutation(len(train_data))
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = [train_data[i] for i in idx]
            _, grads = loss_and_gradients(params, batch, cw)
            _clip(grads)
            step += 1
            lr_t = config.learning_rate * (np.sqrt(1 - beta2 ** step)
                                           / (1 - beta1 ** step))
            for k in params.weights:
                # in place: moments reallocated every step fragment the heap
                # as the gradients would (see ``loss_and_gradients``)
                m[k] *= beta1
                m[k] += (1 - beta1) * grads[k]
                v[k] *= beta2
                v[k] += (1 - beta2) * grads[k] ** 2
                params.weights[k] -= lr_t * m[k] / (np.sqrt(v[k]) + eps)

        tr_loss, tr_acc = evaluate_loss(params, train_data, cw)
        mon_loss, mon_acc = (evaluate_loss(params, val_data, cw) if val_data
                             else (tr_loss, tr_acc))
        epoch = {"train_loss": tr_loss, "val_loss": mon_loss,
                 "train_acc": tr_acc, "val_acc": mon_acc}
        for k, values in history.items():
            values.append(epoch[k])
        if not np.isfinite(mon_loss):
            raise NonFiniteLoss(f"monitored loss became {mon_loss}")

        if mon_loss < best_loss - 1e-12:
            best_loss = mon_loss
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break
    return best_params, history


# --- checkpointing --------------------------------------------------------

def save_checkpoint(params: BlstmParams, path, manifest_hash: str, config: dict) -> None:
    meta = {k: getattr(params, k) for k in META_KEYS[1:]}
    meta.update(version=CHECKPOINT_VERSION, manifest_hash=manifest_hash,
                config=config)
    np.savez(Path(path), __meta=json.dumps(meta, sort_keys=True),
             **params.weights)


def load_checkpoint(path, expected_manifest_hash: str) -> tuple[BlstmParams, dict]:
    with signal_io.open_npz(path) as data:
        meta = json.loads(str(data["__meta"]))
        if not isinstance(meta, dict):
            raise ManifestMismatch("__meta is not a JSON object")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ManifestMismatch(
                f"unsupported checkpoint version {meta.get('version')}")
        missing = [k for k in META_KEYS if k not in meta]
        if missing:
            raise MissingMember(f"__meta has no {missing[0]!r}")
        if meta["manifest_hash"] != expected_manifest_hash:
            raise ManifestMismatch("trained against a different manifest")
        weights = {k: data[k] for k in data.files if k != "__meta"}
        dims = tuple(meta[k] for k in META_KEYS[1:])
        try:  # the key count bounds the layers before any shape is formed
            fits = (len(weights) == 3 * (1 + bool(dims[4])) * dims[2] + 2
                    and {k: v.shape for k, v in weights.items()} == weight_shapes(*dims))
        except (TypeError, ValueError):
            fits = False
        if not fits:
            raise ManifestMismatch(f"weights do not fit the model dimensions {dims}")
    return BlstmParams(*dims, weights), meta
