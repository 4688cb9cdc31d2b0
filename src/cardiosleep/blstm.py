"""Bidirectional LSTM sequence labeler, implemented from scratch in numpy.

Two stacked bidirectional layers (hidden size 16 each direction) and a
4-class softmax output layer. All math is double precision so finite
difference gradient checks at 1e-5 are meaningful. Gate order inside the
stacked weight matrices is input, forget, cell, output.
The backward direction is the same forward-in-time recurrence run over the
reversed sequence. Work that does not depend on the previous hidden state
(input projection, weight gradients) is done outside the time loop.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.special import expit

from .errors import (EmptyDataset, ManifestMismatch, NonFiniteInput,
                     NonFiniteLoss, ShapeMismatch)
from .types import Hypnogram, four_hypnogram_from_indices

CHECKPOINT_VERSION = 1


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

    def n_parameters(self) -> int:
        return sum(v.size for v in self.weights.values())


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 200
    batch_size: int = 4
    clip_norm: float = 5.0
    patience: int = 10
    seed: int = 0
    class_weights: Optional[Sequence[float]] = None

    def __post_init__(self):
        for name, low in (("learning_rate", 0), ("max_epochs", 1),
                          ("batch_size", 1), ("clip_norm", 0), ("patience", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


def init_params(seed: int, input_dim: int = 152, hidden: int = 16,
                layers: int = 2, classes: int = 4,
                bidirectional: bool = True) -> BlstmParams:
    """Glorot-uniform weights, zero biases except forget-gate biases at 1.0."""
    if min(input_dim, hidden, layers, classes) <= 0:
        raise ValueError("all dimensions must be positive")
    rng = np.random.default_rng(seed)
    ndir = 2 if bidirectional else 1
    weights: dict = {}

    def glorot(rows, cols, fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(rows, cols))

    for l in range(layers):
        din = input_dim if l == 0 else hidden * ndir
        for d in ("f", "b")[:ndir]:
            W = np.vstack([glorot(hidden, din, din, hidden) for _ in range(4)])
            U = np.vstack([glorot(hidden, hidden, hidden, hidden) for _ in range(4)])
            b = np.zeros(4 * hidden)
            b[hidden:2 * hidden] = 1.0  # forget gate
            weights[f"l{l}{d}_W"] = W
            weights[f"l{l}{d}_U"] = U
            weights[f"l{l}{d}_b"] = b
    dlast = hidden * ndir
    weights["out_W"] = glorot(classes, dlast, dlast, classes)
    weights["out_b"] = np.zeros(classes)
    return BlstmParams(input_dim, hidden, layers, classes, bidirectional, weights)


# --- forward --------------------------------------------------------------

def _run_direction(W, U, b, X):
    """One LSTM direction over X (T, din), forward in time. Returns hidden and
    cell states (T+1, H), row 0 the zero initial state, and the gate
    activations (T, 4H): tanh for the cell gate, sigmoid for the others."""
    T = X.shape[0]
    H = U.shape[1]
    Z = X @ W.T + b
    gates = np.empty((T, 4 * H))
    hs = np.zeros((T + 1, H))
    cs = np.zeros((T + 1, H))
    for t in range(T):
        z = Z[t] + U @ hs[t]
        a = expit(z, out=gates[t])
        a[2 * H:3 * H] = np.tanh(z[2 * H:3 * H])
        i, f, g, o = a.reshape(4, H)
        cs[t + 1] = f * cs[t] + i * g
        hs[t + 1] = o * np.tanh(cs[t + 1])
    return hs, cs, gates


def _forward_full(params: BlstmParams, X: np.ndarray):
    """Probabilities plus the caches needed for backprop."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != params.input_dim:
        raise ShapeMismatch(
            f"expected (T, {params.input_dim}) input, got {X.shape}")
    if X.shape[0] == 0:
        raise ShapeMismatch("empty sequence")
    if not np.all(np.isfinite(X)):
        raise NonFiniteInput("input contains non-finite values")

    layer_in = X
    layer_caches = []
    for l in range(params.layers):
        outs = []
        caches = {}
        for d in params.directions:
            step = -1 if d == "b" else 1  # "b" runs over reversed time
            hs, cs, gates = _run_direction(
                params.weights[f"l{l}{d}_W"], params.weights[f"l{l}{d}_U"],
                params.weights[f"l{l}{d}_b"], layer_in[::step])
            caches[d] = (hs, cs, gates)
            outs.append(hs[1:][::step])
        layer_caches.append((layer_in, caches))
        layer_in = np.concatenate(outs, axis=1)

    logits = layer_in @ params.weights["out_W"].T + params.weights["out_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=1, keepdims=True)
    return probs, layer_in, layer_caches


def forward(params: BlstmParams, X: np.ndarray) -> np.ndarray:
    """Per-epoch class probabilities, shape (T, classes); rows sum to 1."""
    probs, _, _ = _forward_full(params, X)
    return probs


def predict(params: BlstmParams, X: np.ndarray) -> Hypnogram:
    """Argmax decision per epoch; ties resolve to the lower class index."""
    probs = forward(params, X)
    return four_hypnogram_from_indices(np.argmax(probs, axis=1))


# --- backward -------------------------------------------------------------

def _backward_direction(W, U, X, dH, cache):
    """dW, dU, db, dX of one direction that ``_run_direction`` ran over X,
    given dH (T, H), the loss gradient of its hidden states."""
    hs, cs, gates = cache
    T, H = dH.shape
    i, f, g, o = (gates[:, k * H:(k + 1) * H] for k in range(4))
    tc = np.tanh(cs[1:])
    # derivative of each pre-activation with respect to dc (input, forget
    # and cell gates) or dh (output gate)
    dz_dc = np.stack([g * i * (1 - i), cs[:-1] * f * (1 - f),
                      i * (1 - g * g)], axis=1)
    dz_dh = tc * o * (1 - o)
    dc_dh = o * (1 - tc * tc)
    dZ = np.empty((T, 4 * H))
    dZ_gates = dZ.reshape(T, 4, H)
    dh = np.zeros(H)
    dc = np.zeros(H)
    for t in range(T - 1, -1, -1):
        dh = dH[t] + dh
        dc = dh * dc_dh[t] + dc
        dZ_gates[t, :3] = dc * dz_dc[t]
        dZ_gates[t, 3] = dh * dz_dh[t]
        dc = dc * f[t]
        dh = U.T @ dZ[t]
    return dZ.T @ X, dZ.T @ hs[:-1], dZ.sum(axis=0), dZ @ W


def _weighted_nll(probs: np.ndarray, y: np.ndarray,
                  class_weights: np.ndarray) -> tuple[float, float]:
    """(class-weighted negative log-likelihood of labels y, sum of weights)."""
    w = class_weights[y]
    p = np.maximum(probs[np.arange(len(y)), y], 1e-300)
    return float(np.sum(-w * np.log(p))), float(np.sum(w))


def loss_and_gradients(params: BlstmParams, batch: Sequence[tuple],
                       class_weights: Optional[np.ndarray] = None
                       ) -> tuple[float, dict]:
    """Class-weighted mean cross-entropy over all epochs of the batch, with
    gradients from full backpropagation through time.

    ``batch`` is a sequence of (features (T x input_dim), labels (T,)) pairs.
    """
    if not batch:
        raise EmptyDataset("empty batch")
    if class_weights is None:
        class_weights = np.ones(params.classes)
    class_weights = np.asarray(class_weights, dtype=float)

    grads = {k: np.zeros_like(v) for k, v in params.weights.items()}
    total_loss = 0.0
    total_weight = 0.0
    per_seq = []
    for X, y in batch:
        probs, hcat, layer_caches = _forward_full(params, X)
        y = np.asarray(y, dtype=int)
        if len(y) != len(probs):
            raise ShapeMismatch("label length differs from sequence length")
        seq_loss, seq_weight = _weighted_nll(probs, y, class_weights)
        total_loss += seq_loss
        total_weight += seq_weight
        per_seq.append((probs, y, class_weights[y], hcat, layer_caches))

    if not np.isfinite(total_loss) or total_weight <= 0:
        raise NonFiniteLoss(f"loss={total_loss}, weight={total_weight}")
    loss = total_loss / total_weight

    H = params.hidden
    for probs, y, w, hcat, layer_caches in per_seq:
        dlogits = probs.copy()
        dlogits[np.arange(len(y)), y] -= 1.0
        dlogits *= (w / total_weight)[:, None]
        grads["out_W"] += dlogits.T @ hcat
        grads["out_b"] += dlogits.sum(axis=0)
        dlayer = dlogits @ params.weights["out_W"]
        for l in range(params.layers - 1, -1, -1):
            layer_in, caches = layer_caches[l]
            dX_total = np.zeros_like(layer_in)
            for k, d in enumerate(params.directions):
                step = -1 if d == "b" else 1
                dW, dU, db, dX = _backward_direction(
                    params.weights[f"l{l}{d}_W"], params.weights[f"l{l}{d}_U"],
                    layer_in[::step], dlayer[::step, k * H:(k + 1) * H],
                    caches[d])
                grads[f"l{l}{d}_W"] += dW
                grads[f"l{l}{d}_U"] += dU
                grads[f"l{l}{d}_b"] += db
                dX_total += dX[::step]
            dlayer = dX_total
    return loss, grads


# --- training -------------------------------------------------------------

def _global_norm(grads: dict) -> float:
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))


def _clip(grads: dict, max_norm: float) -> None:
    norm = _global_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale


def default_class_weights(labels: Sequence[np.ndarray], classes: int = 4,
                          clamp: tuple[float, float] = (0.25, 4.0)) -> np.ndarray:
    """Inverse-frequency weights, mean-normalized then clamped."""
    counts = np.zeros(classes)
    for y in labels:
        counts += np.bincount(np.asarray(y, dtype=int), minlength=classes)
    freq = counts / max(1.0, counts.sum())
    inv = np.where(freq > 0, 1.0 / np.maximum(freq, 1e-12), 1.0)
    inv = inv / np.mean(inv[freq > 0]) if np.any(freq > 0) else inv
    return np.clip(inv, clamp[0], clamp[1])


def evaluate_loss(params: BlstmParams, data: Sequence[tuple],
                  class_weights: np.ndarray) -> tuple[float, float]:
    """(weighted mean loss, plain accuracy) over a dataset."""
    total_loss = total_weight = 0.0
    correct = total = 0
    for X, y in data:
        probs = forward(params, X)
        y = np.asarray(y, dtype=int)
        seq_loss, seq_weight = _weighted_nll(probs, y, class_weights)
        total_loss += seq_loss
        total_weight += seq_weight
        correct += int(np.sum(np.argmax(probs, axis=1) == y))
        total += len(y)
    return total_loss / max(total_weight, 1e-300), correct / max(total, 1)


def train(config: TrainConfig, train_data: Sequence[tuple],
          val_data: Optional[Sequence[tuple]] = None
          ) -> tuple[BlstmParams, dict]:
    """Adam over whole-night sequences with gradient clipping and early
    stopping on validation loss. Deterministic for a fixed config."""
    if not train_data:
        raise EmptyDataset("no training sequences")
    input_dim = np.asarray(train_data[0][0]).shape[1]
    params = init_params(config.seed, input_dim=input_dim)

    if config.class_weights is not None:
        cw = np.asarray(config.class_weights, dtype=float)
    else:
        cw = default_class_weights([y for _, y in train_data], params.classes)

    rng = np.random.default_rng(config.seed)
    m = {k: np.zeros_like(v) for k, v in params.weights.items()}
    v = {k: np.zeros_like(w) for k, w in params.weights.items()}
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0

    history = {"train_loss": [], "val_loss": [], "train_acc": [], "val_acc": []}
    monitor = val_data if val_data else train_data
    best_loss = np.inf
    best_params = params.copy()
    bad_epochs = 0

    for _epoch in range(config.max_epochs):
        order = rng.permutation(len(train_data))
        for start in range(0, len(order), config.batch_size):
            idx = order[start:start + config.batch_size]
            batch = [train_data[i] for i in idx]
            _, grads = loss_and_gradients(params, batch, cw)
            _clip(grads, config.clip_norm)
            step += 1
            lr_t = config.learning_rate * (np.sqrt(1 - beta2 ** step)
                                           / (1 - beta1 ** step))
            for k in params.weights:
                m[k] = beta1 * m[k] + (1 - beta1) * grads[k]
                v[k] = beta2 * v[k] + (1 - beta2) * grads[k] ** 2
                params.weights[k] -= lr_t * m[k] / (np.sqrt(v[k]) + eps)

        tr_loss, tr_acc = evaluate_loss(params, train_data, cw)
        history["train_loss"].append(tr_loss)
        history["train_acc"].append(tr_acc)
        mon_loss, mon_acc = ((tr_loss, tr_acc) if monitor is train_data
                             else evaluate_loss(params, monitor, cw))
        history["val_loss"].append(mon_loss)
        history["val_acc"].append(mon_acc)
        if not np.isfinite(mon_loss):
            raise NonFiniteLoss(f"validation loss became {mon_loss}")

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

def save_checkpoint(params: BlstmParams, path, manifest_hash: str,
                    config: Optional[dict] = None) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "input_dim": params.input_dim,
        "hidden": params.hidden,
        "layers": params.layers,
        "classes": params.classes,
        "bidirectional": params.bidirectional,
        "manifest_hash": manifest_hash,
        "config": config or {},
    }
    np.savez(Path(path), __meta=json.dumps(meta, sort_keys=True),
             **params.weights)


def load_checkpoint(path, expected_manifest_hash: Optional[str] = None
                    ) -> tuple[BlstmParams, dict]:
    with np.load(Path(path), allow_pickle=False) as data:
        meta = json.loads(str(data["__meta"]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ManifestMismatch(f"unsupported checkpoint version {meta.get('version')}")
        if (expected_manifest_hash is not None
                and meta["manifest_hash"] != expected_manifest_hash):
            raise ManifestMismatch("checkpoint was trained against a different manifest")
        weights = {k: data[k] for k in data.files if k != "__meta"}
    params = BlstmParams(meta["input_dim"], meta["hidden"], meta["layers"],
                         meta["classes"], meta["bidirectional"], weights)
    return params, meta
