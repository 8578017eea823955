"""Linear evaluation of frozen encoders and collaboration comparisons.

A probe is a multinomial logistic regression trained with minibatch
adaptive-moment updates on precomputed representations; the encoder is never
touched. Accuracy is the fraction of argmax-correct predictions with ties
broken toward the lowest class index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import sslnet
from .errors import ConfigError, NumericalFailureError, ShapeError
from .numkit import Matrix, RngStream, as_matrix
from .sslnet import ClientModel


@dataclass(frozen=True)
class ProbeConfig:
    epochs: int = 50
    lr: float = 0.003
    batch: int = 128
    seed: int = 0


@dataclass
class LinearProbe:
    weights: Matrix          # d_rep x K
    biases: np.ndarray       # K


def _softmax(logits: Matrix) -> Matrix:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_probe(reps: Matrix, labels: Sequence[int], cfg: ProbeConfig) -> LinearProbe:
    """Fit the probe on frozen representations. Weights start at zero, so
    with epochs=0 the probe is the zero-logit classifier."""
    reps = as_matrix(reps, "representations")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or len(labels) != reps.shape[0]:
        raise ShapeError("labels length must match representation rows")
    if labels.min(initial=0) < 0:
        raise ConfigError("labels must be nonnegative")
    k = int(labels.max(initial=0)) + 1
    d = reps.shape[1]
    w = np.zeros((d, k))
    b = np.zeros(k)
    onehot = np.zeros((len(labels), k))
    onehot[np.arange(len(labels)), labels] = 1.0

    mw, vw = np.zeros_like(w), np.zeros_like(w)
    mb, vb = np.zeros_like(b), np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    rng = RngStream(cfg.seed, purpose="probe")
    for epoch in range(cfg.epochs):
        order = rng.child(epoch=epoch).generator().permutation(len(labels))
        for i in range(0, len(labels), cfg.batch):
            idx = order[i:i + cfg.batch]
            x, y = reps[idx], onehot[idx]
            probs = _softmax(x @ w + b)
            g = (probs - y) / len(idx)
            gw = x.T @ g
            gb = g.sum(axis=0)
            if not (np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))):
                raise NumericalFailureError("probe gradient", f"epoch {epoch}")
            step += 1
            mw = beta1 * mw + (1 - beta1) * gw
            vw = beta2 * vw + (1 - beta2) * gw * gw
            mb = beta1 * mb + (1 - beta1) * gb
            vb = beta2 * vb + (1 - beta2) * gb * gb
            c1 = 1 - beta1 ** step
            c2 = 1 - beta2 ** step
            w = w - cfg.lr * (mw / c1) / (np.sqrt(vw / c2) + eps)
            b = b - cfg.lr * (mb / c1) / (np.sqrt(vb / c2) + eps)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
        raise NumericalFailureError("probe weights")
    return LinearProbe(w, b)


def test_accuracy(probe: LinearProbe, reps: Matrix, labels: Sequence[int]) -> float:
    """Fraction of argmax-correct rows; argmax ties go to the lowest index."""
    reps = as_matrix(reps, "representations")
    labels = np.asarray(labels, dtype=np.int64)
    logits = reps @ probe.weights + probe.biases
    pred = np.argmax(logits, axis=1)
    return float(np.mean(pred == labels))


def stratified_split(
    labels: Sequence[int], test_fraction: float, rng: RngStream
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-class random split into train/test index arrays."""
    labels = np.asarray(labels, dtype=np.int64)
    gen = rng.generator()
    train, test = [], []
    for c in np.unique(labels):
        rows = np.nonzero(labels == c)[0]
        rows = rows[gen.permutation(len(rows))]
        n_test = int(round(len(rows) * test_fraction))
        test.append(rows[:n_test])
        train.append(rows[n_test:])
    return np.sort(np.concatenate(train)), np.sort(np.concatenate(test))


def probe_accuracy_for_model(
    model: ClientModel,
    features: Matrix,
    labels: Sequence[int],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
    cfg: ProbeConfig,
) -> float:
    """Linear-evaluation accuracy of one frozen encoder."""
    reps = sslnet.representations(model, features)
    probe = train_probe(reps[train_idx], np.asarray(labels)[train_idx], cfg)
    return test_accuracy(probe, reps[test_idx], np.asarray(labels)[test_idx])


def collab_report(
    models_local: Sequence[ClientModel],
    models_fed: Sequence[ClientModel],
    features: Matrix,
    labels: Sequence[int],
    probe_cfg: ProbeConfig = ProbeConfig(),
    split_seed: int = 0,
    test_fraction: float = 0.2,
) -> List[dict]:
    """Per-architecture mean probe accuracy for a local-only run and a
    collaborative run over the same clients, plus deltas.

    Both runs must have the same number of clients with matching
    architectures position by position.
    """
    if len(models_local) != len(models_fed):
        raise ConfigError("runs have different client counts")
    for a, b in zip(models_local, models_fed):
        if a.spec != b.spec:
            raise ConfigError("client architectures differ between the runs")
    train_idx, test_idx = stratified_split(
        labels, test_fraction, RngStream(split_seed, purpose="probe-split")
    )
    groups: Dict[str, dict] = {}
    for k, (ml, mf) in enumerate(zip(models_local, models_fed)):
        arch = f"{'x'.join(str(w) for w in ml.spec.layer_widths)}-{ml.spec.activation}"
        acc_l = probe_accuracy_for_model(ml, features, labels, train_idx, test_idx, probe_cfg)
        acc_f = probe_accuracy_for_model(mf, features, labels, train_idx, test_idx, probe_cfg)
        g = groups.setdefault(arch, {"architecture": arch, "clients": [],
                                     "local_accs": [], "fed_accs": []})
        g["clients"].append(k)
        g["local_accs"].append(acc_l)
        g["fed_accs"].append(acc_f)
    rows = []
    for arch in sorted(groups):
        g = groups[arch]
        local = float(np.mean(g["local_accs"]))
        fed = float(np.mean(g["fed_accs"]))
        rows.append({
            "architecture": arch,
            "clients": g["clients"],
            "local_only": local,
            "hetero_ssfl": fed,
            "delta": fed - local,
        })
    return rows
