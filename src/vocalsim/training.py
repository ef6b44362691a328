"""Training loop: RMSE loss against one-hot targets, RMSProp updates, and
early stopping on validation loss with a best-weights restore."""

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import DataError, NumericError
from .models import SiameseModel


@dataclass
class TrainConfig:
    batch_size: int = 100
    epochs: int = 300
    lr: float = 1e-5
    decay: float = 1e-6
    patience: int = 10

    def __post_init__(self):
        for name in ("lr", "decay"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("batch_size", "epochs", "lr", "patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.decay < 0:
            raise ValueError(f"decay must be >= 0, got {self.decay}")


@dataclass
class TrainResult:
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0  # index into the loss histories
    stopped_early: bool = False


class EarlyStopper:
    """Stop once the best value has not strictly improved for `patience`
    consecutive updates."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = np.inf
        self.best_index = 0
        self._count = 0
        self._bad = 0

    def update(self, value: float) -> bool:
        """Record one epoch's value; return True when training should stop."""
        if value < self.best:
            self.best = value
            self.best_index = self._count
            self._bad = 0
        else:
            self._bad += 1
        self._count += 1
        return self._bad >= self.patience


def _target_matrix(pairs, head_size: int) -> np.ndarray:
    targets = np.zeros((len(pairs), head_size))
    for row, pair in enumerate(pairs):
        if head_size == 2:
            targets[row, 0 if pair.similar else 1] = 1.0
        else:
            if not 0 <= pair.label_score < head_size:
                raise DataError(
                    f"pair {pair.left_id} / {pair.right_id}: label_score "
                    f"{pair.label_score} outside 0..{head_size - 1}"
                )
            targets[row, pair.label_score] = 1.0
    return targets


def evaluate_loss(model: SiameseModel, pairs, features, batch_size: int = 100) -> float:
    """Mean per-sample RMSE loss over `pairs`, dropout off: the pairs are
    scored in one SiameseModel.pair_scores call, and the RMSE of each batch
    of `batch_size` pairs is weighted by its size, as train() sums them."""
    if not pairs:
        raise ValueError("cannot evaluate loss on an empty pair list")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    out = model.pair_scores(pairs, features)
    targets = _target_matrix(pairs, model.spec.head_size)
    total = 0.0
    for start in range(0, len(pairs), batch_size):
        rows = slice(start, start + batch_size)
        loss = ad.rmse_loss(ad.Constant(out[rows]), targets[rows])
        total += float(loss.data) * len(out[rows])
    return total / len(pairs)


def train(
    model: SiameseModel,
    train_pairs,
    val_pairs,
    features,
    config: TrainConfig | None = None,
    rng: np.random.Generator | None = None,
) -> TrainResult:
    """Fit `model` on `train_pairs`, early-stopping on `val_pairs`.

    `features` maps sample ids to FeatureSets. The model is left holding the
    weights of the best validation epoch.
    """
    if not train_pairs:
        raise ValueError("train_pairs is empty")
    if not val_pairs:
        raise ValueError("val_pairs is empty")
    config = config or TrainConfig()
    rng = rng or np.random.default_rng(0)
    train_pairs = list(train_pairs)
    val_pairs = list(val_pairs)

    params = model.params()
    optimizer = ad.RMSProp(params, lr=config.lr, decay=config.decay)
    stopper = EarlyStopper(config.patience)
    result = TrainResult()
    # a copy of the best epoch's weights, made only when a later epoch will
    # run and move them, and refreshed in place, so that no second copy is
    # ever made; None while the best weights are the current ones
    best_weights = None

    for epoch in range(config.epochs):
        order = rng.permutation(len(train_pairs))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [train_pairs[i] for i in order[start : start + config.batch_size]]
            optimizer.zero_grad()
            targets = _target_matrix(batch, model.spec.head_size)
            loss = ad.rmse_loss(model.score_pairs(batch, features, rng), targets)
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at pair {start} (lr={optimizer.current_lr()})"
                )
            loss.backward()
            # free the graph and its saved arrays before the step's scratch
            del loss
            optimizer.step()
            epoch_loss += value * len(batch)
        result.train_losses.append(epoch_loss / len(train_pairs))

        val_loss = evaluate_loss(model, val_pairs, features, config.batch_size)
        if not np.isfinite(val_loss):
            raise NumericError(f"non-finite validation loss at epoch {epoch}")
        result.val_losses.append(val_loss)

        if val_loss < stopper.best:
            if epoch == config.epochs - 1:
                best_weights = None
            elif best_weights is None:
                best_weights = [p.data.copy() for p in params]
            else:
                for best, p in zip(best_weights, params):
                    np.copyto(best, p.data)
        if stopper.update(val_loss):
            result.stopped_early = True
            break

    result.best_epoch = stopper.best_index
    if best_weights is not None:
        for p, best in zip(params, best_weights):
            p.data = best
    return result
