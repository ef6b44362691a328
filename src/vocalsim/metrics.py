"""Evaluation: accuracy, RMSE, Pearson correlation, and a confusion matrix
rendered as count plus percentage-of-total cells with correct/incorrect
margins per predicted row and actual column."""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, read_text
from .models import SIMILAR_INDEX, SiameseModel

BINARY_CLASSES = ("NS", "S")  # non-similar, similar


def pearson_cc(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation; 0.0 when either side has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {y.shape}")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
    if denom == 0.0:
        return 0.0
    return float(np.sum(dx * dy) / denom)


def rmse(predicted: np.ndarray, actual: np.ndarray) -> float:
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise ValueError(f"shape mismatch: {predicted.shape} vs {actual.shape}")
    return float(np.sqrt(np.mean((predicted - actual) ** 2)))


def confusion_matrix(predicted: np.ndarray, actual: np.ndarray, k: int) -> np.ndarray:
    """Counts with rows = predicted class, columns = actual class."""
    counts = np.zeros((k, k), dtype=np.int64)
    for p, a in zip(predicted, actual):
        counts[p, a] += 1
    return counts


def accuracy_from_confusion(counts: np.ndarray) -> float:
    """Trace over total, as a percentage."""
    counts = np.asarray(counts)
    total = counts.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    return float(np.trace(counts) / total * 100.0)


@dataclass
class EvalReport:
    mode: str  # binary | score25
    total: int
    accuracy: float  # percent
    rmse: float
    pearson_cc: float
    confusion: np.ndarray  # (k, k) counts, rows = predicted
    class_names: tuple
    normalized_rmse: float | None = None  # score25 only

    def to_json(self) -> str:
        payload = {
            "mode": self.mode,
            "total": self.total,
            "accuracy": self.accuracy,
            "rmse": self.rmse,
            "pearson_cc": self.pearson_cc,
            "normalized_rmse": self.normalized_rmse,
            "class_names": list(self.class_names),
            "confusion": self.confusion.tolist(),
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, path) -> "EvalReport":
        """The report `to_json` wrote to the file at `path`; a DataError
        naming the file if it is not such a report. The confusion must be a
        square matrix of non-negative integer counts, one row and column per
        class name, summing to total."""
        try:
            payload = json.loads(read_text(path, "report"))
            class_names = tuple(payload["class_names"])
            confusion = np.asarray(payload["confusion"])
            k = len(class_names)
            if confusion.dtype != np.int64 or confusion.shape != (k, k) or (confusion < 0).any():
                raise ValueError(
                    f"confusion must be a {k}x{k} matrix of counts, "
                    f"got {confusion.dtype} of shape {confusion.shape}"
                )
            if confusion.sum() != payload["total"]:
                raise ValueError(
                    f"confusion counts {confusion.sum()} pairs, total is {payload['total']!r}"
                )
            return cls(
                mode=payload["mode"],
                total=payload["total"],
                accuracy=payload["accuracy"],
                rmse=payload["rmse"],
                pearson_cc=payload["pearson_cc"],
                confusion=confusion,
                class_names=class_names,
                normalized_rmse=payload["normalized_rmse"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: unreadable report ({exc})") from exc


def evaluate(model: SiameseModel, pairs, features) -> EvalReport:
    """Score `pairs` with dropout off (SiameseModel.pair_scores) and
    summarize the four metrics.

    Binary mode uses P(similar) as the numeric prediction against 0/1 labels;
    score25 uses the arg-max class index against label_score.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("cannot evaluate an empty pair list")
    head_size = model.spec.head_size
    binary = head_size == 2
    out = model.pair_scores(pairs, features)
    if binary:
        # model class order is (similar, non-similar); report in NS, S order
        pred_idx = (np.argmax(out, axis=1) == SIMILAR_INDEX).astype(np.int64)
        true_idx = np.array([1 if p.similar else 0 for p in pairs], dtype=np.int64)
        numeric_pred = out[:, SIMILAR_INDEX]
    else:
        pred_idx = np.argmax(out, axis=1)
        true_idx = np.array([p.label_score for p in pairs], dtype=np.int64)
        numeric_pred = pred_idx
    counts = confusion_matrix(pred_idx, true_idx, head_size)
    error = rmse(numeric_pred, true_idx)
    return EvalReport(
        mode="binary" if binary else "score25",
        total=len(pairs),
        accuracy=accuracy_from_confusion(counts),
        rmse=error,
        pearson_cc=pearson_cc(numeric_pred, true_idx),
        confusion=counts,
        class_names=BINARY_CLASSES if binary else tuple(str(i) for i in range(head_size)),
        normalized_rmse=None if binary else error / head_size,
    )


def render_confusion(report: EvalReport) -> str:
    """Fixed-width table: rows = predicted, columns = actual; each cell shows
    the count and its percentage of all pairs; margins show the correct and
    incorrect percentage of each predicted row and each actual column."""
    counts = report.confusion
    k = len(report.class_names)
    total = counts.sum()

    def margin(correct, size):
        if size == 0:
            return "-"
        pct = 100.0 * correct / size
        return f"{pct:.2f} / {100.0 - pct:.2f}"

    header = ["predicted \\ actual", *report.class_names, "total"]
    rows = [header]
    for i in range(k):
        cells = [f"{counts[i, j]} ({100.0 * counts[i, j] / total:.2f})" for j in range(k)]
        rows.append([str(report.class_names[i]), *cells, margin(counts[i, i], counts[i].sum())])
    rows.append(
        ["total", *[margin(counts[j, j], counts[:, j].sum()) for j in range(k)], ""]
    )

    widths = [max(len(row[c]) for row in rows) for c in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"
