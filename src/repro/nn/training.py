"""Mini-batch training loop.

:class:`Trainer` owns the one loop: shuffling, mini-batches,
validation with patience and best-weight restore, and the training
telemetry.  A subclass changes how the loss gradient flows back by
overriding :meth:`Trainer._backward` —
:class:`repro.core.MicroDeepTrainer` backpropagates per sensor node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.losses import CrossEntropyLoss
from repro.nn.model import Sequential
from repro.nn.optimizers import Optimizer


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    @property
    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else float("nan")


class Trainer:
    """Trains a :class:`Sequential` classifier with mini-batch SGD.

    Under a telemetry session every mini-batch runs in a ``train.step``
    span and advances the ``train.steps``/``train.examples`` counters
    and the ``train.loss`` gauge; every epoch advances
    ``train.epochs`` and the ``train.epoch_loss``/
    ``train.epoch_accuracy`` gauges.  The null backend records nothing.

    Args:
        model: a built (or to-be-built) Sequential model.
        optimizer: parameter-update rule.
        loss: loss object; defaults to softmax cross-entropy.
        telemetry: backend for the spans and metrics; defaults to the
            installed session (:func:`repro.obs.runtime.current`).
    """

    def __init__(
        self,
        model: Sequential,
        optimizer: Optimizer,
        loss: Optional[CrossEntropyLoss] = None,
        telemetry=None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss = loss if loss is not None else CrossEntropyLoss()
        if telemetry is None:
            from repro.obs.runtime import current

            telemetry = current()
        self._telemetry = telemetry

    def _backward(self, grad: np.ndarray) -> None:
        """Backpropagate the loss gradient ``grad`` through the model."""
        self.model.backward(grad)

    def _train_step(self, xb: np.ndarray, yb: np.ndarray) -> Tuple[float, int]:
        """One mini-batch update; returns ``(batch_loss, n_correct)``."""
        self.model.zero_grads()
        logits = self.model.forward(xb, training=True)
        batch_loss = self.loss.forward(logits, yb)
        self._backward(self.loss.backward())
        self.optimizer.step(self.model.param_slots())
        return batch_loss, int((logits.argmax(axis=-1) == yb).sum())

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator,
        x_val: Optional[np.ndarray] = None,
        y_val: Optional[np.ndarray] = None,
        patience: Optional[int] = None,
        recorder=None,
    ) -> TrainingHistory:
        """Train and return the per-epoch history.

        With ``patience`` set and validation data supplied, training
        stops after that many epochs without a validation-accuracy
        improvement and the best weights are restored.

        ``recorder`` (an enabled :class:`repro.obs.FlightRecorder`) is
        sampled once per epoch, after the epoch metrics land — with
        the recorder's default index clock each timeline tick is one
        epoch, which is what the watchdog's ``train.loss`` drift
        rules evaluate against.

        Raises:
            ValueError: if ``x`` is empty — an empty dataset would
                otherwise surface as a ``ZeroDivisionError`` deep in
                the epoch averaging.
        """
        if x.shape[0] == 0:
            raise ValueError(
                "cannot fit on an empty dataset (x has 0 samples)"
            )
        if not self.model.built:
            self.model.build(x.shape[1:], rng)
        history = TrainingHistory()
        n = x.shape[0]
        tel = self._telemetry
        validate = x_val is not None and y_val is not None
        best_acc = -np.inf
        best_weights = None
        stale = 0
        for epoch in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            correct = 0
            for step, start in enumerate(range(0, n, batch_size)):
                idx = order[start : start + batch_size]
                xb, yb = x[idx], y[idx]
                if tel.enabled:
                    with tel.tracer.span(
                        "train.step", epoch=epoch, step=step,
                        batch=int(len(idx)),
                    ):
                        batch_loss, batch_correct = self._train_step(xb, yb)
                    tel.metrics.counter("train.steps").inc()
                    tel.metrics.counter("train.examples").inc(float(len(idx)))
                    tel.metrics.gauge("train.loss").set(float(batch_loss))
                else:
                    batch_loss, batch_correct = self._train_step(xb, yb)
                epoch_loss += batch_loss * len(idx)
                correct += batch_correct
            history.train_loss.append(epoch_loss / n)
            history.train_accuracy.append(correct / n)
            if tel.enabled:
                tel.metrics.counter("train.epochs").inc()
                tel.metrics.gauge("train.epoch_loss").set(epoch_loss / n)
                tel.metrics.gauge("train.epoch_accuracy").set(correct / n)
            if validate:
                val_loss, val_acc = self.evaluate(x_val, y_val)
                history.val_loss.append(val_loss)
                history.val_accuracy.append(val_acc)
                if val_acc > best_acc:
                    best_acc = val_acc
                    best_weights = self.model.get_weights()
                    stale = 0
                else:
                    stale += 1
            if recorder is not None:
                recorder.sample()
            if validate and patience is not None and stale >= patience:
                break
        if best_weights is not None:
            self.model.set_weights(best_weights)
        return history

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> tuple:
        """Return ``(mean_loss, accuracy)`` on the given data.

        Raises:
            ValueError: if ``x`` is empty — there is no mean loss or
                accuracy of zero samples.
        """
        n = x.shape[0]
        if n == 0:
            raise ValueError(
                "cannot evaluate on an empty dataset (x has 0 samples)"
            )
        total_loss = 0.0
        correct = 0
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = self.model.forward(xb, training=False)
            total_loss += self.loss.forward(logits, yb) * len(xb)
            correct += int((logits.argmax(axis=-1) == yb).sum())
        return total_loss / n, correct / n
