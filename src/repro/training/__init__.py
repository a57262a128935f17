"""Training stack: losses, optimisers, trainers, metrics.

The paper evaluates *full-batch* training (a forward pass followed by a
backward pass over the whole graph, per iteration); this package
provides the loss bootstraps of Eq. (4), classic first-order optimisers
applying the Step-6 update rule, and the one :func:`train_step` every
training loop runs — the full-batch :class:`Trainer`, and for graphs
beyond the full-batch memory ceiling :class:`MinibatchTrainer`, which
drives the same models over sampled layered blocks instead.
"""

from repro.training.loss import SoftmaxCrossEntropyLoss
from repro.training.metrics import accuracy
from repro.training.minibatch import MinibatchResult, MinibatchTrainer
from repro.training.optim import SGD, Adam, Optimizer
from repro.training.trainer import TrainResult, Trainer, train_step

__all__ = [
    "SoftmaxCrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "Trainer",
    "TrainResult",
    "MinibatchTrainer",
    "MinibatchResult",
    "train_step",
    "accuracy",
]
