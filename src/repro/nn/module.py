"""Module/Parameter abstractions mirroring the familiar layer API.

A :class:`Module` owns :class:`Parameter` tensors and child modules and
provides recursive parameter discovery, gradient zeroing, train/eval
switching, and flat state-dict (de)serialization.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ModelError
from repro.nn.tensor import Tensor

__all__ = ["Parameter", "Module", "bump_generation", "current_generation"]

# Global model-generation counter.  Anything that mutates parameter data
# (optimizer steps, state-dict loads, pretrained-embedding loads) bumps
# it; inference-time float32 weight snapshots are cached keyed by
# this value, so a single integer compare tells a frozen model that its
# snapshots are still valid while a fine-tune invalidates all of them at
# once.
_MODEL_GENERATION = 0


def bump_generation() -> int:
    """Record a parameter mutation; invalidates cached weight snapshots."""
    global _MODEL_GENERATION
    _MODEL_GENERATION += 1
    return _MODEL_GENERATION


def current_generation() -> int:
    """Return the current model-generation counter."""
    return _MODEL_GENERATION


class Parameter(Tensor):
    """A tensor registered as a trainable model parameter."""

    def __init__(self, data, name: str | None = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; both are discovered automatically for optimization and
    serialization.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{name}.{i}.")

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters of this module tree."""
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # Training state
    # ------------------------------------------------------------------

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        """Enable training mode (dropout active) on the whole tree."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Enable evaluation mode on the whole tree."""
        for module in self.modules():
            module.training = False
        return self

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a flat name → array mapping (arrays are copies)."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load a state dict produced by :meth:`state_dict`.

        Raises :class:`repro.errors.ModelError` on any name or shape
        mismatch so silent partial loads cannot happen.
        """
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, array in state.items():
            param = params[name]
            if param.data.shape != array.shape:
                raise ModelError(
                    f"shape mismatch for {name}: model {param.data.shape} vs state {array.shape}")
            param.data = np.asarray(array, dtype=np.float64).copy()
        bump_generation()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError
