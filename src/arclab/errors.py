"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class ConfigError(ValueError):
    """A configuration value or combination is invalid."""


class NumericalError(ArithmeticError):
    """A numerical routine failed to converge or met non-finite values."""


class GraphError(RuntimeError):
    """A computation graph was constructed or consumed incorrectly."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed, truncated, or inconsistent."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message if offset is None else f"{message} (at byte offset {offset})")
        self.offset = offset


class TrainingAborted(RuntimeError):
    """Training hit a non-finite loss and stopped."""

    def __init__(self, step: int, lr: float, max_grad: float):
        super().__init__(
            f"non-finite loss at step {step} (lr={lr:.6g}, max |grad| so far={max_grad:.6g})"
        )
        self.step = step
        self.lr = lr
        self.max_grad = max_grad
