"""The package's two exception classes; the CLI maps them to exit codes 2 and 1."""


class ConfigError(ValueError):
    """Bad input: a configuration or parameter outside its admissible range."""


class RunError(RuntimeError):
    """A run, audit, fit, evaluation or plot could not complete. `branch` is the
    leading index of a stacked state (see `problem.State`) where it failed, if any."""

    def __init__(self, message: str, branch: int | None = None) -> None:
        super().__init__(message)
        self.branch = branch
