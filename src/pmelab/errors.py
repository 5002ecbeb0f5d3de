"""The package's two exception classes; the CLI maps them to exit codes 2 and 1."""


class ConfigError(ValueError):
    """Bad input: a configuration or parameter outside its admissible range."""


class RunError(RuntimeError):
    """A run, audit, fit, evaluation or plot could not complete."""
