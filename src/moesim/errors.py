"""Exception types shared across the simulator."""


class MoesimError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MoesimError):
    """A config document or trace file could not be parsed strictly."""


class EmptySpaceError(MoesimError):
    """Every candidate in a design space was pruned."""


class NonDivisibleError(MoesimError):
    """A batch or grid quantity does not divide evenly."""


class InfeasibleChunkingError(MoesimError):
    """Fewer layer items than pipeline chunks."""


class PlanError(MoesimError):
    """A parallel plan failed validation for the given model and cluster."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class DeadlockError(MoesimError):
    """The timeline task graph contains a dependency cycle."""


class FieldError(ValueError):
    """A record field or an argument holds a value outside its declared kind
    or bound. ``name`` is the field; the message is the prefix, the name and
    what the value must be. A ValueError, not a MoesimError: `search` skips
    a candidate over a MoesimError, and a bad input is no candidate's fault."""

    def __init__(self, name: str, problem: str, prefix: str = ""):
        super().__init__(name, problem, prefix)
        self.name, self.problem = name, problem

    def __str__(self) -> str:
        name, problem, prefix = self.args
        return f"{prefix}{name} {problem}"


class UnpricedDtypeError(MoesimError, ValueError):
    """The cluster lists no peak rate for the model's dtype."""


class InfeasibleMemoryError(MoesimError):
    """The memory plan does not fit the device: no fine-grained plan fits,
    or full-layer recompute does not."""


class EmptyWindowError(MoesimError):
    """A trace window holds no tokens."""


class ZeroMeanError(MoesimError):
    """Device load statistics are undefined when the mean load is zero."""


class SlotMismatchError(MoesimError):
    """Expert count does not match num_devices * slots_per_device."""
