"""Exception types shared across the package."""


class InputError(ValueError):
    """A caller-supplied value violates an operation's precondition."""


class SpecificationError(ValueError):
    """A task or machine is structurally unusable (e.g. no accepting state)."""


class MachineFormatError(InputError):
    """Malformed machine text."""


class FormulaSyntaxError(InputError):
    """Formula text does not tokenize/parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(message, position)  # args match __init__, so pickling rebuilds it
        self.position = position

    def __str__(self) -> str:
        message, position = self.args
        return f"{message} (at position {position})"


class UnsupportedConstructError(InputError):
    """Formula parses but falls outside the supported temporal fragment."""


class UsageError(RuntimeError):
    """An object was driven through an illegal call sequence."""


class NumericsError(ArithmeticError):
    """A non-finite value surfaced where a finite loss/gradient was required."""
