"""Exception types and the allocation limit shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(RuntimeError):
    """An iterative or quadrature routine failed to reach its tolerance."""


# cap on the bytes one computation may ask for, checked before it allocates
BYTE_LIMIT = 1 << 31


def check_bytes(need: int, what: str, advice: str) -> None:
    """Raise ``NumericalError`` with ``advice`` if ``what`` needs more than ``BYTE_LIMIT``."""
    if need > BYTE_LIMIT:
        raise NumericalError(
            f"{what} needs {need / 2**30:.3g} GiB, above the {BYTE_LIMIT / 2**30:.3g} GiB "
            f"limit; {advice}"
        )
