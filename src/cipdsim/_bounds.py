"""The one memory bound: no call sizes its arrays from its input past 256 MiB."""

#: All the float64 one call holds at its peak stay below this many bytes
#: together; the caller's inputs and a result of one value per input item
#: do not count.
MAX_BYTES = 1 << 28


def refuse_over_limit(doubles, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``doubles`` float64 fit below the limit."""
    if not 8 * doubles < MAX_BYTES:
        raise ValueError(f"{what} needs {8 * doubles:.6g} bytes; the limit is {MAX_BYTES}")
