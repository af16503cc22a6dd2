"""Bounds-checked reading of the package's binary file formats.

The channel-realization file (TPCR) and the checkpoint (TPWT) both read
through :class:`Reader`, so a short, overlong or malformed file raises
the format's own error class instead of a bare ``struct.error`` or a
silently short array.
"""

from __future__ import annotations


class Reader:
    """Cursor over the bytes of one file.

    ``error`` is the exception class raised on any failure and ``kind``
    names the format in its messages.
    """

    def __init__(self, blob: bytes, error: type[ValueError], kind: str):
        self._view = memoryview(blob)
        self._error = error
        self._kind = kind
        self._off = 0

    def take(self, n: int, what: str) -> memoryview:
        """The next ``n`` bytes, zero-copy; raises when fewer remain."""
        end = self._off + n
        if end > len(self._view):
            raise self._error(
                f"{self._kind} truncated at byte {len(self._view)} while reading "
                f"{what} (needed {end} bytes)"
            )
        out = self._view[self._off : end]
        self._off = end
        return out

    def done(self):
        """Raise unless every byte has been consumed."""
        extra = len(self._view) - self._off
        if extra:
            raise self._error(
                f"{self._kind} has {extra} trailing bytes after byte {self._off}"
            )
