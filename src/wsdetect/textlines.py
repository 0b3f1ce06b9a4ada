"""Line-at-a-time reading of text files that must be UTF-8."""

from __future__ import annotations


def utf8_lines(fh, path, error: type[Exception]):
    """The lines of `fh`, opened with errors="surrogateescape": a line
    holding bytes that are not UTF-8 holds lone surrogates, which do not
    encode, and raises `error` with "PATH:N: not UTF-8 text"."""
    for number, line in enumerate(fh, 1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{number}: not UTF-8 text") from None
        yield line
