"""How wsdetect reads its input files: one walker for a tree, one
reader for a file's bytes, one line reader for text that must be UTF-8."""

from __future__ import annotations

import os
import stat
from pathlib import Path


def walk(root: str | Path) -> list[Path]:
    """Every non-directory entry that `os.walk` lists under `root`,
    sorted: files, and symlinks too, so a dangling one is read, and
    fails, instead of vanishing. A `root` that is not a directory raises
    `NotADirectoryError`."""
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a directory")
    return sorted(Path(top) / name for top, _, names in os.walk(root)
                  for name in names)


def read_each(paths):
    """Each path, as a string, with its bytes, or with the reason it
    could not be read: an OS error's `strerror`, else its message. A
    FIFO or device is not read, since its read could block or never
    end: its reason is "not a regular file". Only the bytes of the file
    being yielded are held."""
    for path in paths:
        try:
            # a directory is read, and fails with its own error
            if stat.S_ISREG(mode := os.stat(path).st_mode) or stat.S_ISDIR(mode):
                data = Path(path).read_bytes()
            else:
                data = "not a regular file"
        except OSError as exc:
            data = exc.strerror or str(exc)
        yield str(path), data


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
