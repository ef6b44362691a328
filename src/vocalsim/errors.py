"""Exception types shared across the package, and the file checks and the
text-file reader that raise them."""

from pathlib import Path


class DataError(Exception):
    """Bad input data: missing files, malformed manifests, wrong audio format."""


class NumericError(Exception):
    """Numeric failure during training, e.g. a diverging (NaN) loss."""


def read_text(path, what: str) -> str:
    """The text of the UTF-8 file at `path`, line endings as stored; a
    DataError naming the `what` and the path if it cannot be read or is not
    UTF-8."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc


def is_file(path, what: str) -> bool:
    """Whether `path` is a file; a DataError headed by `what` if the path
    cannot even be looked up, say for a name too long for the file system."""
    try:
        return Path(path).is_file()
    except OSError as exc:
        raise DataError(f"{what}: cannot look up {path}: {exc.strerror or exc}") from None
