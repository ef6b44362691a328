"""Exception types shared across the package, and the file helpers every
module uses: the file checks and the text-file reader that raise them, the
writer that replaces a file whole, and the directory maker."""

import contextlib
import os
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


@contextlib.contextmanager
def replace_file(path, mode: str = "w", **open_args):
    """An open file ("w" or "wb" mode) whose contents replace `path` when
    the block ends.

    The file is written under a temporary name in the same directory and
    then renamed over `path`, so a reader never sees a half-written file,
    and a file another process has mapped is replaced, never rewritten
    under it. A block that raises leaves the old file as it was and no
    temporary file behind; an OSError, from creating, writing or renaming
    the file, is raised as a DataError naming `path`."""
    directory, base = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{base}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_args) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def make_dir(path) -> None:
    """mkdir -p `path`; a DataError naming the path if it cannot be made."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot make directory {path}: {exc.strerror or exc}") from exc


def replace_text(path, text: str) -> None:
    """Replace the file at `path` by one holding `text` in UTF-8 (see
    replace_file)."""
    with replace_file(path, encoding="utf-8") as fh:
        fh.write(text)
