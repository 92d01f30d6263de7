"""Shared exception base so the CLI can map failures to exit codes uniformly; the file reader."""

from pathlib import Path


class WorkbenchError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(WorkbenchError):
    """Ill-formed textual input: formulas, structure files, proof files, pair specs."""


def read_text(path: str) -> str:
    """The text of a file; FormatError when it cannot be read or decoded."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
