"""Logging helpers: the library's logger tree and its stderr set-up.

Every module logs under the ``repro.`` namespace (:func:`get_logger`), so an
embedding application controls the whole tree from one place; the CLI and
the examples switch it on with :func:`configure_basic_logging` and the
benchmarks switch it off with :func:`silence`.
"""

from __future__ import annotations

import logging

_ROOT_NAME = "repro"


def get_logger(component: str) -> logging.Logger:
    """Return the library logger for ``component`` (e.g. ``"scp.runtime"``)."""
    return logging.getLogger(f"{_ROOT_NAME}.{component}")


def configure_basic_logging(level: int = logging.INFO,
                            fmt: str = "%(levelname)s %(name)s: %(message)s") -> None:
    """Configure a simple stderr handler for the library's logger tree.

    This is only intended for examples and the CLI; library code never calls
    it so applications embedding the library keep control of logging.
    """
    logger = logging.getLogger(_ROOT_NAME)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(fmt))
        logger.addHandler(handler)
    logger.setLevel(level)


def silence() -> None:
    """Silence the library's logger tree (used by benchmarks)."""
    logging.getLogger(_ROOT_NAME).setLevel(logging.CRITICAL + 1)


__all__ = ["get_logger", "configure_basic_logging", "silence"]
