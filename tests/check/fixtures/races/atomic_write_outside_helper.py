"""Fixture: write-then-rename re-implemented outside repro.cache.

A fixed temp name lets two concurrent writers clobber each other's
temp file, and a hand-rolled mkstemp copy tends to leak its temp file
on failure; both belong to ``repro.cache.atomic_write``.
"""

import os
import tempfile


def save_with_fixed_tmp(path, text):
    tmp = str(path) + ".tmp"
    with open(tmp, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)  # expect[atomic-write-outside-helper]


def save_with_mkstemp(directory):
    fd, name = tempfile.mkstemp(dir=directory)  # expect[atomic-write-outside-helper]
    os.close(fd)
    return name


def string_replace_is_fine(name):
    # str.replace is not a filesystem call; not flagged.
    return name.replace(":", "_")
